"""Span tracing of the library's layers, installed from outside.

The tracer replaces each traced function at every name its callers look it
up by (module globals and class attributes) and restores the originals on
``uninstall``.  Two kinds of wrapper:

* span: records (name, start, end, parent span, op id, phase) into
  in-memory arrays; a layer's self time is its span minus its child spans;
* count: the carrier methods and ``Expr.__hash__``.  These are too hot for
  a span or even a timer each: a loss pass makes about 2.3M carrier calls,
  and a search pass about 28M hashes.  Timing the carrier calls tripled the
  traced op time of the loss workload, against 1.25x when they are only
  counted, so only their calls are counted and their time stays in the
  caller's self time.
"""

from __future__ import annotations

import gzip
import time
from array import array

PHASES = ("setup", "op", "verify")
SETUP, OP, VERIFY = range(3)

# name -> (module attribute, owning class or None, attribute)
SPAN_TARGETS = {
    "core.validate_for_logic": ("core", None, "validate_for_logic"),
    "core.random_formula": ("core", None, "random_formula"),
    "semantics.interpret": ("semantics", None, "interpret"),
    "speclang.eval_loss": ("speclang", None, "eval_loss"),
    "speclang.elaborate": ("speclang", None, "elaborate"),
    "speclang.network": ("speclang", "NetworkDef", "forward"),
    "speclang.parse_spec": ("speclang", None, "parse_spec"),
    "calculus.random_derivation": ("calculus", None, "random_derivation"),
    "calculus.sequent_holds": ("calculus", None, "sequent_holds"),
    "calculus.premises_for": ("calculus", None, "premises_for"),
    "calculus.prove_bounded": ("calculus", None, "prove_bounded"),
    "calculus.check_proof": ("calculus", None, "check_proof"),
}
CARRIER_TARGETS = {
    "carriers.f64": "F64Carrier",
    "carriers.xreal": "XRealCarrier",
    "carriers.dual": "DualCarrier",
}
HASH_COUNT = "core.hash"


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.names: list = []
        self.name_ids: dict = {}
        self.s_name = array("H")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_phase = array("b")
        self.stack: list = []
        self.op_id = -1
        self.phase = SETUP
        # count name -> calls per phase
        self.counts = {name: [0 for _ in PHASES]
                       for name in (*CARRIER_TARGETS, HASH_COUNT)}
        self._saved: list = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self
        s_name, s_start, s_end = self.s_name, self.s_start, self.s_end
        s_parent, s_op, s_phase = self.s_parent, self.s_op, self.s_phase
        stack = self.stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(tracer.op_id)
            s_phase.append(tracer.phase)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()

        return wrapped

    def _counter(self, name: str, fn):
        calls = self.counts[name]
        tracer = self

        def wrapped(*args):
            calls[tracer.phase] += 1
            return fn(*args)

        return wrapped

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = self.mods
        modules = [getattr(mods, m) for m in ("core", "carriers", "semantics",
                                               "speclang", "calculus")]
        for name, (mod_name, cls_name, attr) in SPAN_TARGETS.items():
            home = getattr(mods, mod_name)
            if cls_name is not None:
                cls = getattr(home, cls_name)
                self._patch(cls, attr, self.span(name, cls.__dict__[attr]))
                continue
            original = getattr(home, attr)
            wrapped = self.span(name, original)
            for mod in modules:  # every name a caller looks the function up by
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapped)
        for name, cls_name in CARRIER_TARGETS.items():
            cls = getattr(mods.carriers, cls_name)
            for attr, raw in list(vars(cls).items()):
                if isinstance(raw, (staticmethod, classmethod)):
                    kind = type(raw)
                    self._patch(cls, attr, kind(self._counter(name, raw.__func__)))
        core = mods.core
        for cls in vars(core).values():
            if (isinstance(cls, type) and issubclass(cls, core.Expr)
                    and cls.__dict__.get("__hash__") is not None):
                self._patch(cls, "__hash__",
                            self._counter(HASH_COUNT, cls.__dict__["__hash__"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def summarize(self) -> None:
        """Aggregate the spans into per-(name, phase) calls and self time."""
        n = len(self.s_start)
        start, end, parent = self.s_start, self.s_end, self.s_parent
        s_name, s_phase = self.s_name, self.s_phase
        selfs = [end[i] - start[i] for i in range(n)]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                selfs[p] -= end[i] - start[i]
        table: dict = {}
        for i in range(n):
            cell = table.setdefault((s_name[i], s_phase[i]), [0, 0.0])
            cell[0] += 1
            cell[1] += selfs[i]
        self.table = table

    def totals(self, name: str, phase: int):
        """(calls, self seconds) of one span name within one phase."""
        nid = self.name_ids.get(name)
        calls, secs = self.table.get((nid, phase), (0, 0.0))
        return calls, secs

    def count_children(self, child: str, parent: str, phase: int) -> int:
        """Spans named child whose direct parent span is named parent."""
        cid, pid = self.name_ids.get(child), self.name_ids.get(parent)
        if cid is None or pid is None:
            return 0
        s_name, s_parent, s_phase = self.s_name, self.s_parent, self.s_phase
        return sum(
            1 for i in range(len(s_name))
            if s_name[i] == cid and s_phase[i] == phase
            and s_parent[i] >= 0 and s_name[s_parent[i]] == pid
        )

    def write_spans(self, path) -> int:
        """All spans as gzip CSV; returns the number written."""
        n = len(self.s_start)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,op,phase\n")
            names, s_name, s_start, s_end = self.names, self.s_name, self.s_start, self.s_end
            s_parent, s_op, s_phase = self.s_parent, self.s_op, self.s_phase
            fh.writelines(
                f"{i},{names[s_name[i]]},{s_start[i]:.9f},{s_end[i]:.9f},"
                f"{s_parent[i]},{s_op[i]},{PHASES[s_phase[i]]}\n"
                for i in range(n)
            )
        return n

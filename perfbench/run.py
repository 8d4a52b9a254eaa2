"""dlc benchmark: closed-loop workloads over the public library API.

Usage (from the repository root):

    python3 perfbench/run.py --workload fuzz|search|loss --seed N \
        --seconds S --trace 0|1

One caller runs one op at a time in this process.  Each op is a call into
``dlc.calculus`` or ``dlc.speclang``; its output is verified untimed right
after it.  Ops come in passes (see ``workloads.py``); the timed phase runs
whole passes until the ops have taken at least ``--seconds``.

``--trace 0`` prints the end-to-end metrics; their times are rescaled to a
reference CPU speed (``speed.py``), and the plain wall-clock values are in
the metadata.  ``--trace 1`` runs a fixed number of passes twice, untraced
and then traced, and prints the per-layer metrics and the tracing overhead
(traced op time / untraced op time).
The last line of standard output is the result object; the line before it
holds the run metadata, which is also written under ``.perfbench/``
together with the spans of a traced run.  See ``perfbench/RATIONALE.md``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 31
PROBE_EVERY_S = 0.1  # op time between two timings of the reference loop
# Fixed work of a traced run, so its call counts repeat exactly for a seed.
TRACE_PASSES = {"fuzz": 40, "search": 1, "loss": 1}
# Tail percentile per workload: the highest of 99/95/90 that leaves at least
# MIN_BEYOND samples beyond it at the op count a run makes on the seed code.
TAIL_PERCENTILE = {"fuzz": 99.0, "search": 95.0, "loss": 95.0}
MIN_BEYOND = 10
LIBRARY_MODULES = ("core", "carriers", "semantics", "speclang", "calculus")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "proved_ratio": "ratio",
}
SPAN_METRICS = (
    "core.validate_for_logic", "core.random_formula", "semantics.interpret",
    "speclang.eval_loss", "speclang.elaborate", "speclang.network",
    "speclang.parse_spec", "calculus.random_derivation",
    "calculus.sequent_holds", "calculus.premises_for",
    "calculus.prove_bounded", "calculus.check_proof",
)
# Spans are counted in the op phase, except for functions the benchmark
# only calls at set-up (parsing) or in untimed verification (proof checks).
SPAN_PHASE = {"speclang.parse_spec": tracing.SETUP,
              "calculus.check_proof": tracing.VERIFY}
CALCULUS_NAMES = ("goedel", "lukasiewicz", "product", "dl2", "stl-inf")


def fresh_import() -> types.SimpleNamespace:
    """Import the library from this checkout's sources, dropping old copies."""
    for name in [m for m in sys.modules if m == "dlc" or m.startswith("dlc.")]:
        del sys.modules[name]
    mods = types.SimpleNamespace(
        **{m: importlib.import_module(f"dlc.{m}") for m in LIBRARY_MODULES}
    )
    origin = Path(mods.core.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"dlc imported from {origin}, not from {SRC}")
    return mods


class Run:
    """Outcome of running a number of passes."""

    def __init__(self):
        self.latencies: list = []  # wall-clock seconds per op
        self.factors: list = []  # per op: reference speed / speed (speed.py)
        self.scaled: list = []  # latencies at the reference speed
        self.pass_ends: list = []  # len(latencies) after each pass
        self.kinds: Counter = Counter()
        self.kind_seconds: Counter = Counter()
        self.failed = 0
        self.failures: list = []

    @property
    def passes(self) -> int:
        return len(self.pass_ends)

    def pass_rates(self, latencies: list) -> list:
        """Ops per op-second of each pass."""
        rates, start = [], 0
        for end in self.pass_ends:
            rates.append((end - start) / math.fsum(latencies[start:end]))
            start = end
        return rates


def run_passes(wl, seconds=None, passes=None, tracer=None) -> Run:
    """Run whole passes until `seconds` of op time or `passes` passes."""
    clock = time.perf_counter
    out = Run()
    scaler = speed.Scaler(PROBE_EVERY_S)
    wall = 0.0
    roots = {}
    op_id = 0
    while True:
        for op in wl.ops_for_pass(out.passes):
            call = op.run
            if tracer is not None:  # the op itself is the root span
                if op.kind not in roots:
                    roots[op.kind] = tracer.span(f"bench.{op.kind}", lambda f: f())
                tracer.op_id, tracer.phase = op_id, tracing.OP
                call = functools.partial(roots[op.kind], op.run)
            error = None
            t0 = clock()
            try:
                result = call()
            except Exception as exc:  # a failed op is counted, not fatal
                error = exc
            elapsed = clock() - t0
            out.latencies.append(elapsed)
            out.kinds[op.kind] += 1
            out.kind_seconds[op.kind] += elapsed
            if tracer is not None:
                tracer.phase = tracing.VERIFY
            if error is None:
                try:
                    if not op.verify(result):
                        error = "verification failed"
                except Exception as exc:
                    error = exc
            if error is not None:
                out.failed += 1
                if len(out.failures) < 5:
                    out.failures.append(f"op {op_id} ({op.kind}): {error!r}")
            scaler.measured(elapsed)
            wall += elapsed
            op_id += 1
        out.pass_ends.append(len(out.latencies))
        if ((passes is not None and out.passes >= passes)
                or (seconds is not None and wall >= seconds)):
            out.factors = scaler.factors()
            out.scaled = [t * f for t, f in zip(out.latencies, out.factors)]
            return out


def tail(latencies: list, workload: str):
    """(percentile, value) at the workload's tail percentile, nearest rank.

    Steps down to a lower percentile only when a run has too few ops to
    leave MIN_BEYOND samples beyond the workload's own.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (TAIL_PERCENTILE[workload], 95.0, 90.0, 50.0):
        rank = max(math.ceil(p / 100.0 * n), 1)
        if n - rank >= MIN_BEYOND or p == 50.0:
            return p, ordered[rank - 1]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dlc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args, wl, run: Run, percentile) -> dict:
    st = wl.stats
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "passes": run.passes,
        "ops_per_pass": wl.info.get("ops_per_pass"),
        "op_counts": dict(sorted(run.kinds.items())),
        "op_seconds_by_kind": dict(sorted(run.kind_seconds.items())),
        "op_seconds": math.fsum(run.latencies),
        "op_seconds_at_reference_speed": math.fsum(run.scaled),
        "speed_factor": {"min": min(run.factors),
                         "median": statistics.median(run.factors),
                         "max": max(run.factors)},
        "pass_ops_per_s": run.pass_rates(run.scaled),
        "tail_percentile": percentile,
        "error_ratio": run.failed / max(len(run.latencies), 1),
        "failures": run.failures,
        "setup_failures": st.setup_failures,
        "workload_info": wl.info,
        "checks": {
            "goals": st.goals,
            "proved": st.proved,
            "rule_local_trials": st.rule_trials,
            "premises_held": st.premises_held,
            "gradient_coords_checked": st.grad_coords_checked,
            "gradient_coords_skipped_at_kinks": st.grad_coords_skipped,
            "fixture_checks": st.fixture_checks,
        },
        "known_divergences": {workloads.KNOWN_DIVERGENCE: st.known_divergences},
    }


def coverage_metrics(mods, stats) -> dict:
    out = {}
    for name in CALCULUS_NAMES:
        calc = mods.calculus.CALCULI[name]
        seen = stats.rules_seen.get(name, set())
        out[f"calculus.rule_coverage.{name}"] = (
            len(seen & {r.value for r in calc.rules}) / len(calc.rules))
    out["calculus.premises_held_ratio"] = (
        stats.premises_held / stats.rule_trials if stats.rule_trials else 0.0)
    return out


def timings(args, run: Run, lat: list, setup_times: list):
    percentile, tail_value = tail(lat, args.workload)
    return percentile, {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(run.pass_rates(lat)),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_value * 1e3,
    }


def end_to_end(args, wl, run: Run, setup_times: list, peak_rss_mb: float):
    """Reported values, at the reference speed; timings also go to metadata."""
    st = wl.stats
    percentile, values = timings(args, run, run.scaled, setup_times)
    values.update({
        "ok_ratio": 1.0 - run.failed / len(run.latencies),
        "peak_rss_mb": peak_rss_mb,
        # proof-search goals proved / attempted; other workloads attempt none
        "proved_ratio": st.proved / st.goals if st.goals else 1.0,
    })
    return percentile, values


def per_layer(mods, wl, tracer, traced: Run, reference: Run) -> dict:
    tracer.summarize()
    values = {}
    for name in SPAN_METRICS:
        calls, secs = tracer.totals(name, SPAN_PHASE.get(name, tracing.OP))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = secs
    for name, calls in tracer.counts.items():
        values[f"{name}.calls"] = calls[tracing.OP]
    generated = tracer.count_children(
        "calculus.premises_for", "calculus.random_derivation", tracing.OP)
    values["calculus.fuzz.kept_ratio"] = (
        wl.stats.kept_steps / generated if generated else 0.0)
    values.update(coverage_metrics(mods, wl.stats))
    values["trace.overhead"] = math.fsum(traced.scaled) / math.fsum(reference.scaled)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dlc" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'dlc'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = workloads.BUILDERS[args.workload]

    if args.trace == 0:
        setup_wall = []
        scaler = speed.Scaler(0.0)

        def set_up():
            gc.collect()  # free the previous copy, untimed
            t0 = time.perf_counter()
            workload = build(fresh_import(), args.seed)
            setup_wall.append(time.perf_counter() - t0)
            scaler.measured(setup_wall[-1])
            return workload

        wl = set_up()
        run = run_passes(wl, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # The other set-ups come after the run, so that the module copies
        # they leave behind stay out of peak_rss_mb.
        for _ in range(SETUP_REPEATS - 1):
            set_up()
        setup_times = [t * f for t, f in zip(setup_wall, scaler.factors())]
        percentile, values = end_to_end(args, wl, run, setup_times, peak_rss_mb)
        meta = metadata(args, wl, run, percentile)
        meta["setup_s_samples"] = setup_times
        meta["wall_clock"] = timings(args, run, run.latencies, setup_wall)[1]
        meta["trace_overhead"] = None  # measured by the --trace 1 run
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        mods = fresh_import()
        passes = TRACE_PASSES[args.workload]
        reference = run_passes(build(mods, args.seed), passes=passes)
        tracer = tracing.Tracer(mods)
        tracer.install()
        try:
            wl = build(mods, args.seed)
            run = run_passes(wl, passes=passes, tracer=tracer)
        finally:
            tracer.uninstall()
        values = per_layer(mods, wl, tracer, run, reference)
        meta = metadata(args, wl, run, None)
        meta["trace_overhead"] = values["trace.overhead"]
        meta["untraced_op_seconds"] = math.fsum(reference.latencies)
        meta["count_only"] = sorted(tracer.counts)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz"
        meta["spans"] = tracer.write_spans(spans)
        meta["spans_file"] = str(spans.relative_to(ROOT))
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}

    correct = run.failed == 0 and not wl.stats.setup_failures
    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.latencies),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())

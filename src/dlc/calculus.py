"""Hypersequent calculi: data model, rule table, checking, and search.

Five calculi share one engine.  Every rule is encoded backward: given a
conclusion and an explicit rule instance (component indices, formula
positions, partition boundaries), ``premises_for`` computes the premise
hypersequents the schema demands; checking a step is then structural
equality.  A semantic oracle (``sequent_holds``) evaluates sequents under
the matching logic so derivations can be fuzzed against soundness, and a
bounded backward search discharges the residuated-lattice goals.

Each rule variant is declared once, as a ``Template``: the patterns of its
conclusion and premises, as in the rule's figure.  Each calculus lists the
variants it uses (``CALCULI``).  ``RuleSpec`` reads a template once into the
rule's params and bounds and its shape, and on first use compiles it into
Python functions: the schema (range and shape checks, then the premises),
an axiom's component test, the instances backward search tries and
``tries``, their premises as plain tuples, which search reads into per-call
tables.  The forward steps soundness fuzzing grows derivations by, and the
axioms' leaf draws, are plain functions the templates name.
"""

from __future__ import annotations

import json
import random
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache, partial
from itertools import chain, islice, tee
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)  # fmt: skip

from .core import (
    AXIOMS,
    DL2,
    GODEL,
    LUKASIEWICZ,
    NODES,
    PRODUCT,
    STL_INFTY,
    And,
    BoolConst,
    Cmp,
    CmpOp,
    ConnectiveFlags,
    Expr,
    Impl,
    LogicId,
    MAnd,
    MOr,
    Not,
    Or,
    RealConst,
    random_formula,
    term_value,
    validate_for_logic,
    _Nary,
    _node_from_json,
    _node_to_json,
)
from .errors import (
    PremiseArityMismatch,
    RuleNotInCalculus,
    SchemaMismatch,
    ValidationError,
)
from .semantics import EMPTY_ENV, LOGICS, interpret

PROOF_SCHEMA_VERSION = "dlc-proof/1"


# ---------------------------------------------------------------------------
# Data model


# Sequents and hypersequents are slotted frozen dataclasses, hashed and
# compared by the generated methods.  The constructors write the slots
# through the slot descriptors' setters (bound below each class), which
# skips the frozen check as object.__setattr__ would, for less.  A pickle
# or copy rebuilds through the constructor.


@dataclass(frozen=True)
class Sequent:
    """An ordered pair of finite formula lists (antecedent, succedent)."""

    __slots__ = ("left", "right")
    left: Tuple[Expr, ...]
    right: Tuple[Expr, ...]

    def __init__(self, left: Sequence[Expr], right: Sequence[Expr]):
        _set_left(self, tuple(left))
        _set_right(self, tuple(right))

    def __reduce__(self):
        return Sequent, (self.left, self.right)


_set_left = Sequent.__dict__["left"].__set__
_set_right = Sequent.__dict__["right"].__set__


@dataclass(frozen=True)
class Hypersequent:
    """A finite list of sequents, read disjunctively."""

    __slots__ = ("components",)
    components: Tuple[Sequent, ...]

    def __init__(self, components: Sequence[Sequent]):
        _set_components(self, tuple(components))

    def __reduce__(self):
        return Hypersequent, (self.components,)

    def replace(self, c: int, new: Sequence[Sequent]) -> "Hypersequent":
        comps = self.components
        return Hypersequent(comps[:c] + tuple(new) + comps[c + 1 :])


_set_components = Hypersequent.__dict__["components"].__set__


class Rule(Enum):
    # Declaration order is the order in which forward generation tries the
    # rules, which fixes the order of its rng draws; the axioms come first,
    # in the order in which _leaf_for tries them on each component.
    INIT = "init"
    EMP = "emp"
    TOP_R = "topr"
    BOT_L = "botl"
    EW = "ew"
    EEX = "eex"
    EC = "ec"
    WEAK_L = "weakl"
    CONTR_L = "contrl"
    LEX = "lex"
    REX = "rex"
    COM = "com"
    SPLIT = "split"
    MIX = "mix"
    RIMPL = "rimpl"
    LIMPL = "limpl"
    RAND = "rand"
    LOR = "lor"
    ROR = "ror"
    LAND = "land"
    LNEG = "lneg"
    LODOT = "lodot"
    RODOT = "rodot"
    LIMPL_EXT = "limplext"


@dataclass
class RuleInstance:
    rule: Rule
    params: Dict[str, int] = field(default_factory=dict)


@dataclass
class ProofTree:
    conclusion: Hypersequent
    rule: RuleInstance
    premises: Tuple["ProofTree", ...] = ()

    def __post_init__(self):
        self.premises = tuple(self.premises)


# ---------------------------------------------------------------------------
# Schema and sampling helpers


def _fail(msg):
    raise SchemaMismatch(msg)


def _param(q: dict, rule: str, name: str, lo: int, hi: int, what: str) -> int:
    """The param name of q, an int in lo..hi; else SchemaMismatch."""
    v = q.get(name)
    if type(v) is not int:
        _fail(f"{rule}: parameter {name!r} missing or not an integer")
    if not lo <= v <= hi:
        _fail(f"{rule}: {what} out of range")
    return v


def _is_bot(f: Expr) -> bool:
    return isinstance(f, BoolConst) and f.value is False


def _is_top(f: Expr) -> bool:
    return isinstance(f, BoolConst) and f.value is True


def _swap(seq: Tuple, i: int) -> Tuple:
    return seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2 :]


def _put(seq: Tuple, pos: int, *new) -> Tuple:
    """seq with the formula at pos replaced by the formulas new."""
    return seq[:pos] + new + seq[pos + 1 :]


def _insert(seq: Tuple, pos: int, f: Expr) -> Tuple:
    return seq[:pos] + (f,) + seq[pos:]


def _side(s: Sequent, left: bool) -> Tuple[Expr, ...]:
    return s.left if left else s.right


def _with_side(s: Sequent, left: bool, seq) -> Sequent:
    """s with its antecedent (left) or its succedent replaced by seq."""
    return Sequent(seq, s.right) if left else Sequent(s.left, seq)


def _rand_formula(calc: "CalculusDef", rng: random.Random) -> Expr:
    return random_formula(calc.profile, rng.randint(0, 1), rng)


def _rand_formulas(calc, rng, lo=0, hi=2):
    return tuple(_rand_formula(calc, rng) for _ in range(rng.randint(lo, hi)))


def _rand_sequent(calc: "CalculusDef", rng: random.Random) -> Sequent:
    return Sequent(_rand_formulas(calc, rng), _rand_formulas(calc, rng))


# ---------------------------------------------------------------------------
# The rule table
#
# Each rule variant is one template: "conclusion / premise ; premise ...",
# perhaps with "/ where" after.  A hypersequent pattern lists, split by "|",
# component lists (H, H2; a block K has at least one component) and sequent
# patterns "antecedent |- succedent".  A side lists, split by ",", formula
# lists (G, D, T1, E1, ...; a block S has at least one formula) and
# formulas: A, B, T (verum), F (falsum), ~A and A op B, op one of & v * ->.
# X^p says the param p is X's length; the one list of a sequence with no
# param holds what the others leave.  A conclusion of sequent patterns
# alone sits between H^c and H2, and each premise between H and H2.  The
# where clause "D1, D2 = E1^k2, E2" splits D1 and D2, joined, again.  A
# connective in the conclusion makes the rule logical: the list before
# that principal formula gives its position "pos", which is not declared.


class Param(NamedTuple):
    """A declared rule param: ``bounds(comps, p)``, its inclusive range from
    the conclusion's components and the params p before it."""

    name: str
    what: str  # what the param names, for the range error
    bounds: Callable[[Sequence[Sequent], Dict[str, int]], Tuple[int, int]]


class Window(NamedTuple):
    """The adjacent components a structural rule's searched instances rewrite,
    from the one their position param ("c", or eex's "i") names: one per
    sequent pattern of the conclusion, or (last) the last window, of the
    least length a conclusion of component lists alone matches (ew's).
    fresh: the premises may create an axiom component, as those that only
    repeat components or permute sides (eex, ew, lex, rex) cannot; at budget
    1 only fresh windows are tried."""

    width: int
    last: bool
    fresh: bool


class Template(NamedTuple):
    """A rule variant: its template, and the plain functions that read it
    forward.  ``step(spec, calc, rng, tree)`` yields forward steps (params,
    conclusion), the schema giving their premises; an axiom's ``leaf(calc,
    rng)`` draws an instance component and its params besides "c"."""

    rule: Rule
    text: str
    step: Optional[Callable] = None
    leaf: Optional[Callable] = None


# --- compiling templates ----------------------------------------------------

_KINDS = {"&": (And,), "v": (Or,), "*": (MAnd,), "->": (Impl,), "~": (Not,)}
# In the min/max logics & and v also match their monoidal twins.
_MIN_MAX_KINDS = {**_KINDS, "&": (And, MAnd), "v": (Or, MOr)}
_NODES = (And, Or, MAnd, MOr, Impl, Not)  # what a premise pattern may build
_OPERANDS = {"~": ("child",), "->": ("left", "right")}  # else children[i]
_FORMULA = re.compile(r"(~)?([AB])(?: (&|v|\*|->) ([AB]))?")
_SIDES = ("antecedent", "succedent")


def _item(tok: str, side: bool) -> tuple:
    """The pattern item tok: ("list", name, param or "", least length), or
    in a side ("var", name), ("const", value) or ("conn", op, operands)."""
    m = _FORMULA.fullmatch(tok) if side else None
    if side and tok in ("T", "F"):
        return ("const", tok == "T")
    if m:
        neg, a, op, b = m.groups()
        if neg or op:
            return ("conn", "~", (a,)) if neg else ("conn", op, (a, b))
        return ("var", a)
    m = re.fullmatch(r"([A-Z]\w*)(\^\w*)?", tok)
    if m is None or m[2] == "^":
        raise ValueError(f"pattern item {tok!r}: want a name or name^param")
    return ("list", m[1], m[2][1:] if m[2] else "", int(m[1][0] in "SK"))


def _hyper(text: str) -> list:
    """The items of a hypersequent pattern: component lists and ("seq",
    antecedent items, succedent items)."""
    return [("seq", *([_item(t.strip(), True) for t in x.split(",") if t.strip()]
                      for x in p.split("|-"))) if "|-" in p else _item(p.strip(), False)
            for p in re.split(r"\|(?!-)", text)]  # fmt: skip


def _key(item, ordered=True) -> tuple:
    """The item without its param, a sequent's sides sorted unless ordered:
    what a premise repeats of the conclusion."""
    if item[0] != "seq":
        return item[:2] if item[0] == "list" else item
    sides = (tuple(map(_key, x)) for x in item[1:])
    return tuple(x if ordered else tuple(sorted(x, key=repr)) for x in sides)


def _plus(first: dict, *forms, sign=1) -> dict:
    """first plus sign times forms: linear forms, term -> coefficient."""
    out = dict(first)
    for form in forms:
        for t, k in form.items():
            out[t] = out.get(t, 0) + sign * k
    return {t: k for t, k in out.items() if k}


def _src(form: dict, ctx: dict) -> str:
    """Python source of a linear form, each term formatted with ctx."""
    out = ""
    for t, k in sorted(form.items(), key=lambda tk: tk[0] == ""):
        term = t.format(**ctx) or str(abs(k))
        term = f"{abs(k)} * {term}" if t and abs(k) != 1 else term
        out += (" - " if k < 0 else " + ") + term if out else "-" * (k < 0) + term
    return out or "0"


def _concat(parts: list) -> str:
    """Source of the concatenation of tuples (strings) and single elements
    (in 1-tuples)."""
    return " + ".join(p if isinstance(p, str) else f"({p[0]},)" for p in parts) or "()"


class _Compiler:
    """A template read: its declared params and shape, and the code of the
    functions it generates (``code``).  Each list, formula and sequent of the
    conclusion is bound to the source that reads it: in the functions through
    locals (comps, s0, s1, the params, the principal formula f, the where
    list r0), in a param's bounds through (comps, p).  Lengths are linear
    forms, formatted for either reader."""

    def __init__(self, rule: Rule, text: str):
        self.rule = rule.value
        self.text, *rest = text.split("/")
        conclusion = _hyper(self.text)
        premises = [_hyper(p) for p in rest[0].split(";")] if rest else []
        if all(it[0] == "seq" for it in conclusion):
            h, h2 = ("list", "H", "", 0), ("list", "H2", "", 0)
            conclusion = [("list", "H", "c", 0), *conclusion, h2]
            premises = [[h, *p, h2] for p in premises]
        # a premise has a component: a list that is a whole premise has one
        lone = {p[0][1] for p in premises if len(p) == 1 and p[0][0] == "list"}
        conclusion = [(*it[:3], 1) if it[0] == "list" and it[1] in lone else it
                      for it in conclusion]  # fmt: skip
        self.seqs = [it for it in conclusion if it[0] == "seq"]
        self.keys = [_key(it) for it in self.seqs]
        self.env, self.sizes = {}, {}  # pattern name -> its source; list -> length
        self.local, self.ctx, self.range = {}, {}, {}  # term -> source; param
        self.params, self.checks, self.binds = [], [], []
        self.sized, self.tests = [], []  # side-length and formula tests
        self.principal = None  # (op, source, side, "pos" or "" if fixed, lo, hi)
        self.least = self.lay(conclusion, "comps", {"len(comps)": 1}, "")
        self.fits = [[self.lay(x, f"s{n}.{a}", {f"len({{s{n}}}.{a})": 1}, side)
                      for x, a, side in zip(s[1:], ("left", "right"), _SIDES)]
                     for n, s in enumerate(self.seqs)][:1]  # fmt: skip
        self.where = None
        if premises and self.tests:
            raise ValueError(f"{self.rule}: only an axiom tests formulas")
        try:
            if len(rest) > 1:
                names, pattern = ([n.strip() for n in x.split(",")]
                                  for x in rest[1].split("="))
                self.where = " + ".join(self.env[n] for n in names)
                self.lay([_item(x, True) for x in pattern], "r0",
                         _plus({}, *map(self.sizes.__getitem__, names)), "context")
            self.premises = [(self.premise(p), self.premise(p, True)) for p in premises]
        except KeyError as e:
            raise ValueError(f"{self.rule}: {e.args[0]} is not bound by the conclusion")
        keys = {_key(s, False) for s in self.seqs}
        self.fresh = any(_key(it, False) not in keys
                         for p in premises for it in p if it[0] == "seq")  # fmt: skip

    def declare(self, name: str, what: Optional[str], lo: int, hi: dict):
        """Declare the param name, or (what None) the principal's position."""
        if name in self.local:
            raise ValueError(f"{self.rule}: param {name} named twice")
        self.local[name], self.ctx[name] = name, f'p["{name}"]'
        self.range[name] = lo, hi
        if what is not None:
            bounds = f"lambda comps, p: ({lo}, {_src(hi, self.ctx)})"  # as source
            self.params.append(Param(name, what, bounds))
            at = f"{name!r}, {lo}, {_src(hi, self.local)}, {what!r}"
            self.checks.append(f"{name} = _param(q, rule, {at})")

    def lay(self, items: list, base: str, total: dict, side: str) -> int:
        """Bind the items of a list pattern over base, of length total; the
        least length it matches.  Items before the free list count from the
        start, those after it (each taking an element) from the end."""
        free = [j for j, it in enumerate(items) if it[0] == "list" and not it[2]]
        f = free[0] if free else len(items)
        sizes = [{"{%s}" % it[2]: 1} if it[0] == "list" else {"": 1} for it in items]
        least = sum(it[3] if it[0] == "list" else 1 for it in items)
        if len(free) > 1:
            a, b = (items[j][1] for j in free[:2])
            raise ValueError(f"{self.rule}: a split with no param name: {a}, {b}")
        if sum(it[0] == "list" for it in items) > 1 + bool(free) or any(
            it[0] == "list" and not it[3] for it in items[f + 1 :]
        ):
            raise ValueError(f"{self.rule}: want a free list, one measured before it")
        if side and not free:
            test = f"len({base}) == {least}" if least else f"not {base}"
            self.sized.append((test, side, least))
        heads, tails = [{}], [{}]  # lengths before item j < f; after item j >= f
        for j in range(f):
            heads.append(_plus(heads[-1], sizes[j]))
        for j in reversed(range(f + 1, len(items))):
            tails.insert(0, _plus(tails[0], sizes[j]))

        def span(j, ctx):  # the sources of item j's start and stop ("": the end)
            if j < f:
                return _src(heads[j], ctx), _src(heads[j + 1], ctx)
            return [_src(heads[f], ctx) if b is None else
                    _src(_plus({}, b, sign=-1), ctx) if b else ""
                    for b in (tails[j - f - 1] if j > f else None, tails[j - f])]

        for j, it in enumerate(items):
            nxt = items[j + 1][0] if j + 1 < len(items) else None
            if it[0] == "list" and it[2]:
                what = (("block size" if it[1][0] == "S" else f"{side} partition"
                         if nxt == "list" else "formula position") if side else
                        "component block size" if it[1][0] == "K" else
                        "adjacent " * (len(self.seqs) > 1) + "component index")
                hi = _plus(total, {"": it[3] - least})
                self.declare(it[2], None if nxt == "conn" else what, it[3], hi)
        for j, it in enumerate(items):
            at, to = span(j, self.local)
            if it[0] == "list":
                at = "" if at == "0" else at
                self.env[it[1]] = f"{base}[{at}:{to}]" if at or to else base
                rest = _plus(total, *sizes[:j], *sizes[j + 1 :], sign=-1)
                self.sizes[it[1]] = sizes[j] if it[2] else rest
            elif it[0] == "seq":
                n = len(self.binds)
                self.local[f"s{n}"] = f"s{n}"
                self.ctx[f"s{n}"] = f"comps[{span(j, self.ctx)[0]}]"
                self.binds.append(f"s{n} = comps[{at}]")
                self.checks.append(self.binds[-1])
            elif it[0] == "var" and it[1] in self.env:
                self.tests.append(f"{base}[{at}] == {self.env[it[1]]}")
            elif it[0] == "var":
                self.env[it[1]] = f"{base}[{at}]"
            elif it[0] == "const":
                self.tests.append(f"_is_{'top' if it[1] else 'bot'}({base}[{at}])")
            elif self.principal or j > f:
                raise ValueError(f"{self.rule}: one principal formula, before the rest")
            else:
                pos = items[j - 1][2] if j and items[j - 1][0] == "list" else ""
                if pos not in ("", "pos"):
                    raise ValueError(f"{self.rule}: the principal's position is pos")
                lo, hi = self.range[pos] if pos else (at, {"": int(at)})
                self.principal = (it[1], f"{base}[{at}]", side, pos, str(lo),
                                  _src(hi, self.local))  # fmt: skip
                ops = _OPERANDS.get(it[1], ("children[0]", "children[1]"))
                self.env.update(zip(it[2], (f"f.{op}" for op in ops)))
        return least

    def premise(self, items: list, pair: bool = False) -> str:
        """Source of a premise's components, a tuple, in which a component the
        conclusion lacks is a new Sequent, or a (left, right) pair."""
        def part(x):  # a tuple's source, or an element's in a 1-tuple
            if x[0] in ("list", "var"):
                return self.env[x[1]] if x[0] == "list" else (self.env[x[1]],)
            if x[0] == "conn":
                args = ", ".join(self.env[a] for a in x[2])
                return (f"_make({_KINDS[x[1]][0].__name__}, {args})",)
            same = [f"s{n}" for n, s in enumerate(self.keys) if s == _key(x)]
            sides = (_concat(list(map(part, side))) for side in x[1:])
            new = "({}, {})" if pair else "Sequent({}, {})"
            return (same[0] if same else new.format(*sides),)

        return _concat(list(map(part, items)))

    @cached_property
    def declared(self) -> Tuple[Param, ...]:
        """The declared params, their bounds made functions."""
        return tuple(x._replace(bounds=eval(x.bounds, {})) for x in self.params)

    @lru_cache(maxsize=None)
    def code(self, search: bool):
        """The code of what search reads (search): the instances it lists and,
        in the same loops, the premises of each (``tries``); or of the schema
        or an axiom's match.  Compiled on first use, since compiling is most
        of what a rule costs."""
        rule, p, premises = self.rule, self.principal, self.premises
        names = [x.name for x in self.params]
        made = [f"f = {p[1]}"] if p else []
        made += [f"r0 = {self.where}"] if self.where else []
        schema = ["q = inst.params", "comps = h.components"]
        known = tuple(sorted({*names, "pos"} if p else names))
        count = "len(q) - ('pos' in q)" if p else "len(q)"
        schema += self.checks
        unknown = f"{rule}: unknown params {{q.keys() - {known!r}}}"
        schema.append(f"if {count} != {len(names)}: _fail(f{unknown!r})")
        # q and each param over its range, in order
        head, loops, indent = ["c = q['c']", *self.binds] if p else [], [], ""
        for x in self.params[bool(p) :]:
            lo, hi = self.range[x.name]
            over = f"range({lo}, {_src(_plus(hi, {'': 1}), self.local)})"
            loops.append(f"{indent}for {x.name} in {over}:")
            indent += "    "
            loops += [indent + b for b in self.binds if x is self.params[0] and not p]
        new = "".join(f", {n!r}: {n}" for n in names[bool(p) :])
        listing = [*head, *loops, f"{indent}yield RuleInstance(R, {{**q{new}}})"]
        tries = [*head, *["pos = q['pos']"] * bool(p and p[3]), *made, *loops,
                 f"{indent}yield ({''.join(x + ', ' for _, x in premises)})"]
        searched = {"instances(comps, q)": listing, "tries(comps, q)": tries}
        funcs = {"schema(calc, inst, h)": schema}
        test = " and ".join([t for t, _, _ in self.sized] + self.tests)
        if not premises:  # an axiom: one test, match
            args = "".join(", " + x.name for x in self.params[1:])
            shape = f"{rule}: component must be " + re.sub(r"\^\w+", "", self.text)
            schema += [f"if match(s0{args}) is None: _fail({shape.strip()!r})"]
            schema.append("return []")
            match = [f"if {test}:", "    return {}"]
            for x in self.params[1:]:  # one at most: its first fit if not given
                a, (lo, hi) = x.name, self.range[x.name]
                stop = _src(_plus(hi, {"": 1}), self.local)
                match = [f"for {a} in range({lo}, {stop}) if {a} is None else ({a},):",
                         f"    if {test}:",
                         f"        return {{{a!r}: {a}}}"]  # fmt: skip
            funcs["match(s0, pos=None)"] = [*match, "return None"]
        else:  # a rule with premises
            for t, side, n in self.sized:
                what = "a single formula" if n == 1 else f"{n} formulas"
                msg = f"{rule}: {side} must be {what}"
                schema.append(f"if not {t}: _fail({msg!r})")
            if p:  # the position of a sole principal formula may go unnamed
                at = f"_param(q, rule, 'pos', {p[4]}, {p[5]}, 'formula position')"
                wrong = f"{rule}: principal formula has the wrong connective or arity"
                schema += [f"pos = {at}" if p[3] else f"if 'pos' in q: {at}",
                           f"if not matches({p[1]}): _fail({wrong!r})"]
            listed = ", ".join(f"Hypersequent({x})" for x, _ in premises)
            schema += [*made, f"return [{listed}]"]
        if search:  # an axiom lists no instance
            funcs = searched if premises else {}
        src = "".join(f"def {h}:\n" + "".join(f"    {x}\n" for x in body)
                      for h, body in funcs.items())
        return compile(src, f"<{rule} template>", "exec")


# A template is read once, whichever calculi use it.
_compiler = lru_cache(maxsize=None)(_Compiler)


# The order backward search tries structural rules in, after the logical ones.
_SEARCH_ORDER = (Rule.COM, Rule.SPLIT, Rule.MIX, Rule.LEX, Rule.REX, Rule.EEX,
                 Rule.WEAK_L, Rule.EW)


class RuleSpec:
    """One rule variant of a calculus, read from its ``Template``, whose
    generated functions are compiled on the first use of one.  ``params``:
    each param but a logical rule's "pos", in draw order.  ``schema(calc,
    inst, h)`` checks an instance (its params' ranges, the conclusion's
    shape) and lists its premises.  Backward search reads two functions of
    a conclusion's components and the params q it fixes (a logical rule's
    "c", and "pos" unless sole), generated in the same loops:
    ``instances(comps, q)`` yields the instances it tries, and ``tries(comps,
    q)`` the premises of each in turn, as a tuple of component tuples, a new
    component a (left, right) pair.  An axiom's
    ``match(s, pos=None)``: the params besides "c" under which s is an
    instance, its formula at pos or first found; None if none.  A logical
    rule's ``matches(f)`` tests a principal formula's connective (``kinds``,
    main one first) and arity on its side (``left``); a ``sole`` one is
    alone on its side, its instances naming no "pos"."""

    def __init__(self, t: Template, kinds: dict = _KINDS):
        c = self.compiler = _compiler(t.rule, t.text)
        p = c.principal
        self.template, self.rule, self.step, self.leaf = t, t.rule, t.step, t.leaf
        self.least, self.axiom = c.least, not c.premises
        self.left = None if p is None else p[2] == "antecedent"
        self.kinds, self.sole = (kinds[p[0]], not p[3]) if p else ((), False)
        self.aliases = tuple(k for k in kinds.values() if len(k) > 1)
        # a trial fits a one-sequent conclusion's sides to their least
        # lengths, and places the principal formula on its side (None)
        self.fits = None if len(c.seqs) != 1 else [
            None if p and p[2] == side else n for n, side in zip(c.fits[0], _SIDES)
        ]  # fmt: skip
        self.window = Window(len(c.seqs) or c.least, not c.seqs, c.fresh) if (
            t.rule in _SEARCH_ORDER) else None

    def __getattr__(self, name):
        c, kinds = self.compiler, self.kinds
        ns = dict(_GLOBALS, rule=c.rule, R=self.rule)
        if name == "params":
            self.params = c.declared
        elif name in ("instances", "tries"):
            exec(c.code(True), ns)
            self.instances, self.tries = ns.get("instances"), ns.get("tries")
        elif name in ("schema", "match", "matches"):
            nary = bool(kinds) and issubclass(kinds[0], _Nary)
            self.matches = ns["matches"] = (lambda f: isinstance(f, kinds) and (
                not nary or len(f.children) == 2)) if kinds else None  # fmt: skip
            exec(c.code(False), ns)
            self.schema, self.match = ns["schema"], ns.get("match")
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def search(self, calc, h: Hypersequent) -> List[RuleInstance]:
        """The structural instances backward search tries on h, window by
        window, each listed on its window alone and moved into place."""
        comps, (width, last, _) = h.components, self.window
        at = range(len(comps) - width + 1)
        return [_shifted(inst, c) for c in (at[-1:] if last else at)
                for inst in self.instances(comps[c : c + width], {})]

    def search_at(self, calc, s: Sequent, c: int, pos: int) -> List[RuleInstance]:
        """Backward instances with the principal formula at (c, pos) in s."""
        return list(self.instances({c: s}, self.where(c, pos)))

    def where(self, c: int, pos: int) -> Dict[str, int]:
        """The params naming the principal formula at (c, pos)."""
        return {"c": c} if self.sole else {"c": c, "pos": pos}

    def drawn_kind(self, rng):
        """The principal node class for a forward step."""
        return rng.choice(self.kinds) if len(self.kinds) > 1 else self.kinds[0]

    def instance(self, calc, rng: random.Random):
        """A random (instance, conclusion) the rule applies to: a leaf among
        random components, or as many of them as the conclusion needs, the
        drawn one (c) fitted to a one-sequent conclusion; params left open
        are drawn in their bounds."""
        if self.leaf is not None:
            comp, extra = self.leaf(calc, rng)
            side = [_rand_sequent(calc, rng) for _ in range(rng.randint(0, 2))]
            c = rng.randint(0, len(side))
            side.insert(c, comp)
            return RuleInstance(self.rule, {"c": c, **extra}), Hypersequent(side)
        comps = [_rand_sequent(calc, rng) for _ in range(rng.randint(1, 3))]
        c = rng.randrange(len(comps))
        comps += [_rand_sequent(calc, rng) for _ in range(self.least - len(comps))]
        p = {} if self.fits is None else {"c": c}
        for j, least in enumerate(self.fits or ()):
            x = (comps[c].left, comps[c].right)[j]
            if least is None:  # the principal formula, at a random position
                phi0, phi1 = _rand_formula(calc, rng), _rand_formula(calc, rng)
                drawn = {k[0]: rng.choice(k) for k in self.aliases}
                f = _make(drawn.get(self.kinds[0], self.kinds[0]), phi0, phi1)
                if not self.sole:
                    p["pos"] = rng.randint(0, len(x))
                x = (f,) if self.sole else _insert(x, p["pos"], f)
            elif len(x) < least:
                x = _rand_formulas(calc, rng, least, least + 1)
            comps[c] = _with_side(comps[c], j == 0, x)
        for name, _, bounds in self.params:
            if name not in p:
                p[name] = rng.randint(*bounds(comps, p))
        return RuleInstance(self.rule, p), Hypersequent(comps)


def _pick(rng, tree: ProofTree, wanted=None):
    """Tree's conclusion h, and (c, h's component c) for a random c whose
    component satisfies wanted (if given), or (None, None)."""
    h = tree.conclusion
    cands = [c for c, s in enumerate(h.components) if wanted is None or wanted(s)]
    c = rng.choice(cands) if cands else None
    return h, c, None if c is None else h.components[c]


def _make(kind, phi0: Expr, phi1: Optional[Expr] = None) -> Expr:
    if kind is Not:
        return Not(phi0)
    if kind is Impl:
        return Impl(phi0, phi1)
    return kind((phi0, phi1))


# what the compiled code of a template reads
_GLOBALS = {k.__name__: k for k in (Sequent, Hypersequent, RuleInstance, _make, _fail,
                                    _param, _is_top, _is_bot, *_NODES)}


# --- leaf draws and forward steps ---------------------------------------------


def _leaf_init(calc, rng):
    f = _rand_formula(calc, rng)
    return Sequent((f,), (f,)), {}


def _leaf_botl(calc, rng, single=False):  # single: one succedent formula
    left = list(_rand_formulas(calc, rng))
    pos = rng.randint(0, len(left))
    left.insert(pos, BoolConst(False, calc.profile))
    right = (_rand_formula(calc, rng),) if single else _rand_formulas(calc, rng)
    return Sequent(tuple(left), right), {"pos": pos}


def _step_ew(spec, calc, rng, tree):
    comps = tree.conclusion.components
    extra = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            src = rng.choice(comps)
            if rng.random() < 0.5 and src.left:
                left = list(src.left)
                left[rng.randrange(len(left))] = _rand_formula(calc, rng)
                extra.append(Sequent(tuple(left), src.right))
            else:
                extra.append(Sequent(src.left, (_rand_formula(calc, rng),)))
        else:
            extra.append(_rand_sequent(calc, rng))
    yield {"k": len(extra)}, Hypersequent(comps + tuple(extra))


def _step_ec(spec, calc, rng, tree):
    # forward reading: the conclusion must end in a duplicate block
    comps = tree.conclusion.components
    for b in range(1, len(comps) // 2 + 1):
        if comps[-b:] == comps[-2 * b : -b]:
            yield {"b": b}, Hypersequent(comps[:-b])
            return


def _step_eex(spec, calc, rng, tree):
    comps = tree.conclusion.components
    if len(comps) >= 2:
        i = rng.randrange(len(comps) - 1)
        yield {"i": i}, Hypersequent(_swap(comps, i))


def _step_com(spec, calc, rng, tree):
    h, c, s = _pick(rng, tree)
    j = rng.randint(0, len(s.left))
    psi = _rand_formula(calc, rng)
    split = [Sequent(s.left[:j] + (psi,), s.right), Sequent(s.left[j:], (psi,))]
    yield {"c": c, "k1": j, "k2": len(s.left) - j}, h.replace(c, split)


def _step_split(spec, calc, rng, tree):
    h, c, s = _pick(rng, tree, lambda s: s.left or s.right)
    if c is not None:
        j, k = rng.randint(0, len(s.left)), rng.randint(0, len(s.right))
        split = [Sequent(s.left[:j], s.right[:k]), Sequent(s.left[j:], s.right[k:])]
        yield {"c": c}, h.replace(c, split)


def _step_mix(spec, calc, rng, tree):
    h, c, s = _pick(rng, tree)
    psi = _rand_formula(calc, rng)
    mixed = Sequent(s.left + (psi,), s.right + (psi,))
    yield {"c": c, "k1": len(s.left), "k2": len(s.right)}, h.replace(c, [mixed])


def _step_weakl(spec, calc, rng, tree):
    h, c, s = _pick(rng, tree)
    added = _rand_formulas(calc, rng, 1, 2)
    yield {"c": c, "k": len(added)}, h.replace(c, [Sequent(s.left + added, s.right)])


def _step_contrl(spec, calc, rng, tree):
    h = tree.conclusion
    for c, s in enumerate(h.components):
        for k in range(1, len(s.left) // 2 + 1):
            if s.left[-k:] == s.left[-2 * k : -k]:
                yield {"c": c, "k": k}, h.replace(c, [Sequent(s.left[:-k], s.right)])
                break


def _step_pair(spec, calc, rng, tree, left=None):
    # lex and rex swap two adjacent formulas of a side; lodot and rodot
    # (product) join them by ⊙
    left = spec.left if left is None else left
    h, c, s = _pick(rng, tree, lambda s: len(_side(s, left)) >= 2)
    if c is not None:
        x = _side(s, left)
        pos = rng.randrange(len(x) - 1)
        pair = (x[pos + 1], x[pos]) if spec.left is None else (MAnd(x[pos : pos + 2]),)
        x = x[:pos] + pair + x[pos + 2 :]
        yield {"c": c, "pos": pos}, h.replace(c, [_with_side(s, left, x)])


def _step_unit(spec, calc, rng, tree):
    # lor and rand: A v F on the left, A & T on the right, so that an axiom
    # closes the premise with the unit
    if spec.left and not calc.profile.neg:  # falsum needs negation
        return
    sole, left = spec.sole, spec.left
    h, c, s = _pick(rng, tree, lambda s: len(s.right) == 1 if sole else _side(s, left))
    if c is not None:
        x = _side(s, left)
        pos = 0 if sole else rng.randrange(len(x))
        f = spec.drawn_kind(rng)((x[pos], BoolConst(not left, calc.profile)))
        yield spec.where(c, pos), h.replace(c, [_with_side(s, left, _put(x, pos, f))])


def _step_merge(spec, calc, rng, tree):
    # land and ror: two adjacent components that differ in at most one
    # principal-side formula merge into one
    comps = tree.conclusion.components
    for c in range(len(comps) - 1):
        s0, s1 = comps[c], comps[c + 1]
        x0, x1 = _side(s0, spec.left), _side(s1, spec.left)
        if _side(s0, not spec.left) != _side(s1, not spec.left) or len(x0) != len(x1):
            continue
        diffs = [i for i in range(len(x0)) if x0[i] != x1[i]]
        if not x0 or len(diffs) > 1 or spec.sole and len(x0) != 1:
            continue
        pos = diffs[0] if diffs else 0
        f = spec.drawn_kind(rng)((x0[pos], x1[pos]))
        merged = _with_side(s0, spec.left, _put(x0, pos, f))
        yield spec.where(c, pos), Hypersequent(comps[:c] + (merged,) + comps[c + 2 :])
        return


def _step_falsum(spec, calc, rng, tree, keep=False):
    # lneg, and limpl of Gödel and product: a sole succedent A goes left as ~A
    # or A -> F, over random succedents (keep: the same; product's first premise
    # then closes by luck of the other components, its second by falsum)
    h, c, s = _pick(rng, tree, lambda s: len(s.right) == 1)
    if c is not None:
        f = _make(spec.kinds[0], s.right[0], BoolConst(False, calc.profile))
        moved = Sequent(s.left + (f,), s.right if keep else _rand_formulas(calc, rng))
        yield {"c": c, "pos": len(s.left)}, h.replace(c, [moved])


def _step_rodot_split(spec, calc, rng, tree):
    # the second premise is closed by verum
    h, c, s = _pick(rng, tree, lambda s: len(s.right) >= 1)
    if c is not None:
        f = MAnd((s.right[0], BoolConst(True, calc.profile)))
        params = {"c": c, "pos": 0, "k1": len(s.left), "k2": len(s.right) - 1}
        yield params, h.replace(c, [Sequent(s.left, (f,) + s.right[1:])])


def _step_limpl_luka(spec, calc, rng, tree):
    h, c, s = _pick(rng, tree, lambda s: s.left and s.right)
    if c is not None:
        pos = rng.randrange(len(s.left))
        moved = Sequent(_put(s.left, pos, Impl(s.right[0], s.left[pos])), s.right[1:])
        yield {"c": c, "pos": pos}, h.replace(c, [moved])


def _step_limpl_dl2(spec, calc, rng, tree):
    h, c, s = _pick(rng, tree)
    f = Impl(_rand_formula(calc, rng), _rand_formula(calc, rng))
    yield {"c": c, "pos": len(s.left)}, h.replace(c, [Sequent(s.left + (f,), s.right)])


def _step_rimpl(spec, calc, rng, tree):
    h, c, s = _pick(rng, tree, lambda s: len(s.right) == 1 and s.left)
    if c is not None:
        f = Impl(s.left[-1], s.right[0])
        yield {"c": c}, h.replace(c, [Sequent(s.left[:-1], (f,))])


def _step_rimpl_multi(spec, calc, rng, tree, verum=False):
    # the second premise is closed by an axiom leaf; the DL2 form draws
    # verum as the consequent, which its verum axiom can close
    h, c, s = _pick(rng, tree)
    phi0 = _rand_formula(calc, rng)
    f = Impl(phi0, BoolConst(True, calc.profile) if verum else _rand_formula(calc, rng))
    pos = rng.randint(0, len(s.right))
    added = Sequent(s.left, _insert(s.right, pos, f))
    yield {"c": c, "pos": pos}, h.replace(c, [added])


@dataclass(frozen=True)
class CalculusDef:
    name: str
    logic: LogicId
    # rule -> the variant of it the calculus uses, in Rule order
    table: Dict[Rule, RuleSpec] = field(compare=False, repr=False)

    @property
    def profile(self) -> ConnectiveFlags:
        return self.logic.flag_profile

    @cached_property
    def rules(self) -> frozenset:
        return frozenset(self.table)

    @cached_property
    def axioms(self) -> Tuple[RuleSpec, ...]:
        return tuple(s for s in self.table.values() if s.axiom)

    @cached_property
    def logical(self) -> Dict[bool, Tuple[RuleSpec, ...]]:
        """The logical rules by side (True: antecedent)."""
        specs = [s for s in self.table.values() if s.left is not None]
        left = tuple(s for s in specs if s.left)
        return {True: left, False: tuple(s for s in specs if not s.left)}

    @cached_property
    def windows(self) -> Tuple[tuple, ...]:
        """(spec, width, last, fresh) of each window backward search
        rewrites, in search order: the logical rules' (spec None: one
        component, every position, creating components), then each
        structural rule's (its ``window``)."""
        return ((None, 1, False, True),) + tuple(
            (self.table[r], *self.table[r].window)
            for r in _SEARCH_ORDER if r in self.table
        )  # fmt: skip

    @cached_property
    def fresh_windows(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The indices into ``windows`` of the fresh structural windows of
        one component, and of two."""
        return tuple(
            tuple(j for j, (spec, width, _, fresh) in enumerate(self.windows)
                  if spec is not None and fresh and width == w)
            for w in (1, 2)
        )  # fmt: skip


# ---------------------------------------------------------------------------
# The templates of every rule variant, and the calculi

_INIT = Template(Rule.INIT, "A |- A", leaf=_leaf_init)
_EMP = Template(Rule.EMP, "|-", leaf=lambda calc, rng: (Sequent((), ()), {}))
_TOP_R = Template(Rule.TOP_R, "G |- T", leaf=lambda calc, rng: (
    Sequent(_rand_formulas(calc, rng), (BoolConst(True, calc.profile),)), {}))
_BOT_L = Template(Rule.BOT_L, "G1^pos, F, G2 |- D", leaf=_leaf_botl)
_EW = Template(Rule.EW, "H | K^k / H", _step_ew)
_EC = Template(Rule.EC, "H | K^b / H | K | K", _step_ec)
_EEX = Template(Rule.EEX, "H^i | G1 |- D1 | G2 |- D2 | H2"
                " / H | G2 |- D2 | G1 |- D1 | H2", _step_eex)  # fmt: skip
_COM = Template(Rule.COM, "G1^k1, G2 |- D1 | T1^k2, T2 |- D2"
                " / G1, T1 |- D1 ; G2, T2 |- D2", _step_com)  # fmt: skip
_SPLIT = Template(Rule.SPLIT, "G1 |- D1 | G2 |- D2 / G1, G2 |- D1, D2", _step_split)
_MIX = Template(Rule.MIX, "G1^k1, G2 |- D1^k2, D2 / G1 |- D1 ; G2 |- D2", _step_mix)
_WEAK_L = Template(Rule.WEAK_L, "G, S^k |- D / G |- D", _step_weakl)
_CONTR_L = Template(Rule.CONTR_L, "G, S^k |- D / G, S, S |- D", _step_contrl)
_LEX = Template(Rule.LEX, "G1^pos, A, B, G2 |- D / G1, B, A, G2 |- D",
                partial(_step_pair, left=True))  # fmt: skip
_REX = Template(Rule.REX, "G |- D1^pos, A, B, D2 / G |- D1, B, A, D2",
                partial(_step_pair, left=False))  # fmt: skip
_LAND = Template(Rule.LAND, "G1^pos, A & B, G2 |- D"
                 " / G1, A, G2 |- D | G1, B, G2 |- D", _step_merge)  # fmt: skip
_LOR = Template(Rule.LOR, "G1^pos, A v B, G2 |- D"
                " / G1, A, G2 |- D ; G1, B, G2 |- D", _step_unit)  # fmt: skip
_LODOT = Template(Rule.LODOT, "G1^pos, A * B, G2 |- D / G1, A, B, G2 |- D", _step_pair)
# the multi-conclusion right implication of Łukasiewicz, product and DL2
_RIMPL = Template(Rule.RIMPL, "G |- D1^pos, A -> B, D2"
                  " / G |- D1, D2 ; G, A |- D1, B, D2", _step_rimpl_multi)  # fmt: skip

# Either premise of DL2's limpl alone gives the conclusion g + [A -> B] <= d
# (g, d, a, b: the values of G, D, A, B; [A -> B] = -max(a - b, 0) <= 0), so
# dropping one leaves it sound, an equivalent mutant.  G |- D: g + [A -> B]
# <= g <= d.  G, B |- A, D (g + b <= a + d): the conclusion if a >= b, and
# g <= d + a - b < d if a < b.  A premise true in a component of H is too.
_LIMPL_DL2 = Template(Rule.LIMPL, "G1^pos, A -> B, G2 |- D"
                      " / G1, G2 |- D ; G1, B, G2 |- A, D", _step_limpl_dl2)

# Every calculus has these.
_COMMON = (_INIT, _EW, _EC, _EEX, _WEAK_L, _LEX, _REX)

# Gödel and STL∞ read every connective as min/max and share one rule list,
# whose right rules are single-conclusion (sole).
_MIN_MAX_RULES = _COMMON + (
    _BOT_L, _TOP_R, _COM, _CONTR_L, _LAND, _LOR,
    Template(Rule.RAND, "G |- A & B / G |- A ; G |- B", _step_unit),
    Template(Rule.ROR, "G |- A v B / G |- A | G |- B", _step_merge),
    Template(Rule.LIMPL, "G1^pos, A -> B, G2 |- D / G1, G2 |- A ; G1, B, G2 |- D",
             _step_falsum),
    Template(Rule.RIMPL, "G |- A -> B / G, A |- B", _step_rimpl),
)  # fmt: skip


def _calc(name, logic, templates):
    """The calculus of the logic whose rules are the templates, & and v also
    matching ⊙ and ⊕ where the logic reads those as ∧ and ∨."""
    c = LOGICS[logic.kind].clauses
    kinds = _MIN_MAX_KINDS if c["mand"] is c["and"] and c["mor"] is c["or"] else _KINDS
    by_rule = {t.rule: RuleSpec(t, kinds) for t in templates}
    table = {rule: by_rule[rule] for rule in Rule if rule in by_rule}
    return CalculusDef(name, logic, table)


CALCULI: Dict[str, CalculusDef] = {
    c.name: c
    for c in (
        _calc("goedel", GODEL, _MIN_MAX_RULES),
        _calc("lukasiewicz", LUKASIEWICZ, _COMMON + (
            _EMP, _SPLIT, _MIX, _RIMPL,
            Template(Rule.BOT_L, "G1^pos, F, G2 |- A",
                     leaf=partial(_leaf_botl, single=True)),
            Template(Rule.LIMPL, "G1^pos, A -> B, G2 |- D / G1, B, G2 |- A, D",
                     _step_limpl_luka),
        )),
        _calc("product", PRODUCT, _COMMON + (
            _EMP, _BOT_L, _SPLIT, _MIX, _LODOT, _RIMPL,
            Template(Rule.LNEG, "G1^pos, ~A, G2 |- D / G1, G2 |- A", _step_falsum),
            Template(Rule.RODOT, "G |- D1^pos, A * B, D2 / G |- D1, A, B, D2",
                     _step_pair),
            Template(Rule.LIMPL, "G1^pos, A -> B, G2 |- D"
                     " / G1, ~A, G2 |- D ; G1, B, G2 |- A, D",
                     partial(_step_falsum, keep=True)),
        )),
        _calc("dl2", DL2, _COMMON + (
            _EMP, _TOP_R, _COM, _LAND, _LOR, _LODOT, _LIMPL_DL2,
            Template(Rule.RAND, "G |- D1^pos, A & B, D2"
                     " / G |- D1, A, D2 ; G |- D1, B, D2", _step_unit),
            Template(Rule.ROR, "G |- D1^pos, A v B, D2"
                     " / G |- D1, A, D2 | G |- D1, B, D2", _step_merge),
            # the antecedent and the rest of the succedent are both split
            Template(Rule.RODOT, "G1^k1, G2 |- D1^pos, A * B, D2"
                     " / G1 |- A, E1 ; G2 |- B, E2 / D1, D2 = E1^k2, E2",
                     _step_rodot_split),
            _RIMPL._replace(step=partial(_step_rimpl_multi, verum=True)),
        )),
        _calc("stl-inf", STL_INFTY, _MIN_MAX_RULES),
    )
}  # fmt: skip


# ---------------------------------------------------------------------------
# Checking


def _spec(calc: CalculusDef, rule: Rule) -> RuleSpec:
    spec = calc.table.get(rule)
    if spec is None:
        raise RuleNotInCalculus(f"{rule.value} is not a rule of {calc.name}")
    return spec


def premises_for(
    calc: CalculusDef, inst: RuleInstance, conclusion: Hypersequent
) -> List[Hypersequent]:
    """Premises the rule schema demands for the given conclusion."""
    spec = _spec(calc, inst.rule)
    if not conclusion.components:
        _fail("a conclusion hypersequent needs at least one component")
    return list(spec.schema(calc, inst, conclusion))


def check_step(
    calc: CalculusDef,
    inst: RuleInstance,
    conclusion: Hypersequent,
    premises: Sequence[Hypersequent],
) -> None:
    """Raise a StepError unless premises/conclusion match the schema."""
    wanted = premises_for(calc, inst, conclusion)
    premises = list(premises)
    if len(wanted) != len(premises):
        raise PremiseArityMismatch(
            f"{inst.rule.value} takes {len(wanted)} premises, got {len(premises)}"
        )
    for i, (want, got) in enumerate(zip(wanted, premises)):
        if want != got:
            raise SchemaMismatch(
                f"{inst.rule.value}: premise {i} does not match the schema",
                path=(i,),
            )


def _validate(calc: CalculusDef, h: Hypersequent) -> None:
    for s in h.components:
        for f in s.left + s.right:
            validate_for_logic(f, calc.logic)


def check_proof(calc: CalculusDef, tree: ProofTree) -> None:
    """Raise a StepError (annotated with a node path) for the first bad node.

    Nodes are checked in pre-order from an explicit stack, so proofs of
    any depth are checked without recursion.
    """
    _validate(calc, tree.conclusion)
    stack = [(tree, ())]
    while stack:
        node, path = stack.pop()
        try:
            check_step(
                calc, node.rule, node.conclusion, [p.conclusion for p in node.premises]
            )
        except SchemaMismatch as exc:
            exc.path = path + exc.path
            raise
        # pushed last to first, so the first premise is checked next
        for i in reversed(range(len(node.premises))):
            stack.append((node.premises[i], path + (i,)))


# ---------------------------------------------------------------------------
# Semantic oracle


def sequent_holds(logic: LogicId, s: Sequent, tol: float = 1e-9) -> bool:
    """Truth of the inequality a sequent denotes under the given logic.

    The formulas, all closed, are evaluated over the logic's exact-check
    carrier and compared as its ``SequentReading`` says.
    """
    spec = LOGICS[logic.kind]
    lv = [interpret(logic, f, EMPTY_ENV, spec.carrier) for f in s.left]
    rv = [interpret(logic, f, EMPTY_ENV, spec.carrier) for f in s.right]
    if spec.sequent is None:
        raise ValidationError(f"no sequent semantics for {logic.kind}")
    return spec.sequent.holds(lv, rv, tol)


def hypersequent_holds(logic: LogicId, h: Hypersequent, tol: float = 1e-9) -> bool:
    """A hypersequent holds iff some component's sequent holds."""
    return any(sequent_holds(logic, s, tol) for s in h.components)


# ---------------------------------------------------------------------------
# Forward generation (for soundness fuzzing)


def _random_axiom_tree(calc: CalculusDef, rng: random.Random) -> ProofTree:
    spec = rng.choice(sorted(calc.axioms, key=lambda s: s.rule.value))
    inst, h = spec.instance(calc, rng)
    return ProofTree(h, inst, ())


def _axiom_match(calc: CalculusDef, s: Sequent):
    """(rule, params) of the first axiom of calc that s is an instance of,
    or None."""
    for spec in calc.axioms:
        params = spec.match(s)
        if params is not None:
            return spec.rule, params
    return None


def _axiom_leaf(h: Hypersequent, c: int, match) -> ProofTree:
    """The zero-premise proof of h by the axiom match of component c."""
    rule, params = match
    return ProofTree(h, RuleInstance(rule, {"c": c, **params}), ())


def _leaf_for(calc: CalculusDef, h: Hypersequent) -> Optional[ProofTree]:
    """A zero-premise proof of h, if some component is an axiom instance."""
    for c, s in enumerate(h.components):
        match = _axiom_match(calc, s)
        if match is not None:
            return _axiom_leaf(h, c, match)
    return None


def _extend_candidates(calc: CalculusDef, rng: random.Random, tree: ProofTree):
    """Forward steps from tree, with the schema's premises proved by tree
    (the first, if it is tree's conclusion) or else by axiom leaves."""
    results = []
    for spec in calc.table.values():
        for params, conclusion in spec.step(spec, calc, rng, tree) if spec.step else ():
            inst = RuleInstance(spec.rule, params)
            premises = premises_for(calc, inst, conclusion)
            proofs = []
            for i, p in enumerate(premises):
                sub = tree if i == 0 and p == tree.conclusion else _leaf_for(calc, p)
                if sub is None:
                    break
                proofs.append(sub)
            else:
                results.append(ProofTree(conclusion, inst, tuple(proofs)))
    return results


def random_derivation(calc: CalculusDef, seed, depth: int) -> ProofTree:
    """A valid derivation grown forward from an axiom; deterministic."""
    if depth < 1:
        raise ValidationError("derivation depth must be >= 1")
    rng = random.Random(f"{calc.name}/{seed}")
    tree = _random_axiom_tree(calc, rng)
    for _ in range(depth - 1):
        options = _extend_candidates(calc, rng, tree)
        if options:
            tree = rng.choice(options)
    return tree


def soundness_fuzz(
    calc: CalculusDef, trials: int, depth: int, seed, tol: float = 1e-9
) -> dict:
    """Generate derivations and assert the conclusion holds semantically.

    ``applied`` counts, for each rule of the calculus, the nodes of all the
    derivations that apply it, so a rule the generator never reaches shows
    as 0.
    """
    if depth < 1:
        raise ValidationError("derivation depth must be >= 1")
    rng = random.Random(f"fuzz/{calc.name}/{seed}")
    applied = {rule.value: 0 for rule in sorted(calc.rules, key=lambda r: r.value)}
    violations = []
    for i in range(trials):
        d = rng.randint(1, depth)
        tree = random_derivation(calc, f"{seed}/{i}", d)
        stack = [tree]
        while stack:
            node = stack.pop()
            applied[node.rule.rule.value] += 1
            stack.extend(node.premises)
        if not hypersequent_holds(calc.logic, tree.conclusion, tol=tol):
            violations.append(
                {"trial": i, "conclusion": _hyper_to_json(tree.conclusion)}
            )
    return {
        "version": "dlc-report/1",
        "kind": "soundness-fuzz",
        "calculus": calc.name,
        "trials": trials,
        "max_depth": depth,
        "applied": applied,
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# Rule-local soundness (premises hold semantically => conclusion holds)


def _random_instance(calc: CalculusDef, rule: Rule, rng: random.Random):
    """A random (instance, conclusion) in whose shape the rule applies."""
    return _spec(calc, rule).instance(calc, rng)


def rule_local_soundness(
    calc: CalculusDef, rule: Rule, trials: int, seed, tol: float = 1e-9
) -> dict:
    """If all premises hold semantically, the conclusion must hold too."""
    rng = random.Random(f"local/{calc.name}/{rule.value}/{seed}")
    checked = 0
    violations = []
    for i in range(trials):
        inst, conclusion = _random_instance(calc, rule, rng)
        premises = premises_for(calc, inst, conclusion)
        if all(hypersequent_holds(calc.logic, p, tol=tol) for p in premises):
            checked += 1
            if not hypersequent_holds(calc.logic, conclusion, tol=tol):
                violations.append(
                    {"trial": i, "conclusion": _hyper_to_json(conclusion)}
                )
    return {
        "version": "dlc-report/1",
        "kind": "rule-local-soundness",
        "calculus": calc.name,
        "rule": rule.value,
        "trials": trials,
        "premises_held": checked,
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# Bounded backward search

_STREAK_CAP = 2  # the most structural steps backward search takes in a row


def _logical_matches(calc: CalculusDef, s: Sequent) -> List[tuple]:
    """(spec, pos) of every logical rule whose principal formula can sit at
    position pos of s, antecedent first, position by position; at most one
    logical rule of a calculus matches a formula on a given side, and a
    sole one only a formula alone on its side."""
    found = []
    for left, specs in calc.logical.items():
        side = _side(s, left)
        for pos, f in enumerate(side):
            for spec in specs:
                if spec.matches(f) and (len(side) == 1 or not spec.sole):
                    found.append((spec, pos))
    return found


def _shifted(inst: RuleInstance, c: int) -> RuleInstance:
    """inst with its position param ("c", or eex's "i") moved c components
    to the right."""
    params = dict(inst.params)
    for key in ("c", "i"):
        if key in params:
            params[key] += c
    return RuleInstance(inst.rule, params)


def prove_bounded(
    calc: CalculusDef,
    goal: Hypersequent,
    depth_budget: int,
    *,
    work: Optional[dict] = None,
) -> Optional[ProofTree]:
    """Backward proof search; None means the budget was exhausted.

    Depth first: a node closes by an axiom leaf if it can, and otherwise
    tries its logical instances component by component, then (unless the
    last ``_STREAK_CAP`` steps were structural) the structural ones in
    ``_SEARCH_ORDER``.  A failure is memoized with its budget, and an
    instance with a premise on the path from the goal is skipped.

    Within one call each distinct sequent gets a small int id, and a node
    is the tuple of its components' ids, so the memo, the path and every
    table are keyed by int tuples.  Every searched instance rewrites a
    window of adjacent components and copies the rest: a logical instance
    its one component, a structural one its spec's ``window``
    (``calc.windows``).  So a node's premise is the node with the window
    replaced, and what replaces it depends on the window alone.  Each
    window has one premise table per rule kind (the logical rules, or one
    structural spec): for each instance search tries on the window alone,
    in search order, its index among them and the id tuples its premises
    put in place of the window.  The specs' ``tries`` fill a table, as
    readers reach its entries (with no range check: search lists only
    instances in range), and a node at budget 2 or more reads its
    premises from the tables.  A window alone is a tuple of sequents, and
    a premise a tuple of components, a new one a (left, right) pair; a
    Sequent is made only for a sequent given a new id.  Proof objects are
    made only for the proof returned: a Hypersequent per node below the
    goal, and each instance re-read by its index from the spec's
    ``instances``.

    A node with budget 1 (the frontier) needs an instance whose every
    premise has an axiom leaf.  For each window and rule kind the frontier
    keeps its entry, the first such instance on the window alone: it reads
    the window's premise table if there is one, and otherwise builds
    premises one instance at a time, each only up to its first premise
    with no axiom component.  This is exact: the frontier node failed its
    own leaf test, so only the components a rule creates can be axioms,
    and those depend on the window alone.  So the first hit, logical rules
    component by component and then each structural spec window by window,
    is the instance a full enumeration would find.  Windows that are not
    fresh (``Window``) are skipped there: their premises hold no axiom
    component the node lacks.  No path check is needed at the frontier,
    since a premise on the path failed its leaf test.

    Whether a frontier node closes is decided from flags kept per
    component id (a logical window closes it; a fresh structural window of
    one component closes it) and per adjacent id pair (a fresh window of
    two closes it), each read from the entries once; only the logical
    flags count when the last two steps were structural.  The ordered scan
    that picks the instance runs only for the premises of an instance that
    wins at a budget-2 node, and for a goal searched at budget 1.

    The ids, tables, flags and memo belong to the call; no state outlives
    it.  If ``work`` is a dict, the call writes its counts into it when it
    returns: sequents (the distinct sequents given ids), nodes expanded,
    memo prunes, frontier hits (an entry looked up again) and misses (an
    entry built), streak cuts (nodes at budget 2 or more whose structural
    instances the streak cap skipped), and premise table hits (a table
    looked up again) and misses (a table made).
    """
    _validate(calc, goal)
    windows = calc.windows
    seqs: List[Sequent] = []  # id -> sequent
    # (antecedent, succedent) -> id: keyed by the sides, whose tuples hash
    # and compare without the dataclass's generated methods
    ids: Dict[tuple, int] = {}
    axiom: List[Optional[tuple]] = []  # id -> its first axiom match
    axioms = set()  # ids of the axiom instances
    logical_of: Dict[int, List[tuple]] = {}  # id -> its logical matches
    failed: Dict[tuple, int] = {}
    path = set()  # the nodes from the goal to the one being expanded
    # per window kind (an index into windows), keyed by the window's id (one
    # component) or id pair: its premise tables, and its frontier entries
    tables = [{} for _ in windows]
    closes = [{} for _ in windows]
    singles, doubles = calc.fresh_windows
    # id -> whether a logical window closes it, and whether a fresh
    # structural one does (None until read); id pair -> whether a fresh
    # window of two closes it
    by_logical: List[Optional[bool]] = []
    by_structural: List[Optional[bool]] = []
    by_pair: Dict[tuple, bool] = {}
    expanded = pruned = hits = cuts = table_hits = 0

    def ident(s):
        """The id of s, a Sequent or a (left, right) pair, given when s is
        new; a new pair is made a Sequent then."""
        key = s if s.__class__ is tuple else (s.left, s.right)
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(seqs)
            if key is s:
                s = Sequent(*s)
            seqs.append(s)
            match = _axiom_match(calc, s)
            axiom.append(match)
            if match is not None:
                axioms.add(i)
            by_logical.append(None)
            by_structural.append(None)
        return i

    def listed(win, key, what):
        """What the window kind win lists on the window key alone, in search
        order: the premises of each instance (what "tries") or the instances
        (what "instances"), as the specs' functions of that name give them."""
        spec = win[0]
        if spec is not None:
            alone = tuple(map(seqs.__getitem__, key)) if win[1] == 2 else (seqs[key],)
            return getattr(spec, what)(alone, {})
        matches = logical_of.get(key)
        if matches is None:
            matches = logical_of[key] = _logical_matches(calc, seqs[key])
        return chain.from_iterable(getattr(spec, what)((seqs[key],), spec.where(0, pos))
                                   for spec, pos in matches)  # fmt: skip

    def entries(tried):
        """(k, premises) of each instance tried lists the premises of: k its
        index, and each premise the id tuple it puts in place of the
        window."""
        for k, premises in enumerate(tried):
            yield k, tuple([tuple(map(ident, p)) for p in premises])

    def closing(table):
        """(k, leaves) of the first of table's entries whose every premise
        has an axiom component, leaves holding each premise and the index
        of its first one; or None."""
        for k, premises in table:
            leaves = []
            for r in premises:
                for j, i in enumerate(r):
                    if i in axioms:
                        leaves.append((r, j))
                        break
                else:
                    break
            else:
                return k, leaves
        return None

    def closing_alone(tried):
        """closing for a window that has no premise table, read from the
        premises of each instance tried lists: a premise's components get
        ids only up to its first axiom, and an instance's premises only up
        to the first with none."""
        for k, premises in enumerate(tried):
            leaves = []
            for p in premises:
                for j, s in enumerate(p):
                    if ident(s) in axioms:
                        leaves.append((tuple(map(ident, p)), j))
                        break
                else:
                    break
            else:
                return k, leaves
        return None

    def entry(j, key):
        """The frontier entry of window kind j at the window key: (k,
        leaves) as closing gives it, or None."""
        nonlocal hits, table_hits
        found = closes[j]
        got = found.get(key, found)
        if got is not found:
            hits += 1
            return got
        table = tables[j].get(key)
        if table is None:
            got = closing_alone(listed(windows[j], key, "tries"))
        else:
            table_hits += 1
            got = closing(table.__copy__())
        found[key] = got
        return got

    def closed(n, streak):
        """Whether search(n, 1, streak) finds a proof, with its memo reads
        and writes and its counts; the plan is left to leaf or frontier."""
        nonlocal expanded, pruned
        # every memoized budget is 1 or more
        if n in failed:
            pruned += 1
            return False
        if not axioms.isdisjoint(n):
            return True
        expanded += 1
        for i in n:
            flag = by_logical[i]
            if flag is None:
                flag = by_logical[i] = entry(0, i) is not None
            if flag:
                return True
        if streak < _STREAK_CAP:
            for i in n:
                flag = by_structural[i]
                if flag is None:
                    flag = by_structural[i] = any(
                        entry(j, i) is not None for j in singles
                    )
                if flag:
                    return True
            for key in zip(n, n[1:]):
                flag = by_pair.get(key)
                if flag is None:
                    flag = by_pair[key] = any(
                        entry(j, key) is not None for j in doubles
                    )
                if flag:
                    return True
        failed[n] = 1
        return False

    def leaf(n):
        """The plan of the axiom leaf of n's first axiom component, or None."""
        if not axioms.isdisjoint(n):
            for c, i in enumerate(n):
                if i in axioms:
                    return n, None, c, None, ()
        return None

    def frontier(n):
        """The plan of the proof of n, closed at budget 1 (``closed``) with
        no axiom component, by the first instance over axiom leaves."""
        pairs = tuple(zip(n, n[1:]))
        for j, (_, width, _, new) in enumerate(windows):
            if not new:
                continue
            for c, key in enumerate(n if width == 1 else pairs):
                got = entry(j, key)
                if got is not None:
                    k, leaves = got
                    head, tail = n[:c], n[c + width :]
                    return n, windows[j], c, k, [
                        (head + r + tail, None, c + i, None, ()) for r, i in leaves
                    ]

    def search(n, budget, streak):
        """The plan (n, window kind, c, k, premise plans) of a proof of n
        by the k-th instance of its window at c, k None for an axiom leaf
        at component c; or None."""
        nonlocal expanded, pruned
        if budget == 1:
            return (leaf(n) or frontier(n)) if closed(n, streak) else None
        # a memoized failure has no leaf, so the memo is consulted first;
        # a node out of budget needs only the leaf scan
        if budget > 0 and failed.get(n, -1) >= budget:
            pruned += 1
            return None
        found = leaf(n)
        if found is not None or budget <= 0:
            return found
        expanded += 1
        found = deeper(n, budget, streak)
        if found is None and budget > failed.get(n, -1):
            failed[n] = budget
        return found

    def deeper(n, budget, streak):
        """The plan of a proof of n, at budget 2 or more, by the first
        instance, window kind by window kind and window by window, whose
        premises are off the path and all have proofs; or None."""
        nonlocal cuts, table_hits
        added = n not in path
        if added:
            path.add(n)
        try:
            pairs = tuple(zip(n, n[1:])) if len(n) > 1 else ()
            for j, win in enumerate(windows):
                spec, width, last, _ = win
                if spec is None:
                    after = 0
                elif streak >= _STREAK_CAP:
                    cuts += 1
                    return None
                else:
                    after = streak + 1
                keys = n if width == 1 else pairs
                if not keys:
                    continue
                first = len(keys) - 1 if last else 0
                by_window = tables[j]
                for c, key in enumerate(keys[first:], first):
                    table = by_window.get(key)
                    if table is None:
                        # read through copies, and built as readers reach it
                        tried = listed(win, key, "tries")
                        table = by_window[key] = tee(entries(tried), 1)[0]
                    else:
                        table_hits += 1
                    head, tail = n[:c], n[c + width :]
                    for k, premises in table.__copy__():
                        premises = [head + r + tail for r in premises]
                        # n is on the path only if it was there before this node
                        if not path.isdisjoint(premises) and (
                            not added or any(p in path and p != n for p in premises)
                        ):
                            continue
                        if budget == 2:
                            for p in premises:
                                if not closed(p, after):
                                    break
                            else:
                                subs = [leaf(p) or frontier(p) for p in premises]
                                return n, win, c, k, subs
                            continue
                        subs = []
                        for p in premises:
                            sub = search(p, budget - 1, after)
                            if sub is None:
                                break
                            subs.append(sub)
                        else:
                            return n, win, c, k, subs
            return None
        finally:
            if added:
                path.discard(n)

    def built(plan, h):
        """The proof tree of plan, whose node is h; its instance is the k-th
        the window lists."""
        n, win, c, k, subs = plan
        if k is None:
            return _axiom_leaf(h, c, axiom[n[c]])
        key = n[c] if win[1] == 1 else n[c : c + 2]
        inst = _shifted(next(islice(listed(win, key, "instances"), k, None)), c)
        return ProofTree(h, inst, tuple([
            built(p, Hypersequent(map(seqs.__getitem__, p[0]))) for p in subs
        ]))  # fmt: skip

    try:
        plan = search(tuple(map(ident, goal.components)), depth_budget, 0)
        return None if plan is None else built(plan, goal)
    finally:
        if work is not None:
            work.update(
                sequents=len(seqs), nodes_expanded=expanded, memo_prunes=pruned,
                frontier_hits=hits, frontier_misses=sum(map(len, closes)),
                streak_cuts=cuts,
                table_hits=table_hits, table_misses=sum(map(len, tables)),
            )  # fmt: skip
        # search and built reach themselves through the closures' cells, so
        # the closures and the tables would live on until the cyclic
        # collector runs; emptying those two cells frees them all now
        del search, built


# ---------------------------------------------------------------------------
# Weak completeness goals (residuated-lattice axioms as sequents)


def _atom(i: int, profile: ConnectiveFlags) -> Expr:
    return Cmp(CmpOp.LE, RealConst(float(i)), RealConst(float(i + 1)), profile)


def weak_completeness_goals(calc: CalculusDef):
    """(axiom id, direction, goal hypersequent) triples for R1-R9 of
    ``AXIOMS``: lhs |- rhs, and rhs |- lhs for each equation."""
    pf = calc.profile
    xs = [_atom(i, pf) for i in (1, 2, 3)]
    consts = {"top": BoolConst(True, pf)}
    ops = {k: partial(_make, cls) for k, cls in NODES.items()}
    goals = []
    for axiom, (relation, lhs, rhs) in AXIOMS.items():
        if not axiom.startswith("R"):
            continue
        lhs, rhs = (term_value(t, ops, consts, xs) for t in (lhs, rhs))
        goals.append((axiom, "le", Hypersequent([Sequent((lhs,), (rhs,))])))
        if relation == "eq":
            goals.append((axiom, "ge", Hypersequent([Sequent((rhs,), (lhs,))])))
    return goals


def weak_completeness_suite(calc: CalculusDef, depth_budget: int = 12) -> dict:
    """Discharge every R1-R9 goal by bounded search; each goal's entry
    carries the search's work counts (``prove_bounded``)."""
    results = []
    for axiom, direction, goal in weak_completeness_goals(calc):
        status = "failed"
        work = {}
        tree = prove_bounded(calc, goal, depth_budget, work=work)
        if tree is not None:
            check_proof(calc, tree)
            status = "found"
        results.append(
            {"axiom": axiom, "direction": direction, "status": status,
             "depth": _tree_depth(tree) if tree else None, "work": work}
        )
    return {
        "version": "dlc-report/1",
        "kind": "weak-completeness",
        "calculus": calc.name,
        "goals": results,
        "passed": all(r["status"] == "found" for r in results),
    }


def _tree_depth(tree: ProofTree) -> int:
    """Nodes on the longest root-to-leaf path, from an explicit stack."""
    deepest = 0
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((p, depth + 1) for p in node.premises)
    return deepest


# ---------------------------------------------------------------------------
# Serialization ("dlc-proof/1") and bundled fixtures


@contextmanager
def _decoding(what: str):
    """Map every error a malformed document raises to ValidationError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc!r}") from exc


def _seq_to_json(s: Sequent) -> dict:
    return {
        "left": [_node_to_json(f) for f in s.left],
        "right": [_node_to_json(f) for f in s.right],
    }


def _json_list(items) -> list:
    if not isinstance(items, list):
        raise TypeError(f"expected a list, got {type(items).__name__}")
    return items


def _seq_from_json(d: dict) -> Sequent:
    return Sequent(
        [_node_from_json(f) for f in _json_list(d["left"])],
        [_node_from_json(f) for f in _json_list(d["right"])],
    )


def _hyper_to_json(h: Hypersequent) -> list:
    return [_seq_to_json(s) for s in h.components]


def _hyper_from_json(items) -> Hypersequent:
    return Hypersequent([_seq_from_json(d) for d in _json_list(items)])


def _tree_to_json(t: ProofTree) -> dict:
    """The tree as nested dicts, built from an explicit stack."""
    root: dict = {}
    stack = [(t, root)]
    while stack:
        node, out = stack.pop()
        premises = [{} for _ in node.premises]
        out["conclusion"] = _hyper_to_json(node.conclusion)
        out["rule"] = {"id": node.rule.rule.value, "params": dict(node.rule.params)}
        out["premises"] = premises
        stack.extend(zip(node.premises, premises))
    return root


def _tree_from_json(d: dict) -> ProofTree:
    """The tree of nested dicts d, from an explicit stack.

    Nodes are decoded in pre-order, so the first malformed one is the one
    reported, and assembled bottom-up.
    """
    decoded = []  # (conclusion, rule instance, premise count) in pre-order
    stack = [d]
    while stack:
        node = stack.pop()
        params = node["rule"].get("params", {})
        if not isinstance(params, dict) or not all(
            type(k) is str and type(v) is int for k, v in params.items()
        ):
            raise ValidationError(
                f"rule parameters must be an object of integers: {params!r}"
            )
        inst = RuleInstance(Rule(node["rule"]["id"]), dict(params))
        conclusion = _hyper_from_json(node["conclusion"])
        premises = _json_list(node.get("premises", []))
        decoded.append((conclusion, inst, len(premises)))
        stack.extend(reversed(premises))
    built: List[ProofTree] = []  # subtrees not yet attached, first premise on top
    for conclusion, inst, n in reversed(decoded):
        premises = tuple(built.pop() for _ in range(n))
        built.append(ProofTree(conclusion, inst, premises))
    return built.pop()


def proof_to_json(calc_name: str, tree: ProofTree) -> dict:
    return {
        "version": PROOF_SCHEMA_VERSION,
        "calculus": calc_name,
        "tree": _tree_to_json(tree),
    }


def proof_from_json(doc: dict):
    """(calculus name, tree) of a "dlc-proof/1" document.

    Every malformed document raises ValidationError.
    """
    if not isinstance(doc, dict) or doc.get("version") != PROOF_SCHEMA_VERSION:
        raise ValidationError(f"expected document version {PROOF_SCHEMA_VERSION}")
    name = doc.get("calculus")
    if not isinstance(name, str) or name not in CALCULI:
        raise ValidationError(f"unknown calculus {name!r}")
    with _decoding("proof document"):
        return name, _tree_from_json(doc["tree"])


def goal_from_json(doc) -> Hypersequent:
    """The hypersequent of a {"components": [...]} goal document.

    Every malformed document raises ValidationError.
    """
    with _decoding("goal document"):
        goal = _hyper_from_json(doc["components"])
    if not goal.components:
        raise ValidationError("a goal needs at least one component")
    return goal


def load_proof(path):
    with open(path) as fh:
        return proof_from_json(json.load(fh))


def load_goal(path) -> Hypersequent:
    with open(path) as fh:
        return goal_from_json(json.load(fh))


def fixtures_dir():
    from importlib.resources import files

    return files("dlc") / "fixtures"

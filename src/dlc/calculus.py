"""Hypersequent calculi: data model, rule table, checking, and search.

Five calculi share one engine.  Every rule is encoded backward: given a
conclusion and an explicit rule instance (component indices, formula
positions, partition boundaries), ``premises_for`` computes the premise
hypersequents the schema demands; checking a step is then structural
equality.  A semantic oracle (``sequent_holds``) evaluates sequents under
the matching logic so derivations can be fuzzed against soundness, and a
bounded backward search discharges the residuated-lattice goals.

Each rule variant is declared once, as a ``RuleSpec`` in the rule table,
and each calculus lists the variants it uses (``CALCULI``).  A spec holds
the rule's backward schema, the forward steps soundness fuzzing grows
derivations by, and its params and search window, from which come the
schema's range check, the instances backward search tries and rule-local
trials' draws.  Only a spec's ``build`` builds premises: backward search
reads them from per-call tables that ``build`` fills, one per window of
components an instance rewrites, and forward steps from the schema.
The nine logical rules share one principal-formula path (``_Logical``);
each axiom states its component test once (``_Axiom.match``), for its
schema and for closing leaves.  Where calculi differ in a rule's form, the
table has one variant per form: falsum with a single succedent
(Łukasiewicz); left implication (Gödel/STL∞, Łukasiewicz, product, DL2);
⊙-right with context splitting (DL2) or without (product); single- or
multi-conclusion right implication.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from itertools import repeat, tee
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
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
from .semantics import EMPTY_ENV, LOGICS, Env, interpret

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


def _param(inst: RuleInstance, name: str) -> int:
    v = inst.params.get(name)
    if type(v) is not int:
        _fail(f"{inst.rule.value}: parameter {name!r} missing or not an integer")
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


def _merge(comps: Tuple, c: int, s: Sequent) -> Hypersequent:
    """comps with components c and c + 1 replaced by s."""
    return Hypersequent(comps[:c] + (s,) + comps[c + 2 :])


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


class Param(NamedTuple):
    """A declared rule param: ``bounds(comps, p)``, its inclusive range from
    the conclusion's components and the params p before it, and the one
    value search tries where it tries only one (``searched``; None: all)."""

    name: str
    what: str  # what the param names, for the range error
    bounds: Callable[[Sequence[Sequent], Dict[str, int]], Tuple[int, int]]
    searched: Optional[int] = None


class Window(NamedTuple):
    """The adjacent components a structural rule's searched instances
    rewrite, from the one their position param ("c", or eex's "i") names.

    last: only the node's last window is rewritten (ew's searched instance,
    k = 1, rewrites the last pair into its first component).  fresh: the
    premises may create an axiom component where the node has none; at
    budget 1, where the node has none, other windows are not tried.  eex's
    and ew's premises reuse the node's components, and lex's and rex's
    permute a side of one, which no axiom test (``match``) sees.
    """

    width: int
    last: bool = False
    fresh: bool = True


def _enumerator(rule: Rule, params: Tuple[Param, ...], i: int = 0):
    """The function (comps, q, found) that appends to found, and returns it,
    each instance of rule whose params extend q (written in place) by
    params[i:]: each over its range, or at its searched value alone if that
    is in range, the earlier varying slower."""
    if i == len(params):  # nothing to enumerate: the one instance q
        return lambda comps, q, found: [RuleInstance(rule, q)]
    name, _, bounds, searched = params[i]
    inner = _enumerator(rule, params, i + 1) if i + 1 < len(params) else None

    def enum(comps, q, found):
        lo, hi = bounds(comps, q)
        if searched is not None:
            lo, hi = (searched, searched) if lo <= searched <= hi else (1, 0)
        for v in range(lo, hi + 1):
            if inner is None:
                found.append(RuleInstance(rule, {**q, name: v}))
            else:
                q[name] = v
                inner(comps, q, found)
        return found

    return enum


class RuleSpec:
    """One rule variant: everything the engine knows about the rule.

    ``params`` declares each param but a logical rule's "pos", in draw
    order, and ``window`` the components its searched structural instances
    rewrite (None: none).  From them come the range check (``checked``),
    the instances ``search`` (a logical rule's ``search_at``) lists and a
    trial's draws (``instance``).  ``schema``, which ``premises_for`` calls,
    hands a checked instance's params to ``build``, the one builder of
    premises, which backward search calls directly.
    """

    rule: Rule
    params: Tuple[Param, ...] = ()
    window: Optional[Window] = None

    def schema(self, calc, inst: RuleInstance, h: Hypersequent) -> Iterable[Hypersequent]:
        """Premises the rule demands for conclusion h, in order; an instance
        the rule does not take raises SchemaMismatch."""
        return self.build(calc, h, self.checked(inst, h, {}))

    def checked(self, inst: RuleInstance, h: Hypersequent, p: Dict[str, int]):
        """p (params read from inst, no other) with each declared param added
        once it is in range; a param inst names beyond them raises."""
        comps = h.components
        for name, what, bounds, _ in self.params:
            v = _param(inst, name)
            lo, hi = bounds(comps, p)
            if not lo <= v <= hi:
                _fail(f"{self.rule.value}: {what} out of range")
            p[name] = v
        if len(p) != len(inst.params):
            _fail(f"{self.rule.value}: unknown params {inst.params.keys() - p.keys()}")
        return p

    def build(self, calc, h: Hypersequent, p: Dict[str, int]) -> Iterable[Hypersequent]:
        """The premises for conclusion h of the instance with the params p
        (in range), in order.  Two premises are yielded one at a time, so a
        reader that stops after the first builds no second."""
        raise NotImplementedError

    @cached_property
    def enumerator(self):
        """``_enumerator`` of the declared params, built once."""
        return _enumerator(self.rule, self.params)

    def search(self, calc, h: Hypersequent) -> List[RuleInstance]:
        """The structural instances backward search tries on h."""
        return self.enumerator(h.components, {}, [])

    def extend(self, calc, rng: random.Random, tree: ProofTree):
        """Forward steps (params, conclusion) from tree's conclusion; the
        schema gives their premises (``_extend_candidates``)."""
        return ()

    def instance(self, calc, rng: random.Random):
        """A random (instance, conclusion) whose shape the rule applies to:
        each declared param that ``fit`` leaves open is drawn in its
        bounds."""
        comps = [_rand_sequent(calc, rng) for _ in range(rng.randint(1, 3))]
        p = self.fit(calc, rng, comps, rng.randrange(len(comps)))
        for name, _, bounds, _ in self.params:
            if name not in p:
                p[name] = rng.randint(*bounds(comps, p))
        return RuleInstance(self.rule, p), Hypersequent(comps)

    def fit(self, calc, rng, comps: list, c: int) -> Dict[str, int]:
        """Fit the random components comps to the rule, around component c;
        the params this fixes."""
        return {}


def _two_or_more(spec, calc, rng, comps: list, c: int) -> Dict[str, int]:
    """``fit`` of the rules on two components: a lone one gets a second."""
    if len(comps) < 2:
        comps.append(_rand_sequent(calc, rng))
    return {}


_COMPONENT = Param("c", "component index", lambda comps, p: (0, len(comps) - 1))
_PAIR = Param("c", "adjacent component index", lambda comps, p: (0, len(comps) - 2))
_K1 = Param("k1", "antecedent partition", lambda comps, p: (0, len(comps[p["c"]].left)))


def _pick(rng, h: Hypersequent, wanted):
    """(c, component) of a random component satisfying wanted, or (None, None)."""
    cands = [c for c, s in enumerate(h.components) if wanted(s)]
    if not cands:
        return None, None
    c = rng.choice(cands)
    return c, h.components[c]


# --- axioms -----------------------------------------------------------------


class _Axiom(RuleSpec):
    """A zero-premise rule: some component is an instance of the axiom.

    Subclasses define the axiom's one test of a component s,
    ``match(s, pos=None)``: the params besides "c" under which s is an
    instance, with the principal formula at pos or, when pos is None,
    wherever it first occurs; None when s is no instance.  They also define
    ``component(calc, rng)``, a random instance and its params.
    """

    shape: str  # the axiom's component, for error messages
    params = (_COMPONENT,)

    def schema(self, calc, inst, h):
        p = self.checked(inst, h, {})
        if self.match(h.components[p["c"]], p.get("pos")) is None:
            _fail(f"{self.rule.value}: component must be {self.shape}")
        return []

    def instance(self, calc, rng):
        comp, extra = self.component(calc, rng)
        side = [_rand_sequent(calc, rng) for _ in range(rng.randint(0, 2))]
        c = rng.randint(0, len(side))
        side.insert(c, comp)
        return RuleInstance(self.rule, {"c": c, **extra}), Hypersequent(side)


class _Init(_Axiom):
    rule, shape = Rule.INIT, "phi |- phi"

    def match(self, s, pos=None):
        ok = len(s.left) == 1 and len(s.right) == 1 and s.left[0] == s.right[0]
        return {} if ok else None

    def component(self, calc, rng):
        f = _rand_formula(calc, rng)
        return Sequent((f,), (f,)), {}


class _Emp(_Axiom):
    rule, shape = Rule.EMP, "the empty sequent"

    def match(self, s, pos=None):
        return {} if not s.left and not s.right else None

    def component(self, calc, rng):
        return Sequent((), ()), {}


class _TopR(_Axiom):
    rule, shape = Rule.TOP_R, "Gamma |- T"

    def match(self, s, pos=None):
        return {} if len(s.right) == 1 and _is_top(s.right[0]) else None

    def component(self, calc, rng):
        return Sequent(_rand_formulas(calc, rng), (BoolConst(True, calc.profile),)), {}


class _BotL(_Axiom):
    """Gamma, F |- Delta; the Łukasiewicz form wants a single succedent."""

    rule = Rule.BOT_L
    params = (_COMPONENT, Param(
        "pos", "formula position", lambda comps, p: (0, len(comps[p["c"]].left) - 1)
    ))  # fmt: skip

    def __init__(self, single_succedent: bool = False):
        self.single_succedent = single_succedent
        self.shape = "Gamma, F |- phi" if single_succedent else "Gamma, F |- Delta"

    def match(self, s, pos=None):
        if self.single_succedent and len(s.right) != 1:
            return None
        for p in range(len(s.left)) if pos is None else (pos,):
            if _is_bot(s.left[p]):
                return {"pos": p}
        return None

    def component(self, calc, rng):
        left = list(_rand_formulas(calc, rng))
        pos = rng.randint(0, len(left))
        left.insert(pos, BoolConst(False, calc.profile))
        if self.single_succedent:
            right = (_rand_formula(calc, rng),)
        else:
            right = _rand_formulas(calc, rng)
        return Sequent(tuple(left), right), {"pos": pos}


# --- external structural rules ----------------------------------------------


class _EW(RuleSpec):
    """H  /  H | G1 | ... | Gk"""

    rule, window, fit = Rule.EW, Window(2, last=True, fresh=False), _two_or_more
    params = (Param(
        "k", "added component count", lambda comps, p: (1, len(comps) - 1), searched=1
    ),)  # fmt: skip

    def build(self, calc, h, p):
        return [Hypersequent(h.components[: -p["k"]])]

    def extend(self, calc, rng, tree):
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


class _EC(RuleSpec):
    """H | B | B  /  H | B, for a block B of b components"""

    rule = Rule.EC
    params = (Param("b", "duplicated block size", lambda comps, p: (1, len(comps))),)

    def build(self, calc, h, p):
        comps = h.components
        return [Hypersequent(comps + comps[-p["b"] :])]

    def extend(self, calc, rng, tree):
        # forward reading: the conclusion must end in a duplicate block
        comps = tree.conclusion.components
        for b in range(1, len(comps) // 2 + 1):
            if comps[-b:] == comps[-2 * b : -b]:
                yield {"b": b}, Hypersequent(comps[:-b])
                return


class _EEX(RuleSpec):
    """H | G | D | H'  /  H | D | G | H'"""

    rule, window, fit = Rule.EEX, Window(2, fresh=False), _two_or_more
    params = (_PAIR._replace(name="i"),)

    def build(self, calc, h, p):
        return [Hypersequent(_swap(h.components, p["i"]))]

    def extend(self, calc, rng, tree):
        comps = tree.conclusion.components
        if len(comps) >= 2:
            i = rng.randrange(len(comps) - 1)
            yield {"i": i}, Hypersequent(_swap(comps, i))


class _COM(RuleSpec):
    """H | G1, T1 |- D1   H | G2, T2 |- D2  /  H | G1, G2 |- D1 | T1, T2 |- D2"""

    rule, window, fit = Rule.COM, Window(2), _two_or_more
    params = (_PAIR, _K1, Param(
        "k2", "antecedent partition", lambda comps, p: (0, len(comps[p["c"] + 1].left))
    ))  # fmt: skip

    def build(self, calc, h, p):
        comps, c, k1, k2 = h.components, p["c"], p["k1"], p["k2"]
        s1, s2 = comps[c], comps[c + 1]
        yield _merge(comps, c, Sequent(s1.left[:k1] + s2.left[:k2], s1.right))
        yield _merge(comps, c, Sequent(s1.left[k1:] + s2.left[k2:], s2.right))

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c = rng.randrange(len(h.components))
        s = h.components[c]
        j = rng.randint(0, len(s.left))
        psi = _rand_formula(calc, rng)
        conclusion = h.replace(
            c, [Sequent(s.left[:j] + (psi,), s.right), Sequent(s.left[j:], (psi,))]
        )
        yield {"c": c, "k1": j, "k2": len(s.left) - j}, conclusion


class _SPLIT(RuleSpec):
    """H | G1, G2 |- D1, D2  /  H | G1 |- D1 | G2 |- D2"""

    rule, window, fit = Rule.SPLIT, Window(2), _two_or_more
    params = (_PAIR,)

    def build(self, calc, h, p):
        comps, c = h.components, p["c"]
        s1, s2 = comps[c], comps[c + 1]
        return [_merge(comps, c, Sequent(s1.left + s2.left, s1.right + s2.right))]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: s.left or s.right)
        if c is not None:
            j = rng.randint(0, len(s.left))
            k = rng.randint(0, len(s.right))
            conclusion = h.replace(
                c,
                [Sequent(s.left[:j], s.right[:k]), Sequent(s.left[j:], s.right[k:])],
            )
            yield {"c": c}, conclusion


class _MIX(RuleSpec):
    """H | G1 |- D1   H | G2 |- D2  /  H | G1, G2 |- D1, D2"""

    rule, window = Rule.MIX, Window(1)
    params = (_COMPONENT, _K1, Param(
        "k2", "succedent partition", lambda comps, p: (0, len(comps[p["c"]].right))
    ))  # fmt: skip

    def build(self, calc, h, p):
        c, k1, k2 = p["c"], p["k1"], p["k2"]
        s = h.components[c]
        yield h.replace(c, [Sequent(s.left[:k1], s.right[:k2])])
        yield h.replace(c, [Sequent(s.left[k1:], s.right[k2:])])

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c = rng.randrange(len(h.components))
        s = h.components[c]
        psi = _rand_formula(calc, rng)
        conclusion = h.replace(c, [Sequent(s.left + (psi,), s.right + (psi,))])
        yield {"c": c, "k1": len(s.left), "k2": len(s.right)}, conclusion

    def fit(self, calc, rng, comps, c):
        return {"c": c}


# --- internal structural rules ----------------------------------------------


class _WeakL(RuleSpec):
    """H | G |- D  /  H | G, S |- D, for a block S of k formulas"""

    rule, window = Rule.WEAK_L, Window(1)
    params = (_COMPONENT, Param(
        "k", "block size", lambda comps, p: (1, len(comps[p["c"]].left)), searched=1
    ))  # fmt: skip
    longest = 3  # longest antecedent a random trial gives an empty one

    def build(self, calc, h, p):
        c = p["c"]
        return [h.replace(c, [self.premise(h.components[c], p["k"])])]

    def premise(self, s: Sequent, k: int) -> Sequent:
        return Sequent(s.left[:-k], s.right)

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c = rng.randrange(len(h.components))
        added = _rand_formulas(calc, rng, 1, 2)
        s = h.components[c]
        conclusion = h.replace(c, [Sequent(s.left + added, s.right)])
        yield {"c": c, "k": len(added)}, conclusion

    def fit(self, calc, rng, comps, c):
        s = comps[c]
        if not s.left:
            comps[c] = Sequent(_rand_formulas(calc, rng, 1, self.longest), s.right)
        return {"c": c}


class _ContrL(_WeakL):
    """H | G, S, S |- D  /  H | G, S |- D, for a block S of k formulas"""

    rule, longest, window = Rule.CONTR_L, 2, None

    def premise(self, s, k):
        return Sequent(s.left + s.left[-k:], s.right)

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        for c, s in enumerate(h.components):
            for k in range(1, len(s.left) // 2 + 1):
                if s.left[-k:] == s.left[-2 * k : -k]:
                    conclusion = h.replace(c, [Sequent(s.left[:-k], s.right)])
                    yield {"c": c, "k": k}, conclusion
                    break


class _Exchange(RuleSpec):
    """Swap the formulas at pos and pos + 1 of one side of a component."""

    window = Window(1, fresh=False)

    def __init__(self, rule: Rule):
        self.rule = rule
        self.left = left = rule is Rule.LEX
        self.params = (_COMPONENT, Param(
            "pos", "adjacent formula position",
            lambda comps, p: (0, len(_side(comps[p["c"]], left)) - 2),
        ))  # fmt: skip

    def _swapped(self, s: Sequent, pos: int) -> Sequent:
        return _with_side(s, self.left, _swap(_side(s, self.left), pos))

    def build(self, calc, h, p):
        c = p["c"]
        return [h.replace(c, [self._swapped(h.components[c], p["pos"])])]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(_side(s, self.left)) >= 2)
        if c is not None:
            pos = rng.randrange(len(_side(s, self.left)) - 1)
            yield {"c": c, "pos": pos}, h.replace(c, [self._swapped(s, pos)])

    def fit(self, calc, rng, comps, c):
        comps[c] = _with_side(comps[c], self.left, _rand_formulas(calc, rng, 2, 3))
        return {"c": c}


# --- logical rules ------------------------------------------------------------

# In the min/max logics the monoidal connectives coincide with the lattice
# ones: each lattice node class and its monoidal twin.
_MIN_MAX = {And: MAnd, Or: MOr}


def _make(kind, phi0: Expr, phi1: Optional[Expr] = None) -> Expr:
    if kind is Not:
        return Not(phi0)
    if kind is Impl:
        return Impl(phi0, phi1)
    return kind((phi0, phi1))


class _Logical(RuleSpec):
    """A rule for the connective of the formula at (c, pos) on one side.

    In single-conclusion calculi a right rule needs the succedent to be that
    one formula; its instances name no "pos" and it sits at position 0.
    Subclasses define ``premises(calc, p, h, c, s, pos, f)``, the premises
    for the matched principal formula f of component s, in order (an
    iterable, as ``build`` returns); p holds the instance's params.
    """

    kinds: tuple  # node classes of the principal connective, main one first
    left: bool  # whether the principal formula is in the antecedent
    params = (_COMPONENT,)

    def matches(self, f: Expr) -> bool:
        return isinstance(f, self.kinds) and (
            not isinstance(f, _Nary) or len(f.children) == 2
        )

    def sole(self, calc) -> bool:
        """Whether the principal formula must be the sole succedent."""
        return calc.single_conclusion and not self.left

    def where(self, calc, c: int, pos: int) -> Dict[str, int]:
        """The params naming the principal formula at (c, pos)."""
        return {"c": c} if self.sole(calc) else {"c": c, "pos": pos}

    def drawn_kind(self, rng):
        """The principal node class for a forward step."""
        return rng.choice(self.kinds) if len(self.kinds) > 1 else self.kinds[0]

    def schema(self, calc, inst, h):
        sole = self.sole(calc)
        p = {} if sole else {"pos": _param(inst, "pos")}
        if sole and "pos" in inst.params:
            p["pos"] = 0  # a sole principal formula is at 0, whatever "pos" says
        p = self.checked(inst, h, p)
        c, pos = p["c"], p.get("pos", 0)
        s = h.components[c]
        x = _side(s, self.left)
        if sole and len(s.right) != 1:
            what = "succedent must be a single formula"
        elif not 0 <= pos < len(x):
            what = "formula position out of range"
        elif not self.matches(x[pos]):
            what = "principal formula has the wrong connective or arity"
        else:
            return self.premises(calc, p, h, c, s, pos, x[pos])
        _fail(f"{self.rule.value}: {what}")

    def build(self, calc, h, p):
        c, pos = p["c"], p.get("pos", 0)
        s = h.components[c]
        return self.premises(calc, p, h, c, s, pos, _side(s, self.left)[pos])

    @cached_property
    def enumerator(self):
        """``_enumerator`` of the params after "c", which ``where`` names."""
        return _enumerator(self.rule, self.params, 1)

    def search_at(self, calc, s: Sequent, c: int, pos: int) -> List[RuleInstance]:
        """Backward instances with the principal formula at (c, pos), each
        declared param over its range; the bounds read component c alone."""
        return self.enumerator({c: s}, self.where(calc, c, pos), [])

    def fit(self, calc, rng, comps, c):
        s = comps[c]
        phi0, phi1 = _rand_formula(calc, rng), _rand_formula(calc, rng)
        kind = self.kinds[0]
        if calc.single_conclusion:
            # every rule draws both lattice kinds, used or not
            drawn = {k: rng.choice([k, alias]) for k, alias in _MIN_MAX.items()}
            kind = drawn.get(kind, kind)
        f = _make(kind, phi0, phi1)
        x = _side(s, self.left)
        if self.sole(calc):
            pos, x = 0, (f,)
        else:
            pos = rng.randint(0, len(x))
            x = _insert(x, pos, f)
        comps[c] = _with_side(s, self.left, x)
        return self.where(calc, c, pos)


class _Lattice(_Logical):
    """The lattice rules.

        LAND  H | G, A |- D | G, B |- D      /  H | G, A & B |- D
        ROR   H | G |- A, D | G |- B, D      /  H | G |- A v B, D
        LOR   H | G, A |- D   H | G, B |- D  /  H | G, A v B |- D
        RAND  H | G |- A, D   H | G |- B, D  /  H | G |- A & B, D

    LAND and ROR split the component; LOR and RAND branch.  The min/max
    calculi (Gödel, STL∞) let them match the monoidal node too.
    """

    def __init__(self, rule: Rule, kinds: tuple, left: bool):
        self.rule, self.kinds, self.left = rule, kinds, left
        self.branching = (kinds[0] is Or) == left

    def premises(self, calc, p, h, c, s, pos, f):
        x = _side(s, self.left)
        parts = (_with_side(s, self.left, _put(x, pos, g)) for g in f.children)
        if self.branching:
            return (h.replace(c, [part]) for part in parts)
        return [h.replace(c, [*parts])]

    def extend(self, calc, rng, tree):
        if self.branching:
            return self._extend_by_unit(calc, rng, tree)
        return self._extend_by_merge(calc, rng, tree)

    def _extend_by_unit(self, calc, rng, tree):
        # A & T on the right, A v F on the left: an axiom closes the premise
        # with the unit
        if self.left and not calc.profile.neg:  # falsum needs negation
            return
        h = tree.conclusion
        sole = self.sole(calc)
        c, s = _pick(
            rng, h, lambda s: len(s.right) == 1 if sole else _side(s, self.left)
        )
        if c is not None:
            x = _side(s, self.left)
            pos = 0 if sole else rng.randrange(len(x))
            unit = BoolConst(not self.left, calc.profile)
            f = self.drawn_kind(rng)((x[pos], unit))
            conclusion = h.replace(c, [_with_side(s, self.left, _put(x, pos, f))])
            yield self.where(calc, c, pos), conclusion

    def _extend_by_merge(self, calc, rng, tree):
        # two adjacent components that differ in at most one principal-side
        # formula merge into one
        comps = tree.conclusion.components
        for c in range(len(comps) - 1):
            s0, s1 = comps[c], comps[c + 1]
            x0, x1 = _side(s0, self.left), _side(s1, self.left)
            if _side(s0, not self.left) != _side(s1, not self.left):
                continue
            if len(x0) != len(x1) or not x0:
                continue
            diffs = [i for i in range(len(x0)) if x0[i] != x1[i]]
            if len(diffs) > 1:
                continue
            if self.sole(calc) and len(x0) != 1:
                continue
            pos = diffs[0] if diffs else 0
            f = self.drawn_kind(rng)((x0[pos], x1[pos]))
            merged = _with_side(s0, self.left, _put(x0, pos, f))
            yield self.where(calc, c, pos), _merge(comps, c, merged)
            return


class _LNeg(_Logical):
    """H | G |- A  /  H | G, ~A |- D"""

    rule, kinds, left = Rule.LNEG, (Not,), True

    def premises(self, calc, p, h, c, s, pos, f):
        return [h.replace(c, [Sequent(_put(s.left, pos), (f.child,))])]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(s.right) == 1)
        if c is not None:
            delta = _rand_formulas(calc, rng)
            conclusion = h.replace(c, [Sequent(s.left + (Not(s.right[0]),), delta)])
            yield {"c": c, "pos": len(s.left)}, conclusion


class _Odot(_Logical):
    """The ⊙ rules that keep the context whole.

        LODOT  H | G, A, B |- D  /  H | G, A (*) B |- D
        RODOT  H | G |- A, B, D  /  H | G |- A (*) B, D   (product)
    """

    kinds = (MAnd,)

    def __init__(self, left: bool):
        self.rule, self.left = (Rule.LODOT if left else Rule.RODOT), left

    def premises(self, calc, p, h, c, s, pos, f):
        x = _put(_side(s, self.left), pos, *f.children)
        return [h.replace(c, [_with_side(s, self.left, x)])]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(_side(s, self.left)) >= 2)
        if c is not None:
            x = _side(s, self.left)
            pos = rng.randrange(len(x) - 1)
            x = x[:pos] + (MAnd((x[pos], x[pos + 1])),) + x[pos + 2 :]
            conclusion = h.replace(c, [_with_side(s, self.left, x)])
            yield {"c": c, "pos": pos}, conclusion


class _ROdotSplit(_Odot):
    """DL2:  H | G1 |- A, D1   H | G2 |- B, D2  /  H | G1, G2 |- A (*) B, D1, D2

    Both the antecedent and the rest of the succedent are partitioned
    between the premises, at k1 and k2.
    """

    params = (_COMPONENT, _K1, Param(
        "k2", "context partition", lambda comps, p: (0, len(comps[p["c"]].right) - 1)
    ))  # fmt: skip

    def premises(self, calc, p, h, c, s, pos, f):
        a, b = f.children
        k1, k2 = p["k1"], p["k2"]
        rest = _put(s.right, pos)
        yield h.replace(c, [Sequent(s.left[:k1], (a,) + rest[:k2])])
        yield h.replace(c, [Sequent(s.left[k1:], (b,) + rest[k2:])])

    def extend(self, calc, rng, tree):
        # the second premise is closed by verum
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(s.right) >= 1)
        if c is not None:
            phi1 = BoolConst(True, calc.profile)
            f = MAnd((s.right[0], phi1))
            conclusion = h.replace(c, [Sequent(s.left, (f,) + s.right[1:])])
            params = {"c": c, "pos": 0, "k1": len(s.left), "k2": len(s.right) - 1}
            yield params, conclusion


class _LImpl(_Logical):
    """Gödel/STL∞:  H | G |- A   H | G, B |- D  /  H | G, A -> B |- D"""

    rule, kinds, left = Rule.LIMPL, (Impl,), True

    def premises(self, calc, p, h, c, s, pos, f):
        yield h.replace(c, [Sequent(_put(s.left, pos), (f.left,))])
        yield h.replace(c, [Sequent(_put(s.left, pos, f.right), s.right)])

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(s.right) == 1)
        if c is not None:
            phi1 = BoolConst(False, calc.profile)
            delta = _rand_formulas(calc, rng)
            f = Impl(s.right[0], phi1)
            conclusion = h.replace(c, [Sequent(s.left + (f,), delta)])
            yield {"c": c, "pos": len(s.left)}, conclusion


class _LImplLuka(_LImpl):
    """Łukasiewicz:  H | G, B |- A, D  /  H | G, A -> B |- D"""

    def premises(self, calc, p, h, c, s, pos, f):
        left = _put(s.left, pos, f.right)
        return [h.replace(c, [Sequent(left, (f.left,) + s.right)])]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: s.left and s.right)
        if c is not None:
            pos = rng.randrange(len(s.left))
            f = Impl(s.right[0], s.left[pos])
            conclusion = h.replace(c, [Sequent(_put(s.left, pos, f), s.right[1:])])
            yield {"c": c, "pos": pos}, conclusion


class _LImplProduct(_LImpl):
    """Product:  H | G, ~A |- D   H | G, B |- A, D  /  H | G, A -> B |- D"""

    def premises(self, calc, p, h, c, s, pos, f):
        yield h.replace(c, [Sequent(_put(s.left, pos, Not(f.left)), s.right)])
        yield h.replace(c, [Sequent(_put(s.left, pos, f.right), (f.left,) + s.right)])

    def extend(self, calc, rng, tree):
        # Both premises must close by axiom leaves: the first by luck of the
        # other components, the second through falsum as the consequent.
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(s.right) == 1)
        if c is not None:
            phi0, phi1 = s.right[0], BoolConst(False, calc.profile)
            conclusion = h.replace(c, [Sequent(s.left + (Impl(phi0, phi1),), s.right)])
            yield {"c": c, "pos": len(s.left)}, conclusion


class _LImplDL2(_LImpl):
    """DL2:  H | G |- D   H | G, B |- A, D  /  H | G, A -> B |- D

    Each premise alone gives the conclusion, so the rule with either one
    dropped is still sound (an equivalent mutant).  Write g, d, a, b for
    the values of G and D (each a sum) and of A and B; the conclusion says
    g + [A -> B] <= d, with [A -> B] = -max(a - b, 0) <= 0.
    - G |- D alone: g + [A -> B] <= g <= d.
    - G, B |- A, D alone (g + b <= a + d): if a >= b, [A -> B] = b - a and
      the conclusion is the premise; if a < b, g <= d + (a - b) < d.
    A premise that holds through a component of H gives the conclusion,
    which keeps H.
    """

    def premises(self, calc, p, h, c, s, pos, f):
        yield h.replace(c, [Sequent(_put(s.left, pos), s.right)])
        yield h.replace(c, [Sequent(_put(s.left, pos, f.right), (f.left,) + s.right)])

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c = rng.randrange(len(h.components))
        s = h.components[c]
        phi0, phi1 = _rand_formula(calc, rng), _rand_formula(calc, rng)
        conclusion = h.replace(c, [Sequent(s.left + (Impl(phi0, phi1),), s.right)])
        yield {"c": c, "pos": len(s.left)}, conclusion


class _RImpl(_Logical):
    """Single conclusion:  H | G, A |- B  /  H | G |- A -> B"""

    rule, kinds, left = Rule.RIMPL, (Impl,), False

    def premises(self, calc, p, h, c, s, pos, f):
        return [h.replace(c, [Sequent(s.left + (f.left,), (f.right,))])]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(s.right) == 1 and s.left)
        if c is not None:
            f = Impl(s.left[-1], s.right[0])
            yield {"c": c}, h.replace(c, [Sequent(s.left[:-1], (f,))])


class _RImplMulti(_RImpl):
    """Multiple conclusions:  H | G |- D   H | G, A |- B, D  /  H | G |- A -> B, D

    Forward steps close the second premise by an axiom leaf; the DL2 form
    draws verum as the consequent, which its verum axiom can close.
    """

    def __init__(self, verum_consequent: bool = False):
        self.verum_consequent = verum_consequent

    def premises(self, calc, p, h, c, s, pos, f):
        yield h.replace(c, [Sequent(s.left, _put(s.right, pos))])
        yield h.replace(c, [Sequent(s.left + (f.left,), _put(s.right, pos, f.right))])

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c = rng.randrange(len(h.components))
        s = h.components[c]
        phi0 = _rand_formula(calc, rng)
        if self.verum_consequent:
            phi1 = BoolConst(True, calc.profile)
        else:
            phi1 = _rand_formula(calc, rng)
        pos = rng.randint(0, len(s.right))
        f = Impl(phi0, phi1)
        conclusion = h.replace(c, [Sequent(s.left, _insert(s.right, pos, f))])
        yield {"c": c, "pos": pos}, conclusion


# The order in which backward search tries structural rules, after the
# logical ones.
_SEARCH_ORDER = (
    Rule.COM, Rule.SPLIT, Rule.MIX, Rule.LEX, Rule.REX, Rule.EEX, Rule.WEAK_L, Rule.EW,
)  # fmt: skip


@dataclass(frozen=True)
class CalculusDef:
    name: str
    logic: LogicId
    # single-conclusion style restricts right-hand logical rules to a
    # singleton succedent, as in the minimal-fragment figures
    single_conclusion: bool
    # rule -> the variant of it the calculus uses, in Rule order
    table: Dict[Rule, RuleSpec] = field(compare=False, repr=False)
    rules: frozenset = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", frozenset(self.table))

    @property
    def profile(self) -> ConnectiveFlags:
        return self.logic.flag_profile

    @cached_property
    def axioms(self) -> Tuple[_Axiom, ...]:
        return tuple(s for s in self.table.values() if isinstance(s, _Axiom))

    @cached_property
    def logical(self) -> Dict[bool, Tuple[_Logical, ...]]:
        """The logical rules by side (True: antecedent)."""
        specs = [s for s in self.table.values() if isinstance(s, _Logical)]
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


def _calc(name, logic, single, specs):
    by_rule = {s.rule: s for s in specs}
    table = {rule: by_rule[rule] for rule in Rule if rule in by_rule}
    return CalculusDef(name, logic, single, table)


# Every calculus has these.
_COMMON = (
    _Init(), _EW(), _EC(), _EEX(), _WeakL(), _Exchange(Rule.LEX), _Exchange(Rule.REX),
)  # fmt: skip


def _lattice(and_kinds: tuple, or_kinds: tuple) -> tuple:
    """The four lattice rules, matching the given node classes."""
    return (
        _Lattice(Rule.LAND, and_kinds, True), _Lattice(Rule.RAND, and_kinds, False),
        _Lattice(Rule.LOR, or_kinds, True), _Lattice(Rule.ROR, or_kinds, False),
    )  # fmt: skip


# Gödel and STL∞ read every connective as min/max and share one rule list.
_MIN_MAX_RULES = _COMMON + _lattice((And, MAnd), (Or, MOr)) + (
    _BotL(), _TopR(), _COM(), _ContrL(), _LImpl(), _RImpl(),
)  # fmt: skip

CALCULI: Dict[str, CalculusDef] = {
    c.name: c
    for c in (
        _calc("goedel", GODEL, True, _MIN_MAX_RULES),
        _calc("lukasiewicz", LUKASIEWICZ, False, _COMMON + (
            _Emp(), _BotL(single_succedent=True), _SPLIT(), _MIX(),
            _LImplLuka(), _RImplMulti(),
        )),
        _calc("product", PRODUCT, False, _COMMON + (
            _Emp(), _BotL(), _SPLIT(), _MIX(), _LNeg(), _Odot(left=True),
            _Odot(left=False), _LImplProduct(), _RImplMulti(),
        )),
        _calc("dl2", DL2, False, _COMMON + _lattice((And,), (Or,)) + (
            _Emp(), _TopR(), _COM(), _Odot(left=True), _ROdotSplit(left=False),
            _LImplDL2(), _RImplMulti(verum_consequent=True),
        )),
        _calc("stl-inf", STL_INFTY, True, _MIN_MAX_RULES),
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


def sequent_holds(
    logic: LogicId, s: Sequent, env: Env = EMPTY_ENV, tol: float = 1e-9
) -> bool:
    """Truth of the inequality a sequent denotes under the given logic.

    The formulas are evaluated over the logic's exact-check carrier and
    compared as its ``SequentReading`` says.
    """
    spec = LOGICS[logic.kind]
    lv = [interpret(logic, f, env, spec.carrier) for f in s.left]
    rv = [interpret(logic, f, env, spec.carrier) for f in s.right]
    if spec.sequent is None:
        raise ValidationError(f"no sequent semantics for {logic.kind}")
    return spec.sequent.holds(lv, rv, tol)


def hypersequent_holds(
    logic: LogicId, h: Hypersequent, env: Env = EMPTY_ENV, tol: float = 1e-9
) -> bool:
    """A hypersequent holds iff some component's sequent holds."""
    return any(sequent_holds(logic, s, env, tol) for s in h.components)


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
        for params, conclusion in spec.extend(calc, rng, tree):
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


def _logical_matches(calc: CalculusDef, s: Sequent) -> List[tuple]:
    """(spec, pos) of every logical rule whose principal formula can sit at
    position pos of s, antecedent first, position by position; at most one
    logical rule of a calculus matches a formula on a given side."""
    found = []
    for left, specs in calc.logical.items():
        if not left and calc.single_conclusion and len(s.right) != 1:
            break
        for pos, f in enumerate(_side(s, left)):
            for spec in specs:
                if spec.matches(f):
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
    last two steps were structural) the structural ones in
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
    put in place of the window.  The spec's ``build`` fills a table, as
    readers reach its entries (with no range check: search lists only
    instances in range), and a node at budget 2 or more reads its
    premises from the tables.  Proof objects are built only for the proof
    returned, from the indices of its instances.

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
    returns: nodes expanded, memo prunes, frontier hits (an entry looked up
    again) and misses (an entry built), streak cuts (nodes at budget 2 or
    more whose structural instances the streak cap skipped), and premise
    table hits (a table looked up again) and misses (a table made).
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
    alone: Dict[object, Hypersequent] = {}  # window key -> the window alone
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
        """The id of the sequent s, given when s is new."""
        key = s.left, s.right
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(seqs)
            seqs.append(s)
            match = _axiom_match(calc, s)
            axiom.append(match)
            if match is not None:
                axioms.add(i)
            by_logical.append(None)
            by_structural.append(None)
        return i

    def instances(win, key):
        """The window alone, as a hypersequent, and the (spec, instance) of
        each instance of the window kind win that search tries on it, in
        search order."""
        h = alone.get(key)
        if h is None:
            window = (seqs[key],) if win[1] == 1 else map(seqs.__getitem__, key)
            h = alone[key] = Hypersequent(window)
        spec = win[0]
        if spec is not None:
            return h, list(zip(repeat(spec), spec.search(calc, h)))
        matches = logical_of.get(key)
        if matches is None:
            matches = logical_of[key] = _logical_matches(calc, seqs[key])
        return h, [
            (spec, inst)
            for spec, pos in matches
            for inst in spec.search_at(calc, seqs[key], 0, pos)
        ]

    def entries(h, found):
        """(k, premises) of each of the instances found on the window alone
        h: k indexes found, and each premise is the id tuple it puts in
        place of the window."""
        for k, (spec, inst) in enumerate(found):
            yield k, tuple([tuple(map(ident, p.components))
                            for p in spec.build(calc, h, inst.params)])  # fmt: skip

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

    def closing_alone(h, insts):
        """closing for a window that has no premise table: the premises of
        insts on the window alone h are built one at a time, up to the
        first with no axiom component, and a premise's components get ids
        only up to its first axiom."""
        for k, (spec, inst) in enumerate(insts):
            leaves = []
            for p in spec.build(calc, h, inst.params):
                for j, s in enumerate(p.components):
                    if ident(s) in axioms:
                        leaves.append((tuple(map(ident, p.components)), j))
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
            got = closing_alone(*instances(windows[j], key))
        else:
            table_hits += 1
            got = closing(table and table.__copy__())
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
        if streak < 2:
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
                elif streak >= 2:
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
                        h, insts = instances(win, key)
                        # read through copies, and built as readers reach it
                        table = tee(entries(h, insts), 1)[0] if insts else ()
                        by_window[key] = table
                    else:
                        table_hits += 1
                    if not table:
                        continue
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
        """The proof tree of plan, whose node is h."""
        n, win, c, k, subs = plan
        if k is None:
            return _axiom_leaf(h, c, axiom[n[c]])
        key = n[c] if win[1] == 1 else n[c : c + 2]
        inst = _shifted(instances(win, key)[1][k][1], c)
        return ProofTree(h, inst, tuple([
            built(p, Hypersequent(map(seqs.__getitem__, p[0]))) for p in subs
        ]))  # fmt: skip

    try:
        plan = search(tuple(map(ident, goal.components)), depth_budget, 0)
        return None if plan is None else built(plan, goal)
    finally:
        if work is not None:
            work.update(
                nodes_expanded=expanded, memo_prunes=pruned, frontier_hits=hits,
                frontier_misses=sum(map(len, closes)), streak_cuts=cuts,
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

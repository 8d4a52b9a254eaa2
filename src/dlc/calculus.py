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
the rule's backward schema, the instances backward search tries, the
forward extensions soundness fuzzing grows derivations by, and the random
instances rule-local soundness trials check.  The nine logical rules share
one principal-formula path (``_Logical``); each axiom states its
component test once (``_Axiom.match``), for its schema and for closing
leaves.  Where calculi differ in a rule's form, the table has one variant
per form: falsum with a single succedent (Łukasiewicz); left implication
(Gödel/STL∞, Łukasiewicz, product, DL2); ⊙-right with context splitting
(DL2) or without (product); single- or multi-conclusion right implication.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    DL2,
    GODEL,
    LUKASIEWICZ,
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


# Sequents and hypersequents are slotted and cache their hash, as Expr
# does: search looks each one up several times.  The constructors write
# the slots through the slot descriptors' setters (bound below each
# class), which skips the frozen check as object.__setattr__ would, for
# less; the hash slot starts as None and is filled by the first __hash__.
# A pickle or copy rebuilds through the constructor, so no cached hash
# travels with it.


@dataclass(frozen=True)
class Sequent:
    """An ordered pair of finite formula lists (antecedent, succedent)."""

    __slots__ = ("left", "right", "_hash")
    left: Tuple[Expr, ...]
    right: Tuple[Expr, ...]

    def __init__(self, left: Sequence[Expr], right: Sequence[Expr]):
        _set_left(self, tuple(left))
        _set_right(self, tuple(right))
        _set_sequent_hash(self, None)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.left, self.right))
            _set_sequent_hash(self, h)
        return h

    def __reduce__(self):
        return Sequent, (self.left, self.right)


_set_left = Sequent.__dict__["left"].__set__
_set_right = Sequent.__dict__["right"].__set__
_set_sequent_hash = Sequent.__dict__["_hash"].__set__


@dataclass(frozen=True)
class Hypersequent:
    """A finite list of sequents, read disjunctively."""

    __slots__ = ("components", "_hash")
    components: Tuple[Sequent, ...]

    def __init__(self, components: Sequence[Sequent]):
        _set_components(self, tuple(components))
        _set_hypersequent_hash(self, None)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.components)
            _set_hypersequent_hash(self, h)
        return h

    def __reduce__(self):
        return Hypersequent, (self.components,)

    def replace(self, c: int, new: Sequence[Sequent]) -> "Hypersequent":
        comps = self.components
        return Hypersequent(comps[:c] + tuple(new) + comps[c + 1 :])


_set_components = Hypersequent.__dict__["components"].__set__
_set_hypersequent_hash = Hypersequent.__dict__["_hash"].__set__


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


def _component(h: Hypersequent, c: int) -> Sequent:
    if not 0 <= c < len(h.components):
        _fail(f"component index {c} out of range")
    return h.components[c]


def _param(inst: RuleInstance, name: str) -> int:
    try:
        return int(inst.params[name])
    except KeyError:
        _fail(f"rule {inst.rule.value} needs parameter {name!r}")


def _is_bot(f: Expr) -> bool:
    return isinstance(f, BoolConst) and f.value is False


def _is_top(f: Expr) -> bool:
    return isinstance(f, BoolConst) and f.value is True


def _at(seq: Tuple[Expr, ...], pos: int, what: str) -> Expr:
    if not 0 <= pos < len(seq):
        _fail(f"{what}: formula position {pos} out of range")
    return seq[pos]


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


def _rand_formula(calc: "CalculusDef", rng: random.Random, depth=1) -> Expr:
    return random_formula(calc.profile, rng.randint(0, depth), rng.getrandbits(48))


def _rand_formulas(calc, rng, lo=0, hi=2):
    return tuple(_rand_formula(calc, rng) for _ in range(rng.randint(lo, hi)))


def _rand_sequent(calc: "CalculusDef", rng: random.Random) -> Sequent:
    return Sequent(_rand_formulas(calc, rng), _rand_formulas(calc, rng))


def _two_or_more(calc, rng, comps: list) -> None:
    if len(comps) < 2:
        comps.append(_rand_sequent(calc, rng))


# ---------------------------------------------------------------------------
# The rule table


class RuleSpec:
    """One rule variant: everything the engine knows about the rule.

    ``schema`` is the backward reading that ``premises_for`` dispatches to;
    the other methods generate instances of it.  Forward candidates are
    always re-checked against ``premises_for`` before use.
    """

    rule: Rule

    def schema(self, calc, inst: RuleInstance, h: Hypersequent) -> List[Hypersequent]:
        """Premises the rule demands for conclusion h."""
        raise NotImplementedError

    def search(self, calc, h: Hypersequent) -> List[RuleInstance]:
        """Structural instances worth trying backward on h."""
        return []

    def extend(self, calc, rng: random.Random, tree: ProofTree):
        """Forward candidates (params, conclusion, premise trees), most with
        tree as a premise; any other premise is closed by an axiom leaf."""
        return ()

    def instance(self, calc, rng: random.Random):
        """A random (instance, conclusion) whose shape the rule applies to."""
        comps = [_rand_sequent(calc, rng) for _ in range(rng.randint(1, 3))]
        params = self.place(calc, rng, comps, rng.randrange(len(comps)))
        return RuleInstance(self.rule, params), Hypersequent(comps)

    def place(self, calc, rng, comps: list, c: int) -> Dict[str, int]:
        """Fit the random components comps to the rule, around component c."""
        raise NotImplementedError


def _pick(rng, h: Hypersequent, wanted):
    """(c, component) of a random component satisfying wanted, or (None, None)."""
    cands = [c for c, s in enumerate(h.components) if wanted(s)]
    if not cands:
        return None, None
    c = rng.choice(cands)
    return c, h.components[c]


def _closed(calc, params, conclusion, tree, premise):
    """The forward candidate with premises tree and an axiom leaf for premise,
    if some component of premise is an axiom instance."""
    leaf = _leaf_for(calc, premise)
    if leaf is not None:
        yield params, conclusion, (tree, leaf)


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
    positional = False  # whether the principal formula is named by "pos"

    def schema(self, calc, inst, h):
        s = _component(h, _param(inst, "c"))
        pos = _param(inst, "pos") if self.positional else None
        if self.match(s, pos) is None:
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

    rule, positional = Rule.BOT_L, True

    def __init__(self, single_succedent: bool = False):
        self.single_succedent = single_succedent
        self.shape = "Gamma, F |- phi" if single_succedent else "Gamma, F |- Delta"

    def match(self, s, pos=None):
        if self.single_succedent and len(s.right) != 1:
            return None
        for p in range(len(s.left)) if pos is None else (pos,):
            if 0 <= p < len(s.left) and _is_bot(s.left[p]):
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

    rule = Rule.EW

    def schema(self, calc, inst, h):
        comps = h.components
        k = _param(inst, "k")
        if not 1 <= k <= len(comps) - 1:
            _fail("ew: must add between 1 and n-1 trailing components")
        return [Hypersequent(comps[:-k])]

    def search(self, calc, h):
        return [RuleInstance(Rule.EW, {"k": 1})] if len(h.components) >= 2 else []

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
        yield {"k": len(extra)}, Hypersequent(comps + tuple(extra)), (tree,)

    def place(self, calc, rng, comps, c):
        _two_or_more(calc, rng, comps)
        return {"k": rng.randint(1, len(comps) - 1)}


class _EC(RuleSpec):
    """H | B | B  /  H | B, for a block B of b components"""

    rule = Rule.EC

    def schema(self, calc, inst, h):
        comps = h.components
        b = _param(inst, "b")
        if not 1 <= b <= len(comps):
            _fail("ec: duplicated block size out of range")
        return [Hypersequent(comps + comps[-b:])]

    def extend(self, calc, rng, tree):
        # forward reading: the conclusion must end in a duplicate block
        comps = tree.conclusion.components
        for b in range(1, len(comps) // 2 + 1):
            if comps[-b:] == comps[-2 * b : -b]:
                yield {"b": b}, Hypersequent(comps[:-b]), (tree,)
                return

    def place(self, calc, rng, comps, c):
        return {"b": rng.randint(1, len(comps))}


class _EEX(RuleSpec):
    """H | G | D | H'  /  H | D | G | H'"""

    rule = Rule.EEX

    def schema(self, calc, inst, h):
        comps = h.components
        i = _param(inst, "i")
        if not 0 <= i <= len(comps) - 2:
            _fail("eex: adjacent component index out of range")
        return [Hypersequent(_swap(comps, i))]

    def search(self, calc, h):
        return [RuleInstance(Rule.EEX, {"i": i}) for i in range(len(h.components) - 1)]

    def extend(self, calc, rng, tree):
        comps = tree.conclusion.components
        if len(comps) >= 2:
            i = rng.randrange(len(comps) - 1)
            yield {"i": i}, Hypersequent(_swap(comps, i)), (tree,)

    def place(self, calc, rng, comps, c):
        _two_or_more(calc, rng, comps)
        return {"i": rng.randrange(len(comps) - 1)}


class _COM(RuleSpec):
    """H | G1, T1 |- D1   H | G2, T2 |- D2  /  H | G1, G2 |- D1 | T1, T2 |- D2"""

    rule = Rule.COM

    def schema(self, calc, inst, h):
        comps = h.components
        c = _param(inst, "c")
        if not 0 <= c <= len(comps) - 2:
            _fail("com: needs two adjacent components")
        s1, s2 = comps[c], comps[c + 1]
        k1, k2 = _param(inst, "k1"), _param(inst, "k2")
        if not (0 <= k1 <= len(s1.left) and 0 <= k2 <= len(s2.left)):
            _fail("com: antecedent partition out of range")
        return [
            _merge(comps, c, Sequent(s1.left[:k1] + s2.left[:k2], s1.right)),
            _merge(comps, c, Sequent(s1.left[k1:] + s2.left[k2:], s2.right)),
        ]

    def search(self, calc, h):
        comps = h.components
        return [
            RuleInstance(Rule.COM, {"c": c, "k1": k1, "k2": k2})
            for c in range(len(comps) - 1)
            for k1 in range(len(comps[c].left) + 1)
            for k2 in range(len(comps[c + 1].left) + 1)
        ]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c = rng.randrange(len(h.components))
        s = h.components[c]
        j = rng.randint(0, len(s.left))
        psi = _rand_formula(calc, rng)
        conclusion = h.replace(
            c, [Sequent(s.left[:j] + (psi,), s.right), Sequent(s.left[j:], (psi,))]
        )
        params = {"c": c, "k1": j, "k2": len(s.left) - j}
        premise = h.replace(c, [Sequent((psi,), (psi,))])
        yield from _closed(calc, params, conclusion, tree, premise)

    def place(self, calc, rng, comps, c):
        _two_or_more(calc, rng, comps)
        c = rng.randrange(len(comps) - 1)
        k1 = rng.randint(0, len(comps[c].left))
        k2 = rng.randint(0, len(comps[c + 1].left))
        return {"c": c, "k1": k1, "k2": k2}


class _SPLIT(RuleSpec):
    """H | G1, G2 |- D1, D2  /  H | G1 |- D1 | G2 |- D2"""

    rule = Rule.SPLIT

    def schema(self, calc, inst, h):
        comps = h.components
        c = _param(inst, "c")
        if not 0 <= c <= len(comps) - 2:
            _fail("split: needs two adjacent components")
        s1, s2 = comps[c], comps[c + 1]
        return [_merge(comps, c, Sequent(s1.left + s2.left, s1.right + s2.right))]

    def search(self, calc, h):
        n = len(h.components)
        return [RuleInstance(Rule.SPLIT, {"c": c}) for c in range(n - 1)]

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
            yield {"c": c}, conclusion, (tree,)

    def place(self, calc, rng, comps, c):
        _two_or_more(calc, rng, comps)
        return {"c": rng.randrange(len(comps) - 1)}


class _MIX(RuleSpec):
    """H | G1 |- D1   H | G2 |- D2  /  H | G1, G2 |- D1, D2"""

    rule = Rule.MIX

    def schema(self, calc, inst, h):
        c = _param(inst, "c")
        s = _component(h, c)
        k1, k2 = _param(inst, "k1"), _param(inst, "k2")
        if not (0 <= k1 <= len(s.left) and 0 <= k2 <= len(s.right)):
            _fail("mix: partition out of range")
        p1 = h.replace(c, [Sequent(s.left[:k1], s.right[:k2])])
        p2 = h.replace(c, [Sequent(s.left[k1:], s.right[k2:])])
        return [p1, p2]

    def search(self, calc, h):
        return [
            RuleInstance(Rule.MIX, {"c": c, "k1": k1, "k2": k2})
            for c, s in enumerate(h.components)
            for k1 in range(len(s.left) + 1)
            for k2 in range(len(s.right) + 1)
        ]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c = rng.randrange(len(h.components))
        s = h.components[c]
        psi = _rand_formula(calc, rng)
        conclusion = h.replace(c, [Sequent(s.left + (psi,), s.right + (psi,))])
        params = {"c": c, "k1": len(s.left), "k2": len(s.right)}
        premise = h.replace(c, [Sequent((psi,), (psi,))])
        yield from _closed(calc, params, conclusion, tree, premise)

    def place(self, calc, rng, comps, c):
        k1 = rng.randint(0, len(comps[c].left))
        return {"c": c, "k1": k1, "k2": rng.randint(0, len(comps[c].right))}


# --- internal structural rules ----------------------------------------------


class _WeakL(RuleSpec):
    """H | G |- D  /  H | G, S |- D, for a block S of k formulas"""

    rule = Rule.WEAK_L
    longest = 3  # longest antecedent a random trial gives an empty one

    def schema(self, calc, inst, h):
        c = _param(inst, "c")
        s = _component(h, c)
        k = _param(inst, "k")
        if not 1 <= k <= len(s.left):
            _fail(f"{self.rule.value}: block size out of range")
        return [h.replace(c, [self.premise(s, k)])]

    def premise(self, s: Sequent, k: int) -> Sequent:
        return Sequent(s.left[:-k], s.right)

    def search(self, calc, h):
        return [
            RuleInstance(Rule.WEAK_L, {"c": c, "k": 1})
            for c, s in enumerate(h.components)
            if s.left
        ]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c = rng.randrange(len(h.components))
        added = _rand_formulas(calc, rng, 1, 2)
        s = h.components[c]
        conclusion = h.replace(c, [Sequent(s.left + added, s.right)])
        yield {"c": c, "k": len(added)}, conclusion, (tree,)

    def place(self, calc, rng, comps, c):
        s = comps[c]
        if not s.left:
            comps[c] = Sequent(_rand_formulas(calc, rng, 1, self.longest), s.right)
        return {"c": c, "k": rng.randint(1, len(comps[c].left))}


class _ContrL(_WeakL):
    """H | G, S, S |- D  /  H | G, S |- D, for a block S of k formulas"""

    rule, longest = Rule.CONTR_L, 2

    def premise(self, s, k):
        return Sequent(s.left + s.left[-k:], s.right)

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        for c, s in enumerate(h.components):
            for k in range(1, len(s.left) // 2 + 1):
                if s.left[-k:] == s.left[-2 * k : -k]:
                    conclusion = h.replace(c, [Sequent(s.left[:-k], s.right)])
                    yield {"c": c, "k": k}, conclusion, (tree,)
                    break


class _Exchange(RuleSpec):
    """Swap the formulas at pos and pos + 1 of one side of a component."""

    def __init__(self, rule: Rule):
        self.rule = rule
        self.left = rule is Rule.LEX

    def _swapped(self, s: Sequent, pos: int) -> Sequent:
        return _with_side(s, self.left, _swap(_side(s, self.left), pos))

    def schema(self, calc, inst, h):
        c = _param(inst, "c")
        s = _component(h, c)
        pos = _param(inst, "pos")
        if not 0 <= pos <= len(_side(s, self.left)) - 2:
            _fail(f"{self.rule.value}: adjacent formula position out of range")
        return [h.replace(c, [self._swapped(s, pos)])]

    def search(self, calc, h):
        return [
            RuleInstance(self.rule, {"c": c, "pos": pos})
            for c, s in enumerate(h.components)
            for pos in range(len(_side(s, self.left)) - 1)
        ]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(_side(s, self.left)) >= 2)
        if c is not None:
            pos = rng.randrange(len(_side(s, self.left)) - 1)
            yield {"c": c, "pos": pos}, h.replace(c, [self._swapped(s, pos)]), (tree,)

    def place(self, calc, rng, comps, c):
        new = _rand_formulas(calc, rng, 2, 3)
        comps[c] = _with_side(comps[c], self.left, new)
        return {"c": c, "pos": rng.randrange(len(new) - 1)}


# --- logical rules ------------------------------------------------------------

# In the min/max logics the monoidal connectives coincide with the lattice
# ones: each lattice node class and its monoidal twin.
_MIN_MAX = {And: MAnd, Or: MOr}


def _make(kind, phi0: Expr, phi1: Expr) -> Expr:
    if kind is Not:
        return Not(phi0)
    if kind is Impl:
        return Impl(phi0, phi1)
    return kind((phi0, phi1))


class _Logical(RuleSpec):
    """A rule for the connective of the formula at (c, pos) on one side.

    In single-conclusion calculi a right rule needs the succedent to be that
    one formula; its instances name no "pos" and it sits at position 0.
    Subclasses define ``premises(calc, inst, h, c, s, pos, f)``, the
    premises for the matched principal formula f of component s.
    """

    kinds: tuple  # node classes of the principal connective, main one first
    left: bool  # whether the principal formula is in the antecedent

    def matches(self, f: Expr) -> bool:
        return isinstance(f, self.kinds) and (
            not isinstance(f, _Nary) or len(f.children) == 2
        )

    def sole(self, calc) -> bool:
        """Whether the principal formula must be the sole succedent."""
        return calc.single_conclusion and not self.left

    def params(self, calc, c: int, pos: int) -> Dict[str, int]:
        return {"c": c} if self.sole(calc) else {"c": c, "pos": pos}

    def drawn_kind(self, rng):
        """The principal node class for a forward step."""
        return rng.choice(self.kinds) if len(self.kinds) > 1 else self.kinds[0]

    def schema(self, calc, inst, h):
        name = self.rule.value
        c = _param(inst, "c")
        s = _component(h, c)
        if self.sole(calc):
            if len(s.right) != 1:
                _fail(f"{name}: succedent must be a single formula")
            pos = 0
        else:
            pos = _param(inst, "pos")
        f = _at(_side(s, self.left), pos, name)
        if not self.matches(f):
            _fail(f"{name}: principal formula has the wrong connective or arity")
        return self.premises(calc, inst, h, c, s, pos, f)

    def search_at(self, calc, s: Sequent, c: int, pos: int) -> List[RuleInstance]:
        """Backward instances with the principal formula at (c, pos)."""
        return [RuleInstance(self.rule, self.params(calc, c, pos))]

    def place(self, calc, rng, comps, c):
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
        return self.params(calc, c, pos)


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

    def premises(self, calc, inst, h, c, s, pos, f):
        x = _side(s, self.left)
        parts = [_with_side(s, self.left, _put(x, pos, g)) for g in f.children]
        if self.branching:
            return [h.replace(c, [p]) for p in parts]
        return [h.replace(c, parts)]

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
            premise = h.replace(c, [_with_side(s, self.left, _put(x, pos, unit))])
            params = self.params(calc, c, pos)
            yield from _closed(calc, params, conclusion, tree, premise)

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
            yield self.params(calc, c, pos), _merge(comps, c, merged), (tree,)
            return


class _LNeg(_Logical):
    """H | G |- A  /  H | G, ~A |- D"""

    rule, kinds, left = Rule.LNEG, (Not,), True

    def premises(self, calc, inst, h, c, s, pos, f):
        return [h.replace(c, [Sequent(_put(s.left, pos), (f.child,))])]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(s.right) == 1)
        if c is not None:
            delta = _rand_formulas(calc, rng)
            conclusion = h.replace(c, [Sequent(s.left + (Not(s.right[0]),), delta)])
            yield {"c": c, "pos": len(s.left)}, conclusion, (tree,)


class _Odot(_Logical):
    """The ⊙ rules that keep the context whole.

        LODOT  H | G, A, B |- D  /  H | G, A (*) B |- D
        RODOT  H | G |- A, B, D  /  H | G |- A (*) B, D   (product)
    """

    kinds = (MAnd,)

    def __init__(self, left: bool):
        self.rule, self.left = (Rule.LODOT if left else Rule.RODOT), left

    def premises(self, calc, inst, h, c, s, pos, f):
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
            yield {"c": c, "pos": pos}, conclusion, (tree,)


class _ROdotSplit(_Odot):
    """DL2:  H | G1 |- A, D1   H | G2 |- B, D2  /  H | G1, G2 |- A (*) B, D1, D2

    Both the antecedent and the rest of the succedent are partitioned
    between the premises, at k1 and k2.
    """

    def premises(self, calc, inst, h, c, s, pos, f):
        a, b = f.children
        k1, k2 = _param(inst, "k1"), _param(inst, "k2")
        rest = _put(s.right, pos)
        if not (0 <= k1 <= len(s.left) and 0 <= k2 <= len(rest)):
            _fail("rodot: context partition out of range")
        p1 = h.replace(c, [Sequent(s.left[:k1], (a,) + rest[:k2])])
        p2 = h.replace(c, [Sequent(s.left[k1:], (b,) + rest[k2:])])
        return [p1, p2]

    def search_at(self, calc, s, c, pos):
        return [
            RuleInstance(Rule.RODOT, {"c": c, "pos": pos, "k1": k1, "k2": k2})
            for k1 in range(len(s.left) + 1)
            for k2 in range(len(s.right))
        ]

    def extend(self, calc, rng, tree):
        # the second premise is closed by verum
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(s.right) >= 1)
        if c is not None:
            phi1 = BoolConst(True, calc.profile)
            f = MAnd((s.right[0], phi1))
            conclusion = h.replace(c, [Sequent(s.left, (f,) + s.right[1:])])
            params = {"c": c, "pos": 0, "k1": len(s.left), "k2": len(s.right) - 1}
            premise = h.replace(c, [Sequent((), (phi1,))])
            yield from _closed(calc, params, conclusion, tree, premise)

    def place(self, calc, rng, comps, c):
        params = super().place(calc, rng, comps, c)
        s = comps[c]
        params["k1"] = rng.randint(0, len(s.left))
        params["k2"] = rng.randint(0, len(s.right) - 1)
        return params


class _LImpl(_Logical):
    """Gödel/STL∞:  H | G |- A   H | G, B |- D  /  H | G, A -> B |- D"""

    rule, kinds, left = Rule.LIMPL, (Impl,), True

    def premises(self, calc, inst, h, c, s, pos, f):
        return [
            h.replace(c, [Sequent(_put(s.left, pos), (f.left,))]),
            h.replace(c, [Sequent(_put(s.left, pos, f.right), s.right)]),
        ]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(s.right) == 1)
        if c is not None:
            phi1 = BoolConst(False, calc.profile)
            delta = _rand_formulas(calc, rng)
            f = Impl(s.right[0], phi1)
            conclusion = h.replace(c, [Sequent(s.left + (f,), delta)])
            premise = h.replace(c, [Sequent(s.left + (phi1,), delta)])
            params = {"c": c, "pos": len(s.left)}
            yield from _closed(calc, params, conclusion, tree, premise)


class _LImplLuka(_LImpl):
    """Łukasiewicz:  H | G, B |- A, D  /  H | G, A -> B |- D"""

    def premises(self, calc, inst, h, c, s, pos, f):
        left = _put(s.left, pos, f.right)
        return [h.replace(c, [Sequent(left, (f.left,) + s.right)])]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: s.left and s.right)
        if c is not None:
            pos = rng.randrange(len(s.left))
            f = Impl(s.right[0], s.left[pos])
            conclusion = h.replace(c, [Sequent(_put(s.left, pos, f), s.right[1:])])
            yield {"c": c, "pos": pos}, conclusion, (tree,)


class _LImplProduct(_LImpl):
    """Product:  H | G, ~A |- D   H | G, B |- A, D  /  H | G, A -> B |- D"""

    def premises(self, calc, inst, h, c, s, pos, f):
        return [
            h.replace(c, [Sequent(_put(s.left, pos, Not(f.left)), s.right)]),
            h.replace(c, [Sequent(_put(s.left, pos, f.right), (f.left,) + s.right)]),
        ]

    def extend(self, calc, rng, tree):
        # Both premises must close by axiom leaves: the first by luck of the
        # other components, the second through falsum as the consequent.
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(s.right) == 1)
        if c is not None:
            phi0, phi1 = s.right[0], BoolConst(False, calc.profile)
            conclusion = h.replace(c, [Sequent(s.left + (Impl(phi0, phi1),), s.right)])
            p1 = h.replace(c, [Sequent(s.left + (Not(phi0),), s.right)])
            p2 = h.replace(c, [Sequent(s.left + (phi1,), (phi0,) + s.right)])
            l1, l2 = _leaf_for(calc, p1), _leaf_for(calc, p2)
            if l1 is not None and l2 is not None:
                yield {"c": c, "pos": len(s.left)}, conclusion, (l1, l2)


class _LImplDL2(_LImpl):
    """DL2:  H | G |- D   H | G, B |- A, D  /  H | G, A -> B |- D"""

    def premises(self, calc, inst, h, c, s, pos, f):
        return [
            h.replace(c, [Sequent(_put(s.left, pos), s.right)]),
            h.replace(c, [Sequent(_put(s.left, pos, f.right), (f.left,) + s.right)]),
        ]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c = rng.randrange(len(h.components))
        s = h.components[c]
        phi0, phi1 = _rand_formula(calc, rng), _rand_formula(calc, rng)
        conclusion = h.replace(c, [Sequent(s.left + (Impl(phi0, phi1),), s.right)])
        premise = h.replace(c, [Sequent(s.left + (phi1,), (phi0,) + s.right)])
        params = {"c": c, "pos": len(s.left)}
        yield from _closed(calc, params, conclusion, tree, premise)


class _RImpl(_Logical):
    """Single conclusion:  H | G, A |- B  /  H | G |- A -> B"""

    rule, kinds, left = Rule.RIMPL, (Impl,), False

    def premises(self, calc, inst, h, c, s, pos, f):
        return [h.replace(c, [Sequent(s.left + (f.left,), (f.right,))])]

    def extend(self, calc, rng, tree):
        h = tree.conclusion
        c, s = _pick(rng, h, lambda s: len(s.right) == 1 and s.left)
        if c is not None:
            f = Impl(s.left[-1], s.right[0])
            yield {"c": c}, h.replace(c, [Sequent(s.left[:-1], (f,))]), (tree,)


class _RImplMulti(_RImpl):
    """Multiple conclusions:  H | G |- D   H | G, A |- B, D  /  H | G |- A -> B, D

    Forward steps close the second premise by an axiom leaf; the DL2 form
    draws verum as the consequent, which its verum axiom can close.
    """

    def __init__(self, verum_consequent: bool = False):
        self.verum_consequent = verum_consequent

    def premises(self, calc, inst, h, c, s, pos, f):
        return [
            h.replace(c, [Sequent(s.left, _put(s.right, pos))]),
            h.replace(c, [Sequent(s.left + (f.left,), _put(s.right, pos, f.right))]),
        ]

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
        premise = h.replace(c, [Sequent(s.left + (phi0,), _insert(s.right, pos, phi1))])
        yield from _closed(calc, {"c": c, "pos": pos}, conclusion, tree, premise)


# The order in which backward search tries structural rules, after the
# logical ones.
_SEARCH_ORDER = (
    Rule.COM, Rule.SPLIT, Rule.MIX, Rule.LEX, Rule.REX, Rule.EEX, Rule.WEAK_L, Rule.EW,
)  # fmt: skip

# At budget 1, the number of adjacent components, from the one the param
# "c" names, that each structural rule builds its premises from, all other
# components being copied.  eex and ew are absent: their premises only
# reuse the node's own components, so at budget 1 they never close.
_FRONTIER_WINDOW = {
    Rule.COM: 2, Rule.SPLIT: 2, Rule.MIX: 1, Rule.LEX: 1, Rule.REX: 1, Rule.WEAK_L: 1,
}  # fmt: skip


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
    def frontier_windows(self) -> Tuple[Tuple[RuleSpec, int], ...]:
        """(spec, window width) of each structural rule that can close a
        budget-1 node, in search order."""
        return tuple(
            (self.table[r], _FRONTIER_WINDOW[r])
            for r in _SEARCH_ORDER
            if r in self.table and r in _FRONTIER_WINDOW
        )


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
    return spec.schema(calc, inst, conclusion)


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
    """Forward extensions of tree, each re-checked against the backward schema."""
    results = []
    for spec in calc.table.values():
        for params, conclusion, premise_trees in spec.extend(calc, rng, tree):
            inst = RuleInstance(spec.rule, params)
            try:
                wanted = premises_for(calc, inst, conclusion)
            except (SchemaMismatch, RuleNotInCalculus):
                continue
            if wanted == [t.conclusion for t in premise_trees]:
                results.append(ProofTree(conclusion, inst, premise_trees))
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
    """Generate derivations and assert the conclusion holds semantically."""
    if depth < 1:
        raise ValidationError("derivation depth must be >= 1")
    rng = random.Random(f"fuzz/{calc.name}/{seed}")
    violations = []
    for i in range(trials):
        d = rng.randint(1, depth)
        tree = random_derivation(calc, f"{seed}/{i}", d)
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
    """inst with its component param "c" moved c components to the right."""
    params = dict(inst.params)
    params["c"] += c
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

    Each component is matched once per call: one table keyed by sequent
    holds its first axiom match, another its logical (spec, pos) matches.

    A node with budget 1 (the frontier) needs an instance whose every
    premise has an axiom leaf, and it is answered from tables instead of
    building each instance's premises.  The logical rules' table is keyed by
    one component; each structural spec whose rule has a window in
    ``_FRONTIER_WINDOW`` (``calc.frontier_windows``) has its own table,
    keyed by the components of that window.  An entry is the first instance,
    in search order, that closes on the hypersequent of the window alone,
    with its leaves, and is built once per call.  This is exact: the
    frontier node failed its own leaf test, so only the components a rule
    creates can be axioms, and those depend on the window alone.  So the
    first hit, logical rules component by component and then each structural
    spec component by component, is the instance a full enumeration would
    find; it is re-placed at the node by shifting the instance's and the
    leaves' component index.  A rule without a window (``eex``, ``ew``) is
    skipped there: its premises only reuse the node's components, none of
    which is an axiom.  No path check is needed at the frontier, since a
    premise on the path failed its leaf test.

    The tables and the memo belong to the call; no state outlives it.  If
    ``work`` is a dict, the call writes its counts into it when it
    returns: nodes expanded, memo prunes, and frontier table hits (an
    entry looked up again) and misses (an entry built).
    """
    _validate(calc, goal)
    failed: Dict[Hypersequent, int] = {}
    axiom_of: Dict[Sequent, Optional[tuple]] = {}
    logical_of: Dict[Sequent, List[tuple]] = {}
    structural = [calc.table[r] for r in _SEARCH_ORDER if r in calc.table]
    closes_logical: Dict[Sequent, Optional[tuple]] = {}
    closes: Dict[RuleSpec, dict] = {}  # spec -> {window: entry}
    expanded = pruned = hits = 0

    def leaf(h):
        for c, s in enumerate(h.components):
            match = axiom_of.get(s, axiom_of)  # the table itself: not seen yet
            if match is axiom_of:
                match = axiom_of[s] = _axiom_match(calc, s)
            if match is not None:
                return _axiom_leaf(h, c, match)
        return None

    def logical(s):
        matches = logical_of.get(s)
        if matches is None:
            matches = logical_of[s] = _logical_matches(calc, s)
        return matches

    def candidates(h, streak):
        """(instance, is_structural) pairs, logical ones first."""
        for c, s in enumerate(h.components):
            for spec, pos in logical(s):
                for inst in spec.search_at(calc, s, c, pos):
                    yield inst, False
        if streak < 2:
            for spec in structural:
                for inst in spec.search(calc, h):
                    yield inst, True

    def closing(h, instances):
        """(instance, leaves) of the first of instances on h whose every
        premise has an axiom leaf, or None."""
        for inst in instances:
            try:
                premises = premises_for(calc, inst, h)
            except (SchemaMismatch, RuleNotInCalculus):
                continue
            leaves = []
            for p in premises:
                sub = leaf(p)
                if sub is None:
                    break
                leaves.append(sub)
            else:
                return inst, leaves
        return None

    def placed(h, c, width, entry):
        """The proof of h by entry, found on its window at c."""
        inst, leaves = entry
        comps = h.components
        head, tail = comps[:c], comps[c + width :]
        return ProofTree(h, _shifted(inst, c), tuple(
            ProofTree(
                Hypersequent(head + t.conclusion.components + tail),
                _shifted(t.rule, c),
            )
            for t in leaves
        ))  # fmt: skip

    def frontier(h, streak):
        """A proof of h by one instance over axiom leaves, or None; h has
        no axiom component."""
        nonlocal hits
        comps = h.components
        for c, s in enumerate(comps):
            entry = closes_logical.get(s, closes_logical)
            if entry is closes_logical:
                entry = closes_logical[s] = closing(Hypersequent((s,)), (
                    inst for spec, pos in logical(s)
                    for inst in spec.search_at(calc, s, 0, pos)
                ))  # fmt: skip
            else:
                hits += 1
            if entry is not None:
                return placed(h, c, 1, entry)
        if streak >= 2:
            return None
        for spec, width in calc.frontier_windows:
            table = closes.get(spec)
            if table is None:
                table = closes[spec] = {}
            for c in range(len(comps) - width + 1):
                key = comps[c] if width == 1 else comps[c : c + width]
                entry = table.get(key, table)
                if entry is table:
                    alone = Hypersequent(comps[c : c + width])
                    entry = table[key] = closing(alone, spec.search(calc, alone))
                else:
                    hits += 1
                if entry is not None:
                    return placed(h, c, width, entry)
        return None

    def search(h, budget, streak, path):
        nonlocal expanded, pruned
        # a memoized failure has no leaf, so the memo is consulted first;
        # a node out of budget needs only the leaf scan
        if budget > 0 and failed.get(h, -1) >= budget:
            pruned += 1
            return None
        found = leaf(h)
        if found is not None:
            return found
        if budget <= 0:
            return None
        expanded += 1
        if budget == 1:
            found = frontier(h, streak)
        else:
            found = deeper(h, budget, streak, path)
        if found is None and budget > failed.get(h, -1):
            failed[h] = budget
        return found

    def deeper(h, budget, streak, path):
        """A proof of h, at budget 2 or more, whose premises are searched."""
        below = path | {h}
        for inst, is_structural in candidates(h, streak):
            try:
                premises = premises_for(calc, inst, h)
            except (SchemaMismatch, RuleNotInCalculus):
                continue
            if any(p in path for p in premises):
                continue
            subtrees = []
            next_streak = streak + 1 if is_structural else 0
            for p in premises:
                sub = search(p, budget - 1, next_streak, below)
                if sub is None:
                    break
                subtrees.append(sub)
            else:
                return ProofTree(h, inst, tuple(subtrees))
        return None

    try:
        return search(goal, depth_budget, 0, frozenset())
    finally:
        if work is not None:
            misses = len(closes_logical) + sum(map(len, closes.values()))
            work.update(
                nodes_expanded=expanded, memo_prunes=pruned, frontier_hits=hits,
                frontier_misses=misses,
            )  # fmt: skip
        # search refers to itself, so the closures live on until the
        # cyclic collector runs; emptying the tables frees them now
        failed.clear()
        axiom_of.clear()
        logical_of.clear()
        closes_logical.clear()
        for table in closes.values():
            table.clear()


# ---------------------------------------------------------------------------
# Weak completeness goals (residuated-lattice axioms as sequents)


def _atom(i: int, profile: ConnectiveFlags) -> Expr:
    return Cmp(CmpOp.LE, RealConst(float(i)), RealConst(float(i + 1)), profile)


def weak_completeness_goals(calc: CalculusDef):
    """(axiom id, direction, goal hypersequent) triples for R1-R9."""
    pf = calc.profile
    x, y, z = _atom(1, pf), _atom(2, pf), _atom(3, pf)
    top = BoolConst(True, pf)
    pairs = {
        "R1": (And((x, y)), And((y, x))),
        "R2": (And((x, And((y, z)))), And((And((x, y)), z))),
        "R3": (Or((x, y)), Or((y, x))),
        "R4": (Or((x, Or((y, z)))), Or((Or((x, y)), z))),
        "R5": (And((x, Or((x, y)))), x),
        "R6": (Or((x, And((x, y)))), x),
        "R7": (And((x, Or((y, z)))), Or((And((x, y)), And((x, z))))),
        "R8": (MAnd((x, MAnd((y, z)))), MAnd((MAnd((x, y)), z))),
        "R9": (MAnd((x, top)), x),
    }
    goals = []
    for axiom, (lhs, rhs) in pairs.items():
        goals.append((axiom, "le", Hypersequent([Sequent((lhs,), (rhs,))])))
        if axiom != "R7":  # R7 is stated as an inequality only
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
# The derived extended left-implication rule, as a checkable derivation


def limpl_ext_fixture() -> ProofTree:
    """Admissibility witness for the extended left-implication rule.

    The rule concludes  H | Gamma, phi0 => phi1 |- Delta  from the single
    premise  H | Gamma |- Delta | H | Gamma, phi1 |- phi0, Delta.  The
    derivation below instantiates it with concrete formulas and rebuilds
    it from the ordinary left-implication rule, weakening, and external
    contraction, so it re-checks under the Łukasiewicz calculus.
    """
    pf = CALCULI["lukasiewicz"].profile
    p, q, d, a, b = (_atom(i, pf) for i in range(5))
    impl = Impl(a, b)
    side = Sequent((p,), (p,))
    target = Sequent((q, impl), (d,))
    premise = Hypersequent(
        [side, Sequent((q,), (d,)), side, Sequent((q, b), (a, d))]
    )
    leaf = ProofTree(premise, RuleInstance(Rule.INIT, {"c": 0}), ())
    after_limpl = ProofTree(
        Hypersequent([side, Sequent((q,), (d,)), side, target]),
        RuleInstance(Rule.LIMPL, {"c": 3, "pos": 1}),
        (leaf,),
    )
    after_weak = ProofTree(
        Hypersequent([side, target, side, target]),
        RuleInstance(Rule.WEAK_L, {"c": 1, "k": 1}),
        (after_limpl,),
    )
    return ProofTree(
        Hypersequent([side, target]),
        RuleInstance(Rule.EC, {"b": 2}),
        (after_weak,),
    )


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
        params = dict(node["rule"].get("params", {}))
        if not all(type(v) is int for v in params.values()):
            raise ValidationError(f"rule parameters must be integers: {params!r}")
        inst = RuleInstance(Rule(node["rule"]["id"]), params)
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

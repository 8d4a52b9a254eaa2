"""Hypersequent calculi: data model, rule schemas, checking, and search.

Five calculi share one engine.  Every rule is encoded backward: given a
conclusion and an explicit rule instance (component indices, formula
positions, partition boundaries), ``premises_for`` computes the premise
hypersequents the schema demands; checking a step is then structural
equality.  A semantic oracle (``sequent_holds``) evaluates sequents under
the matching logic so derivations can be fuzzed against soundness, and a
bounded backward search discharges the residuated-lattice goals.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .carriers import F64Carrier, XRealCarrier
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
    LogicKind,
    MAnd,
    MOr,
    Not,
    Or,
    RealConst,
    random_formula,
    validate_for_logic,
    _node_from_json,
    _node_to_json,
)
from .errors import (
    PremiseArityMismatch,
    RuleNotInCalculus,
    SchemaMismatch,
    ValidationError,
)
from .semantics import EMPTY_ENV, Env, interpret

PROOF_SCHEMA_VERSION = "dlc-proof/1"


# ---------------------------------------------------------------------------
# Data model


@dataclass(frozen=True)
class Sequent:
    """An ordered pair of finite formula lists (antecedent, succedent)."""

    left: Tuple[Expr, ...]
    right: Tuple[Expr, ...]

    def __init__(self, left: Sequence[Expr], right: Sequence[Expr]):
        object.__setattr__(self, "left", tuple(left))
        object.__setattr__(self, "right", tuple(right))


@dataclass(frozen=True)
class Hypersequent:
    """A finite list of sequents, read disjunctively."""

    components: Tuple[Sequent, ...]

    def __init__(self, components: Sequence[Sequent]):
        object.__setattr__(self, "components", tuple(components))

    def replace(self, c: int, new: Sequence[Sequent]) -> "Hypersequent":
        comps = self.components
        return Hypersequent(comps[:c] + tuple(new) + comps[c + 1 :])


class Rule(Enum):
    INIT = "init"
    EMP = "emp"
    BOT_L = "botl"
    TOP_R = "topr"
    EW = "ew"
    EC = "ec"
    EEX = "eex"
    COM = "com"
    SPLIT = "split"
    MIX = "mix"
    WEAK_L = "weakl"
    CONTR_L = "contrl"
    LEX = "lex"
    REX = "rex"
    LAND = "land"
    RAND = "rand"
    LOR = "lor"
    ROR = "ror"
    LIMPL = "limpl"
    RIMPL = "rimpl"
    LIMPL_EXT = "limplext"
    LNEG = "lneg"
    LODOT = "lodot"
    RODOT = "rodot"


AXIOM_RULES = frozenset({Rule.INIT, Rule.EMP, Rule.BOT_L, Rule.TOP_R})
STRUCTURAL_RULES = frozenset(
    {
        Rule.EW,
        Rule.EC,
        Rule.EEX,
        Rule.COM,
        Rule.SPLIT,
        Rule.MIX,
        Rule.WEAK_L,
        Rule.CONTR_L,
        Rule.LEX,
        Rule.REX,
    }
)


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


@dataclass(frozen=True)
class CalculusDef:
    name: str
    logic: LogicId
    rules: frozenset
    # single-conclusion style restricts right-hand logical rules to a
    # singleton succedent, as in the minimal-fragment figures
    single_conclusion: bool

    @property
    def profile(self) -> ConnectiveFlags:
        return self.logic.flag_profile


def _calc(name, logic, single, rules):
    return CalculusDef(name, logic, frozenset(rules), single)


CALCULI: Dict[str, CalculusDef] = {
    c.name: c
    for c in (
        _calc(
            "goedel",
            GODEL,
            True,
            {
                Rule.INIT,
                Rule.BOT_L,
                Rule.TOP_R,
                Rule.EW,
                Rule.EC,
                Rule.EEX,
                Rule.COM,
                Rule.WEAK_L,
                Rule.CONTR_L,
                Rule.LEX,
                Rule.REX,
                Rule.LAND,
                Rule.RAND,
                Rule.LOR,
                Rule.ROR,
                Rule.LIMPL,
                Rule.RIMPL,
            },
        ),
        _calc(
            "lukasiewicz",
            LUKASIEWICZ,
            False,
            {
                Rule.INIT,
                Rule.EMP,
                Rule.BOT_L,
                Rule.EW,
                Rule.EC,
                Rule.EEX,
                Rule.WEAK_L,
                Rule.LEX,
                Rule.REX,
                Rule.SPLIT,
                Rule.MIX,
                Rule.LIMPL,
                Rule.RIMPL,
            },
        ),
        _calc(
            "product",
            PRODUCT,
            False,
            {
                Rule.INIT,
                Rule.EMP,
                Rule.BOT_L,
                Rule.EW,
                Rule.EC,
                Rule.EEX,
                Rule.WEAK_L,
                Rule.LEX,
                Rule.REX,
                Rule.SPLIT,
                Rule.MIX,
                Rule.LNEG,
                Rule.LODOT,
                Rule.RODOT,
                Rule.LIMPL,
                Rule.RIMPL,
            },
        ),
        _calc(
            "dl2",
            DL2,
            False,
            {
                Rule.INIT,
                Rule.EMP,
                Rule.TOP_R,
                Rule.EW,
                Rule.EC,
                Rule.EEX,
                Rule.WEAK_L,
                Rule.COM,
                Rule.LEX,
                Rule.REX,
                Rule.LODOT,
                Rule.RODOT,
                Rule.LAND,
                Rule.RAND,
                Rule.LOR,
                Rule.ROR,
                Rule.LIMPL,
                Rule.RIMPL,
            },
        ),
        _calc(
            "stl-inf",
            STL_INFTY,
            True,
            {
                Rule.INIT,
                Rule.BOT_L,
                Rule.TOP_R,
                Rule.EW,
                Rule.EC,
                Rule.EEX,
                Rule.COM,
                Rule.WEAK_L,
                Rule.CONTR_L,
                Rule.LEX,
                Rule.REX,
                Rule.LAND,
                Rule.RAND,
                Rule.LOR,
                Rule.ROR,
                Rule.LIMPL,
                Rule.RIMPL,
            },
        ),
    )
}


# ---------------------------------------------------------------------------
# Rule schemas (backward: conclusion -> required premises)


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


def _binary_children(f: Expr, kinds, what: str):
    if not isinstance(f, kinds):
        _fail(f"{what}: principal formula has the wrong connective")
    kids = f.children
    if len(kids) != 2:
        _fail(f"{what}: principal connective must be binary")
    return kids


def _lattice_and_kinds(calc: CalculusDef):
    # For the min/max logics the monoidal conjunction coincides with the
    # lattice one, so their calculi treat both node kinds alike.
    return (And, MAnd) if calc.single_conclusion else (And,)


def _lattice_or_kinds(calc: CalculusDef):
    return (Or, MOr) if calc.single_conclusion else (Or,)


def _at(seq: Tuple[Expr, ...], pos: int, what: str) -> Expr:
    if not 0 <= pos < len(seq):
        _fail(f"{what}: formula position {pos} out of range")
    return seq[pos]


def _swap(seq: Tuple, i: int) -> Tuple:
    return seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2 :]


def premises_for(
    calc: CalculusDef, inst: RuleInstance, conclusion: Hypersequent
) -> List[Hypersequent]:
    """Premises the rule schema demands for the given conclusion."""
    rule = inst.rule
    if rule not in calc.rules:
        raise RuleNotInCalculus(f"{rule.value} is not a rule of {calc.name}")
    comps = conclusion.components
    if not comps:
        _fail("a conclusion hypersequent needs at least one component")

    if rule is Rule.INIT:
        s = _component(conclusion, _param(inst, "c"))
        if len(s.left) != 1 or len(s.right) != 1 or s.left[0] != s.right[0]:
            _fail("init: component must be phi |- phi")
        return []

    if rule is Rule.EMP:
        s = _component(conclusion, _param(inst, "c"))
        if s.left or s.right:
            _fail("emp: component must be the empty sequent")
        return []

    if rule is Rule.BOT_L:
        s = _component(conclusion, _param(inst, "c"))
        if not _is_bot(_at(s.left, _param(inst, "pos"), "bot")):
            _fail("bot: named left formula is not falsum")
        if calc.name == "lukasiewicz" and len(s.right) != 1:
            _fail("bot: this calculus requires a single succedent formula")
        return []

    if rule is Rule.TOP_R:
        s = _component(conclusion, _param(inst, "c"))
        if len(s.right) != 1 or not _is_top(s.right[0]):
            _fail("top: succedent must be exactly verum")
        return []

    if rule is Rule.EW:
        k = _param(inst, "k")
        if not 1 <= k <= len(comps) - 1:
            _fail("ew: must add between 1 and n-1 trailing components")
        return [Hypersequent(comps[:-k])]

    if rule is Rule.EC:
        b = _param(inst, "b")
        if not 1 <= b <= len(comps):
            _fail("ec: duplicated block size out of range")
        return [Hypersequent(comps + comps[-b:])]

    if rule is Rule.EEX:
        i = _param(inst, "i")
        if not 0 <= i <= len(comps) - 2:
            _fail("eex: adjacent component index out of range")
        return [Hypersequent(_swap(comps, i))]

    if rule is Rule.COM:
        c = _param(inst, "c")
        if not 0 <= c <= len(comps) - 2:
            _fail("com: needs two adjacent components")
        s1, s2 = comps[c], comps[c + 1]
        k1, k2 = _param(inst, "k1"), _param(inst, "k2")
        if not (0 <= k1 <= len(s1.left) and 0 <= k2 <= len(s2.left)):
            _fail("com: antecedent partition out of range")
        g1, g2 = s1.left[:k1], s1.left[k1:]
        t1, t2 = s2.left[:k2], s2.left[k2:]
        p1 = comps[:c] + (Sequent(g1 + t1, s1.right),) + comps[c + 2 :]
        p2 = comps[:c] + (Sequent(g2 + t2, s2.right),) + comps[c + 2 :]
        return [Hypersequent(p1), Hypersequent(p2)]

    if rule is Rule.SPLIT:
        c = _param(inst, "c")
        if not 0 <= c <= len(comps) - 2:
            _fail("split: needs two adjacent components")
        s1, s2 = comps[c], comps[c + 1]
        merged = Sequent(s1.left + s2.left, s1.right + s2.right)
        return [Hypersequent(comps[:c] + (merged,) + comps[c + 2 :])]

    if rule is Rule.MIX:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        k1, k2 = _param(inst, "k1"), _param(inst, "k2")
        if not (0 <= k1 <= len(s.left) and 0 <= k2 <= len(s.right)):
            _fail("mix: partition out of range")
        p1 = conclusion.replace(c, [Sequent(s.left[:k1], s.right[:k2])])
        p2 = conclusion.replace(c, [Sequent(s.left[k1:], s.right[k2:])])
        return [p1, p2]

    if rule is Rule.WEAK_L:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        k = _param(inst, "k")
        if not 1 <= k <= len(s.left):
            _fail("weakening: must drop between 1 and all antecedent formulas")
        return [conclusion.replace(c, [Sequent(s.left[:-k], s.right)])]

    if rule is Rule.CONTR_L:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        k = _param(inst, "k")
        if not 1 <= k <= len(s.left):
            _fail("contraction: block size out of range")
        block = s.left[-k:]
        return [conclusion.replace(c, [Sequent(s.left + block, s.right)])]

    if rule is Rule.LEX:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        pos = _param(inst, "pos")
        if not 0 <= pos <= len(s.left) - 2:
            _fail("lex: adjacent formula position out of range")
        return [conclusion.replace(c, [Sequent(_swap(s.left, pos), s.right)])]

    if rule is Rule.REX:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        pos = _param(inst, "pos")
        if not 0 <= pos <= len(s.right) - 2:
            _fail("rex: adjacent formula position out of range")
        return [conclusion.replace(c, [Sequent(s.left, _swap(s.right, pos))])]

    if rule is Rule.LAND:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        pos = _param(inst, "pos")
        f = _at(s.left, pos, "land")
        a, b = _binary_children(f, _lattice_and_kinds(calc), "land")
        s0 = Sequent(s.left[:pos] + (a,) + s.left[pos + 1 :], s.right)
        s1 = Sequent(s.left[:pos] + (b,) + s.left[pos + 1 :], s.right)
        return [conclusion.replace(c, [s0, s1])]

    if rule is Rule.RAND:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        if calc.single_conclusion:
            if len(s.right) != 1:
                _fail("rand: succedent must be a single formula")
            pos = 0
        else:
            pos = _param(inst, "pos")
        f = _at(s.right, pos, "rand")
        a, b = _binary_children(f, _lattice_and_kinds(calc), "rand")
        p1 = conclusion.replace(
            c, [Sequent(s.left, s.right[:pos] + (a,) + s.right[pos + 1 :])]
        )
        p2 = conclusion.replace(
            c, [Sequent(s.left, s.right[:pos] + (b,) + s.right[pos + 1 :])]
        )
        return [p1, p2]

    if rule is Rule.LOR:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        pos = _param(inst, "pos")
        f = _at(s.left, pos, "lor")
        a, b = _binary_children(f, _lattice_or_kinds(calc), "lor")
        p1 = conclusion.replace(
            c, [Sequent(s.left[:pos] + (a,) + s.left[pos + 1 :], s.right)]
        )
        p2 = conclusion.replace(
            c, [Sequent(s.left[:pos] + (b,) + s.left[pos + 1 :], s.right)]
        )
        return [p1, p2]

    if rule is Rule.ROR:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        if calc.single_conclusion:
            if len(s.right) != 1:
                _fail("ror: succedent must be a single formula")
            pos = 0
        else:
            pos = _param(inst, "pos")
        f = _at(s.right, pos, "ror")
        a, b = _binary_children(f, _lattice_or_kinds(calc), "ror")
        s0 = Sequent(s.left, s.right[:pos] + (a,) + s.right[pos + 1 :])
        s1 = Sequent(s.left, s.right[:pos] + (b,) + s.right[pos + 1 :])
        return [conclusion.replace(c, [s0, s1])]

    if rule is Rule.LNEG:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        pos = _param(inst, "pos")
        f = _at(s.left, pos, "lneg")
        if not isinstance(f, Not):
            _fail("lneg: principal formula is not a negation")
        p = conclusion.replace(
            c, [Sequent(s.left[:pos] + s.left[pos + 1 :], (f.child,))]
        )
        return [p]

    if rule is Rule.LODOT:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        pos = _param(inst, "pos")
        f = _at(s.left, pos, "lodot")
        a, b = _binary_children(f, (MAnd,), "lodot")
        p = conclusion.replace(
            c, [Sequent(s.left[:pos] + (a, b) + s.left[pos + 1 :], s.right)]
        )
        return [p]

    if rule is Rule.RODOT:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        pos = _param(inst, "pos")
        f = _at(s.right, pos, "rodot")
        a, b = _binary_children(f, (MAnd,), "rodot")
        if calc.name == "product":
            p = conclusion.replace(
                c, [Sequent(s.left, s.right[:pos] + (a, b) + s.right[pos + 1 :])]
            )
            return [p]
        # context-splitting form: both the antecedent and the remaining
        # succedent are partitioned between the premises
        k1, k2 = _param(inst, "k1"), _param(inst, "k2")
        rest = s.right[:pos] + s.right[pos + 1 :]
        if not (0 <= k1 <= len(s.left) and 0 <= k2 <= len(rest)):
            _fail("rodot: context partition out of range")
        p1 = conclusion.replace(c, [Sequent(s.left[:k1], (a,) + rest[:k2])])
        p2 = conclusion.replace(c, [Sequent(s.left[k1:], (b,) + rest[k2:])])
        return [p1, p2]

    if rule is Rule.LIMPL:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        pos = _param(inst, "pos")
        f = _at(s.left, pos, "limpl")
        if not isinstance(f, Impl):
            _fail("limpl: principal formula is not an implication")
        gamma = s.left[:pos] + s.left[pos + 1 :]
        with_right = s.left[:pos] + (f.right,) + s.left[pos + 1 :]
        if calc.name in ("goedel", "stl-inf"):
            p1 = conclusion.replace(c, [Sequent(gamma, (f.left,))])
            p2 = conclusion.replace(c, [Sequent(with_right, s.right)])
            return [p1, p2]
        if calc.name == "lukasiewicz":
            p = conclusion.replace(c, [Sequent(with_right, (f.left,) + s.right)])
            return [p]
        if calc.name == "product":
            p1 = conclusion.replace(
                c, [Sequent(s.left[:pos] + (Not(f.left),) + s.left[pos + 1 :], s.right)]
            )
            p2 = conclusion.replace(c, [Sequent(with_right, (f.left,) + s.right)])
            return [p1, p2]
        # dl2
        p1 = conclusion.replace(c, [Sequent(gamma, s.right)])
        p2 = conclusion.replace(c, [Sequent(with_right, (f.left,) + s.right)])
        return [p1, p2]

    if rule is Rule.RIMPL:
        c = _param(inst, "c")
        s = _component(conclusion, c)
        if calc.single_conclusion:
            if len(s.right) != 1:
                _fail("rimpl: succedent must be a single formula")
            f = s.right[0]
            if not isinstance(f, Impl):
                _fail("rimpl: principal formula is not an implication")
            p = conclusion.replace(c, [Sequent(s.left + (f.left,), (f.right,))])
            return [p]
        pos = _param(inst, "pos")
        f = _at(s.right, pos, "rimpl")
        if not isinstance(f, Impl):
            _fail("rimpl: principal formula is not an implication")
        without = s.right[:pos] + s.right[pos + 1 :]
        with_right = s.right[:pos] + (f.right,) + s.right[pos + 1 :]
        p1 = conclusion.replace(c, [Sequent(s.left, without)])
        p2 = conclusion.replace(c, [Sequent(s.left + (f.left,), with_right)])
        return [p1, p2]

    raise RuleNotInCalculus(f"{rule.value} has no schema in any calculus")


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


def check_proof(calc: CalculusDef, tree: ProofTree) -> None:
    """Raise a StepError (annotated with a node path) for the first bad node."""
    for s in tree.conclusion.components:
        for f in s.left + s.right:
            validate_for_logic(f, calc.logic)
    _check_node(calc, tree, ())


def _check_node(calc: CalculusDef, node: ProofTree, path) -> None:
    try:
        check_step(
            calc, node.rule, node.conclusion, [p.conclusion for p in node.premises]
        )
    except SchemaMismatch as exc:
        exc.path = path + exc.path
        raise
    for i, child in enumerate(node.premises):
        _check_node(calc, child, path + (i,))


# ---------------------------------------------------------------------------
# Semantic oracle


def _values(logic: LogicId, formulas, env: Env, carrier):
    return [interpret(logic, f, env, carrier) for f in formulas]


def sequent_holds(
    logic: LogicId, s: Sequent, env: Env = EMPTY_ENV, tol: float = 1e-9
) -> bool:
    """Truth of the inequality a sequent denotes under the given logic.

    The monoidal antecedent/succedent folds for Łukasiewicz use the
    untruncated affine form sum - (n - 1); on single formulas it agrees
    with the formula semantics, and it is the reading under which the
    splitting rule is locally sound.
    """
    kind = logic.kind
    if kind is LogicKind.STL_INFTY:
        lv = [x.value for x in _values(logic, s.left, env, XRealCarrier)]
        rv = [x.value for x in _values(logic, s.right, env, XRealCarrier)]
        lhs = min(lv) if lv else math.inf
        rhs = max(rv) if rv else -math.inf
        return lhs <= rhs
    lv = _values(logic, s.left, env, F64Carrier)
    rv = _values(logic, s.right, env, F64Carrier)
    if kind is LogicKind.GODEL:
        lhs = min(lv) if lv else 1.0
        rhs = max(rv) if rv else 0.0
        return lhs <= rhs + tol
    if kind is LogicKind.LUKASIEWICZ:
        lhs = sum(lv) - (len(lv) - 1) if lv else 1.0
        if not rv:
            return lhs <= 1.0 + tol
        rhs = sum(rv) - (len(rv) - 1)
        return lhs <= rhs + tol
    if kind is LogicKind.PRODUCT:
        lhs = math.prod(lv) if lv else 1.0
        if not rv:
            return lhs <= 1.0 + tol
        rhs = math.prod(rv)
        return lhs <= rhs + tol
    if kind is LogicKind.DL2:
        return sum(lv) <= sum(rv) + tol
    raise ValidationError(f"no sequent semantics for {kind}")


def hypersequent_holds(
    logic: LogicId, h: Hypersequent, env: Env = EMPTY_ENV, tol: float = 1e-9
) -> bool:
    """A hypersequent holds iff some component's sequent holds."""
    return any(sequent_holds(logic, s, env, tol) for s in h.components)


# ---------------------------------------------------------------------------
# Forward generation (for soundness fuzzing)


def _rand_formula(calc: CalculusDef, rng: random.Random, depth=1) -> Expr:
    return random_formula(calc.profile, rng.randint(0, depth), rng.getrandbits(48))


def _rand_formulas(calc, rng, lo=0, hi=2):
    return tuple(_rand_formula(calc, rng) for _ in range(rng.randint(lo, hi)))


def _rand_sequent(calc: CalculusDef, rng: random.Random) -> Sequent:
    return Sequent(_rand_formulas(calc, rng), _rand_formulas(calc, rng))


def _axiom_component(calc: CalculusDef, rule: Rule, rng: random.Random):
    """A sequent matching the given axiom schema, plus instance params."""
    if rule is Rule.INIT:
        f = _rand_formula(calc, rng)
        return Sequent((f,), (f,)), {}
    if rule is Rule.EMP:
        return Sequent((), ()), {}
    if rule is Rule.TOP_R:
        return Sequent(_rand_formulas(calc, rng), (BoolConst(True, calc.profile),)), {}
    if rule is Rule.BOT_L:
        left = list(_rand_formulas(calc, rng))
        pos = rng.randint(0, len(left))
        left.insert(pos, BoolConst(False, calc.profile))
        if calc.name == "lukasiewicz":
            right = (_rand_formula(calc, rng),)
        else:
            right = _rand_formulas(calc, rng)
        return Sequent(tuple(left), right), {"pos": pos}
    raise ValidationError(f"{rule.value} is not an axiom")


def _random_axiom_tree(calc: CalculusDef, rng: random.Random) -> ProofTree:
    rules = sorted(calc.rules & AXIOM_RULES, key=lambda r: r.value)
    rule = rng.choice(rules)
    comp, extra = _axiom_component(calc, rule, rng)
    side = [_rand_sequent(calc, rng) for _ in range(rng.randint(0, 2))]
    c = rng.randint(0, len(side))
    side.insert(c, comp)
    inst = RuleInstance(rule, {"c": c, **extra})
    return ProofTree(Hypersequent(side), inst, ())


def _leaf_for(calc: CalculusDef, h: Hypersequent) -> Optional[ProofTree]:
    """A zero-premise proof of h, if some component is an axiom instance."""
    for c, s in enumerate(h.components):
        if (
            Rule.INIT in calc.rules
            and len(s.left) == 1
            and len(s.right) == 1
            and s.left[0] == s.right[0]
        ):
            return ProofTree(h, RuleInstance(Rule.INIT, {"c": c}), ())
        if Rule.EMP in calc.rules and not s.left and not s.right:
            return ProofTree(h, RuleInstance(Rule.EMP, {"c": c}), ())
        if (
            Rule.TOP_R in calc.rules
            and len(s.right) == 1
            and _is_top(s.right[0])
        ):
            return ProofTree(h, RuleInstance(Rule.TOP_R, {"c": c}), ())
        if Rule.BOT_L in calc.rules and (
            calc.name != "lukasiewicz" or len(s.right) == 1
        ):
            for pos, f in enumerate(s.left):
                if _is_bot(f):
                    return ProofTree(
                        h, RuleInstance(Rule.BOT_L, {"c": c, "pos": pos}), ()
                    )
    return None


def _extend_candidates(calc: CalculusDef, rng: random.Random, tree: ProofTree):
    """Forward extension choices: (instance, conclusion, premise trees).

    Each candidate uses the current tree as one premise; any further
    premises are closed immediately by an axiom leaf.  Every candidate is
    re-checked against the backward schema before being offered.
    """
    h = tree.conclusion
    comps = h.components
    single = calc.single_conclusion
    raw = []  # (rule, params, conclusion, premise_trees)

    def offer(rule, params, conclusion, *premise_trees):
        raw.append((RuleInstance(rule, params), conclusion, premise_trees))

    # --- structural rules -------------------------------------------------
    if Rule.EW in calc.rules:
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
        offer(Rule.EW, {"k": len(extra)}, Hypersequent(comps + tuple(extra)), tree)

    if Rule.EEX in calc.rules and len(comps) >= 2:
        i = rng.randrange(len(comps) - 1)
        offer(Rule.EEX, {"i": i}, Hypersequent(_swap(comps, i)), tree)

    if Rule.EC in calc.rules:
        # forward reading: current conclusion must end in a duplicate block
        for b in range(1, len(comps) // 2 + 1):
            if comps[-b:] == comps[-2 * b : -b]:
                offer(Rule.EC, {"b": b}, Hypersequent(comps[:-b]), tree)
                break

    if Rule.WEAK_L in calc.rules:
        c = rng.randrange(len(comps))
        added = _rand_formulas(calc, rng, 1, 2)
        s = comps[c]
        offer(
            Rule.WEAK_L,
            {"c": c, "k": len(added)},
            h.replace(c, [Sequent(s.left + added, s.right)]),
            tree,
        )

    if Rule.CONTR_L in calc.rules:
        for c, s in enumerate(comps):
            for k in range(1, len(s.left) // 2 + 1):
                if s.left[-k:] == s.left[-2 * k : -k]:
                    offer(
                        Rule.CONTR_L,
                        {"c": c, "k": k},
                        h.replace(c, [Sequent(s.left[:-k], s.right)]),
                        tree,
                    )
                    break

    if Rule.LEX in calc.rules:
        cands = [c for c, s in enumerate(comps) if len(s.left) >= 2]
        if cands:
            c = rng.choice(cands)
            s = comps[c]
            pos = rng.randrange(len(s.left) - 1)
            offer(
                Rule.LEX,
                {"c": c, "pos": pos},
                h.replace(c, [Sequent(_swap(s.left, pos), s.right)]),
                tree,
            )

    if Rule.REX in calc.rules:
        cands = [c for c, s in enumerate(comps) if len(s.right) >= 2]
        if cands:
            c = rng.choice(cands)
            s = comps[c]
            pos = rng.randrange(len(s.right) - 1)
            offer(
                Rule.REX,
                {"c": c, "pos": pos},
                h.replace(c, [Sequent(s.left, _swap(s.right, pos))]),
                tree,
            )

    if Rule.COM in calc.rules:
        c = rng.randrange(len(comps))
        s = comps[c]
        j = rng.randint(0, len(s.left))
        psi = _rand_formula(calc, rng)
        conclusion = h.replace(
            c, [Sequent(s.left[:j] + (psi,), s.right), Sequent(s.left[j:], (psi,))]
        )
        p2 = h.replace(c, [Sequent((psi,), (psi,))])
        leaf = _leaf_for(calc, p2)
        if leaf is not None:
            offer(Rule.COM, {"c": c, "k1": j, "k2": len(s.left) - j},
                  conclusion, tree, leaf)

    if Rule.SPLIT in calc.rules:
        cands = [c for c, s in enumerate(comps) if s.left or s.right]
        if cands:
            c = rng.choice(cands)
            s = comps[c]
            j = rng.randint(0, len(s.left))
            k = rng.randint(0, len(s.right))
            conclusion = h.replace(
                c,
                [Sequent(s.left[:j], s.right[:k]), Sequent(s.left[j:], s.right[k:])],
            )
            offer(Rule.SPLIT, {"c": c}, conclusion, tree)

    if Rule.MIX in calc.rules:
        c = rng.randrange(len(comps))
        s = comps[c]
        psi = _rand_formula(calc, rng)
        conclusion = h.replace(c, [Sequent(s.left + (psi,), s.right + (psi,))])
        p2 = h.replace(c, [Sequent((psi,), (psi,))])
        leaf = _leaf_for(calc, p2)
        if leaf is not None:
            offer(Rule.MIX, {"c": c, "k1": len(s.left), "k2": len(s.right)},
                  conclusion, tree, leaf)

    # --- logical rules ----------------------------------------------------
    if Rule.RIMPL in calc.rules:
        if single:
            cands = [c for c, s in enumerate(comps)
                     if len(s.right) == 1 and len(s.left) >= 1]
            if cands:
                c = rng.choice(cands)
                s = comps[c]
                f = Impl(s.left[-1], s.right[0])
                offer(Rule.RIMPL, {"c": c},
                      h.replace(c, [Sequent(s.left[:-1], (f,))]), tree)
        else:
            c = rng.randrange(len(comps))
            s = comps[c]
            phi0 = _rand_formula(calc, rng)
            if calc.name == "dl2":
                phi1 = BoolConst(True, calc.profile)
            else:
                phi1 = _rand_formula(calc, rng)
            pos = rng.randint(0, len(s.right))
            conclusion = h.replace(
                c, [Sequent(s.left, s.right[:pos] + (Impl(phi0, phi1),) + s.right[pos:])]
            )
            p2 = h.replace(
                c, [Sequent(s.left + (phi0,), s.right[:pos] + (phi1,) + s.right[pos:])]
            )
            leaf = _leaf_for(calc, p2)
            if leaf is not None:
                offer(Rule.RIMPL, {"c": c, "pos": pos}, conclusion, tree, leaf)

    if Rule.LIMPL in calc.rules:
        if calc.name == "lukasiewicz":
            cands = [c for c, s in enumerate(comps)
                     if len(s.left) >= 1 and len(s.right) >= 1]
            if cands:
                c = rng.choice(cands)
                s = comps[c]
                pos = rng.randrange(len(s.left))
                f = Impl(s.right[0], s.left[pos])
                conclusion = h.replace(
                    c,
                    [Sequent(s.left[:pos] + (f,) + s.left[pos + 1 :], s.right[1:])],
                )
                offer(Rule.LIMPL, {"c": c, "pos": pos}, conclusion, tree)
        elif single:
            cands = [c for c, s in enumerate(comps) if len(s.right) == 1]
            if cands:
                c = rng.choice(cands)
                s = comps[c]
                phi0 = s.right[0]
                phi1 = BoolConst(False, calc.profile)
                delta = _rand_formulas(calc, rng)
                pos = len(s.left)
                conclusion = h.replace(
                    c, [Sequent(s.left + (Impl(phi0, phi1),), delta)]
                )
                p2 = h.replace(c, [Sequent(s.left + (phi1,), delta)])
                leaf = _leaf_for(calc, p2)
                if leaf is not None:
                    offer(Rule.LIMPL, {"c": c, "pos": pos}, conclusion, tree, leaf)
        elif calc.name == "product":
            cands = [c for c, s in enumerate(comps) if len(s.right) == 1]
            if cands:
                c = rng.choice(cands)
                s = comps[c]
                phi0 = s.right[0]
                phi1 = BoolConst(False, calc.profile)
                pos = len(s.left)
                delta = s.right  # keep the succedent; the first premise is
                # H | Gamma, ~phi0 |- Delta, closed by weakening-free luck
                # only rarely, so route premise 2 through falsum instead
                conclusion = h.replace(
                    c, [Sequent(s.left + (Impl(phi0, phi1),), delta)]
                )
                p1 = h.replace(c, [Sequent(s.left + (Not(phi0),), delta)])
                p2 = h.replace(c, [Sequent(s.left + (phi1,), (phi0,) + delta)])
                l1 = _leaf_for(calc, p1)
                l2 = _leaf_for(calc, p2)
                if l1 is not None and l2 is not None:
                    offer(Rule.LIMPL, {"c": c, "pos": pos}, conclusion, l1, l2)
        else:  # dl2
            c = rng.randrange(len(comps))
            s = comps[c]
            phi0 = _rand_formula(calc, rng)
            phi1 = _rand_formula(calc, rng)
            pos = len(s.left)
            conclusion = h.replace(
                c, [Sequent(s.left + (Impl(phi0, phi1),), s.right)]
            )
            p2 = h.replace(c, [Sequent(s.left + (phi1,), (phi0,) + s.right)])
            leaf = _leaf_for(calc, p2)
            if leaf is not None:
                offer(Rule.LIMPL, {"c": c, "pos": pos}, conclusion, tree, leaf)

    if Rule.RAND in calc.rules:
        if single:
            cands = [c for c, s in enumerate(comps) if len(s.right) == 1]
        else:
            cands = [c for c, s in enumerate(comps) if len(s.right) >= 1]
        if cands:
            c = rng.choice(cands)
            s = comps[c]
            pos = 0 if single else rng.randrange(len(s.right))
            phi1 = BoolConst(True, calc.profile)
            kind = rng.choice([And, MAnd]) if single else And
            f = kind((s.right[pos], phi1))
            conclusion = h.replace(
                c, [Sequent(s.left, s.right[:pos] + (f,) + s.right[pos + 1 :])]
            )
            p2 = h.replace(
                c, [Sequent(s.left, s.right[:pos] + (phi1,) + s.right[pos + 1 :])]
            )
            leaf = _leaf_for(calc, p2)
            if leaf is not None:
                params = {"c": c} if single else {"c": c, "pos": pos}
                offer(Rule.RAND, params, conclusion, tree, leaf)

    if Rule.LOR in calc.rules:
        cands = [c for c, s in enumerate(comps) if len(s.left) >= 1]
        if cands and calc.profile.neg:  # falsum closes the second premise
            c = rng.choice(cands)
            s = comps[c]
            pos = rng.randrange(len(s.left))
            phi1 = BoolConst(False, calc.profile)
            kind = rng.choice([Or, MOr]) if single else Or
            f = kind((s.left[pos], phi1))
            conclusion = h.replace(
                c, [Sequent(s.left[:pos] + (f,) + s.left[pos + 1 :], s.right)]
            )
            p2 = h.replace(
                c, [Sequent(s.left[:pos] + (phi1,) + s.left[pos + 1 :], s.right)]
            )
            leaf = _leaf_for(calc, p2)
            if leaf is not None:
                offer(Rule.LOR, {"c": c, "pos": pos}, conclusion, tree, leaf)

    if Rule.ROR in calc.rules:
        for c in range(len(comps) - 1):
            s0, s1 = comps[c], comps[c + 1]
            if s0.left != s1.left:
                continue
            if len(s0.right) != len(s1.right) or not s0.right:
                continue
            diffs = [i for i in range(len(s0.right)) if s0.right[i] != s1.right[i]]
            if len(diffs) > 1:
                continue
            pos = diffs[0] if diffs else 0
            if single and len(s0.right) != 1:
                continue
            kind = rng.choice([Or, MOr]) if single else Or
            f = kind((s0.right[pos], s1.right[pos]))
            merged = Sequent(s0.left, s0.right[:pos] + (f,) + s0.right[pos + 1 :])
            conclusion = Hypersequent(comps[:c] + (merged,) + comps[c + 2 :])
            params = {"c": c} if single else {"c": c, "pos": pos}
            offer(Rule.ROR, params, conclusion, tree)
            break

    if Rule.LAND in calc.rules:
        for c in range(len(comps) - 1):
            s0, s1 = comps[c], comps[c + 1]
            if s0.right != s1.right or len(s0.left) != len(s1.left) or not s0.left:
                continue
            diffs = [i for i in range(len(s0.left)) if s0.left[i] != s1.left[i]]
            if len(diffs) > 1:
                continue
            pos = diffs[0] if diffs else 0
            kind = rng.choice([And, MAnd]) if single else And
            f = kind((s0.left[pos], s1.left[pos]))
            merged = Sequent(s0.left[:pos] + (f,) + s0.left[pos + 1 :], s0.right)
            conclusion = Hypersequent(comps[:c] + (merged,) + comps[c + 2 :])
            offer(Rule.LAND, {"c": c, "pos": pos}, conclusion, tree)
            break

    if Rule.LNEG in calc.rules:
        cands = [c for c, s in enumerate(comps) if len(s.right) == 1]
        if cands:
            c = rng.choice(cands)
            s = comps[c]
            pos = len(s.left)
            delta = _rand_formulas(calc, rng)
            conclusion = h.replace(c, [Sequent(s.left + (Not(s.right[0]),), delta)])
            offer(Rule.LNEG, {"c": c, "pos": pos}, conclusion, tree)

    if Rule.LODOT in calc.rules:
        cands = [c for c, s in enumerate(comps) if len(s.left) >= 2]
        if cands:
            c = rng.choice(cands)
            s = comps[c]
            pos = rng.randrange(len(s.left) - 1)
            f = MAnd((s.left[pos], s.left[pos + 1]))
            conclusion = h.replace(
                c, [Sequent(s.left[:pos] + (f,) + s.left[pos + 2 :], s.right)]
            )
            offer(Rule.LODOT, {"c": c, "pos": pos}, conclusion, tree)

    if Rule.RODOT in calc.rules:
        if calc.name == "product":
            cands = [c for c, s in enumerate(comps) if len(s.right) >= 2]
            if cands:
                c = rng.choice(cands)
                s = comps[c]
                pos = rng.randrange(len(s.right) - 1)
                f = MAnd((s.right[pos], s.right[pos + 1]))
                conclusion = h.replace(
                    c, [Sequent(s.left, s.right[:pos] + (f,) + s.right[pos + 2 :])]
                )
                offer(Rule.RODOT, {"c": c, "pos": pos}, conclusion, tree)
        else:  # dl2: context-splitting form, second premise closed by verum
            cands = [c for c, s in enumerate(comps) if len(s.right) >= 1]
            if cands:
                c = rng.choice(cands)
                s = comps[c]
                phi1 = BoolConst(True, calc.profile)
                f = MAnd((s.right[0], phi1))
                conclusion = h.replace(c, [Sequent(s.left, (f,) + s.right[1:])])
                p2 = h.replace(c, [Sequent((), (phi1,))])
                leaf = _leaf_for(calc, p2)
                if leaf is not None:
                    offer(
                        Rule.RODOT,
                        {"c": c, "pos": 0, "k1": len(s.left),
                         "k2": len(s.right) - 1},
                        conclusion, tree, leaf,
                    )

    results = []
    for inst, conclusion, premise_trees in raw:
        try:
            wanted = premises_for(calc, inst, conclusion)
        except (SchemaMismatch, RuleNotInCalculus):
            continue
        if wanted == [t.conclusion for t in premise_trees]:
            results.append(ProofTree(conclusion, inst, tuple(premise_trees)))
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
    if rule in AXIOM_RULES:
        comp, extra = _axiom_component(calc, rule, rng)
        side = [_rand_sequent(calc, rng) for _ in range(rng.randint(0, 2))]
        c = rng.randint(0, len(side))
        side.insert(c, comp)
        return RuleInstance(rule, {"c": c, **extra}), Hypersequent(side)

    ncomp = rng.randint(1, 3)
    comps = [_rand_sequent(calc, rng) for _ in range(ncomp)]

    def put(c, seq):
        comps[c] = seq

    single = calc.single_conclusion
    c = rng.randrange(ncomp)
    s = comps[c]

    if rule is Rule.EW:
        if ncomp < 2:
            comps.append(_rand_sequent(calc, rng))
            ncomp += 1
        return RuleInstance(rule, {"k": rng.randint(1, ncomp - 1)}), Hypersequent(comps)
    if rule is Rule.EC:
        return RuleInstance(rule, {"b": rng.randint(1, ncomp)}), Hypersequent(comps)
    if rule is Rule.EEX:
        if ncomp < 2:
            comps.append(_rand_sequent(calc, rng))
            ncomp += 1
        return (
            RuleInstance(rule, {"i": rng.randrange(ncomp - 1)}),
            Hypersequent(comps),
        )
    if rule in (Rule.COM, Rule.SPLIT):
        if ncomp < 2:
            comps.append(_rand_sequent(calc, rng))
            ncomp += 1
        c = rng.randrange(ncomp - 1)
        if rule is Rule.SPLIT:
            return RuleInstance(rule, {"c": c}), Hypersequent(comps)
        k1 = rng.randint(0, len(comps[c].left))
        k2 = rng.randint(0, len(comps[c + 1].left))
        return RuleInstance(rule, {"c": c, "k1": k1, "k2": k2}), Hypersequent(comps)
    if rule is Rule.MIX:
        k1 = rng.randint(0, len(s.left))
        k2 = rng.randint(0, len(s.right))
        return RuleInstance(rule, {"c": c, "k1": k1, "k2": k2}), Hypersequent(comps)
    if rule is Rule.WEAK_L:
        if not s.left:
            put(c, Sequent(_rand_formulas(calc, rng, 1, 3), s.right))
            s = comps[c]
        return (
            RuleInstance(rule, {"c": c, "k": rng.randint(1, len(s.left))}),
            Hypersequent(comps),
        )
    if rule is Rule.CONTR_L:
        if not s.left:
            put(c, Sequent(_rand_formulas(calc, rng, 1, 2), s.right))
            s = comps[c]
        return (
            RuleInstance(rule, {"c": c, "k": rng.randint(1, len(s.left))}),
            Hypersequent(comps),
        )
    if rule is Rule.LEX:
        left = _rand_formulas(calc, rng, 2, 3)
        put(c, Sequent(left, s.right))
        return (
            RuleInstance(rule, {"c": c, "pos": rng.randrange(len(left) - 1)}),
            Hypersequent(comps),
        )
    if rule is Rule.REX:
        right = _rand_formulas(calc, rng, 2, 3)
        put(c, Sequent(s.left, right))
        return (
            RuleInstance(rule, {"c": c, "pos": rng.randrange(len(right) - 1)}),
            Hypersequent(comps),
        )

    # logical rules: build a principal formula and place it
    phi0 = _rand_formula(calc, rng)
    phi1 = _rand_formula(calc, rng)
    and_kind = rng.choice([And, MAnd]) if single else And
    or_kind = rng.choice([Or, MOr]) if single else Or

    def place_left(f):
        pos = rng.randint(0, len(s.left))
        put(c, Sequent(s.left[:pos] + (f,) + s.left[pos:], s.right))
        return pos

    def place_right(f):
        if single:
            put(c, Sequent(s.left, (f,)))
            return 0
        pos = rng.randint(0, len(s.right))
        put(c, Sequent(s.left, s.right[:pos] + (f,) + s.right[pos:]))
        return pos

    if rule is Rule.LAND:
        pos = place_left(and_kind((phi0, phi1)))
        return RuleInstance(rule, {"c": c, "pos": pos}), Hypersequent(comps)
    if rule is Rule.LOR:
        pos = place_left(or_kind((phi0, phi1)))
        return RuleInstance(rule, {"c": c, "pos": pos}), Hypersequent(comps)
    if rule is Rule.LIMPL:
        pos = place_left(Impl(phi0, phi1))
        return RuleInstance(rule, {"c": c, "pos": pos}), Hypersequent(comps)
    if rule is Rule.LNEG:
        pos = place_left(Not(phi0))
        return RuleInstance(rule, {"c": c, "pos": pos}), Hypersequent(comps)
    if rule is Rule.LODOT:
        pos = place_left(MAnd((phi0, phi1)))
        return RuleInstance(rule, {"c": c, "pos": pos}), Hypersequent(comps)
    if rule is Rule.RAND:
        pos = place_right(and_kind((phi0, phi1)))
        params = {"c": c} if single else {"c": c, "pos": pos}
        return RuleInstance(rule, params), Hypersequent(comps)
    if rule is Rule.ROR:
        pos = place_right(or_kind((phi0, phi1)))
        params = {"c": c} if single else {"c": c, "pos": pos}
        return RuleInstance(rule, params), Hypersequent(comps)
    if rule is Rule.RIMPL:
        pos = place_right(Impl(phi0, phi1))
        params = {"c": c} if single else {"c": c, "pos": pos}
        return RuleInstance(rule, params), Hypersequent(comps)
    if rule is Rule.RODOT:
        pos = place_right(MAnd((phi0, phi1)))
        if calc.name == "product":
            return RuleInstance(rule, {"c": c, "pos": pos}), Hypersequent(comps)
        s2 = comps[c]
        k1 = rng.randint(0, len(s2.left))
        k2 = rng.randint(0, len(s2.right) - 1)
        return (
            RuleInstance(rule, {"c": c, "pos": pos, "k1": k1, "k2": k2}),
            Hypersequent(comps),
        )
    raise ValidationError(f"no random instance builder for {rule.value}")


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


def _backward_instances(calc: CalculusDef, h: Hypersequent):
    """Rule instances worth trying backward on h, roughly best-first."""
    comps = h.components
    logical = []
    structural = []
    for c, s in enumerate(comps):
        for pos, f in enumerate(s.left):
            if isinstance(f, _lattice_and_kinds(calc)) and len(f.children) == 2:
                if Rule.LAND in calc.rules and (
                    not isinstance(f, MAnd) or calc.single_conclusion
                ):
                    logical.append(RuleInstance(Rule.LAND, {"c": c, "pos": pos}))
            if isinstance(f, MAnd) and len(f.children) == 2:
                if Rule.LODOT in calc.rules:
                    logical.append(RuleInstance(Rule.LODOT, {"c": c, "pos": pos}))
            if isinstance(f, _lattice_or_kinds(calc)) and len(f.children) == 2:
                if Rule.LOR in calc.rules:
                    logical.append(RuleInstance(Rule.LOR, {"c": c, "pos": pos}))
            if isinstance(f, Impl) and Rule.LIMPL in calc.rules:
                logical.append(RuleInstance(Rule.LIMPL, {"c": c, "pos": pos}))
            if isinstance(f, Not) and Rule.LNEG in calc.rules:
                logical.append(RuleInstance(Rule.LNEG, {"c": c, "pos": pos}))
        for pos, f in enumerate(s.right):
            if calc.single_conclusion and len(s.right) != 1:
                break
            base = {"c": c} if calc.single_conclusion else {"c": c, "pos": pos}
            if isinstance(f, _lattice_and_kinds(calc)) and len(f.children) == 2:
                if Rule.RAND in calc.rules and (
                    not isinstance(f, MAnd) or calc.single_conclusion
                ):
                    logical.append(RuleInstance(Rule.RAND, dict(base)))
            if isinstance(f, MAnd) and len(f.children) == 2 and Rule.RODOT in calc.rules:
                if calc.name == "product":
                    logical.append(RuleInstance(Rule.RODOT, {"c": c, "pos": pos}))
                else:
                    rest = len(s.right) - 1
                    for k1 in range(len(s.left) + 1):
                        for k2 in range(rest + 1):
                            logical.append(
                                RuleInstance(
                                    Rule.RODOT,
                                    {"c": c, "pos": pos, "k1": k1, "k2": k2},
                                )
                            )
            if isinstance(f, _lattice_or_kinds(calc)) and len(f.children) == 2:
                if Rule.ROR in calc.rules:
                    logical.append(RuleInstance(Rule.ROR, dict(base)))
            if isinstance(f, Impl) and Rule.RIMPL in calc.rules:
                logical.append(RuleInstance(Rule.RIMPL, dict(base)))

    if Rule.COM in calc.rules:
        for c in range(len(comps) - 1):
            for k1 in range(len(comps[c].left) + 1):
                for k2 in range(len(comps[c + 1].left) + 1):
                    structural.append(
                        RuleInstance(Rule.COM, {"c": c, "k1": k1, "k2": k2})
                    )
    if Rule.SPLIT in calc.rules:
        for c in range(len(comps) - 1):
            structural.append(RuleInstance(Rule.SPLIT, {"c": c}))
    if Rule.MIX in calc.rules:
        for c, s in enumerate(comps):
            for k1 in range(len(s.left) + 1):
                for k2 in range(len(s.right) + 1):
                    structural.append(
                        RuleInstance(Rule.MIX, {"c": c, "k1": k1, "k2": k2})
                    )
    if Rule.LEX in calc.rules:
        for c, s in enumerate(comps):
            for pos in range(len(s.left) - 1):
                structural.append(RuleInstance(Rule.LEX, {"c": c, "pos": pos}))
    if Rule.REX in calc.rules:
        for c, s in enumerate(comps):
            for pos in range(len(s.right) - 1):
                structural.append(RuleInstance(Rule.REX, {"c": c, "pos": pos}))
    if Rule.EEX in calc.rules:
        for i in range(len(comps) - 1):
            structural.append(RuleInstance(Rule.EEX, {"i": i}))
    if Rule.WEAK_L in calc.rules:
        for c, s in enumerate(comps):
            if s.left:
                structural.append(RuleInstance(Rule.WEAK_L, {"c": c, "k": 1}))
    if Rule.EW in calc.rules and len(comps) >= 2:
        structural.append(RuleInstance(Rule.EW, {"k": 1}))
    return logical, structural


def prove_bounded(
    calc: CalculusDef, goal: Hypersequent, depth_budget: int
) -> Optional[ProofTree]:
    """Backward proof search; None means the budget was exhausted."""
    for s in goal.components:
        for f in s.left + s.right:
            validate_for_logic(f, calc.logic)
    failed: Dict[Hypersequent, int] = {}

    def search(h, budget, streak, path):
        leaf = _leaf_for(calc, h)
        if leaf is not None:
            return leaf
        if budget <= 0:
            return None
        if failed.get(h, -1) >= budget:
            return None
        logical, structural = _backward_instances(calc, h)
        candidates = [(inst, False) for inst in logical]
        if streak < 2:
            candidates += [(inst, True) for inst in structural]
        below = path | {h}
        for inst, is_structural in candidates:
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
        prev = failed.get(h, -1)
        if budget > prev:
            failed[h] = budget
        return None

    return search(goal, depth_budget, 0, frozenset())


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


def weak_completeness_suite(
    calc: CalculusDef, depth_budget: int = 12, fixtures: Optional[dict] = None
) -> dict:
    """Discharge every applicable R1-R9 goal by fixture or bounded search."""
    if fixtures is None:
        fixtures = load_bundled_fixtures(calc.name)
    results = []
    for axiom, direction, goal in weak_completeness_goals(calc):
        key = f"{axiom}-{direction}"
        status = "failed"
        tree = None
        bundled = fixtures.get(key)
        if bundled is not None and bundled.conclusion == goal:
            check_proof(calc, bundled)
            status, tree = "fixture", bundled
        else:
            tree = prove_bounded(calc, goal, depth_budget)
            if tree is not None:
                check_proof(calc, tree)
                status = "found"
        results.append(
            {"axiom": axiom, "direction": direction, "status": status,
             "depth": _tree_depth(tree) if tree else None}
        )
    return {
        "version": "dlc-report/1",
        "kind": "weak-completeness",
        "calculus": calc.name,
        "goals": results,
        "passed": all(r["status"] in ("fixture", "found") for r in results),
    }


def _tree_depth(tree: ProofTree) -> int:
    if not tree.premises:
        return 1
    return 1 + max(_tree_depth(p) for p in tree.premises)


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


def _seq_to_json(s: Sequent) -> dict:
    return {
        "left": [_node_to_json(f) for f in s.left],
        "right": [_node_to_json(f) for f in s.right],
    }


def _seq_from_json(d: dict) -> Sequent:
    return Sequent(
        [_node_from_json(f) for f in d["left"]],
        [_node_from_json(f) for f in d["right"]],
    )


def _hyper_to_json(h: Hypersequent) -> list:
    return [_seq_to_json(s) for s in h.components]


def _hyper_from_json(items) -> Hypersequent:
    return Hypersequent([_seq_from_json(d) for d in items])


def _tree_to_json(t: ProofTree) -> dict:
    return {
        "conclusion": _hyper_to_json(t.conclusion),
        "rule": {"id": t.rule.rule.value, "params": dict(t.rule.params)},
        "premises": [_tree_to_json(p) for p in t.premises],
    }


def _tree_from_json(d: dict) -> ProofTree:
    params = dict(d["rule"].get("params", {}))
    if not all(type(v) is int for v in params.values()):
        raise ValidationError(f"rule parameters must be integers: {params!r}")
    inst = RuleInstance(Rule(d["rule"]["id"]), params)
    return ProofTree(
        _hyper_from_json(d["conclusion"]),
        inst,
        tuple(_tree_from_json(p) for p in d.get("premises", [])),
    )


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
    try:
        return name, _tree_from_json(doc["tree"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed proof document: {exc!r}") from exc


def load_proof(path):
    with open(path) as fh:
        return proof_from_json(json.load(fh))


def fixtures_dir():
    from importlib.resources import files

    return files("dlc") / "fixtures"


def load_bundled_fixtures(calc_name: str) -> dict:
    """Weak-completeness fixture proofs shipped with the package."""
    out = {}
    root = fixtures_dir()
    if not root.is_dir():
        return out
    prefix = f"weakcomp_{calc_name.replace('-', '_')}_"
    for entry in root.iterdir():
        if entry.name.startswith(prefix) and entry.name.endswith(".json"):
            name, tree = proof_from_json(json.loads(entry.read_text()))
            if name == calc_name:
                key = entry.name[len(prefix) : -len(".json")].replace("_", "-")
                out[key] = tree
    return out

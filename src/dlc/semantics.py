"""The seven logics and the interpretation function over any carrier.

Each logic maps boolean connectives to closed-form arithmetic on its
carrier domain: the four fuzzy logics to [0,1], DL2 to (-inf, 0], the
soft min/max logic to reals, and its limit to extended reals.  Each is
declared once, as a ``LogicDef`` in ``LOGICS``: its clauses, constants,
exact-check carrier, sequent reading and sample domain.  Every other
module reads the entry instead of branching on the logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter, methodcaller
from typing import Callable, Dict, Optional, Sequence

from .carriers import F64Carrier, XReal, XRealCarrier
from .core import (
    And,
    App,
    App2,
    BoolConst,
    Cmp,
    CmpOp,
    Expr,
    Fun2Ref,
    FunRef,
    Impl,
    IndexConst,
    Lookup,
    LogicId,
    LogicKind,
    MAnd,
    MOr,
    Not,
    Or,
    RealConst,
    VecConst,
    validate_for_logic,
)
from .errors import (
    UndefinedConnective,
    UnresolvedFunction,
    ValidationError,
)


@dataclass(frozen=True)
class Env:
    """Named vector functions referenced by formulas.  Each takes its
    arguments, then the carrier evaluation runs over, as its last argument."""

    functions: Dict[str, Callable] = field(default_factory=dict)
    binary_functions: Dict[str, Callable] = field(default_factory=dict)


EMPTY_ENV = Env()


def _stl_conj_c(carrier, nu: float, values):
    """Soft n-ary conjunction over any carrier (three-case formula)."""
    m = values[0]
    for v in values[1:]:
        m = carrier.min2(m, v)
    pmin = carrier.primal(m)
    if pmin == 0.0:
        # +0.0, with the minimum's tangent: the slope there is the minimum's
        return carrier.add(m, carrier.zero)
    return soft_conj_branch(carrier, nu, m, values, pmin < 0.0)


def soft_conj_branch(carrier, nu: float, m, values, below: bool):
    """The soft conjunction's branch for a minimum m below zero (below) or
    above it, unguarded: it takes m as given and never looks at its sign."""
    nu_c = carrier.lift(nu)
    num = None
    den = None
    for v in values:
        dev = carrier.div(carrier.sub(v, m), m)
        if below:
            w = carrier.exp(carrier.mul(nu_c, dev))
            term = carrier.mul(carrier.mul(m, carrier.exp(dev)), w)
        else:
            w = carrier.exp(carrier.neg(carrier.mul(nu_c, dev)))
            term = carrier.mul(v, w)
        num = term if num is None else carrier.add(num, term)
        den = w if den is None else carrier.add(den, w)
    return carrier.div(num, den)


def stl_nary_c(carrier, kind: str, nu: float, values):
    """Soft conjunction/disjunction; disjunction is the negation dual."""
    values = list(values)
    if not values:
        raise ValidationError("soft connectives need at least one argument")
    if nu <= 0:
        raise ValidationError("nu must be positive")
    if kind == "conj":
        return _stl_conj_c(carrier, nu, values)
    if kind == "disj":
        return carrier.neg(
            _stl_conj_c(carrier, nu, [carrier.neg(v) for v in values])
        )
    raise ValidationError(f"unknown soft connective kind {kind!r}")


def stl_nary(kind: str, nu: float, values: Sequence[float]) -> float:
    return stl_nary_c(F64Carrier, kind, nu, [float(v) for v in values])


# ---------------------------------------------------------------------------
# The logics, each declared once.  A clause takes (carrier, logic, *operands).


def _min(c, lg, x, y):
    return c.min2(x, y)


def _max(c, lg, x, y):
    return c.max2(x, y)


def _neg(c, lg, x):
    return c.neg(x)


def _godel_not(c, lg, x):
    return c.one if c.primal(x) == 0.0 else c.zero


def _yager_mand(c, lg, x, y):
    one, r = c.one, lg.r
    s = c.add(c.rpow(c.sub(one, x), r), c.rpow(c.sub(one, y), r))
    return c.max2(c.sub(one, c.rpow(s, 1.0 / r)), c.zero)


def _yager_mor(c, lg, x, y):
    s = c.add(c.rpow(x, lg.r), c.rpow(y, lg.r))
    return c.min2(c.rpow(s, 1.0 / lg.r), c.one)


def _yager_not(c, lg, x):
    one, r = c.one, lg.r
    inner = c.sub(one, c.rpow(c.sub(one, x), r))
    return c.sub(one, c.rpow(inner, 1.0 / r))


def _yager_impl(c, lg, x, y):
    one, r = c.one, lg.r
    if c.primal(x) <= c.primal(y):
        return one
    d = c.sub(c.rpow(c.sub(one, y), r), c.rpow(c.sub(one, x), r))
    return c.sub(one, c.rpow(d, 1.0 / r))


def _left_fold(clause):
    """The n-ary form of a binary clause: its left fold."""

    def fold(c, lg, values):
        acc = values[0]
        for v in values[1:]:
            acc = clause(c, lg, acc, v)
        return acc

    return fold


def _graded_cmp(c, op: CmpOp, r1, r2):
    """The fuzzy logics' comparison clause."""
    p = c.primal
    if p(r1) == -p(r2):  # definitional guard: denominator would vanish
        return c.one
    ratio = c.div(c.sub(r1, r2), c.add(r1, r2))
    if op is CmpOp.EQ:
        return c.max2(c.sub(c.one, c.abs(ratio)), c.zero)
    return c.max2(c.sub(c.one, c.max2(ratio, c.zero)), c.zero)


def _dl2_cmp(c, op: CmpOp, r1, r2):
    if op is CmpOp.EQ:
        return c.neg(c.abs(c.sub(r2, r1)))
    return c.neg(c.max2(c.sub(r1, r2), c.zero))


def _signed_cmp(c, op: CmpOp, r1, r2):
    """STL(ν)'s and STL∞'s comparison clause."""
    if op is CmpOp.EQ:
        return c.neg(c.abs(c.sub(r2, r1)))
    return c.sub(r2, r1)


def _unit_sample(rng):
    u = rng.random()
    if u < 0.05:
        return 0.0
    if u < 0.10:
        return 1.0
    return rng.random()


def _xreal_sample(rng):
    u = rng.random()  # finite bulk plus both infinities
    if u < 0.04:
        return XRealCarrier.plus_inf()
    if u < 0.08:
        return XRealCarrier.minus_inf()
    return XReal(rng.uniform(-10.0, 10.0))


@dataclass(frozen=True)
class SequentReading:
    """A sequent reads as fold(antecedent values) <= fold(succedent values),
    over the values of the logic's exact-check carrier; an empty side takes
    its empty value.  A tolerant reading allows the caller's tolerance."""

    antecedent: Callable
    empty_antecedent: float
    succedent: Callable
    empty_succedent: float
    tolerant: bool = True

    def holds(self, lv, rv, tol: float) -> bool:
        lhs = self.antecedent(lv) if lv else self.empty_antecedent
        rhs = self.succedent(rv) if rv else self.empty_succedent
        return lhs <= rhs + tol if self.tolerant else lhs <= rhs


@dataclass(frozen=True)
class LogicDef:
    """Everything the package knows about one logic.

    ``clauses`` maps each connective the logic defines ("and", "or",
    "mand", "mor", "not", "impl") to its clause; ``nary`` maps each n-ary
    node kind to its n-ary form, the left fold of the binary clause unless
    ``soft`` gives a dedicated one.  ``cmp(c, op, r1, r2)`` is the
    comparison clause.  ``top`` and ``bottom`` take a carrier to the truth
    constant, or are None where the logic has none (``no_constant`` says
    why).  Exact checks evaluate over ``carrier``; ``sequent`` is None for
    a logic without a calculus; ``sample(rng)`` and ``witnesses`` span the
    value domain the law checks draw from; ``param`` names the ``LogicId``
    field that parameterises the logic.
    """

    kind: LogicKind
    clauses: dict
    cmp: Callable
    sample: Callable
    witnesses: tuple
    top: Optional[Callable] = None
    bottom: Optional[Callable] = None
    no_constant: str = ""
    carrier: type = F64Carrier
    sequent: Optional[SequentReading] = None
    soft: dict = field(default_factory=dict)
    param: Optional[str] = None
    trainable: bool = False
    nary: dict = field(init=False)

    def __post_init__(self):
        folds = {k: _left_fold(self.clauses[k])
                 for k in ("and", "or", "mand", "mor") if k in self.clauses}
        object.__setattr__(self, "nary", {**folds, **self.soft})

    def constant(self, value: bool, c):
        make = self.top if value else self.bottom
        if make is None:
            raise UndefinedConnective(self.no_constant)
        return make(c)


def _fuzzy(kind, mand, mor, neg, impl, sequent=None, **more) -> LogicDef:
    """A [0, 1]-valued logic over the lattice min/max."""
    return LogicDef(
        kind,
        {"and": _min, "or": _max, "mand": mand, "mor": mor, "not": neg,
         "impl": impl},
        _graded_cmp, _unit_sample, (0.0, 1 / 3, 0.5, 2 / 3, 1.0),
        top=attrgetter("one"), bottom=attrgetter("zero"), sequent=sequent,
        **more,
    )


def _affine_sum(vs):
    """Łukasiewicz's untruncated monoidal fold: on one formula it agrees
    with the formula semantics, and under it the splitting rule is
    locally sound."""
    return sum(vs) - (len(vs) - 1)


LOGICS: Dict[LogicKind, LogicDef] = {spec.kind: spec for spec in (
    _fuzzy(
        LogicKind.GODEL, _min, _max, _godel_not,
        lambda c, lg, x, y: c.one if c.primal(x) <= c.primal(y) else y,
        SequentReading(min, 1.0, max, 0.0),
    ),
    _fuzzy(
        LogicKind.LUKASIEWICZ,
        lambda c, lg, x, y: c.max2(c.sub(c.add(x, y), c.one), c.zero),
        lambda c, lg, x, y: c.min2(c.add(x, y), c.one),
        lambda c, lg, x: c.sub(c.one, x),
        lambda c, lg, x, y: c.min2(c.add(c.sub(c.one, x), y), c.one),
        SequentReading(_affine_sum, 1.0, _affine_sum, 1.0),
    ),
    _fuzzy(LogicKind.YAGER, _yager_mand, _yager_mor, _yager_not, _yager_impl,
           param="r"),
    _fuzzy(
        LogicKind.PRODUCT,
        lambda c, lg, x, y: c.mul(x, y),
        lambda c, lg, x, y: c.sub(c.add(x, y), c.mul(x, y)),
        _godel_not,
        lambda c, lg, x, y: (
            c.one if c.primal(x) <= c.primal(y) else c.div(y, x)
        ),
        SequentReading(math.prod, 1.0, math.prod, 1.0), trainable=True,
    ),
    LogicDef(
        LogicKind.DL2,
        {"and": _min, "or": _max,
         "mand": lambda c, lg, x, y: c.add(x, y),
         "mor": lambda c, lg, x, y: c.neg(c.mul(x, y)),
         "impl": lambda c, lg, x, y: c.neg(c.max2(c.sub(x, y), c.zero))},
        _dl2_cmp,
        lambda rng: 0.0 if rng.random() < 0.05 else rng.uniform(-10.0, 0.0),
        (0.0, -1 / 3, -0.5, -2 / 3, -1.0),
        top=attrgetter("zero"), no_constant="falsum has no DL2 interpretation",
        sequent=SequentReading(sum, 0.0, sum, 0.0), trainable=True,
    ),
    # the soft forms are n-ary, not folds; the law and shadow-lifting
    # checks read the soft conjunction as the monoidal one too
    LogicDef(
        LogicKind.STL, {"not": _neg}, _signed_cmp,
        lambda rng: rng.uniform(-10.0, 10.0), (-1.0, -1 / 3, 1 / 3, 2 / 3, 1.0),
        no_constant="truth constants undefined for the soft logic",
        soft={
            "and": lambda c, lg, vs: stl_nary_c(c, "conj", lg.nu, vs),
            "or": lambda c, lg, vs: stl_nary_c(c, "disj", lg.nu, vs),
            "mand": lambda c, lg, vs: stl_nary_c(c, "conj", lg.nu, vs),
        },
        param="nu", trainable=True,
    ),
    LogicDef(
        LogicKind.STL_INFTY,
        {"and": _min, "or": _max, "mand": _min, "mor": _max, "not": _neg,
         "impl": lambda c, lg, x, y: (
             c.plus_inf() if c.primal(x) <= c.primal(y) else y
         )},
        _signed_cmp, _xreal_sample,
        tuple(XReal(v) for v in (-1.0, -1 / 3, 0.0, 1 / 3, 1.0))
        + (XRealCarrier.plus_inf(), XRealCarrier.minus_inf()),
        top=methodcaller("plus_inf"), bottom=methodcaller("minus_inf"),
        carrier=XRealCarrier,
        sequent=SequentReading(
            lambda vs: min(v.value for v in vs), math.inf,
            lambda vs: max(v.value for v in vs), -math.inf, tolerant=False,
        ),
    ),
)}


def fold_nary(logic: LogicId, connective: str, values, carrier=F64Carrier):
    """Left fold of the binary clause over a value sequence."""
    clause = LOGICS[logic.kind].clauses.get(connective)
    if clause is None:
        raise UndefinedConnective(f"{connective} undefined for {logic.kind.value}")
    return _left_fold(clause)(carrier, logic, list(values))


def interpret(logic: LogicId, e: Expr, env: Env = EMPTY_ENV, carrier=F64Carrier):
    """Evaluate a validated expression under one logic and carrier.

    ``validate_for_logic`` walks the whole tree only the first time a root
    meets a profile; it relies on nodes not being mutated after
    construction.  Evaluation dispatches on each node's type and applies
    the clauses of the logic's ``LOGICS`` entry.
    """
    validate_for_logic(e, logic)
    return _eval(e, _Run(logic, env, carrier))


class _Run:
    """The state of one ``interpret`` call."""

    __slots__ = ("logic", "env", "c", "spec")

    def __init__(self, logic: LogicId, env: Env, c):
        self.logic = logic
        self.env = env
        self.c = c
        self.spec = LOGICS[logic.kind]


class _Dispatch(dict):
    """Node type -> evaluator; a subclass uses its base's evaluator."""

    def __missing__(self, cls):
        for base in cls.__mro__[1:]:
            if base in self:
                return self[base]
        return _uninterpretable


def _eval(e: Expr, run: _Run):
    return _EVAL[type(e)](e, run)


def _uninterpretable(e, run):
    raise ValidationError(f"uninterpretable node {e!r}")


def _eval_real(e, run):
    return run.c.lift(e.value)


def _eval_vec(e, run):
    lift = run.c.lift
    return tuple(lift(v) for v in e.values)


def _eval_index(e, run):
    return e.i


def _eval_bool(e, run):
    return run.spec.constant(e.value, run.c)


def _eval_lookup(e, run):
    vec = _EVAL[type(e.vec)](e.vec, run)
    idx = _EVAL[type(e.index)](e.index, run)
    return vec[idx]


def _eval_fun(e, run):
    try:
        return run.env.functions[e.name]
    except KeyError:
        raise UnresolvedFunction(e.name) from None


def _eval_fun2(e, run):
    try:
        return run.env.binary_functions[e.name]
    except KeyError:
        raise UnresolvedFunction(e.name) from None


def _eval_app(e, run):
    f = _EVAL[type(e.fun)](e.fun, run)
    arg = _EVAL[type(e.arg)](e.arg, run)
    out = tuple(f(arg, run.c))
    if len(out) != e.fun.tag.n:
        raise ValidationError(
            f"function returned arity {len(out)}, declared {e.fun.tag.n}"
        )
    return out


def _eval_app2(e, run):
    f = _EVAL[type(e.fun)](e.fun, run)
    a1 = _EVAL[type(e.arg1)](e.arg1, run)
    a2 = _EVAL[type(e.arg2)](e.arg2, run)
    out = tuple(f(a1, a2, run.c))
    if len(out) != e.fun.tag.n:
        raise ValidationError(
            f"function returned arity {len(out)}, declared {e.fun.tag.n}"
        )
    return out


def _eval_cmp(e, run):
    r1 = _EVAL[type(e.left)](e.left, run)
    r2 = _EVAL[type(e.right)](e.right, run)
    return run.spec.cmp(run.c, e.op, r1, r2)


def _eval_not(e, run):
    x = _EVAL[type(e.child)](e.child, run)
    clause = run.spec.clauses.get("not")
    if clause is None:
        raise UndefinedConnective(f"negation undefined for {run.logic.kind.value}")
    return clause(run.c, run.logic, x)


def _eval_impl(e, run):
    x = _EVAL[type(e.left)](e.left, run)
    y = _EVAL[type(e.right)](e.right, run)
    clause = run.spec.clauses.get("impl")
    if clause is None:
        raise UndefinedConnective(
            f"implication undefined for {run.logic.kind.value}"
        )
    return clause(run.c, run.logic, x, y)


def _eval_nary(e, run):
    vals = [_EVAL[type(ch)](ch, run) for ch in e.children]
    form = run.spec.nary.get(type(e).KIND)
    if form is None:
        raise UndefinedConnective(
            f"{type(e).KIND} undefined for {run.logic.kind.value}"
        )
    return form(run.c, run.logic, vals)


_EVAL = _Dispatch({
    RealConst: _eval_real,
    VecConst: _eval_vec,
    IndexConst: _eval_index,
    BoolConst: _eval_bool,
    Lookup: _eval_lookup,
    FunRef: _eval_fun,
    Fun2Ref: _eval_fun2,
    App: _eval_app,
    App2: _eval_app2,
    Cmp: _eval_cmp,
    Not: _eval_not,
    Impl: _eval_impl,
    **dict.fromkeys((And, Or, MAnd, MOr), _eval_nary),
})

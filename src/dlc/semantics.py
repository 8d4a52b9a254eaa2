"""The interpretation function: one generic interpreter over any carrier.

Each logic maps boolean connectives to closed-form arithmetic on its
carrier domain: the four fuzzy logics to [0,1], DL2 to (-inf, 0], the
soft min/max logic to reals, and its limit to extended reals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence

from .carriers import F64Carrier
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
    """Named vector functions referenced by formulas."""

    functions: Dict[str, Callable] = field(default_factory=dict)
    binary_functions: Dict[str, Callable] = field(default_factory=dict)


EMPTY_ENV = Env()


def _stl_conj_c(carrier, nu: float, values):
    """Soft n-ary conjunction over any carrier (three-case formula)."""
    p = carrier.primal
    m = values[0]
    for v in values[1:]:
        m = carrier.min2(m, v)
    pmin = p(m)
    nu_c = carrier.lift(nu)
    if pmin == 0.0:
        # +0.0, with the minimum's tangent: the slope there is the minimum's
        return carrier.add(m, carrier.zero)
    num = None
    den = None
    for v in values:
        dev = carrier.div(carrier.sub(v, m), m)
        if pmin < 0.0:
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
# Binary clauses per logic, expressed over a carrier


def _godel_not(c, x):
    return c.one if c.primal(x) == 0.0 else c.zero


def _binary_ops(logic: LogicId, c):
    """Return dict of binary clause implementations for one logic."""
    kind = logic.kind
    one, zero = c.one, c.zero

    if kind is LogicKind.GODEL:
        return {
            "and": c.min2,
            "or": c.max2,
            "mand": c.min2,
            "mor": c.max2,
            "not": lambda x: _godel_not(c, x),
            "impl": lambda x, y: one if c.primal(x) <= c.primal(y) else y,
        }
    if kind is LogicKind.LUKASIEWICZ:
        return {
            "and": c.min2,
            "or": c.max2,
            "mand": lambda x, y: c.max2(c.sub(c.add(x, y), one), zero),
            "mor": lambda x, y: c.min2(c.add(x, y), one),
            "not": lambda x: c.sub(one, x),
            "impl": lambda x, y: c.min2(c.add(c.sub(one, x), y), one),
        }
    if kind is LogicKind.YAGER:
        r = logic.r

        def y_mand(x, y):
            s = c.add(c.rpow(c.sub(one, x), r), c.rpow(c.sub(one, y), r))
            return c.max2(c.sub(one, c.rpow(s, 1.0 / r)), zero)

        def y_mor(x, y):
            s = c.add(c.rpow(x, r), c.rpow(y, r))
            return c.min2(c.rpow(s, 1.0 / r), one)

        def y_not(x):
            inner = c.sub(one, c.rpow(c.sub(one, x), r))
            return c.sub(one, c.rpow(inner, 1.0 / r))

        def y_impl(x, y):
            if c.primal(x) <= c.primal(y):
                return one
            d = c.sub(c.rpow(c.sub(one, y), r), c.rpow(c.sub(one, x), r))
            return c.sub(one, c.rpow(d, 1.0 / r))

        return {
            "and": c.min2,
            "or": c.max2,
            "mand": y_mand,
            "mor": y_mor,
            "not": y_not,
            "impl": y_impl,
        }
    if kind is LogicKind.PRODUCT:
        return {
            "and": c.min2,
            "or": c.max2,
            "mand": c.mul,
            "mor": lambda x, y: c.sub(c.add(x, y), c.mul(x, y)),
            "not": lambda x: _godel_not(c, x),
            "impl": lambda x, y: one if c.primal(x) <= c.primal(y) else c.div(y, x),
        }
    if kind is LogicKind.DL2:
        return {
            "and": c.min2,
            "or": c.max2,
            "mand": c.add,
            "mor": lambda x, y: c.neg(c.mul(x, y)),
            "impl": lambda x, y: c.neg(c.max2(c.sub(x, y), zero)),
        }
    if kind is LogicKind.STL_INFTY:
        return {
            "and": c.min2,
            "or": c.max2,
            "mand": c.min2,
            "mor": c.max2,
            "not": c.neg,
            "impl": lambda x, y: (
                c.plus_inf() if c.primal(x) <= c.primal(y) else y
            ),
        }
    if kind is LogicKind.STL:
        return {"not": c.neg}  # everything else has dedicated n-ary forms
    raise ValidationError(f"no clause table for {kind}")


def fold_nary(logic: LogicId, connective: str, values, carrier=F64Carrier):
    """Left fold of the binary clause over a value sequence."""
    if logic.kind is LogicKind.STL and connective in ("and", "or"):
        raise UndefinedConnective("soft logic folds use the dedicated n-ary forms")
    return _fold(_binary_ops(logic, carrier), logic, connective, values)


def _fold(ops: dict, logic: LogicId, connective: str, values):
    if connective not in ops:
        raise UndefinedConnective(f"{connective} undefined for {logic.kind.value}")
    op = ops[connective]
    values = list(values)
    acc = values[0]
    for v in values[1:]:
        acc = op(acc, v)
    return acc


def _cmp_value(logic: LogicId, op: CmpOp, r1, r2, c):
    p = c.primal
    if logic.is_fuzzy:
        if p(r1) == -p(r2):  # definitional guard: denominator would vanish
            return c.one
        ratio = c.div(c.sub(r1, r2), c.add(r1, r2))
        if op is CmpOp.EQ:
            return c.max2(c.sub(c.one, c.abs(ratio)), c.zero)
        return c.max2(c.sub(c.one, c.max2(ratio, c.zero)), c.zero)
    if logic.kind is LogicKind.DL2:
        if op is CmpOp.EQ:
            return c.neg(c.abs(c.sub(r2, r1)))
        return c.neg(c.max2(c.sub(r1, r2), c.zero))
    # soft min/max logic and its limit share the comparison clauses
    if op is CmpOp.EQ:
        return c.neg(c.abs(c.sub(r2, r1)))
    return c.sub(r2, r1)


def _bool_const_value(logic: LogicId, value: bool, c):
    if logic.is_fuzzy:
        return c.one if value else c.zero
    if logic.kind is LogicKind.DL2:
        if value:
            return c.zero
        raise UndefinedConnective("falsum has no DL2 interpretation")
    if logic.kind is LogicKind.STL_INFTY:
        return c.plus_inf() if value else c.minus_inf()
    raise UndefinedConnective("truth constants undefined for the soft logic")


def interpret(logic: LogicId, e: Expr, env: Env = EMPTY_ENV, carrier=F64Carrier):
    """Evaluate a validated expression under one logic and carrier.

    ``validate_for_logic`` walks the whole tree only the first time a root
    meets a profile; it relies on nodes not being mutated after
    construction.  Evaluation dispatches on each node's type, and the
    logic's op table is built at most once per call, by the first
    negation, implication or n-ary node that needs it.
    """
    validate_for_logic(e, logic)
    return _eval(e, _Run(logic, env, carrier))


class _Run:
    """The state of one ``interpret`` call."""

    __slots__ = ("logic", "env", "c", "_ops")

    def __init__(self, logic: LogicId, env: Env, c):
        self.logic = logic
        self.env = env
        self.c = c
        self._ops = None

    def ops(self) -> dict:
        if self._ops is None:
            self._ops = _binary_ops(self.logic, self.c)
        return self._ops


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
    return _bool_const_value(run.logic, e.value, run.c)


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
    out = tuple(f(arg, run.c) if _wants_carrier(f) else f(arg))
    if len(out) != e.fun.tag.n:
        raise ValidationError(
            f"function returned arity {len(out)}, declared {e.fun.tag.n}"
        )
    return out


def _eval_app2(e, run):
    f = _EVAL[type(e.fun)](e.fun, run)
    a1 = _EVAL[type(e.arg1)](e.arg1, run)
    a2 = _EVAL[type(e.arg2)](e.arg2, run)
    out = tuple(f(a1, a2, run.c) if _wants_carrier(f) else f(a1, a2))
    if len(out) != e.fun.tag.n:
        raise ValidationError(
            f"function returned arity {len(out)}, declared {e.fun.tag.n}"
        )
    return out


def _eval_cmp(e, run):
    r1 = _EVAL[type(e.left)](e.left, run)
    r2 = _EVAL[type(e.right)](e.right, run)
    return _cmp_value(run.logic, e.op, r1, r2, run.c)


def _eval_not(e, run):
    x = _EVAL[type(e.child)](e.child, run)
    ops = run.ops()
    if "not" not in ops:
        raise UndefinedConnective(f"negation undefined for {run.logic.kind.value}")
    return ops["not"](x)


def _eval_impl(e, run):
    x = _EVAL[type(e.left)](e.left, run)
    y = _EVAL[type(e.right)](e.right, run)
    ops = run.ops()
    if "impl" not in ops:
        raise UndefinedConnective(
            f"implication undefined for {run.logic.kind.value}"
        )
    return ops["impl"](x, y)


def _eval_nary(e, run):
    vals = [_EVAL[type(ch)](ch, run) for ch in e.children]
    conn = type(e).KIND
    logic = run.logic
    if logic.kind is LogicKind.STL:
        kind = "conj" if conn == "and" else "disj"
        return stl_nary_c(run.c, kind, logic.nu, vals)
    return _fold(run.ops(), logic, conn, vals)


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


def _wants_carrier(f) -> bool:
    return getattr(f, "carrier_aware", False)


def carrier_aware(f):
    """Mark an Env function as taking the active carrier as last argument."""
    f.carrier_aware = True
    return f

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
        return carrier.zero
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
    ops = _binary_ops(logic, carrier)
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
    """Evaluate a validated expression under one logic and carrier."""
    validate_for_logic(e, logic)
    return _eval(logic, e, env, carrier)


def _eval(logic: LogicId, e: Expr, env: Env, c):
    if isinstance(e, RealConst):
        return c.lift(e.value)
    if isinstance(e, VecConst):
        return tuple(c.lift(v) for v in e.values)
    if isinstance(e, IndexConst):
        return e.i
    if isinstance(e, BoolConst):
        return _bool_const_value(logic, e.value, c)
    if isinstance(e, Lookup):
        vec = _eval(logic, e.vec, env, c)
        idx = _eval(logic, e.index, env, c)
        return vec[idx]
    if isinstance(e, FunRef):
        try:
            return env.functions[e.name]
        except KeyError:
            raise UnresolvedFunction(e.name) from None
    if isinstance(e, Fun2Ref):
        try:
            return env.binary_functions[e.name]
        except KeyError:
            raise UnresolvedFunction(e.name) from None
    if isinstance(e, App):
        f = _eval(logic, e.fun, env, c)
        arg = _eval(logic, e.arg, env, c)
        out = tuple(f(arg, c) if _wants_carrier(f) else f(arg))
        if len(out) != e.fun.tag.n:
            raise ValidationError(
                f"function returned arity {len(out)}, declared {e.fun.tag.n}"
            )
        return out
    if isinstance(e, App2):
        f = _eval(logic, e.fun, env, c)
        a1 = _eval(logic, e.arg1, env, c)
        a2 = _eval(logic, e.arg2, env, c)
        out = tuple(f(a1, a2, c) if _wants_carrier(f) else f(a1, a2))
        if len(out) != e.fun.tag.n:
            raise ValidationError(
                f"function returned arity {len(out)}, declared {e.fun.tag.n}"
            )
        return out
    if isinstance(e, Cmp):
        r1 = _eval(logic, e.left, env, c)
        r2 = _eval(logic, e.right, env, c)
        return _cmp_value(logic, e.op, r1, r2, c)
    if isinstance(e, Not):
        x = _eval(logic, e.child, env, c)
        ops = _binary_ops(logic, c)
        if "not" not in ops:
            raise UndefinedConnective(f"negation undefined for {logic.kind.value}")
        return ops["not"](x)
    if isinstance(e, Impl):
        x = _eval(logic, e.left, env, c)
        y = _eval(logic, e.right, env, c)
        ops = _binary_ops(logic, c)
        if "impl" not in ops:
            raise UndefinedConnective(f"implication undefined for {logic.kind.value}")
        return ops["impl"](x, y)
    if isinstance(e, (And, Or, MAnd, MOr)):
        vals = [_eval(logic, ch, env, c) for ch in e.children]
        conn = {And: "and", Or: "or", MAnd: "mand", MOr: "mor"}[type(e)]
        if logic.kind is LogicKind.STL:
            kind = "conj" if conn == "and" else "disj"
            return stl_nary_c(c, kind, logic.nu, vals)
        return fold_nary(logic, conn, vals, carrier=c)
    raise ValidationError(f"uninterpretable node {e!r}")


def _wants_carrier(f) -> bool:
    return getattr(f, "carrier_aware", False)


def carrier_aware(f):
    """Mark an Env function as taking the active carrier as last argument."""
    f.carrier_aware = True
    return f

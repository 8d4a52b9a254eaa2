"""Scalar carriers the generic interpreter runs over.

Three carriers: plain floats, extended reals with ±∞ (for the min/max
limit logic), and dual numbers for forward-mode differentiation.  Each
carrier exposes the same operation suite so the interpreter stays
generic.

A dual number's tangent is a float or a ``Tangents`` vector holding one
partial per seeded coordinate, so a whole gradient takes one pass.  The
dual operations are written once for both: every tangent expression has
the form ``scalar * tangent``, ``tangent ± tangent``, ``tangent /
scalar``, or the min, max or abs of tangents entry by entry, and every
branch looks at primals only.  So each coordinate of a vector tangent
goes through the float operations, in the order, that a scalar tangent
seeded at that coordinate would.  A lifted constant keeps
the scalar tangent ``0.0``, which ``Tangents`` broadcasts.  Each dual
primal is computed by the float expression ``F64Carrier`` uses, so a dual
pass also yields the float value bit for bit.

``affine(bias, row, xs)`` is one neuron's pre-activation: the left fold
``acc = add(acc, mul(lift(w), x))`` from ``acc = lift(bias)``.  The dual
carrier fuses that fold into one list per multiply-add, with the same
float operations per coordinate, and skips the additions of an exact
zero: the entry updates of a unit seed's zero entries and of a scalar
tangent whose term is ±0.0, and a dense entry's ``+ 0.0 * primal``.  That
is exact because no accumulator entry is ever -0.0, and adding ±0.0 to
any other float returns it bit for bit; where a weight or primal is not
finite, a zero entry's term may be NaN, so the dense update runs.  The
extended-real carrier runs the fold as one float loop with the checks of
``lift``, ``mul`` and ``add`` in their order.

``Dual`` and ``XReal`` are slotted frozen dataclasses, compared and hashed
by the generated methods.  Their constructors write the slots through the
slot descriptors' setters (bound below each class), which skips the frozen
check as ``object.__setattr__`` would, for less; a pickle or copy rebuilds
through the constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul, sub, truediv

from .errors import CarrierError, DomainError

INF = math.inf


def _float_rpow(x: float, a: float) -> float:
    if x < 0:
        raise DomainError(f"rpow base {x} is negative")
    if x == 0.0:
        return 1.0 if a == 0.0 else 0.0
    return x ** a


@dataclass(frozen=True)
class XReal:
    """Extended real; value may be ±inf but never NaN."""

    __slots__ = ("value",)
    value: float

    def __init__(self, value: float):
        if math.isnan(value):
            raise CarrierError("NaN has no extended-real reading")
        _set_value(self, value)

    def __reduce__(self):
        return XReal, (self.value,)

    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def __repr__(self):
        return f"XReal({self.value})"


_set_value = XReal.__dict__["value"].__set__


XR_PLUS_INF = XReal(INF)
XR_MINUS_INF = XReal(-INF)


def _xr(v: float) -> XReal:
    if math.isnan(v):
        raise CarrierError("indeterminate extended-real form")
    return XReal(v)


class Tangents:
    """A tangent vector: one partial derivative per seeded coordinate.

    ``+``, ``-``, ``*`` and ``/`` act elementwise on two vectors of the
    same length and broadcast a float operand on either side, and ``abs``
    acts elementwise; each entry is computed as the same float expression
    a scalar tangent would be.
    """

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = tuple(v)

    @staticmethod
    def unit(j: int, n: int) -> "Tangents":
        """The j-th of the n unit vectors: a seed for coordinate j."""
        return _Unit(j, n)

    def __repr__(self):
        return f"Tangents({self.v})"

    def __eq__(self, other):
        return isinstance(other, Tangents) and self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __add__(self, o):
        if isinstance(o, Tangents):
            return Tangents(map(add, self.v, o.v))
        return Tangents([t + o for t in self.v])

    def __radd__(self, o):
        return Tangents([o + t for t in self.v])

    def __sub__(self, o):
        if isinstance(o, Tangents):
            return Tangents(map(sub, self.v, o.v))
        return Tangents([t - o for t in self.v])

    def __rsub__(self, o):
        return Tangents([o - t for t in self.v])

    def __mul__(self, o):
        if isinstance(o, Tangents):
            return Tangents(map(mul, self.v, o.v))
        return Tangents([t * o for t in self.v])

    def __rmul__(self, o):
        return Tangents([o * t for t in self.v])

    def __truediv__(self, o):
        if isinstance(o, Tangents):
            return Tangents(map(truediv, self.v, o.v))
        return Tangents([t / o for t in self.v])

    def __rtruediv__(self, o):
        return Tangents([o / t for t in self.v])

    def __neg__(self):
        return Tangents([-t for t in self.v])

    def __abs__(self):
        return Tangents([abs(t) for t in self.v])


class _Unit(Tangents):
    """A unit vector that knows its one nonzero coordinate ``j``; equal,
    hashing and computing as the ``Tangents`` of the same entries."""

    __slots__ = ("j",)

    def __init__(self, j: int, n: int):
        self.v = tuple(1.0 if k == j else 0.0 for k in range(n))
        self.j = j


@dataclass(frozen=True)
class Dual:
    """First-order dual number ⟨primal, tangent⟩; the tangent is a float
    or a ``Tangents`` vector."""

    __slots__ = ("primal", "tangent")
    primal: float
    tangent: float

    def __init__(self, primal: float, tangent):
        _set_primal(self, primal)
        _set_tangent(self, tangent)

    def __reduce__(self):
        return Dual, (self.primal, self.tangent)

    def __repr__(self):
        return f"⟨{self.primal}, {self.tangent}⟩"

    @staticmethod
    def _coerce(x) -> "Dual":
        return x if isinstance(x, Dual) else Dual(float(x), 0.0)

    def __add__(self, other):
        return DualCarrier.add(self, Dual._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return DualCarrier.sub(self, Dual._coerce(other))

    def __rsub__(self, other):
        return DualCarrier.sub(Dual._coerce(other), self)

    def __mul__(self, other):
        return DualCarrier.mul(self, Dual._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return DualCarrier.div(self, Dual._coerce(other))

    def __rtruediv__(self, other):
        return DualCarrier.div(Dual._coerce(other), self)

    def __neg__(self):
        return DualCarrier.neg(self)

    def __abs__(self):
        return DualCarrier.abs(self)


_set_primal = Dual.__dict__["primal"].__set__
_set_tangent = Dual.__dict__["tangent"].__set__


def _elementwise(f, a, b):
    """f on two tangents, entry by entry; a float is broadcast."""
    if isinstance(a, Tangents):
        if isinstance(b, Tangents):
            return Tangents(map(f, a.v, b.v))
        return Tangents([f(t, b) for t in a.v])
    if isinstance(b, Tangents):
        return Tangents([f(a, t) for t in b.v])
    return f(a, b)


class F64Carrier:
    """Plain float arithmetic."""

    name = "f64"

    @staticmethod
    def lift(r: float) -> float:
        return float(r)

    @staticmethod
    def primal(x: float) -> float:
        return x

    zero = 0.0
    one = 1.0

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def abs(a):
        return abs(a)

    @staticmethod
    def exp(a):
        return math.exp(a)

    @staticmethod
    def rpow(x, a: float):
        return _float_rpow(x, a)

    @staticmethod
    def min2(a, b):
        return a if a <= b else b

    @staticmethod
    def max2(a, b):
        return a if a >= b else b

    @staticmethod
    def affine(bias, row, xs):
        acc = float(bias)
        for w, x in zip(row, xs):
            acc = acc + float(w) * x
        return acc

    @classmethod
    def plus_inf(cls):
        raise CarrierError(f"carrier {cls.name} lacks +inf")

    @classmethod
    def minus_inf(cls):
        raise CarrierError(f"carrier {cls.name} lacks -inf")


class XRealCarrier:
    """Extended reals; indeterminate forms raise instead of yielding NaN."""

    name = "xreal"

    @staticmethod
    def lift(r: float) -> XReal:
        return XReal(float(r))

    @staticmethod
    def primal(x: XReal) -> float:
        return x.value

    zero = XReal(0.0)
    one = XReal(1.0)

    @staticmethod
    def add(a: XReal, b: XReal) -> XReal:
        return _xr(a.value + b.value)

    @staticmethod
    def sub(a: XReal, b: XReal) -> XReal:
        return _xr(a.value - b.value)

    @staticmethod
    def mul(a: XReal, b: XReal) -> XReal:
        if (a.value == 0.0 and not b.is_finite()) or (
            b.value == 0.0 and not a.is_finite()
        ):
            raise CarrierError("indeterminate form 0 * inf")
        return _xr(a.value * b.value)

    @staticmethod
    def div(a: XReal, b: XReal) -> XReal:
        if not a.is_finite() and not b.is_finite():
            raise CarrierError("indeterminate form inf / inf")
        if b.value == 0.0:
            raise CarrierError("extended-real division by zero")
        return _xr(a.value / b.value)

    @staticmethod
    def neg(a: XReal) -> XReal:
        return XReal(-a.value)

    @staticmethod
    def abs(a: XReal) -> XReal:
        return XReal(abs(a.value))

    @staticmethod
    def exp(a: XReal) -> XReal:
        try:
            return XReal(math.exp(a.value))
        except OverflowError:
            return XR_PLUS_INF

    @staticmethod
    def rpow(x: XReal, a: float) -> XReal:
        if not x.is_finite():
            if x.value < 0:
                raise DomainError("rpow base is negative")
            return XR_PLUS_INF if a > 0 else XReal(1.0)
        return XReal(_float_rpow(x.value, a))

    @staticmethod
    def min2(a: XReal, b: XReal) -> XReal:
        return a if a.value <= b.value else b

    @staticmethod
    def max2(a: XReal, b: XReal) -> XReal:
        return a if a.value >= b.value else b

    @staticmethod
    def affine(bias, row, xs) -> XReal:
        # the checks of lift, mul and add, in their order: w * x is NaN
        # exactly at 0 * inf, since neither factor is NaN
        acc = float(bias)
        if acc != acc:
            raise CarrierError("NaN has no extended-real reading")
        for w, x in zip(row, xs):
            w = float(w)
            if w != w:
                raise CarrierError("NaN has no extended-real reading")
            m = w * x.value
            if m != m:
                raise CarrierError("indeterminate form 0 * inf")
            acc = acc + m
            if acc != acc:
                raise CarrierError("indeterminate extended-real form")
        return XReal(acc)

    @staticmethod
    def plus_inf() -> XReal:
        return XR_PLUS_INF

    @staticmethod
    def minus_inf() -> XReal:
        return XR_MINUS_INF


class DualCarrier:
    """Forward-mode dual numbers.

    At a kink (``min2``/``max2`` of tied primals, ``abs`` at zero) each
    tangent coordinate is the directional derivative along the seeded
    coordinate's positive direction: the min, max or abs of the tangents
    entry by entry (lexicographic differentiation, Nesterov, Math.
    Program. 2005).  Wherever the one-sided derivatives agree, that is the
    partial derivative.
    """

    name = "dual"

    @staticmethod
    def lift(r: float) -> Dual:
        return Dual(float(r), 0.0)

    @staticmethod
    def primal(x: Dual) -> float:
        return x.primal

    zero = Dual(0.0, 0.0)
    one = Dual(1.0, 0.0)

    @staticmethod
    def add(a: Dual, b: Dual) -> Dual:
        return Dual(a.primal + b.primal, a.tangent + b.tangent)

    @staticmethod
    def sub(a: Dual, b: Dual) -> Dual:
        return Dual(a.primal - b.primal, a.tangent - b.tangent)

    @staticmethod
    def mul(a: Dual, b: Dual) -> Dual:
        return Dual(a.primal * b.primal, a.primal * b.tangent + a.tangent * b.primal)

    @staticmethod
    def div(a: Dual, b: Dual) -> Dual:
        return Dual(
            a.primal / b.primal,
            (a.tangent * b.primal - a.primal * b.tangent) / (b.primal * b.primal),
        )

    @staticmethod
    def neg(a: Dual) -> Dual:
        return Dual(-a.primal, -a.tangent)

    @staticmethod
    def abs(a: Dual) -> Dual:
        p = a.primal
        if p == 0.0:
            return Dual(abs(p), abs(a.tangent))
        return Dual(abs(p), (-1.0 if p < 0 else 1.0) * a.tangent)

    @staticmethod
    def exp(a: Dual) -> Dual:
        v = math.exp(a.primal)
        return Dual(v, a.tangent * v)

    @staticmethod
    def rpow(x: Dual, a: float) -> Dual:
        v = _float_rpow(x.primal, a)
        if x.primal == 0.0:
            slope = x.tangent if a == 1.0 else 0.0
        else:
            slope = a * (x.primal ** (a - 1.0)) * x.tangent
        return Dual(v, slope)

    @staticmethod
    def min2(a: Dual, b: Dual) -> Dual:
        ap, bp = a.primal, b.primal
        if ap == bp:
            return Dual(ap, _elementwise(min, a.tangent, b.tangent))
        return a if ap <= bp else b

    @staticmethod
    def max2(a: Dual, b: Dual) -> Dual:
        ap, bp = a.primal, b.primal
        if ap == bp:
            return Dual(ap, _elementwise(max, a.tangent, b.tangent))
        return a if ap >= bp else b

    @staticmethod
    def affine(bias, row, xs) -> Dual:
        """The fold ``acc = add(acc, mul(lift(w), x))`` from ``lift(bias)``.

        ``mul(lift(w), x)`` has tangent ``w * t + 0.0 * x.primal``, and
        ``add`` sums it into the accumulator's; a scalar tangent is
        broadcast on either side, as ``Tangents`` does.  Entry updates
        that add an exact zero are skipped: no accumulator entry is ever
        -0.0 (it starts at 0.0, and a sum is -0.0 only when both addends
        are), and adding ±0.0 to any other float, ±inf and NaN included,
        returns it unchanged.  So a unit seed ``Tangents.unit(j, n)``
        updates entry j only, and a scalar tangent whose term is ±0.0
        (a dead ReLU unit, a lifted constant) updates none.  The seed's
        other terms are ``w * 0.0 + 0.0 * x.primal``, zero only when the
        weight and the primal are finite; otherwise the dense update runs.
        The dense update drops ``z = 0.0 * x.primal`` from each entry's
        term ``w * b + z`` when z is ±0.0, as it is at a finite primal:
        that changes the term only from -0.0 to 0.0, and the entry it is
        added to is not -0.0, so the sum is the same.
        """
        p = float(bias)
        t = 0.0  # the accumulator's tangent: a float or a list
        for w, x in zip(row, xs):
            w = float(w)
            xp = x.primal
            xt = x.tangent
            z = 0.0 * xp
            p = p + w * xp
            if isinstance(xt, Tangents):
                if type(t) is not list:
                    t = [t] * len(xt.v)
                if type(xt) is _Unit and z == 0.0 and -INF < w < INF:
                    j = xt.j
                    t[j] = t[j] + (w * 1.0 + z)
                elif z == 0.0:
                    t = [a + w * b for a, b in zip(t, xt.v)]
                else:
                    t = [a + (w * b + z) for a, b in zip(t, xt.v)]
            elif type(t) is list:
                d = w * xt + z
                if d != 0.0:
                    t = [a + d for a in t]
            else:
                t = t + (w * xt + z)
        return Dual(p, Tangents(t) if type(t) is list else t)

    @classmethod
    def plus_inf(cls):
        raise CarrierError(f"carrier {cls.name} lacks +inf")

    @classmethod
    def minus_inf(cls):
        raise CarrierError(f"carrier {cls.name} lacks -inf")

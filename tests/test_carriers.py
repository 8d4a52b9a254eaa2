"""Carrier arithmetic: floats, extended reals, and dual numbers."""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from dlc.carriers import (
    Dual,
    DualCarrier,
    F64Carrier,
    Tangents,
    XReal,
    XRealCarrier,
)
from dlc.errors import CarrierError

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
small = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


class TestXReal:
    def test_never_nan(self):
        with pytest.raises(Exception):
            XReal(float("nan"))

    def test_infinity_identities(self):
        inf = XRealCarrier.plus_inf()
        ninf = XRealCarrier.minus_inf()
        x = XReal(3.0)
        assert XRealCarrier.add(inf, x).value == math.inf
        assert XRealCarrier.add(ninf, x).value == -math.inf
        assert XRealCarrier.min2(inf, x) == x
        assert XRealCarrier.max2(ninf, x) == x
        assert XRealCarrier.neg(inf).value == -math.inf

    def test_indeterminate_forms_raise(self):
        inf = XRealCarrier.plus_inf()
        ninf = XRealCarrier.minus_inf()
        with pytest.raises(CarrierError):
            XRealCarrier.add(inf, ninf)
        with pytest.raises(CarrierError):
            XRealCarrier.mul(inf, XReal(0.0))
        with pytest.raises(CarrierError):
            XRealCarrier.div(XReal(1.0), XReal(0.0))

    @given(a=finite, b=finite)
    def test_finite_arithmetic_matches_floats(self, a, b):
        xa, xb = XReal(a), XReal(b)
        assert XRealCarrier.add(xa, xb).value == a + b
        assert XRealCarrier.sub(xa, xb).value == a - b
        assert XRealCarrier.mul(xa, xb).value == pytest.approx(a * b)
        assert XRealCarrier.min2(xa, xb).value == min(a, b)
        assert XRealCarrier.max2(xa, xb).value == max(a, b)


class TestRpow:
    def test_zero_conventions(self):
        for c in (F64Carrier, XRealCarrier):
            zero = c.lift(0.0)
            assert c.primal(c.rpow(zero, 2.0)) == 0.0
            assert c.primal(c.rpow(zero, 0.0)) == 1.0

    @given(x=st.floats(0.01, 10), a=st.floats(-3, 3))
    def test_matches_pow_on_positive_base(self, x, a):
        assert F64Carrier.rpow(x, a) == pytest.approx(x**a)


class TestDual:
    @given(a=small, b=small, ta=small, tb=small)
    def test_ring_operations(self, a, b, ta, tb):
        x, y = Dual(a, ta), Dual(b, tb)
        s = DualCarrier.add(x, y)
        assert (s.primal, s.tangent) == (a + b, ta + tb)
        p = DualCarrier.mul(x, y)
        assert p.primal == pytest.approx(a * b)
        assert p.tangent == pytest.approx(a * tb + b * ta)

    @given(a=st.floats(-3, 3, allow_nan=False))
    def test_exp_derivative(self, a):
        out = DualCarrier.exp(Dual(a, 1.0))
        assert out.tangent == pytest.approx(math.exp(a))

    @given(a=st.floats(0.1, 5), e=st.floats(-2, 2))
    def test_derivative_matches_finite_difference(self, a, e):
        def f(c, x):
            return c.mul(c.exp(c.neg(x)), c.add(x, c.lift(e)))

        dual = f(DualCarrier, Dual(a, 1.0)).tangent
        h = 1e-6
        fd = (f(F64Carrier, a + h) - f(F64Carrier, a - h)) / (2 * h)
        assert dual == pytest.approx(fd, abs=1e-4)

    def test_min_max_left_tie_breaking(self):
        # a primal tie takes the smaller or larger tangent: the derivative
        # along the seeded coordinate's positive direction
        a = Dual(1.0, 5.0)
        b = Dual(1.0, -5.0)
        assert DualCarrier.min2(a, b).tangent == -5.0
        assert DualCarrier.max2(a, b).tangent == 5.0

    def test_kinks_take_tangents_entry_by_entry(self):
        a = Dual(1.0, Tangents((1.0, -2.0)))
        b = Dual(1.0, 0.0)  # a scalar tangent is broadcast
        assert DualCarrier.min2(a, b).tangent == Tangents((0.0, -2.0))
        assert DualCarrier.max2(b, a).tangent == Tangents((1.0, 0.0))
        assert abs(Dual(-0.0, Tangents((1.0, -2.0)))).tangent == Tangents((1.0, 2.0))
        assert DualCarrier.abs(Dual(0.0, -1.0)).tangent == 1.0
        # off the kink, and at NaN, the rules are the plain ones
        assert DualCarrier.min2(Dual(1.0, 5.0), Dual(2.0, -5.0)).tangent == 5.0
        assert DualCarrier.abs(Dual(-1.0, 3.0)).tangent == -3.0
        nan = Dual(math.nan, 1.0)
        assert DualCarrier.max2(nan, Dual(0.0, 2.0)).tangent == 2.0
        assert DualCarrier.abs(nan).tangent == 1.0

    def test_abs_right_derivative_at_zero(self):
        assert DualCarrier.abs(Dual(0.0, 1.0)).tangent == 1.0

    @given(a=st.floats(-5, 5, allow_nan=False))
    def test_abs_derivative_off_zero(self, a):
        if a == 0:
            return
        out = DualCarrier.abs(Dual(a, 1.0))
        assert out.tangent == (1.0 if a > 0 else -1.0)


# ---------------------------------------------------------------------------
# Vector tangents: each coordinate is computed as a scalar tangent would be

vectors = st.lists(small, min_size=3, max_size=3).map(Tangents)
# divisors whose square stays a normal float
divisors = small.filter(lambda b: abs(b) > 1e-3)


def _scalar_tangent(t, j: int) -> float:
    return t.v[j] if isinstance(t, Tangents) else t


def _assert_coordinatewise(op, *args):
    """op over vector-tangent duals equals op over their j-th scalar duals,
    bit for bit (float.hex tells 0.0 from -0.0)."""
    out = op(*args)
    for j in range(3):
        ref = op(*(Dual(a.primal, _scalar_tangent(a.tangent, j)) for a in args))
        assert out.primal.hex() == ref.primal.hex()
        assert _scalar_tangent(out.tangent, j).hex() == ref.tangent.hex()


C = DualCarrier
BINARY = {
    "add": C.add, "sub": C.sub, "mul": C.mul, "div": C.div,
    "min2": C.min2, "max2": C.max2,
    "dual+": lambda x, y: x + y, "dual-": lambda x, y: x - y,
    "dual*": lambda x, y: x * y, "dual/": lambda x, y: x / y,
}
UNARY = {
    "neg": C.neg, "abs": C.abs, "exp": C.exp, "dual-neg": lambda x: -x,
    "dual-abs": abs,
}


class TestValueContract:
    """Duals and extended reals are plain frozen values: slotted, compared
    and hashed by their fields, and rebuilt by a pickle or copy."""

    @staticmethod
    def build():
        return [Dual(1.5, Tangents((1.0, -0.0))), Dual(-2.0, 0.5), XReal(-math.inf)]

    FIELDS = {Dual: ("primal", "tangent"), XReal: ("value",)}

    def test_immutable(self):
        for x in self.build():
            for attr in self.FIELDS[type(x)]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(x, attr, 0.0)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(x, attr)
            with pytest.raises(AttributeError):
                x.other = 1
            assert not hasattr(x, "__dict__")

    def test_equal_and_hash_by_fields(self):
        for x, y in zip(self.build(), self.build()):
            assert x is not y and x == y and hash(x) == hash(y)
        d, e, xr = self.build()
        assert d != Dual(1.5, Tangents((1.0, 0.5))) and d != e
        assert xr != XReal(math.inf) and xr != Dual(-math.inf, 0.0)
        assert Dual(1.0, 0.0) == Dual(1.0, -0.0)  # fields compare as floats

    def test_reprs(self):
        d, e, xr = self.build()
        assert repr(d) == "⟨1.5, Tangents((1.0, -0.0))⟩"
        assert repr(e) == "⟨-2.0, 0.5⟩"
        assert repr(xr) == "XReal(-inf)"

    @pytest.mark.parametrize("trip", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trip(self, trip):
        for x in self.build():
            back = trip(x)
            assert type(back) is type(x) and back == x and hash(back) == hash(x)
            assert repr(back) == repr(x)

    def test_nan_has_no_extended_real_reading(self):
        with pytest.raises(CarrierError,
                           match=r"^NaN has no extended-real reading$"):
            XReal(math.nan)


class TestTangents:
    @pytest.mark.parametrize("name", sorted(BINARY))
    @given(a=divisors, b=divisors, ta=vectors, tb=vectors)
    def test_binary_ops_coordinatewise(self, name, a, b, ta, tb):
        op = BINARY[name]
        _assert_coordinatewise(op, Dual(a, ta), Dual(b, tb))
        # a lifted constant's scalar 0.0 tangent, on the right and the left
        _assert_coordinatewise(op, Dual(a, ta), C.lift(b))
        _assert_coordinatewise(op, C.lift(b), Dual(a, ta))

    @pytest.mark.parametrize("name", sorted(UNARY))
    @given(a=small, ta=vectors)
    def test_unary_ops_coordinatewise(self, name, a, ta):
        _assert_coordinatewise(UNARY[name], Dual(a, ta))

    @given(a=st.just(0.0) | st.floats(1e-3, 5), e=st.floats(-2, 2), ta=vectors)
    def test_rpow_coordinatewise(self, a, e, ta):
        _assert_coordinatewise(lambda x: C.rpow(x, e), Dual(a, ta))

    @given(a=divisors, b=divisors, ta=vectors)
    def test_dual_float_operands_coordinatewise(self, a, b, ta):
        for op in (lambda x: x + b, lambda x: b + x, lambda x: x - b,
                   lambda x: b - x, lambda x: x * b, lambda x: b * x,
                   lambda x: x / b, lambda x: b / x):
            _assert_coordinatewise(op, Dual(a, ta))

    @pytest.mark.parametrize("e", [1.0, 2.0, 0.5, 0.0])
    def test_rpow_at_zero(self, e):
        t = Tangents((1.0, -2.0, 0.0))
        out = C.rpow(Dual(0.0, t), e)
        _assert_coordinatewise(lambda x: C.rpow(x, e), Dual(0.0, t))
        # slope 1 passes the tangent through; any other exponent gives 0
        assert out.tangent == (t if e == 1.0 else 0.0)

    @given(c=small, t=vectors, u=vectors)
    def test_broadcast_on_either_side(self, c, t, u):
        cases = [
            (t + c, [x + c for x in t.v]), (c + t, [c + x for x in t.v]),
            (t - c, [x - c for x in t.v]), (c - t, [c - x for x in t.v]),
            (t * c, [x * c for x in t.v]), (c * t, [c * x for x in t.v]),
            (-t, [-x for x in t.v]),
            (t + u, [x + y for x, y in zip(t.v, u.v)]),
            (t - u, [x - y for x, y in zip(t.v, u.v)]),
            (t * u, [x * y for x, y in zip(t.v, u.v)]),
        ]
        if c != 0.0:
            cases.append((t / c, [x / c for x in t.v]))
        if 0.0 not in t.v:
            cases.append((c / t, [c / x for x in t.v]))
        if 0.0 not in u.v:
            cases.append((t / u, [x / y for x, y in zip(t.v, u.v)]))
        for got, want in cases:
            assert isinstance(got, Tangents)
            assert [x.hex() for x in got.v] == [x.hex() for x in want]

    def test_unit_seeds(self):
        e1, plain = Tangents.unit(1, 3), Tangents((0.0, 1.0, 0.0))
        assert e1 == plain and plain == e1 and hash(e1) == hash(plain)
        assert e1.v == plain.v and repr(e1) == repr(plain)
        assert Tangents.unit(0, 1).v == (1.0,)
        for got in (e1 + plain, 2.0 * e1, -e1, abs(e1), e1 / 2.0):
            assert type(got) is Tangents


# ---------------------------------------------------------------------------
# affine: one neuron's pre-activation, equal to the explicit fold


def _fold(c, bias, row, xs):
    """The left fold of add and mul that affine stands for."""
    acc = c.lift(bias)
    for w, x in zip(row, xs):
        acc = c.add(acc, c.mul(c.lift(w), x))
    return acc


def _hexes(t):
    return [x.hex() for x in t.v] if isinstance(t, Tangents) else t.hex()


signed_zeros = st.sampled_from([0.0, -0.0])
infinities = st.sampled_from([math.inf, -math.inf])
entries = small | signed_zeros
# the neurons' inputs mix unit seeds, dense vectors and scalar tangents;
# primals and weights take signed zeros, negatives and infinities
N = 3
seeds = st.integers(0, N - 1).map(lambda j: Tangents.unit(j, N))
dense = st.lists(entries | infinities, min_size=N, max_size=N).map(Tangents)
tangents = seeds | dense | entries
primals = entries | infinities
weights = entries | infinities | st.just(math.nan)
duals = st.builds(Dual, primals, tangents)


def _outcome(affine, bias, row, xs):
    """What a neuron gives, down to the bit: its primal and tangent kind
    and entries, or its exception type and message."""
    try:
        out = affine(bias, row, xs)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, XReal):
        return out.value.hex()
    return out.primal.hex(), type(out.tangent), _hexes(out.tangent)


class TestAffine:
    def _assert_dual_fold(self, bias, row, xs):
        assert _outcome(C.affine, bias, row, xs) == _outcome(
            lambda *a: _fold(C, *a), bias, row, xs)

    @given(bias=primals, row=st.lists(weights, min_size=1, max_size=6),
           xs=st.lists(duals, min_size=6, max_size=6))
    def test_dual_equals_fold(self, bias, row, xs):
        self._assert_dual_fold(bias, row, xs)

    def test_dual_cases(self):
        t = Tangents((1.0, -0.0, 0.5))
        u = Tangents((-0.0, 0.0, -2.0))
        e0, e1, e2 = (Tangents.unit(j, 3) for j in range(3))
        relu_zero = C.max2(Dual(-0.5, t), C.zero)  # scalar 0.0 tangent
        cases = [
            (0.1, [2.0, -1.5], [Dual(1.5, t), Dual(-0.25, u)]),  # vectors
            (0.0, [2.0, -3.0], [Dual(1.0, 0.0), Dual(-2.0, -0.0)]),  # scalars
            (-0.1, [0.5, -0.7, 1.25], [relu_zero, Dual(2.0, u), relu_zero]),
            (0.0, [-1.0, 2.0], [Dual(3.0, t), relu_zero]),
            # 0.0 * primal is -0.0 at a negative primal, and the bias's 0.0
            # tangent turns a -0.0 sum into 0.0
            (0.0, [2.0], [Dual(-1.0, u)]),
            (0.0, [-2.0], [Dual(0.0, u)]),
            (0.0, [-2.0], [Dual(-0.0, -0.0)]),
            # an overflowed primal makes 0.0 * primal NaN
            (0.0, [1.0, 2.0], [Dual(1.0, t), Dual(math.inf, u)]),
            (0.0, [1.0, 2.0], [Dual(1.0, t), Dual(-math.inf, 1.0)]),
            # unit seeds: a first layer, then a scalar accumulator widened
            (0.1, [2.0, -0.0, -1.5], [Dual(1.5, e0), Dual(-2.0, e1),
                                      Dual(0.0, e2)]),
            (0.0, [-1.0, 2.0], [relu_zero, Dual(-0.0, e1)]),
            (0.0, [1.0, -3.0], [Dual(2.0, e0), Dual(2.0, e0)]),
            # ... whose zero entries turn NaN at an infinite weight or primal
            (0.0, [2.0, math.inf], [Dual(1.0, e0), Dual(1.0, e1)]),
            (0.0, [2.0, -1.0], [Dual(1.0, e0), Dual(-math.inf, e2)]),
            (0.0, [-math.inf, 1.0], [Dual(0.0, e2), Dual(1.0, e0)]),
            # a scalar term of ±0.0 leaves NaN and infinite entries as they are
            (0.0, [1.0, 0.0, -0.0], [Dual(math.inf, u), Dual(1.0, 5.0),
                                     Dual(2.0, 0.0)]),
            # a dense accumulator whose first entry is 0.0, and a dense input
            # whose w * b is -0.0 there; 0.0 * primal is 0.0, then -0.0
            (0.0, [1.0, 2.0], [Dual(1.0, u), Dual(3.0, u)]),
            (0.0, [1.0, 2.0], [Dual(1.0, u), Dual(-3.0, u)]),
        ]
        for bias, row, xs in cases:
            self._assert_dual_fold(bias, row, xs)

    @given(bias=entries, row=st.lists(entries, min_size=1, max_size=6),
           xs=st.lists(finite | signed_zeros, min_size=6, max_size=6))
    def test_f64_equals_fold(self, bias, row, xs):
        got = F64Carrier.affine(bias, row, xs)
        assert got.hex() == _fold(F64Carrier, bias, row, xs).hex()

    @given(bias=primals | st.just(math.nan),
           row=st.lists(weights, min_size=1, max_size=4),
           xs=st.lists(primals.map(XReal), min_size=4, max_size=4))
    def test_xreal_equals_fold(self, bias, row, xs):
        assert _outcome(XRealCarrier.affine, bias, row, xs) == _outcome(
            lambda *a: _fold(XRealCarrier, *a), bias, row, xs)

    def test_xreal_zero_times_infinity_raises(self):
        with pytest.raises(CarrierError, match=r"^indeterminate form 0 \* inf$"):
            XRealCarrier.affine(1.0, [2.0, 0.0], [XReal(1.0), XReal(math.inf)])
        with pytest.raises(CarrierError,
                           match="^indeterminate extended-real form$"):
            XRealCarrier.affine(0.0, [1.0, 1.0],  # inf - inf
                                [XReal(math.inf), XReal(-math.inf)])
        with pytest.raises(CarrierError, match="^NaN has no extended-real"):
            XRealCarrier.affine(0.0, [1.0, math.nan], [XReal(1.0), XReal(0.0)])

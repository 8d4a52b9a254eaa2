"""Derivatives, shadow-lifting, and convergence schedules."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from dlc.analysis import (
    PartialSpec,
    convergence_stl_min,
    convergence_yager_godel,
    err_vec,
    partial,
    shadow_lifting_mand,
    stl_lt0_branch_derivative,
)
from dlc.core import DL2, GODEL, LUKASIEWICZ, PRODUCT, STL_INFTY, stl, yager
from dlc.errors import IndexOutOfRange, ValidationError


class TestPartial:
    def test_err_vec(self):
        assert err_vec(3, 1) == (0.0, 1.0, 0.0)
        with pytest.raises(IndexOutOfRange):
            err_vec(3, 3)

    @given(
        a=st.floats(-2, 2, allow_nan=False),
        b=st.floats(-2, 2, allow_nan=False),
    )
    def test_dual_matches_central_difference(self, a, b):
        f = lambda xs: xs[0] * xs[0] + xs[0] * xs[1]
        point = (a, b)
        dual = partial(PartialSpec(f, point, 0, "dual"))
        central = partial(PartialSpec(f, point, 0, "central"))
        assert dual == pytest.approx(central, abs=1e-4)
        assert dual == pytest.approx(2 * a + b, abs=1e-9)

    def test_one_sided_methods_bracket_a_kink(self):
        f = lambda xs: abs(xs[0])
        above = partial(PartialSpec(f, (0.0,), 0, "forward"))
        below = partial(PartialSpec(f, (0.0,), 0, "backward"))
        assert above == pytest.approx(1.0, abs=1e-6)
        assert below == pytest.approx(-1.0, abs=1e-6)


class TestShadowLifting:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_dl2_partial_is_one(self, n):
        rep = shadow_lifting_mand(DL2, n, [0.5, 1.0])
        assert rep.holds
        for e in rep.estimates:
            assert e["estimate"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_product_partial_is_power(self, n, p):
        rep = shadow_lifting_mand(PRODUCT, n, [p])
        for e in rep.estimates:
            assert e["estimate"] == pytest.approx(p ** (n - 1), abs=1e-5)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_stl_below_zero_branch_derivative(self, n):
        assert stl_lt0_branch_derivative(n, 0.7, 5.0) == pytest.approx(
            1.0 / n, abs=1e-4
        )

    # (n, p, nu, the derivative's float.hex), as computed on a hand copy
    # of the branch before the derivative read the soft conjunction's own
    @pytest.mark.parametrize("n, p, nu, want", [
        (2, 0.3, 0.5, "0x1.fffffffc6eac0p-2"),
        (3, 1.0, 4.0, "0x1.55551d68b7760p-2"),
        (5, 9.5, 20.0, "0x1.9999846888fffp-3"),
        (8, 0.01, 1.0, "0x1.ff3b1511caca8p-4"),
        (2, 0.8, 4.0, "0x1.fffffffe56f40p-2"),
        (3, 0.7, 5.0, "0x1.55550571a2680p-2"),
    ])  # fmt: skip
    def test_stl_below_zero_branch_derivative_bits(self, n, p, nu, want):
        assert stl_lt0_branch_derivative(n, p, nu).hex() == want

    @pytest.mark.parametrize(
        "logic",
        [GODEL, LUKASIEWICZ, yager(2.0), STL_INFTY],
        ids=lambda lg: lg.kind.value,
    )
    def test_min_style_conjunctions_fail_with_witness(self, logic):
        rep = shadow_lifting_mand(logic, 3, [0.25, 0.5])
        assert not rep.holds
        assert rep.witness is not None


class TestConvergence:
    def test_soft_conjunction_approaches_min_positive(self):
        rep = convergence_stl_min([0.4, 0.9, 1.5], [1, 3, 10, 30, 100], 1e-3)
        assert rep.passed
        gaps = [e["gap"] for e in rep.entries]
        assert gaps[-1] < 1e-3

    def test_soft_conjunction_approaches_min_negative(self):
        rep = convergence_stl_min([-0.4, -0.9, -1.5], [1, 3, 10, 30, 100], 1e-3)
        assert rep.passed

    def test_schedule_must_increase(self):
        with pytest.raises(ValidationError):
            convergence_stl_min([1.0], [3, 1], 1e-3)

    def test_yager_approaches_goedel(self):
        rng = random.Random(3)
        pairs = [(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
                 for _ in range(20)]
        rep = convergence_yager_godel(pairs, [1, 2, 4, 8, 16, 32], 1e-2)
        assert rep.passed

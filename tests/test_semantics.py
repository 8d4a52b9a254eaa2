"""Value-level interpretation oracles for all seven logics."""

import math
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from dlc.carriers import (
    Dual,
    DualCarrier,
    F64Carrier,
    Tangents,
    XReal,
    XRealCarrier,
)
from dlc.core import (
    ALL_FUZZY,
    DL2,
    DL2_FLAGS,
    FUZZY_FLAGS,
    GODEL,
    LUKASIEWICZ,
    PRODUCT,
    REAL,
    STL_FLAGS,
    STL_INFTY,
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
    MAnd,
    MOr,
    Not,
    Or,
    RealConst,
    VecConst,
    random_formula,
    stl,
    walk,
    yager,
)
from dlc.errors import UndefinedConnective, UnresolvedFunction, ValidationError
from dlc.semantics import (
    EMPTY_ENV,
    LOGICS,
    Env,
    _eval,
    _Run,
    fold_nary,
    interpret,
    soft_conj_branch,
    stl_nary,
)

unit = st.floats(0, 1, allow_nan=False)


def _binary_ops(logic, c):
    """The logic's connective clauses over carrier c, as value functions."""
    return {k: partial(f, c, logic) for k, f in LOGICS[logic.kind].clauses.items()}


def cmp_eq(logic, a, b):
    e = Cmp(CmpOp.EQ, RealConst(a), RealConst(b), logic.flag_profile)
    return interpret(logic, e)


def cmp_le(logic, a, b):
    e = Cmp(CmpOp.LE, RealConst(a), RealConst(b), logic.flag_profile)
    return interpret(logic, e)


class TestComparisons:
    def test_fuzzy_equality_golden_two_thirds(self):
        # |(1-2)/(1+2)| = 1/3, so the graded equality is 2/3
        for logic in ALL_FUZZY:
            assert cmp_eq(logic, 1.0, 2.0) == pytest.approx(2 / 3, abs=1e-12)

    def test_fuzzy_opposite_values_guard(self):
        for logic in ALL_FUZZY:
            assert cmp_eq(logic, -1.5, 1.5) == 1.0

    def test_fuzzy_le(self):
        for logic in ALL_FUZZY:
            assert cmp_le(logic, 1.0, 2.0) == 1.0
            assert cmp_le(logic, 2.0, 1.0) == pytest.approx(1 - 1 / 3)

    def test_dl2_comparisons(self):
        assert cmp_eq(DL2, 1.0, 2.0) == -1.0
        assert cmp_le(DL2, 1.0, 2.0) == 0.0
        assert cmp_le(DL2, 2.0, 0.5) == -1.5

    def test_stl_comparisons(self):
        for logic in (stl(1.0), STL_INFTY):
            assert F64Carrier.primal(cmp_eq(logic, 1.0, 2.0)) == -1.0 or (
                XRealCarrier.primal(cmp_eq(logic, 1.0, 2.0)) == -1.0
            )
        assert cmp_le(stl(1.0), 1.0, 2.0) == 1.0
        assert cmp_le(stl(1.0), 2.0, 1.0) == -1.0


class TestFuzzyClauses:
    @given(a=unit, b=unit)
    def test_goedel(self, a, b):
        ops = _binary_ops(GODEL, F64Carrier)
        assert ops["mand"](a, b) == min(a, b)
        assert ops["mor"](a, b) == max(a, b)
        assert ops["impl"](a, b) == (1.0 if a <= b else b)
        assert ops["not"](a) == (1.0 if a == 0 else 0.0)

    @given(a=unit, b=unit)
    def test_lukasiewicz(self, a, b):
        ops = _binary_ops(LUKASIEWICZ, F64Carrier)
        assert ops["mand"](a, b) == pytest.approx(max(a + b - 1, 0.0))
        assert ops["mor"](a, b) == pytest.approx(min(a + b, 1.0))
        assert ops["impl"](a, b) == pytest.approx(min(1 - a + b, 1.0))
        assert ops["not"](a) == pytest.approx(1 - a)

    @given(a=unit, b=unit)
    def test_product(self, a, b):
        ops = _binary_ops(PRODUCT, F64Carrier)
        assert ops["mand"](a, b) == pytest.approx(a * b)
        assert ops["mor"](a, b) == pytest.approx(a + b - a * b)
        expected = 1.0 if a <= b else b / a
        assert ops["impl"](a, b) == pytest.approx(expected)

    @given(a=unit, b=unit, r=st.floats(1, 8))
    def test_yager(self, a, b, r):
        ops = _binary_ops(yager(r), F64Carrier)
        mand = max(1 - ((1 - a) ** r + (1 - b) ** r) ** (1 / r), 0.0)
        mor = min((a**r + b**r) ** (1 / r), 1.0)
        assert ops["mand"](a, b) == pytest.approx(mand, abs=1e-12)
        assert ops["mor"](a, b) == pytest.approx(mor, abs=1e-12)
        neg = 1 - (1 - (1 - a) ** r) ** (1 / r)
        assert ops["not"](a) == pytest.approx(neg, abs=1e-12)

    def test_dl2_clauses(self):
        ops = _binary_ops(DL2, F64Carrier)
        assert ops["mand"](-1.0, -2.0) == -3.0
        assert ops["mor"](-1.0, -2.0) == -2.0
        assert ops["impl"](-1.0, -2.0) == -1.0  # -max(p0 - p1, 0)
        assert ops["impl"](-3.0, -2.0) == 0.0
        assert "not" not in ops


class TestStlInfty:
    def test_clauses_on_extended_reals(self):
        ops = _binary_ops(STL_INFTY, XRealCarrier)
        a, b = XReal(2.0), XReal(-1.0)
        assert ops["mand"](a, b) == b
        assert ops["mor"](a, b) == a
        assert ops["not"](a).value == -2.0
        assert ops["impl"](b, a).value == math.inf  # premise below conclusion
        assert ops["impl"](a, b) == b

    def test_constants(self):
        top = BoolConst(True, STL_INFTY.flag_profile)
        bot = BoolConst(False, STL_INFTY.flag_profile)
        assert interpret(STL_INFTY, top, carrier=XRealCarrier).value == math.inf
        assert interpret(STL_INFTY, bot, carrier=XRealCarrier).value == -math.inf


class TestSoftConnectives:
    @given(
        vals=st.lists(st.floats(0.05, 5), min_size=1, max_size=6),
        nu=st.floats(0.5, 20),
    )
    def test_conjunction_bounded_by_min_and_max(self, vals, nu):
        out = stl_nary("conj", nu, vals)
        assert min(vals) - 1e-9 <= out <= max(vals) + 1e-9

    @given(v=st.floats(-5, 5, allow_nan=False), nu=st.floats(0.5, 20))
    def test_conjunction_idempotent_on_constants(self, v, nu):
        if v == 0:
            assert stl_nary("conj", nu, [v, v, v]) == 0.0
        else:
            assert stl_nary("conj", nu, [v, v, v]) == pytest.approx(v)

    @given(
        v=st.floats(-5, -1e-3), n=st.integers(1, 8), nu=st.floats(0.5, 20)
    )
    def test_conjunction_below_zero_is_the_branch(self, v, n, nu):
        vals = [v] * n
        want = soft_conj_branch(F64Carrier, nu, v, vals, below=True)
        assert stl_nary("conj", nu, vals).hex() == want.hex()

    @given(
        vals=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=5),
        nu=st.floats(0.5, 10),
    )
    def test_disjunction_is_negation_dual(self, vals, nu):
        lhs = stl_nary("disj", nu, vals)
        rhs = -stl_nary("conj", nu, [-v for v in vals])
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_nu_must_be_positive(self):
        with pytest.raises(ValidationError):
            stl_nary("conj", 0.0, [1.0])

    def test_stl_formula_connectives_limited(self):
        prof = stl(1.0).flag_profile
        x = Cmp(CmpOp.LE, RealConst(1.0), RealConst(2.0), prof)
        assert interpret(stl(1.0), Not(x)) == pytest.approx(-1.0)


class TestFoldNary:
    def test_multi_argument_folds(self):
        assert fold_nary(GODEL, "mand", [0.3, 0.8, 0.5]) == 0.3
        assert fold_nary(LUKASIEWICZ, "mand", [0.9, 0.8, 0.7]) == pytest.approx(0.4)
        assert fold_nary(PRODUCT, "mand", [0.5, 0.5, 0.5]) == pytest.approx(0.125)
        assert fold_nary(DL2, "mand", [-1.0, -2.0, -3.0]) == -6.0

    def test_determinism(self):
        e = MAnd(
            (
                Cmp(CmpOp.LE, RealConst(1.0), RealConst(2.0), GODEL.flag_profile),
                Cmp(CmpOp.EQ, RealConst(1.0), RealConst(2.0), GODEL.flag_profile),
            )
        )
        assert interpret(GODEL, e) == interpret(GODEL, e)


def test_dl2_negation_is_undefined_at_value_level():
    ops = _binary_ops(DL2, F64Carrier)
    assert "not" not in ops


# ---------------------------------------------------------------------------
# The type-dispatched evaluator equals the recursive isinstance chain it
# replaced, bit for bit, down to every carrier call


def _reference_eval(logic, e, env, c):
    """The recursive evaluator ``interpret`` used before type dispatch,
    reading the logic's ``LOGICS`` entry."""
    spec = LOGICS[logic.kind]
    if isinstance(e, RealConst):
        return c.lift(e.value)
    if isinstance(e, VecConst):
        return tuple(c.lift(v) for v in e.values)
    if isinstance(e, IndexConst):
        return e.i
    if isinstance(e, BoolConst):
        return spec.constant(e.value, c)
    if isinstance(e, Lookup):
        vec = _reference_eval(logic, e.vec, env, c)
        idx = _reference_eval(logic, e.index, env, c)
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
        f = _reference_eval(logic, e.fun, env, c)
        arg = _reference_eval(logic, e.arg, env, c)
        out = tuple(f(arg, c))
        if len(out) != e.fun.tag.n:
            raise ValidationError(
                f"function returned arity {len(out)}, declared {e.fun.tag.n}"
            )
        return out
    if isinstance(e, App2):
        f = _reference_eval(logic, e.fun, env, c)
        a1 = _reference_eval(logic, e.arg1, env, c)
        a2 = _reference_eval(logic, e.arg2, env, c)
        out = tuple(f(a1, a2, c))
        if len(out) != e.fun.tag.n:
            raise ValidationError(
                f"function returned arity {len(out)}, declared {e.fun.tag.n}"
            )
        return out
    if isinstance(e, Cmp):
        r1 = _reference_eval(logic, e.left, env, c)
        r2 = _reference_eval(logic, e.right, env, c)
        return spec.cmp(c, e.op, r1, r2)
    if isinstance(e, Not):
        x = _reference_eval(logic, e.child, env, c)
        if "not" not in spec.clauses:
            raise UndefinedConnective(f"negation undefined for {logic.kind.value}")
        return spec.clauses["not"](c, logic, x)
    if isinstance(e, Impl):
        x = _reference_eval(logic, e.left, env, c)
        y = _reference_eval(logic, e.right, env, c)
        if "impl" not in spec.clauses:
            raise UndefinedConnective(f"implication undefined for {logic.kind.value}")
        return spec.clauses["impl"](c, logic, x, y)
    if isinstance(e, (And, Or, MAnd, MOr)):
        vals = [_reference_eval(logic, ch, env, c) for ch in e.children]
        conn = {And: "and", Or: "or", MAnd: "mand", MOr: "mor"}[type(e)]
        if conn not in spec.nary:
            raise UndefinedConnective(f"{conn} undefined for {logic.kind.value}")
        return spec.nary[conn](c, logic, vals)
    raise ValidationError(f"uninterpretable node {e!r}")


class _Recording:
    """A carrier that logs each method call with its operands."""

    def __init__(self, carrier, log):
        self.carrier, self.log = carrier, log
        self.one, self.zero = carrier.one, carrier.zero

    def __getattr__(self, name):
        method = getattr(self.carrier, name)

        def call(*args):
            self.log.append((name, repr(args)))
            return method(*args)

        return call


def _with_inputs(e):
    """e with its i-th real literal read as coordinate i of input ``in``,
    and the literals in order."""
    literals = [node.value for node in walk(e) if isinstance(node, RealConst)]
    n = max(len(literals), 1)
    slot = App(FunRef("in", 1, n), VecConst((0.0,)))
    at = iter(range(n))

    def rebuild(node):
        if isinstance(node, RealConst):
            return Lookup(slot, IndexConst(next(at), n))
        if isinstance(node, Cmp):
            return Cmp(node.op, rebuild(node.left), rebuild(node.right),
                       node.tag.flags)
        if isinstance(node, Not):
            return Not(rebuild(node.child))
        if isinstance(node, Impl):
            return Impl(rebuild(node.left), rebuild(node.right))
        if isinstance(node, (And, Or, MAnd, MOr)):
            return type(node)([rebuild(ch) for ch in node.children])
        return node

    return rebuild(e), literals or [0.0]


def _input_env(literals, carrier):
    """``in`` yields the literals; over duals coordinate j carries the j-th
    unit tangent."""

    def read(_arg, c):
        if carrier is DualCarrier:
            n = len(literals)
            return tuple(Dual(v, Tangents.unit(j, n))
                         for j, v in enumerate(literals))
        return tuple(c.lift(v) for v in literals)

    return Env(functions={"in": read})


def _fingerprint(v):
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, XReal):
        return ("xreal", v.value.hex())
    t = v.tangent
    tangent = [x.hex() for x in t.v] if isinstance(t, Tangents) else t.hex()
    return ("dual", v.primal.hex(), tangent)


def _outcome(evaluate):
    log = []
    try:
        return _fingerprint(evaluate(log)), log
    except Exception as exc:  # the same error must come from both sides
        return (type(exc), str(exc)), log


SEVEN_LOGICS = [GODEL, LUKASIEWICZ, yager(2.0), PRODUCT, DL2, stl(1.0),
                STL_INFTY]
CARRIERS = [F64Carrier, XRealCarrier, DualCarrier]
PROFILES = [FUZZY_FLAGS, DL2_FLAGS, STL_FLAGS]


# one example makes 42 recorded evaluations; a deep formula takes longer
# than Hypothesis's default 200 ms deadline on a loaded host
@settings(deadline=None)
@given(profile=st.sampled_from(PROFILES), depth=st.integers(0, 4),
       seed=st.integers(0, 10_000), over_inputs=st.booleans())
def test_dispatch_matches_the_recursive_evaluator(profile, depth, seed,
                                                  over_inputs):
    """Every logic meets every profile, so undefined connectives and
    constants (falsum under DL2, implication under STL) raise on both
    sides; validation is skipped to reach them."""
    e = random_formula(profile, depth, random.Random(seed))
    literals = [0.0]
    if over_inputs:  # literals read from an input, so dual tangents move
        e, literals = _with_inputs(e)
    for carrier in CARRIERS:
        env = _input_env(literals, carrier)
        for logic in SEVEN_LOGICS:
            new = _outcome(lambda log: _eval(
                e, _Run(logic, env, _Recording(carrier, log))))
            old = _outcome(lambda log: _reference_eval(
                logic, e, env, _Recording(carrier, log)))
            assert new == old
            if profile == logic.flag_profile:
                assert _outcome(lambda log: interpret(
                    logic, e, env, carrier))[0] == old[0]


def test_unknown_node_is_uninterpretable():
    class Odd(RealConst):
        pass

    class Stray(Expr):
        pass

    assert interpret(GODEL, Odd(0.5)) == 0.5  # a subclass keeps its base's rule
    with pytest.raises(ValidationError, match="uninterpretable node"):
        _eval(Stray(REAL), _Run(GODEL, EMPTY_ENV, F64Carrier))

"""Surface language: parsing, pretty-printing, elaboration, evaluation."""

import json

import pytest
from hypothesis import given, strategies as st

from dlc.carriers import XRealCarrier
from dlc.core import DL2, GODEL, STL_INFTY, Impl, stl
from dlc.errors import (
    ArityMismatch,
    DuplicateDeclaration,
    FlagViolation,
    ParseError,
    RejectedLogic,
    UndeclaredIdentifier,
    ValidationError,
)
from dlc.speclang import (
    FBin,
    FCmp,
    FImpl,
    FNot,
    RIndex,
    RName,
    RNorm,
    RNum,
    VCall,
    VName,
    base_env,
    bindings_from_csv,
    bindings_from_json,
    elaborate,
    eval_loss,
    extend_env,
    network_from_json,
    parse_formula,
    parse_spec,
    pretty_formula,
    pretty_spec,
    train_demo,
)

ROBUSTNESS = """\
vector v 2
vector x 2
scalar eps
scalar delta
network N 2 2
goal |sub(x,v)|_inf <= eps => |sub(N(x),N(v))|_inf <= delta
"""

IDENTITY_NET = {
    "version": "dlc-net/1",
    "layers": [
        {
            "weights": [[1.0, 0.0], [0.0, 1.0]],
            "bias": [0.0, 0.0],
            "activation": "identity",
        }
    ],
}

INPUTS = {"v": (0.0, 0.0), "x": (0.1, 0.0), "eps": (0.2,), "delta": (0.05,)}


@pytest.fixture()
def doc():
    return parse_spec(ROBUSTNESS)


@pytest.fixture()
def env():
    net = network_from_json(IDENTITY_NET)
    return extend_env(base_env(), functions={"N": net.as_env_function()})


class TestParser:
    def test_robustness_template_shape(self, doc):
        assert isinstance(doc.goal, FImpl)
        lhs = doc.goal.left
        assert isinstance(lhs, FCmp) and lhs.op == "le"
        assert isinstance(lhs.left, RNorm)
        assert lhs.left.arg == VCall("sub", (VName("x"), VName("v")))

    def test_precedence_and_associativity(self):
        f = parse_formula("1 <= 2 => 2 <= 3 => 3 <= 4")
        assert isinstance(f, FImpl) and isinstance(f.right, FImpl)
        g = parse_formula("~1 <= 2 /\\ 2 <= 3")
        assert isinstance(g, FBin) and isinstance(g.left, FNot)

    def test_all_connective_tokens(self):
        f = parse_formula("1 <= 2 (*) 2 <= 3 (+) 3 == 4 \\/ 4 <= 5")
        ops = []
        node = f
        while isinstance(node, FBin):
            ops.append(node.op)
            node = node.left
        assert ops == ["or", "mor", "mand"]

    def test_vector_index_and_scalar(self):
        f = parse_formula("x[1] <= eps")
        assert f.left == RIndex("x", 1) and f.right == RName("eps")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_formula("(1 <= 2")

    def test_position_in_errors(self):
        try:
            parse_formula("1 <= ?")
        except ParseError as exc:
            assert exc.col is not None
        else:
            pytest.fail("no ParseError")

    def test_duplicate_declaration(self):
        with pytest.raises(DuplicateDeclaration):
            parse_spec("vector v 2\nscalar v\ngoal v[0] <= 1")

    def test_undeclared_identifier(self):
        with pytest.raises(UndeclaredIdentifier):
            parse_spec("vector v 2\ngoal |M(v)|_inf <= 1")

    def test_missing_goal(self):
        with pytest.raises(ParseError):
            parse_spec("vector v 2\n")

    def test_index_out_of_range(self):
        with pytest.raises(ArityMismatch):
            parse_spec("vector v 2\ngoal v[5] <= 1")


def surface_formulas():
    real = st.one_of(
        st.builds(RNum, st.floats(0, 9, allow_nan=False).map(lambda v: round(v, 3))),
        st.just(RName("eps")),
        st.builds(RIndex, st.just("v"), st.integers(0, 1)),
        st.just(RNorm(VCall("sub", (VName("x"), VName("v"))))),
        st.just(RNorm(VCall("N", (VName("x"),)))),
    )
    cmp = st.builds(FCmp, st.sampled_from(["le", "eq"]), real, real)
    return st.recursive(
        cmp,
        lambda sub: st.one_of(
            st.builds(FNot, sub),
            st.builds(FImpl, sub, sub),
            st.builds(
                FBin, st.sampled_from(["and", "or", "mand", "mor"]), sub, sub
            ),
        ),
        max_leaves=12,
    )


@given(f=surface_formulas())
def test_pretty_parse_round_trip(f):
    assert parse_formula(pretty_formula(f)) == f


def test_pretty_spec_round_trip(doc):
    assert parse_spec(pretty_spec(doc)) == doc


class TestElaboration:
    def test_dl2_and_stl_infty_accept(self, doc):
        for logic in (DL2, STL_INFTY):
            expr = elaborate(doc, logic)
            assert isinstance(expr, Impl)

    def test_stl_rejects_implication(self, doc):
        with pytest.raises(FlagViolation):
            elaborate(doc, stl(1.0))

    def test_dl2_rejects_negation(self):
        neg_doc = parse_spec("vector v 1\ngoal ~ v[0] <= 1")
        with pytest.raises(FlagViolation):
            elaborate(neg_doc, DL2)
        elaborate(neg_doc, GODEL)  # fine where negation exists

    def test_env_must_contain_networks(self, doc):
        with pytest.raises(UndeclaredIdentifier):
            elaborate(doc, DL2, base_env())


class TestNetworks:
    def test_identity_forward(self):
        net = network_from_json(IDENTITY_NET)
        assert net.forward((3.0, -4.0)) == (3.0, -4.0)

    def test_affine_difference(self):
        net = network_from_json(
            {
                "version": "dlc-net/1",
                "layers": [
                    {"weights": [[1.0, -1.0]], "bias": [0.0],
                     "activation": "identity"}
                ],
            }
        )
        assert net.forward((5.0, 2.0)) == (3.0,)

    def test_relu(self):
        net = network_from_json(
            {
                "version": "dlc-net/1",
                "layers": [
                    {"weights": [[1.0]], "bias": [-1.0], "activation": "relu"}
                ],
            }
        )
        assert net.forward((0.5,)) == (0.0,)
        assert net.forward((3.0,)) == (2.0,)

    def test_layer_arity_mismatch(self):
        bad = {
            "version": "dlc-net/1",
            "layers": [
                {"weights": [[1.0, 0.0]], "bias": [0.0], "activation": "identity"},
                {"weights": [[1.0, 0.0]], "bias": [0.0], "activation": "identity"},
            ],
        }
        with pytest.raises(ArityMismatch):
            network_from_json(bad)

    def test_schema_gate(self):
        with pytest.raises(ValidationError):
            network_from_json({"version": "dlc-net/2", "layers": []})


class TestEval:
    def test_dl2_robustness_golden(self, doc, env):
        loss, grad = eval_loss(DL2, doc, INPUTS, env, grad_wrt="x")
        assert loss == pytest.approx(-0.05, abs=1e-12)
        # only coordinate 0 moves the conclusion norm at this point
        assert grad[0] == pytest.approx(-1.0, abs=1e-9)
        assert grad[1] == pytest.approx(0.0, abs=1e-9)

    def test_stl_infty_robustness_golden(self, doc, env):
        value, _ = eval_loss(DL2, doc, INPUTS, env)
        xr, _ = eval_loss(STL_INFTY, doc, INPUTS, env, carrier=XRealCarrier)
        assert xr.value == pytest.approx(-0.05)
        assert value == pytest.approx(-0.05)

    def test_unbound_vector_rejected(self, doc, env):
        partial = dict(INPUTS)
        del partial["x"]
        with pytest.raises(ValidationError):
            eval_loss(DL2, doc, partial, env)

    def test_binding_arity_checked(self, doc, env):
        bad = dict(INPUTS)
        bad["x"] = (0.1,)
        with pytest.raises(ArityMismatch):
            eval_loss(DL2, doc, bad, env)

    def test_determinism(self, doc, env):
        a, _ = eval_loss(DL2, doc, INPUTS, env)
        b, _ = eval_loss(DL2, doc, INPUTS, env)
        assert a == b


class TestTrainDemo:
    def test_loss_trace_monotone_then_saturates(self, doc, env):
        trace = train_demo(DL2, doc, INPUTS, env, steps=10, learning_rate=0.1)
        losses = [t["loss"] for t in trace]
        assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] == pytest.approx(0.0, abs=1e-9)

    def test_zero_learning_rate_constant(self, doc, env):
        trace = train_demo(DL2, doc, INPUTS, env, steps=5, learning_rate=0.0)
        assert len({t["loss"] for t in trace}) == 1

    def test_goedel_rejected(self, doc, env):
        with pytest.raises(RejectedLogic):
            train_demo(GODEL, doc, INPUTS, env)

    def test_iterates_stay_in_ball(self, doc, env):
        trace = train_demo(DL2, doc, INPUTS, env, steps=20, learning_rate=1.0)
        for t in trace:
            assert all(abs(xi) <= 0.2 + 1e-12 for xi in t["x"])


def test_csv_bindings():
    text = "v,0.0,0.0\nx,0.1,0.0\neps,0.2\ndelta,0.05\n"
    out = bindings_from_csv(text)
    assert out["x"] == (0.1, 0.0)
    assert out["eps"] == (0.2,)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_bindings_rejected(value):
    with pytest.raises(ValidationError):
        bindings_from_csv(f"x,0.1,{value}\n")
    with pytest.raises(ValidationError):
        bindings_from_json({"x": [0.1, float(value)]})
    with pytest.raises(ValidationError):
        bindings_from_json({"eps": float(value)})

"""Surface language: parsing, pretty-printing, elaboration, evaluation."""

import json
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from dlc import speclang
from dlc.carriers import Dual, DualCarrier, F64Carrier, XReal, XRealCarrier
from dlc.core import (
    DL2,
    GODEL,
    PRODUCT,
    STL_INFTY,
    App,
    Impl,
    LogicKind,
    expr_from_text,
    expr_to_text,
    stl,
    walk,
)
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
from dlc.semantics import interpret

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

    def test_zero_arity_network_fails_at_its_declaration(self):
        # as a vector of arity 0 does, whether or not the goal applies it
        for decl in ("network Z 2 0", "network Z 0 2"):
            for goal in ("|Z(x)|_inf <= 1", "x[0] <= 1"):
                with pytest.raises(ParseError, match="network declaration") as exc:
                    parse_spec(f"vector x 2\n{decl}\ngoal {goal}")
                assert (exc.value.line, exc.value.col) == (2, 1)


_DECLS = "vector x 2\nvector y 3\nscalar eps\nnetwork N 2 3\n"

# (goal, error class, message) of specs that declare _DECLS and fail to
# parse or resolve.  The goal is walked left to right, a call's arguments before the
# call itself, so the first fault in that order is the one reported.
PARSE_ERRORS = [
    ("|z|_inf <= 1", UndeclaredIdentifier, "vector 'z' not declared"),
    ("z[0] <= 1", UndeclaredIdentifier, "vector 'z' not declared"),
    ("delta <= 1", UndeclaredIdentifier, "scalar 'delta' not declared"),
    ("x <= 1", UndeclaredIdentifier, "scalar 'x' not declared"),
    ("|f(x)|_inf <= 1", UndeclaredIdentifier, "function 'f' not declared"),
    ("|sub(x,y)|_inf <= 1", ArityMismatch, "sub needs two vectors of equal arity"),
    ("|sub(x)|_inf <= 1", ArityMismatch, "sub needs two vectors of equal arity"),
    ("|sub(N(x),x)|_inf <= 1", ArityMismatch,
     "sub needs two vectors of equal arity"),
    ("|N(y)|_inf <= 1", ArityMismatch, "network 'N' expects one vector of arity 2"),
    ("|N(x,x)|_inf <= 1", ArityMismatch,
     "network 'N' expects one vector of arity 2"),
    ("x[2] <= 1", ArityMismatch, "index 2 out of range for vector 'x'"),
    ("1 <= y[7]", ArityMismatch, "index 7 out of range for vector 'y'"),
    # two faults: the first in walk order wins
    ("delta <= 1 /\\ z[0] <= 1", UndeclaredIdentifier,
     "scalar 'delta' not declared"),
    ("z[0] <= 1 /\\ delta <= 1", UndeclaredIdentifier,
     "vector 'z' not declared"),
    ("x[5] <= delta", ArityMismatch, "index 5 out of range for vector 'x'"),
    ("~ eps <= z[0] => x[9] <= 1", UndeclaredIdentifier,
     "vector 'z' not declared"),
    ("eps <= 1 => |sub(x,y)|_inf <= delta", ArityMismatch,
     "sub needs two vectors of equal arity"),
    ("|f(z)|_inf <= 1", UndeclaredIdentifier, "vector 'z' not declared"),
    ("|sub(N(y),z)|_inf <= 1", ArityMismatch,
     "network 'N' expects one vector of arity 2"),
    ("x[1e0] <= 1", ParseError, "index must be an integer"),
]


@pytest.mark.parametrize("goal, error, message", PARSE_ERRORS)
def test_parse_error_table(goal, error, message):
    with pytest.raises(error) as info:
        parse_spec(_DECLS + "goal " + goal)
    assert type(info.value) is error and str(info.value) == message


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


def _pinned_slots(env, carrier):
    """env whose input slots run over carrier, whatever carrier they are
    passed, so that a recording carrier still reads seeded duals."""
    def pin(f):
        def run(arg, _c):
            return f(arg, carrier)
        return run

    return extend_env(env, functions={
        name: pin(f) for name, f in env.functions.items()
        if name.startswith("in:")})


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

    @pytest.mark.parametrize("logic, carrier", [
        (DL2, F64Carrier), (DL2, DualCarrier), (STL_INFTY, XRealCarrier)])
    def test_references_share_one_slot_node(self, doc, env, logic, carrier):
        goal = elaborate(doc, logic, env)
        slots = {}
        for node in walk(goal):
            if isinstance(node, App) and node.fun.name.startswith("in:"):
                slots.setdefault(node.fun.name, []).append(node)
        assert sorted(slots) == ["in:delta", "in:eps", "in:v", "in:x"]
        assert len(slots["in:x"]) == 2  # x and N(x)
        assert all(all(n is refs[0] for n in refs) for refs in slots.values())
        # the decoded copy is the same tree with a node per reference;
        # both make the same carrier calls with the same operands
        copy = expr_from_text(expr_to_text(goal))
        assert copy == goal
        assert sum(isinstance(n, App) for n in walk(copy)) == len(
            {id(n) for n in walk(copy) if isinstance(n, App)})
        grad_wrt = "x" if carrier is DualCarrier else None
        logs = []
        for e in (goal, copy):
            log = []
            bound = speclang._bound_env(env, INPUTS, grad_wrt)
            out = interpret(logic, e, _pinned_slots(bound, carrier),
                            _Recording(carrier, log))
            logs.append((log, repr(out)))
        assert logs[0] == logs[1] and logs[0][0]


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

    def test_xreal_gradient_keeps_the_xreal_value(self, doc, env):
        xr, grad = eval_loss(STL_INFTY, doc, INPUTS, env, carrier=XRealCarrier,
                             grad_wrt="x")
        assert xr == eval_loss(STL_INFTY, doc, INPUTS, env,
                               carrier=XRealCarrier)[0]
        assert xr == XReal(-0.05)
        assert grad == (-1.0, 0.0)

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


THREE_READS = """\
vector v 3
vector x 3
scalar eps
goal |sub(x,v)|_inf <= eps => v[0] <= x[1] /\\ x[2] <= v[2]
"""
THREE_READS_INPUTS = {"v": (0.3, -1.7, 2.1), "x": (0.45, -1.35, 2.4),
                      "eps": (0.4,)}


class _CountingLift:
    """A carrier's lift that counts its calls."""

    def __init__(self, carrier):
        self.carrier, self.lifts = carrier, 0

    def lift(self, r):
        self.lifts += 1
        return self.carrier.lift(r)


class TestInputSlots:
    """An evaluation's input slot lifts its values once per carrier."""

    @pytest.mark.parametrize("carrier", [F64Carrier, XRealCarrier])
    def test_each_slot_lifts_once(self, carrier):
        goal = elaborate(parse_spec(THREE_READS), STL_INFTY)
        reads = [n for n in walk(goal)
                 if isinstance(n, App) and n.fun.name == "in:v"]
        assert len(reads) == 3
        slot = speclang._bound_env(base_env(), THREE_READS_INPUTS).functions["in:v"]
        counting = _CountingLift(carrier)
        outs = [slot(speclang._UNIT, counting) for _ in reads]
        assert counting.lifts == 3
        assert outs[0] is outs[1] is outs[2]
        assert outs[0] == tuple(carrier.lift(v) for v in THREE_READS_INPUTS["v"])

    def test_loss_bits(self):
        doc = parse_spec(THREE_READS)
        got = [eval_loss(logic, doc, THREE_READS_INPUTS, carrier=c, grad_wrt=g)
               for logic, c, g in [(DL2, F64Carrier, "x"), (PRODUCT, F64Carrier, "x"),
                                   (STL_INFTY, XRealCarrier, None)]]
        assert [(getattr(v, "value", v).hex(), g and [d.hex() for d in g])
                for v, g in got] == [
            ("-0x1.a666666666667p+0", ["-0x0.0p+0", "0x1.0000000000000p+0", "-0x0.0p+0"]),
            ("0x1.ddddddddddddep-1", ["0x0.0p+0", "0x0.0p+0", "-0x1.a8c536fe1a8c6p-3"]),
            ("-0x1.a666666666667p+0", None),
        ]


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

    def test_elaborates_once_per_run(self, doc, env, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return elaborate(*args, **kwargs)

        monkeypatch.setattr(speclang, "elaborate", counted)
        trace = train_demo(DL2, doc, INPUTS, env, steps=10)
        assert len(trace) == 11
        assert len(calls) == 1


class TestGoalCache:
    """``eval_loss`` elaborates once per doc object and flag profile."""

    @pytest.fixture()
    def elaborations(self, monkeypatch):
        calls = []

        def counted(doc, logic, env=None):
            calls.append(logic)
            return elaborate(doc, logic, env)

        monkeypatch.setattr(speclang, "elaborate", counted)
        return calls

    def test_ten_calls_elaborate_once(self, doc, env, elaborations):
        for i in range(10):
            eval_loss(DL2, doc, INPUTS, env, grad_wrt="x" if i % 2 else None)
        assert elaborations == [DL2]

    def test_cache_is_keyed_on_the_flag_profile(self, doc, env, elaborations):
        eval_loss(PRODUCT, doc, INPUTS, env)
        eval_loss(STL_INFTY, doc, INPUTS, env, carrier=XRealCarrier)
        assert elaborations == [PRODUCT]  # same profile, same goal
        eval_loss(DL2, doc, INPUTS, env)
        assert elaborations == [PRODUCT, DL2]
        other = parse_spec(ROBUSTNESS)  # an equal doc is another object
        eval_loss(DL2, other, INPUTS, env)
        assert elaborations == [PRODUCT, DL2, DL2]

    def test_cached_goal_gives_the_same_outputs(self, doc, env):
        fresh = [eval_loss(logic, parse_spec(ROBUSTNESS), INPUTS, env,
                           grad_wrt="x") for logic in (DL2, PRODUCT)]
        for _ in range(2):
            cached = [eval_loss(logic, doc, INPUTS, env, grad_wrt="x")
                      for logic in (DL2, PRODUCT)]
            assert [(v.hex(), [g.hex() for g in grad]) for v, grad in cached] \
                == [(v.hex(), [g.hex() for g in grad]) for v, grad in fresh]

    def test_environment_is_checked_on_every_call(self, doc, env):
        eval_loss(DL2, doc, INPUTS, env)
        with pytest.raises(UndeclaredIdentifier, match="'N' not present"):
            eval_loss(DL2, doc, INPUTS, base_env())
        with pytest.raises(UndeclaredIdentifier):
            train_demo(DL2, doc, INPUTS, base_env())

    def test_failed_elaboration_is_not_cached(self, doc, env, elaborations):
        for _ in range(2):
            with pytest.raises(FlagViolation):
                eval_loss(stl(1.0), doc, INPUTS, env)
        assert len(elaborations) == 2

    def test_cache_is_invisible_to_equality_hash_repr_and_pickle(self, doc, env):
        twin = parse_spec(ROBUSTNESS)
        before = (hash(doc), repr(doc), pickle.dumps(doc))
        eval_loss(DL2, doc, INPUTS, env)
        eval_loss(PRODUCT, doc, INPUTS, env)
        assert doc._goals
        assert doc == twin and hash(doc) == hash(twin)
        assert (hash(doc), repr(doc), pickle.dumps(doc)) == before
        back = pickle.loads(pickle.dumps(doc))
        assert back == doc and repr(back) == repr(doc)
        assert "_goals" not in vars(back) and back._goals is None
        assert eval_loss(DL2, back, INPUTS, env)[0] == \
            eval_loss(DL2, doc, INPUTS, env)[0]


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


@pytest.mark.parametrize("doc, want", [
    ({"x": [0.1, 2]}, {"x": (0.1, 2.0)}),
    ({"eps": 3, "delta": 0.5}, {"eps": (3.0,), "delta": (0.5,)}),
    ({"v": []}, {"v": ()}),
])
def test_json_bindings(doc, want):
    assert bindings_from_json(doc) == want


@pytest.mark.parametrize("value", [
    "12", "0.5", True, False, [True, False], [0.1, True], [0.1, "2"],
    [[0.1]], None, [None], {"a": 1},
])
def test_json_bindings_that_are_no_numbers_rejected(value):
    with pytest.raises(ValidationError, match="number or a list of numbers"):
        bindings_from_json({"x": value})


@pytest.mark.parametrize("doc", [[0.1, 0.2], "x", 3, None])
def test_bindings_that_are_no_json_object_rejected(doc):
    with pytest.raises(ValidationError, match="must be a JSON object"):
        bindings_from_json(doc)


# ---------------------------------------------------------------------------
# The one-pass gradient equals n scalar-tangent passes, bit for bit


def _slots(inputs, seed=None):
    """Input slots as elaboration names them; over duals, coordinate
    seed[1] of vector seed[0] gets tangent 1.0 and every other 0.0."""
    def slot(vals, at):
        def run(_arg, c):
            if at is not None and c is DualCarrier:
                return tuple(Dual(v, 1.0 if j == at else 0.0)
                             for j, v in enumerate(vals))
            return tuple(c.lift(v) for v in vals)
        return run

    return {
        f"in:{name}": slot(tuple(float(v) for v in vals),
                           seed[1] if seed and seed[0] == name else None)
        for name, vals in inputs.items()
    }


def _reference(logic, doc, inputs, env, wrt="x"):
    """(F64 value, gradient from one scalar-tangent pass per coordinate)."""
    expr = elaborate(doc, logic, env)
    value = interpret(logic, expr, extend_env(env, _slots(inputs)), F64Carrier)
    grad = [
        interpret(logic, expr, extend_env(env, _slots(inputs, (wrt, i))),
                  DualCarrier).tangent
        for i in range(len(inputs[wrt]))
    ]
    return value, grad


def _assert_matches_reference(logic, doc, inputs, env):
    value, grad = eval_loss(logic, doc, inputs, env, grad_wrt="x")
    ref_value, ref_grad = _reference(logic, doc, inputs, env)
    # float.hex tells 0.0 from -0.0
    assert value.hex() == ref_value.hex()
    assert len(grad) == len(inputs["x"])
    assert [g.hex() for g in grad] == [g.hex() for g in ref_grad]
    return grad


NEG_ROBUSTNESS = ROBUSTNESS.replace(
    "goal |sub(x,v)|_inf <= eps =>", "goal ~(|sub(x,v)|_inf <= eps) \\/")
GRAD_LOGICS = [DL2, PRODUCT, stl(1.0)]


def _name(logic):
    return logic.kind.value


def _doc_for(logic, impl_text, neg_text):
    """STL(nu) has no implication: it reads the goal as ~A \\/ B."""
    return parse_spec(neg_text if logic.kind is LogicKind.STL else impl_text)


def _generated(n, hidden, k, seed):
    """A robustness spec over an n-hidden-k ReLU network, with coordinate
    clauses, and inputs with x inside the eps-box around v."""
    rng = random.Random(seed)
    widths = (n, hidden, k)
    net = network_from_json({"version": "dlc-net/1", "layers": [
        {"weights": [[rng.gauss(0.0, 1.0 / fan_in ** 0.5) for _ in range(fan_in)]
                     for _ in range(fan_out)],
         "bias": [rng.uniform(-0.1, 0.1) for _ in range(fan_out)],
         "activation": "relu" if i == 0 else "identity"}
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]))
    ]})
    head = (f"vector v {n}\nvector x {n}\nscalar eps\nscalar delta\n"
            f"network N {n} {k}\n")
    pre, post = "|sub(x,v)|_inf <= eps", "|sub(N(x),N(v))|_inf <= delta"
    tail = f" /\\ x[0] <= 3.75 \\/ x[1] <= 0.05 /\\ v[{n // 2}] <= x[{n // 2}]"
    v = tuple(rng.uniform(1.0, 3.0) for _ in range(n))
    eps = rng.uniform(0.1, 0.5)
    inputs = {"v": v, "x": tuple(vi + rng.uniform(-eps, eps) for vi in v),
              "eps": (eps,), "delta": (rng.uniform(0.001, 0.01),)}
    env = extend_env(base_env(), functions={"N": net.as_env_function()})
    return (head + f"goal ({pre} => {post}){tail}\n",
            head + f"goal (~({pre}) \\/ {post}){tail}\n", inputs, env)


class TestGradientEquivalence:
    @pytest.mark.parametrize("logic", GRAD_LOGICS, ids=_name)
    def test_robustness_fixture(self, logic, env):
        doc = _doc_for(logic, ROBUSTNESS, NEG_ROBUSTNESS)
        for x in [(0.1, 0.0), (0.15, -0.05), (0.3, 0.1), (-0.02, 0.19)]:
            _assert_matches_reference(logic, doc, dict(INPUTS, x=x), env)

    @pytest.mark.parametrize("logic", GRAD_LOGICS, ids=_name)
    @pytest.mark.parametrize("shape", [(8, 16, 4, 1), (12, 8, 3, 2)])
    def test_generated_spec_with_network(self, logic, shape):
        impl_text, neg_text, inputs, env = _generated(*shape)
        doc = _doc_for(logic, impl_text, neg_text)
        # x and the train demo's next iterates along the gradient
        for _ in range(4):
            grad = _assert_matches_reference(logic, doc, inputs, env)
            inputs = dict(inputs, x=tuple(
                xi + 0.1 * gi for xi, gi in zip(inputs["x"], grad)))

    @pytest.mark.parametrize("logic", GRAD_LOGICS, ids=_name)
    def test_goal_without_x_has_zero_gradient(self, logic):
        _, _, inputs, env = _generated(8, 16, 4, 3)
        text = ("vector v 8\nvector x 8\nscalar eps\nscalar delta\n"
                "network N 8 4\ngoal |N(v)|_inf <= delta /\\ v[0] <= eps\n")
        grad = _assert_matches_reference(logic, parse_spec(text), inputs, env)
        assert grad == (0.0,) * 8

    def test_stl_zero_minimum_keeps_its_zero_gradient(self, env):
        # x sits on the eps-box boundary and the conclusion fails, so the
        # soft disjunction's smallest argument is exactly 0.  STL(nu) keeps
        # the minimum's tangent there, so the gradient in x[0] is 1, the
        # slope both one-sided differences give.
        inputs = dict(INPUTS, x=(0.2, 0.0))
        grad = _assert_matches_reference(stl(1.0), parse_spec(NEG_ROBUSTNESS),
                                         inputs, env)
        assert grad == (1.0, 0.0)

    def test_dl2_tied_implication_keeps_the_left_tangents(self, env):
        # x sits on the eps-box boundary and the conclusion holds, so the
        # premise's comparison and the implication's max(a - b, 0) are both
        # exact ties.  A tie takes the larger tangent, so the gradient is 0,
        # as the loss is 0 on both sides of x[0] = 0.2; the one dual pass
        # must agree with the per-coordinate passes here too.
        inputs = dict(INPUTS, x=(0.2, 0.0), delta=(0.3,))
        grad = _assert_matches_reference(DL2, parse_spec(ROBUSTNESS), inputs, env)
        assert grad == (0.0, 0.0)
        assert eval_loss(DL2, parse_spec(ROBUSTNESS), inputs, env)[0] == 0.0

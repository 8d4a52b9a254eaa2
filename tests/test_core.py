"""Expression construction, flag profiles, validation, serialization."""

import copy
import dataclasses
import json
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from dlc import core
from dlc.core import (
    ALL_FUZZY,
    DL2,
    DL2_FLAGS,
    FUZZY_FLAGS,
    GODEL,
    STL_FLAGS,
    STL_INFTY,
    And,
    BoolConst,
    BoolT,
    App,
    Cmp,
    CmpOp,
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
    children_of,
    expr_from_text,
    expr_to_text,
    random_formula,
    stl,
    validate_for_logic,
    walk,
    yager,
)
from dlc.errors import (
    ArityMismatch,
    FlagViolation,
    IndexOutOfRange,
    TypeMismatch,
    ValidationError,
)


def atom(flags=FUZZY_FLAGS, a=1.0, b=2.0):
    return Cmp(CmpOp.LE, RealConst(a), RealConst(b), flags)


class TestFlagProfiles:
    def test_fuzzy_profile_allows_everything(self):
        x = atom()
        for node in (Not(x), Impl(x, x), And((x, x)), Or((x, x)),
                     MAnd((x, x)), MOr((x, x))):
            assert node.tag.flags == FUZZY_FLAGS

    def test_negation_rejected_when_profile_lacks_it(self):
        x = atom(DL2_FLAGS)
        with pytest.raises(FlagViolation):
            Not(x)

    def test_implication_rejected_when_profile_lacks_it(self):
        x = atom(STL_FLAGS)
        with pytest.raises(FlagViolation):
            Impl(x, x)

    def test_monoidal_rejected_when_profile_lacks_it(self):
        x = atom(STL_FLAGS)
        with pytest.raises(FlagViolation):
            MAnd((x, x))
        with pytest.raises(FlagViolation):
            MOr((x, x))

    def test_mixed_profiles_rejected(self):
        with pytest.raises(Exception):
            And((atom(FUZZY_FLAGS), atom(DL2_FLAGS)))

    def test_empty_connective_rejected(self):
        with pytest.raises(Exception):
            And(())


class TestConstruction:
    def test_index_bounds(self):
        IndexConst(0, 1)
        with pytest.raises(IndexOutOfRange):
            IndexConst(3, 3)
        with pytest.raises(IndexOutOfRange):
            IndexConst(-1, 3)

    def test_vector_nonempty(self):
        with pytest.raises(ArityMismatch):
            VecConst([])

    def test_comparison_needs_real_operands(self):
        x = atom()
        with pytest.raises(Exception):
            Cmp(CmpOp.LE, x, RealConst(1.0), FUZZY_FLAGS)

    def test_structural_equality(self):
        assert atom() == atom()
        assert And((atom(), atom())) == And((atom(), atom()))
        assert atom(a=1.0) != atom(a=2.0)


class TestValidation:
    def test_profile_must_match_logic(self):
        x = atom(FUZZY_FLAGS)
        validate_for_logic(x, GODEL)
        with pytest.raises(FlagViolation):
            validate_for_logic(x, DL2)
        validate_for_logic(atom(DL2_FLAGS), DL2)
        validate_for_logic(atom(STL_FLAGS), stl(1.0))
        validate_for_logic(atom(FUZZY_FLAGS), STL_INFTY)

    def test_violation_reports_the_first_offending_path(self):
        fuzzy = ("ConnectiveFlags(neg=True, impl=True, monoid=True, "
                 "lattice=True)")
        dl2 = ("ConnectiveFlags(neg=False, impl=True, monoid=True, "
               "lattice=True)")
        with pytest.raises(FlagViolation) as info:
            validate_for_logic(And((atom(), atom())), DL2)
        assert str(info.value) == (
            f"node at path () carries flags {fuzzy}, expected {dl2} for dl2")
        # constructors give every Bool node its root's profile, so a wrong
        # one below the root is planted by hand; a node shared by two
        # subtrees is reported where pre-order meets it first
        bad = atom(a=4.0)
        tree = And((Or((atom(a=3.0), bad)), Not(bad)))
        object.__setattr__(bad, "tag", BoolT(DL2_FLAGS))
        with pytest.raises(FlagViolation) as info:
            validate_for_logic(tree, GODEL)
        assert str(info.value) == (
            f"node at path (0, 1) carries flags {dl2}, expected {fuzzy} "
            "for goedel")

    def test_passing_walk_is_remembered_per_profile(self):
        tree = And((atom(), Not(atom())))
        validate_for_logic(tree, GODEL)
        assert tree._validated == FUZZY_FLAGS
        validate_for_logic(tree, STL_INFTY)  # same profile: no walk
        with pytest.raises(FlagViolation):
            validate_for_logic(tree, DL2)
        assert tree._validated == FUZZY_FLAGS
        assert "_validated" not in vars(pickle.loads(pickle.dumps(tree)))

    def test_memo_skips_the_walk_for_the_same_profile(self, monkeypatch):
        tree = And((atom(), Not(atom())))
        validate_for_logic(tree, GODEL)
        seen = []
        monkeypatch.setattr(core, "children_of",
                            lambda e: seen.append(e) or children_of(e))
        validate_for_logic(tree, GODEL)
        assert seen == []
        validate_for_logic(tree.children[1], GODEL)  # a new root walks
        assert len(seen) == 4  # Not, Cmp and its two literals

    def test_yager_requires_positive_r(self):
        with pytest.raises(ValidationError):
            yager(0.0)
        with pytest.raises(ValidationError):
            yager(-1.0)

    def test_stl_requires_positive_nu(self):
        with pytest.raises(ValidationError):
            stl(0.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_parameter_is_refused(self, x):
        with pytest.raises(ValidationError, match="^Yager requires a finite"):
            yager(x)
        with pytest.raises(ValidationError, match="^STL requires a finite"):
            stl(x)


PROFILES = [FUZZY_FLAGS, DL2_FLAGS, STL_FLAGS]


@given(
    profile=st.sampled_from(PROFILES),
    depth=st.integers(0, 4),
    seed=st.integers(0, 10_000),
)
def test_random_formula_respects_profile(profile, depth, seed):
    f = random_formula(profile, depth, random.Random(seed))
    for node in walk(f):
        if hasattr(node.tag, "flags"):
            assert node.tag.flags == profile


@given(
    profile=st.sampled_from(PROFILES),
    depth=st.integers(0, 4),
    seed=st.integers(0, 10_000),
)
def test_random_formula_deterministic(profile, depth, seed):
    assert random_formula(profile, depth, random.Random(seed)) == random_formula(
        profile, depth, random.Random(seed)
    )


@given(
    profile=st.sampled_from(PROFILES),
    depth=st.integers(0, 4),
    seed=st.integers(0, 10_000),
)
def test_random_formula_draws_from_the_callers_rng(profile, depth, seed):
    a, b = random.Random(seed), random.Random()
    b.setstate(a.getstate())
    assert random_formula(profile, depth, a) == random_formula(profile, depth, b)
    assert a.getstate() == b.getstate()
    # the call advanced the caller's rng: its next draw is not a fresh one's
    assert a.getstate() != random.Random(seed).getstate()
    assert a.random() != random.Random(seed).random()


@given(
    profile=st.sampled_from(PROFILES),
    depth=st.integers(0, 5),
    seed=st.integers(0, 10_000),
)
def test_text_serialization_round_trip(profile, depth, seed):
    f = random_formula(profile, depth, random.Random(seed))
    assert expr_from_text(expr_to_text(f)) == f


def test_children_of_follows_the_declared_fields():
    x = atom()
    assert children_of(And((x, x))) == (x, x)
    assert children_of(Not(x)) == (x,)
    assert children_of(x) == (x.left, x.right)
    assert children_of(x.left) == ()


def test_all_fuzzy_enumeration():
    kinds = [lg.kind.value for lg in ALL_FUZZY]
    assert kinds == ["goedel", "lukasiewicz", "yager", "product"]


def _formula_over_all_node_kinds(profile, depth, seed):
    x = VecConst((1.0, 2.0))
    read = Lookup(App(FunRef("f", 2, 2), x), IndexConst(1, 2))
    return And((random_formula(profile, depth, random.Random(seed)),
                Cmp(CmpOp.LE, read, RealConst(0.5), profile)))


@given(
    profile=st.sampled_from(PROFILES),
    depth=st.integers(0, 4),
    seed=st.integers(0, 10_000),
)
def test_hash_contract(profile, depth, seed):
    a = _formula_over_all_node_kinds(profile, depth, seed)
    b = _formula_over_all_node_kinds(profile, depth, seed)
    text, shown = expr_to_text(a), repr(a)
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(a)
    for node in walk(a):
        # the generated dataclass hash: the tuple of the node's fields
        fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
        assert hash(node) == hash(fields)
    assert expr_to_text(a) == text and repr(a) == shown
    assert "_hash" not in vars(pickle.loads(pickle.dumps(a)))


# ---------------------------------------------------------------------------
# The constructor flag contract: a built formula carries one profile


BINARY_CONNECTIVES = [And, Or, MAnd, MOr, Impl]
# connective -> the flag it needs
NEEDS = {And: "lattice", Or: "lattice", MAnd: "monoid", MOr: "monoid",
         Not: "neg", Impl: "impl"}


def _build(cls, children):
    if cls is Not:
        return Not(children[0])
    if cls is Impl:
        return Impl(children[0], children[1])
    return cls(children)


def _formulas(profile):
    """Hypothesis formulas built only from connectives profile defines."""
    literal = st.floats(0.1, 10.0)
    leaves = [st.builds(lambda op, a, b: Cmp(op, RealConst(a), RealConst(b),
                                             profile),
                        st.sampled_from(list(CmpOp)), literal, literal)]
    if profile.impl:
        leaves.append(st.booleans().map(lambda v: BoolConst(v, profile)))

    def extend(kids):
        allowed = [cls for cls, flag in NEEDS.items() if getattr(profile, flag)]
        return st.one_of([
            st.lists(kids, min_size=1 if cls not in (Not, Impl) else 2,
                     max_size=3).map(lambda cs, cls=cls: _build(cls, cs))
            for cls in allowed
        ])

    return st.recursive(st.one_of(leaves), extend, max_leaves=6)


# these tests draw formulas in the test body, where Hypothesis's deadline
# counts the drawing too
BODY_DRAWS = settings(deadline=None)


def _two_profiles():
    return st.permutations(PROFILES).map(lambda ps: ps[:2])


@BODY_DRAWS
@given(data=st.data(), cls=st.sampled_from(BINARY_CONNECTIVES),
       profiles=_two_profiles())
def test_constructors_reject_mixed_profiles(data, cls, profiles):
    p, q = profiles
    kids = [data.draw(_formulas(p)), data.draw(_formulas(q))]
    if cls is not Impl:
        kids += data.draw(st.lists(_formulas(p) | _formulas(q), max_size=2))
    order = data.draw(st.permutations(kids))
    with pytest.raises(TypeMismatch):
        _build(cls, order)


@BODY_DRAWS
@given(data=st.data(), profile=st.sampled_from(PROFILES),
       cls=st.sampled_from(list(NEEDS)))
def test_undefined_connectives_raise_flag_violation(data, profile, cls):
    kids = data.draw(st.lists(_formulas(profile), min_size=2, max_size=3))
    if getattr(profile, NEEDS[cls]):
        assert _build(cls, kids).tag == BoolT(profile)
    else:
        with pytest.raises(FlagViolation):
            _build(cls, kids)


@BODY_DRAWS
@given(data=st.data(), profile=st.sampled_from(PROFILES))
def test_every_node_carries_the_root_profile(data, profile):
    root = data.draw(_formulas(profile))
    assert root.tag == BoolT(profile)
    for node in walk(root):
        if isinstance(node.tag, BoolT):
            assert node.tag.flags == root.tag.flags
    validate_for_logic(root, {FUZZY_FLAGS: GODEL, DL2_FLAGS: DL2,
                              STL_FLAGS: stl(1.0)}[profile])


# ---------------------------------------------------------------------------
# The dlc-ast/1 codec against the per-class recursive one it replaced


def _flags_doc(f):
    return {"neg": f.neg, "impl": f.impl, "monoid": f.monoid, "lattice": f.lattice}


def _flags_of(d):
    return core.ConnectiveFlags(d["neg"], d["impl"], d["monoid"], d["lattice"])


_NARY = {"and": And, "or": Or, "mand": MAnd, "mor": MOr}


def _reference_to_json(e):
    if isinstance(e, BoolConst):
        return {"kind": "bool", "value": e.value, "flags": _flags_doc(e.tag.flags)}
    if isinstance(e, RealConst):
        return {"kind": "real", "value": e.value}
    if isinstance(e, IndexConst):
        return {"kind": "index", "i": e.i, "n": e.n}
    if isinstance(e, VecConst):
        return {"kind": "vec", "values": list(e.values)}
    if isinstance(e, (And, Or, MAnd, MOr)):
        kind = {And: "and", Or: "or", MAnd: "mand", MOr: "mor"}[type(e)]
        return {"kind": kind, "children": [_reference_to_json(c) for c in e.children]}
    if isinstance(e, Not):
        return {"kind": "not", "child": _reference_to_json(e.child)}
    if isinstance(e, Impl):
        return {"kind": "impl", "left": _reference_to_json(e.left),
                "right": _reference_to_json(e.right)}
    if isinstance(e, Cmp):
        return {"kind": e.op.value, "left": _reference_to_json(e.left),
                "right": _reference_to_json(e.right),
                "flags": _flags_doc(e.tag.flags)}
    if isinstance(e, FunRef):
        return {"kind": "fun", "name": e.name, "m": e.m, "n": e.n}
    if isinstance(e, core.Fun2Ref):
        return {"kind": "fun2", "name": e.name, "l": e.l, "m": e.m, "n": e.n}
    if isinstance(e, App):
        return {"kind": "app", "fun": _reference_to_json(e.fun),
                "arg": _reference_to_json(e.arg)}
    if isinstance(e, core.App2):
        return {"kind": "app2", "fun": _reference_to_json(e.fun),
                "arg1": _reference_to_json(e.arg1),
                "arg2": _reference_to_json(e.arg2)}
    if isinstance(e, Lookup):
        return {"kind": "lookup", "vec": _reference_to_json(e.vec),
                "index": _reference_to_json(e.index)}
    raise ValidationError(f"unserializable node {e!r}")


def _reference_from_json(d):
    try:
        kind = d["kind"]
    except (TypeError, KeyError) as exc:
        raise ValidationError(f"malformed node document: {d!r}") from exc
    if kind == "bool":
        return BoolConst(d["value"], _flags_of(d["flags"]))
    if kind == "real":
        return RealConst(d["value"])
    if kind == "index":
        return IndexConst(d["i"], d["n"])
    if kind == "vec":
        return VecConst(d["values"])
    if kind in _NARY:
        return _NARY[kind]([_reference_from_json(c) for c in d["children"]])
    if kind == "not":
        return Not(_reference_from_json(d["child"]))
    if kind == "impl":
        return Impl(_reference_from_json(d["left"]), _reference_from_json(d["right"]))
    if kind in ("le", "eq"):
        return Cmp(CmpOp(kind), _reference_from_json(d["left"]),
                   _reference_from_json(d["right"]), _flags_of(d["flags"]))
    if kind == "fun":
        return FunRef(d["name"], d["m"], d["n"])
    if kind == "fun2":
        return core.Fun2Ref(d["name"], d["l"], d["m"], d["n"])
    if kind == "app":
        return App(_reference_from_json(d["fun"]), _reference_from_json(d["arg"]))
    if kind == "app2":
        return core.App2(_reference_from_json(d["fun"]), _reference_from_json(d["arg1"]),
                         _reference_from_json(d["arg2"]))
    if kind == "lookup":
        return Lookup(_reference_from_json(d["vec"]), _reference_from_json(d["index"]))
    raise ValidationError(f"unknown node kind {kind!r}")


def _formula_over_every_kind(profile, depth, seed):
    """_formula_over_all_node_kinds with an App2 and an eq comparison."""
    x = VecConst((1.0, 2.0))
    read = Lookup(core.App2(core.Fun2Ref("sub", 2, 2, 2), x, x), IndexConst(0, 2))
    return And((_formula_over_all_node_kinds(profile, depth, seed),
                Cmp(CmpOp.EQ, read, RealConst(0.5), profile)))


def _slots(doc):
    """(container, key) of every value in a JSON document."""
    stack, out = [doc], []
    while stack:
        node = stack.pop()
        keys = node if isinstance(node, dict) else range(len(node))
        for k in keys:
            out.append((node, k))
            if isinstance(node[k], (dict, list)):
                stack.append(node[k])
    return out


def _outcome(decode, doc):
    try:
        return "ok", expr_to_text(decode(doc))
    except Exception as exc:  # the exception type is what is compared
        return "raised", type(exc)


FAULTS = [None, 0, -1, 2.5, "x", "le", [], {}, True, {"kind": "real", "value": 1.0},
          {"kind": "nope"}, {"neg": True}]


@settings(deadline=None)
@given(profile=st.sampled_from(PROFILES), depth=st.integers(0, 5),
       seed=st.integers(0, 10_000), data=st.data())
def test_codec_matches_the_recursive_reference(profile, depth, seed, data):
    f = _formula_over_every_kind(profile, depth, seed)
    doc = core._node_to_json(f)
    assert json.dumps(doc) == json.dumps(_reference_to_json(f))
    assert _outcome(core._node_from_json, doc) == ("ok", expr_to_text(f))
    # one fault: a value replaced or a key deleted
    container, key = data.draw(st.sampled_from(_slots(doc)))
    fault = data.draw(st.sampled_from(FAULTS + ["delete"]))
    if fault == "delete":
        if isinstance(container, dict):
            del container[key]
        else:
            container.pop(key)
    else:
        container[key] = copy.deepcopy(fault)
    assert (_outcome(core._node_from_json, copy.deepcopy(doc))
            == _outcome(_reference_from_json, doc))


def _not_chain(depth):
    f = atom()
    for _ in range(depth):
        f = Not(f)
    return f


def test_a_5000_deep_formula_round_trips_and_hashes():
    f = _not_chain(5000)
    doc = core._node_to_json(f)
    back = core._node_from_json(doc)
    assert hash(back) == hash(f)
    a, b = f, back
    for _ in range(5000):
        assert type(b) is Not and b.tag == a.tag
        a, b = a.child, b.child
    assert a == b
    for node in walk(back):  # each cached hash is the generated one
        fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
        assert hash(node) == hash(fields)
    assert sum(1 for _ in walk(f)) == 5003


def _reference_eq(a, b):
    """The dataclass-generated equality: same class and equal field tuples,
    recursing on children."""
    if type(a) is not type(b):
        return False
    return all(_reference_field_eq(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


def _reference_field_eq(x, y):
    if x is y:
        return True
    if isinstance(x, core.Expr):
        return isinstance(y, core.Expr) and _reference_eq(x, y)
    if isinstance(x, tuple) and isinstance(y, tuple):
        return len(x) == len(y) and all(map(_reference_field_eq, x, y))
    return x == y


@given(profile=st.sampled_from(PROFILES), depth=st.integers(0, 3),
       seeds=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       hashed=st.sampled_from(["none", "left", "both"]))
def test_equality_matches_the_generated_one(profile, depth, seeds, hashed):
    a = _formula_over_all_node_kinds(profile, depth, seeds[0])
    b = _formula_over_all_node_kinds(profile, depth, seeds[1])
    if hashed != "none":
        hash(a)
    if hashed == "both":
        hash(b)
    want = _reference_eq(a, b)
    assert (a == b) is want and (b == a) is want and (a != b) is not want
    for x, y in zip(walk(a), walk(b)):  # every pair of subformulas too
        assert (x == y) is _reference_eq(x, y)


def test_equality_of_nan_literals_follows_the_generated_one():
    nan = RealConst(float("nan"))
    assert nan == nan and nan != RealConst(float("nan"))
    assert _reference_eq(nan, nan) and not _reference_eq(nan, RealConst(float("nan")))
    assert Cmp(CmpOp.LE, nan, nan, FUZZY_FLAGS) == Cmp(CmpOp.LE, nan, nan, FUZZY_FLAGS)


def test_deep_formulas_built_apart_compare_without_recursion():
    f, g = _not_chain(5000), _not_chain(5000)
    assert f is not g and f == g and not f != g
    deeper = Not(_not_chain(4999))
    assert f == deeper
    other = atom(a=3.0)
    for _ in range(5000):
        other = Not(other)
    assert f != other and other != f  # differs only at the bottom
    hash(f), hash(other)
    assert f != other  # both hashes cached and different
    assert f != _not_chain(4999) and f != 5

"""Expression construction, flag profiles, validation, serialization."""

import dataclasses
import pickle

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
    build_node,
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


PROFILES = [FUZZY_FLAGS, DL2_FLAGS, STL_FLAGS]


@given(
    profile=st.sampled_from(PROFILES),
    depth=st.integers(0, 4),
    seed=st.integers(0, 10_000),
)
def test_random_formula_respects_profile(profile, depth, seed):
    f = random_formula(profile, depth, seed)
    for node in walk(f):
        if hasattr(node.tag, "flags"):
            assert node.tag.flags == profile


@given(
    profile=st.sampled_from(PROFILES),
    depth=st.integers(0, 4),
    seed=st.integers(0, 10_000),
)
def test_random_formula_deterministic(profile, depth, seed):
    assert random_formula(profile, depth, seed) == random_formula(
        profile, depth, seed
    )


@given(
    profile=st.sampled_from(PROFILES),
    depth=st.integers(0, 5),
    seed=st.integers(0, 10_000),
)
def test_text_serialization_round_trip(profile, depth, seed):
    f = random_formula(profile, depth, seed)
    assert expr_from_text(expr_to_text(f)) == f


def test_build_node_matches_constructors():
    x = atom()
    assert build_node("and", [x, x]) == And((x, x))
    assert build_node("impl", [x, x]) == Impl(x, x)
    assert build_node("not", [x]) == Not(x)
    assert children_of(And((x, x))) == (x, x)


def test_all_fuzzy_enumeration():
    kinds = [lg.kind.value for lg in ALL_FUZZY]
    assert kinds == ["goedel", "lukasiewicz", "yager", "product"]


def _formula_over_all_node_kinds(profile, depth, seed):
    x = VecConst((1.0, 2.0))
    read = Lookup(App(FunRef("f", 2, 2), x), IndexConst(1, 2))
    return And((random_formula(profile, depth, seed),
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

"""Hypersequent calculi: schemas, soundness, search, completeness."""

import copy
import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import pickle
import math
import pathlib
import random
import sys

import pytest

from dlc import calculus
from dlc.calculus import (
    CALCULI,
    Hypersequent,
    ProofTree,
    Rule,
    RuleInstance,
    Sequent,
    check_proof,
    check_step,
    fixtures_dir,
    goal_from_json,
    hypersequent_holds,
    load_proof,
    premises_for,
    proof_from_json,
    proof_to_json,
    prove_bounded,
    random_derivation,
    rule_local_soundness,
    sequent_holds,
    soundness_fuzz,
    weak_completeness_goals,
    weak_completeness_suite,
)
from dlc.calculus import (
    _INIT,
    _LAND,
    _LIMPL_DL2,
    _LOR,
    _MIN_MAX_RULES,
    _MIX,
    _SEARCH_ORDER,
    _STREAK_CAP,
    CalculusDef,
    Template,
    Window,
    _atom,
    _calc,
    _extend_candidates,
    _axiom_match,
    _hyper_to_json,
    _logical_matches,
    _rand_sequent,
    _shifted,
    _tree_depth,
    _validate,
)
from dlc.cli import _emit, run
from dlc.core import (
    AXIOMS,
    DL2,
    GODEL,
    LUKASIEWICZ,
    STL_INFTY,
    And,
    BoolConst,
    Impl,
    MAnd,
    MOr,
    Or,
)
from dlc.errors import (
    PremiseArityMismatch,
    RuleNotInCalculus,
    SchemaMismatch,
    ValidationError,
)

GOEDEL = CALCULI["goedel"]
LUKA = CALCULI["lukasiewicz"]
DL2C = CALCULI["dl2"]


def goedel_atom(i=1):
    return _atom(i, GOEDEL.profile)


class TestSchemas:
    def test_init_axiom(self):
        p = goedel_atom()
        h = Hypersequent([Sequent((p,), (p,))])
        inst = RuleInstance(Rule.INIT, {"c": 0})
        assert premises_for(GOEDEL, inst, h) == []

    def test_init_rejects_mismatch(self):
        h = Hypersequent([Sequent((goedel_atom(1),), (goedel_atom(2),))])
        with pytest.raises(SchemaMismatch):
            premises_for(GOEDEL, RuleInstance(Rule.INIT, {"c": 0}), h)

    def test_rule_not_in_calculus(self):
        p = goedel_atom()
        h = Hypersequent([Sequent((p, p), (p,))])
        with pytest.raises(RuleNotInCalculus):
            premises_for(GOEDEL, RuleInstance(Rule.SPLIT, {"c": 0}), h)

    def test_left_implication_goedel_two_premises(self):
        p, q = goedel_atom(1), goedel_atom(2)
        h = Hypersequent([Sequent((Impl(p, q),), (q,))])
        prem = premises_for(GOEDEL, RuleInstance(Rule.LIMPL, {"c": 0, "pos": 0}), h)
        assert len(prem) == 2
        assert prem[0] == Hypersequent([Sequent((), (p,))])
        assert prem[1] == Hypersequent([Sequent((q,), (q,))])

    def test_left_implication_luka_single_premise(self):
        pf = LUKA.profile
        p, q = _atom(1, pf), _atom(2, pf)
        h = Hypersequent([Sequent((Impl(p, q),), (p,))])
        prem = premises_for(LUKA, RuleInstance(Rule.LIMPL, {"c": 0, "pos": 0}), h)
        assert prem == [Hypersequent([Sequent((q,), (p, p))])]

    def test_check_step_counts_premises(self):
        p = goedel_atom()
        h = Hypersequent([Sequent((p,), (p,))])
        inst = RuleInstance(Rule.INIT, {"c": 0})
        with pytest.raises(PremiseArityMismatch):
            check_step(GOEDEL, inst, h, [h])

    def test_check_step_rejects_a_param_the_rule_does_not_take(self):
        p, q = goedel_atom(1), goedel_atom(2)
        h = Hypersequent([Sequent((p,), (p,)), Sequent((), (And((p, q)),))])
        for rule, params, premises in [
            (Rule.INIT, {"c": 0, "zzz": 7}, []),
            (Rule.EW, {"k": 1, "c": 0}, [Hypersequent(h.components[:1])]),
            (Rule.RAND, {"c": 1, "k1": 0}, premises_for(
                GOEDEL, RuleInstance(Rule.RAND, {"c": 1}), h)),
        ]:
            with pytest.raises(SchemaMismatch, match="unknown params"):
                check_step(GOEDEL, RuleInstance(rule, params), h, premises)
        with pytest.raises(SchemaMismatch, match="zzz"):
            check_proof(GOEDEL, ProofTree(
                h, RuleInstance(Rule.INIT, {"c": 0, "zzz": 7}), ()))
        # a sole principal formula's instance may still name its position
        check_step(GOEDEL, RuleInstance(Rule.RAND, {"c": 1, "pos": 0}), h,
                   premises_for(GOEDEL, RuleInstance(Rule.RAND, {"c": 1}), h))

    def test_sole_principal_formula_is_at_position_zero(self):
        # a single-conclusion right rule's instance may name "pos" 0, where
        # its principal formula is, and no other position
        p, q = goedel_atom(1), goedel_atom(2)
        h = Hypersequent([Sequent((p,), (p,)), Sequent((), (And((p, q)),))])
        def rand(**params):
            return premises_for(GOEDEL, RuleInstance(Rule.RAND, {"c": 1, **params}), h)

        assert rand(pos=0) == rand()
        for pos in (5, 1, -1):
            with pytest.raises(SchemaMismatch, match="formula position out of range"):
                rand(pos=pos)

    @pytest.mark.parametrize("value", [0.7, True, "0", None])
    def test_a_param_that_is_no_int_is_rejected(self, value):
        p, q = goedel_atom(1), goedel_atom(2)
        h = Hypersequent([Sequent((p,), (p,)), Sequent((And((p, q)),), (p,))])
        for rule, params in [(Rule.INIT, {"c": value}), (Rule.EW, {"k": value}),
                             (Rule.LAND, {"c": 1, "pos": value})]:
            with pytest.raises(SchemaMismatch, match="not an integer"):
                premises_for(GOEDEL, RuleInstance(rule, params), h)

    def test_check_proof_validates_formulas(self):
        # a fuzzy-profile atom must not appear in a DL2 proof
        p = goedel_atom()
        h = Hypersequent([Sequent((p,), (p,))])
        tree = ProofTree(h, RuleInstance(Rule.INIT, {"c": 0}), ())
        with pytest.raises(Exception):
            check_proof(DL2C, tree)


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_premises_for_dispatches_on_the_calculus_rules(name):
    calc = CALCULI[name]
    rng = random.Random(name)
    p = _atom(1, calc.profile)
    h = Hypersequent([Sequent((p,), (p,))])
    for rule in Rule:
        if rule in calc.rules:
            inst, conclusion = calc.table[rule].drawn(calc, rng)
            assert isinstance(premises_for(calc, inst, conclusion), list)
        else:
            with pytest.raises(RuleNotInCalculus):
                premises_for(calc, RuleInstance(rule, {"c": 0, "pos": 0}), h)


def test_every_rule_is_declared():
    declared = set().union(*(calc.rules for calc in CALCULI.values()))
    assert declared == set(Rule)


# The calculi whose right rules are single-conclusion (sole) and whose &
# and v match their monoidal twins: Gödel and STL∞, which read the
# monoidal connectives as min and max, as the calculi declared it before
# both were derived from the templates and the logic.
MIN_MAX_CALCULI = {"goedel", "stl-inf"}


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_derived_settings_are_the_ones_declared_before(name):
    calc = CALCULI[name]
    min_max = name in MIN_MAX_CALCULI
    assert calc.logical[False]
    assert {spec.sole for spec in calc.logical[False]} == {min_max}
    assert not any(spec.sole for spec in calc.logical[True])
    p, q = _atom(1, calc.profile), _atom(2, calc.profile)
    lattice = _calc(name, calc.logic, (_INIT, _LAND, _LOR)).table
    assert lattice[Rule.LAND].matches(And((p, q)))
    assert lattice[Rule.LOR].matches(Or((p, q)))
    assert lattice[Rule.LAND].matches(MAnd((p, q))) == min_max
    assert lattice[Rule.LOR].matches(MOr((p, q))) == min_max
    # ew's window is the last two components, on which k = 1 alone fits;
    # on a whole hypersequent its tries lists every block size
    ew = calc.table[Rule.EW]
    assert ew.window == Window(2, last=True, fresh=False)
    h = Hypersequent([Sequent((p,), (q,))] * 3)
    assert [inst.params for inst in ew.search(h)] == [{"k": 1}]
    assert len(list(ew.tries(h.components, {}))) == 2
    assert not any(spec.window.last for spec in calc.table.values()
                   if spec.window is not None and spec is not ew)


def test_a_calculus_is_its_name_logic_and_templates():
    assert list(inspect.signature(_calc).parameters) == ["name", "logic", "templates"]
    assert [f.name for f in dataclasses.fields(CalculusDef)] == ["name", "logic", "table"]
    assert Template._fields == ("rule", "text")
    for calc in CALCULI.values():
        for spec in calc.table.values():
            assert spec.axiom == (spec.forward is None), (calc.name, spec.rule)


class TestSemanticReading:
    def test_goedel_sequent(self):
        env_p = goedel_atom()  # value 1.0: 1 <= 2
        assert sequent_holds(GODEL, Sequent((env_p,), (env_p,)))
        assert sequent_holds(GODEL, Sequent((), ()), tol=1e-9) is False

    def test_empty_left_is_strongest(self):
        p = goedel_atom()
        assert sequent_holds(GODEL, Sequent((), (p,)))

    def test_luka_fold_is_unclamped(self):
        # two antecedents worth 1.0 each: the fold is 1.0, not clamped up
        pf = LUKA.profile
        true_atom = _atom(1, pf)
        false_like = BoolConst(False, pf)
        s = Sequent((true_atom, false_like), (false_like,))
        # left fold = 1 + 0 - 1 = 0 <= right 0
        assert sequent_holds(LUKASIEWICZ, s)

    def test_stl_infty_empty_sides(self):
        # empty antecedent folds to +inf (identity of min), so only a
        # top-valued succedent can satisfy it
        assert sequent_holds(STL_INFTY, Sequent((), ())) is False
        p = _atom(1, STL_INFTY.flag_profile)
        top = BoolConst(True, STL_INFTY.flag_profile)
        assert not sequent_holds(STL_INFTY, Sequent((), (p,)))
        assert sequent_holds(STL_INFTY, Sequent((), (top,)))
        assert sequent_holds(STL_INFTY, Sequent((p,), (p,)))

    def test_hypersequent_needs_one_component(self):
        pf = GOEDEL.profile
        good = Sequent((), (_atom(1, pf),))
        bad = Sequent((_atom(1, pf),), ())
        assert hypersequent_holds(GODEL, Hypersequent([bad, good]))
        assert not hypersequent_holds(GODEL, Hypersequent([bad]))


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_random_derivations_check_and_hold(name):
    calc = CALCULI[name]
    for i in range(150):
        tree = random_derivation(calc, f"t/{i}", 5)
        check_proof(calc, tree)
        assert hypersequent_holds(calc.logic, tree.conclusion)


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_random_derivation_deterministic(name):
    calc = CALCULI[name]
    a = random_derivation(calc, "seed", 6)
    b = random_derivation(calc, "seed", 6)
    assert a == b


def test_forward_step_the_schema_rejects_raises():
    # an eex forward reader that names a component pair that is not there
    calc = _calc("goedel-bad-eex", GODEL, _MIN_MAX_RULES)
    calc.table[Rule.EEX].forward = lambda calc, rng, h: ({"i": len(h.components)}, h)
    with pytest.raises(SchemaMismatch, match="eex: adjacent component index"):
        random_derivation(calc, "bad", 2)


def test_forward_step_without_a_leaf_is_dropped():
    # three mix steps on a one-component tree p |- p: psi |- psi after it,
    # which init closes; psi |- chi after it, which no axiom closes; and
    # psi |- psi before it, whose first premise is not tree's conclusion
    calc = _calc("init-mix", LUKASIEWICZ, (_INIT, _MIX))
    p, psi, chi = (_atom(i, calc.profile) for i in (3, 1, 2))
    tree = ProofTree(Hypersequent([Sequent((p,), (p,))]),
                     RuleInstance(Rule.INIT, {"c": 0}))
    steps = {
        "after": ({"c": 0, "k1": 1, "k2": 1}, [Sequent((p, psi), (p, psi))]),
        "unclosed": ({"c": 0, "k1": 1, "k2": 1}, [Sequent((p, psi), (p, chi))]),
        "before": ({"c": 0, "k1": 1, "k2": 1}, [Sequent((psi, p), (psi, p))]),
    }
    kept = {}
    for name, (params, comps) in steps.items():
        step = params, Hypersequent(comps)
        calc.table[Rule.MIX].forward = lambda calc, rng, h: step
        kept[name] = _extend_candidates(calc, random.Random(0), tree)
    assert kept["unclosed"] == []
    (after,), (before,) = kept["after"], kept["before"]
    init = RuleInstance(Rule.INIT, {"c": 0})
    assert after.premises[0] is tree
    assert [(t.conclusion, t.rule) for t in after.premises[1:]] == [
        (Hypersequent([Sequent((psi,), (psi,))]), init)]
    # a first premise that is not tree's conclusion is closed by a leaf too
    assert [(t.conclusion, t.rule) for t in before.premises] == [
        (Hypersequent([Sequent((psi,), (psi,))]), init), (tree.conclusion, init)]
    for step in (after, before):
        check_proof(calc, step)


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_forward_candidates_pass_the_schema(name):
    # 200 seeded forward candidates of each rule with premises, each read
    # from the conclusion of a random derivation: each passes the schema,
    # its first premise is that conclusion, and each rule keeps one at least
    calc = CALCULI[name]
    rng = random.Random(f"forward/{name}")
    trees = [random_derivation(calc, f"forward/{i}", 1 + i % 6) for i in range(200)]
    for spec in calc.table.values():
        if spec.axiom:
            continue
        read = kept = 0
        for tree in trees:
            step = spec.forward(calc, rng, tree.conclusion)
            if step is None:
                continue
            read += 1
            params, conclusion = step
            premises = premises_for(calc, RuleInstance(spec.rule, params), conclusion)
            assert premises[0] == tree.conclusion, (spec.rule, params)
            kept += all(calculus._leaf_for(calc, p) for p in premises[1:])
        assert kept > 0, (spec.rule, read)


def test_soundness_fuzz_report_shape():
    rep = soundness_fuzz(LUKA, 50, 5, "x")
    assert rep["passed"] and rep["violations"] == []
    assert rep["trials"] == 50
    assert sorted(rep["applied"]) == sorted(rule.value for rule in LUKA.rules)
    # one axiom leaf at least per derivation
    assert sum(rep["applied"][r] for r in ("botl", "emp", "init")) >= 50


@pytest.mark.parametrize("depth", [0, -3])
def test_soundness_fuzz_rejects_depth_below_one(depth):
    with pytest.raises(ValidationError, match="depth must be >= 1"):
        soundness_fuzz(GOEDEL, 10, depth, "x")


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_rule_local_soundness_fast_sweep(name):
    calc = CALCULI[name]
    for rule in sorted(calc.rules, key=lambda r: r.value):
        rep = rule_local_soundness(calc, rule, 150, "sweep")
        assert rep["passed"], (name, rule.value, rep["violations"][:1])
        assert rep["premises_held"] > 0, (name, rule.value)


def _dropped(template, keep):
    """The template with only its premise at index keep."""
    conclusion, premises = template.text.split("/")
    return template._replace(text=f"{conclusion}/{premises.split(';')[keep]}")


# Planted unsound rules: (calculus, rule, the one premise a drop-premise
# mutant keeps) -> ("killed", by criterion 7's trials) or ("equivalent",
# with the argument).
MUTANTS = {
    ("dl2", "limpl", 0): ("equivalent", "G |- D gives G, A -> B |- D, since "
                          "[A -> B] <= 0 (the comment at _LIMPL_DL2)"),
    ("dl2", "limpl", 1): ("equivalent", "G, B |- A, D gives G, A -> B |- D "
                          "where a >= b and where a < b (ibid.)"),
}


@pytest.mark.parametrize("keep", [0, 1])
def test_dl2_limpl_is_sound_with_either_premise_alone(keep):
    """Both drop-premise mutants of DL2 limpl are equivalent (MUTANTS):
    criterion 7's trials find no violation."""
    assert MUTANTS["dl2", "limpl", keep][0] == "equivalent"
    dl2 = CALCULI["dl2"]
    templates = [s.template for s in dl2.table.values() if s.rule is not Rule.LIMPL]
    calc = _calc("dl2", DL2, templates + [_dropped(_LIMPL_DL2, keep)])
    inst, conclusion = calc.table[Rule.LIMPL].drawn(calc, random.Random(0))
    assert len(premises_for(calc, inst, conclusion)) == 1
    rep = rule_local_soundness(calc, Rule.LIMPL, 1000, "acceptance")
    assert rep["violations"] == [] and rep["premises_held"] > 0


@pytest.mark.parametrize("text, message", [
    ("G1^k1, G2 |- D / G1 |- A", "A is not bound by the conclusion"),
    ("G1^k, G2 |- D1^k, D2 / G1 |- D1 ; G2 |- D2", "param k named twice"),
    ("G1, G2 |- D / G1 |- D", "split with no param name"),
    ("G1^, G2 |- D / G1 |- D", "want a name or name\\^param"),
    ("G1^pos, F, G2 |- D / G1, G2 |- D", "only an axiom tests formulas"),
    # read forward, the premise's antecedent splits into two lists of free length
    ("G1^k1, G2 |- D1^k2, D2 / G1, G2, D1 |- D2", "mix: want one list with no param"),
])
def test_a_malformed_template_raises(text, message):
    with pytest.raises(ValueError, match=message):
        _calc("bad", LUKASIEWICZ, (_INIT, Template(Rule.MIX, text)))


# Scratch templates whose premises hold T or F, as the Łukasiewicz ⊙ rules of
# Metcalfe, Olivetti & Gabbay (ACM TOCL 6(3), 2005) do.
CONSTANT_PREMISES = [
    "G |- D / G, F |- D",
    "G |- D / G |- T, D",
    "G1^pos, A * B, G2 |- D / G1, A, B, G2 |- D ; G1, F, G2 |- D",
]


@pytest.mark.parametrize("text", CONSTANT_PREMISES)
def test_a_premise_holding_a_constant_reads_alike_every_way(text):
    """On a drawn instance the schema's premises hold the constant, tries
    lists them for that instance, and forward reads the first back into an
    instance whose first premise it is."""
    calc = _calc("scratch", LUKASIEWICZ, (_INIT, Template(Rule.LIMPL, text)))
    spec = calc.table[Rule.LIMPL]
    const = BoolConst("T" in text.split("/", 1)[1], calc.profile)
    rng = random.Random(text)
    for _ in range(50):
        inst, h = spec.drawn(calc, rng)
        premises = premises_for(calc, inst, h)
        assert any(const in s.left + s.right for p in premises for s in p.components)
        q = {} if spec.left is None else spec.where(inst.params["c"], inst.params["pos"])
        listed = [i.params for i in spec.instances(h.components, q)]
        tried = list(spec.tries(h.components, q))[listed.index(inst.params)]
        assert [Hypersequent([Sequent(*s) if type(s) is tuple else s for s in p])
                for p in tried] == premises
        params, conclusion = spec.forward(calc, rng, premises[0])
        again = premises_for(calc, RuleInstance(Rule.LIMPL, params), conclusion)
        assert again[0] == premises[0]


def golden_values(name):
    """(derivation digest, premises held per rule) pinned below."""
    calc = CALCULI[name]
    digest = hashlib.sha256()
    for i in range(200):
        tree = random_derivation(calc, f"golden/{i}", 1 + i % 6)
        doc = proof_to_json(name, tree)
        digest.update(json.dumps(doc, sort_keys=True).encode())
    held = {
        rule.value: rule_local_soundness(calc, rule, 50, "golden")["premises_held"]
        for rule in sorted(calc.rules, key=lambda r: r.value)
    }
    return digest.hexdigest(), held


# Sampled derivations and rule-local trials are functions of the seed alone:
# the same rng draws in the same order give the same trees.  A refactor of
# the rule table must keep these values; a change that alters the sampling on
# purpose regenerates them (see the assertion message), and with them the two
# pins of the search on sampled goals below, ROUND_TRIP_MISSES and
# SEARCH_DIGEST, whose goals are random derivations too.
GOLDEN = {
    "dl2": (
        "964c17b0f0f73efb6dd4616518f589147d58b8ce03911f704944e02b0f71721c",
        {"com": 42, "ec": 45, "eex": 50, "emp": 50, "ew": 43, "init": 50,
         "land": 47, "lex": 47, "limpl": 36, "lodot": 49, "lor": 45,
         "rand": 37, "rex": 31, "rimpl": 32, "rodot": 36, "ror": 41,
         "topr": 50, "weakl": 41},
    ),
    "goedel": (
        "2552cb344ce1265605853b0bc231a6d53b3dae5297fc49e2eecc31bc6b6928f0",
        {"botl": 50, "com": 29, "contrl": 41, "ec": 35, "eex": 35, "ew": 29,
         "init": 50, "land": 41, "lex": 42, "limpl": 35, "lor": 37,
         "rand": 30, "rex": 45, "rimpl": 39, "ror": 39, "topr": 50,
         "weakl": 30},
    ),
    "lukasiewicz": (
        "a6ed09f6a5f44ce88c6cf6011dffe39bde9c71952ee0ee5b44332a403ea27132",
        {"botl": 50, "ec": 44, "eex": 49, "emp": 50, "ew": 41, "init": 50,
         "lex": 50, "limpl": 41, "mix": 37, "rex": 29, "rimpl": 32,
         "split": 39, "weakl": 43},
    ),
    "product": (
        "bee4486419623f2da81c21aa4f171920183b7b3771f378bac86ef31eafd264ca",
        {"botl": 50, "ec": 40, "eex": 48, "emp": 50, "ew": 37, "init": 50,
         "lex": 47, "limpl": 43, "lneg": 42, "lodot": 47, "mix": 38,
         "rex": 35, "rimpl": 35, "rodot": 32, "split": 39, "weakl": 43},
    ),
    "stl-inf": (
        "df8caaeb6a1d17649b3fc46aec0181a3172a74c3cb0b97d5f4b6775ab5048ecf",
        {"botl": 50, "com": 27, "contrl": 41, "ec": 28, "eex": 31, "ew": 24,
         "init": 50, "land": 38, "lex": 33, "limpl": 26, "lor": 34,
         "rand": 23, "rex": 45, "rimpl": 36, "ror": 35, "topr": 50,
         "weakl": 25},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sampling_golden_equivalence(name):
    got = golden_values(name)
    assert got == GOLDEN[name], (
        f"sampled derivations or rule-local trials of {name} changed; if that "
        "is intended, print the new values with  PYTHONPATH=src:tests python "
        f"-c \"from test_calculus import golden_values; "
        f"print(golden_values('{name}'))\"  and update GOLDEN"
    )


class TestSearch:
    def test_identity(self):
        p = goedel_atom()
        goal = Hypersequent([Sequent((p,), (p,))])
        tree = prove_bounded(GOEDEL, goal, 4)
        assert tree is not None
        check_proof(GOEDEL, tree)

    def test_projection_implication(self):
        p, q = goedel_atom(1), goedel_atom(2)
        goal = Hypersequent([Sequent((), (Impl(And((p, q)), p),))])
        tree = prove_bounded(GOEDEL, goal, 8)
        assert tree is not None
        check_proof(GOEDEL, tree)

    def test_unprovable_within_budget(self):
        p, q = goedel_atom(1), goedel_atom(2)
        goal = Hypersequent([Sequent((p,), (q,))])
        assert prove_bounded(GOEDEL, goal, 6) is None


@pytest.mark.parametrize("name", ["dl2", "stl-inf"])
def test_weak_completeness_all_goals(name):
    calc = CALCULI[name]
    rep = weak_completeness_suite(calc, depth_budget=12)
    assert rep["passed"], rep["goals"]
    assert len(rep["goals"]) == 17  # 9 axioms, both directions except one


def _axiom_expr(t, xs, top):
    """An AXIOMS term as a formula over the atoms xs and truth top."""
    if type(t) is int:
        return xs[t]
    if t == "top":
        return top
    kind, *args = t
    kids = tuple(_axiom_expr(a, xs, top) for a in args)
    return {"and": And, "or": Or, "mand": MAnd}[kind](kids)


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_weak_completeness_goals_are_the_lattice_axioms(name):
    calc = CALCULI[name]
    xs = [_atom(i, calc.profile) for i in (1, 2, 3)]
    top = BoolConst(True, calc.profile)
    want = []
    for axiom in [f"R{i}" for i in range(1, 10)]:
        relation, lhs, rhs = AXIOMS[axiom]
        lhs, rhs = _axiom_expr(lhs, xs, top), _axiom_expr(rhs, xs, top)
        want.append((axiom, "le", Hypersequent([Sequent((lhs,), (rhs,))])))
        if relation == "eq":
            want.append((axiom, "ge", Hypersequent([Sequent((rhs,), (lhs,))])))
    assert weak_completeness_goals(calc) == want


def test_weak_completeness_goal_list():
    goals = weak_completeness_goals(DL2C)
    axioms = {g[0] for g in goals}
    assert axioms == {f"R{i}" for i in range(1, 10)}
    directions = [g[1] for g in goals if g[0] == "R7"]
    assert directions == ["le"]  # stated as an inequality only


# Proof depth per weak-completeness goal, in weak_completeness_goals order
# (R1-le, R1-ge, ..., R7-le, R8-le, R8-ge, R9-le, R9-ge); None marks a goal
# the search fails within the budget.  The depths depend on the order in
# which the search tries rule instances, so a change to that order shows here.
# The Goedel and STL-inf calculi find the same proofs.
_GOEDEL_DEPTHS = {
    6: (5, 5, 7, 7, 3, 3, 5, 5, 2, 3, 3, 2, None, 7, 7, 2, 2),
    8: (5, 5, 9, 8, 3, 3, 5, 5, 2, 3, 3, 2, 9, 9, 8, 2, 2),
    12: (5, 5, 10, 10, 3, 3, 5, 5, 2, 3, 3, 2, 11, 10, 10, 2, 2),
}
WEAK_COMPLETENESS_DEPTHS = {
    "goedel": _GOEDEL_DEPTHS,
    "stl-inf": _GOEDEL_DEPTHS,
    "dl2": {
        6: (5, 5, 7, 7, 3, 3, 5, 5, 2, 3, 3, 2, None, 5, 5, 3, 2),
        8: (5, 5, 9, 8, 3, 3, 5, 5, 2, 3, 3, 2, 9, 5, 5, 3, 2),
        12: (5, 5, 10, 10, 3, 3, 5, 5, 2, 3, 3, 2, 11, 5, 5, 3, 2),
    },
    "lukasiewicz": dict.fromkeys((6, 8, 12), (None,) * 17),
    "product": dict.fromkeys((6, 8, 12), (None,) * 13 + (7, 7, 4, None)),
}


@pytest.mark.parametrize("name", sorted(WEAK_COMPLETENESS_DEPTHS))
def test_weak_completeness_pinned_depths(name):
    for budget, depths in WEAK_COMPLETENESS_DEPTHS[name].items():
        rep = weak_completeness_suite(CALCULI[name], depth_budget=budget)
        got = [(g["status"], g["depth"]) for g in rep["goals"]]
        want = [("failed", None) if d is None else ("found", d) for d in depths]
        assert got == want, (name, budget)


class TestExtendedRuleFixture:
    """The bundled admissibility witness of the extended left-implication
    rule, ``limpl_ext_luka.json``.

    The rule concludes  H | Gamma, phi0 => phi1 |- Delta  from the single
    premise  H | Gamma |- Delta | H | Gamma, phi1 |- phi0, Delta.  The
    fixture instantiates it with concrete formulas and rebuilds it from the
    ordinary left-implication rule, weakening, and external contraction, so
    it re-checks under the Łukasiewicz calculus.
    """

    @pytest.fixture()
    def tree(self):
        name, tree = load_proof(str(fixtures_dir() / "limpl_ext_luka.json"))
        assert name == "lukasiewicz"
        return tree

    def test_rechecks_under_lukasiewicz(self, tree):
        check_proof(LUKA, tree)

    def test_uses_external_contraction(self, tree):
        rules = set()

        def visit(t):
            rules.add(t.rule.rule)
            for p in t.premises:
                visit(p)

        visit(tree)
        assert Rule.EC in rules and Rule.LIMPL in rules

    def test_extended_rule_is_not_a_calculus_member(self):
        # the fixture is built from ordinary rules; "limplext" names no rule
        assert "limplext" not in {rule.value for rule in Rule}


def _lex_tower(tree: ProofTree, steps: int) -> ProofTree:
    """tree under `steps` left exchanges at c=0, pos=0."""
    for _ in range(steps):
        s = tree.conclusion.components[0]
        tree = ProofTree(
            Hypersequent([Sequent(s.left[::-1], s.right)]),
            RuleInstance(Rule.LEX, {"c": 0, "pos": 0}),
            (tree,),
        )
    return tree


def _goedel_projection(i: int) -> ProofTree:
    """A Gödel proof of x, y ⊢ x (i = 0) or x, y ⊢ y (i = 1)."""
    x, y = goedel_atom(1), goedel_atom(2)
    tree = prove_bounded(GOEDEL, Hypersequent([Sequent((x, y), ((x, y)[i],))]), 4)
    assert tree is not None
    return tree


def _stack_depth() -> int:
    """Frames on the caller's stack."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _nth_premise(tree: ProofTree, path) -> ProofTree:
    for i in path:
        tree = tree.premises[i]
    return tree


class TestDeepProofs:
    """Checking and serialization do not recurse on the proof's depth."""

    def test_3000_step_proof_checks_and_serializes(self):
        base = _goedel_projection(0)
        tree = _lex_tower(base, 3000)
        check_proof(GOEDEL, tree)
        doc = proof_to_json("goedel", tree)
        node = doc["tree"]
        for _ in range(3000):
            assert node["rule"] == {"id": "lex", "params": {"c": 0, "pos": 0}}
            (node,) = node["premises"]
        assert node == proof_to_json("goedel", base)["tree"]

    def test_proof_deeper_than_the_recursion_limit_writes_without_nesting(
            self, tmp_path):
        # The 500-step proof is written under a recursion limit about 50
        # frames above this test's depth, so a writer that nests a frame per
        # level, as the library's indenting encoder does (whose time grows
        # with the square of the depth), fails here.  The indented text
        # grows with the square of the depth too: 36 MB here, and 1.3 GB
        # for the 3,000-step proof, which is too large to write in a test.
        doc = proof_to_json("goedel", _lex_tower(_goedel_projection(0), 500))
        out = tmp_path / "proof.json"
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 50)
        try:
            _emit(doc, str(out))
        finally:
            sys.setrecursionlimit(limit)
        sys.setrecursionlimit(10_000)  # json.dumps nests per level
        try:
            assert out.read_text() == json.dumps(doc, indent=2) + "\n"
        finally:
            sys.setrecursionlimit(limit)

    def test_3000_step_proof_round_trips(self):
        tree = _lex_tower(_goedel_projection(0), 3000)
        assert _tree_depth(tree) == 3002  # 3,000 lex nodes over weakl, init
        name, back = proof_from_json(proof_to_json("goedel", tree))
        assert name == "goedel" and _tree_depth(back) == 3002
        # node by node: == on the trees themselves recurses
        pairs = [(tree, back)]
        while pairs:
            a, b = pairs.pop()
            assert (a.conclusion, a.rule) == (b.conclusion, b.rule)
            assert len(a.premises) == len(b.premises)
            pairs.extend(zip(a.premises, b.premises))
        check_proof(GOEDEL, back)

    @pytest.mark.parametrize("command", ["check", "search"])
    def test_document_too_deep_for_json_is_input_error(self, tmp_path, capsys,
                                                       command):
        depth = 100_000
        path = tmp_path / "deep.json"
        if command == "check":
            path.write_text('{"version": "dlc-proof/1", "calculus": "goedel", '
                            '"tree": ' + '{"premises": [' * depth
                            + "]}" * depth + "}")
            argv = ["proof", "check", str(path)]
        else:
            path.write_text('{"components": ' + "[" * depth + "]" * depth + "}")
            argv = ["proof", "search", "--calculus", "goedel", "--goal",
                    str(path)]
        assert run(argv) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_not_over_a_real_literal_is_validation_error(self):
        # ill-typed at the innermost Not; test_core decodes a well-typed
        # formula of this depth
        formula = {"kind": "real", "value": 1.0}
        for _ in range(5000):
            formula = {"kind": "not", "child": formula}
        with pytest.raises(ValidationError):
            goal_from_json({"components": [{"left": [formula], "right": []}]})

    def test_serialization_matches_the_recursive_form(self):
        def recursive(t):
            return {
                "conclusion": _hyper_to_json(t.conclusion),
                "rule": {"id": t.rule.rule.value, "params": dict(t.rule.params)},
                "premises": [recursive(p) for p in t.premises],
            }

        for seed in range(10):
            tree = random_derivation(GOEDEL, f"json/{seed}", 5)
            got = proof_to_json("goedel", tree)["tree"]
            assert json.dumps(got) == json.dumps(recursive(tree))

    def test_first_bad_node_in_pre_order_reports_its_path(self):
        x, y = goedel_atom(1), goedel_atom(2)
        tree = ProofTree(
            Hypersequent([Sequent((x, y), (And((x, y)),))]),
            RuleInstance(Rule.RAND, {"c": 0, "pos": 0}),
            (_lex_tower(_goedel_projection(0), 2000),
             _lex_tower(_goedel_projection(1), 2000)),
        )
        check_proof(GOEDEL, tree)
        # a deep bad node under premise 0 comes before a shallow one under
        # premise 1 in pre-order
        deep = (0,) + (0,) * 1500
        shallow = (1,) + (0,) * 10
        for path in (deep, shallow):
            _nth_premise(tree, path).rule.params["pos"] = 1
        with pytest.raises(SchemaMismatch) as info:
            check_proof(GOEDEL, tree)
        assert info.value.path == deep
        _nth_premise(tree, deep).rule.params["pos"] = 0
        with pytest.raises(SchemaMismatch) as info:
            check_proof(GOEDEL, tree)
        assert info.value.path == shallow


class TestHashCache:
    """Sequents and hypersequents are plain frozen values: they hash and
    compare by their fields, and cache nothing that a copy could carry."""

    @staticmethod
    def build():
        p, q = goedel_atom(1), goedel_atom(2)
        s = Sequent((p, Impl(p, q)), (q,))
        return s, Hypersequent([s, Sequent((), (p,))])

    def test_equal_objects_built_apart_hash_equal(self):
        (s1, h1), (s2, h2) = self.build(), self.build()
        assert s1 is not s2 and s1.left[0] is not s2.left[0]
        assert s1 == s2 and hash(s1) == hash(s2)
        assert h1 == h2 and hash(h1) == hash(h2)
        assert hash(h1) == hash(h1) and h1 != Hypersequent([s1])

    def test_repr_is_the_dataclass_repr(self):
        s, h = self.build()
        p = s.right[0]
        before = repr(h)
        assert repr(Sequent((), (p,))) == f"Sequent(left=(), right=({p!r},))"
        assert before == f"Hypersequent(components=({s!r}, {h.components[1]!r}))"
        hash(h)
        assert repr(h) == before

    @pytest.mark.parametrize("attr", ["left", "right"])
    def test_sequent_is_immutable(self, attr):
        s, _ = self.build()
        hash(s)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, attr, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(s, attr)
        with pytest.raises(AttributeError):
            s.other = 1

    @pytest.mark.parametrize("attr", ["components"])
    def test_hypersequent_is_immutable(self, attr):
        _, h = self.build()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(h, attr, ())
        with pytest.raises(AttributeError):
            h.other = 1

    @pytest.mark.parametrize("trip, deep", [
        (lambda x: pickle.loads(pickle.dumps(x)), True), (copy.deepcopy, True),
        (copy.copy, False),  # a shallow copy shares the components
    ], ids=["pickle", "deepcopy", "copy"])
    def test_round_trip_carries_no_cached_hash(self, trip, deep):
        (s, h), (_, fresh) = self.build(), self.build()
        hash(h)
        back = trip(h)
        assert (back.components[0] is not s) == deep
        assert back == h and hash(back) == hash(h)
        assert pickle.dumps(h) == pickle.dumps(fresh)


class TestSerialization:
    def test_round_trip(self):
        tree = random_derivation(LUKA, "ser", 5)
        doc = proof_to_json("lukasiewicz", tree)
        name, back = proof_from_json(doc)
        assert name == "lukasiewicz" and back == tree

    def test_bundled_fixtures_recheck(self):
        root = fixtures_dir()
        for entry in ("init_goedel.json", "limpl_ext_luka.json"):
            name, tree = load_proof(str(root / entry))
            check_proof(CALCULI[name], tree)

    def test_version_gate(self):
        with pytest.raises(Exception):
            proof_from_json({"version": "other/9", "calculus": "dl2", "tree": {}})

    @pytest.mark.parametrize("mangle", ["top_level_list", "unknown_rule",
                                        "non_integer_param", "params_as_pairs",
                                        "non_numeric_real",
                                        "premises_not_objects",
                                        "premises_not_a_list"])
    def test_malformed_document_is_validation_error(self, mangle):
        doc = proof_to_json("lukasiewicz", random_derivation(LUKA, "bad", 3))
        tree = doc["tree"]
        if mangle == "top_level_list":
            doc = [1]
        elif mangle == "unknown_rule":
            tree["rule"]["id"] = "nope"
        elif mangle == "non_integer_param":
            tree["rule"]["params"]["c"] = "0"
        elif mangle == "params_as_pairs":
            tree["rule"]["params"] = [[1, 0], ["c", 0]]
        elif mangle == "non_numeric_real":
            tree["conclusion"][0]["left"] = [{"kind": "real", "value": "x"}]
        elif mangle == "premises_not_a_list":
            tree["premises"] = {}
        else:
            tree["premises"] = [1]
        with pytest.raises(ValidationError):
            proof_from_json(doc)


# ---------------------------------------------------------------------------
# Search against the reference search


def _reference_leaf(calc, h):
    for c, s in enumerate(h.components):
        for spec in calc.axioms:
            params = spec.match(s)
            if params is not None:
                return ProofTree(h, RuleInstance(spec.rule, {"c": c, **params}), ())
    return None


def _reference_instances(calc, h):
    logical = []
    for c, s in enumerate(h.components):
        for left, specs in calc.logical.items():
            x = s.left if left else s.right
            for pos, f in enumerate(x):
                for spec in specs:
                    if spec.matches(f) and (len(x) == 1 or not spec.sole):
                        logical += spec.search_at(s, c, pos)
    structural = []
    for rule in _SEARCH_ORDER:
        if rule in calc.table:
            structural += calc.table[rule].search(h)
    return logical, structural


def _reference_prove_bounded(calc, goal, depth_budget):
    """prove_bounded without its per-call tables: every node re-matches each
    component against every rule, and every premise is checked against the
    path, also at budget 1."""
    _validate(calc, goal)
    failed = {}

    def search(h, budget, streak, path):
        if budget > 0 and failed.get(h, -1) >= budget:
            return None
        leaf = _reference_leaf(calc, h)
        if leaf is not None:
            return leaf
        if budget <= 0:
            return None
        logical, structural = _reference_instances(calc, h)
        candidates = [(inst, False) for inst in logical]
        if streak < _STREAK_CAP:
            candidates += [(inst, True) for inst in structural]
        below = path | {h}
        for inst, is_structural in candidates:
            try:
                premises = premises_for(calc, inst, h)
            except (SchemaMismatch, RuleNotInCalculus):
                continue
            if any(p in path for p in premises):
                continue
            subtrees = []
            next_streak = streak + 1 if is_structural else 0
            for p in premises:
                sub = search(p, budget - 1, next_streak, below)
                if sub is None:
                    break
                subtrees.append(sub)
            else:
                return ProofTree(h, inst, tuple(subtrees))
        prev = failed.get(h, -1)
        if budget > prev:
            failed[h] = budget
        return None

    return search(goal, depth_budget, 0, frozenset())


def _proof_bytes(calc, tree):
    if tree is None:
        return None
    return json.dumps(proof_to_json(calc.name, tree)).encode()


def _assert_search_matches_reference(calc, goal, budget):
    want = _proof_bytes(calc, _reference_prove_bounded(calc, goal, budget))
    got = _proof_bytes(calc, prove_bounded(calc, goal, budget))
    assert got == want, (calc.name, _hyper_to_json(goal), budget)


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_search_matches_reference_on_weak_completeness_goals(name):
    calc = CALCULI[name]
    for _, _, goal in weak_completeness_goals(calc):
        for budget in range(13):
            _assert_search_matches_reference(calc, goal, budget)


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_search_matches_reference_on_derived_goals(name):
    calc = CALCULI[name]
    for i in range(40):  # 200 conclusions over the five calculi
        goal = random_derivation(calc, f"diff/{i}", 1 + i % 4).conclusion
        for budget in range(1, 7):
            _assert_search_matches_reference(calc, goal, budget)


def test_search_keeps_no_table_across_calls():
    # the empty sequent is an emp axiom in Lukasiewicz but not in Goedel,
    # so a table kept across calls or calculi would answer wrongly
    goal = Hypersequent([Sequent((), ())])
    for calc in (LUKA, GOEDEL, LUKA, GOEDEL):
        _assert_search_matches_reference(calc, goal, 3)
        tree = prove_bounded(calc, goal, 3)
        assert (tree is not None) == (calc is LUKA)
    # p |- closes at budget 1 by weakl (a spec both calculi share) and emp
    # in Lukasiewicz only; both calculi read p with the same flag profile
    assert LUKA.profile == GOEDEL.profile
    goal = Hypersequent([Sequent((goedel_atom(1),), ())])
    for calc in (LUKA, GOEDEL, LUKA, GOEDEL):
        _assert_search_matches_reference(calc, goal, 1)
        tree = prove_bounded(calc, goal, 1)
        assert (tree is not None) == (calc is LUKA)


def _component_pool(calc):
    """Sequents that close, or not, by one rule step under some calculus;
    each call builds new objects."""
    p, q = _atom(1, calc.profile), _atom(2, calc.profile)
    return [
        Sequent((p,), (q,)), Sequent((q,), (p,)), Sequent((p, q), (p,)),
        Sequent((p,), ()), Sequent((), (p,)), Sequent((And((p, q)),), (p,)),
    ]


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_search_matches_reference_on_repeated_and_swapped_components(name):
    # the frontier tables are keyed by one component or an adjacent pair:
    # a component repeated (the same object, or equal and built apart) and
    # a pair next to its swap look the same entries up again
    calc = CALCULI[name]
    pool, apart = _component_pool(calc), _component_pool(calc)
    for i, x in enumerate(pool):
        for y in pool:
            for comps in ([x, y, x], [x, y, apart[i]], [x, y, y, x],
                          [y, x, apart[i], y]):
                goal = Hypersequent(comps)
                for budget in (1, 2, 3):
                    _assert_search_matches_reference(calc, goal, budget)


def _axiom_test_pool(calc, rng):
    """Components drawn by _rand_sequent, and hand-made ones with falsum and
    verum at several positions."""
    p, q = _atom(1, calc.profile), _atom(2, calc.profile)
    bot, top = BoolConst(False, calc.profile), BoolConst(True, calc.profile)
    made = [
        Sequent((p,), (p,)), Sequent((p, q), (p,)), Sequent((p,), (p, q)),
        Sequent((), ()), Sequent((bot,), ()), Sequent((bot,), (q,)),
        Sequent((p, bot), (q,)), Sequent((bot, p, q), (q, p)),
        Sequent((p, q, bot), (top,)), Sequent((p, bot, q), ()),
        Sequent((p,), (top,)), Sequent((), (p, top)), Sequent((q,), (top, p)),
        Sequent((top, bot), (top, p, q)), Sequent((top,), (bot,)),
    ]  # fmt: skip
    return made + [_rand_sequent(calc, rng) for _ in range(300)]


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_axiom_tests_ignore_the_order_within_a_side(name):
    # lex and rex are not tried at the frontier (Window) because of this
    calc = CALCULI[name]
    for s in _axiom_test_pool(calc, random.Random(f"perm/{name}")):
        for left, right in itertools.product(
            itertools.permutations(s.left), itertools.permutations(s.right)
        ):
            t = Sequent(left, right)
            for spec in calc.axioms:
                assert (spec.match(t) is None) == (spec.match(s) is None), (
                    name, spec.rule.value, s, t
                )


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_windows_that_are_not_fresh_create_no_axiom(name):
    # a frontier node has no axiom component, and windows that are not
    # fresh are skipped there: none of their premises may have one
    calc = CALCULI[name]
    rng = random.Random(f"fresh/{name}")
    pool = [
        s for s in _axiom_test_pool(calc, rng) if _axiom_match(calc, s) is None
    ]
    stale = [r for r in _SEARCH_ORDER
             if r in calc.table and not calc.table[r].window.fresh]
    assert {Rule.LEX, Rule.REX, Rule.EEX, Rule.EW} <= set(stale)
    tried = 0
    for _ in range(300):
        h = Hypersequent(rng.sample(pool, rng.randint(1, 3)))
        for rule in stale:
            for inst in calc.table[rule].search(h):
                tried += 1
                for p in premises_for(calc, inst, h):
                    assert all(_axiom_match(calc, s) is None for s in p.components), (
                        name, inst, _hyper_to_json(h)
                    )
    assert tried > 300


def _pinned_goal(calc, i):
    p, q, r = (_atom(k, calc.profile) for k in (1, 2, 3))
    return Hypersequent([
        [Sequent((p, q), (r,)), Sequent((q,), ())],
        [Sequent((), (p, q)), Sequent((r, p, q), (MAnd((p, q)),)), Sequent((p,), (p,))],
        [Sequent((p,), (MAnd((p, q)), q))],
        [Sequent((p,), (p,)), Sequent((), (And((p, q)),)), Sequent((q, And((p, q))), (p,))],
    ][i])  # fmt: skip


# (calculus, goal, rule, (c, pos) of a logical rule's principal formula):
# (param names, the params of each instance search lists, in order), as
# written out from the search methods the rules had before their params
# were declared; the weakl rows list every block size, which search tries
# since it stopped offering k = 1 alone
PINNED_INSTANCES = {
    ("dl2", 0, "com", None): ("c k1 k2", [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 2, 0), (0, 2, 1)]),
    ("dl2", 1, "com", None): ("c k1 k2", [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (1, 0, 0), (1, 0, 1),
        (1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 1), (1, 3, 0), (1, 3, 1)]),
    ("dl2", 2, "com", None): ("c k1 k2", []),
    ("dl2", 0, "lex", None): ("c pos", [(0, 0)]),
    ("dl2", 1, "lex", None): ("c pos", [(1, 0), (1, 1)]),
    ("dl2", 0, "rex", None): ("c pos", []),
    ("dl2", 1, "rex", None): ("c pos", [(0, 0)]),
    ("dl2", 0, "eex", None): ("i", [(0,)]),
    ("dl2", 1, "eex", None): ("i", [(0,), (1,)]),
    ("dl2", 2, "eex", None): ("i", []),
    ("dl2", 0, "weakl", None): ("c k", [(0, 1), (0, 2), (1, 1)]),
    ("dl2", 1, "weakl", None): ("c k", [(1, 1), (1, 2), (1, 3), (2, 1)]),
    ("dl2", 2, "weakl", None): ("c k", [(0, 1)]),
    ("dl2", 1, "ew", None): ("k", [(1,)]),
    ("dl2", 2, "ew", None): ("k", []),
    ("dl2", 1, "rodot", (1, 0)): ("c pos k1 k2", [
        (1, 0, 0, 0), (1, 0, 1, 0), (1, 0, 2, 0), (1, 0, 3, 0)]),
    ("dl2", 2, "rodot", (0, 0)): ("c pos k1 k2", [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1)]),
    ("dl2", 3, "rand", (1, 0)): ("c pos", [(1, 0)]),
    ("goedel", 3, "rand", (1, 0)): ("c", [(1,)]),
    ("goedel", 3, "land", (2, 1)): ("c pos", [(2, 1)]),
    ("lukasiewicz", 0, "split", None): ("c", [(0,)]),
    ("lukasiewicz", 1, "split", None): ("c", [(0,), (1,)]),
    ("lukasiewicz", 0, "mix", None): ("c k1 k2", [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 2, 0), (0, 2, 1),
        (1, 0, 0), (1, 1, 0)]),
    ("lukasiewicz", 2, "mix", None): ("c k1 k2", [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]),
}


@pytest.mark.parametrize("key", sorted(PINNED_INSTANCES, key=str), ids=str)
def test_search_lists_the_pinned_instances_in_order(key):
    # _reference_prove_bounded lists instances by the same methods, so only
    # this pin catches a change of their order
    name, i, rule, at = key
    calc, h = CALCULI[name], _pinned_goal(CALCULI[name], i)
    spec = calc.table[Rule(rule)]
    if at is None:
        got = spec.search(h)
    else:
        got = spec.search_at(h.components[at[0]], *at)
    names, values = PINNED_INSTANCES[key]
    assert [inst.rule for inst in got] == [spec.rule] * len(got)
    assert [inst.params for inst in got] == [
        dict(zip(names.split(), v)) for v in values]


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_declared_bounds_are_the_range_the_schema_takes(name):
    # on drawn conclusions, every instance search lists passes the schema,
    # and each param one below the least value listed, or one above the
    # greatest, is out of range.  A logical rule's or an axiom's conclusion
    # is copies of its drawn component c, whose side with the formula at
    # "pos" (botl's falsum: the antecedent) is copies of that formula, so
    # that every "c" and "pos" is listed; an axiom lists what it matches.
    calc = CALCULI[name]
    rng = random.Random(f"bounds/{name}")
    reached, named = set(), set()
    for spec in calc.table.values():
        for _ in range(30):
            inst, h = spec.drawn(calc, rng)
            named.update((spec.rule, k) for k in inst.params)
            comps = h.components
            if spec.left is None and not spec.axiom:
                listed = list(spec.instances(comps, {}))
            else:
                s, pos = comps[inst.params["c"]], inst.params.get("pos")
                left = spec.left is not False
                x = s.left if left else s.right
                if pos is not None:
                    x = (x[pos],) * len(x)
                    s = Sequent(x, s.right) if left else Sequent(s.left, x)
                comps = (s,) * len(comps)
                at = [(c, p) for c in range(len(comps))
                      for p in (range(len(x)) if pos is not None else [0])]
                listed = [RuleInstance(spec.rule, {"c": c, **spec.match(s, p)})
                          for c, p in at] if spec.axiom else [
                          i for c, p in at for i in spec.search_at(s, c, p)]
            h = Hypersequent(comps)
            for i in listed:
                premises_for(calc, i, h)
            for pname in {k for i in listed for k in i.params}:
                values = [i.params[pname] for i in listed]
                for v in (min(values) - 1, max(values) + 1):
                    i = next(i for i in listed if abs(i.params[pname] - v) == 1)
                    p = {**i.params, pname: v}
                    with pytest.raises(SchemaMismatch, match="out of range"):
                        premises_for(calc, RuleInstance(i.rule, p), h)
                reached.add((spec.rule, pname))
    assert reached == named


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_drawn_instances_pass_the_schema(name):
    # 200 seeded draws of each rule: each passes the schema, each param
    # takes two values at least, and an axiom matches its drawn component c
    calc = CALCULI[name]
    rng = random.Random(f"drawn/{name}")
    for spec in calc.table.values():
        values = {}
        for _ in range(200):
            inst, h = spec.drawn(calc, rng)
            premises_for(calc, inst, h)
            for k, v in inst.params.items():
                values.setdefault(k, set()).add(v)
            if spec.axiom:
                assert spec.match(h.components[inst.params["c"]]) is not None
        assert values and all(len(v) >= 2 for v in values.values()), (
            spec.rule, values)


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_searched_instances_pass_the_schema_check(name):
    # prove_bounded reads the premises of the instances search lists from
    # the rule's tries on each window alone, which runs no range check:
    # each instance must pass it, and the premises tries yields for the
    # k-th instance, put in place of the window, must be the schema's, a
    # component the schema builds as a (left, right) pair
    calc = CALCULI[name]
    rng = random.Random(f"searched/{name}")
    rules = set()

    def sides(comps):
        return tuple(x if type(x) is tuple else (x.left, x.right) for x in comps)

    for _ in range(300):
        comps = tuple(_rand_sequent(calc, rng) for _ in range(rng.randint(1, 3)))
        h = Hypersequent(comps)
        listed = []  # (instances, (c, width, premises) of each)
        for c, s in enumerate(comps):
            for left, specs in calc.logical.items():
                x = s.left if left else s.right
                for pos, f in enumerate(x):
                    for spec in specs:
                        if spec.matches(f) and (len(x) == 1 or not spec.sole):
                            tried = spec.tries((s,), spec.where(0, pos))
                            listed.append((spec.search_at(s, c, pos),
                                           [(c, 1, r) for r in tried]))
        for rule in _SEARCH_ORDER:
            if rule in calc.table:
                spec = calc.table[rule]
                width, last, _ = spec.window
                at = range(len(comps) - width + 1)
                tried = [(c, width, r) for c in (at[-1:] if last else at)
                         for r in spec.tries(comps[c : c + width], {})]
                listed.append((spec.search(h), tried))
        for insts, tried in listed:
            assert len(tried) == len(insts), _hyper_to_json(h)
            for inst, (c, width, premises) in zip(insts, tried):
                want = [sides(p.components) for p in premises_for(calc, inst, h)]
                got = [sides(comps[:c] + r + comps[c + width :]) for r in premises]
                assert got == want, (inst, _hyper_to_json(h))
                rules.add(inst.rule)
    assert {r for r in _SEARCH_ORDER if r in calc.rules} <= rules
    assert rules - set(_SEARCH_ORDER)  # some logical rule too


def _counting(monkeypatch, *classes):
    """Count each class's constructor calls from now on."""
    counts = dict.fromkeys(classes, 0)
    for cls in classes:
        def init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    return counts


def _nodes(tree):
    return 1 + sum(map(_nodes, tree.premises))


def _leaves(tree):
    return sum(map(_leaves, tree.premises)) if tree.premises else 1


def _listed_before(calc, tree):
    """For each rule node of tree, the instances its window lists alone
    before the node's (prove_bounded re-reads the node's by that index),
    summed: the window is its one component or the adjacent ones its "c"
    or "i" names (ew's: the last)."""
    total, stack = 0, [tree]
    while stack:
        node = stack.pop()
        stack.extend(node.premises)
        inst, comps = node.rule, node.conclusion.components
        spec = calc.table[inst.rule]
        if spec.left is not None:
            c = inst.params["c"]
            listed = [i for sp, pos in _logical_matches(calc, comps[c])
                      for i in sp.search_at(comps[c], 0, pos)]
        elif not spec.axiom:
            width = spec.window.width
            c = inst.params.get("c", inst.params.get("i", len(comps) - width))
            listed = spec.search(Hypersequent(comps[c : c + width]))
        else:
            continue
        total += listed.index(_shifted(inst, -c))
    return total


def test_search_constructs_objects_only_for_new_ids_and_the_proof(monkeypatch):
    # search reads premises as tuples: a Sequent is made only for a sequent
    # given a new id, a Hypersequent only for a node of the proof below the
    # goal, and a RuleInstance only for a node of the proof: its instance,
    # a rule node's moved into place, and those its window lists before it
    goals = {a + d: g for a, d, g in weak_completeness_goals(GOEDEL)}
    counts = _counting(monkeypatch, Sequent, Hypersequent, RuleInstance)
    work = {}
    assert prove_bounded(GOEDEL, goals["R7le"], 6, work=work) is None
    assert counts[Hypersequent] == counts[RuleInstance] == 0
    assert 0 < counts[Sequent] <= work["sequents"], (counts, work)
    for key, budget in (("R1le", 12), ("R4le", 10), ("R7le", 12)):
        counts.update(dict.fromkeys(counts, 0))
        tree = prove_bounded(GOEDEL, goals[key], budget, work=work)
        made = counts[RuleInstance]
        assert tree is not None and _nodes(tree) > 2, key
        assert counts[Hypersequent] == _nodes(tree) - 1, key
        assert counts[Sequent] <= work["sequents"], (key, counts, work)
        rule_nodes = _nodes(tree) - _leaves(tree)
        assert made == _nodes(tree) + rule_nodes + _listed_before(GOEDEL, tree), key


def test_search_work_counts_repeat():
    (goal,) = [g for a, d, g in weak_completeness_goals(GOEDEL) if a + d == "R7le"]
    first, again = {}, {}
    prove_bounded(GOEDEL, goal, 6, work=first)
    prove_bounded(GOEDEL, goal, 6, work=again)
    assert first == again
    assert set(first) == {
        "sequents", "nodes_expanded", "memo_prunes", "frontier_hits",
        "frontier_misses", "streak_cuts", "table_hits", "table_misses",
    }
    assert all(v > 0 for v in first.values()), first


def test_search_builds_each_premise_table_once():
    # the work counts besides "sequents" (which counts the premises of a
    # whole table, also those after the instance that wins), pinned; and
    # every table a node at budget 2 or more makes is listed from the
    # specs' tries once, by one listed(..., "tries") call of deeper
    (goal,) = [g for a, d, g in weak_completeness_goals(GOEDEL) if a + d == "R7le"]
    runs, work = [0], {}

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code.co_name == "listed"
                and frame.f_back.f_code.co_name == "deeper"):  # fmt: skip
            assert frame.f_locals["what"] == "tries"
            runs[0] += 1

    sys.setprofile(profile)
    try:
        assert prove_bounded(GOEDEL, goal, 6, work=work) is None
    finally:
        sys.setprofile(None)
    del work["sequents"]
    assert work == {
        "nodes_expanded": 3230, "memo_prunes": 5319, "frontier_hits": 161,
        "frontier_misses": 1248, "streak_cuts": 168, "table_hits": 6887,
        "table_misses": 1285,
    }
    assert runs[0] == work["table_misses"]


def test_schema_failures_keep_their_text():
    p, q = goedel_atom(1), goedel_atom(2)
    h = Hypersequent([Sequent((), (Or((p, q)),))])
    with pytest.raises(SchemaMismatch) as e:
        premises_for(GOEDEL, RuleInstance(Rule.RAND, {"c": 0}), h)
    assert str(e.value) == "rand: principal formula has the wrong connective or arity"
    with pytest.raises(SchemaMismatch) as e:
        premises_for(GOEDEL, RuleInstance(Rule.ROR, {"c": 0, "zzz": 1}), h)
    assert str(e.value) == "ror: unknown params {'zzz'}"


# The round trip: the conclusion of random_derivation(calc, f"rt/{i}",
# 1 + i % 5), for i < ROUND_TRIP_GOALS, searched at a budget equal to the
# derivation's depth.  The search misses exactly these goals (by i); for
# example, at most two structural steps run in a row.  A search that
# proves one of them must remove it here.
ROUND_TRIP_GOALS = 600
ROUND_TRIP_MISSES = {
    "goedel": set(),
    "lukasiewicz": set(),
    "product": set(),
    "dl2": set(),
    "stl-inf": set(),
}


# Four derivations whose conclusions search misses at the derivation's
# depth, kept as dlc-proof/1 documents: the round-trip goals rt/49 and rt/63
# of Gödel, rt/84 of Łukasiewicz and rt/14 of STL∞ as they were drawn
# before axiom leaves were read from the templates.  Each needs more than
# _STREAK_CAP structural steps in a row (ROADMAP item 4); a search that
# proves one of them must say so here.
STREAK_CAP_MISSES = json.loads(
    (pathlib.Path(__file__).parent / "streak_cap_misses.json").read_text())


@pytest.mark.parametrize("entry", STREAK_CAP_MISSES,
                         ids=[f"{e['calculus']}-{e['index']}" for e in STREAK_CAP_MISSES])
def test_search_misses_the_pinned_derivable_goals(entry, monkeypatch):
    name, tree = proof_from_json(entry["proof"])
    calc, depth = CALCULI[name], entry["depth"]
    check_proof(calc, tree)
    assert _tree_depth(tree) == depth
    assert prove_bounded(calc, tree.conclusion, depth) is None
    monkeypatch.setattr(calculus, "_STREAK_CAP", _STREAK_CAP + 1)
    assert prove_bounded(calc, tree.conclusion, depth) is not None


@functools.lru_cache(maxsize=None)
def _round_trip(name):
    """(goal, depth, proof or None, work) of each round-trip derivation of
    the calculus, its conclusion searched at its depth; computed once per
    session."""
    calc = CALCULI[name]
    out = []
    for i in range(ROUND_TRIP_GOALS):
        tree = random_derivation(calc, f"rt/{i}", 1 + i % 5)
        depth, work = _tree_depth(tree), {}
        proof = prove_bounded(calc, tree.conclusion, depth, work=work)
        out.append((tree.conclusion, depth, proof, work))
    return out


@pytest.mark.parametrize("name", sorted(CALCULI))
def test_search_round_trip_misses_only_the_pinned_goals(name):
    calc = CALCULI[name]
    missed = set()
    for i, (goal, depth, proof, _) in enumerate(_round_trip(name)):
        if proof is None:
            missed.add(i)
        else:
            check_proof(calc, proof)
            assert proof.conclusion == goal and _tree_depth(proof) <= depth + 1
    assert missed == ROUND_TRIP_MISSES[name], (
        f"missed but not pinned: {sorted(missed - ROUND_TRIP_MISSES[name])}; "
        f"pinned but proved: {sorted(ROUND_TRIP_MISSES[name] - missed)}"
    )


# SHA-256 of every proof prove_bounded returns, with its first four work
# counts, on the goals of search_digest.  It pins proofs and work together,
# so a change to either shows here; update it only with the change that
# means to move them.  PROOF_DIGEST hashes the same proofs with only the
# nodes expanded and the memo prunes, which follow the search's course
# alone: a change to how premises are found or built must keep it.
# Each round-trip goal is searched at depth + 2 too; none takes more than
# 0.15 s of CPU there.
SEARCH_DIGEST = "11bb75d36c516725866dddba6a8e58c89323a363a9facc1989018b2afa503d86"
PROOF_DIGEST = "4d0adda60ce63fe36d4e5671090ae2223acd4e9871f5087d783a84fab472d33f"
DIGEST_WORK_KEYS = ("nodes_expanded", "memo_prunes", "frontier_hits", "frontier_misses")
PROOF_WORK_KEYS = DIGEST_WORK_KEYS[:2]


def search_digest():
    """The digests (SEARCH_DIGEST, PROOF_DIGEST), from one search of every
    calculus's weak-completeness goals at budgets 0-12 and of its
    round-trip goals at their depth d and at d + 2."""
    digests = [(keys, hashlib.sha256()) for keys in (DIGEST_WORK_KEYS, PROOF_WORK_KEYS)]

    def add(calc, proof, work):
        doc = None if proof is None else proof_to_json(calc.name, proof)
        for keys, digest in digests:
            digest.update(json.dumps([doc, [work[k] for k in keys]]).encode())

    def search(calc, goal, budget):
        work = {}
        add(calc, prove_bounded(calc, goal, budget, work=work), work)

    for name in sorted(CALCULI):
        calc = CALCULI[name]
        for _, _, goal in weak_completeness_goals(calc):
            for budget in range(13):
                search(calc, goal, budget)
        for goal, depth, proof, work in _round_trip(name):
            add(calc, proof, work)
            search(calc, goal, depth + 2)
    return tuple(digest.hexdigest() for _, digest in digests)


def _reprint(i, name):
    return (
        "; if that is intended, print the new digest with  PYTHONPATH=src:tests "
        "python -c \"from test_calculus import search_digest; "
        f"print(search_digest()[{i}])\"  and update {name}"
    )


def test_search_digest_pins_proofs_and_work():
    search, proofs = search_digest()
    assert proofs == PROOF_DIGEST, (
        "proofs, nodes_expanded or memo_prunes of prove_bounded changed"
        + _reprint(1, "PROOF_DIGEST")
    )
    assert search == SEARCH_DIGEST, (
        "work counts of prove_bounded changed" + _reprint(0, "SEARCH_DIGEST")
    )

"""Acceptance gate: the ten primary criteria, one verdict line each."""

import copy
import math
import random
import time

import pytest

from dlc.analysis import (
    convergence_stl_min,
    convergence_yager_godel,
    shadow_lifting_mand,
    stl_lt0_branch_derivative,
)
from dlc.calculus import (
    CALCULI,
    check_proof,
    fixtures_dir,
    load_proof,
    rule_local_soundness,
    soundness_fuzz,
    weak_completeness_suite,
)
from dlc.carriers import XRealCarrier
from dlc.core import (
    ALL_FUZZY,
    DL2,
    GODEL,
    LUKASIEWICZ,
    PRODUCT,
    STL_INFTY,
    Cmp,
    CmpOp,
    Impl,
    Not,
    RealConst,
    stl,
    yager,
)
from dlc.errors import FlagViolation
from dlc.laws import (
    EXPECTED_MATRIX,
    GROUPS,
    AxiomId,
    check_axiom_values,
    check_residuation,
    table3_matrix,
)
from dlc.semantics import interpret
from dlc.speclang import (
    base_env,
    elaborate,
    eval_loss,
    extend_env,
    load_network,
    load_spec,
)


def verdict(criterion: int, label: str, ok: bool) -> None:
    print(f"[PRIMARY {criterion}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {label}"


def test_criterion_01_graded_equality_golden():
    values = {}
    # warm once so the timed run measures steady-state evaluation
    for logic in ALL_FUZZY:
        e = Cmp(CmpOp.EQ, RealConst(1.0), RealConst(2.0), logic.flag_profile)
        interpret(logic, e)
        t0 = time.perf_counter()
        values[logic.kind.value] = interpret(logic, e)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1e-3, f"{logic.kind.value} took {elapsed:.6f}s"
    ok = all(abs(v - 2 / 3) < 1e-15 for v in values.values())
    verdict(1, "graded equality of 1 and 2 is 2/3 in every fuzzy logic", ok)


# published group claims: identical to the implemented expectations except
# that the Yager monoidal-dual group is claimed to hold
PUBLISHED = copy.deepcopy(EXPECTED_MATRIX)
PUBLISHED["yager"]["M1-3"] = "yes"
DIVERGENT = {("yager", "M2"), ("yager", "M3")}


@pytest.fixture(scope="module")
def matrix():
    t0 = time.perf_counter()
    m = table3_matrix(seed=0, n_samples=1000, tol=1e-9)
    m["_elapsed"] = time.perf_counter() - t0
    return m


def test_criterion_02_law_matrix(matrix):
    ok = matrix["_elapsed"] < 30.0
    for logic, row in PUBLISHED.items():
        for group, claim in row.items():
            members = [a.value for a in GROUPS[group]]
            for member in members:
                if (logic, member) in DIVERGENT:
                    continue
                cell = matrix["cells"][logic][member]
                if claim == "yes":
                    ok &= cell["verdict"] in ("pass", "not-applicable")
                    # a claimed-yes group may not mix in counterexamples
                    ok &= cell["verdict"] != "counterexample"
            if claim == "no":
                cells = [matrix["cells"][logic][m] for m in members]
                witnessed = any(
                    c["verdict"] == "counterexample" and c["witness"]
                    for c in cells
                )
                undefined = any(c["verdict"] == "not-applicable" for c in cells)
                ok &= witnessed or undefined
    verdict(2, "algebraic law matrix at 1000 samples, tol 1e-9, < 30 s", ok)


@pytest.mark.xfail(
    strict=True,
    reason="the implemented Yager negation and strong disjunction refute "
    "the claimed monoidal dual (witness x = y = 1/3 at r = 2); the "
    "divergence is recorded in the project decisions ledger",
)
def test_criterion_02_yager_monoidal_dual_cells(matrix):
    for member in ("M2", "M3"):
        assert matrix["cells"]["yager"][member]["verdict"] == "pass"


def test_criterion_03_residuation():
    ok = True
    for logic in (DL2, PRODUCT, GODEL, LUKASIEWICZ, yager(2.0), STL_INFTY):
        rep = check_residuation(logic, n_samples=1000, tol=1e-9, seed=1)
        ok &= rep.verdict == "pass" and rep.samples_run == 1000
    verdict(3, "residuation biconditional over 1000 off-boundary triples", ok)


def test_criterion_04_shadow_lifting():
    ok = True
    for n in range(2, 9):
        rep = shadow_lifting_mand(DL2, n, [0.5, 1.0])
        ok &= rep.holds
        ok &= all(abs(e["estimate"] - 1.0) <= 1e-6 for e in rep.estimates)
    for n in range(2, 6):
        for p in (0.5, 1.0, 2.0):
            rep = shadow_lifting_mand(PRODUCT, n, [p])
            ok &= all(
                abs(e["estimate"] - p ** (n - 1)) <= 1e-6 for e in rep.estimates
            )
    for n in range(2, 7):
        ok &= abs(stl_lt0_branch_derivative(n, 0.8, 4.0) - 1.0 / n) <= 1e-4
    for logic in (GODEL, LUKASIEWICZ, yager(2.0), STL_INFTY):
        rep = shadow_lifting_mand(logic, 3, [0.25, 0.5])
        ok &= (not rep.holds) and rep.witness is not None
    verdict(4, "shadow-lifting goldens and min/max failure witnesses", ok)


def test_criterion_05_convergence():
    ok = True
    rng = random.Random(2026)
    schedule = [1.0, 3.0, 10.0, 30.0, 100.0]
    def sample_vector(sign):
        # resample clustered vectors: the soft-min weights decay like
        # exp(-nu * relative deviation), so a tiny separation keeps the
        # gap above any fixed tolerance at nu = 100
        while True:
            v = [sign * rng.uniform(0.2, 2.0) for _ in range(4)]
            m = min(v)
            devs = sorted(abs((x - m) / m) for x in v)
            if devs[1] >= 0.15:
                return v

    for sign in (1.0, -1.0):
        for _ in range(20):
            v = sample_vector(sign)
            rep = convergence_stl_min(v, schedule, 1e-3)
            ok &= rep.passed and rep.entries[-1]["gap"] < 1e-3
    pair_rng = random.Random(3)
    pairs = [
        (pair_rng.uniform(0.05, 0.95), pair_rng.uniform(0.05, 0.95))
        for _ in range(20)
    ]
    yrep = convergence_yager_godel(pairs, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0], 1e-2)
    ok &= yrep.passed and yrep.entries[-1]["gap"] < 1e-2
    verdict(5, "soft-min and Yager-to-min/max convergence schedules", ok)


# The rules criterion 6's derivations never apply, each with its reason.  A
# rule that drops out of forward generation (its template never reads
# forward from a conclusion, or no leaf closes its other premises) joins
# this set and fails the criterion.  DL2 has no falsum, so its lor's second
# premise G1, B, G2 |- D closes by init alone: B drawn as the lone formula
# of D, G1 and G2 empty.
NEVER_APPLIED = {
    "goedel": set(),
    "lukasiewicz": set(),
    "product": set(),
    "dl2": set(),
    "stl-inf": set(),
}


def test_criterion_06_soundness_fuzz():
    t0 = time.perf_counter()
    ok = True
    unapplied = {}
    for name, calc in CALCULI.items():
        rep = soundness_fuzz(calc, trials=10_000, depth=6, seed="acceptance")
        ok &= rep["passed"] and rep["trials"] == 10_000
        unapplied[name] = {rule for rule, n in rep["applied"].items() if n == 0}
    elapsed = time.perf_counter() - t0
    ok &= unapplied == NEVER_APPLIED and elapsed < 120.0
    never = ", ".join(f"{name} {rule}" for name, rules in unapplied.items()
                      for rule in sorted(rules))
    verdict(6, f"50k random derivations hold semantically, rules never applied: "
               f"{never or 'none'} ({elapsed:.0f} s)", ok)


def test_criterion_07_rule_local_soundness():
    ok = True
    for name, calc in CALCULI.items():
        for rule in sorted(calc.rules, key=lambda r: r.value):
            rep = rule_local_soundness(calc, rule, trials=1000, seed="acceptance")
            # no pass is vacuous: some trial's premises all hold
            ok &= rep["passed"] and rep["premises_held"] > 0
    verdict(7, "1000 semantic instantiations per rule, premises imply conclusion, "
               "none vacuous", ok)


def test_criterion_08_weak_completeness():
    ok = True
    for name in ("dl2", "stl-inf"):
        rep = weak_completeness_suite(CALCULI[name], depth_budget=12)
        ok &= rep["passed"] and len(rep["goals"]) == 17
    name, tree = load_proof(str(fixtures_dir() / "limpl_ext_luka.json"))
    ok &= name == "lukasiewicz"
    check_proof(CALCULI["lukasiewicz"], tree)
    verdict(8, "lattice/monoid goals discharged; extended-rule fixture re-checks", ok)


def test_criterion_09_end_to_end_robustness():
    fix = fixtures_dir()
    doc = load_spec(str(fix / "robustness.spec"))
    net = load_network(str(fix / "identity_net.json"))
    env = extend_env(base_env(), functions={"N": net.as_env_function()})
    inputs = {"v": (0.0, 0.0), "x": (0.1, 0.0), "eps": (0.2,), "delta": (0.05,)}
    ok = True
    for logic in (DL2, STL_INFTY):
        elaborate(doc, logic, env)
    loss, _ = eval_loss(DL2, doc, inputs, env)
    ok &= abs(loss - (-0.05)) < 1e-12
    xr, _ = eval_loss(STL_INFTY, doc, inputs, env, carrier=XRealCarrier)
    ok &= abs(xr.value - (-0.05)) < 1e-12

    rng = random.Random(9)
    smooth = 0
    tried = 0
    h = 1e-6
    while smooth < 50 and tried < 500:
        tried += 1
        x = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        b = dict(inputs, x=x)
        base, grad = eval_loss(DL2, doc, b, env, grad_wrt="x")
        point_ok = True
        one_sided_agree = True
        for i in range(2):
            up = dict(b, x=tuple(v + (h if j == i else 0.0) for j, v in enumerate(x)))
            dn = dict(b, x=tuple(v - (h if j == i else 0.0) for j, v in enumerate(x)))
            fu, _ = eval_loss(DL2, doc, up, env)
            fd_, _ = eval_loss(DL2, doc, dn, env)
            fwd = (fu - base) / h
            bwd = (base - fd_) / h
            if abs(fwd - bwd) > 1e-3:
                one_sided_agree = False
                break
            central = (fu - fd_) / (2 * h)
            point_ok &= abs(central - grad[i]) <= 1e-4
        if not one_sided_agree:
            continue  # nondifferentiable point; resample
        smooth += 1
        ok &= point_ok
    ok &= smooth == 50
    verdict(9, "robustness example golden and gradients at 50 smooth points", ok)


def test_criterion_10_negative_fixtures():
    ok = True
    dl2_atom = Cmp(CmpOp.LE, RealConst(1.0), RealConst(2.0), DL2.flag_profile)
    try:
        Not(dl2_atom)
        ok = False
    except FlagViolation:
        pass
    stl_atom = Cmp(CmpOp.LE, RealConst(1.0), RealConst(2.0), stl(1.0).flag_profile)
    try:
        Impl(stl_atom, stl_atom)
        ok = False
    except FlagViolation:
        pass
    rep = check_axiom_values(STL_INFTY, AxiomId.N1, n_samples=500)
    ok &= rep.verdict == "counterexample" and rep.witness is not None
    verdict(10, "undefined connectives rejected; negation-implication gap shown", ok)

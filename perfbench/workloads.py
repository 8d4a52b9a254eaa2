"""The three workloads: seeded inputs, ops, and per-op output verification.

A workload is built from a seed by ``build_<name>(mods, seed)`` and yields its
ops pass by pass through ``ops_for_pass(p)``.  Pass ``p`` is a pure function of
the seed and ``p``, so the traced run can replay exactly the passes the
untraced run made.  Each op is one call into the public library API; its
``verify`` runs untimed after the op and returns False (or raises) when the
output is wrong.  Functions are looked up on the module objects at call time,
so wrappers the tracer installs are seen by ops built before it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    verify: Callable[[object], bool]


@dataclass
class Stats:
    """Outcome counts gathered by verification, reported as measured."""

    rules_seen: Dict[str, set] = field(default_factory=dict)
    kept_steps: int = 0  # forward extension steps kept in generation
    rule_trials: int = 0
    premises_held: int = 0
    goals: int = 0
    proved: int = 0
    grad_coords_checked: int = 0
    grad_coords_skipped: int = 0
    fixture_checks: int = 0
    known_divergences: int = 0  # see KNOWN_DIVERGENCE
    setup_failures: List[str] = field(default_factory=list)


@dataclass
class Workload:
    ops_for_pass: Callable[[int], List[Op]]
    stats: Stats
    info: dict


def _tree_rules(tree, out: set) -> int:
    """Add the rules applied in tree to out; return its inner-node count."""
    inner = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        out.add(node.rule.rule.value)
        inner += bool(node.premises)
        stack.extend(node.premises)
    return inner


# ---------------------------------------------------------------------------
# fuzz: soundness-checking traffic

FUZZ_DERIVATIONS_PER_ROUND = 10  # per calculus; tier-1 runs 10k of these ...
FUZZ_MAX_DEPTH = 6  # ... per calculus, against 1k rule-local trials per rule


def build_fuzz(mods, seed: int) -> Workload:
    calc_mod = mods.calculus
    calculi = list(calc_mod.CALCULI.values())
    stats = Stats(rules_seen={c.name: set() for c in calculi})

    def derivation_op(calc, i: int, depth: int) -> Op:
        def run():
            tree = calc_mod.random_derivation(calc, f"{seed}/{i}", depth)
            return tree, calc_mod.hypersequent_holds(calc.logic, tree.conclusion)

        def verify(result) -> bool:
            tree, holds = result
            calc_mod.check_proof(calc, tree)
            # each kept extension step adds exactly one inner node
            stats.kept_steps += _tree_rules(tree, stats.rules_seen[calc.name])
            return holds

        return Op("fuzz.derivation", run, verify)

    def rule_local_op(calc, rule, p: int) -> Op:
        def run():
            return calc_mod.rule_local_soundness(calc, rule, 1, f"{seed}/{p}")

        def verify(rep) -> bool:
            stats.rule_trials += rep["trials"]
            stats.premises_held += rep["premises_held"]
            return rep["passed"] and not rep["violations"] and rep["trials"] == 1

        return Op("fuzz.rule_local", run, verify)

    def ops_for_pass(p: int) -> List[Op]:
        ops = []
        for calc in calculi:  # round-robin over the calculi
            rng = random.Random(f"fuzz/{seed}/{calc.name}/{p}")
            block = [
                derivation_op(
                    calc,
                    p * FUZZ_DERIVATIONS_PER_ROUND + j,
                    rng.randint(1, FUZZ_MAX_DEPTH),
                )
                for j in range(FUZZ_DERIVATIONS_PER_ROUND)
            ]
            block += [
                rule_local_op(calc, rule, p)
                for rule in sorted(calc.rules, key=lambda r: r.value)
            ]
            rng.shuffle(block)
            ops += block
        return ops

    info = {"calculi": [c.name for c in calculi],
            "ops_per_pass": len(ops_for_pass(0))}
    return Workload(ops_for_pass, stats, info)


# ---------------------------------------------------------------------------
# search: proof-search traffic

SEARCH_BUDGETS = (6, 8, 10, 12)
RANDOM_GOALS_PER_CALCULUS = 8
RANDOM_GOAL_DEPTH = 2
RANDOM_GOAL_BUDGET = 6

# Hand-written: at budgets >= 10 every R1-R9 goal of these calculi is proved.
EXPECTED_PROVED_CALCULI = ("goedel", "dl2", "stl-inf")
EXPECTED_PROVED_BUDGETS = (10, 12)
EXPECTED_GOAL_IDS = frozenset({
    "R1-le", "R1-ge", "R2-le", "R2-ge", "R3-le", "R3-ge", "R4-le", "R4-ge",
    "R5-le", "R5-ge", "R6-le", "R6-ge", "R7-le", "R8-le", "R8-ge",
    "R9-le", "R9-ge",
})


def build_search(mods, seed: int) -> Workload:
    calc_mod = mods.calculus
    stats = Stats(rules_seen={c: set() for c in calc_mod.CALCULI})
    plan: List[Tuple[object, str, object, int, bool]] = []
    for calc in calc_mod.CALCULI.values():
        goals = calc_mod.weak_completeness_goals(calc)
        ids = {f"{axiom}-{direction}" for axiom, direction, _ in goals}
        expected = calc.name in EXPECTED_PROVED_CALCULI
        if expected and ids != EXPECTED_GOAL_IDS:
            stats.setup_failures.append(
                f"{calc.name}: weak-completeness goal ids {sorted(ids)}"
            )
        for axiom, direction, goal in goals:
            for budget in SEARCH_BUDGETS:
                must = expected and budget in EXPECTED_PROVED_BUDGETS
                plan.append((calc, f"{axiom}-{direction}", goal, budget, must))
        for k in range(RANDOM_GOALS_PER_CALCULUS):
            tree = calc_mod.random_derivation(
                calc, f"{seed}/goal/{k}", RANDOM_GOAL_DEPTH
            )
            plan.append(
                (calc, f"random-{k}", tree.conclusion, RANDOM_GOAL_BUDGET, False)
            )
    random.Random(f"search/{seed}").shuffle(plan)

    def search_op(calc, goal, budget: int, must_prove: bool) -> Op:
        def run():
            return calc_mod.prove_bounded(calc, goal, budget)

        def verify(tree) -> bool:
            stats.goals += 1
            if tree is None:
                return not must_prove
            stats.proved += 1
            calc_mod.check_proof(calc, tree)
            _tree_rules(tree, stats.rules_seen[calc.name])
            return tree.conclusion == goal

        return Op("search.prove", run, verify)

    ops = [search_op(calc, goal, budget, must)
           for calc, _, goal, budget, must in plan]
    info = {
        "ops_per_pass": len(ops),
        "budgets": list(SEARCH_BUDGETS),
        "random_goals_per_calculus": RANDOM_GOALS_PER_CALCULUS,
        "must_prove": sum(1 for *_, must in plan if must),
    }
    return Workload(lambda p: ops, stats, info)


# ---------------------------------------------------------------------------
# loss: spec-to-loss traffic

# (vector dimension, hidden ReLU widths, network outputs, coordinate clauses).
# The shapes are fixed so that every seed yields the same cost profile; the
# seed draws weights, clause coordinates, connectives, literals and inputs.
LOSS_SHAPES = (
    (2, (), 2, 3),
    (2, (4,), 2, 31),
    (4, (8,), 2, 8),
    (8, (16,), 3, 12),
    (8, (16, 16), 4, 0),
    (12, (32,), 4, 20),
    (16, (32, 32), 4, 24),
)
GRAD_STEPS = 3  # train-demo steps per (spec, logic) chain and pass
LEARNING_RATE = 0.1
STL_NU = 1.0
FD_STEP = 1e-6
FD_TOL = 1e-4
FD_COORDS_PER_OP = 4
# A coordinate is differentiable when its one-sided differences agree within
# the tolerance checked.  Criterion 9's test uses 1e-3 on a spec whose kinks
# change slope by O(1); here ReLU and norm kinks can change it by less than
# 1e-3, and the dual (a one-sided derivative) is then up to half the jump
# away from the central difference.
ONE_SIDED_TOL = FD_TOL
FIXTURE_LOSS = -0.05
# A recorded finding, counted apart from failed ops (like the Yager M2/M3
# xfail of the test suite).  STL(nu)'s soft connectives return the constant
# zero when their smallest argument is exactly 0, so the dual gradient there
# is 0 while both one-sided differences agree on a nonzero slope.  The
# train-demo projection puts x exactly on the eps-box boundary, which makes
# the robustness precondition exactly 0.  Only mismatches with that
# signature (STL(nu), some comparison of the goal exactly 0) count here.
KNOWN_DIVERGENCE = "stl-soft-connective-zero-gradient-at-zero-comparison"


def _net_doc(rng: random.Random, n: int, hidden, k: int) -> dict:
    widths = (n,) + tuple(hidden) + (k,)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        scale = 1.0 / math.sqrt(fan_in)
        layers.append({
            "weights": [[round(rng.gauss(0.0, scale), 6) for _ in range(fan_in)]
                        for _ in range(fan_out)],
            "bias": [round(rng.uniform(-0.1, 0.1), 6) for _ in range(fan_out)],
            "activation": "relu" if i < len(widths) - 2 else "identity",
        })
    return {"version": "dlc-net/1", "layers": layers}


def _clauses(rng: random.Random, n: int, count: int) -> List[tuple]:
    """(connective, coordinate, literal or None for v[i] <= x[i]) triples."""
    out = []
    for _ in range(count):
        conn = rng.choice(("and", "or"))
        i = rng.randrange(n)
        literal = f"{rng.uniform(0.5, 4.0):.3f}" if rng.random() < 0.5 else None
        out.append((conn, i, literal))
    return out


def _spec_texts(n: int, k: int, clauses: List[tuple]):
    """The spec under implication, and its ~A \\/ B form for STL(nu)."""
    head = (f"vector v {n}\nvector x {n}\nscalar eps\nscalar delta\n"
            f"network N {n} {k}\n")
    pre = "|sub(x,v)|_inf <= eps"
    post = "|sub(N(x),N(v))|_inf <= delta"
    tail = "".join(
        " " + ("/\\" if conn == "and" else "\\/") + " "
        + (f"x[{i}] <= {lit}" if lit is not None else f"v[{i}] <= x[{i}]")
        for conn, i, lit in clauses
    )
    return (head + f"goal ({pre} => {post}){tail}\n",
            head + f"goal (~({pre}) \\/ {post}){tail}\n")


def _forward(net_doc: dict, xs) -> List[float]:
    vals = list(xs)
    for layer in net_doc["layers"]:
        out = []
        for row, b in zip(layer["weights"], layer["bias"]):
            acc = float(b)
            for w, x in zip(row, vals):
                acc = acc + float(w) * x
            if layer["activation"] == "relu" and acc < 0.0:
                acc = 0.0
            out.append(acc)
        vals = out
    return vals


def _comparisons(net_doc: dict, clauses: List[tuple], inputs) -> List[float]:
    """b - a for each comparison a <= b of a generated spec, in goal order."""
    x, v = inputs["x"], inputs["v"]
    norm = lambda a, b: max(abs(p - q) for p, q in zip(a, b))  # noqa: E731
    out = [inputs["eps"][0] - norm(x, v),
           inputs["delta"][0] - norm(_forward(net_doc, x), _forward(net_doc, v))]
    out += [float(lit) - x[i] if lit is not None else x[i] - v[i]
            for _, i, lit in clauses]
    return out


def _stl_inf_oracle(net_doc: dict, clauses: List[tuple], inputs) -> float:
    """The STL-infinity value of a generated spec, computed directly.

    Comparisons a <= b read b - a; implication is +inf when its antecedent
    is at most its consequent, else the consequent; and/or are min/max.
    """
    pre, post, *rest = _comparisons(net_doc, clauses, inputs)
    acc = math.inf if pre <= post else post
    for (conn, _, _), val in zip(clauses, rest):
        acc = min(acc, val) if conn == "and" else max(acc, val)
    return acc


@dataclass
class _Spec:
    name: str
    impl_doc: object
    neg_doc: object
    env: object
    inputs: Dict[str, Tuple[float, ...]]
    net_doc: dict
    clauses: List[tuple]
    fixture: bool


def build_loss(mods, seed: int) -> Workload:
    core, sl, car = mods.core, mods.speclang, mods.carriers
    stats = Stats()
    fixdir = mods.calculus.fixtures_dir()
    specs: List[_Spec] = []

    with open(fixdir / "robustness.spec") as fh:
        fixture_text = fh.read()
    with open(fixdir / "identity_net.json") as fh:
        fixture_net_doc = json.load(fh)
    fixture_net = sl.network_from_json(fixture_net_doc)
    fixture_inputs = sl.load_bindings(fixdir / "robustness_inputs.json")
    neg_text = fixture_text.replace(
        "goal |sub(x,v)|_inf <= eps =>", "goal ~(|sub(x,v)|_inf <= eps) \\/"
    )
    if neg_text == fixture_text:
        stats.setup_failures.append("robustness fixture goal has changed shape")
    specs.append(_Spec(
        "robustness", sl.parse_spec(fixture_text), sl.parse_spec(neg_text),
        sl.extend_env(sl.base_env(), functions={"N": fixture_net.as_env_function()}),
        fixture_inputs, fixture_net_doc, [], True,
    ))
    for j, (n, hidden, k, count) in enumerate(LOSS_SHAPES):
        rng = random.Random(f"loss/{seed}/{j}")
        net_doc = _net_doc(rng, n, hidden, k)
        net = sl.network_from_json(net_doc)
        clauses = _clauses(rng, n, count)
        impl_text, neg_text = _spec_texts(n, k, clauses)
        v = tuple(round(rng.uniform(1.0, 3.0), 4) for _ in range(n))
        eps = round(rng.uniform(0.1, 0.5), 4)
        inputs = {
            "v": v,
            "x": tuple(round(vi + rng.uniform(-eps, eps), 4) for vi in v),
            "eps": (eps,),
            "delta": (round(rng.uniform(0.05, 0.5), 4),),
        }
        specs.append(_Spec(
            f"shape{j}-{n}", sl.parse_spec(impl_text), sl.parse_spec(neg_text),
            sl.extend_env(sl.base_env(), functions={"N": net.as_env_function()}),
            inputs, net_doc, clauses, False,
        ))

    grad_logics = (("dl2", core.DL2), ("product", core.PRODUCT),
                   ("stl", core.stl(STL_NU)))

    def value(logic, doc, spec, inputs, carrier=None):
        carrier = carrier or car.F64Carrier
        return sl.eval_loss(logic, doc, inputs, spec.env, carrier)[0]

    def primal_matches(logic, doc, spec, inputs, f64_value) -> bool:
        dual = value(logic, doc, spec, inputs, car.DualCarrier)
        return dual.primal == f64_value

    def gradient_matches(logic, doc, spec, inputs, base, grad, coords) -> bool:
        x = inputs["x"]
        for i in coords:
            up = dict(inputs, x=tuple(v + (FD_STEP if j == i else 0.0)
                                      for j, v in enumerate(x)))
            dn = dict(inputs, x=tuple(v - (FD_STEP if j == i else 0.0)
                                      for j, v in enumerate(x)))
            fu = value(logic, doc, spec, up)
            fd = value(logic, doc, spec, dn)
            if abs((fu - base) / FD_STEP - (base - fd) / FD_STEP) > ONE_SIDED_TOL:
                stats.grad_coords_skipped += 1  # kink between x-h and x+h
                continue
            stats.grad_coords_checked += 1
            if abs((fu - fd) / (2 * FD_STEP) - grad[i]) > FD_TOL:
                if (logic.kind is core.LogicKind.STL
                        and 0.0 in _comparisons(spec.net_doc, spec.clauses, inputs)):
                    stats.known_divergences += 1
                    continue
                return False
        return True

    def value_op(logic, doc, spec, inputs, expect=None) -> Op:
        def run():
            return value(logic, doc, spec, inputs)

        def verify(v) -> bool:
            ok = primal_matches(logic, doc, spec, inputs, v)
            if expect is not None:
                stats.fixture_checks += 1
                ok &= abs(v - expect) < 1e-12
            return ok

        return Op("loss.value", run, verify)

    def xreal_op(spec, inputs, expect=None) -> Op:
        logic = core.STL_INFTY

        def run():
            return value(logic, spec.impl_doc, spec, inputs, car.XRealCarrier)

        def verify(xr) -> bool:
            want = _stl_inf_oracle(spec.net_doc, spec.clauses, inputs)
            ok = abs(xr.value - want) <= 1e-12 or xr.value == want
            if expect is not None:
                stats.fixture_checks += 1
                ok &= abs(xr.value - expect) < 1e-12
            return ok

        return Op("loss.xreal", run, verify)

    def grad_op(logic, doc, spec, state: dict, step: int) -> Op:
        """One train-demo step; verification also moves x as the demo does.

        Finite differences check FD_COORDS_PER_OP coordinates per step, in
        rotation, so that a chain's steps cover the dimensions in turn.
        """
        n = len(spec.inputs["x"])
        coords = sorted({(step * FD_COORDS_PER_OP + t) % n
                         for t in range(FD_COORDS_PER_OP)})

        def run():
            return sl.eval_loss(logic, doc, state["inputs"], spec.env,
                                grad_wrt="x")

        def verify(result) -> bool:
            base, grad = result
            inputs = state["inputs"]
            ok = primal_matches(logic, doc, spec, inputs, base)
            ok = ok and gradient_matches(logic, doc, spec, inputs, base, grad,
                                         coords)
            center, radius = inputs["v"], inputs["eps"][0]
            moved = tuple(
                min(max(xi + LEARNING_RATE * gi, ci - radius), ci + radius)
                for xi, gi, ci in zip(inputs["x"], grad, center)
            )
            state["inputs"] = dict(inputs, x=moved)
            return ok

        return Op("loss.grad", run, verify)

    def ops_for_pass(p: int) -> List[Op]:
        ops = []
        for j, spec in enumerate(specs):
            start = spec.inputs
            if p > 0:  # fresh inputs each pass: jitter x inside the eps-box
                rng = random.Random(f"loss/{seed}/pass/{p}/{j}")
                r = start["eps"][0]
                start = dict(start, x=tuple(
                    round(vi + rng.uniform(-r, r), 4) for vi in start["v"]))
            if spec.fixture:  # the fixture's stated values, every pass
                ops.append(value_op(core.DL2, spec.impl_doc, spec, spec.inputs,
                                    FIXTURE_LOSS))
                ops.append(xreal_op(spec, spec.inputs, FIXTURE_LOSS))
            else:
                ops.append(xreal_op(spec, start))
            for _, logic in grad_logics:
                doc = spec.neg_doc if logic.kind is core.LogicKind.STL else spec.impl_doc
                state = {"inputs": start}
                ops.append(value_op(logic, doc, spec, start))
                ops += [grad_op(logic, doc, spec, state, p * GRAD_STEPS + t)
                        for t in range(GRAD_STEPS)]
        return ops

    info = {
        "specs": [s.name for s in specs],
        "logics": [name for name, _ in grad_logics] + ["stl-inf"],
        "ops_per_pass": len(ops_for_pass(0)),
        "grad_steps": GRAD_STEPS,
    }
    return Workload(ops_for_pass, stats, info)


BUILDERS = {"fuzz": build_fuzz, "search": build_search, "loss": build_loss}

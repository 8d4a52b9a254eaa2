"""Command-line interface: subcommands, reports, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import enum
import math

import pytest
from hypothesis import given, settings, strategies as st

import dlc
from dlc import cli
from dlc.calculus import CALCULI, fixtures_dir, _atom
from dlc.cli import _emit, _json_text, run
from dlc.errors import DlcError, ValidationError
from dlc.core import And, Not, _node_to_json

FIX = fixtures_dir()
SPEC = str(FIX / "robustness.spec")
NET = str(FIX / "identity_net.json")
INPUTS = str(FIX / "robustness_inputs.json")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestEval:
    def test_dl2_golden(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            [
                "eval", SPEC, "--inputs", INPUTS, "--net", f"N={NET}",
                "--logic", "dl2", "--grad", "x", "--out", str(out),
            ]
        )
        assert code == 0
        rep = read_json(out)
        assert rep["version"] == "dlc-report/1"
        assert rep["loss"] == pytest.approx(-0.05)
        assert rep["gradient"][0] == pytest.approx(-1.0)

    @pytest.mark.parametrize("carrier", ["f64", "xreal"])
    def test_carrier(self, capsys, carrier):
        # either carrier writes the loss as a number, with a gradient or not
        for grad in ([], ["--grad", "x"]):
            assert run(["eval", SPEC, "--inputs", INPUTS, "--net", f"N={NET}",
                        "--logic", "dl2", "--carrier", carrier, *grad]) == 0
            rep = json.loads(capsys.readouterr().out)
            assert type(rep["loss"]) is float and rep["loss"] == -0.05
            assert (rep["gradient"] is None) == (not grad)

    def test_stl_flag_violation_is_usage_error(self):
        code = run(
            [
                "eval", SPEC, "--inputs", INPUTS, "--net", f"N={NET}",
                "--logic", "stl", "--nu", "1",
            ]
        )
        assert code == 2

    def test_missing_file(self):
        assert run(["eval", "nope.spec", "--inputs", INPUTS,
                    "--logic", "dl2"]) == 2

    def test_infinite_loss_is_input_error(self, tmp_path, capsys):
        # weights of 1e308 overflow the conclusion's norm, so the DL2 loss
        # is -inf, which a JSON report cannot hold
        net = tmp_path / "huge.json"
        net.write_text(json.dumps({"version": "dlc-net/1", "layers": [
            {"weights": [[1e308, 0.0], [0.0, 1e308]], "bias": [0.0, 0.0],
             "activation": "identity"}]}))
        inputs = tmp_path / "in.json"
        inputs.write_text(json.dumps(
            {"v": [10, 10], "x": [10, -10], "eps": 0.5, "delta": 0.1}))
        argv = ["eval", SPEC, "--inputs", str(inputs), "--net", f"N={net}",
                "--logic", "dl2", "--grad", "x"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "infinite" in captured.err
        out = tmp_path / "r.json"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("clauses", [800, 1500])
    def test_spec_nested_too_deeply_is_input_error(self, tmp_path, capsys,
                                                   clauses):
        spec = tmp_path / "wide.spec"
        spec.write_text("vector v 2\nvector x 2\nscalar eps\nscalar delta\n"
                        "network N 2 2\ngoal "
                        + " /\\ ".join(["x[0] <= eps"] * clauses) + "\n")
        assert run(["eval", str(spec), "--inputs", INPUTS, "--net", f"N={NET}",
                    "--logic", "dl2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "nested too deeply" in line

    @pytest.mark.parametrize("text", ["[0.1, 0.2]", '"x"', "3"])
    def test_inputs_that_are_no_json_object_are_input_error(
        self, tmp_path, capsys, text
    ):
        inputs = tmp_path / "in.json"
        inputs.write_text(text)
        assert run(["eval", SPEC, "--inputs", str(inputs), "--net", f"N={NET}",
                    "--logic", "dl2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "JSON object" in line

    @pytest.mark.parametrize("value", ['"12"', "true", "[true, false]"])
    def test_binding_that_is_no_number_is_input_error(
        self, tmp_path, capsys, value
    ):
        inputs = tmp_path / "in.json"
        inputs.write_text('{"v": [0.0, 0.0], "x": [0.1, 0.0], "eps": %s, '
                          '"delta": 0.05}' % value)
        assert run(["eval", SPEC, "--inputs", str(inputs), "--net", f"N={NET}",
                    "--logic", "dl2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "'eps'" in line

    def test_nan_binding_is_input_error(self, tmp_path):
        inputs = tmp_path / "in.json"
        inputs.write_text('{"v": [0.0, 0.0], "x": [NaN, 0.0], "eps": 0.2, '
                          '"delta": 0.05}')
        code = run(["eval", SPEC, "--inputs", str(inputs), "--net", f"N={NET}",
                    "--logic", "dl2"])
        assert code == 2


def test_compile(tmp_path):
    out = tmp_path / "c.json"
    assert run(["compile", SPEC, "--logic", "dl2", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["kind"] == "compile" and rep["expr"]["kind"] == "impl"


def test_compile_exponent_index_is_input_error(tmp_path, capsys):
    spec = tmp_path / "exp.spec"
    spec.write_text("vector x 2\ngoal x[1e0] <= 1\n")
    assert run(["compile", str(spec), "--logic", "dl2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: index must be an integer\n"


def test_laws_small_budget(tmp_path):
    out = tmp_path / "laws.json"
    code = run(["laws", "--samples", "60", "--seed", "7", "--out", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["expected_mismatches"] == []


class TestShadow:
    def test_dl2_passes(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["shadow", "--logic", "dl2", "--out", str(out)]) == 0

    def test_goedel_fails_verdict(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["shadow", "--logic", "goedel", "--out", str(out)]) == 1
        assert read_json(out)["witness"] is not None

    def test_zero_arity_is_usage_error(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["shadow", "--logic", "dl2", "--n", "0", "--out", str(out)]) == 2
        assert not out.exists()

    def test_yager_skips_the_samples_outside_its_domain(self, tmp_path):
        # the forward step at p = 1.0 leaves [0, 1]: those samples are
        # skipped, and the witness is the flat clamp at p = 0.25
        out = tmp_path / "s.json"
        assert run(["shadow", "--logic", "yager", "--r", "2",
                    "--out", str(out)]) == 1
        rep = read_json(out)
        assert rep["witness"]["p"] == 0.25 and rep["witness"]["estimate"] == 0.0
        skipped = [e for e in rep["estimates"] if "skipped" in e]
        assert [(e["p"], e["i"]) for e in skipped] == [(1.0, i) for i in range(3)]
        assert all("is negative" in e["skipped"] for e in skipped)
        assert len(rep["estimates"]) == 4 * 3


@pytest.mark.parametrize("flags", [
    ["--logic", "yager", "--r", "1", "--nu", "3"],
    ["--logic", "stl", "--nu", "1", "--r", "2"],
    ["--logic", "dl2", "--r", "1"],
], ids=["nu_under_yager", "r_under_stl", "r_under_dl2"])
def test_stray_parameter_flag_is_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "s.json"
    assert run(["shadow", *flags, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "error: --r applies to yager only, --nu to stl only\n"


class TestConverge:
    @pytest.mark.parametrize("flags, schedule", [
        (["--logic", "yager", "--r", "2"], [1.0, 2.0]),
        (["--logic", "yager", "--r", "0.5"], [0.5]),
        (["--logic", "stl", "--nu", "5"], [1.0, 3.0, 5.0]),
        (["--logic", "stl", "--nu", "30"], [1.0, 3.0, 10.0, 30.0]),
    ], ids=["r_2", "r_below_the_schedule", "nu_5", "nu_on_the_schedule"])
    def test_schedule_ends_at_the_parameter(self, tmp_path, flags, schedule):
        out = tmp_path / "c.json"
        assert run(["converge", *flags, "--out", str(out)]) in (0, 1)
        assert [e["parameter"] for e in read_json(out)["entries"]] == schedule

    def test_stl(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(
            ["converge", "--logic", "stl", "--nu", "100",
             "--tol", "1e-3", "--out", str(out)]
        )
        assert code == 0

    def test_yager(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(
            ["converge", "--logic", "yager", "--r", "32",
             "--tol", "1e-2", "--out", str(out)]
        )
        assert code == 0

    def test_wrong_logic_is_usage_error(self):
        assert run(["converge", "--logic", "dl2"]) == 2


class TestProof:
    def test_check_bundled(self, tmp_path):
        out = tmp_path / "p.json"
        code = run(
            ["proof", "check", str(FIX / "limpl_ext_luka.json"),
             "--out", str(out)]
        )
        assert code == 0
        assert read_json(out)["passed"]

    @pytest.mark.parametrize("mangle", ["top_level_list", "unknown_rule",
                                        "params_as_pairs"])
    def test_check_malformed_document_is_input_error(self, tmp_path, mangle):
        doc = read_json(FIX / "init_goedel.json")
        if mangle == "top_level_list":
            doc = [1]
        elif mangle == "params_as_pairs":
            # a list that dict() would read as {1: 0, "c": 0}
            doc["tree"]["rule"]["params"] = [[1, 0], ["c", 0]]
        else:
            doc["tree"]["rule"]["id"] = "nope"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["proof", "check", str(path)]) == 2

    def test_check_param_the_rule_does_not_take_fails(self, tmp_path, capsys):
        doc = read_json(FIX / "init_goedel.json")
        doc["tree"]["rule"]["params"]["zzz"] = 7
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        assert run(["proof", "check", str(path)]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert not rep["passed"] and "zzz" in rep["detail"]

    @pytest.mark.parametrize("pos, code", [(0, 0), (5, 1)])
    def test_check_sole_principal_position(self, tmp_path, capsys, pos, code):
        # Gödel's rand takes p & p from the succedent it is alone in, so its
        # position is 0 and no other
        pf = CALCULI["goedel"].profile
        p, conj = (_node_to_json(f) for f in (_atom(1, pf), And((_atom(1, pf),) * 2)))
        leaf = {"conclusion": [{"left": [p], "right": [p]}],
                "rule": {"id": "init", "params": {"c": 0}}, "premises": []}
        doc = {"version": "dlc-proof/1", "calculus": "goedel", "tree": {
            "conclusion": [{"left": [p], "right": [conj]}],
            "rule": {"id": "rand", "params": {"c": 0, "pos": pos}},
            "premises": [leaf, leaf]}}
        path = tmp_path / "rand.json"
        path.write_text(json.dumps(doc))
        assert run(["proof", "check", str(path)]) == code
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] == (code == 0)
        if code:
            assert "rand: formula position out of range" in rep["detail"]

    def test_check_wrong_calculus_fails(self, tmp_path):
        code = run(
            ["proof", "check", str(FIX / "limpl_ext_luka.json"),
             "--calculus", "product"]
        )
        assert code in (1, 2)

    def test_search(self, tmp_path):
        pf = CALCULI["dl2"].profile
        a = _node_to_json(_atom(1, pf))
        goal = tmp_path / "goal.json"
        goal.write_text(json.dumps({"components": [{"left": [a], "right": [a]}]}))
        out = tmp_path / "proof.json"
        code = run(
            ["proof", "search", "--calculus", "dl2", "--goal", str(goal),
             "--out", str(out)]
        )
        assert code == 0
        assert read_json(out)["found"]

    def test_search_with_a_400_deep_formula(self, tmp_path, capsys):
        f = _atom(1, CALCULI["goedel"].profile)
        for _ in range(400):
            f = Not(f)
        goal = tmp_path / "goal.json"
        goal.write_text(json.dumps(
            {"components": [{"left": [], "right": [_node_to_json(f)]}]}))
        code = run(["proof", "search", "--calculus", "goedel", "--goal",
                    str(goal)])
        captured = capsys.readouterr()
        assert code in (0, 1) and captured.err == ""

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        rep = json.loads(captured.out, parse_constant=reject)
        assert rep["kind"] == "proof-search" and rep["found"] == (code == 0)

    def test_search_with_400_deep_equal_sides_finds_init(self, tmp_path, capsys):
        f = _atom(1, CALCULI["goedel"].profile)
        for _ in range(400):
            f = Not(f)
        side = [_node_to_json(f)]  # decoded as two distinct objects
        goal = tmp_path / "goal.json"
        goal.write_text(json.dumps({"components": [{"left": side, "right": side}]}))
        code = run(["proof", "search", "--calculus", "goedel", "--goal", str(goal)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        rep = json.loads(captured.out)
        assert rep["found"] and rep["proof"]["tree"]["rule"]["id"] == "init"

    @pytest.mark.parametrize(
        "doc",
        [[1], {"components": 5}, {"components": [1]},
         {"components": [{"left": [{"kind": "real", "value": "x"}], "right": []}]},
         {"components": [{"left": {}, "right": {}}]}, {"components": []}],
        ids=["top_level_list", "components_not_a_list", "component_not_an_object",
             "non_numeric_real", "formulas_not_a_list", "no_components"],
    )
    def test_search_malformed_goal_is_input_error(self, tmp_path, doc):
        goal = tmp_path / "goal.json"
        goal.write_text(json.dumps(doc))
        assert run(["proof", "search", "--calculus", "dl2", "--goal", str(goal)]) == 2


def test_weakcomp(tmp_path):
    out = tmp_path / "w.json"
    assert run(["weakcomp", "--calculus", "stl-inf", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["passed"]


def test_fuzz_soundness(tmp_path):
    out = tmp_path / "f.json"
    code = run(
        ["fuzz-soundness", "--calculus", "product", "--samples", "100",
         "--out", str(out)]
    )
    assert code == 0


def test_fuzz_soundness_negative_samples_is_usage_error(tmp_path):
    out = tmp_path / "f.json"
    code = run(["fuzz-soundness", "--calculus", "product", "--samples", "-5",
                "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_train_demo(tmp_path):
    out = tmp_path / "t.json"
    code = run(
        [
            "train-demo", SPEC, "--inputs", INPUTS, "--net", f"N={NET}",
            "--logic", "dl2", "--steps", "5", "--out", str(out),
        ]
    )
    assert code == 0
    trace = read_json(out)["trace"]
    losses = [t["loss"] for t in trace]
    assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))


def test_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(Path(dlc.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "dlc.cli", "laws", "--samples", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["kind"] == "law-matrix"


def test_memory_error_is_input_error(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_laws", exhausted)
    assert run(["laws"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "out of memory" in line


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 2
    assert run(["eval"]) == 2  # missing required arguments


# ---------------------------------------------------------------------------
# Reports are written as json.dumps(report, indent=2, default=str,
# allow_nan=False) would write them


class _Color(enum.Enum):  # not JSON: written as str(value)
    RED = 1


class _Level(enum.IntEnum):  # an int: written as its number
    HIGH = 7


scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text() | st.sampled_from(["", "\"\\/\n\t\x00\x7f", "é∞😀",
                                          _Color.RED, _Level.HIGH, 1j]))
keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
values = st.recursive(
    scalars,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(keys, kids, max_size=4)),
    max_leaves=25,
)


def _written(write, value):
    try:
        return write(value)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(values)
def test_report_text_is_json_dumps(value):
    assert _written(_json_text, value) == _written(
        lambda v: json.dumps(v, indent=2, default=str, allow_nan=False), value)


def test_report_text_rejects_what_json_dumps_rejects():
    cycle = []
    cycle.append([cycle])
    for bad in ({"a": [1, math.nan]}, {-math.inf: 0}, {(1,): 0}, cycle):
        with pytest.raises(Exception) as ours:
            _json_text(bad)
        with pytest.raises(Exception) as theirs:
            json.dumps(bad, indent=2, default=str, allow_nan=False)
        assert (ours.type, str(ours.value)) == (theirs.type, str(theirs.value))
    shared = [1]
    assert _json_text([shared, shared]) == json.dumps([shared, shared],
                                                       indent=2)


def test_emit_maps_non_finite_numbers_to_validation_error(tmp_path):
    out = tmp_path / "r.json"
    with pytest.raises(ValidationError, match=r"^report holds NaN or an "
                       r"infinite number, which JSON cannot represent \(Out "
                       r"of range float values are not JSON compliant: inf\)$"):
        _emit({"loss": [0.5, math.inf]}, str(out))
    assert not out.exists()


# ---------------------------------------------------------------------------
# Search work counts in reports


def _search_goal(tmp_path):
    """A goal file: the bundled Łukasiewicz proof's second conclusion
    component, p, q -> r |- s, which no axiom closes."""
    doc = read_json(FIX / "limpl_ext_luka.json")
    goal = tmp_path / "goal.json"
    goal.write_text(json.dumps({"components": doc["tree"]["conclusion"][1:]}))
    return str(goal)


WORK_KEYS = {
    "sequents", "nodes_expanded", "memo_prunes", "frontier_hits",
    "frontier_misses", "streak_cuts", "table_hits", "table_misses",
}


def test_search_reports_its_work(tmp_path, capsys):
    argv = ["proof", "search", "--calculus", "goedel", "--goal",
            _search_goal(tmp_path), "--depth", "4"]
    assert run(argv) == 1
    first = json.loads(capsys.readouterr().out)
    assert set(first["work"]) == WORK_KEYS
    assert first["work"]["nodes_expanded"] > 0
    assert run(argv) == 1
    assert json.loads(capsys.readouterr().out) == first


def test_weakcomp_reports_work_per_goal(tmp_path):
    out = tmp_path / "w.json"
    assert run(["weakcomp", "--calculus", "goedel", "--depth", "6",
                "--out", str(out)]) in (0, 1)
    goals = read_json(out)["goals"]
    assert all(set(g["work"]) == WORK_KEYS for g in goals)
    assert sum(g["work"]["frontier_hits"] for g in goals) > 0


# ---------------------------------------------------------------------------
# The exit-code contract of every subcommand

# Numeric flags out of range, rejected at parse time.
FUZZ = ["fuzz-soundness", "--calculus", "goedel", "--samples", "20", "--depth", "2"]
TRAIN = ["train-demo", SPEC, "--inputs", INPUTS, "--net", f"N={NET}", "--logic", "dl2"]
OUT_OF_RANGE = {
    "fuzz-depth-0": ["fuzz-soundness", "--calculus", "goedel", "--depth", "0"],
    "fuzz-depth-negative": ["fuzz-soundness", "--calculus", "goedel",
                            "--depth", "-3"],
    "search-depth-negative": ["proof", "search", "--calculus", "goedel",
                              "--goal", "{goal}", "--depth", "-5"],
    "weakcomp-depth-negative": ["weakcomp", "--calculus", "goedel",
                                "--depth", "-1"],
    "train-steps-negative": TRAIN + ["--steps", "-2"],
    "fuzz-tol-nan": FUZZ + ["--tol", "nan"],
    "fuzz-tol-negative": FUZZ + ["--tol", "-1"],
    "fuzz-tol-infinite": FUZZ + ["--tol", "inf"],
    "laws-tol-nan": ["laws", "--samples", "1", "--tol", "NaN"],
    "shadow-r-nan": ["shadow", "--logic", "yager", "--r", "nan"],
    "converge-nu-infinite": ["converge", "--logic", "stl", "--nu", "inf"],
    "train-lr-nan": TRAIN + ["--lr", "nan"],
    "train-lr-infinite": TRAIN + ["--lr", "inf"],
}


# Abbreviated flags, which no parser takes for the flag they start.
ABBREVIATED = {
    "laws-abbreviated-samples": ["laws", "--sa", "3"],
    "fuzz-abbreviated-samples": ["fuzz-soundness", "--calculus", "goedel",
                                 "--sam", "5"],
    "search-abbreviated-depth": ["proof", "search", "--calculus", "goedel",
                                 "--goal", "{goal}", "--dep", "2"],
}


# Bindings train-demo cannot train on, refused before the first step:
# case -> (argv, the error).  "{eps=V}" is the bundled inputs file with eps
# bound to the JSON value V.
BAD_BINDINGS = {
    "train-radius-empty": (TRAIN + ["--inputs", "{eps=[]}"],
                           "scalar 'eps' needs exactly one value"),
    "train-radius-negative": (TRAIN + ["--inputs", "{eps=-0.1}"],
                              "radius 'eps' must be one value >= 0, got [-0.1]"),
    "train-radius-vector": (TRAIN + ["--radius", "x"],
                            "radius 'x' must be one value >= 0, got [0.1, 0.0]"),
    "train-center-scalar": (TRAIN + ["--center", "eps"],
                            "center 'eps' needs 2 components like 'x', got 1"),
}


def _filled(argv, tmp_path):
    """argv with "{goal}" and "{eps=V}" replaced by the files they name."""
    out = []
    for a in argv:
        if a == "{goal}":
            a = _search_goal(tmp_path)
        elif a.startswith("{eps="):
            path = tmp_path / f"inputs-{a[1:-1]}.json"
            path.write_text(json.dumps({**read_json(INPUTS),
                                        "eps": json.loads(a[5:-1])}))
            a = str(path)
        out.append(a)
    return out


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _contract_breach(code, captured):
    """Why a run breaks the exit-code contract, or None."""
    if "Traceback" in captured.err:
        return "traceback"
    if code == 2:
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        if captured.out or len(errors) != 1:
            return f"exit 2 with stdout {captured.out!r}, stderr {captured.err!r}"
        return None
    if code not in (0, 1):
        return f"exit {code}"
    if captured.err:
        return f"stderr {captured.err!r}"
    try:
        rep = json.loads(captured.out, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"no strict JSON report ({exc})"
    if rep.get("version") != "dlc-report/1":
        return f"version {rep.get('version')!r}"
    return None


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_numeric_flag_is_usage_error(case, tmp_path, capsys):
    argv = _filled(OUT_OF_RANGE[case], tmp_path)
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert _contract_breach(2, captured) is None
    assert "expected a" in captured.err and not out.exists()


@pytest.mark.parametrize("case", sorted(ABBREVIATED))
def test_abbreviated_flag_is_usage_error(case, tmp_path, capsys):
    argv = _filled(ABBREVIATED[case], tmp_path)
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert _contract_breach(2, captured) is None
    assert "unrecognized arguments: --" in captured.err and not out.exists()


@pytest.mark.parametrize("case", sorted(BAD_BINDINGS))
def test_bad_training_bindings_are_usage_errors(case, tmp_path, capsys):
    argv, error = BAD_BINDINGS[case]
    out = tmp_path / "r.json"
    assert run(_filled(argv, tmp_path) + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert _contract_breach(2, captured) is None
    assert captured.err == f"error: {error}\n" and not out.exists()


LOGIC_FLAGS = {"goedel": [], "lukasiewicz": [], "yager": ["--r", "2"],
               "product": [], "dl2": [], "stl": ["--nu", "1"], "stl-inf": []}
# (subcommand, logic or calculus) -> why the run is expected to exit 2
EXPECTED_USAGE_ERRORS = {
    **{("converge", lg): "converge has a limit schedule for stl and yager only"
       for lg in ("goedel", "lukasiewicz", "product", "dl2", "stl-inf")},
    **{("train-demo", lg): "min/max-flat gradients"
       for lg in ("goedel", "lukasiewicz", "yager", "stl-inf")},
    **{(cmd, "stl"): "robustness.spec uses =>, which STL(nu) does not define"
       for cmd in ("compile", "eval", "train-demo")},
    **{(cmd, "dl2"): "the bundled proofs' formulas carry a flag profile with "
       "negation, which dl2's lacks"
       for cmd in ("proof-check-init", "proof-check-limplext", "proof-search")},
}


def _sweep_cases(tmp_path):
    goal = _search_goal(tmp_path)
    for lg, flags in LOGIC_FLAGS.items():
        logic = ["--logic", lg] + flags
        net = ["--inputs", INPUTS, "--net", f"N={NET}"]
        yield "compile", lg, ["compile", SPEC] + logic
        yield "eval", lg, ["eval", SPEC, *net, "--grad", "x"] + logic
        yield "shadow", lg, ["shadow"] + logic
        yield "converge", lg, ["converge"] + logic
        yield "train-demo", lg, ["train-demo", SPEC, *net, "--steps", "2"] + logic
    yield "laws", None, ["laws", "--samples", "20"]
    for calc in sorted(CALCULI):
        on = ["--calculus", calc]
        yield "proof-check-init", calc, ["proof", "check",
                                         str(FIX / "init_goedel.json"), *on]
        yield "proof-check-limplext", calc, ["proof", "check",
                                             str(FIX / "limpl_ext_luka.json"), *on]
        yield "proof-search", calc, ["proof", "search", *on, "--goal", goal,
                                     "--depth", "3"]
        yield "weakcomp", calc, ["weakcomp", *on, "--depth", "4"]
        yield "fuzz-soundness", calc, ["fuzz-soundness", *on, "--samples", "20",
                                       "--depth", "3"]
    for case, argv in {**OUT_OF_RANGE, **ABBREVIATED}.items():
        yield case, None, _filled(argv, tmp_path)
    for case, (argv, _) in BAD_BINDINGS.items():
        yield case, None, _filled(argv, tmp_path)


def test_every_subcommand_keeps_the_exit_code_contract(tmp_path, capsys):
    """Every subcommand under every logic or calculus, on the bundled
    fixtures at small budgets, exits 0/1 with a strict report or 2 with one
    error line; exactly the listed combinations exit 2."""
    breaches = []
    for cmd, target, argv in _sweep_cases(tmp_path):
        code = run(argv)
        breach = _contract_breach(code, capsys.readouterr())
        want_usage = ((cmd, target) in EXPECTED_USAGE_ERRORS or cmd in OUT_OF_RANGE
                      or cmd in ABBREVIATED or cmd in BAD_BINDINGS)
        if breach is None and (code == 2) != want_usage:
            breach = f"exit {code}, expected {'2' if want_usage else '0 or 1'}"
        if breach is not None:
            breaches.append((cmd, target, breach))
    assert breaches == []


# The common flags each subcommand's handler reads; it accepts no other.
COMMON_FLAGS = {"--carrier": "f64", "--samples": "5", "--seed": "1", "--tol": "0.1"}
READ_FLAGS = {
    "compile": (), "eval": ("--carrier",), "laws": ("--samples", "--seed", "--tol"),
    "shadow": ("--tol",), "converge": ("--seed", "--tol"), "proof-check-init": (),
    "proof-search": (), "weakcomp": (), "fuzz-soundness": ("--samples", "--seed", "--tol"),
    "train-demo": (),
}
UNREAD_FLAGS = [(cmd, flag) for cmd, reads in READ_FLAGS.items()
                for flag in COMMON_FLAGS if flag not in reads]


@pytest.mark.parametrize("cmd, flag", UNREAD_FLAGS,
                         ids=[cmd + flag for cmd, flag in UNREAD_FLAGS])
def test_a_flag_the_subcommand_does_not_read_is_usage_error(tmp_path, capsys,
                                                             cmd, flag):
    argv = next(argv for c, _, argv in _sweep_cases(tmp_path)
                if c == cmd)
    assert run(argv + [flag, COMMON_FLAGS[flag]]) == 2
    captured = capsys.readouterr()
    assert _contract_breach(2, captured) is None
    assert f"unrecognized arguments: {flag}" in captured.err


def _handler_parsers(parser):
    """Each subparser of parser that names a handler, nested ones included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _handler_parsers(sub)
    if parser.get_default("fn") is not None:
        yield parser


def test_every_option_is_read_by_some_run(tmp_path, capsys):
    """Over the sweep's runs, each handler reads every option its
    subcommand accepts, so no subcommand takes a flag it ignores."""
    read = {}

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            fn = object.__getattribute__(self, "fn")
            read.setdefault(fn, set()).add(name)
            return object.__getattribute__(self, name)

    parser = cli.build_parser()
    for cmd, _, argv in _sweep_cases(tmp_path):
        if cmd in OUT_OF_RANGE or cmd in ABBREVIATED:
            continue
        args = parser.parse_args(argv)
        try:
            args.fn(Recording(**vars(args)))
        except DlcError:
            pass
    capsys.readouterr()
    unread = [(p.prog, a.option_strings[0]) for p in _handler_parsers(parser)
              for a in p._actions if a.option_strings and a.dest != "help"
              and a.dest not in read.get(p.get_default("fn"), ())]
    assert unread == []
    # --out, and the 10 common flags of READ_FLAGS
    assert sum(flag in a.option_strings for p in _handler_parsers(parser)
               for a in p._actions for flag in [*COMMON_FLAGS, "--out"]) == 20

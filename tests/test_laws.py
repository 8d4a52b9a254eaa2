"""Algebraic law matrix: expected verdicts, witnesses, residuation."""

import json
import math

import pytest

from dlc.core import ALL_FUZZY, DL2, GODEL, LUKASIEWICZ, PRODUCT, STL_INFTY, stl, yager
from dlc.laws import (
    EXPECTED_MATRIX,
    GROUPS,
    AxiomId,
    _shape,
    check_axiom_values,
    check_residuation,
    render_matrix,
    table3_matrix,
)

SAMPLES = 200  # a fast sweep; the acceptance suite runs the full budget


@pytest.fixture(scope="module")
def matrix():
    return table3_matrix(seed=11, n_samples=SAMPLES)


def test_group_verdicts_match_expectations(matrix):
    assert matrix["groups"] == EXPECTED_MATRIX


def test_no_cells_carry_witnesses(matrix):
    for logic, row in matrix["groups"].items():
        for group, verdict in row.items():
            if verdict != "no":
                continue
            members = [a.value for a in GROUPS[group]]
            cells = [matrix["cells"][logic][m] for m in members]
            # a "no" group is justified by a numeric counterexample or by a
            # member whose connectives the logic does not define at all
            bad = [c for c in cells if c["verdict"] == "counterexample"]
            na = [c for c in cells if c["verdict"] == "not-applicable"]
            assert bad or na, f"{logic}/{group} marked no without a reason"
            for cell in bad:
                assert cell["witness"] is not None


# axiom -> (arity, connectives and constants it needs), as written out by
# hand before both were read off the AXIOMS terms
HAND_SHAPES = {
    "R1": (2, ["and"]),
    "R2": (3, ["and"]),
    "R3": (2, ["or"]),
    "R4": (3, ["or"]),
    "R5": (2, ["and", "or"]),
    "R6": (2, ["and", "or"]),
    "R7": (3, ["and", "or"]),
    "R8": (3, ["mand"]),
    "R9": (1, ["mand", "top"]),
    "N1": (1, ["not", "impl", "bottom"]),
    "N2": (1, ["not"]),
    "N3": (2, ["not", "and", "or"]),
    "N4": (2, ["not", "and", "or"]),
    "M1": (3, ["mor"]),
    "M2": (2, ["not", "mand", "mor"]),
    "M3": (2, ["not", "mand", "mor"]),
    "IDEM": (1, ["mand"]),
}


def test_shapes_read_off_the_terms_match_the_hand_lists():
    axioms = [a for a in AxiomId if a is not AxiomId.R10]
    assert [a.value for a in axioms] == list(HAND_SHAPES)
    for axiom in axioms:
        arity, needs = HAND_SHAPES[axiom.value]
        assert _shape(axiom) == (arity, set(needs))


def test_infinite_witness_values_are_written_as_text():
    # STL-inf negation fails N1 at x = -1: the right side is -inf there
    rep = check_axiom_values(STL_INFTY, AxiomId.N1, 60, seed=7)
    assert rep.verdict == "counterexample" and rep.witness["rhs"] == -math.inf
    cell = rep.to_json()["witness"]
    assert cell == {"xs": [-1.0], "lhs": 1.0, "rhs": "-inf"}
    json.dumps(cell, allow_nan=False)


def test_goedel_idempotence_passes():
    rep = check_axiom_values(GODEL, AxiomId.IDEM_MONOID, SAMPLES)
    assert rep.verdict == "pass"


def test_lukasiewicz_idempotence_counterexample():
    rep = check_axiom_values(LUKASIEWICZ, AxiomId.IDEM_MONOID, SAMPLES)
    assert rep.verdict == "counterexample"
    x = rep.witness["xs"][0]
    assert max(2 * x - 1, 0.0) != pytest.approx(x)


def test_yager_monoidal_dual_counterexample_value():
    # x = y = 1/3 at r = 2 separates the two sides by more than 0.3
    rep = check_axiom_values(yager(2.0), AxiomId.M2, SAMPLES)
    assert rep.verdict == "counterexample"
    assert abs(rep.witness["lhs"] - rep.witness["rhs"]) > 1e-6


def test_dl2_negation_axioms_not_applicable():
    for axiom in (AxiomId.N1, AxiomId.N2, AxiomId.N3, AxiomId.N4):
        rep = check_axiom_values(DL2, axiom, SAMPLES)
        assert rep.verdict == "not-applicable"


def test_stl_infty_double_negation_passes():
    rep = check_axiom_values(STL_INFTY, AxiomId.N2, SAMPLES)
    assert rep.verdict == "pass"


def test_stl_infty_n1_counterexample():
    rep = check_axiom_values(STL_INFTY, AxiomId.N1, SAMPLES)
    assert rep.verdict == "counterexample"


class TestResiduation:
    @pytest.mark.parametrize(
        "logic",
        [DL2, PRODUCT, GODEL, LUKASIEWICZ, yager(2.0), STL_INFTY],
        ids=lambda lg: lg.kind.value,
    )
    def test_biconditional_off_boundary(self, logic):
        rep = check_residuation(logic, n_samples=SAMPLES, seed=5)
        assert rep.verdict == "pass"
        assert rep.samples_run == SAMPLES

    def test_stl_not_applicable(self):
        rep = check_residuation(stl(1.0), n_samples=SAMPLES)
        assert rep.verdict == "not-applicable"


def test_render_matrix_shows_all_logics(matrix):
    text = render_matrix(matrix)
    for name in EXPECTED_MATRIX:
        assert name in text

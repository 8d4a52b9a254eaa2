"""Randomized verification of the algebraic law matrix.

Each logic is checked against the residuated-lattice axioms R1-R10, the
negation axioms N1-N4, the monoidal-dual axioms M1-M3, and idempotence.
Positive cells must survive sampling; negative cells must produce a
concrete counterexample witness.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Dict, List, Optional

from .core import AXIOMS, LogicId, term_value
from .semantics import LOGICS


class AxiomId(Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"
    R6 = "R6"
    R7 = "R7"
    R8 = "R8"
    R9 = "R9"
    R10 = "R10"
    N1 = "N1"
    N2 = "N2"
    N3 = "N3"
    N4 = "N4"
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    IDEM_MONOID = "IDEM"


@dataclass
class LawReport:
    logic: str
    axiom: str
    samples_run: int
    verdict: str  # pass | counterexample | not-applicable
    tol: float
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "logic": self.logic,
            "axiom": self.axiom,
            "samples_run": self.samples_run,
            "verdict": self.verdict,
            "tol": self.tol,
            "witness": None if self.witness is None else {
                k: [_json_number(x) for x in v] if isinstance(v, list)
                else _json_number(v)
                for k, v in self.witness.items()
            },
        }


def _json_number(v: float):
    """An extended-real witness value as a report holds it: JSON has no
    infinities, so they are written as the strings "inf" and "-inf"."""
    return v if math.isfinite(v) else str(v)


# ---------------------------------------------------------------------------
# Per-logic value domains


class ValueDomain:
    """Comparison and value-level connectives for one logic, as its
    ``LOGICS`` entry (``spec``, which also samples) declares them."""

    def __init__(self, logic: LogicId):
        self.logic = logic
        spec = self.spec = LOGICS[logic.kind]
        c = self.carrier = spec.carrier
        self.ops = {k: partial(f, c, logic) for k, f in spec.clauses.items()}
        for k, form in spec.soft.items():  # a soft form on two operands
            self.ops[k] = lambda x, y, form=form: form(c, logic, [x, y])
        self.consts: Dict[str, object] = {
            name: make(c)
            for name, make in (("top", spec.top), ("bottom", spec.bottom))
            if make is not None
        }

    # -- comparison -------------------------------------------------------

    def value(self, x) -> float:
        return self.carrier.primal(x)

    def eq(self, a, b, tol: float) -> bool:
        va, vb = self.value(a), self.value(b)
        if va == vb:  # covers matching infinities exactly
            return True
        return abs(va - vb) <= tol

    def leq(self, a, b, tol: float) -> bool:
        va, vb = self.value(a), self.value(b)
        return va <= vb + tol if (va == va) else False


# ---------------------------------------------------------------------------
# Axioms on values


def _shape(axiom: AxiomId):
    """(arity, needs) of an ``AXIOMS`` entry: the number of variables, and
    the node kinds and constants its terms use."""
    parts, terms = set(), list(AXIOMS[axiom.value][1:])
    while terms:
        t = terms.pop()
        if type(t) is tuple:
            t, *kids = t
            terms += kids
        parts.add(t)
    arity = 1 + max(p for p in parts if type(p) is int)
    return arity, {p for p in parts if type(p) is str}


def _applicable(domain: ValueDomain, needs) -> bool:
    return all(n in domain.ops or n in domain.consts for n in needs)


def check_axiom_values(
    logic: LogicId,
    axiom: AxiomId,
    n_samples: int = 1000,
    tol: float = 1e-9,
    seed: int = 0,
) -> LawReport:
    if axiom is AxiomId.R10:
        return check_residuation(logic, n_samples, tol, seed)
    domain = ValueDomain(logic)
    relation, lhs, rhs = AXIOMS[axiom.value]
    arity, needs = _shape(axiom)
    name = logic.kind.value
    if not _applicable(domain, needs):
        return LawReport(name, axiom.value, 0, "not-applicable", tol)
    rng = random.Random(seed)
    witnesses = domain.spec.witnesses
    run = 0
    # witness tuples first (constant repetition covers the known failures),
    # then random samples
    streams = [tuple([w] * arity) for w in witnesses]
    if arity >= 2:
        streams += [(w, v, *[w] * (arity - 2)) for w in witnesses for v in witnesses]
    for _ in range(n_samples):
        streams.append(tuple(domain.spec.sample(rng) for _ in range(arity)))
    for xs in streams:
        run += 1
        a = term_value(lhs, domain.ops, domain.consts, xs)
        b = term_value(rhs, domain.ops, domain.consts, xs)
        ok = (domain.eq if relation == "eq" else domain.leq)(a, b, tol)
        if not ok:
            witness = {
                "xs": [domain.value(x) for x in xs],
                "lhs": domain.value(a),
                "rhs": domain.value(b),
            }
            return LawReport(name, axiom.value, run, "counterexample", tol, witness)
    return LawReport(name, axiom.value, run, "pass", tol)


def check_residuation(
    logic: LogicId, n_samples: int = 1000, tol: float = 1e-9, seed: int = 0
) -> LawReport:
    """R10: x (.) y <= z iff y <= x => z, off the decision boundary."""
    domain = ValueDomain(logic)
    name = logic.kind.value
    if not _applicable(domain, ["mand", "impl"]):
        return LawReport(name, AxiomId.R10.value, 0, "not-applicable", tol)
    rng = random.Random(seed)
    ops = domain.ops
    run = 0
    attempts = 0
    while run < n_samples and attempts < 50 * n_samples:
        attempts += 1
        x, y, z = (domain.spec.sample(rng) for _ in range(3))
        prod = ops["mand"](x, y)
        resid = ops["impl"](x, z)
        vp, vz = domain.value(prod), domain.value(z)
        vy, vr = domain.value(y), domain.value(resid)
        # resample anything grazing either inequality boundary
        if domain.eq(prod, z, tol) or domain.eq(y, resid, tol):
            continue
        run += 1
        if (vp <= vz) != (vy <= vr):
            witness = {
                "x": domain.value(x),
                "y": vy,
                "z": vz,
                "x_mand_y": vp,
                "x_impl_z": vr,
            }
            return LawReport(name, AxiomId.R10.value, run, "counterexample", tol,
                             witness)
    return LawReport(name, AxiomId.R10.value, run, "pass", tol)


# ---------------------------------------------------------------------------
# The full matrix


GROUPS = {
    "R1-10": [AxiomId[f"R{i}"] for i in range(1, 11)],
    "N1": [AxiomId.N1],
    "N2-4": [AxiomId.N2, AxiomId.N3, AxiomId.N4],
    "M1-3": [AxiomId.M1, AxiomId.M2, AxiomId.M3],
    "Idem": [AxiomId.IDEM_MONOID],
}

# expected group verdicts (yes = every member axiom passes)
EXPECTED_MATRIX = {
    "goedel": {"R1-10": "yes", "N1": "yes", "N2-4": "no", "M1-3": "yes",
               "Idem": "yes"},
    "lukasiewicz": {"R1-10": "yes", "N1": "yes", "N2-4": "yes", "M1-3": "yes",
                    "Idem": "no"},
    # M2/M3 genuinely fail under the published negation and strong
    # disjunction clauses (witness x = y = 1/3, r = 2), even though the
    # source tables claim a monoidal dual; we report what the clauses do.
    "yager": {"R1-10": "yes", "N1": "yes", "N2-4": "yes", "M1-3": "no",
              "Idem": "no"},
    "product": {"R1-10": "yes", "N1": "yes", "N2-4": "no", "M1-3": "yes",
                "Idem": "no"},
    "dl2": {"R1-10": "yes", "N1": "no", "N2-4": "no", "M1-3": "no",
            "Idem": "no"},
    "stl": {"R1-10": "no", "N1": "no", "N2-4": "yes", "M1-3": "no",
            "Idem": "yes"},
    "stl-inf": {"R1-10": "yes", "N1": "no", "N2-4": "yes", "M1-3": "yes",
                "Idem": "yes"},
}


def matrix_logics() -> List[LogicId]:
    from .core import ALL_FUZZY, DL2, STL_INFTY, stl

    return list(ALL_FUZZY) + [DL2, stl(1.0), STL_INFTY]


def table3_matrix(seed: int = 0, n_samples: int = 1000, tol: float = 1e-9) -> dict:
    """Verdict for every (logic x axiom) cell plus Table-style group cells."""
    cells: Dict[str, Dict[str, LawReport]] = {}
    groups: Dict[str, Dict[str, str]] = {}
    for logic in matrix_logics():
        name = logic.kind.value
        cells[name] = {}
        for axiom in AxiomId:
            rep = check_axiom_values(logic, axiom, n_samples, tol, seed)
            cells[name][axiom.value] = rep
        groups[name] = {}
        for gname, members in GROUPS.items():
            verdicts = [cells[name][m.value].verdict for m in members]
            groups[name][gname] = "yes" if all(v == "pass" for v in verdicts) else "no"
    return {
        "version": "dlc-report/1",
        "kind": "law-matrix",
        "seed": seed,
        "samples": n_samples,
        "tol": tol,
        "cells": {
            lg: {ax: rep.to_json() for ax, rep in row.items()}
            for lg, row in cells.items()
        },
        "groups": groups,
    }


def render_matrix(matrix: dict) -> str:
    """Plain-text table of the group verdicts."""
    names = list(matrix["groups"].keys())
    headers = list(GROUPS.keys())
    width = max(len(n) for n in names) + 2
    lines = [" " * width + "  ".join(f"{h:>6}" for h in headers)]
    for n in names:
        row = matrix["groups"][n]
        lines.append(
            f"{n:<{width}}" + "  ".join(f"{row[h]:>6}" for h in headers)
        )
    return "\n".join(lines)

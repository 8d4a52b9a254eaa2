"""Partial derivatives, shadow-lifting checks, and convergence checks.

Derivatives come from two independent routes — forward-mode dual numbers
and finite differences — so each can act as the other's oracle.  The
limit claims (soft conjunction to min, Yager connectives to min/max) are
replaced by numeric schedules with explicit pass criteria.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .carriers import Dual, DualCarrier, F64Carrier
from .core import GODEL, LogicId
from .errors import DomainError, IndexOutOfRange, ValidationError
from .semantics import LOGICS, fold_nary, soft_conj_branch, stl_nary

ONE_SIDED_H = (1e-3, 1e-4, 1e-5)
# How far the two one-sided estimates of a shadow-lifting partial may differ
# for the partial to count as a derivative.
AGREE_TOL = 1e-4


def err_vec(n: int, i: int) -> Tuple[float, ...]:
    """Unit coordinate vector of length n."""
    if not 0 <= i < n:
        raise IndexOutOfRange(f"coordinate {i} out of range for length {n}")
    return tuple(1.0 if j == i else 0.0 for j in range(n))


@dataclass(frozen=True)
class PartialSpec:
    f: Callable[[Sequence], object]
    point: Tuple[float, ...]
    i: int
    method: str = "central"  # central | dual | forward | backward
    h: Optional[float] = None


def partial(spec: PartialSpec) -> float:
    """Partial derivative estimate of f at point along coordinate i."""
    a = tuple(float(v) for v in spec.point)
    n = len(a)
    if not 0 <= spec.i < n:
        raise IndexOutOfRange(f"coordinate {spec.i} out of range")
    if spec.method == "dual":
        xs = [Dual(v, 1.0 if j == spec.i else 0.0) for j, v in enumerate(a)]
        out = spec.f(xs)
        return out.tangent if isinstance(out, Dual) else float(out)
    e = err_vec(n, spec.i)
    if spec.method == "central":
        h = spec.h if spec.h is not None else 1e-6 * max(1.0, abs(a[spec.i]))
        up = tuple(v + h * d for v, d in zip(a, e))
        dn = tuple(v - h * d for v, d in zip(a, e))
        return (float(spec.f(up)) - float(spec.f(dn))) / (2 * h)
    if spec.method in ("forward", "backward"):
        sign = 1.0 if spec.method == "forward" else -1.0
        hs = (spec.h,) if spec.h is not None else ONE_SIDED_H
        f0 = float(spec.f(a))
        est = 0.0
        for h in hs:  # simple secants; keep the finest step's estimate
            shifted = tuple(v + sign * h * d for v, d in zip(a, e))
            est = sign * (float(spec.f(shifted)) - f0) / h
        return est
    raise ValidationError(f"unknown derivative method {spec.method!r}")


@dataclass
class ShadowReport:
    name: str
    n: int
    p_samples: Tuple[float, ...]
    tol: float
    estimates: List[dict] = field(default_factory=list)
    holds: bool = True
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "version": "dlc-report/1",
            "kind": "shadow-lifting",
            "name": self.name,
            "n": self.n,
            "p_samples": list(self.p_samples),
            "tol": self.tol,
            "estimates": self.estimates,
            "holds": self.holds,
            "witness": self.witness,
        }


def shadow_lifting_check(
    f: Callable[[Sequence], object],
    n: int,
    p_samples: Sequence[float],
    tol: float = 1e-9,
) -> ShadowReport:
    """Check every partial of f is positive at constant positive vectors.

    Holds iff at each (p, i) both one-sided difference estimates agree
    within AGREE_TOL (a differentiability witness) and the derivative
    exceeds tol.  A sample whose difference steps leave f's domain (f
    raises DomainError) is reported as skipped, with the reason; it is
    neither a pass nor a witness.
    """
    if any(p <= 0 for p in p_samples):
        raise ValidationError("shadow-lifting samples must be positive")
    report = ShadowReport(getattr(f, "__name__", "f"), n, tuple(p_samples), tol)
    for p in p_samples:
        point = (float(p),) * n
        for i in range(n):
            try:
                above = partial(PartialSpec(f, point, i, "forward"))
                below = partial(PartialSpec(f, point, i, "backward"))
            except DomainError as exc:
                report.estimates.append({"p": p, "i": i, "skipped": str(exc)})
                continue
            est = 0.5 * (above + below)
            entry = {"p": p, "i": i, "above": above, "below": below, "estimate": est}
            report.estimates.append(entry)
            ok = abs(above - below) <= AGREE_TOL and est > tol
            if not ok and report.holds:
                report.holds = False
                report.witness = entry
    return report


def shadow_lifting_mand(logic: LogicId, n: int, p_samples, tol: float = 1e-9):
    """Shadow-lifting of the logic's n-ary monoidal conjunction."""
    mand = LOGICS[logic.kind].nary["mand"]

    def f(xs):
        carrier = DualCarrier if xs and isinstance(xs[0], Dual) else F64Carrier
        return mand(carrier, logic, list(xs))

    f.__name__ = f"mand_{logic.kind.value}"
    return shadow_lifting_check(f, n, p_samples, tol)


def stl_lt0_branch_derivative(n: int, p: float, nu: float) -> float:
    """Average of both one-sided partials of the soft conjunction's
    below-zero branch (``soft_conj_branch``) at (p,...,p).

    Contract: equals 1/n for any coordinate, p > 0, nu > 0.
    """
    if n < 2 or p <= 0 or nu <= 0:
        raise ValidationError("need n >= 2, p > 0, nu > 0")
    point = (float(p),) * n
    f = lambda xs: soft_conj_branch(F64Carrier, nu, min(xs), xs, True)
    above = partial(PartialSpec(f, point, 0, "forward"))
    below = partial(PartialSpec(f, point, 0, "backward"))
    return 0.5 * (above + below)


@dataclass
class ConvergenceReport:
    name: str
    entries: List[dict] = field(default_factory=list)
    passed: bool = False
    saturated: bool = False

    def to_json(self) -> dict:
        return {
            "version": "dlc-report/1",
            "kind": "convergence",
            "name": self.name,
            "entries": self.entries,
            "passed": self.passed,
            "saturated": self.saturated,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["parameter", "gap"])
        for e in self.entries:
            writer.writerow([e["parameter"], e["gap"]])
        return buf.getvalue()


MAX_EXPONENT = 700.0  # math.exp overflows just above this


def convergence_stl_min(
    values: Sequence[float], nu_schedule: Sequence[float], tol: float
) -> ConvergenceReport:
    """Soft conjunction must approach min(values) as nu grows."""
    values = [float(v) for v in values]
    if not values:
        raise ValidationError("values must be nonempty")
    nus = list(nu_schedule)
    if any(b <= a for a, b in zip(nus, nus[1:])):
        raise ValidationError("nu schedule must be increasing")
    report = ConvergenceReport("stl-conj-to-min")
    target = min(values)
    m = target
    max_dev = max(abs((v - m) / m) for v in values) if m != 0 else 0.0
    for nu in nus:
        if nu * max_dev > MAX_EXPONENT:
            report.saturated = True
            break
        gap = abs(stl_nary("conj", nu, values) - target)
        report.entries.append({"parameter": nu, "gap": gap})
    gaps = [e["gap"] for e in report.entries]
    if gaps:
        tail = gaps[len(gaps) // 2 :]
        monotone = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        report.passed = gaps[-1] < tol and monotone and not report.saturated
    return report


def convergence_yager_godel(
    pairs: Sequence[Tuple[float, float]], r_schedule: Sequence[float], tol: float
) -> ConvergenceReport:
    """Yager conjunction/disjunction must approach min/max as r grows."""
    from .core import yager

    rs = list(r_schedule)
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValidationError("r schedule must be increasing")
    report = ConvergenceReport("yager-to-goedel")
    for r in rs:
        logic = yager(r)
        worst = 0.0
        for a, b in pairs:
            g_and = fold_nary(GODEL, "mand", [a, b])
            g_or = fold_nary(GODEL, "mor", [a, b])
            y_and = fold_nary(logic, "mand", [a, b])
            y_or = fold_nary(logic, "mor", [a, b])
            worst = max(worst, abs(y_and - g_and), abs(y_or - g_or))
        report.entries.append({"parameter": r, "gap": worst})
    report.passed = bool(report.entries) and report.entries[-1]["gap"] < tol
    return report

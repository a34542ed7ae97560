"""Building blocks of the non-local-variable model under test.

A source emitting product states labeled by Poincare vectors (u, v) must
produce joint outcome probabilities of the form

    P(r_A, r_B) = (1 + r_A a.u + r_B b.v + r_A r_B C) / 4

for every measurement pair (a, b), with single-party marginals fixed by
(u, v) alone.  Requiring all four entries to be non-negative constrains the
correlation C to a closed interval; those constraints are what the
inequality module turns into testable bounds.  The law itself is
quantum.stokes_probability, shared with the quantum predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quantum import stokes_probability
from .sphere import UnitVector

__all__ = [
    "OutcomeTable",
    "ConstraintViolationError",
    "leggett_outcomes",
    "admissible_C_range",
    "EnsembleComponent",
    "PureEnsemble",
    "product_ensemble",
    "MarginalReport",
    "check_marginals",
    "explicit_model_margin",
    "explicit_model_feasible",
    "GridScanResult",
    "scan_explicit_model",
]

_POSITIVITY_TOL = 1e-12


class ConstraintViolationError(ValueError):
    """A correlation value forces a negative outcome probability."""

    def __init__(self, r_a: int, r_b: int, deficit: float):
        self.r_a = r_a
        self.r_b = r_b
        self.deficit = deficit
        sign = {1: "+", -1: "-"}
        super().__init__(
            f"outcome ({sign[r_a]}, {sign[r_b]}) would have probability "
            f"-{deficit:.3e} below zero"
        )


@dataclass(frozen=True, slots=True)
class OutcomeTable:
    """Joint probabilities for the four (r_A, r_B) sign pairs."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self) -> None:
        entries = (self.p_pp, self.p_pm, self.p_mp, self.p_mm)
        if min(entries) < -_POSITIVITY_TOL:
            raise ValueError(f"negative outcome probability in {entries}")
        if abs(sum(entries) - 1.0) > 1e-12:
            raise ValueError(f"outcome probabilities sum to {sum(entries)}, not 1")

    def marginal_a(self, r_a: int) -> float:
        return self.p_pp + self.p_pm if r_a == 1 else self.p_mp + self.p_mm

    def marginal_b(self, r_b: int) -> float:
        return self.p_pp + self.p_mp if r_b == 1 else self.p_pm + self.p_mm

    def correlation(self) -> float:
        return self.p_pp - self.p_pm - self.p_mp + self.p_mm


def leggett_outcomes(
    u: UnitVector, v: UnitVector, a: UnitVector, b: UnitVector, c: float
) -> OutcomeTable:
    """Single-pair outcome table for local vectors (u, v) and correlation c.

    Raises ConstraintViolationError (naming the offending sign pair and the
    deficit) when c lies outside the admissible interval.
    """
    if not math.isfinite(c):
        raise ValueError(f"correlation must be finite, got {c}")
    x = a.dot(u)
    y = b.dot(v)
    entries = []  # in OutcomeTable order: ++, +-, -+, --
    for r_a in (1, -1):
        for r_b in (1, -1):
            p = stokes_probability(x, y, c, r_a, r_b)
            if p < -_POSITIVITY_TOL:
                raise ConstraintViolationError(r_a, r_b, -p)
            entries.append(p)
    return OutcomeTable(*entries)


def admissible_C_range(
    u: UnitVector, v: UnitVector, a: UnitVector, b: UnitVector
) -> tuple[float, float]:
    """Closed interval of correlations keeping all four outcomes non-negative:
    [-1 + |a.u + b.v|, 1 - |a.u - b.v|].  Never empty for unit vectors."""
    x = a.dot(u)
    y = b.dot(v)
    return (-1.0 + abs(x + y), 1.0 - abs(x - y))


# A component correlation handle returns either the scalar C (the joint table
# is then built from the single-pair probability law) or a ready-made
# OutcomeTable (used e.g. to build deliberately broken ensembles in tests).
CorrelationHandle = Callable[
    [UnitVector, UnitVector, UnitVector, UnitVector], "float | OutcomeTable"
]


@dataclass(frozen=True, slots=True)
class EnsembleComponent:
    weight: float
    u: UnitVector
    v: UnitVector
    corr: CorrelationHandle


@dataclass(frozen=True, slots=True)
class PureEnsemble:
    """Finite mixture of product-state components with per-pair correlations."""

    components: tuple[EnsembleComponent, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("ensemble needs at least one component")
        weights = [comp.weight for comp in self.components]
        if min(weights) < 0.0:
            raise ValueError(f"negative weight {min(weights)}")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {sum(weights)}, not 1")

    def outcome_table(self, a: UnitVector, b: UnitVector) -> OutcomeTable:
        """Mixture-averaged joint table at settings (a, b)."""
        p = [0.0, 0.0, 0.0, 0.0]
        for comp in self.components:
            table = _component_table(comp, a, b)
            p[0] += comp.weight * table.p_pp
            p[1] += comp.weight * table.p_pm
            p[2] += comp.weight * table.p_mp
            p[3] += comp.weight * table.p_mm
        return OutcomeTable(*p)

    def correlation(self, a: UnitVector, b: UnitVector) -> float:
        total = 0.0
        for comp in self.components:
            value = comp.corr(comp.u, comp.v, a, b)
            if isinstance(value, OutcomeTable):
                value = value.correlation()
            total += comp.weight * value
        return total


def _component_table(comp: EnsembleComponent, a: UnitVector, b: UnitVector) -> OutcomeTable:
    value = comp.corr(comp.u, comp.v, a, b)
    if isinstance(value, OutcomeTable):
        return value
    return leggett_outcomes(comp.u, comp.v, a, b, value)


def _product_correlation(
    u: UnitVector, v: UnitVector, a: UnitVector, b: UnitVector
) -> float:
    return a.dot(u) * b.dot(v)


def product_ensemble(parts: Sequence[tuple[float, UnitVector, UnitVector]]) -> PureEnsemble:
    """Ensemble whose components carry the factorizing correlation
    C = (a.u)(b.v), i.e. a local model."""
    return PureEnsemble(
        tuple(EnsembleComponent(w, u, v, _product_correlation) for w, u, v in parts)
    )


@dataclass(frozen=True, slots=True)
class MarginalReport:
    max_deviation: float
    passed: bool
    deviations: tuple[float, ...]  # per setting pair


def check_marginals(
    ensemble: PureEnsemble,
    settings: Sequence[tuple[UnitVector, UnitVector]],
    tolerance: float = 1e-12,
) -> MarginalReport:
    """Compare ensemble joint marginals against the product-state predictions
    sum_i w_i (1 + r a.u_i)/2 at each setting pair."""
    deviations = []
    for a, b in settings:
        table = ensemble.outcome_table(a, b)
        worst = 0.0
        for r in (1, -1):
            expect_a = sum(
                comp.weight * (1.0 + r * a.dot(comp.u)) / 2.0
                for comp in ensemble.components
            )
            expect_b = sum(
                comp.weight * (1.0 + r * b.dot(comp.v)) / 2.0
                for comp in ensemble.components
            )
            worst = max(
                worst,
                abs(table.marginal_a(r) - expect_a),
                abs(table.marginal_b(r) - expect_b),
            )
        deviations.append(worst)
    max_dev = max(deviations) if deviations else 0.0
    return MarginalReport(
        max_deviation=max_dev, passed=max_dev <= tolerance, deviations=tuple(deviations)
    )


def explicit_model_margin(
    u: UnitVector,
    v: UnitVector,
    pairs: Sequence[tuple[UnitVector, UnitVector]],
    *,
    swapped: bool = False,
) -> float:
    """Worst slack of the explicit-model validity condition over the measured
    pairs: min over pairs and signs s of (1 - s v.b) - |a.b + s u.a|.

    ``swapped`` evaluates the equivalent mirrored form with the roles of
    (u.a) and (v.b) exchanged.  Non-negative margin means the condition holds.
    """
    margin = math.inf
    for a, b in pairs:
        d = a.dot(b)
        x = u.dot(a)
        y = v.dot(b)
        if swapped:
            x, y = y, x
        for s in (1.0, -1.0):
            margin = min(margin, (1.0 - s * y) - abs(d + s * x))
    return margin


def explicit_model_feasible(
    u: UnitVector,
    v: UnitVector,
    pairs: Sequence[tuple[UnitVector, UnitVector]],
    tolerance: float = 1e-12,
) -> bool:
    """True iff the explicit-model validity condition holds on every pair."""
    return explicit_model_margin(u, v, pairs) >= -tolerance


@dataclass(frozen=True, slots=True)
class GridScanResult:
    feasible_found: bool
    best_margin: float
    best_u: UnitVector | None
    best_v: UnitVector | None
    grid_size: int
    candidates_checked: int


def _sphere_grid(resolution_deg: float) -> np.ndarray:
    """Latitude/longitude grid on the unit sphere (antipodally closed when
    the resolution divides 180)."""
    lats = np.arange(0.0, 180.0 + 0.5 * resolution_deg, resolution_deg)
    lons = np.arange(0.0, 360.0, resolution_deg)
    points = []
    for lat in lats:
        theta = math.radians(lat)
        if abs(lat) < 1e-9 or abs(lat - 180.0) < 1e-9:
            points.append((0.0, 0.0, math.cos(theta)))
            continue
        st, ct = math.sin(theta), math.cos(theta)
        for lon in lons:
            lam = math.radians(lon)
            points.append((st * math.cos(lam), st * math.sin(lam), ct))
    return np.asarray(points)


def scan_explicit_model(
    pairs: Sequence[tuple[UnitVector, UnitVector]],
    resolution_deg: float = 1.0,
    tolerance: float = 1e-12,
) -> GridScanResult:
    """Exhaustive search for a feasible (u, v) over a sphere grid.

    Every (u, v) grid pair is covered: candidate v for a given u must satisfy
    lo_m(u) <= v.b_m <= hi_m(u) for each measured pair m (a restatement of
    the two-sign validity condition), so pairs failing the tightest such
    interval are excluded wholesale and only the survivors get a full margin
    evaluation.  With aligned pairs (a = b) in the schedule the tightest
    interval pins v.a to -u.a within the tolerance, which prunes everything
    except near-antipodal pairs.
    """
    if not pairs:
        raise ValueError("need at least one measured pair to scan")
    grid = _sphere_grid(resolution_deg)
    n_grid = grid.shape[0]
    a_mat = np.array([p[0].as_tuple() for p in pairs])
    b_mat = np.array([p[1].as_tuple() for p in pairs])
    d = np.einsum("mi,mi->m", a_mat, b_mat)

    ua = grid @ a_mat.T  # (n_grid, m)
    vb = grid @ b_mat.T
    hi = 1.0 - np.abs(d[None, :] + ua) + tolerance
    lo = -1.0 + np.abs(d[None, :] - ua) - tolerance

    # narrowest interval on average is the strongest filter
    pivot = int(np.argmin(np.median(hi - lo, axis=0)))
    order = np.argsort(vb[:, pivot], kind="stable")
    vb_pivot_sorted = vb[order, pivot]

    best_margin = -math.inf
    best_u = best_v = None
    feasible = False
    checked = 0
    for i in range(n_grid):
        j_lo = int(np.searchsorted(vb_pivot_sorted, lo[i, pivot], side="left"))
        j_hi = int(np.searchsorted(vb_pivot_sorted, hi[i, pivot], side="right"))
        for j in order[j_lo:j_hi]:
            checked += 1
            slack = np.minimum(hi[i] - tolerance - vb[j], vb[j] - lo[i] - tolerance)
            margin = float(slack.min())
            if margin > best_margin:
                best_margin = margin
                best_u = UnitVector.normalized(*grid[i])
                best_v = UnitVector.normalized(*grid[j])
                if margin >= -tolerance:
                    feasible = True
                    break
        if feasible:
            break
    return GridScanResult(
        feasible_found=feasible,
        best_margin=best_margin,
        best_u=best_u,
        best_v=best_v,
        grid_size=n_grid,
        candidates_checked=checked,
    )

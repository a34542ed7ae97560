"""Building blocks of the non-local-variable model under test.

A source emitting product states labeled by Poincare vectors (u, v) must
produce joint outcome probabilities of the form

    P(r_A, r_B) = (1 + r_A a.u + r_B b.v + r_A r_B C) / 4

for every measurement pair (a, b), with single-party marginals fixed by
(u, v) alone.  Requiring all four entries to be non-negative constrains the
correlation C to a closed interval; those constraints are what the
inequality module turns into testable bounds.  The law itself is
quantum.stokes_probability, shared with the quantum predictions, and an
outcome table is a 4-tuple in the quantum module's sign order (+,+), (-,-),
(-,+), (+,-).  The explicit model's validity condition and its sphere-grid
scan test whether one component can reproduce a whole setting schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quantum import _SIGN_PAIRS, stokes_probability
from .sphere import UnitVector

__all__ = [
    "ConstraintViolationError",
    "leggett_outcomes",
    "admissible_C_range",
    "EnsembleComponent",
    "PureEnsemble",
    "product_ensemble",
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


def leggett_outcomes(
    u: UnitVector, v: UnitVector, a: UnitVector, b: UnitVector, c: float
) -> tuple[float, float, float, float]:
    """Single-pair outcome probabilities for local vectors (u, v) and
    correlation c, in the sign order (+,+), (-,-), (-,+), (+,-).

    Raises ConstraintViolationError (naming the first offending sign pair and
    the deficit) when c lies outside the admissible interval.
    """
    if not math.isfinite(c):
        raise ValueError(f"correlation must be finite, got {c}")
    x = a.dot(u)
    y = b.dot(v)
    entries = []
    for r_a, r_b in _SIGN_PAIRS:
        p = stokes_probability(x, y, c, r_a, r_b)
        if p < -_POSITIVITY_TOL:
            raise ConstraintViolationError(r_a, r_b, -p)
        entries.append(p)
    return tuple(entries)


def admissible_C_range(
    u: UnitVector, v: UnitVector, a: UnitVector, b: UnitVector
) -> tuple[float, float]:
    """Closed interval of correlations keeping all four outcomes non-negative:
    [-1 + |a.u + b.v|, 1 - |a.u - b.v|].  Never empty for unit vectors."""
    x = a.dot(u)
    y = b.dot(v)
    return (-1.0 + abs(x + y), 1.0 - abs(x - y))


@dataclass(frozen=True, slots=True)
class EnsembleComponent:
    """Weighted product-state component; ``corr(u, v, a, b)`` is its
    correlation C at settings (a, b)."""

    weight: float
    u: UnitVector
    v: UnitVector
    corr: Callable[[UnitVector, UnitVector, UnitVector, UnitVector], float]


@dataclass(frozen=True, slots=True)
class PureEnsemble:
    """Finite mixture of product-state components with per-pair correlations."""

    components: tuple[EnsembleComponent, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("ensemble needs at least one component")
        weights = [comp.weight for comp in self.components]
        # written so that NaN fails both checks
        if not all(w >= 0.0 for w in weights):
            raise ValueError(f"weights must be non-negative, got {weights}")
        if not abs(sum(weights) - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {sum(weights)}, not 1")

    def correlation(self, a: UnitVector, b: UnitVector) -> float:
        total = 0.0
        for comp in self.components:
            total += comp.weight * comp.corr(comp.u, comp.v, a, b)
        return total


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


def explicit_model_margin(
    u: UnitVector,
    v: UnitVector,
    pairs: Sequence[tuple[UnitVector, UnitVector]],
) -> float:
    """Worst slack of the explicit-model validity condition over the measured
    pairs: min over pairs and signs s of (1 - s v.b) - |a.b + s u.a|.
    Non-negative margin means the condition holds.

    The mirrored form, with the roles of u.a and v.b exchanged, is this
    function with the parties exchanged: margin(v, u, [(b, a), ...]).
    """
    margin = math.inf
    for a, b in pairs:
        d = a.dot(b)
        x = u.dot(a)
        y = v.dot(b)
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

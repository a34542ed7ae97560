"""Building blocks of the non-local-variable model under test.

A source emitting product states labeled by Poincare vectors (u, v) must
produce joint outcome probabilities of the form

    P(r_A, r_B) = (1 + r_A a.u + r_B b.v + r_A r_B C) / 4

for every measurement pair (a, b), with single-party marginals fixed by
(u, v) alone.  Requiring all four entries to be non-negative constrains the
correlation C to a closed interval; those constraints are what the
inequality module turns into testable bounds.  The law itself is
quantum.stokes_probability, shared with the quantum predictions.  Settings
are stacked (k, 3) rows (one evaluation is k = 1), and each function is
elementwise arithmetic on the projections a.u, b.v and a.b: the interval,
the (k, 4) outcome tables in the quantum sign order (+,+), (-,-), (-,+),
(+,-), and the explicit model's validity margin, written once for the
direct evaluation and the sphere-grid scan of whether one component can
reproduce a whole setting schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .quantum import _SIGN_PAIRS, stokes_probability
from .sphere import UnitVector, _dot

__all__ = [
    "ConstraintViolationError",
    "leggett_outcomes",
    "admissible_C_range",
    "EnsembleComponent",
    "PureEnsemble",
    "product_ensemble",
    "explicit_model_margin",
    "GridScanResult",
    "scan_explicit_model",
]

_POSITIVITY_TOL = 1e-12
# An entry is (c - lo)/4 or (hi - c)/4 at the interval ends, so a
# correlation may leave its interval by four times the entry tolerance.
_INTERVAL_TOL = 4.0 * _POSITIVITY_TOL
_SCAN_TOL = 1e-12  # slack on the scan's pivot interval and its feasibility test


class ConstraintViolationError(ValueError):
    """A correlation value forces a negative outcome probability.

    ``row`` is the first offending settings row and ``count`` the number of
    offending rows; the sign pair and the deficit are those of that row's
    most negative entry (for an ensemble, of its first offending component).
    """

    def __init__(self, row: int, r_a: int, r_b: int, deficit: float, count: int = 1):
        self.row, self.r_a, self.r_b, self.deficit, self.count = row, r_a, r_b, deficit, count
        sign = {1: "+", -1: "-"}
        super().__init__(
            f"row {row}: outcome ({sign[r_a]}, {sign[r_b]}) would have probability "
            f"-{deficit:.3e} below zero ({count} offending row{'s' * (count != 1)})"
        )


def _violation(row: int, x: float, y: float, c: float, count: int = 1) -> ConstraintViolationError:
    entries = stokes_probability(x, y, c).tolist()
    worst = min(range(len(entries)), key=entries.__getitem__)
    return ConstraintViolationError(row, *_SIGN_PAIRS[worst], -entries[worst], count)


def leggett_outcomes(u: ArrayLike, v: ArrayLike, a: ArrayLike, b: ArrayLike, c: ArrayLike):
    """Outcome probabilities for stacked local vectors (u, v), settings
    (a, b), each (k, 3), and correlations c, shape (k,): a (k, 4) table in
    the sign order (+,+), (-,-), (-,+), (+,-).

    Raises ConstraintViolationError, naming the first offending row, when
    some c lies outside its admissible interval.
    """
    x, y, c = np.broadcast_arrays(*np.atleast_1d(_dot(a, u), _dot(b, v), c))
    if not np.isfinite(c).all():
        raise ValueError(f"correlation must be finite, got {c[~np.isfinite(c)][0]}")
    p = stokes_probability(x, y, c)
    bad = np.flatnonzero(~(p >= -_POSITIVITY_TOL).all(axis=-1))
    if bad.size:
        row = int(bad[0])
        raise _violation(row, x[row], y[row], c[row], bad.size)
    return p


def admissible_C_range(u: ArrayLike, v: ArrayLike, a: ArrayLike, b: ArrayLike):
    """Per row of stacked (k, 3) settings, the closed interval of correlations
    keeping all four outcomes non-negative: [-1 + |a.u + b.v|, 1 - |a.u - b.v|].
    Never empty for unit vectors."""
    x, y = _dot(a, u), _dot(b, v)
    return (-1.0 + abs(x + y), 1.0 - abs(x - y))


@dataclass(frozen=True, slots=True)
class EnsembleComponent:
    """Weighted product-state component.  ``corr(u, v, a, b)`` is its correlation
    C: given the (g, 3) local vectors of the g components sharing this ``corr``
    and stacked (k, 3) settings, it returns their (g, k) correlations."""

    weight: float
    u: UnitVector
    v: UnitVector
    corr: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, slots=True)
class PureEnsemble:
    """Finite mixture of product-state components with per-pair correlations,
    stacked once by ``corr``: a correlation call makes one call per ``corr``."""

    components: tuple[EnsembleComponent, ...]
    _groups: tuple = field(init=False, repr=False, compare=False)  # (corr, u rows, v rows)
    _wuv: tuple = field(init=False, repr=False, compare=False)  # stacked w, u, v

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("ensemble needs at least one component")
        weights = [comp.weight for comp in self.components]
        # written so that NaN fails both checks
        if not all(w >= 0.0 for w in weights):
            raise ValueError(f"weights must be non-negative, got {weights}")
        if not abs(sum(weights) - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {sum(weights)}, not 1")
        groups: dict = {}
        for comp in self.components:
            groups.setdefault(comp.corr, []).append(comp)
        uv = [[np.array([getattr(c, side) for c in members], dtype=float) for side in "uv"]
              for members in groups.values()]
        w = np.array([c.weight for members in groups.values() for c in members], dtype=float)
        object.__setattr__(self, "_groups", tuple((corr, *rows) for corr, rows in zip(groups, uv)))
        object.__setattr__(self, "_wuv", (w, *(np.concatenate(side) for side in zip(*uv))))

    def correlation(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Per row of stacked (k, 3) settings, the weighted sum of the
        component correlations; raises ConstraintViolationError, naming the
        first offending settings row, where some component leaves its
        interval."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        c = np.concatenate([corr(u, v, a, b) for corr, u, v in self._groups])  # (m, k)
        w, u, v = self._wuv
        x, y = _dot(u[:, None], a), _dot(v[:, None], b)
        ok = (c >= np.abs(x + y) - (1.0 + _INTERVAL_TOL)) & (c <= (1.0 + _INTERVAL_TOL) - np.abs(x - y))
        if not ok.all():  # NaN fails too
            rows = np.flatnonzero(~ok.all(axis=0))
            row, j = int(rows[0]), int(np.argmin(ok[:, rows[0]]))  # j: first bad component
            raise _violation(row, x[j, row], y[j, row], c[j, row], rows.size)
        return np.cumsum(w[:, None] * c, axis=0)[-1]  # components added in order


def _product_correlation(u: np.ndarray, v: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _dot(u[:, None], a) * _dot(v[:, None], b)


def product_ensemble(parts: Sequence[tuple[float, UnitVector, UnitVector]]) -> PureEnsemble:
    """Ensemble whose components carry the factorizing correlation
    C = (a.u)(b.v), i.e. a local model."""
    return PureEnsemble(tuple(EnsembleComponent(w, u, v, _product_correlation) for w, u, v in parts))


def _margin(x, y, d):
    """(1 - s y) - |d + s x| minimised over s = +-1, elementwise on the
    projections x = u.a, y = v.b and d = a.b."""
    return np.minimum((1.0 - y) - np.abs(d + x), (1.0 + y) - np.abs(d - x))


def explicit_model_margin(u: ArrayLike, v: ArrayLike, pairs: ArrayLike) -> np.ndarray:
    """Worst slack of the explicit-model validity condition for stacked
    candidates (u, v), each (k, 3): min over the measured pairs and signs s
    of (1 - s v.b) - |a.b + s u.a|, shape (k,).  Non-negative margin means
    the condition holds.

    ``pairs`` holds (a, b) rows, shape (m, 2, 3) for pairs shared by every
    candidate or (k, m, 2, 3) for one pair set per candidate.  The mirrored
    form of the condition, with the roles of u.a and v.b exchanged, is this
    function with the parties exchanged: margin(v, u, pairs[..., ::-1, :]).
    """
    pairs = np.asarray(pairs, dtype=float)
    a, b = pairs[..., 0, :], pairs[..., 1, :]
    x = _dot(np.asarray(u, dtype=float)[..., None, :], a)
    y = _dot(np.asarray(v, dtype=float)[..., None, :], b)
    return _margin(x, y, _dot(a, b)).min(axis=-1)


@dataclass(frozen=True, slots=True)
class GridScanResult:
    feasible_found: bool
    best_margin: float
    best_u: UnitVector | None
    best_v: UnitVector | None
    grid_size: int
    candidates_checked: int


def _sphere_grid(resolution_deg: float) -> np.ndarray:
    """Latitude/longitude grid on the unit sphere, north pole first, rings
    at latitudes up to 180 deg, south pole last when the resolution
    divides 180."""
    lats = np.arange(0.0, 180.0 + 0.5 * resolution_deg, resolution_deg)
    lats = lats[lats <= 180.0 + 1e-9]
    pole = (lats < 1e-9) | (np.abs(lats - 180.0) < 1e-9)
    theta = np.radians(lats[~pole])[:, None]
    lam = np.radians(np.arange(0.0, 360.0, resolution_deg))[None, :]
    rings = np.stack(np.broadcast_arrays(
        np.sin(theta) * np.cos(lam), np.sin(theta) * np.sin(lam), np.cos(theta)
    ), axis=-1).reshape(-1, 3)
    poles = np.array([(0.0, 0.0, z) for z in np.cos(np.radians(lats[pole]))])
    return np.concatenate([poles[:1], rings, poles[1:]])


def scan_explicit_model(pairs: ArrayLike, resolution_deg: float = 1.0) -> GridScanResult:
    """Exhaustive search for a feasible (u, v) over a sphere grid of
    ``resolution_deg`` in (0, 180] that divides 180, so that the grid is
    closed under antipodes (v = -u, which aligned pairs require), and of at
    most 1,000,000 points (0.3 degrees or coarser).

    ``pairs`` holds the measured (a, b) rows, shape (m, 2, 3): for example
    np.stack(sphere.schedule_rows(...), axis=1), or a list of UnitVector
    pairs.  Every (u, v) grid pair is covered: the condition on one measured
    pair, the pivot with the narrowest interval on average, bounds v.b to an
    interval set by u alone, so grid points v outside it are excluded
    wholesale and each u's survivors are scored with the full margin in one
    call.  With aligned pairs (a = b) in the schedule the pivot pins v.a to
    -u.a within _SCAN_TOL, which prunes all but near-antipodal pairs.
    """
    rows = np.asarray(pairs, dtype=float)
    if rows.ndim != 3 or rows.shape[1:] != (2, 3) or not rows.shape[0]:
        raise ValueError(f"need measured (a, b) pairs as (m, 2, 3) rows, m >= 1; got {rows.shape}")
    steps = 180.0 / resolution_deg if 0.0 < resolution_deg <= 180.0 else math.nan  # NaN too
    if steps != math.inf:  # a subnormal resolution: refused below as too many points
        if not abs(math.remainder(steps, 1.0)) <= 1e-9:
            raise ValueError(f"scan resolution must be in (0, 180] dividing 180, got {resolution_deg!r}")
        steps = round(steps)
    points = (steps - 1) * 2 * steps + 2  # steps - 1 rings of 2 steps points, two poles
    if points > 1_000_000:  # counted before the grid is built, as the CLI counts angles
        raise ValueError(f"a {resolution_deg!r} degree grid has over 1000000 points")
    grid = _sphere_grid(resolution_deg)
    a_mat, b_mat = rows[:, 0], rows[:, 1]
    d = np.einsum("mi,mi->m", a_mat, b_mat)

    ua = grid @ a_mat.T  # (n_grid, m)
    vb = grid @ b_mat.T
    hi = 1.0 - np.abs(d + ua) + _SCAN_TOL
    lo = -1.0 + np.abs(d - ua) - _SCAN_TOL
    pivot = int(np.argmin(np.median(hi - lo, axis=0)))
    order = np.argsort(vb[:, pivot], kind="stable")
    j_lo = np.searchsorted(vb[order, pivot], lo[:, pivot], side="left")
    j_hi = np.searchsorted(vb[order, pivot], hi[:, pivot], side="right")

    best_margin, best, checked = -math.inf, (None, None), 0
    for i in np.flatnonzero(j_hi > j_lo):
        candidates = order[j_lo[i]:j_hi[i]]
        margins = _margin(ua[i], vb[candidates], d).min(axis=1)
        feasible = np.flatnonzero(margins >= -_SCAN_TOL)
        if feasible.size:  # the scan stops at the first one in pivot order
            j = int(feasible[0])
            checked += j + 1
        else:
            j = int(np.argmax(margins))
            checked += candidates.size
        if margins[j] > best_margin:
            best_margin = float(margins[j])
            best = (UnitVector.normalized(*grid[i].tolist()),
                    UnitVector.normalized(*grid[candidates[j]].tolist()))
        if feasible.size:
            break
    return GridScanResult(best_margin >= -_SCAN_TOL, best_margin, *best, grid.shape[0], checked)

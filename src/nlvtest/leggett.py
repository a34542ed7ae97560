"""Building blocks of the non-local-variable model under test.

A source emitting product states labeled by Poincare vectors (u, v) must
produce joint outcome probabilities of the form

    P(r_A, r_B) = (1 + r_A a.u + r_B b.v + r_A r_B C) / 4

for every measurement pair (a, b), with single-party marginals fixed by
(u, v) alone.  Requiring all four entries to be non-negative constrains the
correlation C to a closed interval; those constraints are what the
inequality module turns into testable bounds.  The law itself is
quantum.stokes_probability, shared with the quantum predictions.  A mixture
of such sources, ``PureEnsemble``, is its m weights, its (m, 3) rows u and v,
and one correlation function C(u, v; a, b) covering every component.
Settings are stacked (k, 3) rows (one evaluation is k = 1), and each
function is elementwise arithmetic on the projections a.u, b.v and a.b: the
interval, the (k, 4) outcome tables in the quantum sign order (+,+), (-,-),
(-,+), (+,-), and the explicit model's validity margin.  The margin is
written once, on the projections u.a, v.b and a.b, for the direct
evaluation and for the sphere-grid scan of whether one component can
reproduce a whole setting schedule; the scan computes the projections once
per grid point and drops a candidate as soon as its narrowest pair columns
show that it cannot win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .quantum import _SIGN_PAIRS, stokes_probability
from .sphere import NORM_TOLERANCE, _dot

__all__ = [
    "ConstraintViolationError",
    "leggett_outcomes",
    "admissible_C_range",
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
_SCAN_BLOCK = 5120  # candidates per block of the scan, whole u segments; sized by measurement
_SCAN_HEAD = 3  # pair columns the scan scores on every candidate of a block


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


def _refuse_non_unit(rows: np.ndarray, label: str, names: str) -> None:
    """Refuse (m, 2, 3) rows holding a vector whose norm is more than
    NORM_TOLERANCE from 1, NaN and inf included, naming the first such row."""
    with np.errstate(over="ignore"):  # a huge component squares to inf, refused below
        norms = np.sqrt(_dot(rows, rows))  # (m, 2)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOLERANCE).all(axis=1))  # NaN too
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{label} {i} is not two unit vectors: {names} = {norms[i].tolist()}")


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


@dataclass(frozen=True, slots=True, eq=False)
class PureEnsemble:
    """Finite mixture of m product-state components: read-only ``weights``,
    shape (m,), local vectors ``u`` and ``v`` as (m, 3) rows, and one
    correlation function ``corr(u, v, a, b)`` giving the (m, k) component
    correlations at stacked (k, 3) settings."""

    weights: np.ndarray
    u: np.ndarray
    v: np.ndarray
    corr: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        w, u, v = (np.array(x, dtype=float) for x in (self.weights, self.u, self.v))
        if w.ndim != 1 or not w.size or not u.shape == v.shape == (w.size, 3):
            raise ValueError(
                f"ensemble needs weights (m,) and u, v as (m, 3) rows, m >= 1; "
                f"got {w.shape}, {u.shape}, {v.shape}"
            )
        # written so that NaN fails both checks
        if not (w >= 0.0).all():
            raise ValueError(f"weights must be non-negative, got {w.tolist()}")
        if not abs(sum(w.tolist()) - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {sum(w.tolist())}, not 1")
        _refuse_non_unit(np.stack([u, v], axis=1), "component", "|u|, |v|")
        for name, x in (("weights", w), ("u", u), ("v", v)):
            x.flags.writeable = False
            object.__setattr__(self, name, x)

    def correlation(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Per row of stacked (k, 3) settings, the weighted sum of the
        component correlations, added in the order given, from one ``corr``
        call; raises ConstraintViolationError, naming the first offending
        settings row, where some component leaves its interval."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        c = np.asarray(self.corr(self.u, self.v, a, b), dtype=float)
        x, y = _dot(self.u[:, None], a), _dot(self.v[:, None], b)  # (m, k)
        if c.shape != x.shape:
            raise ValueError(f"corr must return (m, k) = {x.shape} correlations, got {c.shape}")
        ok = (c >= np.abs(x + y) - (1.0 + _INTERVAL_TOL)) & (c <= (1.0 + _INTERVAL_TOL) - np.abs(x - y))
        if not ok.all():  # NaN fails too
            rows = np.flatnonzero(~ok.all(axis=0))
            row, j = int(rows[0]), int(np.argmin(ok[:, rows[0]]))  # j: first bad component
            raise _violation(row, x[j, row], y[j, row], c[j, row], rows.size)
        return np.cumsum(self.weights[:, None] * c, axis=0)[-1]  # components added in order


def _product_correlation(u: np.ndarray, v: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _dot(u[:, None], a) * _dot(v[:, None], b)


def product_ensemble(weights: ArrayLike, u: ArrayLike, v: ArrayLike) -> PureEnsemble:
    """Ensemble of (m,) weights and (m, 3) rows u and v whose components carry
    the factorizing correlation C = (a.u)(b.v), i.e. a local model."""
    return PureEnsemble(weights, u, v, _product_correlation)


def _margin(x, y, d):
    """The explicit model's margin min((1 - y) - |d + x|, (1 + y) - |d - x|),
    elementwise, where x = u.a, y = v.b and d = a.b are the projections on one
    measured pair."""
    low, high, t = 1.0 - y, 1.0 + y, np.add(d, x)
    low -= np.abs(t, out=t)
    high -= np.abs(np.subtract(d, x, out=t), out=t)
    return np.minimum(low, high, out=low)


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
    d = _dot(a, b)
    return _margin(*np.broadcast_arrays(x, y), d).min(axis=-1)


@dataclass(frozen=True, slots=True)
class GridScanResult:
    feasible_found: bool
    best_margin: float
    best_u: tuple[float, float, float] | None
    best_v: tuple[float, float, float] | None
    grid_size: int
    candidates_checked: int


def _sphere_grid(steps: int) -> np.ndarray:
    """Latitude/longitude grid on the unit sphere at r = 180/steps degrees:
    the north pole (0, 0, 1), steps - 1 rings at latitudes i r, each of
    2 steps points at longitudes j r, and the south pole (0, 0, -1)."""
    r = 180.0 / steps
    theta = np.radians(np.arange(1, steps) * r)[:, None]
    lam = np.radians(np.arange(2 * steps) * r)[None, :]
    rings = np.stack(np.broadcast_arrays(
        np.sin(theta) * np.cos(lam), np.sin(theta) * np.sin(lam), np.cos(theta)
    ), axis=-1).reshape(-1, 3)
    return np.concatenate([[(0.0, 0.0, 1.0)], rings, [(0.0, 0.0, -1.0)]])


def scan_explicit_model(pairs: ArrayLike, resolution_deg: float = 1.0) -> GridScanResult:
    """Exhaustive search for a feasible (u, v) over a sphere grid of
    ``resolution_deg`` in (0, 180] that divides 180, so that the grid is
    closed under antipodes (v = -u, which aligned pairs require), and of at
    most 1,000,000 points (0.3 degrees or coarser).

    ``pairs`` holds the measured (a, b) rows, shape (m, 2, 3): for example
    np.stack(sphere.schedule_rows(...), axis=1), or a list of float triple
    pairs; a row whose |a| or |b| is more than sphere.NORM_TOLERANCE from 1
    (NaN too) is refused with a ValueError naming the first such row.  Every
    (u, v) grid pair is covered: the condition on one measured pair, the
    pivot with the narrowest interval on average, bounds v.b to an interval
    set by u alone, so grid points v outside it are excluded wholesale.  With
    aligned pairs (a = b) in the schedule the pivot pins v.a to -u.a within
    _SCAN_TOL, which prunes all but near-antipodal pairs.

    The survivors, the candidates, are taken in flat order, by u index and
    then in pivot order, one block of whole u segments (about _SCAN_BLOCK
    candidates) at a time.  The pair columns are ordered by median interval
    width, except that the pivot comes last, since its window already holds
    every candidate to its condition; the head is the first _SCAN_HEAD
    columns of that order.  Every candidate of a block gets the
    minimum of the margin over the head; t is the full margin of the
    candidate with the best such minimum, and only the candidates whose
    minimum is at least min(-_SCAN_TOL, max(best so far, t)) are scored on
    every column.  Dropping the others is sound for any head: a minimum over
    more columns can only be lower, so a dropped candidate's margin is below
    -_SCAN_TOL, hence not feasible, and below max(best so far, t), hence
    worse than an earlier block's best or than the candidate scoring t; it
    can be neither the first feasible candidate nor the first best.  The
    result is that of scoring every candidate in full.  The scan stops at
    the first feasible candidate in flat order, which is the best pair, and
    ``candidates_checked`` counts the candidates up to it; otherwise the best
    pair is the first flat argmax and every candidate is counted.

    The working set is u.a and v.b, one (n_grid, m) array each in one
    buffer, which first holds the interval widths, one pair row at a time;
    the grid; the head columns of v.b in pivot order; n_grid-long index
    arrays; and a block's temporaries, which grow with _SCAN_BLOCK, not
    with the grid.  Its peak is about 4.0 (n_grid, m) arrays at 3 degrees
    with N = 3 (m = 12) and 3.5 at 2 degrees.  One buffer, not two, keeps
    the rest of the working set in malloc's free memory between scans:
    glibc's malloc returns freed memory to the system only past twice the
    largest block it has unmapped, so repeated N = 3 scans allocate without
    page faults.
    """
    rows = np.asarray(pairs, dtype=float)
    if rows.ndim != 3 or rows.shape[1:] != (2, 3) or not rows.shape[0]:
        raise ValueError(f"need measured (a, b) pairs as (m, 2, 3) rows, m >= 1; got {rows.shape}")
    _refuse_non_unit(rows, "pair row", "|a|, |b|")
    steps = 180.0 / resolution_deg if 0.0 < resolution_deg <= 180.0 else math.nan  # NaN too
    if steps != math.inf:  # a subnormal resolution: refused below as too many points
        if not abs(math.remainder(steps, 1.0)) <= 1e-9:
            raise ValueError(f"scan resolution must be in (0, 180] dividing 180, got {resolution_deg!r}")
        steps = round(steps)
    points = (steps - 1) * 2 * steps + 2  # steps - 1 rings of 2 steps points, two poles
    if points > 1_000_000:  # counted before the grid is built, as the CLI counts angles
        raise ValueError(f"a {resolution_deg!r} degree grid has over 1000000 points")
    grid = _sphere_grid(steps)
    n_grid, m = grid.shape[0], rows.shape[0]
    a_mat, b_mat = rows[:, 0], rows[:, 1]
    d = np.einsum("mi,mi->m", a_mat, b_mat)
    ua, vb = np.empty((2, n_grid, m))  # u.a and v.b per grid point and pair column, one buffer
    np.matmul(grid, a_mat.T, out=ua)

    def interval(c):
        """The bounds hi, lo that the condition on pair column c sets on v.b."""
        x = ua[:, c]
        return 1.0 - np.abs(d[c] + x) + _SCAN_TOL, -1.0 + np.abs(d[c] - x) - _SCAN_TOL

    width = vb.reshape(m, n_grid)  # hi - lo, one pair column per row, in v.b's buffer
    for c, w in enumerate(width):
        np.subtract(*interval(c), out=w)
    width.sort(axis=1)  # each row's median as np.median takes it, faster than its partition
    rank = np.argsort((width[:, (n_grid - 1) // 2] + width[:, n_grid // 2]) / 2, kind="stable")
    pivot, head = int(rank[0]), np.roll(rank, -1)[:_SCAN_HEAD]  # the pivot last: it prunes nothing
    np.matmul(grid, b_mat.T, out=vb)
    order = np.argsort(vb[:, pivot], kind="stable")
    keys = vb[order, pivot]  # the pivot column of v.b, ascending
    hi, lo = interval(pivot)
    by_lo = np.argsort(lo)  # both bounds looked up in ascending order of lo
    firsts, lens = np.empty_like(by_lo), np.empty_like(by_lo)
    firsts[by_lo] = np.searchsorted(keys, lo[by_lo], side="left")
    lens[by_lo] = np.searchsorted(keys, hi[by_lo], side="right")
    del hi, lo, by_lo, keys  # not needed by the blocks: out of the working set
    lens -= firsts
    segs = np.flatnonzero(lens > 0)  # the u indices with survivors, in order
    firsts, lens = firsts[segs], lens[segs]
    ends = np.cumsum(lens)  # flat position after each segment
    y_head, d_head = vb.T[head].take(order, axis=1), d[head, None]  # v.b in pivot order

    def score(ui, vi):
        """The margin over every pair column for candidates (ui, vi), computed
        pair-major: numpy reduces a short inner axis slowly."""
        x, y = ua.take(ui, axis=0).T.copy(), vb.take(order.take(vi), axis=0).T.copy()
        return _margin(x, y, d[:, None]).min(axis=0)

    best_margin, best, checked, start = -math.inf, (None, None), 0, 0
    while start < segs.size:  # blocks of whole segments, >= 1 segment each
        base = int(ends[start - 1]) if start else 0  # candidates before the block
        stop = max(start + 1, int(np.searchsorted(ends, base + _SCAN_BLOCK, side="right")))
        seg, seg_lens = segs[start:stop], lens[start:stop]
        total = int(ends[stop - 1]) - base
        offs = ends[start:stop] - seg_lens - base  # each segment's offset in the block
        ui = np.repeat(seg, seg_lens)
        vi = np.repeat(firsts[start:stop] - offs, seg_lens) + np.arange(total)
        bound = _margin(ua[seg][:, head].T.repeat(seg_lens, axis=1), y_head.take(vi, axis=1),
                        d_head).min(axis=0)  # an upper bound on each candidate's margin
        k = int(np.argmax(bound))
        t = float(score(ui[k:k + 1], vi[k:k + 1])[0])
        kept = np.flatnonzero(bound >= min(-_SCAN_TOL, max(best_margin, t)))
        start, checked = stop, base + total
        if not kept.size:  # no candidate of the block beats an earlier block's best
            continue
        margins = score(ui[kept], vi[kept])
        feasible = np.flatnonzero(margins >= -_SCAN_TOL)
        j = int(feasible[0]) if feasible.size else int(np.argmax(margins))
        if margins[j] > best_margin:
            best_margin = float(margins[j])
            best = (tuple(grid[ui[kept[j]]].tolist()), tuple(grid[order[vi[kept[j]]]].tolist()))
        if feasible.size:  # the scan stops at the first one in flat order
            checked = base + int(kept[j]) + 1
            break
    return GridScanResult(best_margin >= -_SCAN_TOL, best_margin, *best, n_grid, checked)

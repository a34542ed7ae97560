"""Shared randomization helpers and plain-Python references for the test
suite."""

from __future__ import annotations

import math

import numpy as np

from nlvtest._checks import CheckResult
from nlvtest._checks import _unit_rows as unit_rows
from nlvtest.inequality import discrete_average, l_n, nlv_bound, u_coefficient
from nlvtest.leggett import _SCAN_TOL, GridScanResult, _sphere_grid
from nlvtest.sphere import _cross, check_frames


def unit(x: float, y: float, z: float) -> tuple[float, float, float]:
    """(x, y, z) divided by its norm, as a float triple."""
    n = math.sqrt(x * x + y * y + z * z)
    return (x / n, y / n, z / n)


def dot(p, q) -> float:
    """Plain-Python p.q of two float triples, added x + y + z."""
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def turn(v, axis, angle: float) -> tuple[float, float, float]:
    """Plain-Python Rodrigues turn of the float triple ``v`` by ``angle``
    about ``axis`` (right-handed), not rescaled."""
    c = math.cos(angle)
    s = math.sin(angle)
    (vx, vy, vz), (kx, ky, kz) = v, axis
    d = (kx * vx + ky * vy + kz * vz) * (1.0 - c)
    return (
        vx * c + (ky * vz - kz * vy) * s + kx * d,
        vy * c + (kz * vx - kx * vz) * s + ky * d,
        vz * c + (kx * vy - ky * vx) * s + kz * d,
    )


def cross(p, q) -> tuple[float, float, float]:
    """Plain-Python p x q of two float triples, in sphere._cross's operation
    order."""
    (p0, p1, p2), (q0, q1, q2) = p, q
    return (p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0)


def random_unit(rng: np.random.Generator) -> tuple[float, float, float]:
    """One random unit vector as a float triple, redrawn while the normal
    draw is near zero."""
    while True:
        x, y, z = rng.normal(size=3).tolist()
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1e-6:
            return (x / norm, y / norm, z / norm)


def random_frames(rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal plane pair with independently rotated seeds, as
    sphere.check_frames returns it."""
    basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    n1, n2, shared = (unit(*basis[:, i].tolist()) for i in range(3))
    seed1 = turn(shared, n1, rng.uniform(0.0, 2.0 * math.pi))
    seed2 = turn(shared, n2, rng.uniform(0.0, 2.0 * math.pi))
    return check_frames([(n1, seed1), (n2, seed2)])


def plane_rows(frame, n: int):
    """One plane's N settings in plain Python, from its rows (normal, seed),
    as float triple pairs (a_k, t_k) in sphere.plane_settings' closed form:
    with w = normal x seed and x = k pi/N, a_k = cos x seed + sin x w, the
    seed turned by x about the normal, and t_k = cos x w - sin x seed, which
    is normal x a_k; neither rescaled."""
    normal, seed = np.asarray(frame, dtype=float).tolist()
    w = cross(normal, seed)
    for k in range(n):
        c, s = math.cos(k * math.pi / n), math.sin(k * math.pi / n)
        yield (tuple(c * x + s * y for x, y in zip(seed, w)),
               tuple(c * y - s * x for x, y in zip(seed, w)))


def plane_setting_pairs(frame, n: int, phi: float):
    """One plane's N settings in plain Python as float triple pairs
    (a_k, b_k): a_k from plane_rows, and Bob's b_k = cos(phi) a_k +
    sin(phi) t_k, not rescaled.  Bob's aligned setting b_k(0) is a_k
    itself."""
    c, s = math.cos(phi), math.sin(phi)
    for a, t in plane_rows(frame, n):
        yield a, (c * a[0] + s * t[0], c * a[1] + s * t[1], c * a[2] + s * t[2])


def setting_pairs(frames, n: int, phi: float) -> list:
    """The measured setting pairs as float triples, from plane_setting_pairs:
    per plane and setting, (a_k, a_k) before (a_k, b_k)."""
    return [
        pair
        for frame in frames
        for a, b in plane_setting_pairs(frame, n, phi)
        for pair in ((a, a), (a, b))
    ]


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def reference_correlation(state, a, b) -> float:
    """Plain-Python C(a, b) = a.(T b) of float triples, with the +-1e-12 range
    check and the clamp to [-1, 1]."""
    tb = [b[0] * row[0] + b[1] * row[1] + b[2] * row[2] for row in state.t]
    c = a[0] * tb[0] + a[1] * tb[1] + a[2] * tb[2]
    if not abs(c) <= 1.0 + 1e-12:
        raise ValueError(f"correlation {c} outside [-1, 1]")
    return min(1.0, max(-1.0, c))


def reference_l_n(state, frames, n: int, phi: float) -> float:
    """Plain-Python L_N from plane_setting_pairs: per plane, left-to-right
    sums of the scalar correlations at offsets phi and 0.  The sums are plain
    loops, since sum() of floats is compensated from Python 3.12 on."""
    value = 0.0
    for frame in frames:
        e_phi = e_zero = 0.0
        for a, b in plane_setting_pairs(frame, n, phi):
            e_phi += reference_correlation(state, a, b)
            e_zero += reference_correlation(state, a, a)
        value += abs(e_phi / n + e_zero / n)
    return value


def grid_max_violation(state, frames, n: int) -> tuple[float, float]:
    """An oracle for max_violation_phi that assumes nothing about the shape
    of l_n - nlv_bound: the best (phi, value) on a 4,001-point grid over
    [0, pi/4], refined by four rounds of a 101-point grid spanning the best
    point's two neighbours.  Each value is an l_n - nlv_bound at that angle,
    so the result is a lower bound on the maximum."""
    lo, hi, points = 0.0, math.pi / 4.0, 4001
    best = (0.0, -math.inf)
    for _ in range(5):
        phis = np.linspace(lo, hi, points)
        values = l_n(state, frames, n, phis) - nlv_bound(n, phis)
        i = int(np.argmax(values))
        if values[i] > best[1]:
            best = (float(phis[i]), float(values[i]))
        lo, hi, points = phis[max(i - 1, 0)], phis[min(i + 1, points - 1)], 101
    return best


def reference_scan(pairs, resolution_deg: float) -> GridScanResult:
    """scan_explicit_model's grid and pivot windows, scored one grid point u
    at a time: each u's surviving v in pivot order, stopping at the first
    feasible pair, else keeping the first best margin with a strict >.  Every
    candidate gets the full margin over all pairs, written out here rather
    than taken from leggett._margin, and nothing is pruned."""
    rows = np.asarray(pairs, dtype=float)
    grid = _sphere_grid(round(180.0 / resolution_deg))
    a_mat, b_mat = rows[:, 0], rows[:, 1]
    d = np.einsum("mi,mi->m", a_mat, b_mat)
    ua = grid @ a_mat.T
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
        x, y = ua[i], vb[candidates]
        margins = np.minimum((1.0 - y) - np.abs(d + x), (1.0 + y) - np.abs(d - x)).min(axis=1)
        feasible = np.flatnonzero(margins >= -_SCAN_TOL)
        if feasible.size:  # the scan stops at the first one in pivot order
            j = int(feasible[0])
            checked += j + 1
        else:
            j = int(np.argmax(margins))
            checked += candidates.size
        if margins[j] > best_margin:
            best_margin = float(margins[j])
            best = (tuple(grid[i].tolist()), tuple(grid[candidates[j]].tolist()))
        if feasible.size:
            break
    return GridScanResult(best_margin >= -_SCAN_TOL, best_margin, *best, grid.shape[0], checked)


def reference_lemma_suite(trials: int, seed: int) -> list[CheckResult]:
    """_checks.lemma_suite one N at a time, from the same random stream: one
    discrete_average call per N on its random and equality-case rows, and two
    scalar nlv_bound calls per angle for the bound slope."""
    rng = np.random.default_rng(seed)
    worst_slack, worst_identity, worst_eq = math.inf, 0.0, 0.0
    per_n = max(1, trials // 16)
    w, c = unit_rows(rng, 2, 16, per_n)
    w_eq, r = unit_rows(rng, 2, 16, 50)
    axis = _cross(w_eq, r)
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    for n in range(1, 17):
        u_n = u_coefficient(n)
        angle = (math.pi / 2.0 + rng.integers(0, n, size=50) * math.pi / n)[:, None]
        w_n = w_eq[n - 1]
        c_eq = w_n * np.cos(angle) + _cross(axis[n - 1], w_n) * np.sin(angle)
        avg, xi = discrete_average(np.concatenate([w[n - 1], w_n]), np.concatenate([c[n - 1], c_eq]), n)
        avg, xi, avg_eq = avg[:per_n], xi[:per_n], avg[per_n:]
        worst_slack = min(worst_slack, float(np.min(avg - u_n)))
        closed = (np.sin(xi) + n * u_n * np.cos(xi)) / n
        worst_identity = max(worst_identity, float(np.max(np.abs(avg - closed))))
        worst_eq = max(worst_eq, float(np.max(np.abs(avg_eq - u_n))))
    worst_slope = 0.0
    h = 1e-5
    for n in (2, 3, 4, 8):
        u_n = u_coefficient(n)
        for phi in np.linspace(0.05, math.pi - 0.05, 40):
            numeric = (nlv_bound(n, phi + h) - nlv_bound(n, phi - h)) / (2 * h)
            exact = -u_n * math.cos(phi / 2.0) * math.copysign(1.0, math.sin(phi / 2.0))
            worst_slope = max(worst_slope, abs(numeric - exact))
    return [
        CheckResult("lemma-lower-bound", worst_slack >= -1e-12,
                    f"min(avg - u_N) = {worst_slack:.3e} over {per_n * 16} trials"),
        CheckResult("lemma-closed-form", worst_identity <= 1e-12,
                    f"max |avg - (sin xi + N u_N cos xi)/N| = {worst_identity:.3e}"),
        CheckResult("lemma-equality-case", worst_eq <= 1e-9, f"max |avg - u_N| at xi = 0: {worst_eq:.3e}"),
        CheckResult("bound-slope", worst_slope <= 1e-6, f"max |finite difference - formula| = {worst_slope:.3e}"),
    ]

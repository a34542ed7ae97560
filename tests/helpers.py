"""Shared randomization helpers and plain-Python references for the test
suite."""

from __future__ import annotations

import math

import numpy as np

from nlvtest._checks import _unit_rows as unit_rows
from nlvtest.inequality import nlv_bound
from nlvtest.sphere import PlaneFrame, UnitVector, build_schedule, rotate


def random_unit(rng: np.random.Generator) -> UnitVector:
    """One random unit vector, redrawn while the normal draw is near zero."""
    while True:
        x, y, z = rng.normal(size=3)
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1e-6:
            return UnitVector(x / norm, y / norm, z / norm)


def random_frames(rng: np.random.Generator) -> tuple[PlaneFrame, PlaneFrame]:
    """Random orthogonal plane pair with independently rotated seeds."""
    basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    n1 = UnitVector.normalized(*basis[:, 0])
    n2 = UnitVector.normalized(*basis[:, 1])
    shared = UnitVector.normalized(*basis[:, 2])
    seed1 = rotate(shared, n1, rng.uniform(0.0, 2.0 * math.pi))
    seed2 = rotate(shared, n2, rng.uniform(0.0, 2.0 * math.pi))
    return (PlaneFrame(normal=n1, seed=seed1), PlaneFrame(normal=n2, seed=seed2))


def unit_vector_pairs(frames, n: int, phi: float) -> list[tuple[UnitVector, UnitVector]]:
    """The measured setting pairs as UnitVectors, from build_schedule entries:
    per plane and setting, (alice, bob0) before (alice, bobphi)."""
    return [
        pair
        for frame in frames
        for e in build_schedule(frame, n, phi).entries
        for pair in ((e.alice, e.bob0), (e.alice, e.bobphi))
    ]


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def reference_correlation(state, a: UnitVector, b: UnitVector) -> float:
    """Plain-Python C(a, b) = a.(T b), with the +-1e-12 range check and the
    clamp to [-1, 1]."""
    tb = [b.x * row[0] + b.y * row[1] + b.z * row[2] for row in state.t]
    c = a.x * tb[0] + a.y * tb[1] + a.z * tb[2]
    if not abs(c) <= 1.0 + 1e-12:
        raise ValueError(f"correlation {c} outside [-1, 1]")
    return min(1.0, max(-1.0, c))


def reference_l_n(state, frames, n: int, phi: float) -> float:
    """Plain-Python L_N from build_schedule entries: per plane, left-to-right
    sums of the scalar correlations at offsets phi and 0.  The sums are plain
    loops, since sum() of floats is compensated from Python 3.12 on."""
    value = 0.0
    for frame in frames:
        e_phi = e_zero = 0.0
        for e in build_schedule(frame, n, phi).entries:
            e_phi += reference_correlation(state, e.alice, e.bobphi)
            e_zero += reference_correlation(state, e.alice, e.bob0)
        value += abs(e_phi / n + e_zero / n)
    return value


def reference_max_violation_phi(state, frames, n: int) -> tuple[float, float]:
    """Golden-section search of reference_l_n - bound over [0, pi/4] to
    0.01 degrees, step for step as inequality.max_violation_phi."""
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0

    def objective(phi: float) -> float:
        return reference_l_n(state, frames, n, phi) - nlv_bound(n, phi)

    lo, hi = 0.0, math.pi / 4.0
    c, d = hi - inv_golden * (hi - lo), lo + inv_golden * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > math.radians(0.01):
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + inv_golden * (hi - lo)
            fd = objective(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - inv_golden * (hi - lo)
            fc = objective(c)
    best = (lo + hi) / 2.0
    return best, objective(best)

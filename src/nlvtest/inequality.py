"""The finite-setting inequality family and its ingredients.

For N settings per plane rotated in steps of pi/N, a non-local-variable
source of the kind described in the leggett module obeys

    L_N = |E_1(phi) + E_1(0)| + |E_2(phi) + E_2(0)|
        <= 4 - 2 u_N |sin(phi/2)|,      u_N = cot(pi/2N) / N,

where E_j is the N-setting average of correlation coefficients in plane j.
As N grows u_N -> 2/pi and the continuum bound 4 - (4/pi)|sin(phi/2)|
(``continuum_bound``) is recovered.  A two-qubit state's correlations carry
only angular harmonics that N >= 2 rotated settings average exactly, so its
L_N for any N >= 2 already is the all-directions sum.  The quantum singlet
prediction is 2(1 + cos phi), which exceeds the bound for N >= 2 over a
window of difference angles phi.

A correlation source, such as a quantum ``TwoQubitState`` or a Leggett
``PureEnsemble``, has a ``correlation(a, b)`` method mapping stacked (k, 3)
settings to (k,) values, each row's independent of the others in the call;
``l_n``, at one angle or a 1-D array of them, and each search step make one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .sphere import PlaneFrame, _dot, check_orthogonal, offset_settings, plane_settings
from .sphere import build_schedule  # noqa: F401  (bench/selftest.py reads it here)

__all__ = [
    "InequalityReport",
    "NoViolationError",
    "u_coefficient",
    "DiscreteAverage",
    "discrete_average",
    "l_n",
    "nlv_bound",
    "continuum_bound",
    "optimal_phi",
    "max_violation_phi",
]


class NoViolationError(ValueError):
    """The requested optimum does not exist (the bound is unreachable)."""


def u_coefficient(n: int) -> float:
    """Discrete-averaging constant u_N = cot(pi/2N)/N; 0 at N=1, -> 2/pi."""
    if n < 1:
        raise ValueError(f"need a positive setting count, got {n}")
    if n == 1:
        return 0.0  # cot(pi/2) is exactly zero
    half_step = math.pi / (2 * n)
    return math.cos(half_step) / (n * math.sin(half_step))


class DiscreteAverage(NamedTuple):
    value: np.ndarray
    xi: np.ndarray  # decomposition angle in [0, pi/N)


def _normalized_or(v: np.ndarray, fallback) -> np.ndarray:
    """Rows of ``v`` scaled to unit length, or ``fallback`` where |v| <= 1e-12."""
    norm = np.sqrt(_dot(v, v))[..., None]
    return np.where(norm > 1e-12, v / np.where(norm > 1e-12, norm, 1.0), fallback)


def discrete_average(w: ArrayLike, c: ArrayLike, n: int) -> DiscreteAverage:
    """Per row of stacked (k, 3) vectors, the average of |(R^k c) . w| over
    k = 0..N-1, with R the pi/N rotation about an axis orthogonal to both.

    Always >= u_coefficient(n).  The returned xi is the wrapped angle
    (angle(w, c) - pi/2) mod pi/N entering the closed form
    (sin xi + N u_N cos xi)/N.
    """
    if n < 1:
        raise ValueError(f"need a positive setting count, got {n}")
    w, c = np.asarray(w, dtype=float), np.asarray(c, dtype=float)
    cross = np.cross(w, c)
    wx = w[..., 0]
    # collinear w, c: any axis orthogonal to w; pick the lexicographically
    # smallest one (minimize x, then y) for determinism; for w = +-e1, whose
    # circle has x = 0, that is (0, -1, 0)
    collinear_axis = _normalized_or(
        np.stack([-(1.0 - wx * wx), wx * w[..., 1], wx * w[..., 2]], axis=-1), (0.0, -1.0, 0.0)
    )
    axis = _normalized_or(cross, collinear_axis)
    cos_s, sin_s = math.cos(math.pi / n), math.sin(math.pi / n)
    rotated, total = c, np.abs(_dot(c, w))
    for _ in range(1, n):
        d = _dot(axis, rotated) * (1.0 - cos_s)
        rotated = rotated * cos_s + np.cross(axis, rotated) * sin_s + axis * d[..., None]
        total = total + np.abs(_dot(rotated, w))
    angle = np.arctan2(np.sqrt(_dot(cross, cross)), _dot(w, c))
    xi = (angle - math.pi / 2.0) % (math.pi / n)
    return DiscreteAverage(value=total / n, xi=xi)


def nlv_bound(n: int, phi: float) -> float:
    """Non-local-variable bound 4 - 2 u_N |sin(phi/2)|."""
    return 4.0 - 2.0 * u_coefficient(n) * abs(math.sin(phi / 2.0))


def continuum_bound(phi: float) -> float:
    """All-directions limit of the bound: 4 - (4/pi)|sin(phi/2)|."""
    return 4.0 - (4.0 / math.pi) * abs(math.sin(phi / 2.0))


@dataclass(frozen=True, slots=True)
class InequalityReport:
    """One evaluation of the correlation sum against its bound: ``bound`` is
    nlv_bound(n, phi) and ``violation_sigmas`` (L - bound)/sigma, None at
    sigma 0."""

    n: int
    phi: float
    l_value: float
    sigma: float = 0.0
    bound: float = field(init=False)
    violation_sigmas: float | None = field(init=False)

    def __post_init__(self) -> None:
        if not self.sigma >= 0.0:  # also rejects NaN
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not -1e-12 <= self.l_value <= 4.0 + 4.0 * self.sigma + 1e-12:
            raise ValueError(f"correlation sum {self.l_value} out of range")
        bound = nlv_bound(self.n, self.phi)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "violation_sigmas",
                           (self.l_value - bound) / self.sigma if self.sigma > 0.0 else None)

    @property
    def violation(self) -> float:
        return self.l_value - self.bound


def _means(c: np.ndarray) -> np.ndarray:
    """E_j from correlations (..., planes, N): each plane's N values added left
    to right, over N (np.add.accumulate adds in order; np.sum does not)."""
    return np.add.accumulate(c, axis=-1)[..., -1] / c.shape[-1]


def _l_values(c_phi: np.ndarray, e_zero: np.ndarray) -> np.ndarray:
    """L_N from C(a_k, b_k(phi)), (..., planes, N), and E_j(0): the |E_j(phi) + E_j(0)| in order."""
    return np.add.accumulate(abs(_means(c_phi) + e_zero), axis=-1)[..., -1]


def l_n(source, frames: tuple[PlaneFrame, PlaneFrame], n: int, phi: ArrayLike):
    """L_N of a noiseless source at one angle, or a tuple of reports over a 1-D array
    of angles: one correlation call on (a_k, a_k) and every angle's (a_k, b_k(phi))."""
    angles = np.asarray(phi, dtype=float)
    if angles.ndim > 1:
        raise ValueError(f"need one angle or a 1-D array of angles, got shape {angles.shape}")
    check_orthogonal(frames)
    alice, turned = plane_settings(frames, n)
    bob = [offset_settings(alice, turned, p) for p in angles.reshape(-1).tolist()]
    c = source.correlation(np.concatenate([alice] * (len(bob) + 1)), np.concatenate([alice, *bob]))
    c = c.reshape(len(bob) + 1, len(frames), n)
    values = zip(angles.reshape(-1).tolist(), _l_values(c[1:], _means(c[0])).tolist())
    reports = tuple(InequalityReport(n, p, value) for p, value in values)
    return reports if angles.ndim else reports[0]


def optimal_phi(n: int | float) -> float:
    """Difference angle maximizing the ideal singlet violation:
    2 arcsin(u_N / 4).  Pass math.inf for the continuum limit."""
    if n == math.inf:
        u = 2.0 / math.pi
    else:
        u = u_coefficient(int(n))
    if u == 0.0:
        raise NoViolationError("the single-setting inequality cannot be violated")
    return 2.0 * math.asin(u / 4.0)


def max_violation_phi(source, frames: tuple[PlaneFrame, PlaneFrame], n: int) -> tuple[float, float]:
    """Golden-section search over [0, pi/4], to 0.01 degrees, for the phi
    maximizing l_value - bound.

    Returns (phi, violation); violation < 0 means the source never exceeds
    the bound on the interval.  The objective is unimodal for the state
    models in this package (a cosine plus a |sin| term).
    """
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    check_orthogonal(frames)
    alice, turned = plane_settings(frames, n)
    e_zero = _means(source.correlation(alice, alice).reshape(len(frames), n))

    def objective(phi: float) -> float:
        c_phi = source.correlation(alice, offset_settings(alice, turned, phi)).reshape(len(frames), n)
        return float(_l_values(c_phi, e_zero)) - nlv_bound(n, phi)

    a, b = 0.0, math.pi / 4.0
    c, d = b - inv_golden * (b - a), a + inv_golden * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > math.radians(0.01):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv_golden * (b - a)
            fd = objective(d)
        else:
            b, d, fd = d, c, fc
            c = b - inv_golden * (b - a)
            fc = objective(c)
    phi_best = (a + b) / 2.0
    return (phi_best, objective(phi_best))

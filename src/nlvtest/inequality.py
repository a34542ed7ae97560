"""The finite-setting inequality family and its ingredients.

For N settings per plane rotated in steps of pi/N, a non-local-variable
source of the kind described in the leggett module obeys

    L_N = |E_1(phi) + E_1(0)| + |E_2(phi) + E_2(0)|
        <= 4 - 2 u_N |sin(phi/2)|,      u_N = cot(pi/2N) / N,

where E_j is the N-setting average of correlation coefficients in plane j.
As N grows u_N -> 2/pi and the continuum bound 4 - (4/pi)|sin(phi/2)| is
recovered.  The quantum singlet prediction is 2(1 + cos phi), which exceeds
the bound for N >= 2 over a window of difference angles phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple

from .sphere import PlaneFrame, SettingSchedule, UnitVector, build_schedule

__all__ = [
    "InequalityReport",
    "NoViolationError",
    "u_coefficient",
    "DiscreteAverage",
    "discrete_average",
    "e_jn",
    "l_n",
    "nlv_bound",
    "continuum_bound",
    "continuum_l",
    "optimal_phi",
    "max_violation_phi",
]

# Anything that predicts a correlation coefficient for a setting pair:
# either an object with a .correlation(a, b) method (quantum states,
# ensembles) or a bare callable C(a, b).
CorrelationSource = object
_FRAME_ORTHOGONALITY_TOL = 1e-9


class NoViolationError(ValueError):
    """The requested optimum does not exist (the bound is unreachable)."""


def _correlation_fn(source: CorrelationSource) -> Callable[[UnitVector, UnitVector], float]:
    method = getattr(source, "correlation", None)
    if callable(method):
        return method
    if callable(source):
        return source
    raise TypeError(f"{source!r} is neither callable nor has a correlation method")


def u_coefficient(n: int) -> float:
    """Discrete-averaging constant u_N = cot(pi/2N)/N; 0 at N=1, -> 2/pi."""
    if n < 1:
        raise ValueError(f"need a positive setting count, got {n}")
    if n == 1:
        return 0.0  # cot(pi/2) is exactly zero
    half_step = math.pi / (2 * n)
    return math.cos(half_step) / (n * math.sin(half_step))


class DiscreteAverage(NamedTuple):
    value: float
    xi: float  # decomposition angle in [0, pi/N)


def discrete_average(w: UnitVector, c: UnitVector, n: int) -> DiscreteAverage:
    """Average of |(R^k c) . w| over k = 0..N-1, with R the pi/N rotation
    about an axis orthogonal to both vectors.

    Always >= u_coefficient(n).  The returned xi is the wrapped angle
    (angle(w, c) - pi/2) mod pi/N entering the closed form
    (sin xi + N u_N cos xi)/N.
    """
    if n < 1:
        raise ValueError(f"need a positive setting count, got {n}")
    ax, ay, az = w.cross(c)
    norm = math.sqrt(ax * ax + ay * ay + az * az)
    if norm > 1e-12:
        ax, ay, az = ax / norm, ay / norm, az / norm
    else:
        # collinear w, c: any axis orthogonal to w; pick the lexicographically
        # smallest one (minimize x, then y) for determinism
        px, py, pz = -(1.0 - w.x * w.x), w.x * w.y, w.x * w.z
        pn = math.sqrt(px * px + py * py + pz * pz)
        if pn > 1e-12:
            ax, ay, az = px / pn, py / pn, pz / pn
        else:  # w is +-e1; circle has x = 0, minimize y
            ax, ay, az = 0.0, -1.0, 0.0
    cos_s = math.cos(math.pi / n)
    sin_s = math.sin(math.pi / n)
    cx, cy, cz = c.x, c.y, c.z
    total = 0.0
    for k in range(n):
        if k > 0:
            d = (ax * cx + ay * cy + az * cz) * (1.0 - cos_s)
            cx, cy, cz = (
                cx * cos_s + (ay * cz - az * cy) * sin_s + ax * d,
                cy * cos_s + (az * cx - ax * cz) * sin_s + ay * d,
                cz * cos_s + (ax * cy - ay * cx) * sin_s + az * d,
            )
        total += abs(cx * w.x + cy * w.y + cz * w.z)
    angle = math.atan2(norm, w.dot(c))
    xi = (angle - math.pi / 2.0) % (math.pi / n)
    return DiscreteAverage(value=total / n, xi=xi)


def e_jn(
    source: CorrelationSource,
    schedule: SettingSchedule,
    theta: Literal["zero", "phi"],
) -> float:
    """Plane-averaged correlation E_j^N: mean of C(a_k, b_k) over the N
    rotated settings, with Bob at offset 0 or phi."""
    corr = _correlation_fn(source)
    if theta == "zero":
        total = sum(corr(entry.alice, entry.bob0) for entry in schedule.entries)
    elif theta == "phi":
        total = sum(corr(entry.alice, entry.bobphi) for entry in schedule.entries)
    else:
        raise ValueError(f"theta must be 'zero' or 'phi', got {theta!r}")
    return total / schedule.n


def nlv_bound(n: int, phi: float) -> float:
    """Non-local-variable bound 4 - 2 u_N |sin(phi/2)|."""
    return 4.0 - 2.0 * u_coefficient(n) * abs(math.sin(phi / 2.0))


def continuum_bound(phi: float) -> float:
    """All-directions limit of the bound: 4 - (4/pi)|sin(phi/2)|."""
    return 4.0 - (4.0 / math.pi) * abs(math.sin(phi / 2.0))


@dataclass(frozen=True, slots=True)
class InequalityReport:
    """One evaluation of the correlation sum against its bound."""

    n: int
    phi: float
    l_value: float
    bound: float
    sigma: float
    violation_sigmas: float | None
    frames: tuple[PlaneFrame, PlaneFrame]

    def __post_init__(self) -> None:
        if abs(self.bound - nlv_bound(self.n, self.phi)) > 1e-12:
            raise ValueError(f"bound {self.bound} inconsistent with (n, phi)")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not -1e-12 <= self.l_value <= 4.0 + 4.0 * self.sigma + 1e-12:
            raise ValueError(f"correlation sum {self.l_value} out of range")

    @property
    def violation(self) -> float:
        return self.l_value - self.bound


def _check_frames(frames: tuple[PlaneFrame, PlaneFrame]) -> None:
    dot = frames[0].normal.dot(frames[1].normal)
    if abs(dot) > _FRAME_ORTHOGONALITY_TOL:
        raise ValueError(f"plane normals must be orthogonal, got n1.n2 = {dot!r}")


def l_n(
    source: CorrelationSource,
    frames: tuple[PlaneFrame, PlaneFrame],
    n: int,
    phi: float,
) -> InequalityReport:
    """Evaluate the analytic correlation sum L_N for a noiseless source."""
    _check_frames(frames)
    value = 0.0
    for idx, frame in enumerate(frames):
        schedule = build_schedule(frame, n, phi, plane_index=idx + 1)
        value += abs(e_jn(source, schedule, "phi") + e_jn(source, schedule, "zero"))
    return InequalityReport(
        n=n,
        phi=phi,
        l_value=value,
        bound=nlv_bound(n, phi),
        sigma=0.0,
        violation_sigmas=None,
        frames=frames,
    )


def continuum_l(
    source: CorrelationSource,
    frames: tuple[PlaneFrame, PlaneFrame],
    phi: float,
    m: int = 360,
) -> tuple[float, float]:
    """All-directions correlation sum approximated on an M-point uniform
    angular grid per plane, against the continuum bound.

    The grid average is exact for sources whose correlations carry finitely
    many angular harmonics (any two-qubit state), so modest M suffices.
    """
    if m < 1:
        raise ValueError(f"grid size must be positive, got {m}")
    return (l_n(source, frames, m, phi).l_value, continuum_bound(phi))


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


def max_violation_phi(
    source: CorrelationSource,
    frames: tuple[PlaneFrame, PlaneFrame],
    n: int,
    phi_lo: float = 0.0,
    phi_hi: float = math.pi / 4.0,
    tol: float = math.radians(0.01),
) -> tuple[float, float]:
    """Golden-section search for the phi maximizing l_value - bound.

    Returns (phi, violation); violation < 0 means the source never exceeds
    the bound on the interval.  The objective is unimodal for the state
    models in this package (a cosine plus a |sin| term).
    """
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0

    def objective(phi: float) -> float:
        report = l_n(source, frames, n, phi)
        return report.l_value - report.bound

    a, b = phi_lo, phi_hi
    c = b - inv_golden * (b - a)
    d = a + inv_golden * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
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

"""The finite-setting inequality family and its ingredients.

For N settings per plane rotated in steps of pi/N, a non-local-variable
source of the kind described in the leggett module obeys

    L_N = |E_1(phi) + E_1(0)| + |E_2(phi) + E_2(0)|
        <= 4 - 2 u_N |sin(phi/2)|,      u_N = cot(pi/2N) / N,

where E_j is the N-setting average of correlation coefficients in plane j.
As N grows u_N -> 2/pi, and the continuum bound 4 - (4/pi)|sin(phi/2)| is
nlv_bound(math.inf, phi).  A two-qubit state's correlations carry
only angular harmonics that N >= 2 rotated settings average exactly, so its
L_N for any N >= 2 already is the all-directions sum.  The quantum singlet
prediction is 2(1 + cos phi), which exceeds the bound for N >= 2 over a
window of difference angles phi, most at phi = 2 arcsin(u_N / 4).

A correlation source, such as a quantum ``TwoQubitState`` or a Leggett
``PureEnsemble`` (stacked component arrays and one correlation function),
has a ``correlation(a, b)`` method mapping stacked (k, 3) settings to (k,)
values, each row's independent of the others in the call;
``l_n`` makes one per block of angles (one call at one angle).  It returns
plain numbers, L_N as a float or a float array per angle, so a violation
is ``l_n(...) - nlv_bound(n, phi)``, in either form.  The violation search
takes only a ``TwoQubitState``, whose correlation is linear in Bob's
setting, and returns an angle: one call gives E_j(0) and the turned-setting
means F_j, and the exact maximum is the best of a few candidates, the
interval's ends and the stationary points of each sign choice of the |.|
terms that occurs, each scored in float arithmetic on those four numbers.
The stationary points are the real roots of one quartic per sign choice,
isolated in plain floats, between the roots of the quartic's derivatives,
with no eigensolver.  Both ``l_n`` and the search check their
frames and build the setting rows, then hand them to a body (``_l_n``,
``_max_violation_phi``) that a caller holding rows already, such as
``predict``, calls directly.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .quantum import TwoQubitState
from .sphere import _angle_list, _cross, _dot, _setting_count
from .sphere import check_frames, offset_settings, plane_settings
from .sphere import build_schedule  # noqa: F401  (bench/selftest.py reads it here)

__all__ = [
    "u_coefficient",
    "DiscreteAverage",
    "discrete_average",
    "l_n",
    "nlv_bound",
    "max_violation_phi",
]


_ANGLE_BLOCK = 256  # angles per correlation call in l_n
_EPS = 2.0 ** -52  # float spacing at 1
_SOLVE_STEPS = 100  # at most, per root: Newton takes a few, 100 halvings shrink a bracket 1e30-fold


def u_coefficient(n: int | float) -> float:
    """Discrete-averaging constant u_N = cot(pi/2N)/N; 0 at N=1, and its
    limit 2/pi at n = math.inf."""
    if n == math.inf:
        return 2.0 / math.pi
    n = _setting_count(n)
    if n == 1:
        return 0.0  # cot(pi/2) is exactly zero
    half_step = math.pi / (2 * n)
    return math.cos(half_step) / (n * math.sin(half_step))


class DiscreteAverage(NamedTuple):
    value: np.ndarray
    xi: np.ndarray  # decomposition angle in [0, pi/N)


def discrete_average(w: ArrayLike, c: ArrayLike, n: ArrayLike) -> DiscreteAverage:
    """Per row of stacked (k, 3) vectors, the average of |(R^k c) . w| over
    k = 0..N-1, with R the pi/N rotation in the plane of w and c.

    Each term is (R^k c).w = cos t_k (c.w) - sin t_k |w x c|, t_k = k pi/N:
    the value depends only on c.w and |w x c|, whichever way R turns, so no
    rotation axis is built and collinear rows need no branch.

    ``n`` is one count, or an integer array of counts that broadcasts against
    the rows' leading shape, each element refused as _setting_count refuses
    it.  The terms are added one k at a time, k ascending, from a table of
    (cos t_k, sin t_k) per count that is zero from the count's own N on, so
    each row equals its one-count call bit for bit.

    Always >= u_coefficient(n).  The returned xi is the wrapped angle
    (angle(w, c) - pi/2) mod pi/N entering the closed form
    (sin xi + N u_N cos xi)/N.
    """
    counts = [_setting_count(m) for m in np.ravel(np.array(n, dtype=object)).tolist()]
    n, top = np.reshape(counts, np.shape(n)), max(counts, default=1)
    cross = _cross(w, c)
    cw, sw = _dot(c, w), np.sqrt(_dot(cross, cross))
    # (cos t_k, sin t_k) on a leading k axis, ahead of the count axes; a
    # count's entries are zero from its own N on, so its rows' later terms
    # add exact zeros
    trig = [[(math.cos(t), math.sin(t)) for t in (k * math.pi / m for k in range(m))]
            + [(0.0, 0.0)] * (top - m) for m in counts]
    table = np.reshape(trig, (len(counts), top, 2)).transpose(1, 2, 0).reshape((top, 2) + n.shape)
    total = 0.0
    for cos_t, sin_t in table:  # left to right in k
        total = total + abs(cos_t * cw - sin_t * sw)
    xi = (np.arctan2(sw, cw) - math.pi / 2.0) % (math.pi / n)
    return DiscreteAverage(value=total / n, xi=xi)


def nlv_bound(n: int | float, phi: ArrayLike):
    """Non-local-variable bound 4 - 2 u_N |sin(phi/2)|, at one angle or per
    entry of a 1-D array of angles (math.sin of each); n = math.inf gives
    the all-directions bound 4 - (4/pi)|sin(phi/2)|."""
    u, (angles, one) = u_coefficient(n), _angle_list(phi)
    values = [4.0 - 2.0 * u * abs(math.sin(p / 2.0)) for p in angles]
    return values[0] if one else np.array(values)


def _means(c: np.ndarray) -> np.ndarray:
    """E_j from correlations (..., planes, N): each plane's N values added left
    to right, over N (np.add.accumulate adds in order; np.sum does not)."""
    return np.add.accumulate(c, axis=-1)[..., -1] / c.shape[-1]


def l_n(source, frames: ArrayLike, n: int, phi: ArrayLike):
    """L_N of a noiseless source: a float at one angle, or a (P,) float array
    over a 1-D array of P angles.  Per block of up to _ANGLE_BLOCK angles it
    makes one correlation call on (a_k, a_k) and each angle's (a_k, b_k(phi)),
    so memory does not grow with the array.  ``frames`` are the two planes'
    (2, 2, 3) rows (normal, seed), refused as sphere.check_frames refuses
    them."""
    angles, one = _angle_list(phi)
    values = _l_n(source, *plane_settings(check_frames(frames), n), angles)
    return values[0] if one else np.array(values)


def _l_n(source, alice: np.ndarray, turned: np.ndarray, angles: list[float]) -> list[float]:
    """l_n's body: L_N per angle of a list of finite angles, on the rows
    (alice, turned) of sphere.plane_settings."""
    values = []
    for start in range(0, max(len(angles), 1), _ANGLE_BLOCK):  # an empty list makes one call
        bob = offset_settings(alice, turned, angles[start:start + _ANGLE_BLOCK])
        c = source.correlation(np.concatenate([alice] * (len(bob) + 1)),
                               np.concatenate([alice[None], bob]).reshape(-1, 3))
        c = c.reshape(len(bob) + 1, 2, -1)  # the aligned rows, then one block per angle
        values += np.add.accumulate(abs(_means(c[1:]) + _means(c[0])), axis=-1)[:, -1].tolist()
    return values


def max_violation_phi(state: TwoQubitState, frames: ArrayLike, n: int) -> float:
    """The phi in [0, pi/4] maximizing L_N - bound of a two-qubit ``state``
    on the two planes ``frames`` that sphere.check_frames accepts, chosen
    from a finite candidate set that holds the exact maximum.

    A state's correlation a.T.b is linear in Bob's setting b_k(phi) =
    cos(phi) a_k + sin(phi) t_k, t_k = normal x a_k, so each plane's mean is
    E_j(phi) = cos(phi) E_j + sin(phi) F_j, with E_j = E_j(0) and F_j the mean
    of C(a_k, t_k).  One correlation call gives the four means, and the
    objective, scored in float arithmetic, is

        sum_j |(1 + cos phi) E_j + sin phi F_j| - (4 - 2 u_N |sin(phi/2)|).

    In psi = phi/2 on [0, pi/8] it is 2 cos psi sum_j |E_j cos psi + F_j sin psi|
    + 2 u_N sin psi - 4.  As |x| = max(x, -x), that is the maximum over sign
    pairs (s_1, s_2) of the smooth branches A (1 + cos 2psi) + B sin 2psi +
    2 u_N sin psi - 4, with A = s_1 E_1 + s_2 E_2 and B = s_1 F_1 + s_2 F_2.
    Where the objective peaks, the branch attaining the peak peaks too, so
    the maximum lies at an end or where t = tan(psi/2) solves that branch's

        -4A t(1 - t^2) + B((1 - t^2)^2 - 4t^2) + u_N (1 - t^4) = 0.

    Plane j's term E_j cos psi + F_j sin psi changes sign at most once on
    [0, pi/8], so the signs that occur are its signs at the two ends.  The
    candidates are the two ends and, for each sign pair drawn from those,
    every real root of its quartic on the whole interval, found without an
    eigensolver: _real_roots isolates the stretches where the quartic is
    monotone, between the roots of its derivative, and solves each sign
    change by bracketed Newton steps.  Every candidate is scored by the
    objective itself.  The best is returned, the smallest angle on a tie,
    and a maximum at an end (pi/4 for the maximally mixed state, 0 for the
    singlet at N = 1) is that end exactly.  Any source other than a
    TwoQubitState, whose correlation need not be linear in b, is refused.

    Its violation is l_n(...) - nlv_bound(n, phi), < 0 when the state never
    exceeds the bound on the interval.
    """
    if not isinstance(state, TwoQubitState):
        raise ValueError(f"max_violation_phi needs a TwoQubitState, got {type(state).__name__}")
    return _max_violation_phi(state, *plane_settings(check_frames(frames), n), n)


def _max_violation_phi(state: TwoQubitState, alice: np.ndarray, turned: np.ndarray, n: int) -> float:
    """max_violation_phi's body, on the rows (alice, turned) that
    sphere.plane_settings builds for N = ``n``."""
    means = _means(state.correlation(np.concatenate([alice, alice]),
                                     np.concatenate([alice, turned])).reshape(2, 2, -1))
    (e1, e2), (f1, f2) = means.tolist()
    u = u_coefficient(n)

    def objective(phi: float) -> float:
        cp, sp = 1.0 + math.cos(phi), math.sin(phi)
        return abs(cp * e1 + sp * f1) + abs(cp * e2 + sp * f2) - (4.0 - 2.0 * u * abs(math.sin(phi / 2.0)))

    top = math.pi / 8.0  # psi = phi/2 runs over [0, top]
    # each plane's term, signed at the two ends: the only signs it takes
    signs = [{math.copysign(1.0, e), math.copysign(1.0, e * math.cos(top) + f * math.sin(top))}
             for e, f in ((e1, f1), (e2, f2))]
    candidates = [0.0, top]
    for s1, s2 in itertools.product(*signs):
        a, b = s1 * e1 + s2 * e2, s1 * f1 + s2 * f2
        roots = _real_roots([b - u, 4.0 * a, -6.0 * b, -4.0 * a, b + u], 0.0, math.tan(top / 2.0))
        candidates += [2.0 * math.atan(t) for t in roots]
    # max keeps the first of equal scores
    return max(sorted(2.0 * psi for psi in candidates), key=objective)


def _horner(coeffs: list[float], x: float) -> float:
    """The polynomial with ``coeffs``, highest power first, at ``x``."""
    value = 0.0
    for c in coeffs:
        value = value * x + c
    return value


def _real_roots(coeffs: list[float], lo: float, hi: float) -> list[float]:
    """The real roots in [lo, hi] of the polynomial with float ``coeffs``,
    highest power first, ascending and each once.

    Zero leading coefficients are dropped; a constant, the zero polynomial
    included, has no root to isolate, and a linear one has its root in
    closed form.  Otherwise the roots of the derivative, found the same way,
    cut [lo, hi] into stretches on which the polynomial is monotone.  An end
    of a stretch where its value is within four times Horner's rounding
    bound, degree eps sum_k |c_k| |x|^k, of zero is a root (so is a double
    root, at a root of the derivative); a stretch whose ends have opposite
    signs holds one more, found by _solve.
    """
    while coeffs and coeffs[0] == 0.0:
        coeffs = coeffs[1:]
    degree = len(coeffs) - 1
    if degree < 1:
        return []
    if degree == 1:
        root = -coeffs[1] / coeffs[0]
        return [root] if lo <= root <= hi else []
    slope = [c * (degree - k) for k, c in enumerate(coeffs[:-1])]
    ends = [lo, *_real_roots(slope, lo, hi), hi]
    slack = [4.0 * degree * _EPS * abs(c) for c in coeffs]
    values = [_horner(coeffs, x) for x in ends]
    values = [0.0 if abs(v) <= _horner(slack, abs(x)) else v for x, v in zip(ends, values)]
    roots = [x for x, v in zip(ends, values) if v == 0.0]
    roots += [_solve(coeffs, slope, x0, x1, v0 < 0.0)
              for x0, x1, v0, v1 in zip(ends, ends[1:], values, values[1:]) if min(v0, v1) < 0.0 < max(v0, v1)]
    return sorted(set(roots))


def _solve(coeffs: list[float], slope: list[float], lo: float, hi: float, rising: bool) -> float:
    """The one root in (lo, hi) of a polynomial that is monotone there, below
    zero at the ``lo`` end if ``rising`` and above it otherwise: Newton steps
    from the midpoint, each kept inside the shrinking bracket or replaced by
    its midpoint, until the value is zero or the bracket is two adjacent
    floats."""
    x = 0.5 * (lo + hi)
    for _ in range(_SOLVE_STEPS):
        value = _horner(coeffs, x)
        if value == 0.0:
            break
        lo, hi = (x, hi) if (value < 0.0) == rising else (lo, x)
        d = _horner(slope, x)
        step = x - value / d if d != 0.0 else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                break
        x = step
    return x

"""Two-qubit quantum predictions in the Stokes picture.

A state is its Stokes terms: marginal vectors m_A, m_B and correlation
tensor T, with T_ij = Tr[rho (s_i (x) s_j)] for a density matrix rho on the
H/V (x) H/V product basis, |H> = (1, 0), |V> = (0, 1).  The Pauli operator
measuring along a Stokes direction n is sigma(n) = n1*sz + n2*sx + n3*sy,
so that (S1, S2, S3) eigenbases are (H/V, +-45 deg, circular) respectively.

Two constructors validate a state.  TwoQubitState.from_density_matrix reads
a general rho, checks it (Hermitian, unit trace, positive) and contracts it
once into its terms.  bell_diagonal stores the tensor diag(t1, t2, t3) as
given, with zero marginals, and checks positivity in closed form; it builds
every named state.  Predictions follow from the law
P(r_A, r_B) = (1 + r_A x + r_B y + r_A r_B c)/4 with
(x, y, c) = (a.m_A, b.m_B, a.T.b), which the leggett module shares with
(x, y, c) = (a.u, b.v, C) for a model component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .sphere import _dot

__all__ = [
    "TwoQubitState",
    "outcome_probabilities",
    "correlation",
    "singlet",
    "werner",
    "colored_noise",
    "bell_diagonal",
    "maximally_mixed",
    "singlet_L",
    "parse_state",
]

# s_0 = identity, then the Stokes-ordered Paulis: S1 = H/V, S2 = +-45, S3 = circular
_PAULIS = ([[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]])
# _STOKES_BASIS[i, j] = s_i (x) s_j
_STOKES_BASIS = np.array([[np.kron(p, q) for q in _PAULIS] for p in _PAULIS], dtype=complex)


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A two-qubit state as its Stokes terms: marginal vectors ``m_a``,
    ``m_b`` and correlation tensor ``t`` (rows indexed by Alice's Stokes
    axis), stored as tuples of floats, each as given.

    Construction refuses any other shapes than (3,), (3,) and (3, 3) and any
    non-finite value, and checks nothing else: from_density_matrix and
    bell_diagonal check that the terms are a state's, and
    outcome_probabilities and correlation refuse a value out of range.
    """

    m_a: tuple[float, ...]
    m_b: tuple[float, ...]
    t: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        try:  # one (5, 3) array exactly when the shapes are (3,), (3,) and (3, 3)
            rows = np.array([self.m_a, self.m_b, *self.t], dtype=float)
        except (TypeError, ValueError):
            rows = np.empty(0)
        if rows.shape != (5, 3) or not all(map(math.isfinite, rows.flat)):
            raise ValueError("Stokes terms must be finite floats of shapes (3,), (3,) and (3, 3)")
        m_a, m_b, *t = map(tuple, rows.tolist())
        for name, value in (("m_a", m_a), ("m_b", m_b), ("t", tuple(t))):
            object.__setattr__(self, name, value)

    @classmethod
    def from_density_matrix(cls, rho: ArrayLike) -> TwoQubitState:
        """The state of a 4x4 density matrix, validated (Hermitian and of
        unit trace within 1e-12, no eigenvalue below -1e-10) and contracted
        once into its Stokes terms."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValueError("density matrix has non-finite entries")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise ValueError(f"trace must be 1, got {np.trace(rho)}")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")
        # terms[i][j] = Tr[rho (s_i (x) s_j)]
        terms = np.einsum("ijkl,lk->ij", _STOKES_BASIS, rho).real.tolist()
        return cls([row[0] for row in terms[1:]], terms[0][1:], [row[1:] for row in terms[1:]])

    # convenience: a state is usable directly as a correlation source
    def correlation(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        return correlation(self, a, b)


# The one sign order of every outcome table: (+,+), (-,-), (-,+), (+,-).
_SIGN_PAIRS = ((1, 1), (-1, -1), (-1, 1), (1, -1))


def stokes_probability(x: ArrayLike, y: ArrayLike, c: ArrayLike) -> np.ndarray:
    """The law P(r_a, r_b) = (1 + r_a x + r_b y + r_a r_b c)/4 for local
    projections x, y and correlation c, elementwise: a (..., 4) table in the
    sign order ``_SIGN_PAIRS``.

    The grouping ((1 + r_a x) + r_b (y + r_a c))/4 makes a perfect
    anticorrelation (x = y = 0, c = -1, equal signs) exactly zero.
    """
    return np.stack([((1.0 + r_a * x) + r_b * (y + r_a * c)) / 4.0 for r_a, r_b in _SIGN_PAIRS], -1)


def _tensor_form(state: TwoQubitState, a: np.ndarray, b: np.ndarray):
    """a.T.b per row, evaluated as a.(T b)"""
    return _dot(a, _dot(b[..., None, :], state.t))


def outcome_probabilities(state: TwoQubitState, a: ArrayLike, b: ArrayLike) -> np.ndarray:
    """P(r_a, r_b | a, b) for setting rows ``a``, ``b`` of shape (..., 3):
    one column per sign pair, in the order (+,+), (-,-), (-,+), (+,-),
    clamped to [0, 1].

    Each entry is computed by the same elementwise float operations, in the
    same order, whatever the shape, so one table row equals the
    one-setting table bit for bit.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    x, y, c = _dot(a, state.m_a), _dot(b, state.m_b), _tensor_form(state, a, b)
    p = stokes_probability(x, y, c)
    bad = ~((p >= -1e-12) & (p <= 1.0 + 1e-12))  # NaN is bad too
    if bad.any():
        raise ValueError(f"probability {float(p[bad][0])} outside [0, 1] beyond tolerance")
    return np.clip(p, 0.0, 1.0)


def correlation(state: TwoQubitState, a: ArrayLike, b: ArrayLike) -> np.ndarray:
    """C(a, b) = <sigma(a) (x) sigma(b)> = a.T.b per row of settings of shape
    (..., 3), clamped to [-1, 1]; like outcome_probabilities, each row's value
    comes from the same elementwise operations whatever the shape."""
    c = np.asarray(_tensor_form(state, np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
    if not (np.abs(c) <= 1.0 + 1e-12).all():  # NaN fails too
        bad = c[~(np.abs(c) <= 1.0 + 1e-12)]
        raise ValueError(f"correlation {float(bad[0])} outside [-1, 1] beyond tolerance")
    return np.minimum(1.0, np.maximum(-1.0, c))


# Visibility triples reconstructed from counting data can overshoot the
# Bell-diagonal positivity set by a few parts in 1e-3 (correlated estimation
# errors); product-measurement probabilities remain valid as long as every
# |t_i| <= 1, so tensors this close to the boundary are accepted.
_VISIBILITY_SLACK = 5e-3


def _bell_weights(t1: float, t2: float, t3: float) -> tuple[float, float, float, float]:
    """The eigenvalues of bell_diagonal's rho: the Bell weights (1 + s.t)/4
    over the four sign vectors s with s1 s2 s3 = -1."""
    return (((1.0 - t1) - (t2 + t3)) / 4.0, ((1.0 - t1) + (t2 + t3)) / 4.0,
            ((1.0 + t1) - (t2 - t3)) / 4.0, ((1.0 + t1) + (t2 - t3)) / 4.0)


def bell_diagonal(t1: float, t2: float, t3: float) -> TwoQubitState:
    """State with correlation tensor diag(t1, t2, t3) in the Stokes basis and
    maximally mixed marginals, rho = (I + sum_i t_i s_i (x) s_i)/4, stored
    exactly as given (-0.0 included) and built without rho.  Every named
    state below is one.

    Any |t_i| > 1 is rejected, as is a tensor outside the positivity set by
    more than the visibility-reconstruction slack: a Bell weight of rho
    (_bell_weights) below -_VISIBILITY_SLACK.
    """
    for t in (t1, t2, t3):
        if not abs(t) <= 1.0 + 1e-12:
            raise ValueError(f"tensor entry {t} outside [-1, 1]")
    if min(_bell_weights(t1, t2, t3)) < -_VISIBILITY_SLACK:
        raise ValueError("density matrix has a negative eigenvalue")
    return TwoQubitState((0.0,) * 3, (0.0,) * 3, ((t1, 0.0, 0.0), (0.0, t2, 0.0), (0.0, 0.0, t3)))


def singlet() -> TwoQubitState:
    """The pure singlet state |psi-> = (|HV> - |VH>)/sqrt(2): tensor (-1, -1, -1)."""
    return bell_diagonal(-1.0, -1.0, -1.0)


def maximally_mixed() -> TwoQubitState:
    """I/4: tensor (0, 0, 0)."""
    return bell_diagonal(0.0, 0.0, 0.0)


def werner(v: float) -> TwoQubitState:
    """Singlet mixed with white noise, v*singlet + (1-v)*I/4: tensor (-v, -v, -v)."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {v}")
    return bell_diagonal(-v, -v, -v)


def colored_noise(v: float) -> TwoQubitState:
    """Singlet mixed with H/V-correlated product noise (|HV><HV| + |VH><VH|)/2,
    which keeps the H/V-basis correlation perfect while degrading the two
    conjugate bases: tensor (-1, -v, -v)."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {v}")
    return bell_diagonal(-1.0, -v, -v)


def singlet_L(phi: float) -> float:
    """Closed-form singlet prediction for the correlation sum: 2(1 + cos phi)."""
    return 2.0 * (1.0 + math.cos(phi))


# spec name, aliases included -> (parameter count, constructor on the parsed numbers)
_SPECS = {
    "singlet": (0, singlet),
    "mixed": (0, maximally_mixed), "maximally_mixed": (0, maximally_mixed),
    "werner": (1, werner),
    "colored": (1, colored_noise), "colored_noise": (1, colored_noise),
    "bell_diagonal": (3, bell_diagonal),
    "visibilities": (3, lambda v1, v2, v3: bell_diagonal(-v1, -v2, -v3)),
}


def parse_state(spec: str) -> TwoQubitState:
    """Build a state from a compact text spec ``NAME`` or ``NAME:P1,P2,...``.

    Accepted forms, each a bell_diagonal tensor: ``singlet`` (-1, -1, -1),
    ``mixed`` (0, 0, 0), ``werner:V`` (-V, -V, -V), ``colored:V``
    (-1, -V, -V), ``bell_diagonal:t1,t2,t3`` (t1, t2, t3) and
    ``visibilities:v1,v2,v3`` (-v1, -v2, -v3).  The name is checked first,
    then the parameter count, then the numbers.  A spec that is not a str
    is refused with a ValueError naming its type.
    """
    if not isinstance(spec, str):
        raise ValueError(f"state spec must be a str, got {type(spec).__name__}")
    name, _, arg = spec.strip().partition(":")
    name = name.strip().lower()
    if name not in _SPECS:
        raise ValueError(f"unknown state spec {spec!r}")
    count, build = _SPECS[name]
    params = arg.split(",") if arg else []
    try:
        if len(params) != count:
            raise ValueError(f"{name} takes {count} parameter{'s' * (count != 1)}, got {len(params)}")
        return build(*map(float, params))
    except ValueError as exc:
        raise ValueError(f"invalid state spec {spec!r}: {exc}") from None

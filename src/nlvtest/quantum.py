"""Two-qubit quantum predictions in the Stokes picture.

States are 4x4 density matrices on the H/V (x) H/V product basis with
|H> = (1, 0), |V> = (0, 1).  The Pauli operator measuring along a Stokes
direction n is sigma(n) = n1*sz + n2*sx + n3*sy, so that (S1, S2, S3)
eigenbases are (H/V, +-45 deg, circular) respectively.

On construction a state is reduced to its Stokes terms: marginal vectors
m_A, m_B and correlation tensor T, T_ij = Tr[rho (s_i (x) s_j)].  Predictions
follow from the law P(r_A, r_B) = (1 + r_A x + r_B y + r_A r_B c)/4 with
(x, y, c) = (a.m_A, b.m_B, a.T.b), which the leggett module shares with
(x, y, c) = (a.u, b.v, C) for a model component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)
# Stokes-ordered Pauli vector: S1 = H/V, S2 = +-45, S3 = circular
_STOKES_PAULIS = (_SZ, _SX, _SY)
# _STOKES_BASIS[i, j] = s_i (x) s_j with s_0 the identity
_STOKES_BASIS = np.array(
    [[np.kron(p, q) for q in (_ID2, *_STOKES_PAULIS)] for p in (_ID2, *_STOKES_PAULIS)]
)

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Validated two-qubit density matrix (Hermitian, unit trace, positive)
    with its Stokes terms ``m_a``, ``m_b`` and ``t`` (rows indexed by Alice's
    Stokes axis), stored as tuples of floats.

    ``eigenvalue_floor`` is the allowed positivity slack.  It is strict by
    default; bell_diagonal loosens it for tensors reconstructed from
    measured visibilities, which can sit marginally outside the physical
    set while still giving valid probabilities for every product
    measurement.
    """

    rho: np.ndarray
    eigenvalue_floor: float = _EIGENVALUE_FLOOR
    m_a: tuple[float, ...] = field(init=False, repr=False)
    m_b: tuple[float, ...] = field(init=False, repr=False)
    t: tuple[tuple[float, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValueError("density matrix has non-finite entries")
        if np.max(np.abs(rho - rho.conj().T)) > _HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > _TRACE_TOL or abs(np.trace(rho).imag) > _TRACE_TOL:
            raise ValueError(f"trace must be 1, got {np.trace(rho)}")
        if np.linalg.eigvalsh(rho).min() < self.eigenvalue_floor:
            raise ValueError("density matrix has a negative eigenvalue")
        rho = rho.copy()
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        # terms[i][j] = Tr[rho (s_i (x) s_j)]
        terms = np.einsum("ijkl,lk->ij", _STOKES_BASIS, rho).real.tolist()
        object.__setattr__(self, "m_a", tuple(row[0] for row in terms[1:]))
        object.__setattr__(self, "m_b", tuple(terms[0][1:]))
        object.__setattr__(self, "t", tuple(tuple(row[1:]) for row in terms[1:]))

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


# (|HV> - |VH>)(<HV| - <VH|) / 2 with exact +-0.5 entries
_SINGLET_RHO = np.outer([0, 1, -1, 0], [0, 1, -1, 0]).astype(complex) / 2.0
# H/V-correlated product noise: (|HV><HV| + |VH><VH|) / 2
_HV_NOISE = np.diag([0, 0.5, 0.5, 0]).astype(complex)


def singlet() -> TwoQubitState:
    """The pure singlet state |psi-> = (|HV> - |VH>)/sqrt(2)."""
    return TwoQubitState(_SINGLET_RHO)


def maximally_mixed() -> TwoQubitState:
    return TwoQubitState(np.eye(4, dtype=complex) / 4.0)


def werner(v: float) -> TwoQubitState:
    """Singlet mixed with white noise: v*singlet + (1-v)*I/4."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {v}")
    return TwoQubitState(v * _SINGLET_RHO + (1.0 - v) * np.eye(4, dtype=complex) / 4.0)


def colored_noise(v: float) -> TwoQubitState:
    """Singlet mixed with H/V-correlated product noise.

    The noise term (|HV><HV| + |VH><VH|)/2 keeps the H/V-basis correlation
    perfect while degrading the two conjugate bases, so the Stokes correlation
    tensor is (-1, -v, -v).
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {v}")
    return TwoQubitState(v * _SINGLET_RHO + (1.0 - v) * _HV_NOISE)


# Visibility triples reconstructed from counting data can overshoot the
# Bell-diagonal positivity set by a few parts in 1e-3 (correlated estimation
# errors); product-measurement probabilities remain valid as long as every
# |t_i| <= 1, so tensors this close to the boundary are accepted.
_VISIBILITY_SLACK = 5e-3


def bell_diagonal(t1: float, t2: float, t3: float) -> TwoQubitState:
    """State with correlation tensor diag(t1, t2, t3) in the Stokes basis and
    maximally mixed marginals.

    Tensors outside the positivity set by more than the visibility-
    reconstruction slack are rejected, as is any |t_i| > 1.
    """
    for t in (t1, t2, t3):
        if not abs(t) <= 1.0 + 1e-12:
            raise ValueError(f"tensor entry {t} outside [-1, 1]")
    rho = np.eye(4, dtype=complex)
    for i, t in enumerate((t1, t2, t3), start=1):
        rho = rho + t * _STOKES_BASIS[i, i]
    rho /= 4.0
    return TwoQubitState(rho, eigenvalue_floor=-_VISIBILITY_SLACK)


def singlet_L(phi: float) -> float:
    """Closed-form singlet prediction for the correlation sum: 2(1 + cos phi)."""
    return 2.0 * (1.0 + math.cos(phi))


def parse_state(spec: str) -> TwoQubitState:
    """Build a state from a compact text spec.

    Accepted forms: ``singlet``, ``mixed``, ``werner:V``, ``colored:V``,
    ``bell_diagonal:t1,t2,t3`` and ``visibilities:v1,v2,v3`` (shorthand for
    bell_diagonal(-v1, -v2, -v3)).  A spec that is not a str is refused
    with a ValueError naming its type.
    """
    if not isinstance(spec, str):
        raise ValueError(f"state spec must be a str, got {type(spec).__name__}")
    name, _, arg = spec.strip().partition(":")
    name = name.strip().lower()
    try:
        if name in ("singlet", "mixed", "maximally_mixed"):
            if arg:
                raise ValueError(f"{name} takes no parameters")
            return singlet() if name == "singlet" else maximally_mixed()
        if name == "werner":
            return werner(float(arg))
        if name in ("colored", "colored_noise"):
            return colored_noise(float(arg))
        if name == "bell_diagonal":
            t1, t2, t3 = (float(s) for s in arg.split(","))
            return bell_diagonal(t1, t2, t3)
        if name == "visibilities":
            v1, v2, v3 = (float(s) for s in arg.split(","))
            return bell_diagonal(-v1, -v2, -v3)
    except ValueError as exc:
        raise ValueError(f"invalid state spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown state spec {spec!r}")

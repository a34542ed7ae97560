"""Symmetries of L_N and of the violation search, as Hypothesis properties:
Werner scaling, swapping the two planes, SO(3) covariance (a state turned
by U (x) U, measured on planes turned by U's rotation R) of L_N and of the
outcome probability table, and the rotation invariance of the
explicit-model margin and the admissible correlation interval.  Each of these maps a party swap (a transposed T) and phi -> -phi
onto itself, so one pinned value, L_N of a state with an asymmetric T,
fixes the orientation."""

import math

import numpy as np
from helpers import random_density_matrix, random_frames, unit_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from nlvtest.inequality import l_n, max_violation_phi, nlv_bound
from nlvtest.leggett import admissible_C_range, explicit_model_margin
from nlvtest.quantum import (
    _STOKES_PAULIS, TwoQubitState, outcome_probabilities, parse_state, singlet, werner,
)
from nlvtest.sphere import default_frames

seeds = st.integers(0, 2**32 - 1)
counts = st.integers(1, 8)
angles = st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=4)
# the predict-scan states, and random density matrices
states = st.one_of(
    st.sampled_from(["singlet", "werner:0.96", "colored:0.98", "visibilities:0.995,0.990,0.982",
                     "mixed"]).map(parse_state),
    seeds.map(lambda seed: TwoQubitState(random_density_matrix(np.random.default_rng(seed)))),
)
quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: sum(x * x for x in q) > 0.01)


def su2_and_rotation(q):
    """The SU(2) matrix U = w - i (x s1 + y s2 + z s3) of the quaternion q,
    normalized, with s the Stokes-ordered Paulis, and the rotation R of
    Stokes vectors it induces: U s(n) U^dagger = s(R n), so
    R_ij = Tr(s_i U s_j U^dagger) / 2."""
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    s1, s2, s3 = _STOKES_PAULIS
    u = w * np.eye(2) - 1j * (x * s1 + y * s2 + z * s3)
    r = [[np.trace(si @ u @ sj @ u.conj().T).real / 2.0 for sj in _STOKES_PAULIS]
         for si in _STOKES_PAULIS]
    return u, np.array(r)


def turned_state(state: TwoQubitState, u: np.ndarray) -> TwoQubitState:
    """``state`` turned by U (x) U."""
    uu = np.kron(u, u)
    return TwoQubitState(uu @ state.rho @ uu.conj().T, eigenvalue_floor=state.eigenvalue_floor)


@given(seed=seeds, v=st.floats(0.0, 1.0), n=counts, phis=angles)
@settings(max_examples=40, deadline=None)
def test_werner_scaling(seed, v, n, phis):
    # werner(v) has the tensor -v I, so each E_j, and L_N, scales by v >= 0
    frames = random_frames(np.random.default_rng(seed))
    scaled = l_n(werner(v), frames, n, phis)
    assert np.max(np.abs(scaled - v * l_n(singlet(), frames, n, phis))) <= 1e-14


@given(state=states, seed=seeds, n=counts, phis=angles)
@settings(max_examples=40, deadline=None)
def test_plane_swap(state, seed, n, phis):
    # L_N and the search add the two planes' terms once each, so the order
    # of the planes changes no bit
    frames = random_frames(np.random.default_rng(seed))
    swapped = frames[::-1]
    assert l_n(state, swapped, n, phis).tolist() == l_n(state, frames, n, phis).tolist()
    assert max_violation_phi(state, swapped, n) == max_violation_phi(state, frames, n)


@given(state=states, seed=seeds, q=quaternions, n=counts, phis=angles)
@settings(max_examples=40, deadline=None)
def test_so3_covariance(state, seed, q, n, phis):
    # T -> R T R^T and a -> R a leave every a.T.b as it was
    frames = random_frames(np.random.default_rng(seed))
    u, r = su2_and_rotation(q)
    turned = turned_state(state, u)
    turned_frames = frames @ r.T
    worst = np.max(np.abs(l_n(turned, turned_frames, n, phis) - l_n(state, frames, n, phis)))
    assert worst <= 1e-14
    phi, phi0 = max_violation_phi(turned, turned_frames, n), max_violation_phi(state, frames, n)
    violation = l_n(turned, turned_frames, n, phi) - nlv_bound(n, phi)
    assert abs(violation - (l_n(state, frames, n, phi0) - nlv_bound(n, phi0))) <= 1e-14
    # at N = 1 a state without correlations scores -4 at every angle, and
    # any angle is its maximizer
    if n > 1 or np.any(state.t):
        assert abs(phi - phi0) <= 1e-14


@given(state=states, seed=seeds, q=quaternions, k=st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_probability_table_is_rotation_covariant(state, seed, q, k):
    # each entry reads a and b only through a.m_A, b.m_B and a.T.b, which
    # the turned state on the rows (R a, R b) keeps
    a, b = unit_rows(np.random.default_rng(seed), 2, k)
    u, r = su2_and_rotation(q)
    table = outcome_probabilities(turned_state(state, u), a @ r.T, b @ r.T)
    assert np.max(np.abs(table - outcome_probabilities(state, a, b))) <= 1e-14


@given(seed=seeds, q=quaternions, k=st.integers(1, 6), m=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_margin_and_admissible_range_are_rotation_invariant(seed, q, k, m):
    # both read u, v, a and b only through a.u, b.v and a.b, which one
    # rotation R of every vector keeps
    rng = np.random.default_rng(seed)
    u, v, a, b = unit_rows(rng, 4, k)
    pairs = unit_rows(rng, m, 2)
    _, r = su2_and_rotation(q)
    ru, rv, ra, rb, rpairs = (x @ r.T for x in (u, v, a, b, pairs))
    margin = explicit_model_margin(ru, rv, rpairs)
    assert np.max(np.abs(margin - explicit_model_margin(u, v, pairs))) <= 1e-14
    for end, end0 in zip(admissible_C_range(ru, rv, ra, rb), admissible_C_range(u, v, a, b)):
        assert np.max(np.abs(end - end0)) <= 1e-14


def h_d_mixture(p: float) -> TwoQubitState:
    """p singlet + (1 - p) |H><H| (x) |D><D|, D = +45 degrees: Stokes tensor
    T = -p I + (1 - p) x y^T, rows Alice's axis."""
    h, d = np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2.0)
    product = np.kron(np.outer(h, h), np.outer(d, d))
    return TwoQubitState(p * singlet().rho + (1.0 - p) * product)


@given(p=st.floats(0.0, 1.0), n=st.integers(2, 8), phis=angles)
@settings(max_examples=40, deadline=None)
def test_asymmetric_tensor_pins_the_orientation(p, n, phis):
    # on the default planes, a_k = (cos t, sin t, 0) in plane 1 and
    # (cos t, 0, sin t) in plane 2, t = k pi/N, so only plane 1 sees the x y^T
    # term, whose mean cos t sin(t + phi) is sin(phi)/2 for N >= 2: L_N =
    # |-p(1 + cos phi) + (1 - p) sin(phi)/2| + p(1 + cos phi).  A transposed T,
    # or Bob turned the other way (phi -> -phi), flips the sign of the sin term.
    state = h_d_mixture(p)
    x, y = np.eye(3)[:2]
    assert np.max(np.abs(np.array(state.t) - (-p * np.eye(3) + (1.0 - p) * np.outer(x, y)))) <= 1e-15
    cp = 1.0 + np.cos(phis)
    expected = np.abs(-p * cp + (1.0 - p) * np.sin(phis) / 2.0) + p * cp
    assert np.max(np.abs(l_n(state, default_frames(), n, phis) - expected)) <= 1e-14


def test_asymmetric_tensor_at_15_degrees():
    # the pinned value; the transposed T would give 2.4109
    assert f"{l_n(h_d_mixture(0.6), default_frames(), 2, math.radians(15.0)):.4f}" == "2.3073"

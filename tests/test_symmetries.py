"""Symmetries of L_N and of the violation search, as Hypothesis properties:
Werner scaling, swapping the two planes, and SO(3) covariance (a state
turned by U (x) U, measured on planes turned by U's rotation R)."""

import math

import numpy as np
from helpers import random_density_matrix, random_frames
from hypothesis import given, settings
from hypothesis import strategies as st

from nlvtest.inequality import l_n, max_violation_phi
from nlvtest.quantum import _STOKES_PAULIS, TwoQubitState, parse_state, singlet, werner

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
    uu = np.kron(u, u)
    turned = TwoQubitState(uu @ state.rho @ uu.conj().T, eigenvalue_floor=state.eigenvalue_floor)
    turned_frames = frames @ r.T
    worst = np.max(np.abs(l_n(turned, turned_frames, n, phis) - l_n(state, frames, n, phis)))
    assert worst <= 1e-14
    (phi, violation), (phi0, violation0) = (max_violation_phi(turned, turned_frames, n),
                                            max_violation_phi(state, frames, n))
    assert abs(violation - violation0) <= 1e-14
    # at N = 1 a state without correlations scores -4 at every angle, and
    # any angle is its maximizer
    if n > 1 or np.any(state.t):
        assert abs(phi - phi0) <= 1e-14

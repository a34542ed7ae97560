import math

import numpy as np
import pytest
from helpers import random_density_matrix, random_unit

from nlvtest.leggett import leggett_outcomes
from nlvtest.quantum import (
    TwoQubitState,
    bell_diagonal,
    colored_noise,
    correlation,
    maximally_mixed,
    outcome_probability,
    parse_state,
    singlet,
    singlet_L,
    werner,
)
from nlvtest.sphere import UnitVector

S1 = UnitVector(1, 0, 0)
S2 = UnitVector(0, 1, 0)
S3 = UnitVector(0, 0, 1)

# independent trace oracle in the same Stokes operator ordering
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)
STOKES = (_SZ, _SX, _SY)


def expect(state: TwoQubitState, op_a: np.ndarray, op_b: np.ndarray) -> float:
    return float(np.trace(state.rho @ np.kron(op_a, op_b)).real)


def stokes_by_trace(state: TwoQubitState):
    """(m_A, m_B, T) from one trace per entry."""
    m_a = [expect(state, s, _ID2) for s in STOKES]
    m_b = [expect(state, _ID2, s) for s in STOKES]
    t = [[expect(state, s, r) for r in STOKES] for s in STOKES]
    return m_a, m_b, t


def tensor_by_trace(state: TwoQubitState) -> tuple[float, float, float]:
    return tuple(expect(state, s, s) for s in STOKES)


def qubit_rho(u: UnitVector) -> np.ndarray:
    """Single-qubit state (1 + u.sigma)/2 with Stokes vector u."""
    return 0.5 * (_ID2 + u.x * _SZ + u.y * _SX + u.z * _SY)


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho = rho + 1e-6 * np.array([[0, 1j, 0, 0]] + [[0] * 4] * 3)
        with pytest.raises(ValueError):
            TwoQubitState(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.eye(4, dtype=complex) / 2.0)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            TwoQubitState(rho)

    def test_rho_is_readonly(self):
        state = singlet()
        with pytest.raises(ValueError):
            state.rho[0, 0] = 1.0

    def test_rejects_non_finite(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[1, 2] = rho[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            TwoQubitState(rho)
        with pytest.raises(ValueError):
            bell_diagonal(np.nan, 0.0, 0.0)


class TestOutcomeProbability:
    def test_singlet_same_setting_never_coincides(self):
        s = singlet()
        assert outcome_probability(s, S1, S1, 1, 1) == 0.0
        assert outcome_probability(s, S1, S1, -1, -1) == 0.0

    def test_singlet_orthogonal_polarizers(self):
        s = singlet()
        p = outcome_probability(s, S1, UnitVector(-1, 0, 0), 1, 1)
        assert p == pytest.approx(0.5, abs=1e-14)

    def test_matches_trace_oracle_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            state = TwoQubitState(random_density_matrix(rng))
            a, b = random_unit(rng), random_unit(rng)
            for ra in (1, -1):
                for rb in (1, -1):
                    expected = expect(state, qubit_rho(a if ra == 1 else -a),
                                      qubit_rho(b if rb == 1 else -b))
                    assert outcome_probability(state, a, b, ra, rb) == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_product_state_matches_leggett_law(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            u, v, a, b = (random_unit(rng) for _ in range(4))
            state = TwoQubitState(np.kron(qubit_rho(u), qubit_rho(v)))
            table = leggett_outcomes(u, v, a, b, a.dot(u) * b.dot(v))
            got = [
                outcome_probability(state, a, b, ra, rb)
                for ra in (1, -1)
                for rb in (1, -1)
            ]
            assert got == pytest.approx(
                [table.p_pp, table.p_pm, table.p_mp, table.p_mm], abs=1e-12
            )

    def test_mixed_state_uniform(self):
        rng = np.random.default_rng(0)
        m = maximally_mixed()
        for _ in range(20):
            a, b = random_unit(rng), random_unit(rng)
            for ra in (1, -1):
                for rb in (1, -1):
                    assert outcome_probability(m, a, b, ra, rb) == pytest.approx(
                        0.25, abs=1e-14
                    )

    def test_rejects_bad_outcome_sign(self):
        with pytest.raises(ValueError):
            outcome_probability(singlet(), S1, S2, 0, 1)

    def test_outcomes_sum_to_one_random_states(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(10_000):
            state = TwoQubitState(random_density_matrix(rng))
            a, b = random_unit(rng), random_unit(rng)
            total = sum(
                outcome_probability(state, a, b, ra, rb)
                for ra in (1, -1)
                for rb in (1, -1)
            )
            worst = max(worst, abs(total - 1.0))
        assert worst < 1e-12


class TestCorrelation:
    def test_singlet_is_minus_dot_product(self):
        rng = np.random.default_rng(8)
        s = singlet()
        worst = 0.0
        for _ in range(10_000):
            a, b = random_unit(rng), random_unit(rng)
            worst = max(worst, abs(correlation(s, a, b) + a.dot(b)))
        assert worst < 1e-12

    def test_matches_outcome_probability_sum(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            state = TwoQubitState(random_density_matrix(rng))
            a, b = random_unit(rng), random_unit(rng)
            by_sum = sum(
                ra * rb * outcome_probability(state, a, b, ra, rb)
                for ra in (1, -1)
                for rb in (1, -1)
            )
            assert correlation(state, a, b) == pytest.approx(by_sum, abs=1e-12)

    def test_mixed_state_uncorrelated(self):
        assert correlation(maximally_mixed(), S1, S1) == 0.0

    def test_colored_noise_at_s2(self):
        assert correlation(colored_noise(0.99), S2, S2) == pytest.approx(
            -0.99, abs=1e-12
        )


class TestConstructors:
    def test_werner_one_is_singlet(self):
        assert np.allclose(werner(1.0).rho, singlet().rho, atol=1e-15)

    def test_werner_validates_visibility(self):
        with pytest.raises(ValueError):
            werner(1.2)
        with pytest.raises(ValueError):
            colored_noise(-0.1)

    def test_colored_noise_tensor(self):
        # trace oracle: the H/V component stays perfect, conjugate bases scale
        got = tensor_by_trace(colored_noise(0.9))
        assert got[0] == pytest.approx(-1.0, abs=1e-12)
        assert got[1] == pytest.approx(-0.9, abs=1e-12)
        assert got[2] == pytest.approx(-0.9, abs=1e-12)

    def test_bell_diagonal_reproduces_visibilities(self):
        state = bell_diagonal(-0.995, -0.990, -0.982)
        assert np.allclose(
            state.t, np.diag([-0.995, -0.990, -0.982]), rtol=0.0, atol=1e-12
        )
        assert np.allclose(state.m_a, 0.0, rtol=0.0, atol=1e-12)
        assert np.allclose(state.m_b, 0.0, rtol=0.0, atol=1e-12)

    def test_bell_diagonal_rejects_far_unphysical(self):
        with pytest.raises(ValueError):
            bell_diagonal(-0.9, -0.9, 0.9)
        with pytest.raises(ValueError):
            bell_diagonal(-1.1, 0.0, 0.0)

    def test_bell_diagonal_marginals_are_mixed(self):
        state = bell_diagonal(-0.5, 0.3, 0.1)
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = random_unit(rng), random_unit(rng)
            table = [
                outcome_probability(state, a, b, ra, rb)
                for ra in (1, -1)
                for rb in (1, -1)
            ]
            assert table[0] + table[1] == pytest.approx(0.5, abs=1e-12)

    def test_stokes_terms_match_trace_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            state = TwoQubitState(random_density_matrix(rng))
            m_a, m_b, t = stokes_by_trace(state)
            assert np.allclose(state.m_a, m_a, rtol=0.0, atol=1e-12)
            assert np.allclose(state.m_b, m_b, rtol=0.0, atol=1e-12)
            assert np.allclose(state.t, t, rtol=0.0, atol=1e-12)
        # random states carry off-diagonal T and non-zero marginals
        assert np.abs(np.array(t) - np.diag(np.diag(t))).max() > 1e-3
        assert min(np.abs(m_a).max(), np.abs(m_b).max()) > 1e-3

    def test_stokes_terms_are_readonly(self):
        state = werner(0.9)
        with pytest.raises(AttributeError):
            state.t = ((0.0,) * 3,) * 3
        with pytest.raises(TypeError):
            state.t[0][0] = 0.0


class TestSingletCurve:
    def test_endpoints(self):
        assert singlet_L(0.0) == 4.0
        assert singlet_L(math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_fifteen_degrees(self):
        assert singlet_L(math.radians(15)) == pytest.approx(
            2.0 * (1.0 + math.cos(math.radians(15))), abs=1e-15
        )
        assert f"{singlet_L(math.radians(15)):.6f}" == "3.931852"


class TestParseState:
    def test_known_specs(self):
        assert np.allclose(parse_state("singlet").rho, singlet().rho)
        assert np.allclose(parse_state("mixed").rho, maximally_mixed().rho)
        assert np.allclose(parse_state("werner:0.9").rho, werner(0.9).rho)
        assert np.allclose(parse_state("colored:0.9").rho, colored_noise(0.9).rho)
        assert np.allclose(
            parse_state("bell_diagonal:-0.9,-0.8,-0.7").rho,
            bell_diagonal(-0.9, -0.8, -0.7).rho,
        )
        assert np.allclose(
            parse_state("visibilities:0.9,0.8,0.7").rho,
            bell_diagonal(-0.9, -0.8, -0.7).rho,
        )

    def test_bad_specs(self):
        for spec in ("nope", "werner:", "werner:2", "bell_diagonal:1,2", "singlet:x"):
            with pytest.raises(ValueError):
                parse_state(spec)

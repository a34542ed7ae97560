import math

import numpy as np
import pytest
from helpers import random_density_matrix, random_unit, unit_rows

from nlvtest.leggett import leggett_outcomes
from nlvtest.quantum import (
    TwoQubitState,
    bell_diagonal,
    colored_noise,
    correlation,
    maximally_mixed,
    outcome_probabilities,
    parse_state,
    singlet,
    singlet_L,
    werner,
)
# axes as setting rows
X, Y = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
SIGN_PAIRS = ((1, 1), (-1, -1), (-1, 1), (1, -1))

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


def qubit_rho(u, r: int = 1) -> np.ndarray:
    """Single-qubit state (1 + r u.sigma)/2 with Stokes vector r u, r = +-1."""
    x, y, z = u
    return 0.5 * (_ID2 + r * (x * _SZ + y * _SX + z * _SY))


class TestStateValidation:
    def test_rejects_a_matrix_that_is_not_4x4(self):
        with pytest.raises(ValueError, match=r"^density matrix must be 4x4, got \(3, 3\)$"):
            TwoQubitState(np.eye(3, dtype=complex) / 3.0)

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
    """outcome_probabilities, one setting pair per row; entries in the sign
    order (+,+), (-,-), (-,+), (+,-)."""

    def test_singlet_same_setting_never_coincides(self):
        p = outcome_probabilities(singlet(), [X], [X])[0]
        assert p[0] == 0.0  # (+,+)
        assert p[1] == 0.0  # (-,-)

    def test_singlet_orthogonal_polarizers(self):
        p = outcome_probabilities(singlet(), [X], [(-1.0, 0.0, 0.0)])[0, 0]
        assert p == pytest.approx(0.5, abs=1e-14)

    def test_matches_trace_oracle_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            state = TwoQubitState(random_density_matrix(rng))
            a, b = random_unit(rng), random_unit(rng)
            table = outcome_probabilities(state, [a], [b])[0].tolist()
            for (ra, rb), p in zip(SIGN_PAIRS, table):
                expected = expect(state, qubit_rho(a, ra), qubit_rho(b, rb))
                assert p == pytest.approx(expected, abs=1e-12)

    def test_product_state_matches_leggett_law(self):
        rng = np.random.default_rng(6)
        quads = [[random_unit(rng) for _ in range(4)] for _ in range(200)]
        u, v, a, b = np.asarray(quads, dtype=float).transpose(1, 0, 2)
        product = np.einsum("ki,ki->k", a, u) * np.einsum("ki,ki->k", b, v)
        table = leggett_outcomes(u, v, a, b, product)  # one row per quad
        for row, (qu, qv, qa, qb) in zip(table.tolist(), quads):
            state = TwoQubitState(np.kron(qubit_rho(qu), qubit_rho(qv)))
            expected = outcome_probabilities(state, qa, qb)
            assert row == pytest.approx(expected.tolist(), abs=1e-12)

    def test_mixed_state_uniform(self):
        rng = np.random.default_rng(0)
        m = maximally_mixed()
        for _ in range(20):
            a, b = random_unit(rng), random_unit(rng)
            assert outcome_probabilities(m, [a], [b])[0].tolist() == pytest.approx(
                [0.25] * 4, abs=1e-14
            )

    def test_table_rows_equal_one_setting_calls(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = TwoQubitState(random_density_matrix(rng))
            pairs = [(random_unit(rng), random_unit(rng)) for _ in range(5)]
            table = outcome_probabilities(state, [a for a, _ in pairs], [b for _, b in pairs])
            assert table.shape == (5, 4)
            for row, (a, b) in zip(table.tolist(), pairs):
                assert row == outcome_probabilities(state, [a], [b])[0].tolist()

    def test_table_rejects_out_of_range_probability(self):
        # a non-unit setting drives P(+,+) for the singlet to (1 - 2)/4
        with pytest.raises(ValueError, match=r"probability -0\.25 outside"):
            outcome_probabilities(singlet(), [[2.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])

    def test_outcomes_sum_to_one_random_states(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(10_000):
            state = TwoQubitState(random_density_matrix(rng))
            a, b = random_unit(rng), random_unit(rng)
            total = sum(outcome_probabilities(state, [a], [b])[0].tolist())
            worst = max(worst, abs(total - 1.0))
        assert worst < 1e-12


class TestCorrelation:
    def test_singlet_is_minus_dot_product(self):
        a, b = unit_rows(np.random.default_rng(8), 2, 10_000)
        c = correlation(singlet(), a, b)
        assert c.shape == (10_000,)
        assert np.max(np.abs(c + np.einsum("ki,ki->k", a, b))) < 1e-12

    def test_matches_outcome_probability_sum(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            state = TwoQubitState(random_density_matrix(rng))
            a, b = unit_rows(rng, 2, 5)
            # sign order (+,+), (-,-), (-,+), (+,-)
            by_sum = outcome_probabilities(state, a, b) @ [1.0, 1.0, -1.0, -1.0]
            assert np.max(np.abs(correlation(state, a, b) - by_sum)) <= 1e-12

    def test_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(10)
        state = TwoQubitState(random_density_matrix(rng))
        a, b = unit_rows(rng, 2, 50)
        stacked = correlation(state, a, b)
        for k in range(50):
            assert correlation(state, a[k:k + 1], b[k:k + 1]).tolist() == [stacked[k]]
            assert state.correlation(a[k], b[k]) == stacked[k]

    def test_stack_keeps_its_leading_axes(self):
        rng = np.random.default_rng(11)
        state = TwoQubitState(random_density_matrix(rng))
        a, b = unit_rows(rng, 2, 10)
        flat_c, flat_p = correlation(state, a, b), outcome_probabilities(state, a, b)
        a, b = a.reshape(2, 5, 3), b.reshape(2, 5, 3)
        assert correlation(state, a, b).tolist() == flat_c.reshape(2, 5).tolist()
        assert outcome_probabilities(state, a, b).tolist() == flat_p.reshape(2, 5, 4).tolist()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            correlation(singlet(), [(2.0, 0.0, 0.0)], [(1.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match="outside"):
            correlation(singlet(), [(1.0, 0.0, 0.0)], [(float("nan"), 0.0, 0.0)])

    def test_mixed_state_uncorrelated(self):
        assert correlation(maximally_mixed(), [X, Y], [X, Y]).tolist() == [0.0, 0.0]

    def test_colored_noise_at_s2(self):
        c = correlation(colored_noise(0.99), [Y], [Y])
        assert c.tolist() == pytest.approx([-0.99], abs=1e-12)


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

    def test_bell_diagonal_accepts_only_within_visibility_slack(self):
        # smallest eigenvalue (1 + t1 + t2 - t3)/4: -0.0025 is inside the
        # 5e-3 reconstruction slack, -0.0075 is outside it
        state = bell_diagonal(-1.0, -1.0, -0.99)
        assert np.allclose(state.t, np.diag([-1.0, -1.0, -0.99]), rtol=0.0, atol=1e-12)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            bell_diagonal(-1.0, -1.0, -0.97)

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
            p = outcome_probabilities(state, [a], [b])[0]
            assert p[0] + p[3] == pytest.approx(0.5, abs=1e-12)  # (+,+) + (+,-)

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

    @pytest.mark.parametrize("spec, name", [(None, "NoneType"), (3, "int"), (b"singlet", "bytes")])
    def test_refuses_a_spec_that_is_not_a_str(self, spec, name):
        with pytest.raises(ValueError, match=f"^state spec must be a str, got {name}$"):
            parse_state(spec)

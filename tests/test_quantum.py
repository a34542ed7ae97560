import math
import re

import numpy as np
import pytest
from helpers import (
    ID2, STOKES_PAULIS, bell_diagonal_rhos, random_density_matrix, random_unit, singlet_rho,
    state_specs, stokes_terms, unit_rows,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from nlvtest.leggett import leggett_outcomes
from nlvtest.quantum import (
    _VISIBILITY_SLACK,
    TwoQubitState,
    _bell_weights,
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

# independent trace oracle on a density matrix, in the same Stokes operator ordering
def expect(rho: np.ndarray, op_a: np.ndarray, op_b: np.ndarray) -> float:
    return float(np.trace(rho @ np.kron(op_a, op_b)).real)


def stokes_by_trace(rho: np.ndarray):
    """(m_A, m_B, T) from one trace per entry."""
    m_a = [expect(rho, s, ID2) for s in STOKES_PAULIS]
    m_b = [expect(rho, ID2, s) for s in STOKES_PAULIS]
    t = [[expect(rho, s, r) for r in STOKES_PAULIS] for s in STOKES_PAULIS]
    return m_a, m_b, t


def tensor_by_trace(rho: np.ndarray) -> tuple[float, float, float]:
    return tuple(expect(rho, s, s) for s in STOKES_PAULIS)


def qubit_rho(u, r: int = 1) -> np.ndarray:
    """Single-qubit state (1 + r u.sigma)/2 with Stokes vector r u, r = +-1."""
    x, y, z = u
    sz, sx, sy = STOKES_PAULIS
    return 0.5 * (ID2 + r * (x * sz + y * sx + z * sy))


class TestStateValidation:
    def test_rejects_a_matrix_that_is_not_4x4(self):
        with pytest.raises(ValueError, match=r"^density matrix must be 4x4, got \(3, 3\)$"):
            TwoQubitState.from_density_matrix(np.eye(3, dtype=complex) / 3.0)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho = rho + 1e-6 * np.array([[0, 1j, 0, 0]] + [[0] * 4] * 3)
        with pytest.raises(ValueError):
            TwoQubitState.from_density_matrix(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            TwoQubitState.from_density_matrix(np.eye(4, dtype=complex) / 2.0)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            TwoQubitState.from_density_matrix(rho)

    def test_terms_are_immutable(self):
        state = singlet()
        for name in ("m_a", "m_b", "t"):
            with pytest.raises(AttributeError):
                setattr(state, name, getattr(state, name))
        with pytest.raises(TypeError):
            state.m_a[0] = 1.0
        with pytest.raises(TypeError):
            state.m_b[0] = 1.0
        with pytest.raises(TypeError):
            state.t[0][0] = 1.0

    def test_rejects_non_finite(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[1, 2] = rho[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            TwoQubitState.from_density_matrix(rho)
        with pytest.raises(ValueError):
            bell_diagonal(np.nan, 0.0, 0.0)

    ZERO, IDENTITY = (0.0,) * 3, np.eye(3).tolist()

    @pytest.mark.parametrize("m_a, m_b, t", [
        ((0.0, 0.0), ZERO, IDENTITY),
        (ZERO, (0.0,) * 4, IDENTITY),
        (0.0, ZERO, IDENTITY),
        (ZERO, ZERO, IDENTITY[:2]),
        (ZERO, ZERO, ZERO),
        (ZERO, ZERO, np.zeros((3, 4))),
        (ZERO, ZERO, np.zeros((3, 3, 1))),
        (ZERO, ZERO, [[0.0] * 3, [0.0] * 3, [0.0] * 2]),
        ("abc", ZERO, IDENTITY),
        (None, ZERO, IDENTITY),
    ], ids=["m_a-2", "m_b-4", "m_a-scalar", "t-2-rows", "t-flat", "t-3x4", "t-3x3x1", "t-ragged",
            "m_a-str", "m_a-none"])
    def test_construction_refuses_wrong_shapes(self, m_a, m_b, t):
        message = r"^Stokes terms must be finite floats of shapes \(3,\), \(3,\) and \(3, 3\)$"
        with pytest.raises(ValueError, match=message):
            TwoQubitState(m_a, m_b, t)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["m_a", "m_b", "t"])
    def test_construction_refuses_non_finite(self, field, value):
        terms = {"m_a": [0.0] * 3, "m_b": [0.0] * 3, "t": np.eye(3).tolist()}
        (terms[field][2] if field == "t" else terms[field])[1] = value
        with pytest.raises(ValueError, match="^Stokes terms must be finite floats"):
            TwoQubitState(**terms)

    def test_construction_keeps_the_terms_as_plain_floats(self):
        m_a, m_b = np.array([0.1, -0.0, 0.3]), [1, 0, 0]
        t = np.array([[-0.0, 0.2, 0.0], [0.0, 0.5, 0.0], [0.1, 0.0, -1.0]])
        state = TwoQubitState(m_a, m_b, t)
        assert state.m_a == (0.1, -0.0, 0.3) and state.m_b == (1.0, 0.0, 0.0)
        assert state.t == ((-0.0, 0.2, 0.0), (0.0, 0.5, 0.0), (0.1, 0.0, -1.0))
        assert math.copysign(1.0, state.m_a[1]) == math.copysign(1.0, state.t[0][0]) == -1.0
        values = [*state.m_a, *state.m_b, *(x for row in state.t for x in row)]
        assert {type(x) for x in values} == {float}

    def test_construction_makes_no_positivity_check(self):
        # terms that are no state's are taken; each use checks its own range
        state = TwoQubitState((0.0,) * 3, (0.0,) * 3, (2.0 * np.eye(3)).tolist())
        assert state.t[0][0] == 2.0
        with pytest.raises(ValueError, match=r"^correlation 2\.0 outside"):
            correlation(state, [X], [X])
        with pytest.raises(ValueError, match=r"^probability -0\.25 outside"):
            outcome_probabilities(state, [X], [X])


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
            rho = random_density_matrix(rng)
            state = TwoQubitState.from_density_matrix(rho)
            a, b = random_unit(rng), random_unit(rng)
            table = outcome_probabilities(state, [a], [b])[0].tolist()
            for (ra, rb), p in zip(SIGN_PAIRS, table):
                expected = expect(rho, qubit_rho(a, ra), qubit_rho(b, rb))
                assert p == pytest.approx(expected, abs=1e-12)

    def test_product_state_matches_leggett_law(self):
        rng = np.random.default_rng(6)
        quads = [[random_unit(rng) for _ in range(4)] for _ in range(200)]
        u, v, a, b = np.asarray(quads, dtype=float).transpose(1, 0, 2)
        product = np.einsum("ki,ki->k", a, u) * np.einsum("ki,ki->k", b, v)
        table = leggett_outcomes(u, v, a, b, product)  # one row per quad
        for row, (qu, qv, qa, qb) in zip(table.tolist(), quads):
            state = TwoQubitState.from_density_matrix(np.kron(qubit_rho(qu), qubit_rho(qv)))
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
            state = TwoQubitState.from_density_matrix(random_density_matrix(rng))
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
            state = TwoQubitState.from_density_matrix(random_density_matrix(rng))
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
            state = TwoQubitState.from_density_matrix(random_density_matrix(rng))
            a, b = unit_rows(rng, 2, 5)
            # sign order (+,+), (-,-), (-,+), (+,-)
            by_sum = outcome_probabilities(state, a, b) @ [1.0, 1.0, -1.0, -1.0]
            assert np.max(np.abs(correlation(state, a, b) - by_sum)) <= 1e-12

    def test_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(10)
        state = TwoQubitState.from_density_matrix(random_density_matrix(rng))
        a, b = unit_rows(rng, 2, 50)
        stacked = correlation(state, a, b)
        for k in range(50):
            assert correlation(state, a[k:k + 1], b[k:k + 1]).tolist() == [stacked[k]]
            assert state.correlation(a[k], b[k]) == stacked[k]

    def test_stack_keeps_its_leading_axes(self):
        rng = np.random.default_rng(11)
        state = TwoQubitState.from_density_matrix(random_density_matrix(rng))
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
        assert stokes_terms(werner(1.0)) == stokes_terms(singlet())

    def test_werner_validates_visibility(self):
        with pytest.raises(ValueError):
            werner(1.2)
        with pytest.raises(ValueError):
            colored_noise(-0.1)

    def test_colored_noise_tensor(self):
        # trace oracle on the mixture that colored_noise documents, 0.9 singlet
        # + 0.1 (|HV><HV| + |VH><VH|)/2: the H/V component stays perfect,
        # conjugate bases scale
        hv_noise = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        got = tensor_by_trace(0.9 * singlet_rho() + 0.1 * hv_noise)
        assert got[0] == pytest.approx(-1.0, abs=1e-12)
        assert got[1] == pytest.approx(-0.9, abs=1e-12)
        assert got[2] == pytest.approx(-0.9, abs=1e-12)
        state = colored_noise(0.9)
        assert np.allclose(np.diag(state.t), got, rtol=0.0, atol=1e-12)

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

    # the sign vectors s with s1 s2 s3 = -1, in _bell_weights' order
    BELL_SIGNS = ((-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))

    def test_bell_weights_are_the_eigenvalues(self):
        rng = np.random.default_rng(12)
        tensors = rng.uniform(-1.0, 1.0, size=(2000, 3)).tolist()
        weights = np.array([_bell_weights(*t) for t in tensors])
        eigenvalues = np.linalg.eigvalsh(bell_diagonal_rhos(tensors))
        assert np.max(np.abs(np.sort(weights, axis=1) - eigenvalues)) <= 1e-15
        # one weight (1 + s.t)/4 per sign vector, in BELL_SIGNS' order
        by_sign = (1.0 + np.array(tensors) @ np.array(self.BELL_SIGNS).T) / 4.0
        assert np.max(np.abs(weights - by_sign)) <= 1e-15

    def test_bell_diagonal_accepts_what_the_eigenvalue_rule_accepts(self):
        # the eigenvalue rule: the smallest eigenvalue of rho, built from the
        # terms, is at least -5e-3; outside a 1e-12 band around that edge both
        # rules take the same tensors.  Random tensors, then tensors whose
        # weight for a random sign vector sits 1e-12 to 1e-3 from the edge.
        rng = np.random.default_rng(13)
        tensors = rng.uniform(-1.0, 1.0, size=(2000, 3)).tolist()
        for _ in range(4000):
            s = self.BELL_SIGNS[rng.integers(4)]
            t1, t2 = rng.uniform(-1.0, 1.0, size=2).tolist()
            weight = -_VISIBILITY_SLACK + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11.9, -3.0)
            t3 = (4.0 * weight - 1.0 - s[0] * t1 - s[1] * t2) * s[2]
            if abs(t3) <= 1.0:
                tensors.append([t1, t2, t3])
        lowest = np.linalg.eigvalsh(bell_diagonal_rhos(tensors))[:, 0]
        compared = accepted = near = 0
        for t, low in zip(tensors, lowest.tolist()):
            if abs(low + 5e-3) <= 1e-12:
                continue
            near += abs(low + 5e-3) <= 1e-3
            try:
                bell_diagonal(*t)
                ok = True
            except ValueError as exc:
                assert str(exc) == "density matrix has a negative eigenvalue"
                ok = False
            assert ok == (low >= -5e-3), (t, low)
            compared, accepted = compared + 1, accepted + ok
        assert compared >= 3500 and near >= 1000 and 1000 <= accepted <= compared - 1000

    @pytest.mark.parametrize("signs", BELL_SIGNS)
    def test_bell_diagonal_slack_edge(self, signs):
        # t = (-s1, -s2, s3 c) gives the weight (c - 1)/4 for s, -5e-3 at c = 0.98,
        # and positive weights for the other three sign vectors
        s1, s2, s3 = signs
        inside = bell_diagonal(-s1, -s2, s3 * (0.98 + 4e-12))
        assert min(_bell_weights(-s1, -s2, s3 * (0.98 + 4e-12))) == pytest.approx(-5e-3 + 1e-12, abs=1e-16)
        assert inside.t[2][2] == s3 * (0.98 + 4e-12)
        with pytest.raises(ValueError, match="^density matrix has a negative eigenvalue$"):
            bell_diagonal(-s1, -s2, s3 * (0.98 - 4e-12))

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
            rho = random_density_matrix(rng)
            state = TwoQubitState.from_density_matrix(rho)
            m_a, m_b, t = stokes_by_trace(rho)
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
        for spec, state in [
            ("singlet", singlet()),
            ("mixed", maximally_mixed()),
            ("werner:0.9", werner(0.9)),
            ("colored:0.9", colored_noise(0.9)),
            ("bell_diagonal:-0.9,-0.8,-0.7", bell_diagonal(-0.9, -0.8, -0.7)),
            ("visibilities:0.9,0.8,0.7", bell_diagonal(-0.9, -0.8, -0.7)),
        ]:
            assert stokes_terms(parse_state(spec)) == stokes_terms(state)

    def test_bad_specs(self):
        for spec in ("nope", "werner:", "werner:2", "bell_diagonal:1,2", "singlet:x"):
            with pytest.raises(ValueError):
                parse_state(spec)

    # the name is checked first, then the parameter count, then the numbers:
    # "singlet:x" is refused for its count, not for "x"
    @pytest.mark.parametrize("spec, message", [
        ("singlet:x", "singlet takes 0 parameters, got 1"),
        ("werner:", "werner takes 1 parameter, got 0"),
        ("werner:1,2", "werner takes 1 parameter, got 2"),
        ("bell_diagonal:1,2", "bell_diagonal takes 3 parameters, got 2"),
    ])
    def test_refuses_a_wrong_parameter_count(self, spec, message):
        with pytest.raises(ValueError, match=f"^invalid state spec {re.escape(repr(spec))}: {message}$"):
            parse_state(spec)

    # every named spec, aliases included, is the Bell-diagonal state of its
    # documented tensor, with maximally mixed marginals
    @pytest.mark.parametrize("spec, tensor", [
        ("singlet", (-1.0, -1.0, -1.0)),
        ("mixed", (0.0, 0.0, 0.0)),
        ("maximally_mixed", (0.0, 0.0, 0.0)),
        *[(f"werner:{v}", (-v, -v, -v)) for v in (0.0, 0.5, 0.96, 1.0)],
        *[(f"{name}:{v}", (-1.0, -v, -v)) for name in ("colored", "colored_noise")
          for v in (0.0, 0.5, 0.96, 1.0)],
        ("visibilities:0.995,0.990,0.982", (-0.995, -0.99, -0.982)),
        ("visibilities:1,1,0.99", (-1.0, -1.0, -0.99)),
        ("bell_diagonal:-0.6,-0.5,-0.3", (-0.6, -0.5, -0.3)),
        ("bell_diagonal:-0,0,-0", (-0.0, 0.0, -0.0)),
        ("  Bell_Diagonal : 0.1 ,-0.2, 0.3 ", (0.1, -0.2, 0.3)),
    ])
    def test_named_specs_have_their_documented_tensor(self, spec, tensor):
        state = parse_state(spec)
        expected = tuple(tuple(tensor[i] if i == j else 0.0 for j in range(3)) for i in range(3))
        assert state.m_a == state.m_b == (0.0, 0.0, 0.0)
        assert state.t == expected
        # the signs of zeros too, which the violation search reads with copysign
        assert repr(stokes_terms(state)) == repr(((0.0,) * 3, (0.0,) * 3, expected))

    @pytest.mark.parametrize("spec, name", [(None, "NoneType"), (3, "int"), (b"singlet", "bytes")])
    def test_refuses_a_spec_that_is_not_a_str(self, spec, name):
        with pytest.raises(ValueError, match=f"^state spec must be a str, got {name}$"):
            parse_state(spec)

    @given(spec=st.one_of(state_specs, st.integers(), st.none(), st.binary(max_size=8)))
    @settings(max_examples=200, deadline=None)
    def test_any_input_gives_a_bounded_state_or_names_itself(self, spec):
        # every spec is Bell-diagonal: zero marginals, a diagonal tensor with
        # finite entries of size at most 1 + 1e-12; a refusal names the spec,
        # or the type of what is not a str
        try:
            state = parse_state(spec)
        except ValueError as exc:
            assert (repr(spec) if isinstance(spec, str) else type(spec).__name__) in str(exc)
            return
        assert state.m_a == state.m_b == (0.0, 0.0, 0.0)
        assert all(state.t[i][j] == 0.0 for i in range(3) for j in range(3) if i != j)
        assert all(math.isfinite(state.t[i][i]) and abs(state.t[i][i]) <= 1.0 + 1e-12 for i in range(3))

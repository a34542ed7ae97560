import math
import re
import tracemalloc

import numpy as np
import pytest
from helpers import dot, random_unit, reference_scan, setting_pairs, unit_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from nlvtest.inequality import l_n, nlv_bound
from nlvtest.leggett import (
    _SCAN_BLOCK,
    _SCAN_HEAD,
    ConstraintViolationError,
    PureEnsemble,
    _sphere_grid,
    admissible_C_range,
    explicit_model_margin,
    leggett_outcomes,
    product_ensemble,
    scan_explicit_model,
)
from nlvtest.quantum import _SIGN_PAIRS
from nlvtest.sphere import default_frames, schedule_rows

# axes as setting rows; S1 and S3 name Stokes axes
X, Y, Z = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
S1, S3 = X, Z


def brute_force_c_range(x: float, y: float, samples: int = 400_001) -> tuple[float, float]:
    """Oracle: scan C and keep values where all four sign entries are >= 0."""
    grid = np.linspace(-1.0, 1.0, samples)
    ok = np.ones_like(grid, dtype=bool)
    for ra in (1, -1):
        for rb in (1, -1):
            ok &= (1.0 + ra * x + rb * y + ra * rb * grid) >= -1e-12
    valid = grid[ok]
    return float(valid.min()), float(valid.max())


# Plain-Python scalar references: one setting quadruple at a time.
def reference_c_range(u, v, a, b) -> tuple[float, float]:
    x, y = dot(a, u), dot(b, v)
    return (-1.0 + abs(x + y), 1.0 - abs(x - y))


def reference_outcomes(u, v, a, b, c) -> list[float]:
    x, y = dot(a, u), dot(b, v)
    return [((1.0 + r_a * x) + r_b * (y + r_a * c)) / 4.0 for r_a, r_b in _SIGN_PAIRS]


def reference_margin(u, v, pairs) -> float:
    margin = math.inf
    for a, b in pairs:
        d, x, y = dot(a, b), dot(u, a), dot(v, b)
        for s in (1.0, -1.0):
            margin = min(margin, (1.0 - s * y) - abs(d + s * x))
    return margin


def schedule_pairs(n: int, phi: float) -> np.ndarray:
    """The default frames' measured pairs as (4N, 2, 3) rows."""
    return np.stack(schedule_rows(default_frames(), n, phi), axis=1)


def marginal(table: np.ndarray, party: int, r: int) -> np.ndarray:
    """Per row, the sum of the entries whose sign for ``party`` (0 = A,
    1 = B) is r."""
    return sum(table[:, j] for j, signs in enumerate(_SIGN_PAIRS) if signs[party] == r)


class TestOutcomes:
    def test_forced_perfect_correlation(self):
        assert leggett_outcomes([Z], [Z], [Z], [Z], [1.0]).tolist() == [[1.0, 0.0, 0.0, 0.0]]
        # stacked with the unbiased case below, row by row
        table = leggett_outcomes([Z, Z], [Z, Z], [Z, X], [Z, X], [1.0, 0.0])
        assert table.tolist() == [[1.0, 0.0, 0.0, 0.0], [0.25] * 4]

    def test_unbiased_case(self):
        # a orthogonal to u
        assert leggett_outcomes([Z], [Z], [X], [X], [0.0]).tolist() == [[0.25] * 4]
        assert leggett_outcomes([Z] * 3, [Z] * 3, [X] * 3, [X] * 3, [0.0] * 3).tolist() == [
            [0.25] * 4
        ] * 3

    def test_entries_sum_to_one(self):
        rng = np.random.default_rng(21)
        u, v, a, b = unit_rows(rng, 4, 500)
        lo, hi = admissible_C_range(u, v, a, b)
        c = rng.uniform(lo, hi)
        assert np.abs(leggett_outcomes(u, v, a, b, c).sum(axis=1) - 1.0).max() < 1e-12

    def test_rows_equal_scalar_reference(self):
        rng = np.random.default_rng(26)
        u, v, a, b = unit_rows(rng, 4, 1000)
        lo, hi = admissible_C_range(u, v, a, b)
        c = rng.uniform(lo, hi)
        rows = zip(u.tolist(), v.tolist(), a.tolist(), b.tolist(), c.tolist())
        assert leggett_outcomes(u, v, a, b, c).tolist() == [reference_outcomes(*r) for r in rows]

    def test_violation_error_carries_diagnostics(self):
        # the forced interval at u = v = a = b is {1}
        with pytest.raises(ConstraintViolationError) as info:
            leggett_outcomes([Z], [Z], [Z], [Z], [1.0 - 1e-3])
        err = info.value
        assert (err.row, err.count) == (0, 1)
        assert (err.r_a, err.r_b) in {(1, 1), (-1, -1), (1, -1), (-1, 1)}
        assert err.deficit > 0.0
        # stacked: the first offending row is named, and the offending rows counted
        with pytest.raises(ConstraintViolationError, match=r"row 1: outcome \(-, -\)") as info:
            leggett_outcomes([Z, Z, Z], [Z, Z, Z], [Z, Z, Z], [Z, Z, Z], [1.0, 0.9, 0.5])
        err = info.value
        assert (err.row, err.count, err.r_a, err.r_b) == (1, 2, -1, -1)
        assert err.deficit == pytest.approx(0.025, abs=1e-15)

    def test_rejects_nan_correlation(self):
        with pytest.raises(ValueError, match="finite"):
            leggett_outcomes([X], [Z], [X], [Z], [math.nan])
        with pytest.raises(ValueError, match="finite"):
            leggett_outcomes([X, X], [Z, Z], [X, X], [Z, Z], [0.0, math.inf])


class TestAdmissibleRange:
    def test_unconstrained_case(self):
        lo, hi = admissible_C_range([Z], [Z], [X], [X])
        assert (lo.tolist(), hi.tolist()) == ([-1.0], [1.0])

    def test_fully_constrained_case(self):
        lo, hi = admissible_C_range([Z], [Z], [Z], [Z])
        assert (lo.tolist(), hi.tolist()) == ([1.0], [1.0])
        # stacked with the unconstrained case above
        lo, hi = admissible_C_range([Z, Z], [Z, Z], [Z, X], [Z, X])
        assert (lo.tolist(), hi.tolist()) == ([1.0, -1.0], [1.0, 1.0])

    def test_half_constrained_example(self):
        # a.u = 0.5 and b.v = -0.3 exactly by construction
        u = (0.5, math.sqrt(0.75), 0.0)
        v = (0.0, math.sqrt(1 - 0.09), -0.3)
        lo, hi = admissible_C_range([u, u], [v, v], [X, X], [Z, Z])
        assert lo.tolist() == pytest.approx([-0.8, -0.8], abs=1e-12)
        assert hi.tolist() == pytest.approx([0.2, 0.2], abs=1e-12)
        oracle = brute_force_c_range(0.5, -0.3)
        assert lo[0] == pytest.approx(oracle[0], abs=1e-5)
        assert hi[0] == pytest.approx(oracle[1], abs=1e-5)

    def test_matches_sign_enumeration_oracle(self):
        rng = np.random.default_rng(22)
        u, v, a, b = unit_rows(rng, 4, 50)
        lo, hi = admissible_C_range(u, v, a, b)
        for i in range(50):
            o_lo, o_hi = brute_force_c_range(dot(a[i], u[i]), dot(b[i], v[i]))
            assert lo[i] == pytest.approx(o_lo, abs=1e-5)
            assert hi[i] == pytest.approx(o_hi, abs=1e-5)

    def test_rows_equal_scalar_reference(self):
        rng = np.random.default_rng(27)
        u, v, a, b = unit_rows(rng, 4, 1000)
        lo, hi = admissible_C_range(u, v, a, b)
        rows = zip(u.tolist(), v.tolist(), a.tolist(), b.tolist())
        assert list(zip(lo.tolist(), hi.tolist())) == [reference_c_range(*r) for r in rows]

    def test_interval_never_empty(self):
        rng = np.random.default_rng(23)
        lo, hi = admissible_C_range(*unit_rows(rng, 4, 2000))
        assert (lo <= hi + 1e-15).all()

    def test_boundary_positivity_and_rejection(self):
        rng = np.random.default_rng(24)
        u, v, a, b = unit_rows(rng, 4, 2000)
        lo, hi = admissible_C_range(u, v, a, b)
        for c in (lo, hi):
            assert leggett_outcomes(u, v, a, b, c).min() >= -1e-12
        # every row is rejected beyond either end
        for c in (hi + 1e-6, lo - 1e-6):
            with pytest.raises(ConstraintViolationError) as info:
                leggett_outcomes(u, v, a, b, c)
            assert (info.value.row, info.value.count) == (0, 2000)


class TestMarginals:
    def test_independent_of_correlation(self):
        rng = np.random.default_rng(25)
        u, v, a, b = np.repeat(unit_rows(rng, 4, 500), 5, axis=1)  # five c per draw
        c = np.linspace(*admissible_C_range(u[::5], v[::5], a[::5], b[::5]), 5, axis=1).ravel()
        table = leggett_outcomes(u, v, a, b, c)
        x, y = np.einsum("ki,ki->k", a, u), np.einsum("ki,ki->k", b, v)
        worst = 0.0
        for r in (1, -1):
            worst = max(worst, np.abs(marginal(table, 0, r) - (1 + r * x) / 2).max())
            worst = max(worst, np.abs(marginal(table, 1, r) - (1 + r * y) / 2).max())
        assert worst <= 1e-14

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            product_ensemble([0.7, 0.7], [S1, S1], [S1, S1])
        with pytest.raises(ValueError):
            product_ensemble([-0.5, 1.5], [S1, S1], [S1, S1])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                product_ensemble([bad, 1.0], [S1, S1], [S1, S1])
            with pytest.raises(ValueError):
                product_ensemble([1.0, bad], [S1, S1], [S1, S1])


class TestLocalEnsemblesRespectBound:
    def test_random_mixtures(self):
        rng = np.random.default_rng(30)
        frames = default_frames()
        phis = np.linspace(0.0, math.pi / 2, 9)
        worst = -math.inf
        for _ in range(30):
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k))
            ens = product_ensemble(
                *zip(*[(float(w), random_unit(rng), random_unit(rng)) for w in weights])
            )
            for n in range(1, 5):
                for phi in phis:
                    worst = max(worst, l_n(ens, frames, n, float(phi)) - nlv_bound(n, float(phi)))
        assert worst <= 1e-12

    def test_aligned_mixture_saturates_at_phi_zero(self):
        ens = product_ensemble([1.0], [S1], [S1])
        assert l_n(ens, default_frames(), 1, 0.0) == pytest.approx(4.0, abs=1e-12)
        assert nlv_bound(1, 0.0) == 4.0

    def test_inadmissible_component_rejected(self):
        # at a = b = S1 the interval of u = v = S1 is [1, 1], so C = -1 is no model
        anti = PureEnsemble([1.0], [S1], [S1], _constants(-1.0))
        with pytest.raises(ConstraintViolationError) as info:
            l_n(anti, default_frames(), 2, math.radians(15.0))
        assert info.value.row == 0

        # a component at the upper interval end is admissible
        def edge_corr(u, v, a, b):  # component 0 factorizes, component 1 is at its upper end
            x, y = u @ a.T, v @ b.T
            return np.stack([(x * y)[0], (1.0 - np.abs(x - y))[1]])

        edge = PureEnsemble([0.5, 0.5], [S1, S1], [S1, S3], edge_corr)
        assert l_n(edge, default_frames(), 2, math.radians(15.0)) >= 0.0

    def test_violation_names_first_settings_row(self):
        # C = -1 fits u = v = S1 only where b.v = -a.u = -1: rows 0 and 1
        a = [X, X, X, X]
        b = [(-1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), X, Y]
        anti = PureEnsemble([1.0], [S1], [S1], _constants(-1.0))
        with pytest.raises(ConstraintViolationError) as info:
            anti.correlation(a, b)
        assert (info.value.row, info.value.count) == (2, 2)
        # with a second, admissible component first, the row is still a settings row
        mixed = PureEnsemble([0.5, 0.5], [S3, S1], [S3, S1], _constants(0.0, -1.0))
        with pytest.raises(ConstraintViolationError) as info:
            mixed.correlation(a, b)
        assert (info.value.row, info.value.count) == (2, 2)
        assert mixed.correlation(a[:2], b[:2]).tolist() == [-0.5, -0.5]

    def test_stacked_rows_equal_scalar_sum(self):
        # one call over stacked rows against a per-row plain-Python weighted sum
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k)).tolist()
            parts = [(w, random_unit(rng), random_unit(rng)) for w in weights]
            a, b = unit_rows(rng, 2, 20)
            stacked = product_ensemble(*zip(*parts)).correlation(a, b)
            for row in range(20):
                ar, br = a[row].tolist(), b[row].tolist()
                total = 0.0
                for w, u, v in parts:
                    total += w * (dot(ar, u) * dot(br, v))
                worst = max(worst, abs(stacked[row] - total))
        assert worst <= 1e-15

    def test_stacked_rows_equal_single_row_calls(self):
        # a row's correlation does not depend on the rows sharing the call
        rng = np.random.default_rng(32)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k)).tolist()
            ens = product_ensemble(*zip(*[(w, random_unit(rng), random_unit(rng)) for w in weights]))
            a, b = unit_rows(rng, 2, 16)
            single = [ens.correlation(a[row:row + 1], b[row:row + 1])[0] for row in range(16)]
            assert ens.correlation(a, b).tolist() == single

    def test_angle_array_equals_per_angle_l_n(self):
        # wide stacks: 100 angles of 4N rows each at N = 32
        rng = np.random.default_rng(33)
        frames = default_frames()
        phis = np.linspace(0.0, math.pi, 100)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k)).tolist()
            ens = product_ensemble(*zip(*[(w, random_unit(rng), random_unit(rng)) for w in weights]))
            for n in (1, 3, 32):
                stacked = l_n(ens, frames, n, phis).tolist()
                assert stacked == [l_n(ens, frames, n, phi) for phi in phis.tolist()]


def _counted(corr):
    """``corr`` with a list ``calls`` counting its calls."""
    def counted(u, v, a, b):
        counted.calls.append(len(a))
        return corr(u, v, a, b)
    counted.calls = []
    return counted


def _projections(u, v, a, b):
    """The (m, k) projections a.u and b.v, in dot()'s operation order."""
    x = u[:, None, 0] * a[:, 0] + u[:, None, 1] * a[:, 1] + u[:, None, 2] * a[:, 2]
    y = v[:, None, 0] * b[:, 0] + v[:, None, 1] * b[:, 1] + v[:, None, 2] * b[:, 2]
    return x, y


def _product(u, v, a, b):
    x, y = _projections(u, v, a, b)
    return x * y


class TestPureEnsemble:
    def test_refuses_no_components(self):
        with pytest.raises(ValueError, match=r"m >= 1; got \(0,\), \(0, 3\), \(0, 3\)"):
            PureEnsemble([], np.zeros((0, 3)), np.zeros((0, 3)), _product)
        with pytest.raises(ValueError, match="m >= 1"):
            product_ensemble([], [], [])

    @pytest.mark.parametrize("weights, u, v", [
        (1.0, [S1], [S1]),  # weights (), not (m,)
        ([[1.0]], [S1], [S1]),
        ([1.0], S1, [S1]),  # u (3,), not (1, 3)
        ([1.0], [S1], [X[:2]]),
        ([0.5, 0.5], [S1, S1], [S1]),
        ([0.5, 0.5], [S1], [S1, S1]),
        ([1.0], [S1, S1], [S1, S1]),
    ])
    def test_refuses_shapes_other_than_m_m3_m3(self, weights, u, v):
        with pytest.raises(ValueError, match=r"weights \(m,\) and u, v as \(m, 3\) rows"):
            PureEnsemble(weights, u, v, _product)

    @pytest.mark.parametrize("row", [[math.nan] * 3, [math.inf, 0.0, 0.0], [0.0] * 3,
                                     [2.0, 0.0, 0.0], [1e200, 0.0, 0.0]],
                             ids=["nan", "inf", "zero", "twice", "huge"])
    @pytest.mark.parametrize("side", [0, 1], ids=["u", "v"])
    def test_refuses_rows_that_are_not_unit_vectors(self, row, side):
        rows = np.array([[X, Y], [Y, Z], [Z, X], [X, Z]])
        rows[1, side] = row
        rows[3, 1 - side] = row  # a later offending component, not named
        with pytest.raises(ValueError, match=r"^component 1 is not two unit vectors: \|u\|, \|v\|"):
            PureEnsemble([0.25] * 4, rows[:, 0], rows[:, 1], _product)

    @pytest.mark.parametrize("shape", [(1, 4), (4,), (4, 2)], ids=["1k", "k", "km"])
    def test_refuses_corr_results_not_m_by_k(self, shape):
        # two components at four settings rows; zeros would be admissible
        ens = PureEnsemble([0.5, 0.5], [S1, S3], [S3, S1], lambda u, v, a, b: np.zeros(shape))
        a, b = [Y] * 4, [Y] * 4
        with pytest.raises(ValueError, match=re.escape(f"(m, k) = (2, 4) correlations, got {shape}")):
            ens.correlation(a, b)

    def test_arrays_are_read_only_copies(self):
        u = np.array([X, Z])
        ens = PureEnsemble([0.5, 0.5], u, [Z, X], _product)
        u[0] = Y
        assert ens.u.tolist() == [list(X), list(Z)]
        for rows in (ens.weights, ens.u, ens.v):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 0.0

    def test_one_corr_call_per_correlation_call(self):
        rng = np.random.default_rng(34)
        corr = _counted(_product)
        ens = PureEnsemble([0.2, 0.3, 0.5], *unit_rows(rng, 2, 3), corr)
        for k in (1, 5, 40):
            ens.correlation(*unit_rows(rng, 2, k))
        assert corr.calls == [1, 5, 40]
        # l_n: one call at one angle, and one per block of up to 256 angles
        corr.calls.clear()
        l_n(ens, default_frames(), 3, 0.2)
        l_n(ens, default_frames(), 3, np.linspace(0.0, 1.0, 300))
        assert corr.calls == [2 * 3 * 2, 2 * 3 * 257, 2 * 3 * 45]

    def test_mixed_components_add_in_the_order_given(self):
        # factorizing, upper-end and lower-end components interleaved: one
        # corr over the stacked rows against a plain-Python left-to-right sum
        kinds = (
            lambda x, y: x * y,
            lambda x, y: 1.0 - abs(x - y),
            lambda x, y: -1.0 + abs(x + y),
        )
        rng = np.random.default_rng(35)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            kind = rng.integers(0, 3, size=m)
            weights = rng.dirichlet(np.ones(m))
            u, v, a, b = (*unit_rows(rng, 2, m), *unit_rows(rng, 2, 12))

            def corr(u, v, a, b):
                x, y = _projections(u, v, a, b)
                return np.choose(kind[:, None], [f(x, y) for f in kinds])

            values = PureEnsemble(weights, u, v, corr).correlation(a, b)
            expected = []
            for ar, br in zip(a.tolist(), b.tolist()):
                total = 0.0
                for w, j, uj, vj in zip(weights.tolist(), kind.tolist(), u.tolist(), v.tolist()):
                    total += w * kinds[j](dot(uj, ar), dot(vj, br))
                expected.append(total)
            assert values.tolist() == expected


def _unit_pair_sets():
    """Lists of 1 to 12 (a, b) pairs of unit vectors, as (m, 2, 3) rows."""
    vec = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)
    pairs = st.lists(st.tuples(vec, vec), min_size=1, max_size=12)
    return pairs.map(lambda p: (g := np.array(p)) / np.linalg.norm(g, axis=-1, keepdims=True))


def _schedule_pair_sets():
    """The default frames' pairs for N = 1..4 at phi = 0 deg or in [0, 180] deg."""
    phi_deg = st.one_of(st.just(0.0), st.floats(0.0, 180.0))
    return st.builds(lambda n, p: schedule_pairs(n, math.radians(p)), st.integers(1, 4), phi_deg)


def _constants(*values: float):
    """Component correlations equal to values[j] for component j at every
    settings row."""
    return lambda u, v, a, b: np.tile(np.array(values)[:, None], (1, len(a)))


# 3-degree scans on the default frames, recorded with the per-candidate scan loop:
# (N, phi_deg) -> ((feasible_found, grid_size, candidates_checked), best_margin)
SCAN_PINS = {
    (1, 10.0): ((True, 7082, 32976), -2.2121720121483927e-17),
    (1, 15.0): ((True, 7082, 30482), -2.2121720121483927e-17),
    (1, 20.0): ((True, 7082, 29278), -1.3314402258399958e-16),
    (2, 10.0): ((False, 7082, 74178), -0.07456541965251054),
    (2, 15.0): ((False, 7082, 74178), -0.10452846326765314),
    (2, 20.0): ((False, 7082, 74178), -0.1237639508707708),
    (3, 10.0): ((False, 7082, 74178), -0.0905243046083361),
    (3, 15.0): ((False, 7082, 74178), -0.11070065050305766),
    (3, 20.0): ((False, 7082, 74178), -0.13547622075226828),
}


class TestExplicitModel:
    def test_trivial_orthogonal_case(self):
        # a.b = 0 and u.a = v.b = 0
        assert explicit_model_margin(Z, Z, [(X, Y)]) >= -1e-12
        assert (explicit_model_margin([Z, Z], [Z, -np.array(Z)], [(X, Y)]) >= -1e-12).all()

    def test_single_setting_construction_all_angles(self):
        u = np.array(X)
        for phi_deg in np.linspace(0.0, 179.0, 50):
            pairs = schedule_pairs(1, math.radians(float(phi_deg)))
            assert explicit_model_margin(u, -u, pairs) >= -1e-12

    def test_rows_equal_scalar_reference(self):
        rng = np.random.default_rng(32)
        u, v = unit_rows(rng, 2, 500)
        shared = unit_rows(rng, 6, 2)  # six (a, b) pairs for every candidate
        own = unit_rows(rng, 500, 3, 2)  # three pairs per candidate
        assert explicit_model_margin(u, v, shared).tolist() == [
            reference_margin(ui, vi, shared.tolist()) for ui, vi in zip(u.tolist(), v.tolist())
        ]
        assert explicit_model_margin(u, v, own).tolist() == [
            reference_margin(ui, vi, pi) for ui, vi, pi in zip(u.tolist(), v.tolist(), own.tolist())
        ]

    def test_forms_agree(self):
        rng = np.random.default_rng(31)
        u, v, a, b = unit_rows(rng, 4, 100_000)
        pairs = np.stack([a, b], axis=1)[:, None]  # one (a, b) pair per row
        direct = explicit_model_margin(u, v, pairs) >= -1e-12
        # mirrored form: the direct one with the parties exchanged
        mirrored = explicit_model_margin(v, u, pairs[..., ::-1, :]) >= -1e-12
        assert np.array_equal(direct, mirrored)

    def test_scan_matches_brute_force_coarse(self):
        pairs = schedule_pairs(2, math.radians(15.0))
        res = scan_explicit_model(pairs, resolution_deg=30.0)
        assert not res.feasible_found
        # brute force over the same grid, every (u, v) pair in one call
        grid = _sphere_grid(6)
        u, v = np.broadcast_arrays(grid[:, None], grid[None, :])
        best = explicit_model_margin(u, v, pairs).max()
        assert best < -1e-12  # brute force agrees: nothing feasible
        assert res.best_margin <= best + 1e-12

    def test_scan_finds_feasible_single_setting(self):
        pairs = schedule_pairs(1, math.radians(15.0))
        res = scan_explicit_model(pairs, resolution_deg=30.0)
        assert res.feasible_found
        assert res.best_margin >= -1e-12
        assert explicit_model_margin(res.best_u, res.best_v, pairs) >= -1e-12
        assert all(type(w) is tuple and len(w) == 3 and all(type(c) is float for c in w)
                   for w in (res.best_u, res.best_v))

    @pytest.mark.parametrize("n, phi_deg", list(SCAN_PINS))
    def test_scan_pins(self, n, phi_deg):
        counts, best_margin = SCAN_PINS[n, phi_deg]
        res = scan_explicit_model(schedule_pairs(n, math.radians(phi_deg)), resolution_deg=3.0)
        assert (res.feasible_found, res.grid_size, res.candidates_checked) == counts
        assert res.best_margin == pytest.approx(best_margin, abs=1e-15)

    @given(
        pairs=st.one_of(_unit_pair_sets(), _schedule_pair_sets()),
        resolution=st.sampled_from([3.0, 6.0, 10.0, 30.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_scan_equals_per_u_reference(self, pairs, resolution):
        res = scan_explicit_model(pairs, resolution_deg=resolution)
        expected = reference_scan(pairs, resolution)
        assert res == expected  # every GridScanResult field
        assert repr(res) == repr(expected)  # and the sign of a zero margin

    # the first feasible pair lies past the first block of candidates: on the
    # 2-degree grid, past 63,045 to 72,119 candidates
    @pytest.mark.parametrize("phi_deg", [10.0, 15.0, 20.0])
    def test_scan_finds_a_feasible_pair_past_the_first_block(self, phi_deg):
        pairs = schedule_pairs(1, math.radians(phi_deg))
        res = scan_explicit_model(pairs, resolution_deg=2.0)
        assert res.feasible_found and res.candidates_checked > 10 * _SCAN_BLOCK
        assert repr(res) == repr(reference_scan(pairs, 2.0))

    # Reversed and rolled pair rows move the pivot off row 0 and the head off
    # the first three columns; the reference scores every column of every
    # candidate, in its own pivot order.
    @pytest.mark.parametrize("resolution", [3.0, 6.0])
    @pytest.mark.parametrize("phi_deg", [0.0, 15.0, 90.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("reorder", [lambda p: p[::-1], lambda p: np.roll(p, 3, axis=0)],
                             ids=["reversed", "rolled"])
    def test_scan_takes_pair_rows_in_any_order(self, reorder, n, phi_deg, resolution):
        pairs = reorder(schedule_pairs(n, math.radians(phi_deg)))
        res = scan_explicit_model(pairs, resolution_deg=resolution)
        assert repr(res) == repr(reference_scan(pairs, resolution))

    # The scan's peak traced allocation, in (n_grid, m) float64 arrays: u.a and
    # v.b (2); the grid (3 / m), the head columns of v.b (_SCAN_HEAD / m) and at
    # most six n_grid-long index arrays (6 / m); and a block's temporaries, at
    # most eight arrays of (_SCAN_HEAD, _SCAN_BLOCK) floats.  The bound is at
    # least 30% below the peak of the scan that held each half of the margin
    # (6.69 arrays at 3 degrees, 5.75 at 2 degrees).
    @pytest.mark.parametrize("resolution, earlier_peak", [(3.0, 6.69), (2.0, 5.75)])
    def test_scan_working_set(self, resolution, earlier_peak):
        pairs = schedule_pairs(3, math.radians(15.0))
        m, steps = len(pairs), round(180.0 / resolution)
        n_grid = (steps - 1) * 2 * steps + 2
        scan_explicit_model(pairs, resolution_deg=resolution)  # numpy's first-call set-up
        tracemalloc.start()
        try:
            scan_explicit_model(pairs, resolution_deg=resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array = 8 * n_grid * m
        grid_terms = 8 * n_grid * (3 + _SCAN_HEAD + 6)
        block_terms = 8 * 8 * _SCAN_HEAD * _SCAN_BLOCK
        bound = 2 * array + grid_terms + block_terms
        assert bound <= 0.7 * earlier_peak * array
        assert peak <= bound, f"peak {peak / array:.2f} arrays, bound {bound / array:.2f}"

    # At phi = 0 every pair is aligned and v = -u has a margin of exactly 0.0,
    # on the -_SCAN_TOL edge of the prune and of the feasibility test.  On the
    # 30-degree grid the two middle widths of a pair column differ, so the
    # pivot follows the median as np.median takes it.
    @pytest.mark.parametrize("resolution", [6.0, 10.0, 30.0])
    @pytest.mark.parametrize("phi_deg", [0.0, 90.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_scan_prunes_nothing_that_can_win(self, n, phi_deg, resolution):
        pairs = schedule_pairs(n, math.radians(phi_deg))
        res = scan_explicit_model(pairs, resolution_deg=resolution)
        assert repr(res) == repr(reference_scan(pairs, resolution))

    # Three pairs of the N = 2 schedule, infeasible on these grids: with no more
    # pairs than head columns every candidate is scored in full before the
    # prune, so the block's best pair must survive its own threshold.
    @pytest.mark.parametrize("resolution", [10.0, 20.0, 30.0])
    def test_scan_keeps_a_best_pair_set_by_the_head_columns(self, resolution):
        pairs = schedule_pairs(2, math.radians(15.0))[[1, 3, 5]]
        res = scan_explicit_model(pairs, resolution_deg=resolution)
        assert not res.feasible_found
        assert repr(res) == repr(reference_scan(pairs, resolution))

    @pytest.mark.parametrize("row", [[math.nan] * 3, [math.inf, 0.0, 0.0], [0.0] * 3,
                                     [2.0, 0.0, 0.0], [1e200, 0.0, 0.0]],
                             ids=["nan", "inf", "zero", "twice", "huge"])
    @pytest.mark.parametrize("side", [0, 1], ids=["a", "b"])
    def test_scan_refuses_pairs_that_are_not_unit_vectors(self, row, side):
        pairs = schedule_pairs(2, math.radians(15.0))
        pairs[3, side] = row
        pairs[5, 1 - side] = row  # a later offending row, not named
        with pytest.raises(ValueError, match=r"^pair row 3 is not two unit vectors"):
            scan_explicit_model(pairs, resolution_deg=30.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scan_takes_float_triple_pairs_and_rows_alike(self, n):
        phi = math.radians(15.0)
        from_rows = scan_explicit_model(schedule_pairs(n, phi), resolution_deg=3.0)
        pairs = setting_pairs(default_frames(), n, phi)  # a list of float triple pairs
        from_triples = scan_explicit_model(pairs, resolution_deg=3.0)
        assert from_triples == from_rows  # every GridScanResult field

    @pytest.mark.parametrize("pairs", [[], np.zeros((0, 2, 3)), [(X, Y, Z)], [X, Y]])
    def test_scan_rejects_pairs_not_shaped_m_2_3(self, pairs):
        with pytest.raises(ValueError, match=r"\(m, 2, 3\) rows"):
            scan_explicit_model(pairs, resolution_deg=30.0)

    # 0.01 deg: 647,964,002 points; 0.25 deg: 1,035,362; 0.3 deg (718,802) is allowed
    @pytest.mark.parametrize("resolution", [0.01, 0.25])
    def test_scan_refuses_a_grid_over_a_million_points(self, resolution):
        with pytest.raises(ValueError, match=f"a {resolution!r} degree grid has over 1000000"):
            scan_explicit_model(schedule_pairs(2, math.radians(15.0)), resolution_deg=resolution)

    # 7 deg leaves no antipodal grid pairs, so the scan would be nearly vacuous
    @pytest.mark.parametrize("resolution", [0.0, -3.0, 200.0, math.nan, math.inf, 7.0])
    def test_scan_rejects_resolution_outside_0_180(self, resolution):
        pairs = schedule_pairs(2, math.radians(15.0))
        with pytest.raises(ValueError, match=r"resolution must be in \(0, 180\]"):
            scan_explicit_model(pairs, resolution_deg=resolution)

    def test_grid_stops_at_latitude_180(self):
        # 5 deg: 35 rings of 72 points below the north pole, the last at
        # latitude 175, then the south pole and no ring past it
        grid = _sphere_grid(36)
        assert grid.shape == (1 + 35 * 72 + 1, 3)
        assert grid[-2, 2] == pytest.approx(math.cos(math.radians(175.0)), abs=1e-15)
        assert grid[[0, -1]].tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
        assert _sphere_grid(1).tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]

    # 180/k for k = 161, 175 and 458 once gave each ring an extra longitude
    # at about 360 deg, a copy of 0 deg that the point count left out
    @pytest.mark.parametrize("steps, resolution", [(161, 180 / 161), (175, 180 / 175),
                                                   (458, 180 / 458), (180, 1.0),
                                                   (60, 3.0), (6, 30.0)])
    def test_grid_size_equals_count_without_duplicates(self, steps, resolution):
        count = (steps - 1) * 2 * steps + 2
        res = scan_explicit_model(schedule_pairs(1, math.radians(15.0)), resolution_deg=resolution)
        assert res.grid_size == count
        grid = _sphere_grid(steps)
        assert grid.shape == (count, 3)
        # ring points lie over 1e-5 apart, so copies round together at 9 decimals
        assert np.unique(grid.round(9) + 0.0, axis=0).shape == grid.shape

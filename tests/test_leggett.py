import math

import numpy as np
import pytest
from helpers import random_unit, unit_rows, unit_vector_pairs

from nlvtest.inequality import l_n
from nlvtest.leggett import (
    ConstraintViolationError,
    EnsembleComponent,
    PureEnsemble,
    _sphere_grid,
    admissible_C_range,
    explicit_model_margin,
    leggett_outcomes,
    product_ensemble,
    scan_explicit_model,
)
from nlvtest.quantum import _SIGN_PAIRS
from nlvtest.sphere import UnitVector, default_frames, schedule_rows

S1 = UnitVector(1, 0, 0)
S3 = UnitVector(0, 0, 1)
# the same axes as setting rows
X, Y, Z = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


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
def dot(p, q) -> float:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


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
            product_ensemble([(0.7, S1, S1), (0.7, S1, S1)])
        with pytest.raises(ValueError):
            product_ensemble([(-0.5, S1, S1), (1.5, S1, S1)])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                product_ensemble([(bad, S1, S1), (1.0, S1, S1)])
            with pytest.raises(ValueError):
                product_ensemble([(1.0, S1, S1), (bad, S1, S1)])


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
                [(float(w), random_unit(rng), random_unit(rng)) for w in weights]
            )
            for n in range(1, 5):
                for phi in phis:
                    report = l_n(ens, frames, n, float(phi))
                    worst = max(worst, report.l_value - report.bound)
        assert worst <= 1e-12

    def test_aligned_mixture_saturates_at_phi_zero(self):
        ens = product_ensemble([(1.0, S1, S1)])
        report = l_n(ens, default_frames(), 1, 0.0)
        assert report.l_value == pytest.approx(4.0, abs=1e-12)
        assert report.bound == 4.0

    def test_inadmissible_component_rejected(self):
        # at a = b = S1 the interval of u = v = S1 is [1, 1], so C = -1 is no model
        anti = PureEnsemble((EnsembleComponent(1.0, S1, S1, _constant(-1.0)),))
        with pytest.raises(ConstraintViolationError) as info:
            l_n(anti, default_frames(), 2, math.radians(15.0))
        assert info.value.row == 0
        # a component at the upper interval end is admissible
        edge = PureEnsemble((
            EnsembleComponent(0.5, S1, S1, lambda u, v, a, b: (u @ a.T) * (v @ b.T)),
            EnsembleComponent(0.5, S1, S3, lambda u, v, a, b: 1.0 - np.abs(u @ a.T - v @ b.T)),
        ))
        assert l_n(edge, default_frames(), 2, math.radians(15.0)).l_value >= 0.0

    def test_violation_names_first_settings_row(self):
        # C = -1 fits u = v = S1 only where b.v = -a.u = -1: rows 0 and 1
        a = [X, X, X, X]
        b = [(-1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), X, Y]
        anti = PureEnsemble((EnsembleComponent(1.0, S1, S1, _constant(-1.0)),))
        with pytest.raises(ConstraintViolationError) as info:
            anti.correlation(a, b)
        assert (info.value.row, info.value.count) == (2, 2)
        # with a second, admissible component first, the row is still a settings row
        mixed = PureEnsemble((
            EnsembleComponent(0.5, S3, S3, _constant(0.0)),
            EnsembleComponent(0.5, S1, S1, _constant(-1.0)),
        ))
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
            stacked = product_ensemble(parts).correlation(a, b)
            for row in range(20):
                ar, br = UnitVector(*a[row]), UnitVector(*b[row])
                total = 0.0
                for w, u, v in parts:
                    total += w * (ar.dot(u) * br.dot(v))
                worst = max(worst, abs(stacked[row] - total))
        assert worst <= 1e-15

    def test_stacked_rows_equal_single_row_calls(self):
        # a row's correlation does not depend on the rows sharing the call
        rng = np.random.default_rng(32)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k)).tolist()
            ens = product_ensemble([(w, random_unit(rng), random_unit(rng)) for w in weights])
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
            ens = product_ensemble([(w, random_unit(rng), random_unit(rng)) for w in weights])
            for n in (1, 3, 32):
                stacked = [report.l_value for report in l_n(ens, frames, n, phis)]
                assert stacked == [l_n(ens, frames, n, phi).l_value for phi in phis.tolist()]


def _constant(value: float):
    """A component correlation equal to ``value`` at every settings row."""
    return lambda u, v, a, b: np.full((len(u), len(a)), value)


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
        grid = _sphere_grid(30.0)
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
        assert all(type(c) is float for w in (res.best_u, res.best_v) for c in (w.x, w.y, w.z))

    @pytest.mark.parametrize("n, phi_deg", list(SCAN_PINS))
    def test_scan_pins(self, n, phi_deg):
        counts, best_margin = SCAN_PINS[n, phi_deg]
        res = scan_explicit_model(schedule_pairs(n, math.radians(phi_deg)), resolution_deg=3.0)
        assert (res.feasible_found, res.grid_size, res.candidates_checked) == counts
        assert res.best_margin == pytest.approx(best_margin, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scan_takes_unit_vector_pairs_and_rows_alike(self, n):
        phi = math.radians(15.0)
        from_rows = scan_explicit_model(schedule_pairs(n, phi), resolution_deg=3.0)
        pairs = unit_vector_pairs(default_frames(), n, phi)
        from_vectors = scan_explicit_model(pairs, resolution_deg=3.0)
        assert from_vectors == from_rows  # every GridScanResult field

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
        # 7 deg does not divide 180: 25 rings of 52 points below the north
        # pole, the last at latitude 175, and no ring past the south pole
        grid = _sphere_grid(7.0)
        assert grid.shape == (1 + 25 * 52, 3)
        assert grid[-1, 2] == pytest.approx(math.cos(math.radians(175.0)), abs=1e-15)
        assert _sphere_grid(180.0).tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]

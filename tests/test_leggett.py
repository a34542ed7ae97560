import math

import numpy as np
import pytest
from helpers import random_unit

from nlvtest.inequality import l_n
from nlvtest.leggett import (
    ConstraintViolationError,
    OutcomeTable,
    admissible_C_range,
    check_marginals,
    explicit_model_feasible,
    explicit_model_margin,
    leggett_outcomes,
    product_ensemble,
    scan_explicit_model,
    EnsembleComponent,
    PureEnsemble,
)
from nlvtest.sphere import UnitVector, build_schedule, default_frames

S1 = UnitVector(1, 0, 0)
S3 = UnitVector(0, 0, 1)


def brute_force_c_range(x: float, y: float, samples: int = 400_001) -> tuple[float, float]:
    """Oracle: scan C and keep values where all four sign entries are >= 0."""
    grid = np.linspace(-1.0, 1.0, samples)
    ok = np.ones_like(grid, dtype=bool)
    for ra in (1, -1):
        for rb in (1, -1):
            ok &= (1.0 + ra * x + rb * y + ra * rb * grid) >= -1e-12
    valid = grid[ok]
    return float(valid.min()), float(valid.max())


def schedule_pairs(n: int, phi: float):
    pairs = []
    for frame in default_frames():
        for entry in build_schedule(frame, n, phi).entries:
            pairs.append((entry.alice, entry.bob0))
            pairs.append((entry.alice, entry.bobphi))
    return pairs


class TestOutcomes:
    def test_forced_perfect_correlation(self):
        table = leggett_outcomes(S3, S3, S3, S3, 1.0)
        assert (table.p_pp, table.p_pm, table.p_mp, table.p_mm) == (1.0, 0.0, 0.0, 0.0)

    def test_unbiased_case(self):
        u = UnitVector(0, 0, 1)
        a = UnitVector(1, 0, 0)  # orthogonal to u
        table = leggett_outcomes(u, u, a, a, 0.0)
        assert (table.p_pp, table.p_pm, table.p_mp, table.p_mm) == (0.25,) * 4

    def test_entries_sum_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            u, v, a, b = (random_unit(rng) for _ in range(4))
            lo, hi = admissible_C_range(u, v, a, b)
            c = rng.uniform(lo, hi)
            table = leggett_outcomes(u, v, a, b, c)
            total = table.p_pp + table.p_pm + table.p_mp + table.p_mm
            assert abs(total - 1.0) < 1e-12

    def test_violation_error_carries_diagnostics(self):
        u, v = S3, S3
        a = b = S3
        with pytest.raises(ConstraintViolationError) as info:
            leggett_outcomes(u, v, a, b, 1.0 - 1e-3)  # forced interval is {1}
        err = info.value
        assert (err.r_a, err.r_b) in {(1, 1), (-1, -1), (1, -1), (-1, 1)}
        assert err.deficit > 0.0

    def test_rejects_nan_correlation(self):
        with pytest.raises(ValueError, match="finite"):
            leggett_outcomes(S1, S3, S1, S3, math.nan)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            OutcomeTable(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(ValueError):
            OutcomeTable(0.3, 0.3, 0.3, 0.3)


class TestAdmissibleRange:
    def test_unconstrained_case(self):
        u = UnitVector(0, 0, 1)
        a = UnitVector(1, 0, 0)
        assert admissible_C_range(u, u, a, a) == (-1.0, 1.0)

    def test_fully_constrained_case(self):
        assert admissible_C_range(S3, S3, S3, S3) == (1.0, 1.0)

    def test_half_constrained_example(self):
        # a.u = 0.5 and b.v = -0.3 exactly by construction
        u = UnitVector(0.5, math.sqrt(0.75), 0.0)
        v = UnitVector(0.0, math.sqrt(1 - 0.09), -0.3)
        lo, hi = admissible_C_range(u, v, S1, S3)
        assert lo == pytest.approx(-0.8, abs=1e-12)
        assert hi == pytest.approx(0.2, abs=1e-12)
        oracle = brute_force_c_range(0.5, -0.3)
        assert lo == pytest.approx(oracle[0], abs=1e-5)
        assert hi == pytest.approx(oracle[1], abs=1e-5)

    def test_matches_sign_enumeration_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            u, v, a, b = (random_unit(rng) for _ in range(4))
            lo, hi = admissible_C_range(u, v, a, b)
            o_lo, o_hi = brute_force_c_range(a.dot(u), b.dot(v))
            assert lo == pytest.approx(o_lo, abs=1e-5)
            assert hi == pytest.approx(o_hi, abs=1e-5)

    def test_interval_never_empty(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            u, v, a, b = (random_unit(rng) for _ in range(4))
            lo, hi = admissible_C_range(u, v, a, b)
            assert lo <= hi + 1e-15

    def test_boundary_positivity_and_rejection(self):
        rng = np.random.default_rng(24)
        for _ in range(2000):
            u, v, a, b = (random_unit(rng) for _ in range(4))
            lo, hi = admissible_C_range(u, v, a, b)
            for c in (lo, hi):
                table = leggett_outcomes(u, v, a, b, c)
                assert min(table.p_pp, table.p_pm, table.p_mp, table.p_mm) >= -1e-12
            with pytest.raises(ConstraintViolationError):
                leggett_outcomes(u, v, a, b, hi + 1e-6)
            with pytest.raises(ConstraintViolationError):
                leggett_outcomes(u, v, a, b, lo - 1e-6)


class TestMarginals:
    def test_independent_of_correlation(self):
        rng = np.random.default_rng(25)
        worst = 0.0
        for _ in range(500):
            u, v, a, b = (random_unit(rng) for _ in range(4))
            lo, hi = admissible_C_range(u, v, a, b)
            x, y = a.dot(u), b.dot(v)
            for c in np.linspace(lo, hi, 5):
                table = leggett_outcomes(u, v, a, b, float(c))
                for r in (1, -1):
                    worst = max(worst, abs(table.marginal_a(r) - (1 + r * x) / 2))
                    worst = max(worst, abs(table.marginal_b(r) - (1 + r * y) / 2))
        assert worst <= 1e-14

    def test_product_ensemble_passes(self):
        rng = np.random.default_rng(26)
        parts = [(0.25, random_unit(rng), random_unit(rng)) for _ in range(4)]
        ens = product_ensemble(parts)
        settings = [(random_unit(rng), random_unit(rng)) for _ in range(10)]
        report = check_marginals(ens, settings)
        assert report.passed
        assert report.max_deviation <= 1e-12

    def test_generic_admissible_ensemble_passes(self):
        rng = np.random.default_rng(27)

        def midrange_corr(u, v, a, b):
            lo, hi = admissible_C_range(u, v, a, b)
            return 0.5 * (lo + hi)

        ens = PureEnsemble(
            tuple(
                EnsembleComponent(0.5, random_unit(rng), random_unit(rng), midrange_corr)
                for _ in range(2)
            )
        )
        settings = [(random_unit(rng), random_unit(rng)) for _ in range(10)]
        assert check_marginals(ens, settings).passed

    def test_biased_table_flagged(self):
        rng = np.random.default_rng(28)
        u, v = random_unit(rng), random_unit(rng)

        def biased(u_, v_, a_, b_):
            return OutcomeTable(0.3, 0.3, 0.2, 0.2)  # marginal A+ = 0.6

        ens = PureEnsemble((EnsembleComponent(1.0, u, v, biased),))
        a = UnitVector.normalized(*u.cross(random_unit(rng)))  # not aligned with u
        report = check_marginals(ens, [(a, a)])
        assert not report.passed
        assert report.max_deviation > 1e-3

    def test_out_of_range_component_raises(self):
        def too_big(u, v, a, b):
            return 1.0  # outside the admissible interval almost surely

        rng = np.random.default_rng(29)
        ens = PureEnsemble(
            (EnsembleComponent(1.0, UnitVector(0, 0, 1), UnitVector(0, 0, -1), too_big),)
        )
        with pytest.raises(ConstraintViolationError):
            check_marginals(ens, [(S3, S3)])

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            product_ensemble([(0.7, S1, S1), (0.7, S1, S1)])
        with pytest.raises(ValueError):
            product_ensemble([(-0.5, S1, S1), (1.5, S1, S1)])


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


class TestExplicitModel:
    def test_trivial_orthogonal_case(self):
        u = v = S3
        a = b = S1  # a.b = 1 but u.a = v.b = 0
        a2 = UnitVector(0, 1, 0)
        assert explicit_model_feasible(u, v, [(a, a2)])

    def test_single_setting_construction_all_angles(self):
        u = S1
        for phi_deg in np.linspace(0.0, 179.0, 50):
            pairs = schedule_pairs(1, math.radians(float(phi_deg)))
            assert explicit_model_feasible(u, -u, pairs)
            assert explicit_model_margin(u, -u, pairs) >= -1e-12

    def test_forms_agree(self):
        rng = np.random.default_rng(31)
        for _ in range(100_000):
            u, v, a, b = (random_unit(rng) for _ in range(4))
            pairs = [(a, b)]
            direct = explicit_model_margin(u, v, pairs) >= -1e-12
            mirrored = explicit_model_margin(u, v, pairs, swapped=True) >= -1e-12
            assert direct == mirrored

    def test_scan_matches_brute_force_coarse(self):
        pairs = schedule_pairs(2, math.radians(15.0))
        res = scan_explicit_model(pairs, resolution_deg=30.0)
        assert not res.feasible_found
        # brute force over the same grid
        from nlvtest.leggett import _sphere_grid

        grid = _sphere_grid(30.0)
        best = -math.inf
        for gu in grid:
            u = UnitVector.normalized(*gu)
            for gv in grid:
                v = UnitVector.normalized(*gv)
                best = max(best, explicit_model_margin(u, v, pairs))
        assert best < -1e-12  # brute force agrees: nothing feasible
        assert res.best_margin <= best + 1e-12

    def test_scan_finds_feasible_single_setting(self):
        pairs = schedule_pairs(1, math.radians(15.0))
        res = scan_explicit_model(pairs, resolution_deg=30.0)
        assert res.feasible_found
        assert res.best_margin >= -1e-12
        assert explicit_model_feasible(res.best_u, res.best_v, pairs)

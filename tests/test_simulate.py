import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlvtest.quantum import outcome_probability
from nlvtest.simulate import (
    CountQuad,
    DegenerateDataError,
    ExperimentConfig,
    derive_seed,
    estimate_C,
    replicate,
    run_experiment,
    sample_quad,
    subtract_accidentals,
)
from nlvtest.sphere import UnitVector

S1 = UnitVector(1, 0, 0)


def make_quad(n_pp, n_mm, n_mp, n_pm):
    return CountQuad(n_pp, n_mm, n_mp, n_pm, settings=(S1, S1), duration=4.0)


class TestConfig:
    def test_defaults_match_apparatus(self):
        cfg = ExperimentConfig()
        assert cfg.pair_rate == 1860.0
        assert cfg.accidental_rate == 0.41
        assert cfg.integration_time == 4.0
        assert not cfg.subtract_accidentals

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(pair_rate=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(accidental_rate=-0.1)
        with pytest.raises(ValueError):
            ExperimentConfig(integration_time=0.0)
        for name in ("pair_rate", "accidental_rate", "integration_time"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    ExperimentConfig(**{name: value})
        for seed in (-1, (4, -2)):
            with pytest.raises(ValueError, match="rng_seed"):
                ExperimentConfig(rng_seed=seed)


class TestSampleQuad:
    def test_accidental_floor_at_blocked_port(self):
        # singlet at equal settings: the (+,+) port sees only accidentals
        cfg = ExperimentConfig(state="singlet", rng_seed=1)
        rng = np.random.default_rng(1)
        state = cfg.resolve_state()
        draws = [sample_quad(cfg, S1, S1, rng, state=state).n_pp for _ in range(500)]
        assert np.mean(draws) == pytest.approx(0.41 * 4.0, abs=0.25)

    def test_orthogonal_polarizer_rate(self):
        cfg = ExperimentConfig(state="singlet", rng_seed=2)
        rng = np.random.default_rng(2)
        quad = sample_quad(cfg, S1, UnitVector(-1, 0, 0), rng)
        # mean 1860 * 0.5 * 4 = 3720; a single draw sits within ~5 sigma
        assert abs(quad.n_pp - 3720) < 5 * math.sqrt(3720) + 1

    def test_mixed_state_symmetric_means(self):
        cfg = ExperimentConfig(state="mixed", accidental_rate=0.0, rng_seed=3)
        rng = np.random.default_rng(3)
        quad = sample_quad(cfg, S1, S1, rng)
        expected = 1860.0 * 0.25 * 4.0
        for n in (quad.n_pp, quad.n_mm, quad.n_mp, quad.n_pm):
            assert abs(n - expected) < 5 * math.sqrt(expected)

    def test_deterministic_given_generator_state(self):
        cfg = ExperimentConfig(rng_seed=4)
        q1 = sample_quad(cfg, S1, S1, np.random.default_rng(99))
        q2 = sample_quad(cfg, S1, S1, np.random.default_rng(99))
        assert (q1.n_pp, q1.n_mm, q1.n_mp, q1.n_pm) == (q2.n_pp, q2.n_mm, q2.n_mp, q2.n_pm)


class TestEstimator:
    def test_perfect_correlation(self):
        c, sigma = estimate_C(make_quad(100, 100, 0, 0))
        assert c == 1.0
        assert sigma == 0.0

    def test_half_correlation_example(self):
        c, sigma = estimate_C(make_quad(75, 75, 25, 25))
        assert c == 0.5
        assert sigma**2 == pytest.approx(0.00375, abs=1e-15)
        assert sigma == pytest.approx(0.06124, abs=5e-6)

    def test_uncorrelated_example(self):
        c, sigma = estimate_C(make_quad(25, 25, 25, 25))
        assert c == 0.0
        assert sigma == pytest.approx(0.1, abs=1e-15)

    def test_empty_quad_raises(self):
        with pytest.raises(DegenerateDataError):
            estimate_C(make_quad(0, 0, 0, 0))

    @given(
        n_pp=st.integers(0, 10_000),
        n_mm=st.integers(0, 10_000),
        n_mp=st.integers(0, 10_000),
        n_pm=st.integers(0, 10_000),
    )
    @settings(max_examples=300)
    def test_antisymmetry_under_port_swap(self, n_pp, n_mm, n_mp, n_pm):
        if n_pp + n_mm + n_mp + n_pm == 0:
            return
        c, sigma = estimate_C(make_quad(n_pp, n_mm, n_mp, n_pm))
        c_swapped, sigma_swapped = estimate_C(make_quad(n_mp, n_pm, n_pp, n_mm))
        assert c_swapped == -c
        assert sigma_swapped == sigma
        assert -1.0 <= c <= 1.0

    def test_variance_matches_resampling(self):
        rng = np.random.default_rng(5)
        means = np.array([75.0, 75.0, 25.0, 25.0]) * 4.0  # all means >= 100
        draws = rng.poisson(means, size=(10_000, 4))
        c_hats = (draws[:, 0] + draws[:, 1] - draws[:, 2] - draws[:, 3]) / draws.sum(axis=1)
        _, sigma = estimate_C(make_quad(*(int(m) for m in means)))
        assert np.var(c_hats) == pytest.approx(sigma**2, rel=0.10)


class TestSubtraction:
    def test_zero_rate_is_identity(self):
        quad = make_quad(10, 20, 30, 40)
        adj = subtract_accidentals(quad, 0.0)
        assert (adj.n_pp, adj.n_mm, adj.n_mp, adj.n_pm) == (10.0, 20.0, 30.0, 40.0)

    def test_example_with_floor(self):
        quad = make_quad(3720, 3718, 2, 1)
        adj = subtract_accidentals(quad, 0.41)
        assert adj.n_pp == pytest.approx(3718.36)
        assert adj.n_mm == pytest.approx(3716.36)
        assert adj.n_mp == pytest.approx(0.36)
        assert adj.n_pm == 0.0

    def test_all_floored_leads_to_degenerate_error(self):
        quad = make_quad(1, 1, 0, 1)
        adj = subtract_accidentals(quad, 0.41)  # shift 1.64 floors everything
        assert adj.total == 0.0
        with pytest.raises(DegenerateDataError):
            estimate_C(adj)

    def test_variance_uses_raw_counts(self):
        quad = make_quad(1000, 1000, 100, 100)
        adj = subtract_accidentals(quad, 5.0)  # removes 20 per port
        c_adj, sigma_adj = estimate_C(adj)
        assert c_adj > estimate_C(quad)[0]  # correction sharpens the correlation
        # variance numerator keeps the raw counts
        total = adj.total
        expected = math.sqrt(
            ((1 - c_adj) ** 2 * 2000 + (1 + c_adj) ** 2 * 200) / total**2
        )
        assert sigma_adj == pytest.approx(expected, abs=1e-15)


class TestRunExperiment:
    def test_bit_reproducible(self):
        cfg = ExperimentConfig(rng_seed=123)
        r1 = run_experiment(cfg, 3, math.radians(15))
        r2 = run_experiment(cfg, 3, math.radians(15))
        assert r1.l_value == r2.l_value
        assert r1.sigma == r2.sigma
        assert r1.violation_sigmas == r2.violation_sigmas

    def test_report_shape(self):
        cfg = ExperimentConfig(rng_seed=7)
        report = run_experiment(cfg, 2, math.radians(15))
        assert report.n == 2
        assert report.sigma > 0.0
        assert report.violation_sigmas == pytest.approx(
            (report.l_value - report.bound) / report.sigma
        )

    def test_degenerate_data_identifies_setting(self):
        cfg = ExperimentConfig(
            pair_rate=1e-9, accidental_rate=0.0, rng_seed=11, state="singlet"
        )
        with pytest.raises(DegenerateDataError) as info:
            run_experiment(cfg, 2, math.radians(15))
        assert info.value.setting == (1, 0, "0")

    def test_large_statistics_converge_to_analytic(self):
        # law-of-large-numbers check at ~1e9 and ~1e13 pairs per setting
        state_spec = "visibilities:0.995,0.990,0.982"
        analytic = 3.8944990618786437  # (1 + cos 15deg)(|t1+t2| + |t1+t3|)/2
        phi = math.radians(15)
        cfg9 = ExperimentConfig(
            pair_rate=2.5e8, accidental_rate=0.0, state=state_spec, rng_seed=13
        )
        report9 = run_experiment(cfg9, 4, phi)
        assert report9.sigma < 1e-5
        assert abs(report9.l_value - analytic) < 5 * report9.sigma
        cfg13 = ExperimentConfig(
            pair_rate=2.5e12, accidental_rate=0.0, state=state_spec, rng_seed=13
        )
        report13 = run_experiment(cfg13, 4, phi)
        assert abs(report13.l_value - analytic) < 1e-6

    def test_sigma_scales_with_integration_time(self):
        phi = math.radians(15)
        base = ExperimentConfig(rng_seed=17)
        longer = dataclasses.replace(base, integration_time=16.0)
        s_base = replicate(base, 2, phi, 200).mean_sigma
        s_longer = replicate(longer, 2, phi, 200).mean_sigma
        assert s_base / s_longer == pytest.approx(2.0, rel=0.05)

    def test_accidentals_bias_toward_zero(self):
        # strong accidentals, all port means >= 100
        phi = 0.0
        cfg = ExperimentConfig(
            state="werner:0.5", accidental_rate=10.0, rng_seed=19
        )
        state = cfg.resolve_state()
        a = b = S1
        true_c = sum(
            ra * rb * outcome_probability(state, a, b, ra, rb)
            for ra in (1, -1)
            for rb in (1, -1)
        )
        rng = np.random.default_rng(19)
        c_hats = [estimate_C(sample_quad(cfg, a, b, rng, state=state))[0] for _ in range(10_000)]
        mean_c = float(np.mean(c_hats))
        sem = float(np.std(c_hats) / math.sqrt(len(c_hats)))
        assert abs(mean_c) < abs(true_c) - 3 * sem

    def test_subtraction_restores_correlation_on_average(self):
        cfg = ExperimentConfig(
            state="werner:0.5", accidental_rate=10.0, rng_seed=23,
            subtract_accidentals=True,
        )
        state = cfg.resolve_state()
        rng = np.random.default_rng(23)
        corrected = []
        for _ in range(4000):
            quad = sample_quad(cfg, S1, S1, rng, state=state)
            corrected.append(estimate_C(subtract_accidentals(quad, 10.0))[0])
        true_c = -0.5
        assert np.mean(corrected) == pytest.approx(true_c, abs=5e-3)


class TestReplicate:
    def test_seed_derivation(self):
        assert derive_seed(5, 1, 2) == (5, 1, 2)
        assert derive_seed((5, 1), 2) == (5, 1, 2)

    def test_minimum_two_runs(self):
        # a spread needs two runs with data; a single run is summarized without one
        with pytest.raises(ValueError):
            replicate(ExperimentConfig(), 2, 0.1, 0)
        summary = replicate(ExperimentConfig(), 2, 0.1, 1)
        assert summary.runs == 1
        assert summary.mean_l == summary.reports[0].l_value
        assert summary.std_l is None
        assert summary.std_over_sigma is None

    def test_degenerate_runs_kept_in_order(self):
        # one pair per second: some runs see no counts at some setting
        cfg = ExperimentConfig(pair_rate=1.0, accidental_rate=0.0, rng_seed=3)
        summary = replicate(cfg, 2, math.radians(15), 10)
        failed = [i for i, o in enumerate(summary.outcomes)
                  if isinstance(o, DegenerateDataError)]
        assert failed == [4, 7]
        assert len(summary.reports) == 8
        for run_idx, outcome in enumerate(summary.outcomes):
            run_cfg = dataclasses.replace(cfg, rng_seed=derive_seed(3, run_idx))
            if run_idx in failed:
                with pytest.raises(DegenerateDataError):
                    run_experiment(run_cfg, 2, math.radians(15))
            else:
                assert outcome == run_experiment(run_cfg, 2, math.radians(15))
        l_values = [r.l_value for r in summary.reports]
        assert summary.mean_l == pytest.approx(np.mean(l_values), abs=1e-15)
        assert summary.std_l == pytest.approx(np.std(l_values, ddof=1), abs=1e-15)
        defined = [r.violation_sigmas for r in summary.reports
                   if r.violation_sigmas is not None]
        assert len(defined) == 4  # the sigma-0 runs have no violation
        assert summary.mean_violation == pytest.approx(np.mean(defined), abs=1e-15)

    def test_all_degenerate_has_no_statistics(self):
        cfg = ExperimentConfig(pair_rate=1e-9, accidental_rate=0.0, rng_seed=11)
        summary = replicate(cfg, 2, math.radians(15), 3)
        assert summary.runs == 3 and summary.reports == ()
        assert all(isinstance(o, DegenerateDataError) for o in summary.outcomes)
        assert (summary.mean_l, summary.std_l, summary.mean_sigma,
                summary.mean_violation, summary.std_over_sigma) == (None,) * 5

    def test_two_runs_define_summary(self):
        summary = replicate(ExperimentConfig(rng_seed=29), 2, math.radians(15), 2)
        assert summary.runs == 2
        assert summary.std_l >= 0.0
        assert len(summary.reports) == 2

    def test_propagation_ratio_near_one(self):
        summary = replicate(ExperimentConfig(rng_seed=31), 2, math.radians(15), 300)
        assert 0.9 <= summary.std_over_sigma <= 1.1

    def test_ideal_source_matches_closed_form(self):
        phi = math.radians(15)
        cfg = ExperimentConfig(state="singlet", accidental_rate=0.0, rng_seed=37)
        summary = replicate(cfg, 2, phi, 200)
        closed = 2 * (1 + math.cos(phi))
        standard_error = summary.std_l / math.sqrt(summary.runs)
        assert abs(summary.mean_l - closed) < 3 * standard_error + 1e-9

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlvtest.inequality import InequalityReport
from nlvtest.quantum import outcome_probabilities
from nlvtest.simulate import (
    DegenerateDataError,
    ExperimentConfig,
    derive_seed,
    estimate_C,
    mean_table,
    replicate,
    run_experiment,
)
from nlvtest.sphere import build_schedule, schedule_rows

SIGN_PAIRS = ((1, 1), (-1, -1), (-1, 1), (1, -1))


def law(state, a, b, r_a, r_b):
    """P(r_a, r_b) from the Stokes terms in plain Python floats, grouped as
    the one-setting law: ((1 + r_a a.m_A) + r_b (b.m_B + r_a a.(T b)))/4."""
    x = a.x * state.m_a[0] + a.y * state.m_a[1] + a.z * state.m_a[2]
    y = b.x * state.m_b[0] + b.y * state.m_b[1] + b.z * state.m_b[2]
    tb = [b.x * row[0] + b.y * row[1] + b.z * row[2] for row in state.t]
    c = a.x * tb[0] + a.y * tb[1] + a.z * tb[2]
    return min(1.0, max(0.0, ((1.0 + r_a * x) + r_b * (y + r_a * c)) / 4.0))


def reference_run(config, n, phi):
    """The sequential sampler: settings in sampling order, one scalar Poisson
    draw per sign pair (+,+), (-,-), (-,+), (+,-), each setting estimated
    as soon as it is drawn."""
    state = config.resolve_state()
    rng = np.random.default_rng(config.rng_seed)
    t = config.integration_time
    accidental = config.accidental_rate * t
    l_value = 0.0
    variance = 0.0
    for plane_idx, frame in enumerate(config.frames):
        e_sum = 0.0
        for k, entry in enumerate(build_schedule(frame, n, phi).entries):
            for label, bob in (("0", entry.bob0), ("phi", entry.bobphi)):
                counts = [
                    int(rng.poisson(config.pair_rate * law(state, entry.alice, bob, ra, rb) * t
                                    + accidental))
                    for ra, rb in SIGN_PAIRS
                ]
                raw_same, raw_diff = counts[0] + counts[1], counts[2] + counts[3]
                if config.subtract_accidentals:
                    adjusted = [max(0.0, c - accidental) for c in counts]
                    same, diff = adjusted[0] + adjusted[1], adjusted[2] + adjusted[3]
                else:
                    same, diff = raw_same, raw_diff
                total = same + diff
                if total <= 0:
                    raise DegenerateDataError(
                        f"no counts at plane {plane_idx + 1}, setting {k}, theta={label}",
                        setting=(plane_idx + 1, k, label),
                    )
                c_hat = (same - diff) / total
                sigma_c = math.sqrt(
                    ((1.0 - c_hat) ** 2 * raw_same + (1.0 + c_hat) ** 2 * raw_diff) / total**2
                )
                e_sum += c_hat / n
                variance += sigma_c**2 / n**2
        l_value += abs(e_sum)
    return InequalityReport(n, phi, l_value, math.sqrt(variance))


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
    """A quad is one row of the mean table, drawn as part of a run's single
    Poisson call."""

    def test_accidental_floor_at_blocked_port(self):
        # singlet at equal settings (phi = 0): the (+,+) port sees only accidentals
        means = mean_table(ExperimentConfig(state="singlet"), 2, 0.0)
        assert means.shape == (8, 4)
        assert means[:, 0] == pytest.approx(0.41 * 4.0, abs=1e-9)
        draws = [np.random.default_rng((1, i)).poisson(means)[0, 0] for i in range(500)]
        assert np.mean(draws) == pytest.approx(0.41 * 4.0, abs=0.25)

    def test_orthogonal_polarizer_rate(self):
        # phi = 180 deg puts Bob's offset setting at -a: crossed polarizers
        means = mean_table(ExperimentConfig(state="singlet"), 2, math.pi)
        assert means[1::2, 0] == pytest.approx(1860.0 * 0.5 * 4.0 + 0.41 * 4.0, rel=1e-12)
        n_pp = np.random.default_rng(2).poisson(means)[1, 0]
        # mean 1860 * 0.5 * 4 = 3720; a single draw sits within ~5 sigma
        assert abs(n_pp - 3720) < 5 * math.sqrt(3720) + 1

    def test_mixed_state_symmetric_means(self):
        means = mean_table(ExperimentConfig(state="mixed", accidental_rate=0.0), 2, 0.3)
        expected = 1860.0 * 0.25 * 4.0
        assert (means == expected).all()
        counts = np.random.default_rng(3).poisson(means)
        assert (np.abs(counts - expected) < 5 * math.sqrt(expected)).all()

    def test_table_is_outcome_probabilities_of_schedule_rows(self):
        for n, phi, state in ((1, 0.0, "singlet"), (4, math.radians(15), "werner:0.9"),
                              (8, 1.1, "bell_diagonal:-0.5,0.2,-0.1")):
            cfg = ExperimentConfig(state=state, pair_rate=1234.5, accidental_rate=0.7)
            p = outcome_probabilities(cfg.resolve_state(), *schedule_rows(cfg.frames, n, phi))
            t = cfg.integration_time
            want = cfg.pair_rate * p * t + cfg.accidental_rate * t
            assert mean_table(cfg, n, phi).tolist() == want.tolist()  # bit for bit

    def test_deterministic_given_generator_state(self):
        # the means do not depend on the seed; the draws depend only on it
        phi = math.radians(15)
        means = mean_table(ExperimentConfig(rng_seed=4), 3, phi)
        assert (mean_table(ExperimentConfig(rng_seed=5), 3, phi) == means).all()
        draw = np.random.default_rng(99).poisson(means)
        assert (np.random.default_rng(99).poisson(means) == draw).all()
        cfg = ExperimentConfig(rng_seed=99)
        assert run_experiment(cfg, 3, phi) == run_experiment(cfg, 3, phi)

    @given(
        n=st.integers(1, 6),
        phi_deg=st.floats(-180.0, 180.0),
        state=st.sampled_from(
            ["visibilities:0.995,0.990,0.982", "singlet", "werner:0.6", "colored:0.8",
             "bell_diagonal:-0.5,0.2,-0.1"]
        ),
        pair_rate=st.one_of(st.floats(0.5, 4.0), st.floats(4.0, 5000.0)),
        accidental_rate=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        subtract=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_run_matches_sequential_reference(
        self, n, phi_deg, state, pair_rate, accidental_rate, subtract, seed
    ):
        cfg = ExperimentConfig(
            pair_rate=pair_rate, accidental_rate=accidental_rate, state=state,
            rng_seed=seed, subtract_accidentals=subtract,
        )
        phi = math.radians(phi_deg)
        try:
            expected = reference_run(cfg, n, phi)
        except DegenerateDataError as exc:
            with pytest.raises(DegenerateDataError) as info:
                run_experiment(cfg, n, phi)
            assert (str(info.value), info.value.setting) == (str(exc), exc.setting)
        else:
            assert run_experiment(cfg, n, phi) == expected


class TestEstimator:
    def test_perfect_correlation(self):
        c, sigma = estimate_C((100, 100, 0, 0))
        assert c == 1.0
        assert sigma == 0.0

    def test_half_correlation_example(self):
        c, sigma = estimate_C((75, 75, 25, 25))
        assert c == 0.5
        assert sigma**2 == pytest.approx(0.00375, abs=1e-15)
        assert sigma == pytest.approx(0.06124, abs=5e-6)

    def test_uncorrelated_example(self):
        c, sigma = estimate_C((25, 25, 25, 25))
        assert c == 0.0
        assert sigma == pytest.approx(0.1, abs=1e-15)

    def test_empty_quad_raises(self):
        with pytest.raises(DegenerateDataError):
            estimate_C((0, 0, 0, 0))

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
        c, sigma = estimate_C((n_pp, n_mm, n_mp, n_pm))
        c_swapped, sigma_swapped = estimate_C((n_mp, n_pm, n_pp, n_mm))
        assert c_swapped == -c
        assert sigma_swapped == sigma
        assert -1.0 <= c <= 1.0

    def test_variance_matches_resampling(self):
        rng = np.random.default_rng(5)
        means = np.array([75.0, 75.0, 25.0, 25.0]) * 4.0  # all means >= 100
        draws = rng.poisson(means, size=(10_000, 4))
        c_hats = (draws[:, 0] + draws[:, 1] - draws[:, 2] - draws[:, 3]) / draws.sum(axis=1)
        _, sigma = estimate_C([int(m) for m in means])
        assert np.var(c_hats) == pytest.approx(sigma**2, rel=0.10)


class TestSubtraction:
    def test_zero_rate_is_identity(self):
        counts = (10, 20, 30, 40)
        assert estimate_C(counts, 0.0) == estimate_C(counts)

    def test_example_with_floor(self):
        # shift 0.41 * 4: the (+,-) port floors at zero instead of going to -0.64
        c, _ = estimate_C((3720, 3718, 2, 1), 0.41 * 4.0)
        same, diff = 3718.36 + 3716.36, 0.36 + 0.0
        assert c == pytest.approx((same - diff) / (same + diff), rel=1e-12)
        unfloored = (same - (0.36 - 0.64)) / (same + 0.36 - 0.64)
        assert abs(c - unfloored) > 1e-6

    def test_all_floored_leads_to_degenerate_error(self):
        with pytest.raises(DegenerateDataError):
            estimate_C((1, 1, 0, 1), 0.41 * 4.0)  # shift 1.64 floors everything

    def test_variance_uses_raw_counts(self):
        counts = (1000, 1000, 100, 100)
        c_adj, sigma_adj = estimate_C(counts, 5.0 * 4.0)  # removes 20 per port
        assert c_adj > estimate_C(counts)[0]  # correction sharpens the correlation
        # variance numerator keeps the raw counts
        total = 980 + 980 + 80 + 80
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
        # row 0 of the N = 1 table is the setting pair (a, a)
        a, b = schedule_rows(cfg.frames, 1, phi)
        p = outcome_probabilities(cfg.resolve_state(), a[:1], b[:1])[0]
        true_c = float(p @ [1.0, 1.0, -1.0, -1.0])  # (+,+) + (-,-) - (-,+) - (+,-)
        counts = np.random.default_rng(19).poisson(mean_table(cfg, 1, phi)[0], size=(10_000, 4))
        c_hats = [estimate_C(row)[0] for row in counts.tolist()]
        mean_c = float(np.mean(c_hats))
        sem = float(np.std(c_hats) / math.sqrt(len(c_hats)))
        assert abs(mean_c) < abs(true_c) - 3 * sem

    def test_subtraction_restores_correlation_on_average(self):
        cfg = ExperimentConfig(
            state="werner:0.5", accidental_rate=10.0, rng_seed=23,
            subtract_accidentals=True,
        )
        counts = np.random.default_rng(23).poisson(mean_table(cfg, 1, 0.0)[0], size=(4000, 4))
        corrected = [estimate_C(row, 10.0 * 4.0)[0] for row in counts.tolist()]
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

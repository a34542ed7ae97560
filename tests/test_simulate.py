import dataclasses
import math
import re

import numpy as np
import pytest
from helpers import plane_setting_pairs, stokes_terms
from hypothesis import given, settings
from hypothesis import strategies as st

import nlvtest.simulate
from nlvtest.inequality import nlv_bound
from nlvtest.quantum import outcome_probabilities, parse_state
from nlvtest.simulate import (
    MAX_REPLICATE_COUNTS,
    ExperimentConfig,
    estimate_C,
    mean_table,
    replicate,
)
from nlvtest.sphere import row_setting, schedule_rows

SIGN_PAIRS = ((1, 1), (-1, -1), (-1, 1), (1, -1))


def law(state, a, b, r_a, r_b):
    """P(r_a, r_b) from the Stokes terms in plain Python floats, grouped as
    the one-setting law: ((1 + r_a a.m_A) + r_b (b.m_B + r_a a.(T b)))/4."""
    x = a[0] * state.m_a[0] + a[1] * state.m_a[1] + a[2] * state.m_a[2]
    y = b[0] * state.m_b[0] + b[1] * state.m_b[1] + b[2] * state.m_b[2]
    tb = [b[0] * row[0] + b[1] * row[1] + b[2] * row[2] for row in state.t]
    c = a[0] * tb[0] + a[1] * tb[1] + a[2] * tb[2]
    return min(1.0, max(0.0, ((1.0 + r_a * x) + r_b * (y + r_a * c)) / 4.0))


def reference_run(config, n, phi, seed):
    """The sequential sampler seeded ``seed``: settings in sampling order, one
    scalar Poisson draw per sign pair (+,+), (-,-), (-,+), (+,-), each
    setting estimated as soon as it is drawn.  Returns (L, sigma), or the
    (plane, k, offset) of the first setting without counts."""
    state = config.two_qubit_state
    rng = np.random.default_rng(seed)
    t = config.integration_time
    accidental = config.accidental_rate * t
    l_value = 0.0
    variance = 0.0
    for plane_idx, frame in enumerate(config.frames):
        e_sum = 0.0
        for k, (alice, bob_phi) in enumerate(plane_setting_pairs(frame, n, phi)):
            for label, bob in (("0", alice), ("phi", bob_phi)):
                counts = [
                    int(rng.poisson(config.pair_rate * law(state, alice, bob, ra, rb) * t
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
                    return plane_idx + 1, k, label
                c_hat = (same - diff) / total
                sigma_c = math.sqrt(
                    ((1.0 - c_hat) ** 2 * raw_same + (1.0 + c_hat) ** 2 * raw_diff) / total**2
                )
                e_sum += c_hat / n
                variance += sigma_c**2 / n**2
        l_value += abs(e_sum)
    return l_value, math.sqrt(variance)


def assert_matches_reference(summary, run_idx, config, n, phi, seed):
    """Run ``run_idx`` of ``summary`` is reference_run's for ``seed``: its L
    and sigma, with (L - bound)/sigma, NaN at sigma 0; or NaN throughout and
    the same first setting without counts."""
    expected = reference_run(config, n, phi, seed)
    l_value, sigma = summary.l_values[run_idx].item(), summary.sigmas[run_idx].item()
    z, empty_row = summary.violation_sigmas[run_idx].item(), summary.empty_rows[run_idx].item()
    if len(expected) == 3:
        assert row_setting(n, empty_row) == expected
        assert math.isnan(l_value) and math.isnan(sigma) and math.isnan(z)
    else:
        assert (empty_row, l_value, sigma) == (-1, *expected)
        if sigma > 0.0:
            assert z == (l_value - nlv_bound(n, phi)) / sigma
        else:
            assert math.isnan(z)


def assert_same_runs(first, second):
    """Two summaries hold the same per-run arrays, bit for bit (NaN equal)."""
    for name in ("l_values", "sigmas", "violation_sigmas", "empty_rows"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))


# a replicate's cell: none, or a short tuple as sweep passes (N, phi index)
cells = st.one_of(st.just(()), st.lists(st.integers(0, 2**16), min_size=1, max_size=3).map(tuple))


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
        with pytest.raises(ValueError, match="rng_seed"):
            ExperimentConfig(rng_seed=-1)

    # numpy's Poisson draw refuses a mean above about 9.2e18 ("lam value too
    # large"), so the largest port mean is bounded when the config is built
    @pytest.mark.parametrize("fields", [
        {"pair_rate": 1e300},
        {"accidental_rate": 1e200, "integration_time": 1e200},
        {"pair_rate": 3e17},
    ])
    def test_refuses_rates_whose_poisson_means_overflow(self, fields):
        cfg = {"pair_rate": 1860.0, "accidental_rate": 0.41, "integration_time": 4.0, **fields}
        mean = (cfg["pair_rate"] + cfg["accidental_rate"]) * cfg["integration_time"]
        message = re.escape("(pair_rate + accidental_rate) * integration_time must be at most "
                            f"1e+18, got {mean!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(**fields)
        assert ExperimentConfig(pair_rate=2.5e17, accidental_rate=0.0).pair_rate == 2.5e17

    def test_state_spec_is_parsed_at_construction(self):
        cfg = ExperimentConfig(state="werner:0.9")
        assert stokes_terms(cfg.two_qubit_state) == stokes_terms(parse_state("werner:0.9"))
        assert "two_qubit_state" not in repr(cfg)
        for build in (lambda: ExperimentConfig(state="wat:1"),
                      lambda: dataclasses.replace(cfg, state="wat:1")):
            with pytest.raises(ValueError, match="^unknown state spec 'wat:1'$"):
                build()

    @pytest.mark.parametrize("state, name", [(None, "NoneType"), (3, "int"), (b"singlet", "bytes")])
    def test_refuses_a_state_spec_that_is_not_a_str(self, state, name):
        cfg = ExperimentConfig()
        for build in (lambda: ExperimentConfig(state=state),
                      lambda: dataclasses.replace(cfg, state=state)):
            with pytest.raises(ValueError, match=f"^state spec must be a str, got {name}$"):
                build()

    # a bool would print seed=True in the manifest, which --seed cannot read back
    @pytest.mark.parametrize("seed", [1.5, math.nan, (1, 2), "3", None, True, False])
    def test_refuses_a_seed_that_is_not_an_integer(self, seed):
        message = re.escape(f"rng_seed must be a non-negative integer, got {seed!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(rng_seed=seed)


class TestMeanTableQuads:
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
            p = outcome_probabilities(cfg.two_qubit_state, *schedule_rows(cfg.frames, n, phi))
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
        assert_same_runs(replicate(cfg, 3, phi, 1), replicate(cfg, 3, phi, 1))

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
        cell=cells,
    )
    @settings(max_examples=80, deadline=None)
    def test_run_matches_sequential_reference(
        self, n, phi_deg, state, pair_rate, accidental_rate, subtract, seed, cell
    ):
        cfg = ExperimentConfig(
            pair_rate=pair_rate, accidental_rate=accidental_rate, state=state,
            rng_seed=seed, subtract_accidentals=subtract,
        )
        phi = math.radians(phi_deg)
        assert_matches_reference(replicate(cfg, n, phi, 1, cell), 0, cfg, n, phi, (seed, *cell, 0))


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
        # an empty row has no estimate, and a run that draws one has no L
        assert np.isnan(estimate_C((0, 0, 0, 0))).all()
        summary = replicate(ExperimentConfig(pair_rate=1e-9, accidental_rate=0.0), 1, 0.0, 1)
        assert summary.empty_rows.tolist() == [0] and np.isnan(summary.l_values).all()

    # a negative count used to give C = 1.0 with sigma 0, and a NaN shift
    # turned every row into "no counts"
    @pytest.mark.parametrize("counts, shift, bad", [
        ((-1, 3, 0, 0), None, "counts must be finite and non-negative, got -1"),
        ([[5, 5, 5, 5], [2.0, math.nan, 1.0, 0.0]], None,
         "counts must be finite and non-negative, got nan"),
        ((1.0, math.inf, 1.0, 0.0), 0.5, "counts must be finite and non-negative, got inf"),
        ((10, 20, 30, 40), -0.5, "shift must be non-negative and finite, got -0.5"),
        ((10, 20, 30, 40), math.nan, "shift must be non-negative and finite, got nan"),
        ((10, 20, 30, 40), math.inf, "shift must be non-negative and finite, got inf"),
        # rows it cannot read as (n_pp, n_mm, n_mp, n_pm), refused by shape or dtype
        ([[10, 10, 0, 0, 999]], None, "need rows of four counts, shape (..., 4); got (1, 5)"),
        (np.ones((2, 3)), None, "need rows of four counts, shape (..., 4); got (2, 3)"),
        (7, None, "need rows of four counts, shape (..., 4); got ()"),
        (np.array(7.0), 0.5, "need rows of four counts, shape (..., 4); got ()"),
        ([[True, False, True, True]], None, "counts must be integers or real floats, got dtype bool"),
        (("1", "2", "3", "4"), None, "counts must be integers or real floats, got dtype <U1"),
        ((1 + 0j, 1, 1, 1), None, "counts must be integers or real floats, got dtype complex128"),
        ([[1, 2, 3, None]], None, "counts must be integers or real floats, got dtype object"),
    ])
    def test_refuses_bad_counts_and_shifts(self, counts, shift, bad):
        with pytest.raises(ValueError, match=f"^{re.escape(bad)}$"):
            estimate_C(counts, shift)

    def test_rows_estimate_as_single_quads(self):
        rows = [[[100, 100, 0, 0], [75, 75, 25, 25]], [[0, 0, 0, 0], [3, 0, 1, 2]]]
        c, sigma = estimate_C(rows, 0.5)
        assert c.shape == sigma.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                single = estimate_C(rows[i][j], 0.5)
                np.testing.assert_array_equal((c[i, j], sigma[i, j]), single)

    def test_large_total_matches_scalar_arithmetic(self):
        # the square of this total (above 2**26) is a rounding tie that libm
        # pow rounds the other way: float_power(total, 2.0) would move sigma
        counts = (27384959, 25897729, 26171071, 32465128)
        same, diff = counts[0] + counts[1], counts[2] + counts[3]
        total = same + diff
        c = (same - diff) / total
        sigma = math.sqrt(((1.0 - c) ** 2 * same + (1.0 + c) ** 2 * diff) / total**2)
        assert estimate_C(counts) == (c, sigma)

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
        assert np.isnan(estimate_C((1, 1, 0, 1), 0.41 * 4.0)).all()  # shift 1.64 floors everything
        # run 0 of seed 7, drawn from (7, 0), has (0, 1, 1, 1) at the last N = 1
        # setting, no empty quad, and a count above the shift in every other quad
        cfg = ExperimentConfig(pair_rate=1e-9, accidental_rate=0.41, rng_seed=7,
                               subtract_accidentals=True)
        draw = np.random.default_rng((7, 0)).poisson(mean_table(cfg, 1, 0.0))
        assert draw[3].tolist() == [0, 1, 1, 1]
        assert (draw.sum(axis=1) > 0).all() and (draw[:3].max(axis=1) > 1.64).all()
        (row,) = replicate(cfg, 1, 0.0, 1).empty_rows.tolist()
        assert row_setting(1, row) == (2, 0, "phi")
        raw = replicate(dataclasses.replace(cfg, subtract_accidentals=False), 1, 0.0, 1)
        assert raw.empty_rows.tolist() == [-1]

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


class TestOneRun:
    def test_bit_reproducible(self):
        cfg = ExperimentConfig(rng_seed=123)
        r1 = replicate(cfg, 3, math.radians(15), 1)
        r2 = replicate(cfg, 3, math.radians(15), 1)
        assert r1.empty_rows.tolist() == r2.empty_rows.tolist() == [-1]
        assert r1.l_values[0] == r2.l_values[0]
        assert r1.sigmas[0] == r2.sigmas[0]
        assert r1.violation_sigmas[0] == r2.violation_sigmas[0]

    def test_report_shape(self):
        cfg = ExperimentConfig(rng_seed=7)
        summary = replicate(cfg, 2, math.radians(15), 1)
        assert summary.runs == 1 and summary.empty_rows.tolist() == [-1]
        (l_value,), (sigma,) = summary.l_values.tolist(), summary.sigmas.tolist()
        assert sigma > 0.0
        assert summary.violation_sigmas[0] == pytest.approx(
            (l_value - nlv_bound(2, math.radians(15))) / sigma
        )

    def test_violation_sigmas_are_derived_exactly(self):
        # at one pair per second runs 0, 1, 3 and 5 have sigma 0, and 4 and 7
        # no counts at some setting
        phi = math.radians(15)
        summary = replicate(ExperimentConfig(pair_rate=1.0, accidental_rate=0.0, rng_seed=3),
                            2, phi, 10)
        zero = summary.sigmas == 0.0
        assert np.flatnonzero(zero).tolist() == [0, 1, 3, 5]
        positive = summary.sigmas > 0.0
        assert summary.violation_sigmas[positive].tolist() == (
            (summary.l_values[positive] - nlv_bound(2, phi)) / summary.sigmas[positive]).tolist()
        assert np.isnan(summary.violation_sigmas[~positive]).all()

    def test_degenerate_data_identifies_setting(self):
        cfg = ExperimentConfig(
            pair_rate=1e-9, accidental_rate=0.0, rng_seed=11, state="singlet"
        )
        (row,) = replicate(cfg, 2, math.radians(15), 1).empty_rows.tolist()
        assert row_setting(2, row) == (1, 0, "0")

    def test_large_statistics_converge_to_analytic(self):
        # law-of-large-numbers check at ~1e9 and ~1e13 pairs per setting
        state_spec = "visibilities:0.995,0.990,0.982"
        analytic = 3.8944990618786437  # (1 + cos 15deg)(|t1+t2| + |t1+t3|)/2
        phi = math.radians(15)
        cfg9 = ExperimentConfig(
            pair_rate=2.5e8, accidental_rate=0.0, state=state_spec, rng_seed=13
        )
        run9 = replicate(cfg9, 4, phi, 1)
        assert run9.empty_rows.tolist() == [-1]
        assert run9.sigmas[0] < 1e-5
        assert abs(run9.l_values[0] - analytic) < 5 * run9.sigmas[0]
        cfg13 = ExperimentConfig(
            pair_rate=2.5e12, accidental_rate=0.0, state=state_spec, rng_seed=13
        )
        run13 = replicate(cfg13, 4, phi, 1)
        assert run13.empty_rows.tolist() == [-1]
        assert abs(run13.l_values[0] - analytic) < 1e-6

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
        p = outcome_probabilities(cfg.two_qubit_state, a[:1], b[:1])[0]
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
    def test_minimum_two_runs(self):
        # a spread needs two runs with data; a single run is summarized without one
        with pytest.raises(ValueError):
            replicate(ExperimentConfig(), 2, 0.1, 0)
        summary = replicate(ExperimentConfig(), 2, 0.1, 1)
        assert summary.runs == 1
        assert summary.mean_l == summary.l_values[0]
        assert summary.std_l is None
        assert summary.std_over_sigma is None

    def test_degenerate_runs_kept_in_order(self):
        # one pair per second: some runs see no counts at some setting
        cfg = ExperimentConfig(pair_rate=1.0, accidental_rate=0.0, rng_seed=3)
        summary = replicate(cfg, 2, math.radians(15), 10)
        failed = np.flatnonzero(summary.empty_rows >= 0).tolist()
        assert failed == [4, 7]
        assert np.count_nonzero(summary.empty_rows < 0) == 8
        for run_idx in range(summary.runs):
            assert_matches_reference(summary, run_idx, cfg, 2, math.radians(15), (3, run_idx))
        l_values = [summary.l_values[i] for i in range(10) if i not in failed]
        assert summary.mean_l == pytest.approx(np.mean(l_values), abs=1e-15)
        assert summary.std_l == pytest.approx(np.std(l_values, ddof=1), abs=1e-15)
        defined = [z for z in summary.violation_sigmas.tolist() if not math.isnan(z)]
        assert len(defined) == 4  # the sigma-0 runs have no violation
        assert summary.mean_violation == pytest.approx(np.mean(defined), abs=1e-15)

    @given(
        n=st.integers(1, 4),
        phi_deg=st.floats(-180.0, 180.0),
        pair_rate=st.one_of(st.floats(0.5, 4.0), st.floats(4.0, 5000.0)),
        accidental_rate=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        subtract=st.booleans(),
        seed=st.integers(0, 2**32),
        runs=st.integers(1, 6),
        cell=cells,
    )
    @settings(max_examples=40, deadline=None)
    def test_runs_match_single_runs(
        self, n, phi_deg, pair_rate, accidental_rate, subtract, seed, runs, cell
    ):
        # at 0.5-4 pairs/s some runs are degenerate and some have sigma 0
        cfg = ExperimentConfig(pair_rate=pair_rate, accidental_rate=accidental_rate,
                               rng_seed=seed, subtract_accidentals=subtract)
        phi = math.radians(phi_deg)
        summary = replicate(cfg, n, phi, runs, cell)
        assert summary.runs == runs
        for i in range(runs):
            assert_matches_reference(summary, i, cfg, n, phi, (seed, *cell, i))

    @pytest.mark.parametrize("runs", [0, -1, 2.5, True, "3", None])
    def test_refuses_a_run_count_that_is_not_a_positive_int(self, runs):
        message = re.escape(f"need a positive integer run count, got {runs!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            replicate(ExperimentConfig(), 2, 0.1, runs)

    @pytest.mark.parametrize("runs, n", [(625_001, 1), (1_000_000, 4), (1, 10_000_000)])
    def test_refuses_more_counts_than_the_ceiling_before_drawing(self, monkeypatch, runs, n):
        # runs x 16N counts over the ceiling: refused before the mean table is built
        def unreachable(*args):
            raise AssertionError("mean_table called")

        monkeypatch.setattr(nlvtest.simulate, "mean_table", unreachable)
        message = re.escape(f"{runs} runs at N = {n} draw {runs * 16 * n} counts, "
                            f"over the ceiling of {MAX_REPLICATE_COUNTS}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            replicate(ExperimentConfig(), n, 0.1, runs)

    @pytest.mark.parametrize("cell", [[2, 0], (2, -1), (2, 1.0), (True,), (2, "0"), 5, None])
    def test_refuses_a_cell_that_is_not_a_tuple_of_non_negative_ints(self, cell):
        message = re.escape(f"cell must be a tuple of non-negative integers, got {cell!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            replicate(ExperimentConfig(), 2, 0.1, 1, cell)

    def test_all_degenerate_has_no_statistics(self):
        cfg = ExperimentConfig(pair_rate=1e-9, accidental_rate=0.0, rng_seed=11)
        summary = replicate(cfg, 2, math.radians(15), 3)
        assert summary.runs == 3 and (summary.empty_rows >= 0).all()
        assert np.isnan([summary.l_values, summary.sigmas, summary.violation_sigmas]).all()
        assert (summary.mean_l, summary.std_l, summary.mean_sigma,
                summary.mean_violation, summary.std_over_sigma) == (None,) * 5

    def test_two_runs_define_summary(self):
        summary = replicate(ExperimentConfig(rng_seed=29), 2, math.radians(15), 2)
        assert summary.runs == 2
        assert summary.std_l >= 0.0
        assert summary.empty_rows.tolist() == [-1, -1]

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

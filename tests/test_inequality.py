import math
import re
import tracemalloc

import numpy as np
import pytest
from helpers import (
    dot,
    grid_max_violation,
    random_density_matrix,
    random_frames,
    reference_l_n,
    reference_lemma_suite,
    turn,
    unit,
    unit_rows,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import nlvtest._checks
import nlvtest.quantum
from nlvtest._checks import lemma_suite

from nlvtest.inequality import (
    _ANGLE_BLOCK,
    _real_roots,
    DiscreteAverage,
    discrete_average,
    l_n,
    max_violation_phi,
    nlv_bound,
    u_coefficient,
)
from nlvtest.leggett import product_ensemble
from nlvtest.quantum import (
    TwoQubitState,
    bell_diagonal,
    maximally_mixed,
    parse_state,
    singlet,
    singlet_L,
    werner,
)
from nlvtest.simulate import ExperimentConfig, mean_table, replicate
from nlvtest.sphere import default_frames, offset_settings, plane_settings, schedule_rows


class TestUCoefficient:
    def test_single_setting_is_exactly_zero(self):
        assert u_coefficient(1) == 0.0

    def test_small_n_values(self):
        assert u_coefficient(2) == pytest.approx(0.5, abs=1e-12)
        assert u_coefficient(3) == pytest.approx(0.5773503, abs=5e-8)
        assert u_coefficient(4) == pytest.approx(0.6035534, abs=5e-8)

    def test_monotone_and_limit(self):
        values = [u_coefficient(n) for n in range(1, 65)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 2.0 / math.pi
        assert u_coefficient(100_000) == pytest.approx(2.0 / math.pi, abs=1e-9)

    def test_infinite_count_is_the_limit_exactly(self):
        assert u_coefficient(math.inf) == 2.0 / math.pi

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            u_coefficient(0)


def reference_discrete_average(w, c, n: int) -> tuple[float, float]:
    """Plain-Python scalar reference: one (w, c) pair at a time, each term
    (R^k c).w = cos t_k (c.w) - sin t_k |w x c|, t_k = k pi/N, added in k
    order."""
    ax, ay, az = w[1] * c[2] - w[2] * c[1], w[2] * c[0] - w[0] * c[2], w[0] * c[1] - w[1] * c[0]
    sw = math.sqrt(ax * ax + ay * ay + az * az)
    cw = c[0] * w[0] + c[1] * w[1] + c[2] * w[2]
    total = 0.0
    for k in range(n):
        t = k * math.pi / n
        total += abs(math.cos(t) * cw - math.sin(t) * sw)
    return total / n, (math.atan2(sw, cw) - math.pi / 2.0) % (math.pi / n)


class TestDiscreteAverage:
    def test_aligned_single_setting(self):
        w = (0.0, 0.0, 1.0)
        avg, _ = discrete_average([w], [w], 1)
        assert avg.tolist() == [1.0]
        avg, _ = discrete_average([w, w, w], [w, w, w], 1)
        assert avg.tolist() == [1.0, 1.0, 1.0]

    def test_perpendicular_two_settings_saturates(self):
        x, y = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        for k in (1, 4):
            avg, xi = discrete_average([x] * k, [y] * k, 2)
            assert avg.tolist() == pytest.approx([0.5] * k, abs=1e-15)
            assert xi.tolist() == pytest.approx([0.0] * k, abs=1e-15)

    def test_random_five_settings_in_range_and_identity(self):
        rng = np.random.default_rng(41)
        u5 = u_coefficient(5)
        w, c = unit_rows(rng, 2, 500)
        avg, xi = discrete_average(w, c, 5)
        assert (u5 - 1e-12 <= avg).all() and (avg <= 1.0 + 1e-12).all()
        # independent closed form from the wrapped angle
        cross = np.cross(w, c)
        angle = np.arctan2(np.linalg.norm(cross, axis=1), np.einsum("ki,ki->k", w, c))
        xi_oracle = (angle - math.pi / 2) % (math.pi / 5)
        assert np.abs(xi - xi_oracle).max() <= 1e-12
        closed = (np.sin(xi_oracle) + 5 * u5 * np.cos(xi_oracle)) / 5
        assert np.abs(avg - closed).max() <= 1e-12

    def test_rows_equal_scalar_reference(self):
        rng = np.random.default_rng(43)
        w, c = unit_rows(rng, 2, 300)
        # collinear rows, +-e1 among them, have |w x c| = 0 and no rotation axis
        e1, s = (1.0, 0.0, 0.0), (0.6, 0.8, 0.0)
        w = np.concatenate([w, [s, s, e1, e1]])
        c = np.concatenate([c, [s, (-0.6, -0.8, 0.0), e1, (-1.0, 0.0, 0.0)]])
        for n in (1, 2, 3, 7, 16):
            avg, xi = discrete_average(w, c, n)
            reference = [reference_discrete_average(wi, ci, n) for wi, ci in zip(w.tolist(), c.tolist())]
            assert avg.tolist() == [value for value, _ in reference]
            # arctan2 may be a vectorised implementation, last bits apart from libm
            assert xi.tolist() == pytest.approx([x for _, x in reference], abs=1e-15)

    def test_one_row_against_stacked_rows_equals_per_row_calls(self):
        rng = np.random.default_rng(44)
        w, c = unit_rows(rng, 2, 9)
        for n in (1, 2, 5, 16):
            for avg, xi, single in (
                (*discrete_average(w[0], c, n), lambda i: discrete_average(w[0], c[i], n)),
                (*discrete_average(c, w[0], n), lambda i: discrete_average(c[i], w[0], n)),
            ):
                assert avg.shape == xi.shape == (9,)
                assert avg.tolist() == [float(single(i).value) for i in range(9)]
                assert xi.tolist() == [float(single(i).xi) for i in range(9)]

    def test_concatenated_rows_equal_calls_on_each_part(self):
        rng = np.random.default_rng(45)
        w, c = unit_rows(rng, 2, 175)
        for n in (1, 3, 8, 16):
            whole = discrete_average(w, c, n)
            head, tail = discrete_average(w[:125], c[:125], n), discrete_average(w[125:], c[125:], n)
            assert whole.value.tolist() == head.value.tolist() + tail.value.tolist()
            assert whole.xi.tolist() == head.xi.tolist() + tail.xi.tolist()

    @pytest.mark.parametrize("n", [64, 360])
    def test_large_n_matches_fsum_oracle(self, n):
        # R^k c turns c away from w in their common plane: (R^k c).w = cos(alpha + k pi/N)
        rng = np.random.default_rng(46)
        w, c = unit_rows(rng, 2, 300)
        avg, _ = discrete_average(w, c, n)
        for wi, ci, value in zip(w.tolist(), c.tolist(), avg.tolist()):
            alpha = math.atan2(math.hypot(*np.cross(wi, ci).tolist()), math.fsum(np.multiply(wi, ci).tolist()))
            oracle = math.fsum(abs(math.cos(alpha + k * math.pi / n)) for k in range(n)) / n
            assert abs(value - oracle) <= 2e-15

    def test_near_collinear_rows_match_fsum_oracle(self):
        # c = +-w cos eps + p sin eps, p orthogonal to w, and the rows scaled
        # off unit length.  A unit axis built from w x c inherits the cross
        # product's rounding, relative to its tiny norm, and missed these
        # rows by up to 1.7e-11 at eps = 2e-12; the fallback axis taken below
        # |w x c| = 1e-12 assumed a unit w and missed the scaled rows by 0.45
        rng = np.random.default_rng(48)
        rows = [((0.0, 0.0, 0.0), (0.6, 0.8, 0.0), 0.0), ((0.6, 0.8, 0.0), (0.0, 0.0, 0.0), 0.0)]
        for w, r in zip(unit_rows(rng, 3).tolist(), unit_rows(rng, 3).tolist()):
            p = unit(*np.cross(w, r).tolist())
            for eps in (0.0, 1e-13, 3e-13, 9e-13, 2e-12, 5e-12, 1e-10, 1e-6):
                for sign in (1.0, -1.0):
                    c = tuple(sign * wi * math.cos(eps) + pi * math.sin(eps) for wi, pi in zip(w, p))
                    rows += [(w, c, eps), (tuple(3.0 * x for x in w), tuple(0.3 * x for x in c), eps)]
        w, c = np.array([w for w, _, _ in rows]), np.array([c for _, c, _ in rows])
        for n in (2, 5, 16):
            avg, _ = discrete_average(w, c, n)
            for (wi, ci, eps), value in zip(rows, avg.tolist()):
                alpha = math.atan2(math.hypot(*np.cross(wi, ci).tolist()), math.fsum(np.multiply(wi, ci).tolist()))
                scale = math.hypot(*wi) * math.hypot(*ci)
                oracle = scale * math.fsum(abs(math.cos(alpha + k * math.pi / n)) for k in range(n)) / n
                assert math.isfinite(value) and abs(value - oracle) <= 2e-15
                if eps >= 1e-6:  # far enough from collinear for a well-defined turn axis
                    axis = unit(*np.cross(wi, ci).tolist())
                    turned = math.fsum(abs(dot(turn(ci, axis, k * math.pi / n), wi)) for k in range(n)) / n
                    assert abs(value - turned) <= 2e-15

    def test_lower_bound_moderate_trials(self):
        rng = np.random.default_rng(42)
        w, c = unit_rows(rng, 2, 16, 200)
        for n in range(1, 17):
            avg, _ = discrete_average(w[n - 1], c[n - 1], n)
            assert (avg >= u_coefficient(n) - 1e-12).all()

    def test_collinear_inputs_deterministic(self):
        w = (0.6, 0.8, 0.0)
        minus_w = (-0.6, -0.8, 0.0)
        for n in (1, 2, 5):
            avg, _ = discrete_average([w, w], [w, minus_w], n)
            oracle = sum(abs(math.cos(k * math.pi / n)) for k in range(n)) / n
            assert avg.tolist() == pytest.approx([oracle, oracle], abs=1e-12)
        # repeated calls give identical results (no axis is chosen: |w x c| = 0)
        first, second = discrete_average([w], [w], 7), discrete_average([w], [w], 7)
        assert first.value.tolist() == second.value.tolist()
        assert first.xi.tolist() == second.xi.tolist()

    def test_rejects_zero_settings(self):
        with pytest.raises(ValueError):
            discrete_average([(1.0, 0.0, 0.0)], [(0.0, 1.0, 0.0)], 0)

    @given(
        counts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        layout=st.sampled_from(["leading", "per-row", "one-row"]),
        rows=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_array_equals_per_count_calls(self, counts, layout, rows, seed):
        rng = np.random.default_rng(seed)
        if layout == "leading":  # (k, 1) counts against (k, rows, 3) rows
            w, c = unit_rows(rng, 2, len(counts), rows)
            n = np.array(counts).reshape(-1, 1)
        elif layout == "per-row":  # one count per row
            w, c = unit_rows(rng, 2, len(counts))
            n = np.array(counts)
        else:  # one (3,) row against stacked rows, (k, 1) counts
            w, c = unit_rows(rng, 1)[0], unit_rows(rng, rows)
            n = np.array(counts).reshape(-1, 1)
        value, xi = discrete_average(w, c, n)
        each = np.broadcast_to(n, value.shape)
        for m in set(counts):
            single = discrete_average(w, c, m)
            at_m = each == m
            assert value[at_m].tolist() == np.broadcast_to(single.value, value.shape)[at_m].tolist()
            assert xi[at_m].tolist() == np.broadcast_to(single.xi, xi.shape)[at_m].tolist()

    def test_memory_grows_with_rows_not_with_the_largest_count(self):
        # a padded (k, rows) term array would hold 64 terms per row here
        w, c = unit_rows(np.random.default_rng(47), 2, 2, 20_000)
        n = np.array([[1], [64]])
        tracemalloc.start()
        try:
            discrete_average(w, c, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * (w.nbytes + c.nbytes + n.nbytes)

    @pytest.mark.parametrize("bad", [0, 2.5, math.nan])
    def test_count_array_refuses_an_entry_that_is_not_a_count(self, bad):
        message = re.escape(f"need a positive integer setting count, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            discrete_average([(1.0, 0.0, 0.0)], [(0.0, 0.6, 0.8)], np.array([3, bad, 2]))


class TestLemmaSuite:
    # one discrete_average call over all 16 N gives the per-N loop's results
    @pytest.mark.parametrize("trials, seeds", [(1, range(6)), (17, range(6)), (2000, range(6)), (100_000, [0])])
    def test_equals_per_n_reference(self, trials, seeds):
        for seed in seeds:
            assert lemma_suite(trials, seed) == reference_lemma_suite(trials, seed)

    # one value of one N moved out of bounds fails its property, for every N:
    # the equality case moved 1e-6 off u_N, or a random row 1e-6 below it
    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("case, name", [("equality", "lemma-equality-case"), ("random", "lemma-lower-bound")])
    def test_every_n_is_checked(self, monkeypatch, n, case, name):
        original, u_n = nlvtest._checks.inequality.discrete_average, u_coefficient(n)
        rng = np.random.default_rng(n)

        def nudged(w, c, counts):
            value, xi = original(w, c, counts)
            at_n = np.broadcast_to(counts, value.shape) == n
            equality = np.abs(value - u_n) <= 1e-9  # the rows built at xi = 0
            rows = np.flatnonzero(at_n & (equality if case == "equality" else ~equality))
            if rows.size:
                value = value.copy()
                row = rng.choice(rows)
                value.flat[row] = value.flat[row] + 1e-6 if case == "equality" else u_n - 1e-6
            return DiscreteAverage(value, xi)

        assert all(result.passed for result in lemma_suite(2000, 7))
        monkeypatch.setattr(nlvtest._checks.inequality, "discrete_average", nudged)
        assert not {result.name: result.passed for result in lemma_suite(2000, 7)}[name]


class TestPlaneAverages:
    # L_N sums |E_j(phi) + E_j(0)| over the two planes
    def test_singlet_aligned(self):
        # E_j(0) = -1 and E_j(phi) = -cos(phi) in both planes
        phi = math.radians(25)
        value = l_n(singlet(), default_frames(), 3, phi)
        assert value == pytest.approx(2 * (1 + math.cos(phi)), abs=1e-12)

    def test_mixed_source_is_zero(self):
        value = l_n(maximally_mixed(), default_frames(), 2, 0.4)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_anisotropic_tensor_average(self):
        # for N >= 2 the plane-j average collapses to cos(theta) (t1 + t_other)/2
        state = bell_diagonal(-0.9, -0.6, -0.55)
        t1, t2, t3 = (state.t[i][i] for i in range(3))
        frames = default_frames()
        for n in (2, 3, 4, 5):
            for phi in (0.0, math.radians(15), math.radians(40)):
                expected = (1 + math.cos(phi)) * (abs(t1 + t2) + abs(t1 + t3)) / 2
                assert l_n(state, frames, n, phi) == pytest.approx(expected, abs=1e-12)


class TestBound:
    def test_table_values(self):
        assert f"{nlv_bound(2, math.radians(15)):.4f}" == "3.8695"
        assert f"{nlv_bound(4, math.radians(17.5)):.4f}" == "3.8164"

    def test_slope_matches_finite_difference(self):
        h = 1e-5
        worst = 0.0
        for n in (2, 3, 4, 10):
            u_n = u_coefficient(n)
            for phi in np.linspace(0.05, math.pi - 0.05, 50):
                numeric = (nlv_bound(n, phi + h) - nlv_bound(n, phi - h)) / (2 * h)
                exact = -u_n * math.cos(phi / 2) * math.copysign(1.0, math.sin(phi / 2))
                worst = max(worst, abs(numeric - exact))
        assert worst < 1e-6

    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_angle_array_equals_per_angle_calls(self, count):
        angles = np.random.default_rng(14).uniform(-2.0 * math.pi, 2.0 * math.pi, count)
        for n in (1, 2, 7):
            bounds = nlv_bound(n, angles)
            assert bounds.shape == (count,)
            assert bounds.tolist() == [nlv_bound(n, p) for p in angles.tolist()]

    def test_refuses_angles_of_two_axes(self):
        with pytest.raises(ValueError, match="1-D"):
            nlv_bound(2, [[0.1, 0.2]])


class TestLn:
    def test_singlet_fifteen_degrees(self):
        value = l_n(singlet(), default_frames(), 2, math.radians(15))
        assert type(value) is float
        assert value == pytest.approx(3.9318516525781366, abs=1e-12)
        assert f"{nlv_bound(2, math.radians(15)):.4f}" == "3.8695"

    def test_mixed_source_never_violates(self):
        value = l_n(maximally_mixed(), default_frames(), 3, math.radians(10))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert value <= nlv_bound(3, math.radians(10))

    def test_seed_choice_irrelevant_for_singlet(self):
        rng = np.random.default_rng(43)
        frames = default_frames()
        phi = math.radians(17)
        base = l_n(singlet(), frames, 3, phi)
        for _ in range(10):
            turned = [
                (normal, turn(seed, normal, rng.uniform(0, math.pi)))
                for normal, seed in frames.tolist()
            ]
            assert l_n(singlet(), turned, 3, phi) == pytest.approx(base, abs=1e-12)

    def test_rejects_non_orthogonal_frames(self):
        f1 = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        f2 = (unit(0.1, 0.0, 1.0), (0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="orthogonal"):
            l_n(singlet(), (f1, f2), 2, 0.1)

    def test_angle_array_gives_one_report_per_angle(self):
        frames = default_frames()
        assert l_n(singlet(), frames, 2, 0.3) == l_n(singlet(), frames, 2, [0.3])[0]
        assert l_n(singlet(), frames, 2, [0.3]).shape == (1,)
        empty = l_n(singlet(), frames, 2, [])
        assert (empty.shape, empty.dtype) == ((0,), np.float64)
        with pytest.raises(ValueError, match="1-D"):
            l_n(singlet(), frames, 2, [[0.3]])

    def test_angle_blocks_equal_per_angle_calls(self):
        state, frames = parse_state("visibilities:0.995,0.990,0.982"), default_frames()
        phis = np.random.default_rng(46).uniform(-math.pi, math.pi, 20_000).tolist()
        stacked = l_n(state, frames, 2, phis)
        assert stacked.tolist() == [l_n(state, frames, 2, phi) for phi in phis]

    def test_one_correlation_call_per_angle_block(self):
        calls = []

        class Counting:
            def correlation(self, a, b):
                calls.append(len(a))
                return singlet().correlation(a, b)

        frames = default_frames()
        l_n(Counting(), frames, 3, 0.3)
        assert calls == [2 * 6]  # the aligned rows and one angle's, in one call
        calls.clear()
        l_n(Counting(), frames, 3, np.zeros(2 * _ANGLE_BLOCK + 1))
        assert calls == [(_ANGLE_BLOCK + 1) * 6] * 2 + [2 * 6]


class TestContinuum:
    # the all-directions sum is L_N on an M-point grid per plane
    def test_singlet_tight_at_zero(self):
        value = l_n(singlet(), default_frames(), 36, 0.0)
        assert value == pytest.approx(4.0, abs=1e-12)
        assert nlv_bound(math.inf, 0.0) == 4.0

    def test_matches_finite_n_for_rotation_invariant_source(self):
        phi = math.radians(21)
        base = l_n(singlet(), default_frames(), 2, phi)
        for k in (1, 2, 5):
            value = l_n(singlet(), default_frames(), 2 * k, phi)
            assert value == pytest.approx(base, abs=1e-12)

    def test_noisy_state_analytic_average(self):
        # closed form: (1 + cos phi) (|t1+t2| + |t1+t3|) / 2
        phi = math.radians(15)
        value = l_n(bell_diagonal(-0.995, -0.990, -0.982), default_frames(), 360, phi)
        expected = (1 + math.cos(phi)) * (abs(-0.995 - 0.990) + abs(-0.995 - 0.982)) / 2
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(3.8944990618786437, abs=1e-12)
        assert f"{nlv_bound(math.inf, phi):.4f}" == "3.8338"
        assert value > nlv_bound(math.inf, phi)

    def test_grid_exactness_for_finite_harmonics(self):
        state = bell_diagonal(-0.8, -0.7, -0.6)
        phi = math.radians(12)
        reference = l_n(state, default_frames(), 720, phi)
        for m in (2, 3, 8, 75):
            value = l_n(state, default_frames(), m, phi)
            assert value == pytest.approx(reference, abs=1e-12)


_COUNT_ENTRY_POINTS = {
    "plane_settings": lambda n: plane_settings(default_frames(), n),
    "u_coefficient": u_coefficient,
    "nlv_bound": lambda n: nlv_bound(n, 0.3),
    "discrete_average": lambda n: discrete_average([(1.0, 0.0, 0.0)], [(0.0, 0.6, 0.8)], n),
    "l_n": lambda n: l_n(singlet(), default_frames(), n, 0.1),
    "max_violation_phi": lambda n: max_violation_phi(singlet(), default_frames(), n),
}


class TestSettingCount:
    # u_coefficient, and so nlv_bound, takes math.inf as the continuum limit;
    # the setting rows, and so l_n and the violation search, and the discrete
    # average need a finite count.  An integral float count used to fail in l_n and the
    # search with a TypeError from reshape
    @pytest.mark.parametrize("entry, n", [
        (entry, n)
        for entry in _COUNT_ENTRY_POINTS
        for n in (2.7, math.nan, 0, -1, math.inf, -math.inf)
        if not (entry in ("u_coefficient", "nlv_bound") and n == math.inf)
    ])
    def test_refuses_a_count_that_is_not_a_positive_integer(self, entry, n):
        message = re.escape(f"need a positive integer setting count, got {n!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            _COUNT_ENTRY_POINTS[entry](n)

    # a bool is refused as replicate refuses a bool run count; True used to
    # count as one setting, so u_coefficient(True) was 0.0
    @pytest.mark.parametrize("entry, n, bad", [
        *((entry, n, n) for entry in sorted(_COUNT_ENTRY_POINTS) for n in (True, False, np.True_)),
        ("discrete_average", np.array([True, True]), True),
        ("discrete_average", [2, False], False),
        ("discrete_average", np.array([[3], [np.True_]], dtype=object), np.True_),
    ])
    def test_refuses_a_bool_count(self, entry, n, bad):
        message = re.escape(f"need a positive integer setting count, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            _COUNT_ENTRY_POINTS[entry](n)

    @pytest.mark.parametrize("entry", sorted(_COUNT_ENTRY_POINTS))
    def test_integral_float_counts_as_its_integer(self, entry):
        two = _COUNT_ENTRY_POINTS[entry]
        assert np.asarray(two(2.0)).tolist() == np.asarray(two(2)).tolist()
        assert np.asarray(two(np.int64(2))).tolist() == np.asarray(two(2)).tolist()


_ANGLE_ENTRY_POINTS = {
    "nlv_bound": lambda phi: nlv_bound(2, phi),
    "nlv_bound_continuum": lambda phi: nlv_bound(math.inf, phi),
    "l_n": lambda phi: l_n(singlet(), default_frames(), 2, phi),
    "offset_settings": lambda phi: offset_settings(*plane_settings(default_frames(), 2), phi),
    "schedule_rows": lambda phi: schedule_rows(default_frames(), 2, phi),
    "mean_table": lambda phi: mean_table(ExperimentConfig(), 2, phi),
    "replicate": lambda phi: replicate(ExperimentConfig(), 2, phi, 1),
}
_ANGLE_ARRAY_ENTRY_POINTS = ("nlv_bound", "nlv_bound_continuum", "l_n", "offset_settings", "schedule_rows")


class TestFiniteAngle:
    # every angle input passes sphere._angle_list, which refuses NaN and +-inf
    # before any row is built; a NaN angle used to give a NaN bound or fail
    # deep inside with "correlation/probability nan outside ..."
    @pytest.mark.parametrize("entry, phi, bad", [
        *((entry, x, x) for entry in _ANGLE_ENTRY_POINTS for x in (math.nan, math.inf, -math.inf)),
        *((entry, [0.1, math.nan, math.inf], math.nan) for entry in _ANGLE_ARRAY_ENTRY_POINTS),
        ("nlv_bound", np.array(-math.inf), -math.inf),
    ])
    def test_refuses_an_angle_that_is_not_finite(self, entry, phi, bad):
        message = re.escape(f"need a finite angle, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            _ANGLE_ENTRY_POINTS[entry](phi)


class TestOneAngle:
    # mean_table and replicate describe one angle: an array is refused before
    # replicate draws a count that numpy could not broadcast against it
    @pytest.mark.parametrize("entry", sorted(set(_ANGLE_ENTRY_POINTS) - set(_ANGLE_ARRAY_ENTRY_POINTS)))
    @pytest.mark.parametrize("phi", [[0.26], np.array([0.1, 0.2])], ids=["list-of-one", "array-of-two"])
    def test_refuses_an_angle_array_before_any_row_is_built(self, monkeypatch, entry, phi):
        def unreachable(*args):
            raise AssertionError("schedule_rows called")

        monkeypatch.setattr("nlvtest.simulate.schedule_rows", unreachable)
        message = re.escape(f"need one angle, got shape {np.shape(phi)}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            _ANGLE_ENTRY_POINTS[entry](phi)


class TestMaxViolationSearch:
    def test_singlet_peak_matches_formula(self):
        # L - bound = 2(1 + cos phi) - 4 + 2 u_N sin(phi/2) peaks where sin(phi/2) = u_N / 4
        for n in range(2, 65):
            phi = max_violation_phi(singlet(), default_frames(), n)
            assert phi == pytest.approx(2.0 * math.asin(u_coefficient(n) / 4.0), abs=1e-12)
            assert l_n(singlet(), default_frames(), n, phi) - nlv_bound(n, phi) > 0.0
        assert math.degrees(max_violation_phi(singlet(), default_frames(), 4)) == pytest.approx(17.36, abs=0.05)

    def test_low_visibility_never_violates(self):
        phi = max_violation_phi(werner(0.96), default_frames(), 2)
        assert l_n(werner(0.96), default_frames(), 2, phi) - nlv_bound(2, phi) < 0.0

    # the maximum lies at an end of [0, pi/4]: for a source that never
    # violates, or whose optimum 2 arcsin(u_N / 4v) lies past pi/4, and at 0
    # for one setting.  At N = 1 the quartic degenerates: every coefficient
    # is zero for "mixed", which scores -4 at every angle and so returns the
    # smallest, and the leading one is zero for the singlet
    @pytest.mark.parametrize("spec, n, end", [
        ("mixed", 2, math.pi / 4.0), ("werner:0.3", 2, math.pi / 4.0), ("singlet", 1, 0.0),
        ("mixed", 1, 0.0),
    ])
    def test_maximum_at_an_end_is_that_end(self, spec, n, end):
        assert max_violation_phi(parse_state(spec), default_frames(), n) == end

    # rows per call: E_j(0) and F_j from the (a_k, a_k) and (a_k, t_k) rows of
    # both planes; every candidate is scored in closed form from those means
    @pytest.mark.parametrize("spec", ["singlet", "werner:0.96", "visibilities:0.995,0.990,0.982", "mixed"])
    def test_a_search_makes_one_correlation_call(self, monkeypatch, spec):
        made, real = [], nlvtest.quantum.correlation

        def counting(state, a, b):
            made.append(len(a))
            return real(state, a, b)

        monkeypatch.setattr(nlvtest.quantum, "correlation", counting)
        max_violation_phi(parse_state(spec), default_frames(), 2)
        assert made == [8]

    # a Leggett ensemble's correlation need not be linear in Bob's setting
    @pytest.mark.parametrize("source, name", [
        (product_ensemble([1.0], [(1.0, 0.0, 0.0)], [(1.0, 0.0, 0.0)]), "PureEnsemble"),
        (None, "NoneType"),
    ])
    def test_refuses_a_source_that_is_not_a_state(self, source, name):
        with pytest.raises(ValueError, match=f"needs a TwoQubitState, got {name}$"):
            max_violation_phi(source, default_frames(), 2)

    def test_closed_form_objective_equals_l_n_violation(self):
        # the premise of the search: E_j(phi) = cos phi E_j(0) + sin phi F_j,
        # also for the singlet, whose C(a_k, a_k) = -1 sits at the clamp
        rng = np.random.default_rng(46)
        cases = [(singlet(), default_frames()), (singlet(), random_frames(rng))]
        cases += [(TwoQubitState(random_density_matrix(rng)), random_frames(rng)) for _ in range(8)]
        for state, frames in cases:
            for n in (1, 2, 3, 7):
                alice, turned = plane_settings(frames, n)
                e_zero = state.correlation(alice, alice).reshape(2, n).mean(axis=1)
                f = state.correlation(alice, turned).reshape(2, n).mean(axis=1)
                for phi in [0.0, math.pi / 4.0, *rng.uniform(0.0, math.pi, size=4).tolist()]:
                    closed = np.abs((1.0 + math.cos(phi)) * e_zero + math.sin(phi) * f).sum()
                    closed -= 4.0 - 2.0 * u_coefficient(n) * abs(math.sin(phi / 2.0))
                    assert closed == pytest.approx(l_n(state, frames, n, phi) - nlv_bound(n, phi), abs=1e-14)

    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 8]))
    @settings(max_examples=80, deadline=None)
    def test_random_states_reach_the_grid_maximum(self, seed, n):
        rng = np.random.default_rng(seed)
        state, frames = TwoQubitState(random_density_matrix(rng)), random_frames(rng)
        assert searched(state, frames, n)[1] >= grid_max_violation(state, frames, n)[1] - 1e-12

    def test_maximum_that_a_golden_section_missed(self):
        # a golden-section search, which assumes one peak, returned 8.93
        # degrees here, 0.229 below the maximum at the 45-degree end
        rng = np.random.default_rng(152)
        state, frames = TwoQubitState(random_density_matrix(rng)), random_frames(rng)
        best_phi, best = grid_max_violation(state, frames, 2)
        phi, value = searched(state, frames, 2)
        assert (best_phi, phi) == (math.pi / 4.0, math.pi / 4.0)
        assert value >= best - 1e-12

    @pytest.mark.parametrize("v", [0.5, 0.8, 0.96])
    def test_low_visibility_werner_keeps_its_interior_optimum(self, v):
        # L - bound = 2v(1 + cos phi) - 4 + 2 u_N sin(phi/2) peaks where sin(phi/2) = u_N / 4v
        phi = max_violation_phi(werner(v), default_frames(), 2)
        assert 0.0 < phi < math.pi / 4.0
        assert phi == pytest.approx(2.0 * math.asin(u_coefficient(2) / (4.0 * v)), abs=1e-12)


def assert_roots_match_np_roots(coeffs, lo, hi):
    """_real_roots(coeffs, lo, hi), ascending and in [lo, hi], agrees within
    1e-12 with the test's oracle: the real parts of np.roots' roots with
    |imag| <= 1e-6 (both of a double root's pair) that lie within 1e-12 of
    [lo, hi]."""
    found = _real_roots(list(coeffs), lo, hi)
    expected = [r.real for r in np.roots(coeffs) if abs(r.imag) <= 1e-6 and lo - 1e-12 <= r.real <= hi + 1e-12]
    assert found == sorted(found)
    assert all(lo <= t <= hi for t in found)
    assert all(any(abs(t - r) <= 1e-12 for t in found) for r in expected)
    assert all(any(abs(t - r) <= 1e-12 for r in expected) for t in found)
    return found


class TestRealRoots:
    # the search's interval in t = tan(psi/2), psi in [0, pi/8]
    TOP = math.tan(math.pi / 16.0)

    def test_random_search_quartics(self):
        # the search's own form in A, B and u_N, on random pieces of [0, TOP]
        # and on wider intervals that hold more roots
        rng = np.random.default_rng(48)
        for _ in range(2000):
            a, b = rng.uniform(-2.0, 2.0, size=2).tolist()
            u = u_coefficient(int(rng.integers(1, 65)))
            lo, hi = sorted(rng.uniform(0.0, self.TOP, size=2).tolist())
            for interval in ((lo, hi), (0.0, self.TOP), (-3.0, 3.0)):
                assert_roots_match_np_roots([b - u, 4.0 * a, -6.0 * b, -4.0 * a, b + u], *interval)

    def test_random_quartics(self):
        rng = np.random.default_rng(49)
        counts = []
        for _ in range(2000):
            coeffs = rng.normal(size=5).tolist()
            counts.append(len(assert_roots_match_np_roots(coeffs, -2.0, 2.0)))
        assert set(counts) == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("coeffs, lo, hi, roots", [
        # a zero leading coefficient: the singlet at N = 1, a root at the end 0
        ([0.0, 8.0, 0.0, -8.0, 0.0], 0.0, TOP, [0.0]),
        ([0.0, 8.0, 0.0, -8.0, 0.0], -2.0, 2.0, [-1.0, 0.0, 1.0]),
        # every coefficient zero (the maximally mixed state at N = 1), and a constant
        ([0.0] * 5, 0.0, TOP, []),
        ([0.0, 0.0, 0.0, 0.0, 1.5], 0.0, TOP, []),
        # a linear polynomial with its root at an end
        ([0.0, 0.0, 0.0, 8.0, -1.0], 0.0, 0.125, [0.125]),
        # a double root, inside and at either end; 0.1 and 0.17, which no
        # float holds, leave the quartic a rounding error off zero there
        (np.poly([0.125, 0.125, -2.0, 3.0]).tolist(), 0.0, 0.2, [0.125]),
        (np.poly([0.1, 0.1, -2.0, 3.0]).tolist(), 0.0, 0.2, [0.1]),
        (np.poly([0.17, 0.17, -2.0, 3.0]).tolist(), 0.0, 0.2, [0.17]),
        (np.poly([0.125, 0.125, -2.0, 3.0]).tolist(), 0.125, 0.2, [0.125]),
        (np.poly([0.125, 0.125, -2.0, 3.0]).tolist(), 0.0, 0.125, [0.125]),
        # a simple root exactly at a piece end, from either side
        (np.poly([0.125, 0.5, -2.0, 3.0]).tolist(), 0.0, 0.125, [0.125]),
        (np.poly([0.125, 0.5, -2.0, 3.0]).tolist(), 0.125, 0.2, [0.125]),
        (np.poly([0.125, 0.1875, -2.0, 3.0]).tolist(), 0.0, 0.2, [0.125, 0.1875]),
    ])
    def test_degenerate_quartics(self, coeffs, lo, hi, roots):
        assert assert_roots_match_np_roots(coeffs, lo, hi) == pytest.approx(roots, abs=1e-12)


# the four predict-scan benchmark states
REFERENCE_STATES = ("singlet", "werner:0.96", "colored:0.98", "visibilities:0.995,0.990,0.982")


def searched(state, frames, n: int) -> tuple[float, float]:
    """max_violation_phi's angle and the violation there, as cmd_predict reports them."""
    phi = max_violation_phi(state, frames, n)
    return phi, l_n(state, frames, n, phi) - nlv_bound(n, phi)


class TestPlainPythonReference:
    # l_n equals, bit for bit, a scalar per-setting evaluation with
    # left-to-right plane sums (tests/helpers.py), and max_violation_phi's
    # violation is no less than a grid oracle's
    @pytest.mark.parametrize("spec", REFERENCE_STATES)
    def test_l_n_equals_reference(self, spec):
        # at one angle per call and over an angle array in one call
        state, frames = parse_state(spec), default_frames()
        phis = [math.radians(deg) for deg in (0.0, 10.0, 15.0, 25.0)]
        for n in (1, 2, 3, 8, 32):
            stacked = l_n(state, frames, n, phis)
            assert len(stacked) == len(phis)
            for phi, value in zip(phis, stacked.tolist()):
                expected = reference_l_n(state, frames, n, phi)
                assert l_n(state, frames, n, phi) == expected
                assert value == expected

    @pytest.mark.parametrize("spec", REFERENCE_STATES)
    def test_max_violation_phi_reaches_the_grid_maximum(self, spec):
        state, frames = parse_state(spec), default_frames()
        for n in (1, 2, 3, 8, 32):
            assert searched(state, frames, n)[1] >= grid_max_violation(state, frames, n)[1] - 1e-12

    def test_random_frames_and_states_equal_reference(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            frames = random_frames(rng)
            state = TwoQubitState(random_density_matrix(rng))
            for n in (1, 3, 7):
                for phi in (0.0, 0.3, 2.0):
                    assert l_n(state, frames, n, phi) == reference_l_n(
                        state, frames, n, phi
                    )

    def test_max_violation_phi_on_random_states_reaches_the_grid_maximum(self):
        # random frames too, and an odd N that the property above leaves out
        rng = np.random.default_rng(47)
        for _ in range(10):
            frames = random_frames(rng)
            state = TwoQubitState(random_density_matrix(rng))
            for n in (1, 3, 7):
                assert searched(state, frames, n)[1] >= grid_max_violation(state, frames, n)[1] - 1e-12


class TestSingletCrossCheck:
    def test_l_matches_closed_form_over_frames(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            frames = random_frames(rng)
            for n in (1, 2, 4):
                for phi in np.linspace(0.0, math.pi, 7):
                    value = l_n(singlet(), frames, n, float(phi))
                    assert value == pytest.approx(
                        singlet_L(float(phi)), abs=1e-12
                    )

import math

import numpy as np
import pytest
from helpers import (
    random_density_matrix,
    random_frames,
    reference_l_n,
    reference_max_violation_phi,
    unit_rows,
)

from nlvtest.inequality import (
    InequalityReport,
    NoViolationError,
    continuum_bound,
    discrete_average,
    l_n,
    max_violation_phi,
    nlv_bound,
    optimal_phi,
    u_coefficient,
)
from nlvtest.quantum import (
    TwoQubitState,
    bell_diagonal,
    maximally_mixed,
    parse_state,
    singlet,
    singlet_L,
    werner,
)
from nlvtest.sphere import PlaneFrame, UnitVector, default_frames, rotate


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

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            u_coefficient(0)


def reference_discrete_average(w, c, n: int) -> tuple[float, float]:
    """Plain-Python scalar reference: one (w, c) pair at a time."""
    ax, ay, az = w[1] * c[2] - w[2] * c[1], w[2] * c[0] - w[0] * c[2], w[0] * c[1] - w[1] * c[0]
    norm = math.sqrt(ax * ax + ay * ay + az * az)
    if norm > 1e-12:
        ax, ay, az = ax / norm, ay / norm, az / norm
    else:
        px, py, pz = -(1.0 - w[0] * w[0]), w[0] * w[1], w[0] * w[2]
        pn = math.sqrt(px * px + py * py + pz * pz)
        ax, ay, az = (px / pn, py / pn, pz / pn) if pn > 1e-12 else (0.0, -1.0, 0.0)
    cos_s, sin_s = math.cos(math.pi / n), math.sin(math.pi / n)
    cx, cy, cz = c
    total = 0.0
    for k in range(n):
        if k > 0:
            d = (ax * cx + ay * cy + az * cz) * (1.0 - cos_s)
            cx, cy, cz = (
                cx * cos_s + (ay * cz - az * cy) * sin_s + ax * d,
                cy * cos_s + (az * cx - ax * cz) * sin_s + ay * d,
                cz * cos_s + (ax * cy - ay * cx) * sin_s + az * d,
            )
        total += abs(cx * w[0] + cy * w[1] + cz * w[2])
    angle = math.atan2(norm, w[0] * c[0] + w[1] * c[1] + w[2] * c[2])
    return total / n, (angle - math.pi / 2.0) % (math.pi / n)


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
        # collinear rows take the deterministic axis, +-e1 its own branch
        e1, s = (1.0, 0.0, 0.0), (0.6, 0.8, 0.0)
        w = np.concatenate([w, [s, s, e1, e1]])
        c = np.concatenate([c, [s, (-0.6, -0.8, 0.0), e1, (-1.0, 0.0, 0.0)]])
        for n in (1, 2, 3, 7, 16):
            avg, xi = discrete_average(w, c, n)
            reference = [reference_discrete_average(wi, ci, n) for wi, ci in zip(w.tolist(), c.tolist())]
            assert avg.tolist() == [value for value, _ in reference]
            # arctan2 may be a vectorised implementation, last bits apart from libm
            assert xi.tolist() == pytest.approx([x for _, x in reference], abs=1e-15)

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
        # repeated calls give identical results (deterministic axis choice)
        first, second = discrete_average([w], [w], 7), discrete_average([w], [w], 7)
        assert first.value.tolist() == second.value.tolist()
        assert first.xi.tolist() == second.xi.tolist()

    def test_rejects_zero_settings(self):
        with pytest.raises(ValueError):
            discrete_average([(1.0, 0.0, 0.0)], [(0.0, 1.0, 0.0)], 0)


class TestPlaneAverages:
    # L_N sums |E_j(phi) + E_j(0)| over the two planes
    def test_singlet_aligned(self):
        # E_j(0) = -1 and E_j(phi) = -cos(phi) in both planes
        phi = math.radians(25)
        report = l_n(singlet(), default_frames(), 3, phi)
        assert report.l_value == pytest.approx(2 * (1 + math.cos(phi)), abs=1e-12)

    def test_mixed_source_is_zero(self):
        report = l_n(maximally_mixed(), default_frames(), 2, 0.4)
        assert report.l_value == pytest.approx(0.0, abs=1e-12)

    def test_anisotropic_tensor_average(self):
        # for N >= 2 the plane-j average collapses to cos(theta) (t1 + t_other)/2
        state = bell_diagonal(-0.9, -0.6, -0.55)
        t1, t2, t3 = (state.t[i][i] for i in range(3))
        frames = default_frames()
        for n in (2, 3, 4, 5):
            for phi in (0.0, math.radians(15), math.radians(40)):
                expected = (1 + math.cos(phi)) * (abs(t1 + t2) + abs(t1 + t3)) / 2
                assert l_n(state, frames, n, phi).l_value == pytest.approx(expected, abs=1e-12)


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


class TestLn:
    def test_singlet_fifteen_degrees(self):
        report = l_n(singlet(), default_frames(), 2, math.radians(15))
        assert report.l_value == pytest.approx(3.9318516525781366, abs=1e-12)
        assert f"{report.bound:.4f}" == "3.8695"
        assert report.sigma == 0.0
        assert report.violation_sigmas is None

    def test_mixed_source_never_violates(self):
        report = l_n(maximally_mixed(), default_frames(), 3, math.radians(10))
        assert report.l_value == pytest.approx(0.0, abs=1e-12)
        assert report.l_value <= report.bound

    def test_seed_choice_irrelevant_for_singlet(self):
        rng = np.random.default_rng(43)
        frames = default_frames()
        phi = math.radians(17)
        base = l_n(singlet(), frames, 3, phi).l_value
        for _ in range(10):
            turned = tuple(
                PlaneFrame(normal=f.normal, seed=rotate(f.seed, f.normal, rng.uniform(0, math.pi)))
                for f in frames
            )
            assert l_n(singlet(), turned, 3, phi).l_value == pytest.approx(base, abs=1e-12)

    def test_rejects_non_orthogonal_frames(self):
        f1 = PlaneFrame(normal=UnitVector(0, 0, 1), seed=UnitVector(1, 0, 0))
        f2 = PlaneFrame(
            normal=UnitVector.normalized(0.1, 0.0, 1.0), seed=UnitVector(0, 1, 0)
        )
        with pytest.raises(ValueError):
            l_n(singlet(), (f1, f2), 2, 0.1)

    def test_angle_array_gives_one_report_per_angle(self):
        frames = default_frames()
        assert l_n(singlet(), frames, 2, 0.3) == l_n(singlet(), frames, 2, [0.3])[0]
        assert len(l_n(singlet(), frames, 2, [0.3])) == 1
        assert l_n(singlet(), frames, 2, []) == ()
        with pytest.raises(ValueError, match="1-D"):
            l_n(singlet(), frames, 2, [[0.3]])

    def test_report_derives_bound_and_violation_sigmas(self):
        phi = math.radians(15)
        measured = InequalityReport(4, phi, 3.9, 0.02)
        assert measured.bound == nlv_bound(4, phi)
        assert measured.violation == 3.9 - nlv_bound(4, phi)
        assert measured.violation_sigmas == (3.9 - nlv_bound(4, phi)) / 0.02
        exact = InequalityReport(4, phi, 3.9)
        assert (exact.sigma, exact.bound, exact.violation_sigmas) == (0.0, measured.bound, None)
        for sigma in (-0.01, math.nan):
            with pytest.raises(ValueError, match="sigma"):
                InequalityReport(4, phi, 3.9, sigma)
        for l_value in (-0.1, 4.1, math.nan):
            with pytest.raises(ValueError, match="out of range"):
                InequalityReport(4, phi, l_value)
        assert InequalityReport(4, phi, 4.05, 0.02).l_value == 4.05  # within 4 sigma of 4


class TestContinuum:
    # the all-directions sum is L_N on an M-point grid per plane
    def test_singlet_tight_at_zero(self):
        value = l_n(singlet(), default_frames(), 36, 0.0).l_value
        assert value == pytest.approx(4.0, abs=1e-12)
        assert continuum_bound(0.0) == 4.0

    def test_matches_finite_n_for_rotation_invariant_source(self):
        phi = math.radians(21)
        base = l_n(singlet(), default_frames(), 2, phi).l_value
        for k in (1, 2, 5):
            value = l_n(singlet(), default_frames(), 2 * k, phi).l_value
            assert value == pytest.approx(base, abs=1e-12)

    def test_noisy_state_analytic_average(self):
        # closed form: (1 + cos phi) (|t1+t2| + |t1+t3|) / 2
        phi = math.radians(15)
        value = l_n(bell_diagonal(-0.995, -0.990, -0.982), default_frames(), 360, phi).l_value
        expected = (1 + math.cos(phi)) * (abs(-0.995 - 0.990) + abs(-0.995 - 0.982)) / 2
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(3.8944990618786437, abs=1e-12)
        assert f"{continuum_bound(phi):.4f}" == "3.8338"
        assert value > continuum_bound(phi)

    def test_grid_exactness_for_finite_harmonics(self):
        state = bell_diagonal(-0.8, -0.7, -0.6)
        phi = math.radians(12)
        reference = l_n(state, default_frames(), 720, phi).l_value
        for m in (2, 3, 8, 75):
            value = l_n(state, default_frames(), m, phi).l_value
            assert value == pytest.approx(reference, abs=1e-12)


class TestOptimalPhi:
    def test_two_settings(self):
        assert math.degrees(optimal_phi(2)) == pytest.approx(14.36, abs=0.05)

    def test_continuum(self):
        assert math.degrees(optimal_phi(math.inf)) == pytest.approx(18.31, abs=0.05)

    def test_four_settings_formula(self):
        assert optimal_phi(4) == pytest.approx(
            2 * math.asin(u_coefficient(4) / 4), abs=1e-15
        )
        assert math.degrees(optimal_phi(4)) == pytest.approx(17.36, abs=0.05)

    def test_single_setting_has_no_optimum(self):
        with pytest.raises(NoViolationError):
            optimal_phi(1)


class TestMaxViolationSearch:
    def test_singlet_peak_matches_formula(self):
        phi, violation = max_violation_phi(singlet(), default_frames(), 2)
        assert math.degrees(phi) == pytest.approx(math.degrees(optimal_phi(2)), abs=0.05)
        assert violation > 0.0

    def test_low_visibility_never_violates(self):
        _, violation = max_violation_phi(werner(0.96), default_frames(), 2)
        assert violation < 0.0


# the four predict-scan benchmark states
REFERENCE_STATES = ("singlet", "werner:0.96", "colored:0.98", "visibilities:0.995,0.990,0.982")


class TestPlainPythonReference:
    # l_n and max_violation_phi equal, bit for bit, a scalar per-setting
    # evaluation with left-to-right plane sums (tests/helpers.py)
    @pytest.mark.parametrize("spec", REFERENCE_STATES)
    def test_l_n_equals_reference(self, spec):
        # at one angle per call and over an angle array in one call
        state, frames = parse_state(spec), default_frames()
        phis = [math.radians(deg) for deg in (0.0, 10.0, 15.0, 25.0)]
        for n in (1, 2, 3, 8, 32):
            stacked = l_n(state, frames, n, phis)
            assert len(stacked) == len(phis)
            for phi, report in zip(phis, stacked):
                expected = reference_l_n(state, frames, n, phi)
                assert l_n(state, frames, n, phi).l_value == expected
                assert (report.phi, report.l_value) == (phi, expected)

    @pytest.mark.parametrize("spec", REFERENCE_STATES)
    def test_max_violation_phi_equals_reference(self, spec):
        state, frames = parse_state(spec), default_frames()
        for n in (1, 2, 3, 8, 32):
            assert max_violation_phi(state, frames, n) == reference_max_violation_phi(
                state, frames, n
            )

    def test_random_frames_and_states_equal_reference(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            frames = random_frames(rng)
            state = TwoQubitState(random_density_matrix(rng))
            for n in (1, 3, 7):
                for phi in (0.0, 0.3, 2.0):
                    assert l_n(state, frames, n, phi).l_value == reference_l_n(
                        state, frames, n, phi
                    )


class TestSingletCrossCheck:
    def test_l_matches_closed_form_over_frames(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            frames = random_frames(rng)
            for n in (1, 2, 4):
                for phi in np.linspace(0.0, math.pi, 7):
                    report = l_n(singlet(), frames, n, float(phi))
                    assert report.l_value == pytest.approx(
                        singlet_L(float(phi)), abs=1e-12
                    )

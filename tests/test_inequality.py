import math

import numpy as np
import pytest
from helpers import random_frames, random_unit

from nlvtest.inequality import (
    InequalityReport,
    NoViolationError,
    continuum_bound,
    continuum_l,
    discrete_average,
    e_jn,
    l_n,
    max_violation_phi,
    nlv_bound,
    optimal_phi,
    u_coefficient,
)
from nlvtest.quantum import (
    bell_diagonal,
    maximally_mixed,
    singlet,
    singlet_L,
    werner,
)
from nlvtest.sphere import PlaneFrame, UnitVector, build_schedule, default_frames, rotate


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


class TestDiscreteAverage:
    def test_aligned_single_setting(self):
        w = UnitVector(0, 0, 1)
        avg, _ = discrete_average(w, w, 1)
        assert avg == 1.0

    def test_perpendicular_two_settings_saturates(self):
        avg, xi = discrete_average(UnitVector(1, 0, 0), UnitVector(0, 1, 0), 2)
        assert avg == pytest.approx(0.5, abs=1e-15)
        assert xi == pytest.approx(0.0, abs=1e-15)

    def test_random_five_settings_in_range_and_identity(self):
        rng = np.random.default_rng(41)
        u5 = u_coefficient(5)
        for _ in range(500):
            w, c = random_unit(rng), random_unit(rng)
            avg, xi = discrete_average(w, c, 5)
            assert u5 - 1e-12 <= avg <= 1.0 + 1e-12
            # independent closed form from the wrapped angle
            cx, cy, cz = w.cross(c)
            angle = math.atan2(math.sqrt(cx**2 + cy**2 + cz**2), w.dot(c))
            xi_oracle = (angle - math.pi / 2) % (math.pi / 5)
            assert xi == pytest.approx(xi_oracle, abs=1e-12)
            closed = (math.sin(xi_oracle) + 5 * u5 * math.cos(xi_oracle)) / 5
            assert avg == pytest.approx(closed, abs=1e-12)

    def test_lower_bound_moderate_trials(self):
        rng = np.random.default_rng(42)
        for n in range(1, 17):
            u_n = u_coefficient(n)
            for _ in range(200):
                avg, _ = discrete_average(random_unit(rng), random_unit(rng), n)
                assert avg >= u_n - 1e-12

    def test_collinear_inputs_deterministic(self):
        w = UnitVector(0.6, 0.8, 0.0)
        for c in (w, -w):
            for n in (1, 2, 5):
                avg, _ = discrete_average(w, c, n)
                oracle = sum(abs(math.cos(k * math.pi / n)) for k in range(n)) / n
                assert avg == pytest.approx(oracle, abs=1e-12)
        # repeated calls give identical results (deterministic axis choice)
        assert discrete_average(w, w, 7) == discrete_average(w, w, 7)

    def test_rejects_zero_settings(self):
        with pytest.raises(ValueError):
            discrete_average(UnitVector(1, 0, 0), UnitVector(0, 1, 0), 0)


class TestPlaneAverages:
    def test_singlet_aligned(self):
        frames = default_frames()
        for frame in frames:
            sched = build_schedule(frame, 3, math.radians(25))
            assert e_jn(singlet(), sched, "zero") == pytest.approx(-1.0, abs=1e-12)
            assert e_jn(singlet(), sched, "phi") == pytest.approx(
                -math.cos(math.radians(25)), abs=1e-12
            )

    def test_mixed_source_is_zero(self):
        frame, _ = default_frames()
        sched = build_schedule(frame, 2, 0.4)
        assert e_jn(maximally_mixed(), sched, "zero") == pytest.approx(0.0, abs=1e-12)

    def test_callable_source_accepted(self):
        frame, _ = default_frames()
        sched = build_schedule(frame, 2, 0.0)
        assert e_jn(lambda a, b: -a.dot(b), sched, "zero") == pytest.approx(-1.0)

    def test_rejects_bad_selector(self):
        frame, _ = default_frames()
        sched = build_schedule(frame, 2, 0.0)
        with pytest.raises(ValueError):
            e_jn(singlet(), sched, "both")

    def test_anisotropic_tensor_average(self):
        # for N >= 2 the plane average collapses to cos(theta) (t1 + t_other)/2
        state = bell_diagonal(-0.9, -0.6, -0.55)
        t1, t2, t3 = (state.t[i][i] for i in range(3))
        frames = default_frames()
        for n in (2, 3, 4, 5):
            for phi in (0.0, math.radians(15), math.radians(40)):
                sched1 = build_schedule(frames[0], n, phi)
                sched2 = build_schedule(frames[1], n, phi)
                assert e_jn(state, sched1, "phi") == pytest.approx(
                    math.cos(phi) * (t1 + t2) / 2, abs=1e-12
                )
                assert e_jn(state, sched2, "phi") == pytest.approx(
                    math.cos(phi) * (t1 + t3) / 2, abs=1e-12
                )


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

    def test_report_validates_bound(self):
        with pytest.raises(ValueError):
            InequalityReport(
                n=2, phi=0.1, l_value=3.0, bound=3.0, sigma=0.0,
                violation_sigmas=None, frames=default_frames(),
            )


class TestContinuum:
    def test_singlet_tight_at_zero(self):
        value, bound = continuum_l(singlet(), default_frames(), 0.0, m=36)
        assert value == pytest.approx(4.0, abs=1e-12)
        assert bound == 4.0

    def test_matches_finite_n_for_rotation_invariant_source(self):
        phi = math.radians(21)
        base = l_n(singlet(), default_frames(), 2, phi).l_value
        for k in (1, 2, 5):
            value, _ = continuum_l(singlet(), default_frames(), phi, m=2 * k)
            assert value == pytest.approx(base, abs=1e-12)

    def test_noisy_state_analytic_average(self):
        # closed form: (1 + cos phi) (|t1+t2| + |t1+t3|) / 2
        phi = math.radians(15)
        value, bound = continuum_l(
            bell_diagonal(-0.995, -0.990, -0.982), default_frames(), phi, m=360
        )
        expected = (1 + math.cos(phi)) * (abs(-0.995 - 0.990) + abs(-0.995 - 0.982)) / 2
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(3.8944990618786437, abs=1e-12)
        assert bound == pytest.approx(continuum_bound(phi), abs=1e-15)

    def test_grid_exactness_for_finite_harmonics(self):
        state = bell_diagonal(-0.8, -0.7, -0.6)
        phi = math.radians(12)
        reference, _ = continuum_l(state, default_frames(), phi, m=720)
        for m in (2, 3, 8, 75):
            value, _ = continuum_l(state, default_frames(), phi, m=m)
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

import math
import warnings

import numpy as np
import pytest
from helpers import cross, random_frames, random_unit, rotate, setting_pairs, turn, unit_rows

from nlvtest.sphere import (
    PlaneFrame,
    UnitVector,
    _cross,
    _turn,
    build_schedule,
    default_frames,
    offset_settings,
    plane_settings,
    schedule_rows,
)


def rodrigues_matrix(axis: UnitVector, angle: float) -> np.ndarray:
    """Independent matrix-form oracle: R = I + sin(t) K + (1 - cos(t)) K^2."""
    k = np.array([
        [0.0, -axis.z, axis.y],
        [axis.z, 0.0, -axis.x],
        [-axis.y, axis.x, 0.0],
    ])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


class TestUnitVector:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitVector(1.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            UnitVector(0.0, 0.0, 0.0)
        for bad in ((math.nan, 0.0, 0.0), (1.0, math.nan, 0.0), (math.inf, 0.0, 0.0)):
            with pytest.raises(ValueError):
                UnitVector(*bad)

    def test_accepts_and_renormalizes_near_unit(self):
        v = UnitVector(1.0 + 5e-10, 0.0, 0.0)
        assert abs(v.x**2 + v.y**2 + v.z**2 - 1.0) < 1e-12

    def test_normalized_constructor(self):
        v = UnitVector.normalized(3.0, 4.0, 0.0)
        assert v.x == pytest.approx(0.6) and v.y == pytest.approx(0.8)
        with pytest.raises(ValueError):
            UnitVector.normalized(0.0, 0.0, 0.0)

    def test_dot_cross(self):
        a = UnitVector(1.0, 0.0, 0.0)
        b = UnitVector(0.0, 1.0, 0.0)
        assert a.dot(b) == 0.0
        assert _cross(a, b).tolist() == [0.0, 0.0, 1.0]

    def test_row_cross_equals_np_cross_bitwise(self):
        rng = np.random.default_rng(47)
        p, q = rng.normal(size=(2, 4, 500, 3))
        q[0, :100] = 0.0  # exact zeros, whose signs np.cross keeps too
        for pair in ((p, q), (p[0], q[0, :1]), (p[1, 7], q[1])):
            ours, theirs = _cross(*pair), np.cross(*pair)
            assert ours.shape == theirs.shape
            assert np.array_equal(ours, theirs)
            assert np.array_equal(np.signbit(ours), np.signbit(theirs))

    def test_array_rows_raise_no_warning(self):
        # numpy 2 passes copy= to __array__; pyproject turns warnings into errors
        a, b = UnitVector(1, 0, 0), UnitVector.normalized(0.0, 3.0, 4.0)
        minus_a = UnitVector(-1.0, 0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = np.asarray(a)
            pairs = np.asarray([(a, b), (b, minus_a)], dtype=float)
            single = np.asarray(b, dtype=np.float32)
        assert row.dtype == float and row.tolist() == [1.0, 0.0, 0.0]
        assert pairs.shape == (2, 2, 3)
        assert pairs.tolist() == [
            [[1.0, 0.0, 0.0], [0.0, b.y, b.z]], [[0.0, b.y, b.z], [-1.0, 0.0, 0.0]]
        ]
        assert single.dtype == np.float32
        with pytest.raises(ValueError, match="new array"):
            a.__array__(copy=False)


class TestRotate:
    def test_quarter_turn_about_z(self):
        out = rotate(UnitVector(1, 0, 0), UnitVector(0, 0, 1), math.pi / 2)
        assert out.x == pytest.approx(0.0, abs=1e-15)
        assert out.y == pytest.approx(1.0, abs=1e-15)

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_unit(rng)
            assert rotate(v, random_unit(rng), 0.0) == v

    def test_eighth_turn(self):
        out = rotate(UnitVector(1, 0, 0), UnitVector(0, 0, 1), math.pi / 4)
        assert out.x == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert out.y == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert out.z == 0.0

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            v = random_unit(rng)
            axis = random_unit(rng)
            angle = rng.uniform(-2 * math.pi, 2 * math.pi)
            got = rotate(v, axis, angle)
            want = rodrigues_matrix(axis, angle) @ np.asarray(v)
            assert np.allclose(got, want, atol=1e-12)

    def test_norm_preserved_many_trials(self):
        # the library's row-wise turn, which does not rescale its output
        rng = np.random.default_rng(2)
        v, axis = unit_rows(rng, 2, 100_000)
        angle = rng.uniform(0.0, 2 * math.pi, size=(100_000, 1))
        out = _turn(v, axis, np.cos(angle), np.sin(angle))
        assert np.abs((out * out).sum(axis=1) - 1.0).max() < 1e-12

    def test_half_turn_flips_in_plane_vector(self):
        rng = np.random.default_rng(3)
        for n in range(1, 17):
            axis = random_unit(rng)
            v = random_unit(rng)
            # project v into the plane orthogonal to axis
            d = v.dot(axis)
            v = UnitVector.normalized(
                v.x - d * axis.x, v.y - d * axis.y, v.z - d * axis.z
            )
            out = v
            for _ in range(n):
                out = rotate(out, axis, math.pi / n)
            assert abs(out.x + v.x) < 1e-9
            assert abs(out.y + v.y) < 1e-9
            assert abs(out.z + v.z) < 1e-9


class TestPlaneFrame:
    def test_rejects_seed_out_of_plane(self):
        with pytest.raises(ValueError):
            PlaneFrame(normal=UnitVector(0, 0, 1), seed=UnitVector(0.0, 0.1, 0.9949874371066199))


class TestBuildSchedule:
    def test_two_settings_at_quarter_steps(self):
        frame = PlaneFrame(normal=UnitVector(0, 0, 1), seed=UnitVector(1, 0, 0))
        sched = build_schedule(frame, 2, math.radians(15))
        assert np.asarray(sched.entries[0].alice).tolist() == [1.0, 0.0, 0.0]
        a1 = sched.entries[1].alice
        assert a1.x == pytest.approx(0.0, abs=1e-15)
        assert a1.y == pytest.approx(1.0, abs=1e-15)

    def test_single_setting_is_seed(self):
        frame = PlaneFrame(normal=UnitVector(0, 0, 1), seed=UnitVector(1, 0, 0))
        sched = build_schedule(frame, 1, 0.3)
        assert len(sched.entries) == 1
        assert sched.entries[0].alice == frame.seed

    def test_three_settings_match_repeated_rotation(self):
        frame = PlaneFrame(normal=UnitVector(0, 1, 0), seed=UnitVector(1, 0, 0))
        sched = build_schedule(frame, 3, 0.1)
        for k, entry in enumerate(sched.entries):
            # the seed turned once by k pi/3, bit for bit
            assert entry.alice == rotate(frame.seed, frame.normal, k * math.pi / 3)
            # angles 0, 60, 120 degrees from the seed, in the (S1, S3) plane
            assert entry.alice.dot(frame.seed) == pytest.approx(
                math.cos(k * math.pi / 3), abs=1e-14
            )
            assert entry.alice.y == pytest.approx(0.0, abs=1e-14)

    def test_bob_settings(self):
        rng = np.random.default_rng(7)
        phi = 0.37
        frame, _ = default_frames()
        sched = build_schedule(frame, 4, phi)
        for entry in sched.entries:
            assert entry.bob0 == entry.alice
            cx, cy, cz = _cross(frame.normal, entry.alice).tolist()
            want = (
                math.cos(phi) * entry.alice.x + math.sin(phi) * cx,
                math.cos(phi) * entry.alice.y + math.sin(phi) * cy,
                math.cos(phi) * entry.alice.z + math.sin(phi) * cz,
            )
            assert np.allclose(entry.bobphi, want, atol=1e-14)
            assert abs(entry.bobphi.dot(entry.bobphi) - 1.0) < 1e-12

    def test_rejects_zero_settings(self):
        frame, _ = default_frames()
        with pytest.raises(ValueError):
            build_schedule(frame, 0, 0.1)


class TestPlaneSettings:
    def test_rows_follow_the_rotation_recurrence(self):
        # each a_k is the plain-Python turn of the seed by k pi/N, bit for bit
        for frames in (default_frames(), random_frames(np.random.default_rng(8))):
            alice, turned = plane_settings(frames, 4)
            assert alice.shape == turned.shape == (8, 3)
            for j, frame in enumerate(frames):
                normal = np.asarray(frame.normal).tolist()
                for k in range(4):
                    a = turn(frame.seed, frame.normal, k * math.pi / 4)
                    assert alice[4 * j + k].tolist() == list(a)
                    assert turned[4 * j + k].tolist() == list(cross(normal, a))

    def test_default_frame_rows_are_exact_cos_and_sin(self):
        for n in range(1, 1001):
            alice, _ = plane_settings(default_frames(), n)
            angles = [k * math.pi / n for k in range(n)]
            assert alice[:n].tolist() == [[math.cos(x), math.sin(x), 0.0] for x in angles]
            assert alice[n:].tolist() == [[math.cos(x), 0.0, math.sin(x)] for x in angles]

    def test_offset_rows_are_cos_a_plus_sin_normal_cross_a(self):
        # no rescale, even for a seed with |v|^2 - 1 = 4.0e-15, which
        # UnitVector stores as given
        seed = UnitVector(1.0 + 1.9e-15, 0.0, 0.0)
        for frames in ((PlaneFrame(UnitVector(0, 0, 1), seed),),
                       random_frames(np.random.default_rng(9))):
            alice, turned = plane_settings(frames, 3)
            normals = [np.asarray(f.normal).tolist() for f in frames for _ in range(3)]
            for phi in np.linspace(0.0, math.pi, 181).tolist():
                c, s = math.cos(phi), math.sin(phi)
                want = [[c * x + s * y for x, y in zip(a, cross(normal, a))]
                        for normal, a in zip(normals, alice.tolist())]
                assert offset_settings(alice, turned, phi).tolist() == want


class TestScheduleRows:
    def test_order_matches_plain_python_settings(self):
        # per plane and setting: (alice, bob0), then (alice, bobphi), from
        # the plain-Python per-k turns
        rng = np.random.default_rng(12)
        whole = (PlaneFrame(UnitVector(0, 0, 1), UnitVector(1, 0, 0)),
                 PlaneFrame(UnitVector(0, -1, 0), UnitVector(1, 0, 0)))  # int components
        for frames in (default_frames(), whole, random_frames(rng)):
            for n in (1, 2, 3, 8):
                phi = float(rng.uniform(-math.pi, math.pi))
                a, b = schedule_rows(frames, n, phi)
                assert a.shape == b.shape == (4 * n, 3)
                pairs = np.asarray(setting_pairs(frames, n, phi))
                assert np.stack([a, b], axis=1).tolist() == pairs.tolist()

    def test_rows_are_plane_and_offset_settings(self):
        frames = default_frames()
        alice, turned = plane_settings(frames, 5)
        a, b = schedule_rows(frames, 5, 0.4)
        assert a[0::2].tolist() == a[1::2].tolist() == b[0::2].tolist() == alice.tolist()
        assert b[1::2].tolist() == offset_settings(alice, turned, 0.4).tolist()


class TestDefaultFrames:
    def test_normals_orthogonal(self):
        f1, f2 = default_frames()
        assert f1.normal.dot(f2.normal) == 0.0

    def test_plane1_seed_is_hv_axis(self):
        f1, _ = default_frames()
        assert np.asarray(f1.seed).tolist() == [1.0, 0.0, 0.0]

    def test_plane2_quarter_turn_reaches_circular(self):
        _, f2 = default_frames()
        out = rotate(f2.seed, f2.normal, math.pi / 2)
        assert out.z == pytest.approx(1.0, abs=1e-15)
        assert abs(out.x) < 1e-15 and abs(out.y) < 1e-15

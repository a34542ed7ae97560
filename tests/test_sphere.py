import math
import re

import numpy as np
import pytest
from helpers import cross, dot, plane_rows, random_frames, random_unit, setting_pairs, turn, unit

from nlvtest.inequality import discrete_average, l_n, max_violation_phi
from nlvtest.leggett import admissible_C_range, explicit_model_margin, leggett_outcomes
from nlvtest.quantum import correlation, outcome_probabilities, singlet
from nlvtest.simulate import ExperimentConfig
from nlvtest.sphere import (
    MAX_SETTINGS,
    _cross,
    _dot,
    build_schedule,
    check_frames,
    default_frames,
    offset_settings,
    plane_settings,
    row_setting,
    schedule_rows,
)

DEFAULT_ROWS = [[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]]
TILTED_ROWS = [[[0.0, 0.0, 1.0], [0.6, 0.8, 0.0]], [[0.8, -0.6, 0.0], [0.6, 0.8, 0.0]]]
SLOTS = [(0, 0), (0, 1), (1, 0), (1, 1)]  # (plane, row): row 0 the normal, row 1 the seed


def rodrigues_matrix(axis, angle: float) -> np.ndarray:
    """Independent matrix-form oracle: R = I + sin(t) K + (1 - cos(t)) K^2."""
    x, y, z = axis
    k = np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def frames_with(base, slot, row) -> list:
    """The rows ``base`` as new nested lists, with ``row`` in ``slot``."""
    frames = [[list(r) for r in plane] for plane in base]
    plane, i = slot
    frames[plane][i] = row
    return frames


_ROW_ENTRY_POINTS = {
    "admissible_C_range": lambda r: admissible_C_range(r, r, r, r),
    "explicit_model_margin": lambda r: explicit_model_margin(r, r, [[r, r]]),
    "leggett_outcomes": lambda r: leggett_outcomes([r], [r], [r], [r], [0.0]),
    "discrete_average": lambda r: discrete_average(r, r, 2),
    "correlation": lambda r: correlation(singlet(), r, r),
    "outcome_probabilities": lambda r: outcome_probabilities(singlet(), r, r),
}


class TestCheckFrames:
    @pytest.mark.parametrize("slot", SLOTS, ids=["n1", "s1", "n2", "s2"])
    @pytest.mark.parametrize("bad", ["1.1x", "zero", "nan", "inf", "huge"])
    def test_refuses_a_row_that_is_not_a_unit_vector(self, slot, bad):
        plane, i = slot
        row = {
            "1.1x": [1.1 * x for x in DEFAULT_ROWS[plane][i]],
            "zero": [0.0, 0.0, 0.0],
            "nan": [math.nan, 0.0, 0.0],
            "inf": [math.inf, 0.0, 0.0],
            "huge": [1e200, 0.0, 0.0],
        }[bad]
        with pytest.raises(ValueError, match=r"^not a unit vector: \|v\| = "):
            check_frames(frames_with(DEFAULT_ROWS, slot, row))

    @pytest.mark.parametrize("slot", SLOTS, ids=["n1", "s1", "n2", "s2"])
    def test_rescales_a_row_near_unit(self, slot):
        plane, i = slot
        row = [(1.0 + 5e-10) * x for x in TILTED_ROWS[plane][i]]
        frames = check_frames(frames_with(TILTED_ROWS, slot, row))
        assert frames.tolist() == frames_with(TILTED_ROWS, slot, list(unit(*row)))
        assert abs(dot(frames[plane, i], frames[plane, i]) - 1.0) < 1e-12

    @pytest.mark.parametrize("slot", SLOTS, ids=["n1", "s1", "n2", "s2"])
    def test_keeps_a_row_within_the_rescale_skip(self, slot):
        # |v|^2 - 1 = 4.0e-15, within _RENORM_SKIP: stored as given
        plane, i = slot
        frames = frames_with(DEFAULT_ROWS, slot, [(1.0 + 1.9e-15) * x for x in DEFAULT_ROWS[plane][i]])
        assert check_frames(frames).tolist() == frames

    # unit seeds 0.1 along their plane's normal
    @pytest.mark.parametrize("plane, seed", [(0, [0.0, 0.1, 0.9949874371066199]),
                                             (1, [0.9949874371066199, -0.1, 0.0])])
    def test_refuses_seed_out_of_plane(self, plane, seed):
        with pytest.raises(ValueError, match=r"^seed not in plane: normal\.seed = "):
            check_frames(frames_with(DEFAULT_ROWS, (plane, 1), seed))

    def test_refuses_normals_that_are_not_orthogonal(self):
        frames = [DEFAULT_ROWS[0], [list(unit(0.1, 0.0, 1.0)), [0.0, 1.0, 0.0]]]
        with pytest.raises(ValueError, match=r"^plane normals must be orthogonal, got n1\.n2 = "):
            check_frames(frames)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 4), (3, 2, 3), (1, 2, 3)])
    def test_refuses_shapes_other_than_2_2_3(self, shape):
        frames = np.zeros(shape)
        frames[...] = 1.0 / math.sqrt(shape[-1])
        with pytest.raises(ValueError, match=re.escape(f"shape (2, 2, 3); got {shape}") + "$"):
            check_frames(frames)

    @pytest.mark.parametrize("entry", ["l_n", "max_violation_phi", "ExperimentConfig"])
    @pytest.mark.parametrize("planes", [1, 3])
    def test_entry_points_take_exactly_two_planes(self, entry, planes):
        # a third plane orthogonal to both defaults, so only the count is wrong
        frames = (DEFAULT_ROWS + [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])[:planes]
        call = {
            "l_n": lambda: l_n(singlet(), frames, 2, 0.3),
            "max_violation_phi": lambda: max_violation_phi(singlet(), frames, 2),
            "ExperimentConfig": lambda: ExperimentConfig(frames=frames),
        }[entry]
        with pytest.raises(ValueError, match=re.escape(f"shape (2, 2, 3); got ({planes}, 2, 3)") + "$"):
            call()

    def test_result_is_a_read_only_float_copy(self):
        given = [[[0, 0, 1], [1, 0, 0]], [[0, -1, 0], [1, 0, 0]]]  # int components
        frames = check_frames(given)
        assert frames.dtype == float and frames.tolist() == DEFAULT_ROWS
        given[0][0][2] = 5
        assert frames[0, 0, 2] == 1.0
        for result in (frames, default_frames(), check_frames(default_frames())):
            with pytest.raises(ValueError, match="read-only"):
                result[0, 0, 0] = 1.0


class TestRowProducts:
    def test_dot_cross(self):
        a, b = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        assert _dot(a, b) == 0.0
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

    @pytest.mark.parametrize("product", [_dot, _cross])
    @pytest.mark.parametrize("width", [2, 4])
    def test_refuses_rows_that_are_not_three_components_on_either_side(self, product, width):
        bad, good = np.zeros((5, width)), np.zeros((1, 3))
        for p, q in ((bad, good), (good, bad)):
            message = re.escape(f"need rows of three components, got shapes {p.shape} and {q.shape}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                product(p, q)

    # every setting-row input is read through _dot or _cross, so no entry point
    # reads a four-component row by its first three components
    @pytest.mark.parametrize("entry", sorted(_ROW_ENTRY_POINTS))
    @pytest.mark.parametrize("row", [[1.0, 0.0], [1.0, 0.0, 0.0, 7.0]], ids=["two", "four"])
    def test_entry_points_refuse_rows_that_are_not_three_components(self, entry, row):
        with pytest.raises(ValueError, match="^need rows of three components, got shapes "):
            _ROW_ENTRY_POINTS[entry](row)


class TestReferenceTurn:
    # the plain-Python reference turn of the tests
    def test_quarter_turn_about_z(self):
        x, y, _ = turn((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), math.pi / 2)
        assert x == pytest.approx(0.0, abs=1e-15)
        assert y == pytest.approx(1.0, abs=1e-15)

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_unit(rng)
            assert turn(v, random_unit(rng), 0.0) == v

    def test_eighth_turn(self):
        x, y, z = turn((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), math.pi / 4)
        assert x == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert y == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert z == 0.0

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            v = random_unit(rng)
            axis = random_unit(rng)
            angle = rng.uniform(-2 * math.pi, 2 * math.pi)
            got = turn(v, axis, angle)
            want = rodrigues_matrix(axis, angle) @ np.asarray(v)
            assert np.allclose(got, want, atol=1e-12)

    def test_half_turn_flips_in_plane_vector(self):
        rng = np.random.default_rng(3)
        for n in range(1, 17):
            axis = random_unit(rng)
            v = random_unit(rng)
            # project v into the plane orthogonal to axis
            d = dot(v, axis)
            v = unit(*(vc - d * ac for vc, ac in zip(v, axis)))
            out = v
            for _ in range(n):
                out = turn(out, axis, math.pi / n)
            assert all(abs(oc + vc) < 1e-9 for oc, vc in zip(out, v))


class TestBuildSchedule:
    # the per-plane view of schedule_rows that the benchmark's scan ops read
    def test_two_settings_at_quarter_steps(self):
        sched = build_schedule(((0, 0, 1), (1, 0, 0)), 2, math.radians(15))
        assert sched.entries[0].alice == (1.0, 0.0, 0.0)
        x, y, _ = sched.entries[1].alice
        assert x == pytest.approx(0.0, abs=1e-15)
        assert y == pytest.approx(1.0, abs=1e-15)

    def test_single_setting_is_seed(self):
        sched = build_schedule(((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)), 1, 0.3)
        assert len(sched.entries) == 1
        assert sched.entries[0].alice == (1.0, 0.0, 0.0)

    def test_three_settings_match_repeated_rotation(self):
        normal, seed = (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)
        sched = build_schedule((normal, seed), 3, 0.1)
        for k, entry in enumerate(sched.entries):
            # the seed turned once by k pi/3, bit for bit
            assert entry.alice == turn(seed, normal, k * math.pi / 3)
            # angles 0, 60, 120 degrees from the seed, in the (S1, S3) plane
            assert dot(entry.alice, seed) == pytest.approx(math.cos(k * math.pi / 3), abs=1e-14)
            assert entry.alice[1] == pytest.approx(0.0, abs=1e-14)

    def test_bob_settings(self):
        phi = 0.37
        frame, _ = default_frames()
        sched = build_schedule(frame, 4, phi)
        for entry in sched.entries:
            assert entry.bob0 == entry.alice
            want = [math.cos(phi) * a + math.sin(phi) * t
                    for a, t in zip(entry.alice, _cross(frame[0], entry.alice).tolist())]
            assert np.allclose(entry.bobphi, want, atol=1e-14)
            assert abs(dot(entry.bobphi, entry.bobphi) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("phi_deg", [10.0, 15.0, 20.0])
    def test_entries_are_float_triples_of_the_plane_rows(self, n, phi_deg):
        # the benchmark's scan pairs: each default plane's (alice, bob0) and
        # (alice, bobphi), exactly that plane's rows of schedule_rows
        phi = math.radians(phi_deg)
        rows = np.stack(schedule_rows(default_frames(), n, phi), axis=1)
        for plane, frame in enumerate(default_frames()):
            pairs = []
            for entry in build_schedule(frame, n, phi).entries:
                pairs += [(entry.alice, entry.bob0), (entry.alice, entry.bobphi)]
            assert all(type(v) is tuple and len(v) == 3 and all(type(c) is float for c in v)
                       for pair in pairs for v in pair)
            plane_rows = rows[2 * n * plane:2 * n * (plane + 1)].tolist()
            assert pairs == [(tuple(a), tuple(b)) for a, b in plane_rows]

    def test_rejects_zero_settings(self):
        frame, _ = default_frames()
        with pytest.raises(ValueError):
            build_schedule(frame, 0, 0.1)


class TestPlaneSettings:
    def test_rows_follow_the_rotation_recurrence(self):
        # each (a_k, normal x a_k) is the plain-Python closed form, bit for
        # bit, and a_k the seed turned by k pi/N
        for frames in (default_frames(), random_frames(np.random.default_rng(8))):
            alice, turned = plane_settings(frames, 4)
            assert alice.shape == turned.shape == (8, 3)
            for j, (normal, seed) in enumerate(frames.tolist()):
                for k, (a, t) in enumerate(plane_rows((normal, seed), 4)):
                    assert alice[4 * j + k].tolist() == list(a)
                    assert turned[4 * j + k].tolist() == list(t)
                    assert np.allclose(a, turn(seed, normal, k * math.pi / 4), rtol=0.0, atol=1e-15)
                    assert np.allclose(t, cross(normal, a), rtol=0.0, atol=1e-15)

    def test_norm_preserved_many_trials(self):
        # the closed form does not rescale its rows: unit and orthogonal to
        # within rounding for any frames that check_frames accepts
        rng = np.random.default_rng(2)
        for _ in range(2000):
            alice, turned = plane_settings(random_frames(rng), 8)
            for rows in (alice, turned):
                assert np.abs((rows * rows).sum(axis=1) - 1.0).max() < 1e-12
            assert np.abs((alice * turned).sum(axis=1)).max() < 1e-12

    def test_default_frame_rows_are_exact_cos_and_sin(self):
        for n in range(1, 1001):
            alice, _ = plane_settings(default_frames(), n)
            angles = [k * math.pi / n for k in range(n)]
            assert alice[:n].tolist() == [[math.cos(x), math.sin(x), 0.0] for x in angles]
            assert alice[n:].tolist() == [[math.cos(x), 0.0, math.sin(x)] for x in angles]

    @pytest.mark.parametrize("entry", ["plane_settings", "schedule_rows", "l_n", "max_violation_phi"])
    def test_refuses_more_than_max_settings(self, entry):
        # the one builder of setting rows refuses before it allocates them
        n = MAX_SETTINGS + 1
        call = {
            "plane_settings": lambda: plane_settings(default_frames(), n),
            "schedule_rows": lambda: schedule_rows(default_frames(), n, 0.3),
            "l_n": lambda: l_n(singlet(), default_frames(), n, [0.1, 0.2]),
            "max_violation_phi": lambda: max_violation_phi(singlet(), default_frames(), n),
        }[entry]
        with pytest.raises(ValueError, match=f"^need at most {MAX_SETTINGS} settings per plane, got {n}$"):
            call()

    def test_offset_rows_are_cos_a_plus_sin_normal_cross_a(self):
        # the turned rows t_k = normal x a_k in the plain-Python closed form;
        # no rescale, even for a seed with |v|^2 - 1 = 4.0e-15, which
        # check_frames keeps as given; one plane or two
        seed = (1.0 + 1.9e-15, 0.0, 0.0)
        for frames in ([((0.0, 0.0, 1.0), seed)], random_frames(np.random.default_rng(9))):
            alice, turned = plane_settings(frames, 3)
            rows = [pair for frame in np.asarray(frames).tolist() for pair in plane_rows(frame, 3)]
            for phi in np.linspace(0.0, math.pi, 181).tolist():
                c, s = math.cos(phi), math.sin(phi)
                want = [[c * x + s * y for x, y in zip(a, t)] for a, t in rows]
                assert offset_settings(alice, turned, phi).tolist() == want


class TestScheduleRows:
    def test_order_matches_plain_python_settings(self):
        # per plane and setting: (alice, bob0), then (alice, bobphi), from
        # the plain-Python per-k turns
        rng = np.random.default_rng(12)
        whole = (((0, 0, 1), (1, 0, 0)), ((0, -1, 0), (1, 0, 0)))  # int components
        for frames in (default_frames(), whole, random_frames(rng)):
            for n in (1, 2, 3, 8):
                phi = float(rng.uniform(-math.pi, math.pi))
                a, b = schedule_rows(frames, n, phi)
                assert a.shape == b.shape == (4 * n, 3)
                pairs = np.asarray(setting_pairs(frames, n, phi))
                assert np.stack([a, b], axis=1).tolist() == pairs.tolist()

    def test_row_setting_names_rows_in_sampling_order(self):
        for n in (1, 2, 5):
            assert [row_setting(n, row) for row in range(4 * n)] == [
                (plane, k, offset) for plane in (1, 2) for k in range(n) for offset in ("0", "phi")
            ]

    def test_rows_are_plane_and_offset_settings(self):
        frames = default_frames()
        alice, turned = plane_settings(frames, 5)
        a, b = schedule_rows(frames, 5, 0.4)
        assert a[0::2].tolist() == a[1::2].tolist() == b[0::2].tolist() == alice.tolist()
        assert b[1::2].tolist() == offset_settings(alice, turned, 0.4).tolist()


class TestAngleArrays:
    # over a 1-D array of P angles, one (P, rows, 3) block per angle
    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_offset_and_schedule_rows_equal_per_angle_calls(self, count):
        rng = np.random.default_rng(13)
        angles = rng.uniform(-math.pi, math.pi, count)
        for frames in (default_frames(), random_frames(rng)):
            alice, turned = plane_settings(frames, 3)
            bob = offset_settings(alice, turned, angles.tolist())
            assert bob.shape == (count, 6, 3)
            assert bob.tolist() == [offset_settings(alice, turned, p).tolist() for p in angles.tolist()]
            a, b = schedule_rows(frames, 3, angles)
            assert a.shape == b.shape == (count, 12, 3)
            per_angle = [schedule_rows(frames, 3, p) for p in angles.tolist()]
            assert a.tolist() == [x.tolist() for x, _ in per_angle]
            assert b.tolist() == [y.tolist() for _, y in per_angle]

    def test_refuses_angles_of_two_axes(self):
        alice, turned = plane_settings(default_frames(), 2)
        with pytest.raises(ValueError, match="1-D"):
            offset_settings(alice, turned, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="1-D"):
            schedule_rows(default_frames(), 2, [[0.1]])


class TestDefaultFrames:
    def test_rows_are_exact(self):
        frames = default_frames()
        assert frames.shape == (2, 2, 3) and frames.dtype == float
        assert frames.tolist() == DEFAULT_ROWS
        assert check_frames(frames).tolist() == DEFAULT_ROWS

    def test_normals_orthogonal(self):
        (n1, _), (n2, _) = default_frames().tolist()
        assert dot(n1, n2) == 0.0

    def test_plane1_seed_is_hv_axis(self):
        assert default_frames()[0, 1].tolist() == [1.0, 0.0, 0.0]

    def test_plane2_quarter_turn_reaches_circular(self):
        normal, seed = default_frames()[1].tolist()
        x, y, z = turn(seed, normal, math.pi / 2)
        assert z == pytest.approx(1.0, abs=1e-15)
        assert abs(x) < 1e-15 and abs(y) < 1e-15

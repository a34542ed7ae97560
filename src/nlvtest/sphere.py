"""Poincare-sphere geometry: the measurement planes and their rotated
setting schedules, stacked as (k, 3) rows.  A plane pair is one read-only
float array of shape (2, 2, 3), rows (normal, seed) per plane, as
``check_frames`` returns it.  The setting rows come in closed form,
a_k = cos t_k seed + sin t_k (normal x seed), t_k = k pi/N, with the turned
rows normal x a_k = cos t_k (normal x seed) - sin t_k seed, and are not
rescaled; ``schedule_rows`` alone fixes the order of the measured
setting pairs, and ``row_setting`` names one of its rows.  Bob's offset
rows are computed over a 1-D array of angles along a leading axis, and
one angle gets its one block without that axis.

Conventions used throughout the package:

* Stokes basis (S1, S2, S3) = (H/V linear, +/-45 deg linear, circular).
* Rotations are right-handed about the axis (Rodrigues formula).
* Angles are radians unless a name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "check_frames",
    "ScheduleEntry",
    "SettingSchedule",
    "plane_settings",
    "offset_settings",
    "schedule_rows",
    "row_setting",
    "build_schedule",
    "default_frames",
]

# Unit-norm tolerance at API boundaries; check_frames rescales a plane row
# so that its stored components satisfy |v| = 1 to ~1e-15.
NORM_TOLERANCE = 1e-9
_RENORM_SKIP = 4e-15  # skip division when norm^2 is already this close to 1
# Settings per plane at most: the setting rows, and the correlation rows of
# each l_n block of angles, grow linearly with N.
MAX_SETTINGS = 1_000


def _rows(p, q):
    """p and q as float arrays of rows of three components along the last
    axis; any other last axis, on either, is refused, naming both shapes."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.shape[-1:] != (3,) or q.shape[-1:] != (3,):
        raise ValueError(f"need rows of three components, got shapes {p.shape} and {q.shape}")
    return p, q


def _dot(p, q):
    """Row-wise p.q over the last axis, added x + y + z left to right."""
    p, q = _rows(p, q)
    m = p * q
    return m[..., 0] + m[..., 1] + m[..., 2]


def _cross(p, q):
    """Row-wise p x q over the last axis, in np.cross's operation order."""
    p, q = _rows(p, q)
    p0, p1, p2, q0, q1, q2 = p[..., 0], p[..., 1], p[..., 2], q[..., 0], q[..., 1], q[..., 2]
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    np.subtract(p1 * q2, p2 * q1, out=out[..., 0])
    np.subtract(p2 * q0, p0 * q2, out=out[..., 1])
    np.subtract(p0 * q1, p1 * q0, out=out[..., 2])
    return out


def _setting_count(n) -> int:
    """``n`` as an int: a positive integer, or a float with a positive
    integral value.  Anything else, a bool included (True would count as
    one setting), is refused, naming the value."""
    try:
        count = 0 if isinstance(n, (bool, np.bool_)) else int(n)
    except (TypeError, ValueError, OverflowError):  # a non-number, NaN, inf
        count = 0
    if count < 1 or count != n:
        raise ValueError(f"need a positive integer setting count, got {n!r}")
    return count


def _angle_list(phi) -> tuple[list[float], bool]:
    """The angles of ``phi`` as a list of floats, and whether ``phi`` is one
    angle (a number or a 0-d array) rather than a 1-D array.  Any other
    shape, and a NaN or infinite angle, is refused with a ValueError naming
    it."""
    array = np.asarray(phi, dtype=float)
    if array.ndim > 1:
        raise ValueError(f"need one angle or a 1-D array of angles, got shape {array.shape}")
    angles = array.reshape(-1).tolist()
    for angle in angles:
        if not math.isfinite(angle):
            raise ValueError(f"need a finite angle, got {angle!r}")
    return angles, array.ndim == 0


def check_frames(frames: ArrayLike) -> np.ndarray:
    """The two measurement planes as a new read-only (2, 2, 3) float array,
    rows (normal, seed) per plane.

    Refuses, with one ValueError each, any other shape; a row whose norm is
    more than NORM_TOLERANCE from 1 (zero, NaN and inf included); a seed out
    of its plane; and normals that are not orthogonal, since the model bound
    holds only for orthogonal planes.  A row whose |v|^2 is more than
    _RENORM_SKIP from 1 is divided by its norm; any other is kept as given.
    """
    rows = np.array(frames, dtype=float)  # a copy, made read-only below
    if rows.shape != (2, 2, 3):
        raise ValueError(f"need two planes of (normal, seed) rows, shape (2, 2, 3); got {rows.shape}")
    planes = rows.tolist()  # plain floats: each check is a few scalar operations
    for p, plane in enumerate(planes):
        for i, (x, y, z) in enumerate(plane):
            n2 = x * x + y * y + z * z
            if not abs(math.sqrt(n2) - 1.0) <= NORM_TOLERANCE:  # also rejects NaN
                raise ValueError(f"not a unit vector: |v| = {math.sqrt(n2)!r}")
            if abs(n2 - 1.0) > _RENORM_SKIP:
                n = math.sqrt(n2)
                rows[p, i] = plane[i] = [x / n, y / n, z / n]
        (nx, ny, nz), (sx, sy, sz) = plane
        dot = nx * sx + ny * sy + nz * sz
        if abs(dot) > NORM_TOLERANCE:
            raise ValueError(f"seed not in plane: normal.seed = {dot!r}")
    (ax, ay, az), (bx, by, bz) = planes[0][0], planes[1][0]
    dot = ax * bx + ay * by + az * bz
    if abs(dot) > NORM_TOLERANCE:
        raise ValueError(f"plane normals must be orthogonal, got n1.n2 = {dot!r}")
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, slots=True)
class ScheduleEntry:
    """One rotated setting: Alice's direction and Bob's at offsets 0 and phi,
    each a float triple."""

    alice: tuple[float, float, float]
    bob0: tuple[float, float, float]
    bobphi: tuple[float, float, float]


@dataclass(frozen=True, slots=True)
class SettingSchedule:
    entries: tuple[ScheduleEntry, ...]


def plane_settings(frames: ArrayLike, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Alice's settings a_k = R(t_k) seed, t_k = k pi/N, k < N, R(x) the
    right-handed turn by x about the plane normal, for frames of
    (planes, 2, 3) rows (normal, seed), stacked plane by plane as
    (planes N, 3) rows, and the turned rows normal x a_k.  With
    w = normal x seed, both come in closed form from math.cos and math.sin
    of t_k: a_k = cos t_k seed + sin t_k w and normal x a_k =
    cos t_k w - sin t_k seed (to within 2 |normal.seed| <= 2e-9 for a seed
    that check_frames accepts), so a default frame's rows are exactly
    (cos, sin, 0) and (cos, 0, sin).  Bob's aligned setting b(0) is a_k
    itself.  More than MAX_SETTINGS settings are refused before any row is
    built."""
    n = _setting_count(n)
    if n > MAX_SETTINGS:
        raise ValueError(f"need at most {MAX_SETTINGS} settings per plane, got {n}")
    angles = [k * math.pi / n for k in range(n)]
    c = np.array([math.cos(x) for x in angles])[:, None]
    s = np.array([math.sin(x) for x in angles])[:, None]
    frames = np.asarray(frames, dtype=float)
    seed = frames[:, None, 1]  # (planes, 1, 3)
    w = _cross(frames[:, None, 0], seed)
    return (c * seed + s * w).reshape(-1, 3), (c * w - s * seed).reshape(-1, 3)


def offset_settings(alice: np.ndarray, turned: np.ndarray, phi: ArrayLike) -> np.ndarray:
    """Bob's offset settings b(phi) = cos(phi) a + sin(phi) (normal x a) for
    the rows of plane_settings: (P, rows, 3) over a 1-D array of P angles,
    from math.cos and math.sin of each angle, or the one (rows, 3) block of
    one angle."""
    angles, one = _angle_list(phi)
    bob = np.array([math.cos(p) for p in angles])[:, None, None] * alice
    bob += np.array([math.sin(p) for p in angles])[:, None, None] * turned
    return bob[0] if one else bob


def schedule_rows(frames: ArrayLike, n: int, phi: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Every measured setting pair (a, b) of the planes as (2 planes N, 3)
    rows a and b, in sampling order: plane, rotation index k, then Bob at
    offset 0 (b = a_k) before offset phi (b = b_k(phi)).  Over a 1-D array of
    P angles, a and b are (P, 2 planes N, 3), one such pair set per angle."""
    alice, turned = plane_settings(frames, n)
    angles, one = _angle_list(phi)
    bob = offset_settings(alice, turned, angles)
    a = np.repeat(np.broadcast_to(alice, bob.shape), 2, axis=-2)
    b = a.copy()
    b[..., 1::2, :] = bob
    return (a[0], b[0]) if one else (a, b)


def row_setting(n: int, row: int) -> tuple[int, int, str]:
    """The measured pair at sampling row ``row`` of schedule_rows for N
    settings: (plane, starting at 1; rotation index k; Bob's offset "0" or
    "phi")."""
    return row // (2 * n) + 1, row % (2 * n) // 2, ("0", "phi")[row % 2]


def build_schedule(frame: ArrayLike, n: int, phi: float) -> SettingSchedule:
    """The N setting triples (a_k, b(0) = a_k, b(phi)) of one plane, given as
    its (2, 3) rows (normal, seed): a view of schedule_rows, as float
    triples."""
    a, b = schedule_rows([frame], n, phi)
    alice = [tuple(row) for row in a[::2].tolist()]
    bob = [tuple(row) for row in b[1::2].tolist()]
    return SettingSchedule(tuple(ScheduleEntry(x, x, y) for x, y in zip(alice, bob)))


_DEFAULT_FRAMES = np.array([[(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)], [(0.0, -1.0, 0.0), (1.0, 0.0, 0.0)]])
_DEFAULT_FRAMES.flags.writeable = False  # shared by every caller


def default_frames() -> np.ndarray:
    """The two orthogonal measurement planes used by default, as read-only
    (2, 2, 3) rows (normal, seed).

    Plane 1 is the linear-polarization equator (normal along S3, seeded at the
    H/V axis).  Plane 2 is spanned by S1 and S3; its normal points along -S2
    so that a right-handed quarter turn takes the H/V axis to right-circular.
    """
    return _DEFAULT_FRAMES

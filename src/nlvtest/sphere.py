"""Poincare-sphere geometry: unit Stokes vectors, measurement planes, and
rotated setting schedules, stacked as (k, 3) rows.  The rows come in closed
form, a_k = R(k pi/N) seed, from one row-wise Rodrigues turn (``_turn``), and
are not rescaled; ``schedule_rows`` alone fixes the order of the measured
setting pairs.

Conventions used throughout the package:

* Stokes basis (S1, S2, S3) = (H/V linear, +/-45 deg linear, circular).
* Rotations are right-handed about the axis (Rodrigues formula).
* Angles are radians unless a name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "UnitVector",
    "PlaneFrame",
    "ScheduleEntry",
    "SettingSchedule",
    "plane_settings",
    "offset_settings",
    "schedule_rows",
    "build_schedule",
    "default_frames",
]

# Unit-norm tolerance at API boundaries; constructors renormalize so that
# stored components satisfy |v| = 1 to ~1e-15.
NORM_TOLERANCE = 1e-9
_RENORM_SKIP = 4e-15  # skip division when norm^2 is already this close to 1


@dataclass(frozen=True, slots=True)
class UnitVector:
    """Point on the Poincare sphere, stored with |v| = 1 within 1e-12."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not abs(math.sqrt(n2) - 1.0) <= NORM_TOLERANCE:  # also rejects NaN
            raise ValueError(f"not a unit vector: |v| = {math.sqrt(n2)!r}")
        if abs(n2 - 1.0) > _RENORM_SKIP:
            n = math.sqrt(n2)
            object.__setattr__(self, "x", self.x / n)
            object.__setattr__(self, "y", self.y / n)
            object.__setattr__(self, "z", self.z / n)

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "UnitVector":
        """Build from an arbitrary non-zero vector by rescaling."""
        n = math.sqrt(x * x + y * y + z * z)
        if n < 1e-300:
            raise ValueError("cannot normalize the zero vector")
        return cls(x / n, y / n, z / n)

    def dot(self, other: "UnitVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The (3,) row (x, y, z), float unless ``dtype`` says otherwise, so
        that np.asarray stacks nested sequences of UnitVectors into rows."""
        if copy is False:
            raise ValueError("a UnitVector's row is always a new array")
        return np.array((self.x, self.y, self.z), dtype=float if dtype is None else dtype)


def _dot(p, q):
    """Row-wise p.q over the last axis, in UnitVector.dot's operation order."""
    m = np.asarray(p, dtype=float) * np.asarray(q, dtype=float)
    return m[..., 0] + m[..., 1] + m[..., 2]


def _cross(p, q):
    """Row-wise p x q over the last axis, in np.cross's operation order."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    p0, p1, p2, q0, q1, q2 = p[..., 0], p[..., 1], p[..., 2], q[..., 0], q[..., 1], q[..., 2]
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    np.subtract(p1 * q2, p2 * q1, out=out[..., 0])
    np.subtract(p2 * q0, p0 * q2, out=out[..., 1])
    np.subtract(p0 * q1, p1 * q0, out=out[..., 2])
    return out


def _turn(v, axis, c, s):
    """Rows ``v`` turned right-handed about the unit rows ``axis`` by the angle
    with cosine ``c`` and sine ``s`` (Rodrigues), all broadcast row-wise."""
    return v * c + _cross(axis, v) * s + axis * (_dot(axis, v)[..., None] * (1.0 - c))


def _setting_count(n) -> int:
    """``n`` as an int: a positive integer, or a float with a positive
    integral value.  Anything else is refused, naming the value."""
    try:
        count = int(n)
    except (TypeError, ValueError, OverflowError):  # a non-number, NaN, inf
        count = 0
    if count < 1 or count != n:
        raise ValueError(f"need a positive integer setting count, got {n!r}")
    return count


@dataclass(frozen=True, slots=True)
class PlaneFrame:
    """Great-circle plane given by its normal and a seed direction in the
    plane."""

    normal: UnitVector
    seed: UnitVector

    def __post_init__(self) -> None:
        if abs(self.normal.dot(self.seed)) > NORM_TOLERANCE:
            raise ValueError(
                f"seed not in plane: normal.seed = {self.normal.dot(self.seed)!r}"
            )


@dataclass(frozen=True, slots=True)
class ScheduleEntry:
    """One rotated setting: Alice's direction and Bob's at offsets 0 and phi."""

    alice: UnitVector
    bob0: UnitVector
    bobphi: UnitVector


@dataclass(frozen=True, slots=True)
class SettingSchedule:
    entries: tuple[ScheduleEntry, ...]


def plane_settings(frames: Sequence[PlaneFrame], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Alice's settings a_k = R(k pi/N) seed, k < N, R(x) the right-handed
    turn by x about the plane normal, stacked plane by plane as
    (len(frames) N, 3) rows, and the turned rows normal x a_k.  Each row is
    one Rodrigues turn of the seed by math.cos and math.sin of k pi/N, so a
    default frame's rows are exactly (cos, sin, 0) and (cos, 0, sin).  Bob's
    aligned setting b(0) is a_k itself."""
    n = _setting_count(n)
    angles = [k * math.pi / n for k in range(n)]
    c = np.array([math.cos(x) for x in angles])[:, None]
    s = np.array([math.sin(x) for x in angles])[:, None]
    normal = np.array([np.asarray(frame.normal) for frame in frames])[:, None]  # (planes, 1, 3)
    alice = _turn(np.array([np.asarray(frame.seed) for frame in frames])[:, None], normal, c, s)
    return alice.reshape(-1, 3), _cross(normal, alice).reshape(-1, 3)


def offset_settings(alice: np.ndarray, turned: np.ndarray, phi: float) -> np.ndarray:
    """Bob's offset settings b(phi) = cos(phi) a + sin(phi) (normal x a) for
    the rows of plane_settings."""
    return math.cos(phi) * alice + math.sin(phi) * turned


def schedule_rows(
    frames: Sequence[PlaneFrame], n: int, phi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every measured setting pair (a, b) of the planes as (2 len(frames) N, 3)
    rows a and b, in sampling order: plane, rotation index k, then Bob at
    offset 0 (b = a_k) before offset phi (b = b_k(phi))."""
    alice, turned = plane_settings(frames, n)
    a = np.repeat(alice, 2, axis=0)
    b = a.copy()
    b[1::2] = offset_settings(alice, turned, phi)
    return a, b


def build_schedule(frame: PlaneFrame, n: int, phi: float) -> SettingSchedule:
    """The N setting triples (a_k, b(0) = a_k, b(phi)) of one plane, as
    UnitVectors, which rescale a row whose |v|^2 is more than 4e-15 from 1:
    a view of schedule_rows."""
    a, b = schedule_rows((frame,), n, phi)
    alice = [UnitVector(*row) for row in a[::2].tolist()]
    bob = b[1::2].tolist()
    return SettingSchedule(tuple(ScheduleEntry(x, x, UnitVector(*y)) for x, y in zip(alice, bob)))


def check_orthogonal(frames: tuple[PlaneFrame, PlaneFrame]) -> None:
    """Reject a plane pair whose normals are not orthogonal: the model bound
    holds only for orthogonal measurement planes."""
    dot = frames[0].normal.dot(frames[1].normal)
    if abs(dot) > NORM_TOLERANCE:
        raise ValueError(f"plane normals must be orthogonal, got n1.n2 = {dot!r}")


def default_frames() -> tuple[PlaneFrame, PlaneFrame]:
    """The two orthogonal measurement planes used by default.

    Plane 1 is the linear-polarization equator (normal along S3, seeded at the
    H/V axis).  Plane 2 is spanned by S1 and S3; its normal points along -S2
    so that a right-handed quarter turn takes the H/V axis to right-circular.
    """
    plane1 = PlaneFrame(normal=UnitVector(0.0, 0.0, 1.0), seed=UnitVector(1.0, 0.0, 0.0))
    plane2 = PlaneFrame(normal=UnitVector(0.0, -1.0, 0.0), seed=UnitVector(1.0, 0.0, 0.0))
    return plane1, plane2

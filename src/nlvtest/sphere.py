"""Poincare-sphere geometry: unit Stokes vectors, measurement planes, and
rotated setting schedules, stacked as (k, 3) rows.  ``schedule_rows`` alone
fixes the order of the measured setting pairs.

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
    "rotate",
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

    def cross(self, other: "UnitVector") -> tuple[float, float, float]:
        """Raw cross product (not normalized; may be short)."""
        return (
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def __neg__(self) -> "UnitVector":
        return UnitVector(-self.x, -self.y, -self.z)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The (3,) row (x, y, z), float unless ``dtype`` says otherwise, so
        that np.asarray stacks nested sequences of UnitVectors into rows."""
        if copy is False:
            raise ValueError("a UnitVector's row is always a new array")
        return np.array((self.x, self.y, self.z), dtype=float if dtype is None else dtype)


def _dot(p, q):
    """Row-wise p.q over the last axis, in UnitVector.dot's operation order."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1] + p[..., 2] * q[..., 2]


def rotate(v: UnitVector, axis: UnitVector, angle: float) -> UnitVector:
    """Rotate ``v`` by ``angle`` about ``axis`` (right-handed, Rodrigues)."""
    c = math.cos(angle)
    s = math.sin(angle)
    kx, ky, kz = axis.x, axis.y, axis.z
    d = (kx * v.x + ky * v.y + kz * v.z) * (1.0 - c)
    return UnitVector(
        v.x * c + (ky * v.z - kz * v.y) * s + kx * d,
        v.y * c + (kz * v.x - kx * v.z) * s + ky * d,
        v.z * c + (kx * v.y - ky * v.x) * s + kz * d,
    )


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
    """Alice's settings a_k = R^k(seed), k < N, R the pi/N turn about the plane
    normal, stacked plane by plane as (len(frames) N, 3) rows, and the turned
    rows normal x a_k.  Bob's aligned setting b(0) is a_k itself."""
    if n < 1:
        raise ValueError(f"need at least one setting, got n={n}")
    alice, turned = [], []
    for frame in frames:
        a = frame.seed
        for k in range(n):
            a = rotate(a, frame.normal, math.pi / n) if k else a
            alice.append((a.x, a.y, a.z))
            turned.append(frame.normal.cross(a))
    return np.array(alice, dtype=float), np.array(turned, dtype=float)


def offset_settings(alice: np.ndarray, turned: np.ndarray, phi: float) -> np.ndarray:
    """Bob's offset settings b(phi) = cos(phi) a + sin(phi) (normal x a) for
    the rows of plane_settings, rescaled to unit length where UnitVector
    would rescale them, so each row equals UnitVector's components."""
    b = math.cos(phi) * alice + math.sin(phi) * turned
    n2 = b[:, 0] * b[:, 0] + b[:, 1] * b[:, 1] + b[:, 2] * b[:, 2]
    if (off := np.abs(n2 - 1.0) > _RENORM_SKIP).any():
        b[off] /= np.sqrt(n2[off])[:, None]
    return b


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
    UnitVectors: a view of schedule_rows."""
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

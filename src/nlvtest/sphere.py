"""Poincare-sphere geometry: unit Stokes vectors, measurement planes, and
rotated setting schedules.

Conventions used throughout the package:

* Stokes basis (S1, S2, S3) = (H/V linear, +/-45 deg linear, circular).
* Rotations are right-handed about the axis (Rodrigues formula).
* Angles are radians unless a name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "UnitVector",
    "PlaneFrame",
    "ScheduleEntry",
    "SettingSchedule",
    "rotate",
    "build_schedule",
    "default_frames",
    "analyzer_angles",
    "analyzer_stokes",
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

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


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
    plane.  ``perp`` = normal x seed completes the in-plane frame."""

    normal: UnitVector
    seed: UnitVector
    perp: UnitVector = field(init=False)

    def __post_init__(self) -> None:
        if abs(self.normal.dot(self.seed)) > NORM_TOLERANCE:
            raise ValueError(
                f"seed not in plane: normal.seed = {self.normal.dot(self.seed)!r}"
            )
        object.__setattr__(self, "perp", UnitVector(*self.normal.cross(self.seed)))


@dataclass(frozen=True, slots=True)
class ScheduleEntry:
    """One rotated setting: Alice's direction and Bob's at offsets 0 and phi."""

    alice: UnitVector
    bob0: UnitVector
    bobphi: UnitVector


@dataclass(frozen=True, slots=True)
class SettingSchedule:
    plane_index: int
    n: int
    phi: float
    entries: tuple[ScheduleEntry, ...]


def build_schedule(frame: PlaneFrame, n: int, phi: float, plane_index: int = 1) -> SettingSchedule:
    """Generate the N rotated setting triples for one plane.

    Entry k holds a_k = R^k(seed) with R the rotation by pi/N about the plane
    normal, Bob's aligned setting b(0) = a_k, and the offset setting
    b(phi) = cos(phi) a_k + sin(phi) (normal x a_k).
    """
    if n < 1:
        raise ValueError(f"need at least one setting, got n={n}")
    cos_phi = math.cos(phi)
    sin_phi = math.sin(phi)
    step = math.pi / n
    entries = []
    alice = frame.seed
    for k in range(n):
        if k > 0:
            alice = rotate(alice, frame.normal, step)
        cx, cy, cz = frame.normal.cross(alice)
        bobphi = UnitVector(
            cos_phi * alice.x + sin_phi * cx,
            cos_phi * alice.y + sin_phi * cy,
            cos_phi * alice.z + sin_phi * cz,
        )
        entries.append(ScheduleEntry(alice=alice, bob0=alice, bobphi=bobphi))
    return SettingSchedule(plane_index=plane_index, n=n, phi=phi, entries=tuple(entries))


def default_frames() -> tuple[PlaneFrame, PlaneFrame]:
    """The two orthogonal measurement planes used by default.

    Plane 1 is the linear-polarization equator (normal along S3, seeded at the
    H/V axis).  Plane 2 is spanned by S1 and S3; its normal points along -S2
    so that a right-handed quarter turn takes the H/V axis to right-circular.
    """
    plane1 = PlaneFrame(normal=UnitVector(0.0, 0.0, 1.0), seed=UnitVector(1.0, 0.0, 0.0))
    plane2 = PlaneFrame(normal=UnitVector(0.0, -1.0, 0.0), seed=UnitVector(1.0, 0.0, 0.0))
    return plane1, plane2


def analyzer_angles(v: UnitVector) -> tuple[float, float]:
    """Quarter-wave-plate and polarizer angles (degrees) that project onto
    the polarization state with Stokes vector ``v``.

    The analyzer is a QWP at angle q followed by a linear polarizer at angle
    p; the transmitted-with-certainty state has azimuth q and ellipticity
    p - q.  Among equivalent settings the smallest non-negative pair (mod
    180 deg) is returned.
    """
    chi = 0.5 * math.asin(max(-1.0, min(1.0, v.z)))
    if math.hypot(v.x, v.y) < 1e-12:
        psi = 0.0  # circular states: azimuth undefined, canonical 0
    else:
        psi = 0.5 * math.atan2(v.y, v.x)
    qwp = math.degrees(psi) % 180.0
    pol = math.degrees(psi + chi) % 180.0
    return (qwp, pol)


def analyzer_stokes(qwp_deg: float, pol_deg: float) -> UnitVector:
    """Jones-calculus oracle: Stokes vector analyzed by a QWP at ``qwp_deg``
    followed by a polarizer at ``pol_deg`` (inverse of analyzer_angles)."""
    q = math.radians(qwp_deg)
    p = math.radians(pol_deg)
    # |psi> = R(q) diag(1, i) R(-q) |pol>, written out on (Ex, Ey)
    a = math.cos(p - q)
    b = math.sin(p - q)
    ex = complex(a * math.cos(q), -b * math.sin(q))
    ey = complex(a * math.sin(q), b * math.cos(q))
    s1 = abs(ex) ** 2 - abs(ey) ** 2
    prod = ex.conjugate() * ey
    return UnitVector.normalized(s1, 2.0 * prod.real, 2.0 * prod.imag)

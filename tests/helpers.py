"""Shared randomization helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from nlvtest._checks import _random_unit as random_unit
from nlvtest.sphere import PlaneFrame, UnitVector, rotate


def random_frames(rng: np.random.Generator) -> tuple[PlaneFrame, PlaneFrame]:
    """Random orthogonal plane pair with independently rotated seeds."""
    basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    n1 = UnitVector.normalized(*basis[:, 0])
    n2 = UnitVector.normalized(*basis[:, 1])
    shared = UnitVector.normalized(*basis[:, 2])
    seed1 = rotate(shared, n1, rng.uniform(0.0, 2.0 * math.pi))
    seed2 = rotate(shared, n2, rng.uniform(0.0, 2.0 * math.pi))
    return (PlaneFrame(normal=n1, seed=seed1), PlaneFrame(normal=n2, seed=seed2))


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real

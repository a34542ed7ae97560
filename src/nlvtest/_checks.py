"""Property suites behind the ``check`` CLI command.

Each suite exercises the mathematical guarantees of the inequality and
model-constraint modules on randomized inputs and reports one result per
property.  The test suite reuses these with the full trial counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inequality, leggett
from .sphere import UnitVector, build_schedule, default_frames, rotate

__all__ = ["CheckResult", "lemma_suite", "leggett_suite"]


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_unit(rng: np.random.Generator) -> UnitVector:
    while True:
        x, y, z = rng.normal(size=3)
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1e-6:
            return UnitVector(x / norm, y / norm, z / norm)


def _orthogonal_to(w: UnitVector, rng: np.random.Generator) -> UnitVector:
    while True:
        r = _random_unit(rng)
        cx, cy, cz = w.cross(r)
        norm = math.sqrt(cx * cx + cy * cy + cz * cz)
        if norm > 1e-6:
            return UnitVector(cx / norm, cy / norm, cz / norm)


def lemma_suite(trials: int = 100_000, seed: int = 0) -> list[CheckResult]:
    """Randomized checks of the discrete-averaging estimate."""
    rng = np.random.default_rng(seed)
    results = []

    # lower bound and closed-form identity on random vector pairs
    worst_slack = math.inf
    worst_identity = 0.0
    n_values = range(1, 17)
    per_n = max(1, trials // 16)
    for n in n_values:
        u_n = inequality.u_coefficient(n)
        for _ in range(per_n):
            w = _random_unit(rng)
            c = _random_unit(rng)
            avg, xi = inequality.discrete_average(w, c, n)
            worst_slack = min(worst_slack, avg - u_n)
            closed = (math.sin(xi) + n * u_n * math.cos(xi)) / n
            worst_identity = max(worst_identity, abs(avg - closed))
    results.append(
        CheckResult(
            "lemma-lower-bound",
            worst_slack >= -1e-12,
            f"min(avg - u_N) = {worst_slack:.3e} over {per_n * 16} trials",
        )
    )
    results.append(
        CheckResult(
            "lemma-closed-form",
            worst_identity <= 1e-12,
            f"max |avg - (sin xi + N u_N cos xi)/N| = {worst_identity:.3e}",
        )
    )

    # equality case: place c at angle pi/2 + m*pi/N from w so that xi = 0
    worst_eq = 0.0
    for n in range(1, 17):
        u_n = inequality.u_coefficient(n)
        for _ in range(50):
            w = _random_unit(rng)
            axis = _orthogonal_to(w, rng)
            m = int(rng.integers(0, n))
            c = rotate(w, axis, math.pi / 2.0 + m * math.pi / n)
            avg, _ = inequality.discrete_average(w, c, n)
            worst_eq = max(worst_eq, abs(avg - u_n))
    results.append(
        CheckResult(
            "lemma-equality-case",
            worst_eq <= 1e-9,
            f"max |avg - u_N| at xi = 0: {worst_eq:.3e}",
        )
    )

    # bound slope against a central finite difference
    worst_slope = 0.0
    h = 1e-5
    for n in (2, 3, 4, 8):
        u_n = inequality.u_coefficient(n)
        for phi in np.linspace(0.05, math.pi - 0.05, 40):
            numeric = (inequality.nlv_bound(n, phi + h) - inequality.nlv_bound(n, phi - h)) / (2 * h)
            exact = -u_n * math.cos(phi / 2.0) * math.copysign(1.0, math.sin(phi / 2.0))
            worst_slope = max(worst_slope, abs(numeric - exact))
    results.append(
        CheckResult(
            "bound-slope",
            worst_slope <= 1e-6,
            f"max |finite difference - formula| = {worst_slope:.3e}",
        )
    )
    return results


def leggett_suite(
    trials: int = 100_000,
    seed: int = 0,
    ensembles: int = 100,
    grid_deg: float = 0.0,
) -> list[CheckResult]:
    """Randomized checks of the model-constraint machinery.

    ``grid_deg`` > 0 additionally runs the exhaustive (u, v) scan over the
    default two-setting schedule at phi = 15 deg, which should find nothing.
    """
    rng = np.random.default_rng(seed)
    results = []

    # admissible interval: both endpoints valid, beyond either is not
    worst_entry = math.inf
    boundary_ok = True
    for _ in range(trials):
        u, v, a, b = (_random_unit(rng) for _ in range(4))
        c_min, c_max = leggett.admissible_C_range(u, v, a, b)
        for c in (c_min, c_max):
            worst_entry = min(worst_entry, *leggett.leggett_outcomes(u, v, a, b, c))
        for c_bad in (c_max + 1e-6, c_min - 1e-6):
            try:
                leggett.leggett_outcomes(u, v, a, b, c_bad)
                boundary_ok = False
            except leggett.ConstraintViolationError:
                pass
    results.append(
        CheckResult(
            "admissible-range-boundary",
            boundary_ok and worst_entry >= -1e-12,
            f"min entry at interval endpoints = {worst_entry:.3e}; "
            f"out-of-range rejection {'ok' if boundary_ok else 'BROKEN'}",
        )
    )

    # marginals do not depend on the correlation; entries are (+,+), (-,-),
    # (-,+), (+,-), so Alice's r = +1 marginal is p[0] + p[3]
    worst_dev = 0.0
    for _ in range(max(1, trials // 100)):
        u, v, a, b = (_random_unit(rng) for _ in range(4))
        c_min, c_max = leggett.admissible_C_range(u, v, a, b)
        x = a.dot(u)
        for c in np.linspace(c_min, c_max, 7):
            p = leggett.leggett_outcomes(u, v, a, b, float(c))
            for r, marginal in ((1, p[0] + p[3]), (-1, p[2] + p[1])):
                worst_dev = max(worst_dev, abs(marginal - (1.0 + r * x) / 2.0))
    results.append(
        CheckResult(
            "marginal-c-independence",
            worst_dev <= 1e-14,
            f"max |marginal - (1 + r a.u)/2| = {worst_dev:.3e}",
        )
    )

    # the two quoted forms of the explicit-model condition agree; the
    # mirrored form is the direct one with the parties exchanged
    agree = True
    for _ in range(trials):
        u, v, a, b = (_random_unit(rng) for _ in range(4))
        direct = leggett.explicit_model_margin(u, v, [(a, b)]) >= -1e-12
        mirrored = leggett.explicit_model_margin(v, u, [(b, a)]) >= -1e-12
        if direct != mirrored:
            agree = False
            break
    results.append(
        CheckResult(
            "feasibility-form-equivalence",
            agree,
            "both condition forms agree" if agree else "forms disagree",
        )
    )

    # single-setting schedules are reproducible by the explicit model
    frames = default_frames()
    u1 = UnitVector(1.0, 0.0, 0.0)
    n1_ok = all(
        leggett.explicit_model_feasible(u1, -u1, _schedule_pairs(frames, 1, math.radians(p)))
        for p in np.linspace(0.0, 179.0, 50)
    )
    results.append(
        CheckResult(
            "single-setting-model-feasible",
            n1_ok,
            "u = -v along the shared seed satisfies the validity condition",
        )
    )

    # local (factorizing) ensembles never violate the bound
    worst_margin = -math.inf
    phi_grid = np.linspace(0.0, math.pi / 2.0, 25)
    for _ in range(ensembles):
        k = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(k))
        parts = [(float(w), _random_unit(rng), _random_unit(rng)) for w in weights]
        ens = leggett.product_ensemble(parts)
        for n in range(1, 6):
            for p in phi_grid:
                report = inequality.l_n(ens, frames, n, float(p))
                worst_margin = max(worst_margin, report.l_value - report.bound)
    results.append(
        CheckResult(
            "local-ensembles-respect-bound",
            worst_margin <= 1e-12,
            f"max (L - bound) over local ensembles = {worst_margin:.3e}",
        )
    )

    if grid_deg > 0.0:
        scan = leggett.scan_explicit_model(
            _schedule_pairs(frames, 2, math.radians(15.0)), resolution_deg=grid_deg
        )
        results.append(
            CheckResult(
                "two-setting-scan-infeasible",
                not scan.feasible_found,
                f"grid {scan.grid_size} points, best margin {scan.best_margin:.3e} "
                f"({scan.candidates_checked} candidates fully checked)",
            )
        )
    return results


def _schedule_pairs(frames, n: int, phi: float) -> list[tuple[UnitVector, UnitVector]]:
    """Every measured setting pair of both planes, (a_k, b_k(0)) before
    (a_k, b_k(phi)), in schedule order."""
    return [
        pair
        for frame in frames
        for entry in build_schedule(frame, n, phi).entries
        for pair in ((entry.alice, entry.bob0), (entry.alice, entry.bobphi))
    ]

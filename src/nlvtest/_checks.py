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
from .sphere import UnitVector, default_frames, schedule_rows

__all__ = ["CheckResult", "lemma_suite", "leggett_suite"]


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _unit_rows(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Random unit vectors, shape (*shape, 3), from one rng.normal call."""
    g = rng.normal(size=(*shape, 3))
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def lemma_suite(trials: int = 100_000, seed: int = 0) -> list[CheckResult]:
    """Randomized checks of the discrete-averaging estimate."""
    rng = np.random.default_rng(seed)
    results = []

    # lower bound and closed-form identity on random vector pairs
    worst_slack, worst_identity = math.inf, 0.0
    per_n = max(1, trials // 16)
    w, c = _unit_rows(rng, 2, 16, per_n)
    for n in range(1, 17):
        u_n = inequality.u_coefficient(n)
        avg, xi = inequality.discrete_average(w[n - 1], c[n - 1], n)
        worst_slack = min(worst_slack, float(np.min(avg - u_n)))
        closed = (np.sin(xi) + n * u_n * np.cos(xi)) / n
        worst_identity = max(worst_identity, float(np.max(np.abs(avg - closed))))
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

    # equality case: place c at angle pi/2 + m*pi/N from w, rotating about
    # an axis orthogonal to w, so that xi = 0
    worst_eq = 0.0
    w, r = _unit_rows(rng, 2, 16, 50)
    axis = np.cross(w, r)
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    for n in range(1, 17):
        u_n = inequality.u_coefficient(n)
        angle = (math.pi / 2.0 + rng.integers(0, n, size=50) * math.pi / n)[:, None]
        w_n = w[n - 1]
        c = w_n * np.cos(angle) + np.cross(axis[n - 1], w_n) * np.sin(angle)
        avg, _ = inequality.discrete_average(w_n, c, n)
        worst_eq = max(worst_eq, float(np.max(np.abs(avg - u_n))))
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
    u, v, a, b = _unit_rows(rng, 4, trials)
    c_min, c_max = leggett.admissible_C_range(u, v, a, b)
    worst_entry = min(float(leggett.leggett_outcomes(u, v, a, b, c).min()) for c in (c_min, c_max))
    rejected = 0
    for c_bad in (c_max + 1e-6, c_min - 1e-6):
        try:
            leggett.leggett_outcomes(u, v, a, b, c_bad)
        except leggett.ConstraintViolationError as err:
            rejected += err.count
    boundary_ok = rejected == 2 * trials
    results.append(
        CheckResult(
            "admissible-range-boundary",
            boundary_ok and worst_entry >= -1e-12,
            f"min entry at interval endpoints = {worst_entry:.3e}; "
            f"out-of-range rejection {'ok' if boundary_ok else 'BROKEN'}",
        )
    )

    # marginals do not depend on the correlation; entries are (+,+), (-,-),
    # (-,+), (+,-), so Alice's r = +1 marginal is p[:, 0] + p[:, 3]
    u, v, a, b = _unit_rows(rng, 4, max(1, trials // 100))
    c = np.linspace(*leggett.admissible_C_range(u, v, a, b), 7, axis=1).ravel()
    u, v, a, b = np.repeat([u, v, a, b], 7, axis=1)  # seven correlations per draw
    p = leggett.leggett_outcomes(u, v, a, b, c)
    x = np.einsum("ki,ki->k", a, u)
    worst_dev = max(
        float(np.max(np.abs(p[:, 0] + p[:, 3] - (1.0 + x) / 2.0))),
        float(np.max(np.abs(p[:, 2] + p[:, 1] - (1.0 - x) / 2.0))),
    )
    results.append(
        CheckResult(
            "marginal-c-independence",
            worst_dev <= 1e-14,
            f"max |marginal - (1 + r a.u)/2| = {worst_dev:.3e}",
        )
    )

    # the two quoted forms of the explicit-model condition agree; the
    # mirrored form is the direct one with the parties exchanged
    u, v, a, b = _unit_rows(rng, 4, trials)
    pairs = np.stack([a, b], axis=1)[:, None]  # one (a, b) pair per row
    direct = leggett.explicit_model_margin(u, v, pairs) >= -1e-12
    mirrored = leggett.explicit_model_margin(v, u, pairs[..., ::-1, :]) >= -1e-12
    agree = bool(np.array_equal(direct, mirrored))
    results.append(
        CheckResult(
            "feasibility-form-equivalence",
            agree,
            "both condition forms agree" if agree else "forms disagree",
        )
    )

    # single-setting schedules are reproducible by the explicit model
    frames = default_frames()
    u1 = np.array([1.0, 0.0, 0.0])
    pairs = np.stack([np.stack(schedule_rows(frames, 1, math.radians(p)), axis=1)
                      for p in np.linspace(0.0, 179.0, 50)])  # one pair set per angle
    n1_ok = bool((leggett.explicit_model_margin(u1, -u1, pairs) >= -1e-12).all())
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
        ens = leggett.product_ensemble([
            (w, UnitVector.normalized(*u), UnitVector.normalized(*v))
            for w, (u, v) in zip(weights.tolist(), _unit_rows(rng, k, 2).tolist())
        ])
        for n in range(1, 6):
            reports = inequality.l_n(ens, frames, n, phi_grid)
            worst_margin = max(worst_margin, *(report.violation for report in reports))
    results.append(
        CheckResult(
            "local-ensembles-respect-bound",
            worst_margin <= 1e-12,
            f"max (L - bound) over local ensembles = {worst_margin:.3e}",
        )
    )

    if grid_deg > 0.0:
        pairs = np.stack(schedule_rows(frames, 2, math.radians(15.0)), axis=1)
        scan = leggett.scan_explicit_model(pairs, resolution_deg=grid_deg)
        results.append(
            CheckResult(
                "two-setting-scan-infeasible",
                not scan.feasible_found,
                f"grid {scan.grid_size} points, best margin {scan.best_margin:.3e} "
                f"({scan.candidates_checked} candidates fully checked)",
            )
        )
    return results

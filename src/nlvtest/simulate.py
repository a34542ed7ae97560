"""Monte Carlo model of the photon-counting measurement.

Each correlation coefficient is estimated from four coincidence counts
n(+a,+b), n(-a,-b), n(-a,+b), n(+a,-b), drawn as independent Poisson
variables with means pair_rate * P(r_A, r_B) * T plus a flat accidental
contribution.  The estimator and its propagated variance follow the usual
counting-statistics rules:

    C_hat = (n_pp + n_mm - n_mp - n_pm) / S
    var   = [(1 - C_hat)^2 (n_pp + n_mm) + (1 + C_hat)^2 (n_mp + n_pm)] / S^2
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import quantum
from .inequality import InequalityReport, nlv_bound
from .sphere import PlaneFrame, UnitVector, build_schedule, default_frames

__all__ = [
    "ExperimentConfig",
    "CountQuad",
    "AdjustedQuad",
    "DegenerateDataError",
    "sample_quad",
    "estimate_C",
    "subtract_accidentals",
    "run_experiment",
    "ReplicateSummary",
    "replicate",
]

# Inferred source strength: the reported coincidence rate behind crossed
# polarizers on a singlet is pair_rate * P(+,+) = pair_rate / 2.
DEFAULT_PAIR_RATE = 1860.0
DEFAULT_ACCIDENTAL_RATE = 0.41
DEFAULT_INTEGRATION_TIME = 4.0
DEFAULT_STATE = "visibilities:0.995,0.990,0.982"


class DegenerateDataError(RuntimeError):
    """All four counts of a quad vanished; the estimator is undefined."""

    def __init__(self, message: str, setting: tuple | None = None):
        super().__init__(message)
        self.setting = setting


@dataclass(frozen=True)
class ExperimentConfig:
    """Source, detection, and schedule parameters for one simulated run."""

    pair_rate: float = DEFAULT_PAIR_RATE
    accidental_rate: float = DEFAULT_ACCIDENTAL_RATE
    integration_time: float = DEFAULT_INTEGRATION_TIME
    state: str = DEFAULT_STATE
    frames: tuple[PlaneFrame, PlaneFrame] = field(default_factory=default_frames)
    rng_seed: int | tuple[int, ...] = 0
    subtract_accidentals: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.pair_rate < math.inf:
            raise ValueError(f"pair_rate must be positive and finite, got {self.pair_rate}")
        if not 0.0 <= self.accidental_rate < math.inf:
            raise ValueError(f"accidental_rate must be >= 0 and finite, got {self.accidental_rate}")
        if not 0.0 < self.integration_time < math.inf:
            raise ValueError(
                f"integration_time must be positive and finite, got {self.integration_time}"
            )
        seeds = self.rng_seed if isinstance(self.rng_seed, tuple) else (self.rng_seed,)
        if any(s < 0 for s in seeds):
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")

    def resolve_state(self) -> quantum.TwoQubitState:
        return quantum.parse_state(self.state)


@dataclass(frozen=True, slots=True)
class CountQuad:
    """Coincidence counts for the four analyzer sign pairs at one setting."""

    n_pp: int  # (+a, +b)
    n_mm: int  # (-a, -b)
    n_mp: int  # (-a, +b)
    n_pm: int  # (+a, -b)
    settings: tuple[UnitVector, UnitVector]
    duration: float

    def __post_init__(self) -> None:
        if min(self.n_pp, self.n_mm, self.n_mp, self.n_pm) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.n_pp + self.n_mm + self.n_mp + self.n_pm


@dataclass(frozen=True, slots=True)
class AdjustedQuad:
    """Accidental-corrected (real-valued) counts plus the raw quad they came
    from; variances are always propagated from the raw counts."""

    n_pp: float
    n_mm: float
    n_mp: float
    n_pm: float
    raw: CountQuad

    @property
    def total(self) -> float:
        return self.n_pp + self.n_mm + self.n_mp + self.n_pm


def sample_quad(
    config: ExperimentConfig,
    a: UnitVector,
    b: UnitVector,
    rng: np.random.Generator,
    state: quantum.TwoQubitState | None = None,
) -> CountQuad:
    """Draw the four Poisson counts for one correlation measurement.

    Draw order is fixed as (+,+), (-,-), (-,+), (+,-) so that runs are
    reproducible for a given generator state.
    """
    if state is None:
        state = config.resolve_state()
    t = config.integration_time
    accidental = config.accidental_rate * t
    counts = []
    for r_a, r_b in ((1, 1), (-1, -1), (-1, 1), (1, -1)):
        p = quantum.outcome_probability(state, a, b, r_a, r_b)
        counts.append(int(rng.poisson(config.pair_rate * p * t + accidental)))
    return CountQuad(
        n_pp=counts[0], n_mm=counts[1], n_mp=counts[2], n_pm=counts[3],
        settings=(a, b), duration=t,
    )


def estimate_C(quad: CountQuad | AdjustedQuad) -> tuple[float, float]:
    """Correlation estimate and its propagated standard deviation.

    For accidental-corrected quads the estimate uses the corrected counts
    while the variance keeps the raw Poisson counts.
    """
    same = quad.n_pp + quad.n_mm
    diff = quad.n_mp + quad.n_pm
    total = same + diff
    if total <= 0:
        raise DegenerateDataError("no counts recorded; correlation undefined")
    c_hat = (same - diff) / total
    if isinstance(quad, AdjustedQuad):
        var_same = quad.raw.n_pp + quad.raw.n_mm
        var_diff = quad.raw.n_mp + quad.raw.n_pm
    else:
        var_same = same
        var_diff = diff
    variance = ((1.0 - c_hat) ** 2 * var_same + (1.0 + c_hat) ** 2 * var_diff) / total**2
    return (c_hat, math.sqrt(variance))


def subtract_accidentals(quad: CountQuad, rate: float) -> AdjustedQuad:
    """Remove the expected accidental contribution rate*duration from each
    count, flooring at zero."""
    if rate < 0.0:
        raise ValueError(f"accidental rate must be >= 0, got {rate}")
    shift = rate * quad.duration
    return AdjustedQuad(
        n_pp=max(0.0, quad.n_pp - shift),
        n_mm=max(0.0, quad.n_mm - shift),
        n_mp=max(0.0, quad.n_mp - shift),
        n_pm=max(0.0, quad.n_pm - shift),
        raw=quad,
    )


def run_experiment(config: ExperimentConfig, n: int, phi: float) -> InequalityReport:
    """Simulate one full 4N-setting measurement and assemble the report.

    Sampling order: plane 1 then plane 2, rotation index ascending, Bob at
    offset 0 then phi, sign pairs (+,+), (-,-), (-,+), (+,-).  The report's
    sigma adds the per-quad variances in quadrature (independent settings).
    """
    state = config.resolve_state()
    rng = np.random.default_rng(config.rng_seed)
    l_value = 0.0
    variance = 0.0
    for plane_idx, frame in enumerate(config.frames):
        schedule = build_schedule(frame, n, phi, plane_index=plane_idx + 1)
        e_sum = 0.0  # E_j(phi) + E_j(0)
        for k, entry in enumerate(schedule.entries):
            for theta_label, bob in (("0", entry.bob0), ("phi", entry.bobphi)):
                quad = sample_quad(config, entry.alice, bob, rng, state=state)
                try:
                    if config.subtract_accidentals:
                        c_hat, sigma_c = estimate_C(
                            subtract_accidentals(quad, config.accidental_rate)
                        )
                    else:
                        c_hat, sigma_c = estimate_C(quad)
                except DegenerateDataError:
                    raise DegenerateDataError(
                        f"no counts at plane {plane_idx + 1}, setting {k}, "
                        f"theta={theta_label}",
                        setting=(plane_idx + 1, k, theta_label),
                    ) from None
                e_sum += c_hat / n
                variance += sigma_c**2 / n**2
        l_value += abs(e_sum)
    sigma = math.sqrt(variance)
    bound = nlv_bound(n, phi)
    return InequalityReport(
        n=n,
        phi=phi,
        l_value=l_value,
        bound=bound,
        sigma=sigma,
        violation_sigmas=(l_value - bound) / sigma if sigma > 0.0 else None,
        frames=config.frames,
    )


@dataclass(frozen=True)
class ReplicateSummary:
    """Aggregate of independently seeded runs at one (N, phi), taken over the
    runs that produced data; a statistic with too few such runs is None."""

    outcomes: tuple[InequalityReport | DegenerateDataError, ...]
    mean_l: float | None
    std_l: float | None
    mean_sigma: float | None
    mean_violation: float | None

    @property
    def runs(self) -> int:
        return len(self.outcomes)

    @property
    def reports(self) -> tuple[InequalityReport, ...]:
        return tuple(o for o in self.outcomes if isinstance(o, InequalityReport))

    @property
    def std_over_sigma(self) -> float | None:
        """Empirical spread over mean propagated sigma; near 1 when the
        error propagation is calibrated.  None without a spread or with a
        zero mean sigma."""
        if self.std_l is None or not self.mean_sigma:
            return None
        return self.std_l / self.mean_sigma


def derive_seed(base: int | tuple[int, ...] | Sequence[int], *parts: int) -> tuple[int, ...]:
    """Deterministic per-cell seed: the base seed extended by index parts."""
    if isinstance(base, int):
        return (base, *parts)
    return (*tuple(base), *parts)


def replicate(config: ExperimentConfig, n: int, phi: float, runs: int) -> ReplicateSummary:
    """Run ``runs`` experiments seeded ``derive_seed(config.rng_seed, run)``
    and summarize them.

    A run whose counts vanish is kept in ``outcomes`` as its
    DegenerateDataError, in run order; the statistics cover the other runs.
    ``std_l`` (ddof=1) is None below two such runs, ``mean_l`` and
    ``mean_sigma`` are None when there are none, and ``mean_violation``
    averages the runs whose ``violation_sigmas`` is defined (None if none
    is).  Raises ValueError for ``runs < 1``.
    """
    if runs < 1:
        raise ValueError(f"need at least 1 run, got {runs}")
    outcomes: list[InequalityReport | DegenerateDataError] = []
    for run_idx in range(runs):
        run_config = dataclasses.replace(
            config, rng_seed=derive_seed(config.rng_seed, run_idx)
        )
        try:
            outcomes.append(run_experiment(run_config, n, phi))
        except DegenerateDataError as exc:
            outcomes.append(exc)
    reports = [o for o in outcomes if isinstance(o, InequalityReport)]
    l_values = np.array([r.l_value for r in reports])
    violations = [r.violation_sigmas for r in reports if r.violation_sigmas is not None]
    return ReplicateSummary(
        outcomes=tuple(outcomes),
        mean_l=float(l_values.mean()) if reports else None,
        std_l=float(l_values.std(ddof=1)) if len(reports) > 1 else None,
        mean_sigma=float(np.mean([r.sigma for r in reports])) if reports else None,
        mean_violation=float(np.mean(violations)) if violations else None,
    )

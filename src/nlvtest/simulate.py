"""Monte Carlo model of the photon-counting measurement.

Each correlation coefficient is estimated from four coincidence counts
n(+a,+b), n(-a,-b), n(-a,+b), n(+a,-b), drawn as independent Poisson
variables with means pair_rate * P(r_A, r_B) * T plus a flat accidental
contribution.  The estimator and its propagated variance follow the usual
counting-statistics rules:

    C_hat = (n_pp + n_mm - n_mp - n_pm) / S
    var   = [(1 - C_hat)^2 (n_pp + n_mm) + (1 + C_hat)^2 (n_mp + n_pm)] / S^2

A run's means depend only on (config, N, phi): they form one (4N, 4) table,
rows in sampling order (plane, rotation index, Bob at offset 0 then phi) and
columns in sign order (+,+), (-,-), (-,+), (+,-).  Each seeded run draws all
16N counts with one Poisson call over that table, in its row-major order;
replicate evaluates the table once for all of its runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import quantum
from .inequality import InequalityReport
from .sphere import PlaneFrame, check_orthogonal, default_frames, schedule_rows

__all__ = [
    "ExperimentConfig",
    "DegenerateDataError",
    "estimate_C",
    "mean_table",
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
        check_orthogonal(self.frames)

    def resolve_state(self) -> quantum.TwoQubitState:
        return quantum.parse_state(self.state)


def estimate_C(counts: Sequence[int], shift: float | None = None) -> tuple[float, float]:
    """Correlation estimate and its propagated standard deviation from one
    row of counts (n_pp, n_mm, n_mp, n_pm).

    With ``shift`` (the expected accidentals per port, rate * duration) the
    estimate uses the counts minus ``shift``, floored at zero, while the
    variance keeps the raw Poisson counts.
    """
    n_pp, n_mm, n_mp, n_pm = counts
    var_same = n_pp + n_mm
    var_diff = n_mp + n_pm
    if shift is None:
        same, diff = var_same, var_diff
    else:
        same = max(0.0, n_pp - shift) + max(0.0, n_mm - shift)
        diff = max(0.0, n_mp - shift) + max(0.0, n_pm - shift)
    total = same + diff
    if total <= 0:
        raise DegenerateDataError("no counts recorded; correlation undefined")
    c_hat = (same - diff) / total
    variance = ((1.0 - c_hat) ** 2 * var_same + (1.0 + c_hat) ** 2 * var_diff) / total**2
    return (c_hat, math.sqrt(variance))


def mean_table(config: ExperimentConfig, n: int, phi: float) -> np.ndarray:
    """The (4N, 4) Poisson means pair_rate * P * T + accidental_rate * T of
    one run's counts.

    Rows are the measured pairs of sphere.schedule_rows, in sampling order
    (plane, rotation index k, Bob at offset 0 then phi); columns the sign
    pairs (+,+), (-,-), (-,+), (+,-).  They depend on the config's state,
    rates and planes, not on its seed.
    """
    p = quantum.outcome_probabilities(config.resolve_state(), *schedule_rows(config.frames, n, phi))
    t = config.integration_time
    return config.pair_rate * p * t + config.accidental_rate * t


def _counting_run(
    config: ExperimentConfig, n: int, phi: float, means: np.ndarray,
    seed: int | tuple[int, ...],
) -> InequalityReport:
    """Draw one run's counts from ``means`` in one call and assemble its report.

    The estimates and their sums stay scalar Python float arithmetic in
    sampling order: numpy's ``x ** 2`` (x * x) and Python's (libm pow)
    differ in the last bit for some doubles, so a vectorised estimator
    would change seeded reports.
    """
    counts = np.random.default_rng(seed).poisson(means).tolist()
    shift = (config.accidental_rate * config.integration_time
             if config.subtract_accidentals else None)
    l_value = 0.0
    variance = 0.0
    rows = iter(counts)
    for plane_idx in range(len(counts) // (2 * n)):
        e_sum = 0.0  # E_j(phi) + E_j(0)
        for k in range(n):
            for theta_label in ("0", "phi"):
                try:
                    c_hat, sigma_c = estimate_C(next(rows), shift)
                except DegenerateDataError:
                    raise DegenerateDataError(
                        f"no counts at plane {plane_idx + 1}, setting {k}, "
                        f"theta={theta_label}",
                        setting=(plane_idx + 1, k, theta_label),
                    ) from None
                e_sum += c_hat / n
                variance += sigma_c**2 / n**2
        l_value += abs(e_sum)
    return InequalityReport(n, phi, l_value, math.sqrt(variance))


def run_experiment(config: ExperimentConfig, n: int, phi: float) -> InequalityReport:
    """Simulate one full 4N-setting measurement and assemble the report.

    All 16N counts come from one Poisson draw over the (4N, 4) mean table,
    in its row-major order: plane 1 then plane 2, rotation index ascending,
    Bob at offset 0 then phi, sign pairs (+,+), (-,-), (-,+), (+,-).  The
    report's sigma adds the per-setting variances in quadrature
    (independent settings).
    """
    means = mean_table(config, n, phi)
    return _counting_run(config, n, phi, means, config.rng_seed)


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
    means = mean_table(config, n, phi)
    outcomes: list[InequalityReport | DegenerateDataError] = []
    for run_idx in range(runs):
        try:
            outcomes.append(_counting_run(
                config, n, phi, means, derive_seed(config.rng_seed, run_idx)
            ))
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

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
columns in sign order (+,+), (-,-), (-,+), (+,-).  Each seeded run draws its
16N counts with one Poisson call over that table; a replicate estimates all
its runs in one array pass over the stacked (runs, 4N, 4) counts, which
gives per-run arrays (L, sigma, violation in sigmas, first empty row) and
the statistics over them.  That pass keeps the bits of a scalar loop in
sampling order: its sums add columns in that order, and a float's square is
np.float_power(x, 2.0), libm pow as in Python's x ** 2 (x * x and np.power
round about 1 double in 1,000 otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from . import quantum
from .inequality import nlv_bound
from .sphere import _angle_list, _setting_count, check_frames, default_frames, schedule_rows

__all__ = [
    "ExperimentConfig",
    "estimate_C",
    "mean_table",
    "ReplicateSummary",
    "replicate",
]

# Inferred source strength: the reported coincidence rate behind crossed
# polarizers on a singlet is pair_rate * P(+,+) = pair_rate / 2.
DEFAULT_PAIR_RATE = 1860.0
DEFAULT_ACCIDENTAL_RATE = 0.41
DEFAULT_INTEGRATION_TIME = 4.0
DEFAULT_STATE = "visibilities:0.995,0.990,0.982"

# numpy's Poisson draw refuses a mean above about 9.2e18; a config whose
# (pair_rate + accidental_rate) * integration_time exceeds this is refused
MAX_POISSON_MEAN = 1e18
# counts a replicate may hold at once, runs x 16N (8 bytes each)
MAX_REPLICATE_COUNTS = 10_000_000


def _is_non_negative_int(value) -> bool:
    """True for an int >= 0 that is not a bool (True would seed as 1)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Source, detection, and schedule parameters for one simulated run.
    ``frames`` holds the two measurement planes as sphere.check_frames returns
    them, and ``two_qubit_state`` the ``state`` spec as quantum.parse_state
    returns it: a spec it refuses raises its ValueError at construction."""

    pair_rate: float = DEFAULT_PAIR_RATE
    accidental_rate: float = DEFAULT_ACCIDENTAL_RATE
    integration_time: float = DEFAULT_INTEGRATION_TIME
    state: str = DEFAULT_STATE
    frames: np.ndarray = field(default_factory=default_frames)
    rng_seed: int = 0
    subtract_accidentals: bool = False
    two_qubit_state: quantum.TwoQubitState = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.pair_rate < math.inf:
            raise ValueError(f"pair_rate must be positive and finite, got {self.pair_rate}")
        if not 0.0 <= self.accidental_rate < math.inf:
            raise ValueError(f"accidental_rate must be >= 0 and finite, got {self.accidental_rate}")
        if not 0.0 < self.integration_time < math.inf:
            raise ValueError(
                f"integration_time must be positive and finite, got {self.integration_time}"
            )
        mean = (self.pair_rate + self.accidental_rate) * self.integration_time
        if not mean <= MAX_POISSON_MEAN:
            raise ValueError("(pair_rate + accidental_rate) * integration_time must be at most "
                             f"{MAX_POISSON_MEAN:g}, got {mean!r}")
        if not _is_non_negative_int(self.rng_seed):
            raise ValueError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")
        object.__setattr__(self, "frames", check_frames(self.frames))
        object.__setattr__(self, "two_qubit_state", quantum.parse_state(self.state))


def estimate_C(counts: ArrayLike, shift: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Correlation estimates and their propagated standard deviations from
    rows of counts (n_pp, n_mm, n_mp, n_pm), shape (..., 4); both results
    have shape (...).

    With ``shift`` (the expected accidentals per port, rate * duration) the
    estimates use the counts minus ``shift``, floored at zero, while the
    variances keep the raw Poisson counts.  A row whose total is not
    positive has no estimate: both of its entries are NaN.  Counts whose
    last axis is not 4 (a bare number included), or whose dtype is not an
    integer or real float one (bool included), are refused with a ValueError
    naming the shape or dtype; a count that is negative, NaN or infinite,
    and a shift that is negative or not finite, with one naming the value.
    """
    rows = np.asarray(counts)
    if rows.dtype.kind not in "iuf":
        raise ValueError(f"counts must be integers or real floats, got dtype {rows.dtype}")
    if rows.shape[-1:] != (4,):
        raise ValueError(f"need rows of four counts, shape (..., 4); got {rows.shape}")
    bad = ~((rows >= 0) & (rows < math.inf))  # NaN fails both
    if bad.any():
        raise ValueError(f"counts must be finite and non-negative, got {rows[bad][0].item()!r}")
    if shift is not None and not 0.0 <= shift < math.inf:
        raise ValueError(f"shift must be non-negative and finite, got {shift!r}")
    raw_same = rows[..., 0] + rows[..., 1]
    raw_diff = rows[..., 2] + rows[..., 3]
    if shift is None:
        same, diff = raw_same, raw_diff
        total = (same + diff).astype(float)
        total_sq = total * total  # an int ** 2 rounded once; pow misrounds ties
    else:
        kept = np.maximum(rows - shift, 0.0)
        same, diff = kept[..., 0] + kept[..., 1], kept[..., 2] + kept[..., 3]
        total = same + diff
        total_sq = np.float_power(total, 2.0)
    total = np.where(total > 0.0, total, np.nan)  # NaN, not 0/0, so nothing warns
    c_hat = (same - diff) / total
    variance = (np.float_power(1.0 - c_hat, 2.0) * raw_same
                + np.float_power(1.0 + c_hat, 2.0) * raw_diff) / total_sq
    return c_hat, np.sqrt(variance)


def mean_table(config: ExperimentConfig, n: int, phi: float) -> np.ndarray:
    """The (4N, 4) Poisson means pair_rate * P * T + accidental_rate * T of
    one run's counts.

    Rows are the measured pairs of sphere.schedule_rows, in sampling order
    (plane, rotation index k, Bob at offset 0 then phi); columns the sign
    pairs (+,+), (-,-), (-,+), (+,-).  They depend on the config's state,
    rates and planes, not on its seed.  ``phi`` is one angle: an array of
    angles is refused, naming its shape, before any row is built.
    """
    if not _angle_list(phi)[1]:
        raise ValueError(f"need one angle, got shape {np.shape(phi)}")
    p = quantum.outcome_probabilities(config.two_qubit_state, *schedule_rows(config.frames, n, phi))
    t = config.integration_time
    return config.pair_rate * p * t + config.accidental_rate * t


@dataclass(frozen=True, eq=False)
class ReplicateSummary:
    """Independently seeded runs at one (N, phi), as per-run arrays, and
    statistics over the runs that produced data.

    ``l_values`` and ``sigmas`` are NaN for a run with an empty setting, and
    ``violation_sigmas`` (L - nlv_bound)/sigma is NaN there and at sigma 0.
    ``empty_rows`` holds each run's first sampling row without counts
    (sphere.row_setting names it), or -1 for a run with data.  ``std_l``
    (ddof=1) is None below two runs with data, ``mean_l`` and ``mean_sigma``
    are None without one, ``mean_violation`` averages the defined
    ``violation_sigmas`` (None if none is), and ``std_over_sigma``, the
    spread over the mean propagated sigma and near 1 when the error
    propagation is calibrated, is None without a spread or at a zero mean
    sigma.
    """

    l_values: np.ndarray
    sigmas: np.ndarray
    violation_sigmas: np.ndarray
    empty_rows: np.ndarray
    runs: int
    mean_l: float | None
    std_l: float | None
    mean_sigma: float | None
    mean_violation: float | None
    std_over_sigma: float | None


def replicate(config: ExperimentConfig, n: int, phi: float, runs: int,
              cell: tuple[int, ...] = ()) -> ReplicateSummary:
    """Run ``runs`` experiments, run r seeded ``(config.rng_seed, *cell, r)``,
    and summarize them.  ``cell`` keeps apart the runs of several replicates
    on one config: a sweep passes each (N, phi) cell's (N, phi index).

    Raises ValueError for ``runs`` other than a positive int, for ``cell``
    other than a tuple of non-negative ints (bools refused in both), and,
    before anything is drawn, for runs x 16N counts above
    MAX_REPLICATE_COUNTS.
    """
    if not (_is_non_negative_int(runs) and runs >= 1):
        raise ValueError(f"need a positive integer run count, got {runs!r}")
    if not (isinstance(cell, tuple) and all(_is_non_negative_int(i) for i in cell)):
        raise ValueError(f"cell must be a tuple of non-negative integers, got {cell!r}")
    n = _setting_count(n)
    if runs * 16 * n > MAX_REPLICATE_COUNTS:
        raise ValueError(f"{runs} runs at N = {n} draw {runs * 16 * n} counts, "
                         f"over the ceiling of {MAX_REPLICATE_COUNTS}")
    means = mean_table(config, n, phi)
    counts = np.stack([np.random.default_rng((config.rng_seed, *cell, run_idx)).poisson(means)
                       for run_idx in range(runs)])
    shift = (config.accidental_rate * config.integration_time
             if config.subtract_accidentals else None)
    c_hat, sigma_c = estimate_C(counts, shift)  # (runs, 4N)
    # cumsum adds the columns one by one in sampling order; np.sum pairs them
    e_sums = np.cumsum(c_hat.reshape(runs, -1, 2 * n) / n, axis=-1)[..., -1]
    l_values = np.cumsum(np.abs(e_sums), axis=-1)[:, -1]
    sigmas = np.sqrt(np.cumsum(np.float_power(sigma_c, 2.0) / n**2, axis=-1)[:, -1])
    empty = np.isnan(c_hat)
    empty_rows = np.where(empty.any(axis=1), empty.argmax(axis=1), -1)
    violation_sigmas = np.divide(l_values - nlv_bound(n, phi), sigmas,
                                 out=np.full(runs, np.nan), where=sigmas > 0.0)
    data = empty_rows < 0
    l_data, sigma_data = l_values[data], sigmas[data]
    defined = violation_sigmas[~np.isnan(violation_sigmas)]
    std_l = float(l_data.std(ddof=1)) if l_data.size > 1 else None
    mean_sigma = float(sigma_data.mean()) if l_data.size else None
    return ReplicateSummary(
        l_values=l_values, sigmas=sigmas, violation_sigmas=violation_sigmas,
        empty_rows=empty_rows, runs=runs,
        mean_l=float(l_data.mean()) if l_data.size else None,
        std_l=std_l,
        mean_sigma=mean_sigma,
        mean_violation=float(defined.mean()) if defined.size else None,
        std_over_sigma=std_l / mean_sigma if std_l is not None and mean_sigma else None,
    )

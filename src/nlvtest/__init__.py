"""Finite-setting inequality tests of Leggett-type non-local variable models.

The package provides the Poincare-sphere geometry behind the rotated
measurement schedules, two-qubit quantum predictions, the model's
consistency constraints, the inequality family with its bound
4 - 2 u_N |sin(phi/2)|, and a Monte Carlo model of the photon-counting
experiment with propagated counting errors.
"""

__version__ = "0.1.0"

from .inequality import (
    InequalityReport,
    NoViolationError,
    continuum_bound,
    continuum_l,
    discrete_average,
    e_jn,
    l_n,
    max_violation_phi,
    nlv_bound,
    optimal_phi,
    u_coefficient,
)
from .leggett import (
    ConstraintViolationError,
    OutcomeTable,
    PureEnsemble,
    admissible_C_range,
    check_marginals,
    explicit_model_feasible,
    explicit_model_margin,
    leggett_outcomes,
    product_ensemble,
    scan_explicit_model,
)
from .quantum import (
    TwoQubitState,
    bell_diagonal,
    colored_noise,
    correlation,
    maximally_mixed,
    outcome_probability,
    parse_state,
    singlet,
    singlet_L,
    werner,
)
from .simulate import (
    CountQuad,
    DegenerateDataError,
    ExperimentConfig,
    estimate_C,
    replicate,
    run_experiment,
    sample_quad,
    subtract_accidentals,
)
from .sphere import (
    PlaneFrame,
    SettingSchedule,
    UnitVector,
    analyzer_angles,
    analyzer_stokes,
    build_schedule,
    default_frames,
    rotate,
)

__all__ = [
    "__version__",
    "UnitVector", "PlaneFrame", "SettingSchedule",
    "rotate", "build_schedule", "default_frames",
    "analyzer_angles", "analyzer_stokes",
    "TwoQubitState",
    "outcome_probability", "correlation",
    "singlet", "werner", "colored_noise", "bell_diagonal", "maximally_mixed",
    "singlet_L", "parse_state",
    "OutcomeTable", "ConstraintViolationError",
    "leggett_outcomes", "admissible_C_range", "check_marginals",
    "PureEnsemble", "product_ensemble",
    "explicit_model_feasible", "explicit_model_margin", "scan_explicit_model",
    "InequalityReport", "NoViolationError",
    "u_coefficient", "discrete_average", "e_jn", "l_n",
    "nlv_bound", "continuum_bound", "continuum_l",
    "optimal_phi", "max_violation_phi",
    "ExperimentConfig", "CountQuad", "DegenerateDataError",
    "sample_quad", "estimate_C", "subtract_accidentals",
    "run_experiment", "replicate",
]

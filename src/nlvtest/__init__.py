"""Finite-setting inequality tests of Leggett-type non-local variable models.

The package provides the Poincare-sphere geometry behind the rotated
measurement schedules, two-qubit quantum predictions, the model's
consistency constraints, the inequality family with its bound
4 - 2 u_N |sin(phi/2)|, and a Monte Carlo model of the photon-counting
experiment with propagated counting errors.
"""

__version__ = "0.1.0"

from .inequality import (
    discrete_average,
    l_n,
    max_violation_phi,
    nlv_bound,
    u_coefficient,
)
from .leggett import (
    ConstraintViolationError,
    PureEnsemble,
    admissible_C_range,
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
    outcome_probabilities,
    parse_state,
    singlet,
    singlet_L,
    werner,
)
from .simulate import (
    ExperimentConfig,
    estimate_C,
    mean_table,
    replicate,
)
from .sphere import check_frames, default_frames

__all__ = [
    "__version__",
    "check_frames", "default_frames",
    "TwoQubitState",
    "outcome_probabilities", "correlation",
    "singlet", "werner", "colored_noise", "bell_diagonal", "maximally_mixed",
    "singlet_L", "parse_state",
    "ConstraintViolationError", "leggett_outcomes", "admissible_C_range",
    "PureEnsemble", "product_ensemble",
    "explicit_model_margin", "scan_explicit_model",
    "u_coefficient", "discrete_average", "l_n",
    "nlv_bound", "max_violation_phi",
    "ExperimentConfig", "estimate_C", "mean_table", "replicate",
]

"""Derivative-free minimization with a conjugate-prior treatment of CMA-ES.

The search distribution's mean and covariance carry a Normal-Inverse-Wishart
belief that is updated in closed form each iteration from density-weighted,
fitness-ranked candidate evaluations, with a dilatation/contraction restart
controller for escaping local minima.
"""

from .benchmarks import BenchmarkSpec, cone, rastrigin, registry_lookup, schwefel1, schwefel2
from .errors import (
    BcmaesError,
    DegreesOfFreedomTooLow,
    InvalidLevels,
    InvariantViolation,
    NotPositiveDefinite,
    PriorDegeneracy,
    RepairFailed,
    SchemaError,
    UnknownFunction,
)
from .linalg import sample_mvn, spd_repair
from .niw import NiwParams, SummaryStats, expected_covariance, expected_mean, posterior_update
from .optimizer import (
    IterationTrace,
    OptimizerConfig,
    RunResult,
    default_popsize,
    init_prior,
    run,
)
from .restart import (
    DEFAULT_FACTORS,
    DEFAULT_LEVELS,
    RestartDecision,
    RestartState,
    init_restart,
    step_restart,
)
from .rng import RandomSource

__version__ = "0.1.0"

__all__ = [
    "BcmaesError",
    "BenchmarkSpec",
    "DegreesOfFreedomTooLow",
    "DEFAULT_FACTORS",
    "DEFAULT_LEVELS",
    "InvalidLevels",
    "InvariantViolation",
    "IterationTrace",
    "NiwParams",
    "NotPositiveDefinite",
    "OptimizerConfig",
    "PriorDegeneracy",
    "RandomSource",
    "RepairFailed",
    "RestartDecision",
    "RestartState",
    "RunResult",
    "SchemaError",
    "SummaryStats",
    "UnknownFunction",
    "cone",
    "default_popsize",
    "expected_covariance",
    "expected_mean",
    "init_prior",
    "init_restart",
    "posterior_update",
    "rastrigin",
    "registry_lookup",
    "run",
    "sample_mvn",
    "schwefel1",
    "schwefel2",
    "spd_repair",
    "step_restart",
]

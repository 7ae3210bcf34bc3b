"""Derivative-free minimization with a conjugate-prior treatment of CMA-ES.

The search distribution's mean and covariance carry a Normal-Inverse-Wishart
belief that is updated in closed form each iteration from density-weighted,
fitness-ranked candidate evaluations, with a dilatation/contraction restart
controller for escaping local minima.

The package namespace is the run API: config, run, result and benchmarks.
The loop's layers are imported from their modules: ``bcmaes.niw`` (belief),
``bcmaes.restart`` (controller), ``bcmaes.linalg`` (repair and sampling),
``bcmaes.rng`` (variates) and ``bcmaes.likelihood`` (summary statistics).
"""

from .benchmarks import BenchmarkSpec, cone, rastrigin, registry_lookup, schwefel1, schwefel2
from .errors import BcmaesError, PriorDegeneracy, SchemaError, UnknownFunction
from .optimizer import IterationTrace, OptimizerConfig, RunResult, default_popsize, run

__version__ = "0.1.0"

__all__ = [
    "BcmaesError",
    "BenchmarkSpec",
    "IterationTrace",
    "OptimizerConfig",
    "PriorDegeneracy",
    "RunResult",
    "SchemaError",
    "UnknownFunction",
    "cone",
    "default_popsize",
    "rastrigin",
    "registry_lookup",
    "run",
    "schwefel1",
    "schwefel2",
]

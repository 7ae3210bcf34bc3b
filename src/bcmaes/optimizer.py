"""The full optimization loop: predict, sample, evaluate, correct, update, control.

Each iteration samples a population from the belief's expected parameters,
evaluates it, condenses it into summary statistics via density weighting and
rank pairing, applies the exact conjugate update, and lets the restart
controller dilate/contract/recenter the search covariance. The belief state
is the single source of truth: controller interventions are mapped back onto
the scale hyperparameter so the next iteration's sampling covariance is
always the belief's expected covariance.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import InvariantViolation, PriorDegeneracy, RepairFailed
from .likelihood import STRATEGIES, CandidateSet, summarize
from .linalg import frobenius_norm, mvn_logpdf_batch, sample_mvn, spd_repair
from .niw import NiwParams, expected_covariance, expected_mean, posterior_update
from .restart import (
    DEFAULT_FACTORS,
    DEFAULT_LEVELS,
    TERMINATE,
    RestartDecision,
    init_restart,
    step_restart,
)
from .rng import RandomSource

STOP_CONTROLLER = "ControllerTerminate"
STOP_MAX_ITER = "MaxIter"
STOP_VAR_NORM = "VarNormSmall"
STOP_STALL = "StallTerminated"


def default_popsize(dim: int) -> int:
    """Population size used when the config leaves it unset: 4 + floor(3 ln d)."""
    return 4 + int(math.floor(3.0 * math.log(dim)))


@dataclass(frozen=True)
class OptimizerConfig:
    """Run configuration; defaults reproduce the reference experiment setup."""

    dim: int
    x0: np.ndarray
    sigma0: float = 1.0
    popsize: Optional[int] = None
    max_iter: int = 500
    stall_limit: int = 60
    var_norm_tol: float = 1e-12
    strategy: str = "s2"
    strategy_switch_iter: Optional[int] = None
    levels: tuple[int, int, int, int, int] = DEFAULT_LEVELS
    factors: tuple[float, float, float, float] = DEFAULT_FACTORS
    seed: int = 0
    parallel_eval: bool = False

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.dim,):
            raise ValueError(f"x0 must have shape ({self.dim},), got {x0.shape}")
        object.__setattr__(self, "x0", x0)
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        if self.k < 2:
            raise ValueError("popsize must be at least 2")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.var_norm_tol <= 0:
            raise ValueError("var_norm_tol must be positive")
        if self.stall_limit < 1:
            raise ValueError("stall_limit must be at least 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")

    @property
    def k(self) -> int:
        return self.popsize if self.popsize is not None else default_popsize(self.dim)


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """One row of the run record."""

    iter: int
    f_best_iter: float
    f_min_so_far: float
    expected_mean: np.ndarray
    cov_frobenius_norm: float
    retrial: int
    event: str


@dataclass(frozen=True)
class RunResult:
    x_best: np.ndarray
    f_best: float
    iterations: int
    stop_reason: str
    trace: list[IterationTrace]
    n_evals: int
    nan_evals: int


@dataclass(frozen=True)
class IterationObservation:
    """Per-iteration snapshot passed to an optional run callback."""

    iter: int
    points: np.ndarray
    fitness: np.ndarray
    sampled_mean: np.ndarray
    sampled_cov: np.ndarray
    state_before: NiwParams
    state_after: NiwParams
    decision: RestartDecision


def init_prior(x0: np.ndarray, sigma0: float, dim: int) -> NiwParams:
    """Belief prior centered at ``x0`` with expected covariance ``sigma0**2 * I``.

    Uses kappa = 1 (so the first mean update moves almost all the way to the
    likelihood estimate) and nu = dim + 3, the smallest integer-offset choice
    for which the expected covariance exists with margin; psi is scaled so
    that the expectation comes out at exactly ``sigma0**2 * I``.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},)")
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    nu = float(dim + 3)
    psi = sigma0**2 * (nu - dim - 1) * np.eye(dim)
    return NiwParams(mu=x0, kappa=1.0, nu=nu, psi=psi)


def _evaluate(points: np.ndarray, objective, pool: Optional[Executor]) -> tuple[np.ndarray, int]:
    """Evaluate the population in order, on ``pool`` if given; NaN results map to +inf.

    The objective must be pure, so the fitness is the same with and without
    a pool. NaN results lose every comparison instead of aborting the run.
    Returns (fitness, nan count).
    """
    if pool is not None:
        raw = np.fromiter(pool.map(objective, points), dtype=float, count=len(points))
    else:
        raw = np.fromiter((objective(p) for p in points), dtype=float, count=len(points))
    nan_mask = np.isnan(raw)
    if nan_mask.any():
        raw = raw.copy()
        raw[nan_mask] = np.inf
    return raw, int(nan_mask.sum())


def _strategy_at(config: OptimizerConfig, t: int) -> str:
    if config.strategy_switch_iter is None or t <= config.strategy_switch_iter:
        return config.strategy
    return "s1" if config.strategy == "s2" else "s2"


def run(
    config: OptimizerConfig,
    objective: Callable[[np.ndarray], float],
    callback: Optional[Callable[[IterationObservation], None]] = None,
) -> RunResult:
    """Minimize ``objective`` under the given configuration.

    Stops on the first of: controller termination (a full contraction ladder
    without improvement), the iteration cap, the expected-covariance
    Frobenius norm falling below ``var_norm_tol``, or ``stall_limit``
    consecutive non-improving iterations. The objective is called exactly
    ``popsize`` times per iteration.

    Raises
    ------
    PriorDegeneracy
        If the belief covariance cannot be repaired to positive definite.
        Its repair at the top of each iteration is also the one certificate
        of the scale the previous conjugate update produced.
    """
    # one pool per run: building one per iteration cost more than the evaluations
    with ThreadPoolExecutor() if config.parallel_eval else nullcontext() as pool:
        return _run(config, objective, callback, pool)


def _run(
    config: OptimizerConfig,
    objective: Callable[[np.ndarray], float],
    callback: Optional[Callable[[IterationObservation], None]],
    pool: Optional[Executor],
) -> RunResult:
    k = config.k
    d = config.dim
    state = init_prior(config.x0, config.sigma0, d)
    controller = init_restart(config.levels, config.factors)
    rng = RandomSource(config.seed)
    trace: list[IterationTrace] = []
    stop_reason: Optional[str] = None
    nan_evals = 0
    belief_cov = expected_covariance(state)

    for t in range(1, config.max_iter + 1):
        mean = expected_mean(state)
        try:
            cov, chol = spd_repair(belief_cov)
        except RepairFailed as exc:
            raise PriorDegeneracy(f"belief covariance degenerate at iteration {t}") from exc
        # the one factor of cov serves both the draw and the density weights
        points = sample_mvn(mean, chol, k, rng)
        fitness, n_nan = _evaluate(points, objective, pool)
        nan_evals += n_nan
        logp = mvn_logpdf_batch(mean, chol, points)
        densities = np.exp(logp)
        if not np.all(densities > 0):
            # at high d and large sigma0 the densities underflow; the weights
            # depend only on their ratios, so shift the log-densities by their maximum
            densities = np.exp(logp - logp.max())
        candidates = CandidateSet.from_evaluations(points, fitness, densities)
        summary = summarize(candidates, mean, cov, _strategy_at(config, t))
        state_before = state
        try:
            state = posterior_update(state, summary)
        except InvariantViolation as exc:
            raise PriorDegeneracy(f"belief scale degenerate at iteration {t}") from exc

        i_best = int(np.argmin(fitness))
        controller, decision = step_restart(controller, points[i_best], float(fitness[i_best]), cov)
        event = "none"
        if decision.action == TERMINATE:
            event = "terminate-signal"
            stop_reason = STOP_CONTROLLER
        else:
            if decision.restart_point is not None:
                psi = decision.restart_sigma * (state.nu - d - 1)
                state = NiwParams(mu=decision.restart_point, kappa=state.kappa,
                                  nu=state.nu, psi=psi)
                event = "restart"
            scale = decision.new_sigma_scale
            if scale != 1.0:
                state = replace(state, psi=state.psi * scale)
                if event == "none":
                    event = "dilate" if scale > 1.0 else "contract"

        # the next iteration samples from this same expected covariance
        belief_cov = expected_covariance(state)
        cov_norm = frobenius_norm(belief_cov)
        trace.append(
            IterationTrace(
                iter=t,
                f_best_iter=float(fitness[i_best]),
                f_min_so_far=controller.f_min,
                expected_mean=expected_mean(state),
                cov_frobenius_norm=cov_norm,
                retrial=controller.retrial,
                event=event,
            )
        )
        if callback is not None:
            callback(
                IterationObservation(
                    iter=t,
                    points=points,
                    fitness=fitness,
                    sampled_mean=mean,
                    sampled_cov=cov,
                    state_before=state_before,
                    state_after=state,
                    decision=decision,
                )
            )
        if stop_reason is not None:
            break
        if cov_norm < config.var_norm_tol:
            stop_reason = STOP_VAR_NORM
            break
        if controller.retrial >= config.stall_limit:
            stop_reason = STOP_STALL
            break
    if stop_reason is None:
        stop_reason = STOP_MAX_ITER

    # x_min stays unset only if every single evaluation came back +inf
    x_best = controller.x_min.copy() if controller.x_min is not None else config.x0.copy()
    return RunResult(
        x_best=x_best,
        f_best=controller.f_min,
        iterations=len(trace),
        stop_reason=stop_reason,
        trace=trace,
        n_evals=k * len(trace),
        nan_evals=nan_evals,
    )

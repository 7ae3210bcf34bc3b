"""The full optimization loop: predict, sample, evaluate, correct, update, control.

Each iteration samples a population from the belief's expected parameters,
evaluates it, weights each point by its sampling density, condenses the
population into summary statistics with :func:`~bcmaes.likelihood.summarize`,
applies the exact conjugate update, and lets the restart controller
dilate/contract/recenter the search covariance. The loop certifies what
``summarize`` takes: NaN fitness is mapped to +inf, and the weights are the
softmax of ``-|z|**2 / 2`` over the standard-normal variates ``z`` the points
were drawn from (``x = mean + L z``), which are the normalized sampling
densities without evaluating one, so no density can underflow or overflow.
The belief state is the single source of truth: controller interventions are
mapped back onto the scale hyperparameter so the next iteration's sampling
covariance is always the belief's expected covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import PriorDegeneracy, RepairFailed
from .likelihood import STRATEGIES, summarize
from .linalg import _sample, frobenius_norm, spd_repair
from .niw import NiwParams, _record, expected_covariance, expected_mean, posterior_update
from .restart import TERMINATE, RestartDecision, init_restart, step_restart
from .rng import RandomSource

if TYPE_CHECKING:
    from concurrent.futures import Executor

STOP_CONTROLLER = "ControllerTerminate"
STOP_MAX_ITER = "MaxIter"
STOP_VAR_NORM = "VarNormSmall"

# the run stops when the expected covariance's Frobenius norm falls below this times sigma0**2
_VAR_NORM_TOL = 1e-12


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
    strategy: str = "s2"
    seed: int = 0
    parallel_eval: bool = False

    def __post_init__(self):
        # the run's one boundary check: the loop trusts every value derived from these
        for name in ("dim", "popsize", "max_iter", "seed"):
            value = getattr(self, name)
            if value is None and name == "popsize":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.dim,):
            raise ValueError(f"x0 must have shape ({self.dim},), got {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 entries must be finite")
        object.__setattr__(self, "x0", x0)
        # written as not (x > 0) so that NaN fails too
        if not (self.sigma0 > 0):
            raise ValueError("sigma0 must be positive")
        prior_scale = 2.0 * float(self.sigma0) * float(self.sigma0)
        if not math.isfinite(prior_scale):
            raise ValueError("sigma0 is too large: the prior scale 2 * sigma0**2 overflows")
        if not (prior_scale > 0):
            raise ValueError("sigma0 is too small: the prior scale 2 * sigma0**2 underflows to 0")
        if self.k < 2:
            raise ValueError("popsize must be at least 2")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
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
    that the expectation comes out at exactly ``sigma0**2 * I``. ``x0`` and
    ``sigma0`` are those of a checked :class:`OptimizerConfig`.
    """
    nu = float(dim + 3)
    psi = sigma0**2 * (nu - dim - 1) * np.eye(dim)
    return NiwParams(mu=x0, kappa=1.0, nu=nu, psi=psi)


def _evaluate(points: np.ndarray, objective, pool: Optional[Executor]) -> tuple[np.ndarray, int]:
    """Evaluate the population in order, on ``pool`` if given; NaN results map to +inf.

    The objective must be pure, so the fitness is the same with and without
    a pool. NaN results lose every comparison instead of aborting the run.
    Returns (fitness, nan count).
    """
    evaluations = map(objective, points) if pool is None else pool.map(objective, points)
    raw = np.fromiter(evaluations, dtype=float, count=len(points))
    # isnan, not a NaN sum: a sum of large finite fitness overflows and warns
    nan_mask = np.isnan(raw)
    if not np.logical_or.reduce(nan_mask):
        return raw, 0
    raw[nan_mask] = np.inf
    return raw, np.count_nonzero(nan_mask)


def _softmax(q: np.ndarray) -> np.ndarray:
    """``exp(q)`` over its sum, shifted by ``max(q)``: finite weights summing to one.

    After the shift every exponent is at most 0 and the largest term is
    exactly 1, so nothing overflows and the sum lies in ``[1, len(q)]``.
    """
    e = q - np.maximum.reduce(q)
    np.exp(e, out=e)
    e /= np.add.reduce(e)
    return e


def run(
    config: OptimizerConfig,
    objective: Callable[[np.ndarray], float],
    callback: Optional[Callable[[IterationObservation], None]] = None,
) -> RunResult:
    """Minimize ``objective`` under the given configuration.

    Stops on the first of: controller termination (50 consecutive
    non-improving iterations end its ladder), the iteration cap, or the
    expected covariance's Frobenius norm falling below ``1e-12 * sigma0**2``,
    a tolerance relative to the start scale. The objective is called exactly
    ``popsize`` times per iteration.

    Errors: an invalid configuration raises ``ValueError`` when the
    :class:`OptimizerConfig` is constructed; past that, the loop trusts the
    values it derives and builds its records without re-checking them.

    Raises
    ------
    PriorDegeneracy
        If the belief mean or covariance is non-finite, or the covariance
        cannot be repaired to positive definite. The check and repair at the
        top of each iteration are the one certificate of the belief the
        previous conjugate update or controller intervention produced. A
        belief produced in the final iteration is reported, not certified.
        Also raised when a population's scatter overflows, so that its
        covariance estimate is not finite.
    """
    if not config.parallel_eval:
        return _run(config, objective, callback, None)
    # imported here, so that importing the package does not load concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    # one pool per run: building one per iteration cost more than the evaluations
    with ThreadPoolExecutor() as pool:
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
    controller = init_restart()
    rng = RandomSource(config.seed)
    trace: list[IterationTrace] = []
    stop_reason: Optional[str] = None
    nan_evals = 0
    belief_cov = expected_covariance(state)
    var_norm_tol = _VAR_NORM_TOL * config.sigma0**2

    for t in range(1, config.max_iter + 1):
        mean = expected_mean(state)
        try:
            cov, chol = spd_repair(belief_cov)
        except (RepairFailed, ValueError) as exc:  # a ValueError here means non-finite
            raise PriorDegeneracy(f"belief covariance degenerate at iteration {t}") from exc
        if not np.logical_and.reduce(np.isfinite(mean)):
            # the mean update's kappa * mu + n * mu_bar overflows for |mu| near the float range
            raise PriorDegeneracy(f"belief mean not finite at iteration {t}")
        points, z = _sample(mean, chol, k, rng)
        fitness, n_nan = _evaluate(points, objective, pool)
        nan_evals += n_nan
        # an overflow below reaches PriorDegeneracy, here or at the next iteration's
        # certificate, so numpy's warnings would only announce that error early;
        # the objective above and the callback below keep their own warnings
        with np.errstate(over="ignore", invalid="ignore"):
            # x = mean + chol @ z has density exp(-|z|**2 / 2) / ((2 pi)**(d/2) det chol);
            # the constant is common to the population and cancels in the weights
            weights = _softmax(-0.5 * np.add.reduce(z * z, axis=1))
            try:
                summary = summarize(points, fitness, weights, mean, cov, config.strategy)
            except ValueError as exc:  # its inputs are certified: the scatter overflowed
                raise PriorDegeneracy(f"population scatter not finite at iteration {t}") from exc
            state_before = state
            state = posterior_update(state, summary)

            i_best = fitness.argmin()
            f_best_iter = float(fitness[i_best])
            controller, decision = step_restart(controller, points[i_best], f_best_iter, cov)
            event = "none"
            if decision.action == TERMINATE:
                event = "terminate-signal"
                stop_reason = STOP_CONTROLLER
            else:
                mu, psi = state.mu, state.psi
                if decision.restart_point is not None:
                    mu, psi = decision.restart_point, decision.restart_sigma * (state.nu - d - 1)
                    event = "restart"
                scale = decision.new_sigma_scale
                if scale != 1.0:
                    psi = psi * scale
                    if event == "none":
                        event = "dilate" if scale > 1.0 else "contract"
                state = _record(NiwParams, mu=mu, kappa=state.kappa, nu=state.nu, psi=psi)

            # the next iteration samples from this same expected covariance
            belief_cov = expected_covariance(state)
            cov_norm = frobenius_norm(belief_cov)
        # the records are frozen, but built without the dataclass __init__
        trace.append(
            _record(
                IterationTrace,
                iter=t,
                f_best_iter=f_best_iter,
                f_min_so_far=controller.f_min,
                expected_mean=expected_mean(state),
                cov_frobenius_norm=cov_norm,
                retrial=controller.retrial,
                event=event,
            )
        )
        if callback is not None:
            callback(
                _record(
                    IterationObservation,
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
        if cov_norm < var_norm_tol:
            stop_reason = STOP_VAR_NORM
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

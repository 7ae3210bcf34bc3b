"""The full optimization loop: predict, sample, evaluate, correct, update, control.

Each iteration samples a population from the belief's expected parameters,
evaluates it, weights each point by its sampling density, condenses the
population into summary statistics with :func:`~bcmaes.likelihood.summarize`,
applies the exact conjugate update, and lets the restart controller
dilate/contract/recenter the search covariance. It runs in the start's own
units: the belief, with prior N(0, I), is over ``y``, and only the objective
and the records see ``x = x0 + sigma0 * y``. The loop certifies what
``summarize`` takes: NaN fitness is mapped to +inf, and the weights are the
softmax of ``-|z|**2 / 2`` over the standard-normal variates ``z`` the points
were drawn from (``y = mean + L z``), which are the normalized sampling
densities without evaluating one, so no density can underflow or overflow.
The belief state is the single source of truth: controller interventions are
mapped back onto the scale hyperparameter so the next iteration's sampling
covariance is always the belief's expected covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import PriorDegeneracy
from .likelihood import STRATEGIES, summarize
from .linalg import _sample, frobenius_norm, spd_repair
from .niw import NiwParams, expected_covariance, posterior_update
from .restart import TERMINATE, init_restart, step_restart
from .rng import RandomSource

STOP_CONTROLLER = "ControllerTerminate"
STOP_MAX_ITER = "MaxIter"
STOP_VAR_NORM = "VarNormSmall"

# the run stops when the expected covariance's Frobenius norm, in units of sigma0, falls below this
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
        try:
            # a complex value would be cast to float with only a ComplexWarning, dropping its imaginary part
            x0 = None if np.iscomplexobj(self.x0) else np.asarray(self.x0, dtype=float)
        except (OverflowError, TypeError, ValueError):  # ragged, an int beyond the float range, or not a real
            x0 = None
        if x0 is None:
            raise ValueError("x0 entries must be finite")
        if x0.shape != (self.dim,):
            raise ValueError(f"x0 must have shape ({self.dim},), got {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 entries must be finite")
        object.__setattr__(self, "x0", x0)
        try:
            sigma0 = math.nan if np.iscomplexobj(self.sigma0) else float(self.sigma0)
        except (OverflowError, TypeError, ValueError):  # an int beyond the float range, or not a real
            sigma0 = math.nan  # refused below
        # written as not (...) so that NaN fails too
        if not (0 < sigma0 < math.inf):
            raise ValueError("sigma0 must be positive and finite")
        object.__setattr__(self, "sigma0", sigma0)
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
    """One row of the run record, in units of ``x``."""

    iter: int
    f_best_iter: float
    f_min_so_far: float
    expected_mean: np.ndarray
    cov_frobenius_norm: float
    retrial: int
    event: str


@dataclass(frozen=True)
class RunResult:
    """What a run returns, in units of ``x``.

    ``x_best`` is the best point evaluated, and ``objective(x_best)`` is
    ``f_best`` bit for bit (``x0`` and +inf when no evaluation was finite).
    ``iterations`` is ``len(trace)``, ``stop_reason`` one of the ``STOP_*``
    names, and ``trace`` holds one :class:`IterationTrace` per iteration.
    ``n_evals`` is ``popsize * iterations``; ``nan_evals`` counts the
    evaluations that returned NaN and were ranked as +inf.
    """

    x_best: np.ndarray
    f_best: float
    iterations: int
    stop_reason: str
    trace: list[IterationTrace]
    n_evals: int
    nan_evals: int


def init_prior(dim: int) -> NiwParams:
    """Belief prior over ``y``: mean 0 and expected covariance exactly ``I``.

    That is mean ``x0`` and expected covariance ``sigma0**2 * I`` in
    ``x = x0 + sigma0 * y``. Uses kappa = 1 (so the first mean update moves
    almost all the way to the likelihood estimate) and nu = dim + 3, the
    smallest integer-offset choice for which the expected covariance exists
    with margin, and psi = ``(nu - dim - 1) * I``.
    """
    nu = float(dim + 3)
    return NiwParams(mu=np.zeros(dim), kappa=1.0, nu=nu, psi=(nu - dim - 1) * np.eye(dim))


def _evaluate(points: np.ndarray, objective) -> tuple[np.ndarray, int]:
    """Evaluate the population in order, one call per point; NaN results map to +inf.

    NaN results lose every comparison instead of aborting the run.
    Returns (fitness, nan count).
    """
    raw = np.fromiter(map(objective, points), dtype=float, count=len(points))
    # isnan, not a NaN sum: a sum of large finite fitness overflows and warns
    nan_mask = np.isnan(raw)
    if not np.logical_or.reduce(nan_mask):
        return raw, 0
    raw[nan_mask] = np.inf
    return raw, np.count_nonzero(nan_mask)


def _softmax(q: np.ndarray) -> np.ndarray:
    """``exp(q)`` over its sum, shifted by ``max(q)``, in place: finite weights summing to one.

    After the shift every exponent is at most 0 and the largest term is
    exactly 1, so nothing overflows and the sum lies in ``[1, len(q)]``.
    """
    q -= np.maximum.reduce(q)
    np.exp(q, out=q)
    q /= np.add.reduce(q)
    return q


def run(
    config: OptimizerConfig,
    objective: Callable[[np.ndarray], float],
    callback: Optional[Callable[[IterationTrace], None]] = None,
) -> RunResult:
    """Minimize ``objective`` under the given configuration.

    The objective sees ``x = y * sigma0 + x0`` for the loop's points ``y``,
    as ``x_best`` is made, so ``objective(x_best)`` is ``f_best`` bit for bit.
    Stops on the first of: controller termination (50 consecutive
    non-improving iterations end its ladder), the iteration cap, or the
    Frobenius norm of the expected covariance of ``y`` falling below 1e-12.
    The objective is called exactly ``popsize`` times per iteration, once
    per point, in order, in the calling thread. ``callback``, if given, is
    called once per iteration with the :class:`IterationTrace` row just
    appended, the same object as ``result.trace[t - 1]``, before the stop
    checks and so also for the last iteration. An exception the objective
    or the callback raises propagates unchanged.

    The loop owns numpy's error state; the layers set none. Each iteration
    enters ``np.errstate(all="ignore")`` twice: once from the belief's
    certificate through ``x``, and once from the weights through the next
    expected covariance. The objective and the callback run outside both,
    so their own warnings surface, and the loop raises none of its own.

    Errors: an invalid configuration raises ``ValueError`` when the
    :class:`OptimizerConfig` is constructed; past that, the loop trusts the
    values it derives. Its records are built by their own constructors,
    which check nothing: the belief and the controller's state and decision
    are named tuples, the trace rows frozen dataclasses.

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
    k = config.k
    d = config.dim
    x0, sigma0 = config.x0, config.sigma0
    state = init_prior(d)
    controller = init_restart()
    rng = RandomSource(config.seed)
    trace: list[IterationTrace] = []
    stop_reason: Optional[str] = None
    nan_evals = 0
    belief_cov = expected_covariance(state)

    for t in range(1, config.max_iter + 1):
        # the expected mean, not copied: nothing below writes to it
        mean = state.mu
        # the layers leave numpy's error state to the loop: a failed factorization signals
        # invalid, x overflows to inf near the float range's end, and an overflow in the
        # update ends in PriorDegeneracy or in an inf record of x, so numpy's warnings would
        # only announce it early; the objective and the callback keep their own warnings
        with np.errstate(all="ignore"):
            try:
                cov, chol = spd_repair(belief_cov)
            except ValueError as exc:  # non-finite, or not positive definite even with jitter
                raise PriorDegeneracy(f"belief covariance degenerate at iteration {t}") from exc
            if not np.logical_and.reduce(np.isfinite(mean)):
                # the mean update's kappa * mu + n * mu_bar overflows for |mu| near the float range
                raise PriorDegeneracy(f"belief mean not finite at iteration {t}")
            points, z = _sample(mean, chol, k, rng)
            x = points * sigma0 + x0
        fitness, n_nan = _evaluate(x, objective)
        nan_evals += n_nan
        with np.errstate(all="ignore"):
            # y = mean + chol @ z has density exp(-|z|**2 / 2) / ((2 pi)**(d/2) det chol);
            # the constant is common to the population and cancels in the weights
            q = np.add.reduce(z * z, axis=1)
            q *= -0.5
            weights = _softmax(q)
            try:
                mu_bar, sigma_bar, n_obs = summarize(points, fitness, weights, mean, cov, config.strategy)
            except ValueError as exc:  # its inputs are certified: the scatter overflowed
                raise PriorDegeneracy(f"population scatter not finite at iteration {t}") from exc
            state = posterior_update(state, mu_bar, sigma_bar, n_obs)

            i_best = fitness.argmin()
            f_best_iter = float(fitness[i_best])
            controller, decision = step_restart(controller, points[i_best], f_best_iter, cov)
            event = "none"
            if decision.action == TERMINATE:
                event = "terminate-signal"
                stop_reason = STOP_CONTROLLER
            elif decision.restart_point is not None or decision.new_sigma_scale != 1.0:
                mu, psi = state.mu, state.psi
                if decision.restart_point is not None:
                    mu, psi = decision.restart_point, decision.restart_sigma * (state.nu - d - 1)
                    event = "restart"
                scale = decision.new_sigma_scale
                if scale != 1.0:
                    psi = psi * scale
                    if event == "none":
                        event = "dilate" if scale > 1.0 else "contract"
                state = NiwParams(mu=mu, kappa=state.kappa, nu=state.nu, psi=psi)

            # the next iteration samples from this same expected covariance
            belief_cov = expected_covariance(state)
            cov_norm = frobenius_norm(belief_cov)
            mean_x = state.mu * sigma0 + x0
        row = IterationTrace(
            iter=t,
            f_best_iter=f_best_iter,
            f_min_so_far=controller.f_min,
            expected_mean=mean_x,
            # sigma0 * sigma0 first would overflow or underflow where the product does not
            cov_frobenius_norm=sigma0 * cov_norm * sigma0,
            retrial=controller.retrial,
            event=event,
        )
        trace.append(row)
        if callback is not None:
            callback(row)
        if stop_reason is not None:
            break
        if cov_norm < _VAR_NORM_TOL:
            stop_reason = STOP_VAR_NORM
            break
    if stop_reason is None:
        stop_reason = STOP_MAX_ITER

    # x_min is unset only if every evaluation came back +inf; x_best is made as x was
    y_best = controller.x_min if controller.x_min is not None else np.zeros(d)
    with np.errstate(all="ignore"):
        x_best = y_best * sigma0 + x0
    return RunResult(
        x_best=x_best,
        f_best=controller.f_min,
        iterations=len(trace),
        stop_reason=stop_reason,
        trace=trace,
        n_evals=k * len(trace),
        nan_evals=nan_evals,
    )

"""Stall-driven variance dilatation/contraction with restart-at-best.

A retrial counter tracks consecutive non-improving iterations. Short stalls
are tolerated unchanged; medium stalls inflate the search variance to escape
local minima; once the counter reaches the restart level the search recenters
on the best point seen (with the covariance that found it) and the variance
is progressively contracted; a full ladder of contractions without any
improvement signals termination.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidLevels

DEFAULT_LEVELS = (5, 20, 30, 40, 50)
DEFAULT_FACTORS = (1.5, 0.9, 0.7, 0.5)

_F_SENTINEL = float(np.finfo(float).max)

CONTINUE = "continue"
TERMINATE = "terminate"


@dataclass(frozen=True)
class RestartState:
    """Controller memory: stall counter, best-seen record, and the ladder tables."""

    retrial: int
    f_min: float
    x_min: Optional[np.ndarray]
    sigma_min: Optional[np.ndarray]
    levels: tuple[int, int, int, int, int]
    factors: tuple[float, float, float, float]

    @property
    def restart_level(self) -> int:
        """The retrial count at which the search recenters on the best point."""
        return self.levels[1]


@dataclass(frozen=True)
class RestartDecision:
    """Outcome of one controller step.

    ``new_sigma_scale`` multiplies the current search covariance (1.0 means
    leave it alone); a set ``restart_point``/``restart_sigma`` pair asks the
    caller to recenter first. A terminate decision carries neither.
    """

    action: str
    new_sigma_scale: Optional[float] = None
    restart_point: Optional[np.ndarray] = None
    restart_sigma: Optional[np.ndarray] = None
    improved: bool = False


def init_restart(
    levels: tuple[int, int, int, int, int] = DEFAULT_LEVELS,
    factors: tuple[float, float, float, float] = DEFAULT_FACTORS,
) -> RestartState:
    """Fresh controller state: zero retrials and a max-float best record.

    The best-fitness record starts at the largest finite float, so the first
    evaluated candidate always registers and ``x_min`` is guaranteed to be set
    from iteration one onward.

    Raises
    ------
    InvalidLevels
        If the level thresholds are not strictly increasing, the dilatation
        factor is not > 1, or the contraction factors are not in (0, 1) and
        non-increasing.
    """
    l1, l2, l3, l4, l5 = levels
    if not (0 < l1 < l2 < l3 < l4 < l5):
        raise InvalidLevels(f"levels must be strictly increasing and positive, got {levels}")
    k1, k2, k3, k4 = factors
    if not k1 > 1:
        raise InvalidLevels(f"dilatation factor must exceed 1, got {k1}")
    if not (0 < k4 <= k3 <= k2 < 1):
        raise InvalidLevels(f"contraction factors must satisfy 0 < k4 <= k3 <= k2 < 1, got {factors}")
    return RestartState(
        retrial=0,
        f_min=_F_SENTINEL,
        x_min=None,
        sigma_min=None,
        levels=tuple(int(v) for v in levels),
        factors=tuple(float(v) for v in factors),
    )


def step_restart(
    state: RestartState,
    x_best: np.ndarray,
    f_best: float,
    sigma: np.ndarray,
) -> tuple[RestartState, RestartDecision]:
    """Advance the controller with one iteration's best candidate.

    An improving step (``f_best <= f_min``, so plateaus count) records the
    new optimum together with ``sigma`` (the covariance in effect when it was
    found) and resets the counter. Otherwise the counter increments and the
    ladder fires on the incremented value: up to L1 nothing happens; strictly
    between L1 and L2 the variance dilates by k1; exactly at L2 the decision
    additionally carries the recorded restart point and covariance (the
    counter keeps running); [L2, L3) contracts by k2, [L3, L4) by k3,
    [L4, L5) by k4; at L5 the controller signals termination.
    """
    l1, l2, l3, l4, l5 = state.levels
    k1, k2, k3, k4 = state.factors
    if f_best <= state.f_min:
        new_state = RestartState(
            retrial=0,
            f_min=float(f_best),
            x_min=np.asarray(x_best, dtype=float).copy(),
            sigma_min=np.asarray(sigma, dtype=float).copy(),
            levels=state.levels,
            factors=state.factors,
        )
        return new_state, RestartDecision(action=CONTINUE, new_sigma_scale=1.0, improved=True)

    retrial = state.retrial + 1
    new_state = replace(state, retrial=retrial)
    if retrial >= l5:
        return new_state, RestartDecision(action=TERMINATE)

    restart_point = None
    restart_sigma = None
    if retrial == l2 and state.x_min is not None:
        restart_point = state.x_min.copy()
        restart_sigma = state.sigma_min.copy()

    if retrial <= l1:
        scale = 1.0
    elif retrial < l2:
        scale = k1
    elif retrial < l3:
        scale = k2
    elif retrial < l4:
        scale = k3
    else:
        scale = k4
    return new_state, RestartDecision(
        action=CONTINUE,
        new_sigma_scale=scale,
        restart_point=restart_point,
        restart_sigma=restart_sigma,
        improved=False,
    )

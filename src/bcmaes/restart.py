"""Stall-driven variance dilatation/contraction with restart-at-best.

A retrial counter tracks consecutive non-improving iterations. Short stalls
are tolerated unchanged; medium stalls inflate the search variance to escape
local minima; once the counter reaches the restart level the search recenters
on the best point seen (with the covariance that found it) and the variance
is progressively contracted; a full ladder of contractions without any
improvement signals termination. The controller's state and its decisions
are immutable named tuples.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

# the ladder: retrial levels L1 < ... < L5, dilatation K1 > 1, contractions K2 >= K3 >= K4
_L1, _L2, _L3, _L4, _L5 = 5, 20, 30, 40, 50
_K1, _K2, _K3, _K4 = 1.5, 0.9, 0.7, 0.5

CONTINUE = "continue"
TERMINATE = "terminate"


class RestartState(NamedTuple):
    """Controller memory: stall counter and best-seen record."""

    retrial: int
    f_min: float
    x_min: Optional[np.ndarray]
    sigma_min: Optional[np.ndarray]


class RestartDecision(NamedTuple):
    """Outcome of one controller step.

    ``new_sigma_scale`` multiplies the current search covariance (1.0 means
    leave it alone); a set ``restart_point``/``restart_sigma`` pair asks the
    caller to recenter first. A terminate decision carries neither.
    """

    action: str
    new_sigma_scale: Optional[float] = None
    restart_point: Optional[np.ndarray] = None
    restart_sigma: Optional[np.ndarray] = None


# the decisions that carry no arrays are shared: records are immutable
_IMPROVED = RestartDecision(action=CONTINUE, new_sigma_scale=1.0)
_TERMINATED = RestartDecision(action=TERMINATE)


def init_restart() -> RestartState:
    """Fresh controller state: zero retrials and an infinite best record.

    The first candidate with a finite fitness registers and sets ``x_min``.
    While every evaluation is +inf (or NaN, which the loop maps to +inf),
    ``f_min`` stays +inf and ``x_min`` and ``sigma_min`` stay unset.
    """
    return RestartState(retrial=0, f_min=math.inf, x_min=None, sigma_min=None)


def step_restart(
    state: RestartState,
    x_best: np.ndarray,
    f_best: float,
    sigma: np.ndarray,
) -> tuple[RestartState, RestartDecision]:
    """Advance the controller with one iteration's best candidate.

    An improving step (a finite ``f_best <= f_min``, so plateaus count and
    +inf never does) records the new optimum together with ``sigma`` (the
    covariance in effect when it was found) and resets the counter, so a step
    improved exactly when the returned state has ``retrial == 0``. Otherwise
    the counter increments and the ladder fires on the incremented value: up
    to ``_L1`` nothing happens; strictly between ``_L1`` and ``_L2`` the
    variance dilates by ``_K1``; exactly at ``_L2`` the decision additionally
    carries the recorded restart point and covariance (the counter keeps
    running); [``_L2``, ``_L3``) contracts by ``_K2``, [``_L3``, ``_L4``) by
    ``_K3``, [``_L4``, ``_L5``) by ``_K4``; at ``_L5`` the controller signals
    termination. The module constants fix the ladder at levels
    (5, 20, 30, 40, 50) and factors (1.5, 0.9, 0.7, 0.5).
    """
    if f_best < math.inf and f_best <= state.f_min:
        new_state = RestartState(
            retrial=0,
            f_min=float(f_best),
            x_min=np.asarray(x_best, dtype=float).copy(),
            sigma_min=np.asarray(sigma, dtype=float).copy(),
        )
        return new_state, _IMPROVED

    retrial = state.retrial + 1
    new_state = RestartState(retrial=retrial, f_min=state.f_min, x_min=state.x_min,
                             sigma_min=state.sigma_min)
    if retrial >= _L5:
        return new_state, _TERMINATED

    restart_point = None
    restart_sigma = None
    if retrial == _L2 and state.x_min is not None:
        restart_point = state.x_min.copy()
        restart_sigma = state.sigma_min.copy()

    if retrial <= _L1:
        scale = 1.0
    elif retrial < _L2:
        scale = _K1
    elif retrial < _L3:
        scale = _K2
    elif retrial < _L4:
        scale = _K3
    else:
        scale = _K4
    return new_state, RestartDecision(
        action=CONTINUE,
        new_sigma_scale=scale,
        restart_point=restart_point,
        restart_sigma=restart_sigma,
    )

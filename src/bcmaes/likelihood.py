"""Turn one evaluated population into the likelihood summary (mu_bar, sigma_bar).

The run loop weights each candidate by its sampling density and hands the
population to :func:`summarize`, which rank-pairs it (weights in descending
order against points in ascending fitness order) and combines it into a mean
estimate and a Monte-Carlo bias-corrected covariance estimate. Both
estimators cancel back to the simulation-distribution parameters whenever
the fitness ranking agrees with the density ranking.
"""

from __future__ import annotations

import numpy as np

from .errors import RepairFailed
from .linalg import scaled_jitter_eps, spd_repair
from .niw import SummaryStats, _record

STRATEGIES = ("s1", "s2")


def summarize(
    points: np.ndarray,
    fitness: np.ndarray,
    weights: np.ndarray,
    prior_mean: np.ndarray,
    prior_cov: np.ndarray,
    strategy: str,
) -> SummaryStats:
    """Produce the update summary for one population.

    The points are paired by a two-stage sort. Stage one orders the weights
    descending, ties broken by original index; stage two stably orders the
    points of that sequence by fitness ascending, so among equal fitness the
    larger weight goes to the denser point. The best point pairs with the
    largest weight.

    The mean estimate follows the strategy. "s1" is the rank-paired weighted
    mean minus the bias of the raw weighted mean relative to ``prior_mean``;
    "s2" is the population's fitness argmin, ties to the lowest index. The
    covariance estimate, for both, is ``A - (B - prior_cov)``: A is the
    weighted scatter of the rank-paired points about their mean, B that of
    the raw pairing about the raw mean. It is symmetrized and, if indefinite,
    jitter-repaired; when the jitter ladder fails, its eigenvalues are
    floored at ``scaled_jitter_eps(prior_cov)``. The full population size is
    credited as the observation count.

    The run loop guarantees the inputs, and nothing here checks them:

    - ``points`` is a float64 ``(k, d)`` matrix with k >= 2;
    - ``fitness`` is a float64 length-k vector without NaN (infinities are
      ordered);
    - ``weights`` is the float64 length-k vector ``densities / densities.sum()``:
      finite, nonnegative and summing to one;
    - ``prior_mean`` and ``prior_cov`` are the float64 mean and certified
      positive-definite covariance the population was sampled from;
    - ``strategy`` is one of :data:`STRATEGIES`.

    ``sigma_bar`` comes out positive definite, so the summary is built
    without the checks of :class:`SummaryStats`. A scatter that overflows
    reaches :func:`spd_repair` non-finite, which raises ``ValueError``.
    """
    order_w = np.argsort(-weights, kind="stable")
    w_desc = weights[order_w]
    x_fasc = points[order_w[np.argsort(fitness[order_w], kind="stable")]]
    ranked_mean = w_desc @ x_fasc
    raw_mean = weights @ points
    if strategy == "s1":
        mu_bar = ranked_mean - (raw_mean - prior_mean)
    else:
        mu_bar = points[int(np.argmin(fitness))].copy()

    dev_r = x_fasc - ranked_mean
    a = (w_desc[:, None] * dev_r).T @ dev_r
    dev = points - raw_mean
    b = (weights[:, None] * dev).T @ dev
    out = a - (b - prior_cov)
    out = 0.5 * (out + out.T)
    try:
        sigma_bar = spd_repair(out)[0]
    except RepairFailed:
        # With k < d the two rank-(k-1) scatters can leave an indefinite part
        # at the scale of prior_cov itself, beyond the jitter ladder: project
        # onto the positive-definite cone, flooring eigenvalues relative to prior_cov.
        eigvals, eigvecs = np.linalg.eigh(out)
        out = (eigvecs * np.maximum(eigvals, scaled_jitter_eps(prior_cov))) @ eigvecs.T
        sigma_bar = 0.5 * (out + out.T)
    return _record(SummaryStats, mu_bar=mu_bar, sigma_bar=sigma_bar, n_obs=points.shape[0])

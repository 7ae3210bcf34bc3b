"""Turn one evaluated population into the likelihood summary (mu_bar, sigma_bar, n_obs).

The run loop weights each candidate by its sampling density and hands the
population to :func:`summarize`, which rank-pairs it (weights in descending
order against points in ascending fitness order) and combines it into a mean
estimate and a Monte-Carlo bias-corrected covariance estimate. Both
estimators cancel back to the simulation-distribution parameters whenever
the fitness ranking agrees with the density ranking. The loop passes the
three values to :func:`~bcmaes.niw.posterior_update`.
"""

from __future__ import annotations

import numpy as np

from .linalg import _cholesky, scaled_jitter_eps

STRATEGIES = ("s1", "s2")


def summarize(
    points: np.ndarray,
    fitness: np.ndarray,
    weights: np.ndarray,
    prior_mean: np.ndarray,
    prior_cov: np.ndarray,
    strategy: str,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Produce the update summary ``(mu_bar, sigma_bar, n_obs)`` for one population.

    The points are paired by one stable sort on two keys, which is the
    two-stage sort of weights descending, then fitness ascending: the points
    are ordered by fitness ascending, ties by weight descending, then by
    original index, and the i-th of them pairs with the i-th largest weight.
    So among equal fitness the larger weight goes to the denser point, and
    the best point pairs with the largest weight.

    The mean estimate follows the strategy. "s1" is the rank-paired weighted
    mean minus the bias of the raw weighted mean relative to ``prior_mean``;
    "s2" is the population's fitness argmin, ties to the lowest index. The
    covariance estimate, for both, is ``A - (B - prior_cov)``: A is the
    weighted scatter of the rank-paired points about their mean, B that of
    the raw pairing about the raw mean. It is symmetrized, and kept as it is
    when its Cholesky factorization, one call of
    :func:`~bcmaes.linalg._cholesky`, succeeds. Otherwise (with k <= d, in half
    or more of the iterations) it is shifted in closed form: its infinity
    norm, the largest absolute row sum, plus ``scaled_jitter_eps(prior_cov)``
    is added to its diagonal. That norm bounds every eigenvalue's magnitude,
    so the shifted matrix is positive definite with no search and no second
    factorization. The full population size k is credited as the
    observation count ``n_obs``.

    The run loop guarantees the inputs, and nothing here checks them:

    - ``points`` is a float64 ``(k, d)`` matrix with k >= 2;
    - ``fitness`` is a float64 length-k vector without NaN (infinities are
      ordered);
    - ``weights`` is the float64 length-k vector of the normalized sampling
      densities: finite, nonnegative and summing to one. The loop computes
      them as the softmax of ``-|z|**2 / 2`` over the variates ``z`` behind
      the points, which equals ``densities / densities.sum()`` up to
      rounding;
    - ``prior_mean`` and ``prior_cov`` are the float64 mean and certified
      positive-definite covariance the population was sampled from;
    - ``strategy`` is one of :data:`STRATEGIES`.

    ``sigma_bar`` comes out positive definite. A scatter that overflows
    leaves the estimate non-finite, which raises ``ValueError``. numpy's
    error state is the caller's, and the run loop ignores every flag: an
    estimate that does not factor signals ``invalid``, and a scatter that
    overflows signals ``over``, each of which warns when ``summarize`` is
    called alone under numpy's default state.
    """
    neg_w = -weights
    # fitness ascending, then weight descending, then index: lexsort is stable
    x_fasc = points[np.lexsort((neg_w, fitness))]
    neg_w.sort()
    w_desc = -neg_w
    ranked_mean = w_desc @ x_fasc
    raw_mean = weights @ points
    if strategy == "s1":
        mu_bar = ranked_mean - (raw_mean - prior_mean)
    else:
        mu_bar = points[fitness.argmin()].copy()

    dev_r = x_fasc - ranked_mean
    a = (w_desc[:, None] * dev_r).T @ dev_r
    dev = points - raw_mean
    b = (weights[:, None] * dev).T @ dev
    # a - (b - prior_cov), then 0.5 * (out + out.T), in place: the bits of those expressions
    b -= prior_cov
    a -= b
    out = a + a.T
    out *= 0.5
    if not np.logical_and.reduce(np.isfinite(out), axis=None):
        raise ValueError("covariance estimate entries must be finite")
    factor = _cholesky(out)
    if factor is None:
        # the infinity norm, the largest absolute row sum, is at least every |eigenvalue|
        shift = np.maximum.reduce(np.add.reduce(np.abs(out), axis=1))
        out.flat[::out.shape[0] + 1] += shift + scaled_jitter_eps(prior_cov)
    return mu_bar, out, points.shape[0]

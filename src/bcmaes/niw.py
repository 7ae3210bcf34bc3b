"""Normal-Inverse-Wishart belief over the sampling distribution's (mean, covariance).

The state is the hyperparameter quadruple (mu, kappa, nu, psi). Its
expectations drive candidate sampling: E[mean] is ``mu`` itself, and
E[covariance] is :func:`expected_covariance`. Evaluated populations feed back
through exact conjugate updates from the likelihood summary
(mu_bar, sigma_bar, n_obs) that :func:`~bcmaes.likelihood.summarize` returns.
A belief is an immutable named tuple, internal state of the run loop, which
builds it from values derived from a checked
:class:`~bcmaes.optimizer.OptimizerConfig`, so nothing here checks its
arguments. The independent routes that check the update (the
raw-observation update, its 1-D Normal-Inverse-Gamma twin and the
weighted-combination form of the expectations) live with the tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class NiwParams(NamedTuple):
    """Hyperparameters of the belief: location, pseudo-count, degrees of freedom, scale.

    An immutable named tuple; its construction checks nothing.

    ``mu`` is a float64 vector and ``psi`` a symmetric positive-definite
    float64 matrix of the same dimension; ``kappa`` and ``nu`` are floats,
    which each update increases by the observation count. The controller's
    interventions rescale or replace ``psi`` and replace ``mu``; they never
    touch ``kappa`` or ``nu``. The run loop's values satisfy all of this by
    construction.
    """

    mu: np.ndarray
    kappa: float
    nu: float
    psi: np.ndarray

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def expected_covariance(p: NiwParams) -> np.ndarray:
    """E[covariance] = psi / (nu - d - 1), the inverse-Wishart mean.

    The mean exists for ``nu > d + 1``. Every belief of a run has
    ``nu = d + 3 + t * k`` after ``t`` updates of ``k`` observations, since
    the controller rescales ``psi`` and never ``nu``, so this is not checked.
    """
    return p.psi / (p.nu - p.dim - 1)


def posterior_update(
    p: NiwParams, mu_bar: np.ndarray, sigma_bar: np.ndarray, n_obs: int
) -> NiwParams:
    """Exact conjugate update from the likelihood summary (mu_bar, sigma_bar, n_obs).

    ``sigma_bar`` enters the scale update additively: it plays the role of
    the sum-of-squares scatter term. It is a positive semi-definite float64
    matrix matching the float64 vector ``mu_bar``, and ``n_obs``, the
    observation count added to the pseudo-counts, is at least 1; neither is
    checked. With n = ``n_obs``::

        mu'    = (kappa * mu + n * mu_bar) / (kappa + n)
        kappa' = kappa + n
        nu'    = nu + n
        psi'   = psi + sigma_bar + kappa*n/(kappa+n) * (mu_bar - mu)(mu_bar - mu)^T

    ``psi'`` is positive definite by construction: a positive-definite
    ``psi`` plus two positive semi-definite terms, so in floating point it
    can at most round to singular. It is not factored here; it is certified
    where it is factored, by the next iteration's
    :func:`~bcmaes.linalg.spd_repair` of the expected covariance, which adds
    one jitter where that factorization fails and rejects a non-finite or
    indefinite scale.
    """
    n = n_obs
    kappa = p.kappa
    # in place, in the order of the formulas above, so the bits are those of the plain expressions
    mu_new = kappa * p.mu
    mu_new += n * mu_bar
    mu_new /= kappa + n
    shift = mu_bar - p.mu
    outer = shift[:, None] * shift
    outer *= (kappa * n) / (kappa + n)
    psi_new = p.psi + sigma_bar
    psi_new += outer
    psi_new = psi_new + psi_new.T
    psi_new *= 0.5
    return NiwParams(mu=mu_new, kappa=kappa + n, nu=p.nu + n, psi=psi_new)

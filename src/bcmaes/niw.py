"""Normal-Inverse-Wishart belief over the sampling distribution's (mean, covariance).

The state is the hyperparameter quadruple (mu, kappa, nu, psi). Its
expectations drive candidate sampling: E[mean] is ``mu`` itself, and
E[covariance] is :func:`expected_covariance`. Evaluated populations feed back
through exact conjugate updates. The records are internal state of the run
loop, which builds them from values derived from a checked
:class:`~bcmaes.optimizer.OptimizerConfig`, so nothing here checks its
arguments. The independent routes that check the update (the
raw-observation update, its 1-D Normal-Inverse-Gamma twin and the
weighted-combination form of the expectations) live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class NiwParams:
    """Hyperparameters of the belief: location, pseudo-count, degrees of freedom, scale.

    ``mu`` is a float64 vector and ``psi`` a symmetric positive-definite
    float64 matrix of the same dimension; ``kappa`` and ``nu`` are floats,
    real-valued so that repeated additive updates and rescaling
    interventions compose freely. Construction does not check any of this:
    the run loop's values satisfy it by construction.
    """

    mu: np.ndarray
    kappa: float
    nu: float
    psi: np.ndarray

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True, eq=False)
class SummaryStats:
    """Likelihood summary credited to one update.

    ``sigma_bar`` enters the scale update additively, i.e. it plays the role
    of the sum-of-squares scatter term; ``n_obs`` is the observation count
    added to the pseudo-counts. ``sigma_bar`` is a positive semi-definite
    float64 matrix matching the float64 vector ``mu_bar``, and ``n_obs`` is
    at least 1; construction does not check it.
    """

    mu_bar: np.ndarray
    sigma_bar: np.ndarray
    n_obs: int


def _record(cls, **fields):
    """Build the frozen dataclass ``cls`` from every one of its fields, bypassing ``__init__``.

    Only the frozen ``__init__``, with its per-field ``object.__setattr__``
    calls, is skipped; the record stays frozen. It builds a record in about
    half the time of the constructor, and the run loop builds several per
    iteration this way.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def expected_covariance(p: NiwParams) -> np.ndarray:
    """E[covariance] = psi / (nu - d - 1), the inverse-Wishart mean.

    The mean exists for ``nu > d + 1``. Every belief of a run has
    ``nu = d + 3 + t * k`` after ``t`` updates of ``k`` observations, since
    the controller rescales ``psi`` and never ``nu``, so this is not checked.
    """
    return p.psi / (p.nu - p.dim - 1)


def posterior_update(p: NiwParams, s: SummaryStats) -> NiwParams:
    """Exact conjugate update from a likelihood summary.

    With n = ``s.n_obs``::

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
    n = s.n_obs
    kappa = p.kappa
    # in place, in the order of the formulas above, so the bits are those of the plain expressions
    mu_new = kappa * p.mu
    mu_new += n * s.mu_bar
    mu_new /= kappa + n
    shift = s.mu_bar - p.mu
    outer = shift[:, None] * shift
    outer *= (kappa * n) / (kappa + n)
    psi_new = p.psi + s.sigma_bar
    psi_new += outer
    psi_new = psi_new + psi_new.T
    psi_new *= 0.5
    return _record(NiwParams, mu=mu_new, kappa=kappa + n, nu=p.nu + n, psi=psi_new)

"""Normal-Inverse-Wishart belief over the sampling distribution's (mean, covariance).

The state is the hyperparameter quadruple (mu, kappa, nu, psi). Closed-form
expectations drive candidate sampling, and evaluated populations feed back
through exact conjugate updates. The independent routes that check the
update (the raw-observation update, its 1-D Normal-Inverse-Gamma twin and
the weighted-combination form of the expectations) live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreesOfFreedomTooLow, InvariantViolation
from .linalg import check_symmetric

_PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class NiwParams:
    """Hyperparameters of the belief: location, pseudo-count, degrees of freedom, scale.

    ``kappa`` and ``nu`` are real-valued so that repeated additive updates and
    rescaling interventions compose freely. Public construction checks cheap
    invariants (positivity, symmetry, finiteness); positive definiteness of
    ``psi`` and the ``nu > d + 1`` bound are enforced by the operations that
    need them. The run loop builds its beliefs from values it has already
    certified, without these checks.
    """

    mu: np.ndarray
    kappa: float
    nu: float
    psi: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1 or mu.size == 0:
            raise InvariantViolation("mu must be a nonempty vector")
        if not np.all(np.isfinite(mu)):
            raise InvariantViolation("mu entries must be finite")
        psi = check_symmetric(self.psi)
        if psi.shape[0] != mu.shape[0]:
            raise InvariantViolation("psi dimension must match mu")
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise InvariantViolation(f"kappa must be positive, got {self.kappa}")
        if not np.isfinite(self.nu):
            raise InvariantViolation(f"nu must be finite, got {self.nu}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "psi", psi)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True, eq=False)
class SummaryStats:
    """Likelihood summary credited to one update.

    ``sigma_bar`` enters the scale update additively, i.e. it plays the role
    of the sum-of-squares scatter term; ``n_obs`` is the observation count
    added to the pseudo-counts. Public construction validates the shapes and
    that ``sigma_bar`` is positive semi-definite; the run loop builds its
    summaries from a ``sigma_bar`` already certified, without these checks.
    """

    mu_bar: np.ndarray
    sigma_bar: np.ndarray
    n_obs: int

    def __post_init__(self):
        mu_bar = np.asarray(self.mu_bar, dtype=float)
        sigma_bar = check_symmetric(self.sigma_bar)
        if mu_bar.ndim != 1 or sigma_bar.shape[0] != mu_bar.shape[0]:
            raise InvariantViolation("mu_bar/sigma_bar shapes are inconsistent")
        if self.n_obs < 1:
            raise InvariantViolation(f"n_obs must be >= 1, got {self.n_obs}")
        # A Cholesky that succeeds certifies the matrix at a fraction of the
        # eigendecomposition's cost: it bounds the smallest eigenvalue below by
        # a small multiple of -d * 2**-53 * |sigma_bar|, far inside the
        # tolerance. Singular and indefinite input still takes the tolerance
        # test on the spectrum.
        try:
            np.linalg.cholesky(sigma_bar)
        except np.linalg.LinAlgError:
            eigs = np.linalg.eigvalsh(sigma_bar)
            scale = max(1.0, float(abs(eigs[-1])))
            if eigs[0] < -_PSD_TOL * scale:
                raise InvariantViolation(
                    "sigma_bar is not positive semi-definite within tolerance") from None
        object.__setattr__(self, "mu_bar", mu_bar)
        object.__setattr__(self, "sigma_bar", sigma_bar)
        object.__setattr__(self, "n_obs", int(self.n_obs))


def _record(cls, **fields):
    """Build ``cls`` from normalized, certified values, skipping its ``__post_init__`` checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def expected_mean(p: NiwParams) -> np.ndarray:
    """E[mean] under the belief: the location parameter itself."""
    return p.mu.copy()


def expected_covariance(p: NiwParams) -> np.ndarray:
    """E[covariance] = psi / (nu - d - 1), the inverse-Wishart mean.

    Raises
    ------
    DegreesOfFreedomTooLow
        When ``nu <= d + 1`` so the mean does not exist.
    """
    d = p.dim
    if p.nu <= d + 1:
        raise DegreesOfFreedomTooLow(f"nu={p.nu} must exceed d+1={d + 1}")
    return p.psi / (p.nu - d - 1)


def posterior_update(p: NiwParams, s: SummaryStats) -> NiwParams:
    """Exact conjugate update from a likelihood summary.

    With n = ``s.n_obs``::

        mu'    = (kappa * mu + n * mu_bar) / (kappa + n)
        kappa' = kappa + n
        nu'    = nu + n
        psi'   = psi + sigma_bar + kappa*n/(kappa+n) * (mu_bar - mu)(mu_bar - mu)^T

    ``psi'`` is positive definite by construction: a positive-definite
    ``psi`` plus two positive semi-definite terms. It is not factored here;
    it is certified where it is factored, by the next iteration's
    :func:`~bcmaes.linalg.spd_repair` of the expected covariance, which rejects a non-finite one.
    """
    n = s.n_obs
    shift = s.mu_bar - p.mu
    mu_new = (p.kappa * p.mu + n * s.mu_bar) / (p.kappa + n)
    psi_new = p.psi + s.sigma_bar + (p.kappa * n) / (p.kappa + n) * (shift[:, None] * shift)
    psi_new = 0.5 * (psi_new + psi_new.T)
    return _record(NiwParams, mu=mu_new, kappa=p.kappa + n, nu=p.nu + n, psi=psi_new)

"""Normal-Inverse-Wishart belief over the sampling distribution's (mean, covariance).

The state is the hyperparameter quadruple (mu, kappa, nu, psi). Closed-form
expectations drive candidate sampling, and evaluated populations feed back
through exact conjugate updates. A 1-D Normal-Inverse-Gamma twin of the same
update serves as an independent correctness oracle under the parameter map
``alpha = nu/2, beta = psi/2, lam = kappa``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegreesOfFreedomTooLow, InvariantViolation, RepairFailed
from .linalg import check_symmetric, scaled_jitter_eps, spd_repair

_PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class NiwParams:
    """Hyperparameters of the belief: location, pseudo-count, degrees of freedom, scale.

    ``kappa`` and ``nu`` are real-valued so that repeated additive updates and
    rescaling interventions compose freely. Construction checks cheap
    invariants (positivity, symmetry, finiteness); positive definiteness of
    ``psi`` and the ``nu > d + 1`` bound are enforced by the operations that
    need them.
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

    def to_json(self) -> str:
        """Flat JSON object {mu, kappa, nu, psi} for checkpoints and fixtures."""
        return json.dumps(
            {
                "mu": self.mu.tolist(),
                "kappa": self.kappa,
                "nu": self.nu,
                "psi": self.psi.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "NiwParams":
        obj = json.loads(text)
        return cls(
            mu=np.asarray(obj["mu"], dtype=float),
            kappa=float(obj["kappa"]),
            nu=float(obj["nu"]),
            psi=np.asarray(obj["psi"], dtype=float),
        )


@dataclass(frozen=True, eq=False)
class NigParams:
    """1-D Normal-Inverse-Gamma hyperparameters (the univariate oracle)."""

    mu: float
    lam: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("lam", "alpha", "beta"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise InvariantViolation(f"{name} must be strictly positive, got {v}")
        if not np.isfinite(self.mu):
            raise InvariantViolation(f"mu must be finite, got {self.mu}")


@dataclass(frozen=True, eq=False)
class SummaryStats:
    """Likelihood summary credited to one update.

    ``sigma_bar`` enters the scale update additively, i.e. it plays the role
    of the sum-of-squares scatter term; ``n_obs`` is the observation count
    added to the pseudo-counts.
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

    Raises
    ------
    InvariantViolation
        If the updated scale cannot be made positive definite even after
        diagonal-jitter repair.
    """
    n = s.n_obs
    shift = s.mu_bar - p.mu
    mu_new = (p.kappa * p.mu + n * s.mu_bar) / (p.kappa + n)
    psi_new = p.psi + s.sigma_bar + (p.kappa * n) / (p.kappa + n) * np.outer(shift, shift)
    psi_new = 0.5 * (psi_new + psi_new.T)
    try:
        psi_new = spd_repair(psi_new, scaled_jitter_eps(psi_new))[0]
    except RepairFailed as exc:
        raise InvariantViolation("updated psi is not repairable to SPD") from exc
    return NiwParams(mu=mu_new, kappa=p.kappa + n, nu=p.nu + n, psi=psi_new)


def posterior_update_raw(p: NiwParams, xs: np.ndarray) -> NiwParams:
    """Exact conjugate update directly from raw observations.

    Computes the sample mean and scatter itself and applies the update
    formulas inline; kept independent of :func:`posterior_update` so the two
    routes can check each other.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n, d = xs.shape
    if n < 1:
        raise ValueError("need at least one observation")
    if d != p.dim:
        raise ValueError(f"observations have dimension {d}, expected {p.dim}")
    xbar = xs.mean(axis=0)
    dev = xs - xbar
    scatter = dev.T @ dev
    shift = xbar - p.mu
    mu_new = (p.kappa * p.mu + n * xbar) / (p.kappa + n)
    psi_new = p.psi + scatter + (p.kappa * n) / (p.kappa + n) * np.outer(shift, shift)
    psi_new = 0.5 * (psi_new + psi_new.T)
    return NiwParams(mu=mu_new, kappa=p.kappa + n, nu=p.nu + n, psi=psi_new)


def nig_posterior(p: NigParams, xs: np.ndarray) -> NigParams:
    """1-D Normal-Inverse-Gamma conjugate update.

    Convention note: the rate update applies a single factor of one half to
    both the scatter and the shrinkage shift term,

        beta' = beta + (ss + n*lam/(n+lam) * (xbar - mu)^2) / 2,

    which is the form the completing-the-square derivation produces and the
    one that makes this distribution an exact reparametrization of the 1-D
    Normal-Inverse-Wishart update (beta = psi/2). The same convention is used
    by the conjugacy tests on both sides.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    n = xs.size
    if n < 1:
        raise ValueError("need at least one observation")
    xbar = float(xs.mean())
    ss = float(np.sum((xs - xbar) ** 2))
    mu_new = (p.lam * p.mu + n * xbar) / (p.lam + n)
    beta_new = p.beta + 0.5 * (ss + (n * p.lam) / (n + p.lam) * (xbar - p.mu) ** 2)
    return NigParams(mu=mu_new, lam=p.lam + n, alpha=p.alpha + 0.5 * n, beta=beta_new)


def weighted_update_expectations(p: NiwParams, s: SummaryStats) -> tuple[np.ndarray, np.ndarray]:
    """Post-update expectations as a weighted combination of prior quantities.

    Returns the pair (E[mean], E[covariance]) of ``posterior_update(p, s)``
    without forming the posterior, via::

        E'[mean] = E[mean] + w_mu * (mu_bar - E[mean]),      w_mu = n/(kappa+n)
        E'[cov]  = w1 * E[cov] + w2 * R + w3 * sigma_bar

    where R is the rank-one matrix (mu_bar - E[mean])(mu_bar - E[mean])^T and,
    with D = nu + n - d - 1 the updated inverse-Wishart denominator,

        w1 = (nu - d - 1) / D        (discount factor on the prior covariance)
        w2 = kappa * n / ((kappa + n) * D)
        w3 = 1 / D.

    ``n`` is the observation count and ``d`` the dimension; when the two
    coincide, D = nu - 1 and the weights reduce to the familiar
    (nu - n - 1)/(nu - 1), kappa*n/((kappa+n)(nu-1)), 1/(nu-1) form.
    """
    d = p.dim
    if p.nu <= d + 1:
        raise DegreesOfFreedomTooLow(f"nu={p.nu} must exceed d+1={d + 1}")
    n = s.n_obs
    denom = p.nu + n - d - 1
    shift = s.mu_bar - p.mu
    w_mu = n / (p.kappa + n)
    mean_new = p.mu + w_mu * shift
    w1 = (p.nu - d - 1) / denom
    w2 = (p.kappa * n) / ((p.kappa + n) * denom)
    w3 = 1.0 / denom
    cov_new = w1 * expected_covariance(p) + w2 * np.outer(shift, shift) + w3 * s.sigma_bar
    return mean_new, cov_new

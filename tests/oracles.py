"""Reference implementations the tests check the package against.

They are independent routes to quantities the package computes: the
conjugate update from raw observations, its 1-D Normal-Inverse-Gamma twin
(under the parameter map ``alpha = nu/2, beta = psi/2, lam = kappa``), the
post-update expectations as a weighted combination of prior quantities, and
the multivariate normal density, one point at a time and as a batch from the
lower Cholesky factor. The run loop weights its points from their variates
and never evaluates a density; the batch log-density is what the tests
compare those weights against. The plain numpy expressions of the per-point
hot paths (the objectives, the Frobenius norm) are kept too: the package
computes the same bits with fewer numpy calls, and the tests require equal
bits. The batch log-density's row loop is kept beside it the same way.
The inverse normal CDF is scipy's compiled Cephes ``ndtri``, whose bits the
package's numpy port must reproduce on the stream's uniforms.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtrs
from scipy.special import ndtri as _scipy_ndtri

from bcmaes.niw import NiwParams, SummaryStats, expected_covariance


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
                raise ValueError(f"{name} must be strictly positive, got {v}")
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")


def posterior_update_raw(p: NiwParams, xs: np.ndarray) -> NiwParams:
    """Exact conjugate update directly from raw observations.

    Computes the sample mean and scatter itself and applies the update
    formulas inline; kept independent of ``bcmaes.niw.posterior_update`` so the two
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
        raise ValueError(f"nu={p.nu} must exceed d+1={d + 1}")
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


def mvn_pdf(mean: np.ndarray, cov: np.ndarray, x: np.ndarray) -> float:
    """Density of N(mean, cov) at ``x``: its own Cholesky and one triangular solve."""
    mean = np.asarray(mean, dtype=float)
    L = np.linalg.cholesky(cov)
    y = solve_triangular(L, np.asarray(x, dtype=float) - mean, lower=True)
    return float(np.exp(-0.5 * mean.shape[0] * np.log(2.0 * np.pi)
                        - np.sum(np.log(np.diag(L))) - 0.5 * y @ y))


def cone(x) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


def schwefel2(x) -> float:
    a = np.abs(np.asarray(x, dtype=float))
    # an overflowed product times a zero coordinate is NaN (inf * 0)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(a.sum() + a.prod())


def rastrigin(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(10.0 * x.size + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x)))


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=float), "fro"))


def mvn_logpdf_rows(mean: np.ndarray, factor: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Log-density of N(mean, L L^T) at each row of ``points``, one row at a time.

    Each row is one ``dtrtrs`` solve and one ``y @ y`` dot; the constant is
    taken with ``np.sum``.
    """
    d = mean.shape[0]
    c = -0.5 * d * np.log(2.0 * np.pi) - np.sum(np.log(np.diag(factor)))
    out = np.empty(points.shape[0])
    for i, row in enumerate(points - mean):
        y, info = dtrtrs(factor.T, row, lower=0, trans=1)
        assert info == 0
        out[i] = c - 0.5 * y @ y
    return out


def mvn_logpdf_batch(mean: np.ndarray, factor: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Log-density of N(mean, L L^T) at each row of ``points``, from the lower factor ``L``.

    Per row: one LAPACK ``dtrtrs`` call on the Fortran-ordered view ``L.T``,
    the call ``solve_triangular(L, b, lower=True)`` makes for a C-ordered
    ``L``, so every solution keeps the bits of a per-point solve. A single
    batched solve sums in another order and does not. The rest is batched:
    the halved quadratic forms ``(0.5 * y) @ y`` of all rows are one stacked
    ``matmul``, whose ``(1, d) @ (d, 1)`` stacks take the same dot as the
    per-row product. The half stays inside the dot, as in ``0.5 * y @ y``:
    halving the dot instead differs where ``y @ y`` overflows or underflows.
    """
    mean = np.asarray(mean, dtype=float)
    points = np.asarray(points, dtype=float)
    d = mean.shape[0]
    if points.shape[-1] != d:
        raise ValueError(f"points must have length {d}, got shape {points.shape}")
    dev = points - mean
    if not np.isfinite(dev).all():
        raise ValueError("points and mean must be finite")
    upper = factor.T
    ys = np.empty_like(dev)
    for i, row in enumerate(dev):
        ys[i], info = dtrtrs(upper, row, lower=0, trans=1)
        if info != 0:
            raise np.linalg.LinAlgError("the Cholesky factor is singular")
    c = -0.5 * d * np.log(2.0 * np.pi) - np.log(factor.diagonal()).sum()
    return c - ((0.5 * ys)[:, None, :] @ ys[:, :, None])[:, 0, 0]


def ndtri(u) -> np.ndarray:
    """The inverse normal CDF of ``u`` as scipy's compiled Cephes ``ndtri`` computes it."""
    return _scipy_ndtri(np.asarray(u, dtype=float))


def stream_uniforms(raw: np.ndarray) -> np.ndarray:
    """The stream's uniforms for the given raw 64-bit words: top 53 bits, plus a half, over 2**53."""
    u = (np.asarray(raw, dtype=np.uint64) >> np.uint64(11)).astype(np.float64)
    return (u + 0.5) * 2.0**-53

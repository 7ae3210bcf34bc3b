"""Dense symmetric-matrix primitives, multivariate normal sampling and density.

All matrices are dense row-major ``float64`` arrays; the intended regime is
small dimension (experiments run at d = 2). Runs up to d ~ 100 finish,
including popsize < d: there the covariance estimate can be indefinite
beyond what the jitter ladder of :func:`spd_repair` repairs, and the
likelihood layer then projects it onto the positive-definite cone instead.
At d ~ 100 with a large sigma0 (1e3) every density of a population can
underflow to zero; the optimizer then takes the weights from the
log-densities of :func:`mvn_logpdf_batch` shifted by their maximum, which
gives the same normalized weights.

:func:`spd_repair` returns the Cholesky factor of the matrix it accepts, so
one factorization per matrix serves both :func:`sample_mvn` and the batch
densities :func:`mvn_logpdf_batch` and :func:`mvn_pdf_batch`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import NotPositiveDefinite, RepairFailed
from .rng import RandomSource

_SYM_RTOL = 1e-12
# jitter rungs eps * 10**p, p = 0 .. _RUNGS - 1, tried by spd_repair
_RUNGS = 12

_LOG_2PI = np.log(2.0 * np.pi)


def check_symmetric(m: np.ndarray, rtol: float = _SYM_RTOL) -> np.ndarray:
    """Validate that ``m`` is a finite symmetric square matrix and return it as float64."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # the peak is NaN or inf exactly when some entry is, so one pass serves both checks
    peak = float(np.abs(m).max())
    if not math.isfinite(peak):
        raise ValueError("matrix entries must be finite")
    if float(np.abs(m - m.T).max()) > rtol * max(1.0, peak):
        raise ValueError("matrix is not symmetric within tolerance")
    return m


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular ``L`` with ``L @ L.T == m``.

    Raises
    ------
    NotPositiveDefinite
        If a pivot is nonpositive, i.e. ``m`` is not positive definite.
        Callers that can tolerate near-degeneracy should go through
        :func:`spd_repair`.
    """
    m = check_symmetric(m)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def spd_repair(m: np.ndarray, eps: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(m + delta * I, L)`` with the smallest escalating jitter that factorizes.

    Attempt 0 factors ``m`` itself, so positive-definite input is returned
    unchanged (the same array) with its own factor. Otherwise ``delta`` is the
    smallest rung of ``{eps, 10*eps, ..., 1e11*eps}`` whose Cholesky succeeds,
    and ``L`` is the lower factor that attempt computed.

    The rung is found by bisection, not by climbing the ladder. That relies on
    monotonicity: if ``m + delta * I`` factorizes, so does ``m + delta' * I``
    for every ``delta' > delta``, since adding a positive multiple of the
    identity raises every eigenvalue. Each candidate is the same expression the
    sequential ladder would form, so the result is the same bits, and a call
    makes at most 5 factorization attempts (attempt 0 plus ceil(log2 13)).

    Raises
    ------
    RepairFailed
        When no rung factorizes, signalling an irrecoverably broken matrix.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = check_symmetric(m)
    try:
        return m, np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(m.shape[0])
    # invariant: every rung below lo fails; rung hi succeeds (hi == _RUNGS: none found yet)
    lo, hi = 0, _RUNGS
    found = None
    while lo < hi:
        power = (lo + hi) // 2
        repaired = m + eps * 10.0**power * eye
        try:
            found = repaired, np.linalg.cholesky(repaired)
            hi = power
        except np.linalg.LinAlgError:
            lo = power + 1
    if found is None:
        raise RepairFailed(
            f"matrix not positive definite at any of {_RUNGS} jitter rungs (eps={eps})")
    return found


def scaled_jitter_eps(m: np.ndarray, base: float = 1e-10) -> float:
    """Jitter base proportional to the matrix magnitude.

    A fixed absolute base cannot repair indefinite matrices whose entries are
    many orders of magnitude above 1 within the escalation budget, so repair
    call sites scale it by the largest diagonal magnitude.
    """
    m = np.asarray(m, dtype=float)
    scale = float(np.abs(m.diagonal()).max()) if m.size else 1.0
    return base * max(1.0, scale)


def sample_mvn(
    mean: np.ndarray,
    cov: np.ndarray,
    k: int,
    rng: RandomSource,
    factor: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw ``k`` points from N(mean, cov), consuming exactly ``k * d`` normal variates.

    The variate layout is row-major: point ``i`` uses variates
    ``[i*d, (i+1)*d)`` of the stream, and ``x_i = mean + L z_i`` with ``L``
    the lower Cholesky factor of ``cov``. A caller that already holds ``L``
    (from :func:`spd_repair`) passes it as ``factor`` to skip the
    factorization; the points are the same bits either way.

    Raises
    ------
    NotPositiveDefinite
        Propagated from the factorization; repair (if wanted) is the
        caller's decision.
    """
    mean = np.asarray(mean, dtype=float)
    if mean.ndim != 1:
        raise ValueError("mean must be a vector")
    if k < 2:
        raise ValueError("k must be at least 2")
    d = mean.shape[0]
    L = cholesky(cov) if factor is None else factor
    z = rng.standard_normals(k * d).reshape(k, d)
    return mean + z @ L.T


def mvn_logpdf_batch(mean: np.ndarray, factor: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Log-density of N(mean, L L^T) at each row of ``points``, from the lower factor ``L``.

    Each row takes one LAPACK ``dtrtrs`` call on the Fortran-ordered view
    ``L.T``, the call ``solve_triangular(L, b, lower=True)`` makes for a
    C-ordered ``L``, so every value keeps the bits of a per-point solve. A
    single batched solve sums in another order and does not.
    """
    mean = np.asarray(mean, dtype=float)
    points = np.asarray(points, dtype=float)
    d = mean.shape[0]
    if points.shape[-1] != d:
        raise ValueError(f"points must have length {d}, got shape {points.shape}")
    dev = points - mean
    if not np.all(np.isfinite(dev)):
        raise ValueError("points and mean must be finite")
    upper = factor.T
    c = -0.5 * d * _LOG_2PI - np.sum(np.log(np.diag(factor)))
    out = np.empty(dev.shape[0])
    for i, row in enumerate(dev):
        y, info = dtrtrs(upper, row, lower=0, trans=1)
        if info != 0:
            raise NotPositiveDefinite("the Cholesky factor is singular")
        out[i] = c - 0.5 * y @ y
    return out


def mvn_pdf_batch(mean: np.ndarray, factor: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Densities of N(mean, L L^T) at each row of ``points``, from the lower factor ``L``.

    Equal, bit for bit, to ``[mvn_pdf(mean, cov, x) for x in points]`` when
    ``L`` is the Cholesky factor of ``cov``.
    """
    return np.exp(mvn_logpdf_batch(mean, factor, points))


def mvn_logpdf(mean: np.ndarray, cov: np.ndarray, x: np.ndarray) -> float:
    """Log-density of N(mean, cov) at ``x``, via one triangular solve."""
    x = np.asarray(x, dtype=float)
    return float(mvn_logpdf_batch(mean, cholesky(cov), x[None, :])[0])


def mvn_pdf(mean: np.ndarray, cov: np.ndarray, x: np.ndarray) -> float:
    """Density of N(mean, cov) at ``x``; strictly positive for SPD ``cov``."""
    return float(np.exp(mvn_logpdf(mean, cov, x)))


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=float), "fro"))

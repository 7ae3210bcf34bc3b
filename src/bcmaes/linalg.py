"""Dense symmetric-matrix primitives and multivariate normal sampling.

All matrices are dense row-major ``float64`` arrays; the intended regime is
small dimension (experiments run at d = 2). Runs up to d ~ 100 finish,
including popsize < d.

:func:`spd_repair` is the belief's certificate: it decides whether the
sampling covariance factors as it is or with one small jitter. It returns
the Cholesky factor of the matrix it accepts, and that factor is all
:func:`_sample` takes. The covariance estimate of the likelihood layer does
not go through it: that estimate is often indefinite, and
:func:`~bcmaes.likelihood.summarize` shifts it in closed form. Both factor
through :func:`_cholesky`, the package's one factorization entry.

No function here sets numpy's error state; the run loop holds one that
ignores every floating-point flag around them. A factorization that fails
signals ``invalid``, so a call into a matrix that is not positive definite,
made outside the loop under numpy's default state, may emit numpy's
``invalid`` RuntimeWarning before the caller sees the failure.

:func:`_sample` returns the points together with the standard-normal
variates ``z`` behind them: with ``x = mean + L z`` the sampling density of
``x`` is ``exp(-|z|**2 / 2)`` times a constant shared by the whole
population, so the loop weights the points from ``z`` and never evaluates a
density.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .rng import RandomSource

# the jitter spd_repair adds is eps = _JITTER_BASE * max |diag m|
_JITTER_BASE = 1e-10
# the smallest normal float: _norm scales a sum of squares below it
_TINY = float(np.finfo(float).tiny)


def spd_repair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(m, L)`` if ``m`` factorizes, else ``(m + eps * I, L)`` with one jitter.

    Attempt 0 factors ``m`` itself, so positive-definite input is returned
    unchanged (the same array) with its own factor. If that fails, attempt 1
    factors ``m + eps * I`` with ``eps = scaled_jitter_eps(m)``, and ``L`` is
    the factor it computed. Both attempts call :func:`_cholesky`, the
    package's one factorization entry, which gives the bits of
    ``np.linalg.cholesky``.

    The run loop passes the belief's expected covariance: a positive-definite
    scale plus positive semi-definite terms, which
    :func:`~bcmaes.niw.posterior_update` symmetrizes and only scalars
    rescale. It fails to factor only through rounding, where it is singular
    or nearly so, and one jitter repairs that; an indefinite matrix is not
    repaired. The caller guarantees a float64 square matrix, exactly
    symmetric, and nothing here checks it. Finiteness is checked, because an
    overflow upstream can break it. numpy's error state is the caller's: a
    failed attempt signals ``invalid``, which warns under numpy's default
    state and not under the loop's.

    Raises
    ------
    ValueError
        When an entry of ``m`` is NaN or infinite, or when neither attempt
        factorizes.
    """
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise ValueError("matrix entries must be finite")
    factor = _cholesky(m)
    if factor is not None:
        return m, factor
    eps = scaled_jitter_eps(m)
    repaired = m + eps * np.eye(m.shape[0])
    factor = _cholesky(repaired)
    if factor is None:
        raise ValueError(f"matrix not positive definite, nor with jitter {eps}")
    return repaired, factor


def _cholesky(m: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``m``, or ``None`` when ``m`` is not positive definite.

    The package's one factorization entry: LAPACK's ``potrf`` through the
    gufunc that ``np.linalg.cholesky`` calls, with its bits, but without
    that wrapper's checks, casts and error-state setup. ``m`` is a finite
    float64 square matrix; the callers check finiteness. On failure the
    gufunc fills the factor with NaN and signals an invalid operation. No
    error state is set here: the run loop calls every layer under one that
    ignores all flags, which also silences those ``np.linalg.cholesky``
    ignores, and a call made outside it may emit numpy's ``invalid``
    RuntimeWarning. A NaN that arises inside a factorization that LAPACK
    accepts reaches the last diagonal entry, so that entry is the one
    tested: ``None`` comes back exactly where ``np.linalg.cholesky`` raises.
    """
    factor = _umath_linalg.cholesky_lo(m, signature="d->d")
    return None if math.isnan(factor[-1, -1]) else factor


def scaled_jitter_eps(m: np.ndarray) -> float:
    """Jitter base proportional to the matrix magnitude: ``1e-10 * max |diag m|``.

    A fixed absolute base is negligible for matrices whose entries are many
    orders of magnitude above 1, and swamps those far below 1, so the base
    is the largest diagonal magnitude scaled. It underflows to 0 below a
    largest diagonal of about 2.5e-314, which the run loop's covariances, in
    units of sigma0, never reach. ``m`` is a float64 square matrix.
    """
    return _JITTER_BASE * float(np.maximum.reduce(np.abs(m.diagonal())))


def _sample(mean: np.ndarray, factor: np.ndarray, k: int,
            rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``k`` points from N(mean, L L^T); return ``(points, z)``.

    ``factor`` is the lower Cholesky factor ``L`` of the covariance, as
    :func:`spd_repair` returns it. Exactly ``k * d`` normal variates are
    consumed, row-major: ``z`` is the ``(k, d)`` matrix of them, and point
    ``i`` is ``x_i = mean + L z_i``. ``mean`` is a float64 vector; nothing
    here checks the arguments.
    """
    d = mean.shape[0]
    z = rng.standard_normals(k * d).reshape(k, d)
    return mean + z @ factor.T, z


def frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm with the bits of ``np.linalg.norm(m, "fro")``: the root of one dot.

    When the sum of squares overflows, or falls below the smallest normal
    float, although some entry is nonzero and every entry is finite, the
    entries are scaled by the largest magnitude first. So a finite matrix
    whose norm is representable gets a finite norm, and a tiny one keeps its
    precision instead of reading 0. No overflow warning is raised.
    """
    return _norm(np.asarray(m, dtype=float).ravel(order="K"))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a flat float64 vector, the root of one dot, scaled out of range.

    The shared path of :func:`frobenius_norm` and :func:`~bcmaes.benchmarks.cone`;
    an empty vector has norm 0. ``np.vdot`` gives the bits of ``np.dot`` here,
    but an overflowing sum of squares raises no warning through it.
    """
    sq = np.vdot(v, v)
    if not _TINY <= sq < math.inf:
        peak = float(np.maximum.reduce(np.abs(v), initial=0.0))
        if 0.0 < peak < math.inf:
            w = v / peak
            return peak * math.sqrt(np.vdot(w, w))
    return math.sqrt(sq)

"""Dense symmetric-matrix primitives and multivariate normal sampling.

All matrices are dense row-major ``float64`` arrays; the intended regime is
small dimension (experiments run at d = 2). Runs up to d ~ 100 finish,
including popsize < d.

:func:`spd_repair` is the belief's certificate: it decides whether the
sampling covariance factors as it is and, if not, how much jitter makes it
factor. It returns the Cholesky factor of the matrix it accepts, and that
factor is all :func:`sample_mvn` takes. The covariance estimate of the
likelihood layer does not go through it: that estimate is often indefinite,
and :func:`~bcmaes.likelihood.summarize` shifts it in closed form.

The run loop draws through :func:`_sample`, which also returns the
standard-normal variates ``z`` behind each point: with ``x = mean + L z``
the sampling density of ``x`` is ``exp(-|z|**2 / 2)`` times a constant
shared by the whole population, so the loop weights the points from ``z``
and never evaluates a density.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RepairFailed
from .rng import RandomSource

# jitter rungs eps * 10**p, p = 0 .. _RUNGS - 1, tried by spd_repair,
# with eps = _JITTER_BASE * max |diag m|
_JITTER_BASE = 1e-10
_RUNGS = 12
# the smallest normal float: _norm scales a sum of squares below it
_TINY = float(np.finfo(float).tiny)


def spd_repair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(m + delta * I, L)`` with the smallest escalating jitter that factorizes.

    Attempt 0 factors ``m`` itself, so positive-definite input is returned
    unchanged (the same array) with its own factor. Otherwise
    ``delta = eps * 10**rung`` is the smallest rung of ``{eps, 10*eps, ...,
    1e11*eps}`` whose Cholesky succeeds, with ``eps = scaled_jitter_eps(m)``,
    and ``L`` is the lower factor that attempt computed.

    The rung is found by bisection, not by climbing the ladder. That relies
    on monotonicity: if ``m + delta * I`` factorizes, so does
    ``m + delta' * I`` for every ``delta' > delta``, since adding a positive
    multiple of the identity raises every eigenvalue. Each candidate is the
    same expression the sequential ladder would form, so the bisection
    returns its bits, in at most 5 factorization attempts (attempt 0 plus
    ceil(log2 13)).

    The caller guarantees that ``m`` is a float64 square matrix and exactly
    symmetric, and nothing here checks it: the run loop passes the belief's
    expected covariance, which :func:`~bcmaes.niw.posterior_update`
    symmetrizes and only scalars rescale. Only finiteness is checked,
    because an overflow upstream can break it.

    Raises
    ------
    ValueError
        When an entry of ``m`` is NaN or infinite.
    RepairFailed
        When no rung factorizes, signalling an irrecoverably broken matrix.
    """
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise ValueError("matrix entries must be finite")
    try:
        return m, np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    eps = scaled_jitter_eps(m)
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


def scaled_jitter_eps(m: np.ndarray) -> float:
    """Jitter base proportional to the matrix magnitude: ``1e-10 * max |diag m|``.

    A fixed absolute base cannot repair indefinite matrices whose entries are
    many orders of magnitude above 1 within the escalation budget, and
    swamps those far below 1, so the base is the largest diagonal magnitude
    scaled. A run from ``s * x0`` with sigma0 = s is then the run from
    ``x0`` times s. Below a largest diagonal of about 2.5e-314 the base
    underflows to 0. ``m`` is a float64 square matrix with at least one row.
    """
    return _JITTER_BASE * float(np.maximum.reduce(np.abs(m.diagonal())))


def sample_mvn(mean: np.ndarray, factor: np.ndarray, k: int, rng: RandomSource) -> np.ndarray:
    """Draw ``k`` points from N(mean, L L^T), consuming exactly ``k * d`` normal variates.

    ``factor`` is the lower Cholesky factor ``L`` of the covariance, as
    :func:`spd_repair` returns it. The variate layout is row-major: point
    ``i`` uses variates ``[i*d, (i+1)*d)`` of the stream, and
    ``x_i = mean + L z_i``. ``mean`` is a float64 vector; nothing here checks
    the arguments.
    """
    return _sample(mean, factor, k, rng)[0]


def _sample(mean: np.ndarray, factor: np.ndarray, k: int,
            rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sample_mvn`, returning ``(points, z)``.

    ``z`` is the ``(k, d)`` matrix of the variates that built the points.
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
    precision instead of reading 0. The overflowing dot raises numpy's
    overflow warning unless the caller ignores it, as the run loop does.
    """
    return _norm(np.asarray(m, dtype=float).ravel(order="K"))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a flat float64 vector, the root of one dot, scaled out of range.

    The shared path of :func:`frobenius_norm` and :func:`~bcmaes.benchmarks.cone`;
    an empty vector has norm 0.
    """
    sq = v @ v
    if not _TINY <= sq < math.inf:
        peak = float(np.maximum.reduce(np.abs(v), initial=0.0))
        if 0.0 < peak < math.inf:
            w = v / peak
            return peak * math.sqrt(w @ w)
    return math.sqrt(sq)

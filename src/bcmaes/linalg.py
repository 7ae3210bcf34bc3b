"""Dense symmetric-matrix primitives and multivariate normal sampling.

All matrices are dense row-major ``float64`` arrays; the intended regime is
small dimension (experiments run at d = 2). Runs up to d ~ 100 finish,
including popsize < d: there the covariance estimate can be indefinite
beyond what the jitter ladder of :func:`spd_repair` repairs, and the
likelihood layer then projects it onto the positive-definite cone instead.

:func:`spd_repair` owns the jitter policy: it decides whether a matrix
factors as it is and, if not, how much jitter makes it factor. It returns
the Cholesky factor of the matrix it accepts, and that factor is all
:func:`sample_mvn` takes. The run loop draws through :func:`_sample`, which
also returns the standard-normal variates ``z`` behind each point: with
``x = mean + L z`` the sampling density of ``x`` is ``exp(-|z|**2 / 2)``
times a constant shared by the whole population, so the loop weights the
points from ``z`` and never evaluates a density.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RepairFailed
from .rng import RandomSource

_SYM_RTOL = 1e-12
# jitter rungs eps * 10**p, p = 0 .. _RUNGS - 1, tried by spd_repair,
# with eps = _JITTER_BASE * max(1, max |diag m|)
_JITTER_BASE = 1e-10
_RUNGS = 12


def check_symmetric(m: np.ndarray) -> np.ndarray:
    """Validate that ``m`` is a finite symmetric square matrix and return it as float64."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # the peak is NaN or inf exactly when some entry is, so one pass serves both checks
    peak = float(np.abs(m).max())
    if not math.isfinite(peak):
        raise ValueError("matrix entries must be finite")
    if float(np.abs(m - m.T).max()) > _SYM_RTOL * max(1.0, peak):
        raise ValueError("matrix is not symmetric within tolerance")
    return m


def spd_repair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(m + delta * I, L)`` with the smallest escalating jitter that factorizes.

    Attempt 0 factors ``m`` itself, so positive-definite input is returned
    unchanged (the same array) with its own factor. Otherwise ``delta`` is the
    smallest rung of ``{eps, 10*eps, ..., 1e11*eps}`` whose Cholesky succeeds,
    with ``eps = scaled_jitter_eps(m)``, and ``L`` is the lower factor that
    attempt computed.

    The rung is found by bisection, not by climbing the ladder. That relies on
    monotonicity: if ``m + delta * I`` factorizes, so does ``m + delta' * I``
    for every ``delta' > delta``, since adding a positive multiple of the
    identity raises every eigenvalue. Each candidate is the same expression the
    sequential ladder would form, so the result is the same bits, and a call
    makes at most 5 factorization attempts (attempt 0 plus ceil(log2 13)).

    The caller guarantees that ``m`` is a float64 square matrix and exactly
    symmetric, and nothing here checks it: the run loop passes the belief's
    expected covariance, which :func:`~bcmaes.niw.posterior_update`
    symmetrizes and only scalars rescale, and
    :func:`~bcmaes.likelihood.summarize` symmetrizes its estimate first.
    Only finiteness is checked, because an overflow upstream can break it.

    Raises
    ------
    ValueError
        When an entry of ``m`` is NaN or infinite.
    RepairFailed
        When no rung factorizes, signalling an irrecoverably broken matrix.
    """
    if not np.isfinite(m).all():
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
    """Jitter base proportional to the matrix magnitude.

    A fixed absolute base cannot repair indefinite matrices whose entries are
    many orders of magnitude above 1 within the escalation budget, so the
    base is scaled by the largest diagonal magnitude.
    """
    m = np.asarray(m, dtype=float)
    scale = float(np.abs(m.diagonal()).max()) if m.size else 1.0
    return _JITTER_BASE * max(1.0, scale)


def sample_mvn(mean: np.ndarray, factor: np.ndarray, k: int, rng: RandomSource) -> np.ndarray:
    """Draw ``k`` points from N(mean, L L^T), consuming exactly ``k * d`` normal variates.

    ``factor`` is the lower Cholesky factor ``L`` of the covariance, as
    :func:`spd_repair` returns it. The variate layout is row-major: point
    ``i`` uses variates ``[i*d, (i+1)*d)`` of the stream, and
    ``x_i = mean + L z_i``.
    """
    mean = np.asarray(mean, dtype=float)
    if mean.ndim != 1:
        raise ValueError("mean must be a vector")
    if k < 2:
        raise ValueError("k must be at least 2")
    return _sample(mean, factor, k, rng)[0]


def _sample(mean: np.ndarray, factor: np.ndarray, k: int,
            rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sample_mvn` on a float64 mean vector and k >= 2, returning ``(points, z)``.

    ``z`` is the ``(k, d)`` matrix of the variates that built the points.
    """
    d = mean.shape[0]
    z = rng.standard_normals(k * d).reshape(k, d)
    return mean + z @ factor.T, z


def frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm with the bits of ``np.linalg.norm(m, "fro")``: the root of one dot.

    When the sum of squares overflows although every entry is finite, the
    entries are scaled by the largest magnitude first, so a finite matrix
    whose norm is representable gets a finite norm. The overflowing dot
    raises numpy's overflow warning unless the caller ignores it, as the run
    loop does.
    """
    v = np.asarray(m, dtype=float).ravel(order="K")
    sq = v @ v
    if not math.isfinite(sq):
        peak = float(np.abs(v).max())
        if math.isfinite(peak):
            w = v / peak
            return peak * math.sqrt(w @ w)
    return math.sqrt(sq)

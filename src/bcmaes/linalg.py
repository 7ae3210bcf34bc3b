"""Dense symmetric-matrix primitives, multivariate normal sampling and density.

All matrices are dense row-major ``float64`` arrays; the intended regime is
small dimension (experiments run at d = 2). Runs up to d ~ 100 finish,
including popsize < d: there the covariance estimate can be indefinite
beyond what the jitter ladder of :func:`spd_repair` repairs, and the
likelihood layer then projects it onto the positive-definite cone instead.
At d ~ 100 with a large sigma0 (1e3) every density of a population can
underflow to zero, and with a small one (1e-4) overflow to inf; the optimizer
then takes the weights from the log-densities of :func:`mvn_logpdf_batch`
shifted by their maximum, which gives the same normalized weights.

:func:`spd_repair` owns the jitter policy: it decides whether a matrix
factors as it is and, if not, how much jitter makes it factor. It returns
the Cholesky factor of the matrix it accepts, and that factor is all
:func:`sample_mvn` and :func:`mvn_logpdf_batch` take, so one factorization
per matrix serves both the draw and the densities.

The densities are the loop's one per-point step in this module. Only the
triangular solve stays per row: a batched solve orders its sums differently
and changes the bits. The constant and the quadratic forms are one numpy
call each over the whole population, chosen to give the bits of the
per-row expressions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import NotPositiveDefinite, RepairFailed
from .rng import RandomSource

_SYM_RTOL = 1e-12
# jitter rungs eps * 10**p, p = 0 .. _RUNGS - 1, tried by spd_repair,
# with eps = _JITTER_BASE * max(1, max |diag m|)
_JITTER_BASE = 1e-10
_RUNGS = 12

_LOG_2PI = np.log(2.0 * np.pi)


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

    Raises
    ------
    RepairFailed
        When no rung factorizes, signalling an irrecoverably broken matrix.
    """
    m = check_symmetric(m)
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
    d = mean.shape[0]
    z = rng.standard_normals(k * d).reshape(k, d)
    return mean + z @ factor.T


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
            raise NotPositiveDefinite("the Cholesky factor is singular")
    c = -0.5 * d * _LOG_2PI - np.log(factor.diagonal()).sum()
    return c - ((0.5 * ys)[:, None, :] @ ys[:, :, None])[:, 0, 0]


def frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm with the bits of ``np.linalg.norm(m, "fro")``: the root of one dot."""
    v = np.asarray(m, dtype=float).ravel(order="K")
    return math.sqrt(v @ v)

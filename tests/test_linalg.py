"""Matrix primitives and sampling, and the density oracle the loop's weights are checked against."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcmaes.errors import RepairFailed
from bcmaes.linalg import (
    _sample,
    frobenius_norm,
    sample_mvn,
    scaled_jitter_eps,
    spd_repair,
)
from bcmaes.rng import RandomSource

import oracles
from _util import make_spd
from oracles import mvn_logpdf_batch, mvn_pdf


def _pdf(mean: np.ndarray, cov: np.ndarray, x: np.ndarray) -> float:
    """The package's density of N(mean, cov) at one point ``x``."""
    factor = np.linalg.cholesky(cov)
    return float(np.exp(mvn_logpdf_batch(mean, factor, np.asarray(x, dtype=float)[None, :])[0]))


class TestCholesky:
    """The lower factor spd_repair returns, the package's one Cholesky factorization."""

    def test_identity(self):
        assert np.array_equal(spd_repair(np.eye(2))[1], np.eye(2))

    def test_diagonal_square_roots(self):
        L = spd_repair(np.diag([4.0, 9.0]))[1]
        assert np.array_equal(L, np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        L = spd_repair(m)[1]
        assert np.allclose(np.tril(L), L)
        assert np.abs(L @ L.T - m).max() <= 1e-10

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            m = make_spd(rng, d)
            L = spd_repair(m)[1]
            rel = np.linalg.norm(L @ L.T - m) / np.linalg.norm(m)
            assert rel <= 1e-10

    def test_not_positive_definite(self):
        # attempt 0 rejects both, so each comes back shifted by a jitter rung
        for m in (np.ones((2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]])):
            out, L = spd_repair(m)
            shift = out - m
            assert shift[0, 0] > 0
            assert np.array_equal(shift, shift[0, 0] * np.eye(2))
            assert np.array_equal(L, np.linalg.cholesky(out))


def sequential_spd_repair(m: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The jitter ladder climbed one rung at a time: the reference for the bisection."""
    m = np.asarray(m, dtype=float)
    try:
        return m, np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(m.shape[0])
    for power in range(12):
        repaired = m + eps * 10.0**power * eye
        try:
            return repaired, np.linalg.cholesky(repaired)
        except np.linalg.LinAlgError:
            continue
    raise RepairFailed("no rung factorizes")


def _with_spectrum(eigvals, seed: int) -> np.ndarray:
    """Symmetric matrix with (about) the given eigenvalues in a random basis."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(eigvals), len(eigvals))))
    m = (q * np.asarray(eigvals, dtype=float)) @ q.T
    return 0.5 * (m + m.T)


def _with_negative_eigenvalue(neg: float, seed: int) -> np.ndarray:
    """Matrix with eigenvalues -neg, 2 + neg, 2 and 5 in a random coordinate order.

    Its diagonal is a permutation of [1, 1, 2, 5] whatever ``neg``, so its
    jitter base ``scaled_jitter_eps`` does not depend on ``neg``.
    """
    m = np.diag([1.0, 1.0, 2.0, 5.0])
    m[0, 1] = m[1, 0] = 1.0 + neg
    perm = np.random.default_rng(seed).permutation(4)
    return m[np.ix_(perm, perm)]


def _repair_counting_attempts(m: np.ndarray):
    """``spd_repair(m)`` and the number of Cholesky attempts it made."""
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as chol:
        try:
            result = spd_repair(m)
        except RepairFailed as exc:
            result = exc
    return result, chol.call_count


def _assert_matches_ladder(m: np.ndarray) -> None:
    try:
        expected = sequential_spd_repair(m, scaled_jitter_eps(m))
    except RepairFailed as exc:
        expected = exc
    got, attempts = _repair_counting_attempts(m)
    assert attempts <= 5
    if isinstance(expected, RepairFailed):
        assert isinstance(got, RepairFailed)
    else:
        assert not isinstance(got, RepairFailed)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


class TestSpdRepairBisection:
    @pytest.mark.parametrize("rung", range(12))
    def test_each_rung_is_found(self, rung):
        # lambda_min = -eps * 10**rung / 2: rung `rung` is the first to lift it above zero
        eps = scaled_jitter_eps(_with_negative_eigenvalue(0.0, seed=rung))
        m = _with_negative_eigenvalue(0.5 * eps * 10.0**rung, seed=rung)
        assert scaled_jitter_eps(m) == eps
        assert np.array_equal(spd_repair(m)[0], m + eps * 10.0**rung * np.eye(4))
        _assert_matches_ladder(m)

    def test_all_rungs_fail(self):
        # lambda_min = -1e3, beyond the largest jitter, 10 x the largest diagonal entry
        m = _with_negative_eigenvalue(1e3, seed=0)
        with pytest.raises(RepairFailed):
            spd_repair(m)
        _assert_matches_ladder(m)

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=8),
        log_neg=st.floats(min_value=-13.0, max_value=4.0),
        positive=st.booleans(),
        scale=st.sampled_from([1e-6, 1.0, 1e4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_bisection_matches_sequential_ladder(self, d, log_neg, positive, scale, seed):
        # lambda_min spans 10**-13 .. 10**4 times about the jitter base, so
        # attempt 0 (positive) and the lower rungs are drawn; the cases above
        # pin every rung and the all-rungs-fail case
        base = 1e-10 * scale
        rng = np.random.default_rng(seed)
        lam_min = (1.0 if positive else -1.0) * base * 10.0**log_neg
        eigvals = np.concatenate([[lam_min], scale * rng.uniform(0.1, 10.0, size=d - 1)])
        _assert_matches_ladder(_with_spectrum(eigvals, seed))


class TestSpdRepair:
    def test_spd_unchanged(self):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        out, L = spd_repair(m)
        assert np.array_equal(out, m)
        assert np.array_equal(L, np.linalg.cholesky(m))

    def test_zero_matrix_first_escalation(self):
        # the jitter base is relative to the diagonal, so the zero matrix's
        # first escalation, and every later one, adds 0
        assert scaled_jitter_eps(np.zeros((2, 2))) == 0.0
        with pytest.raises(RepairFailed):
            spd_repair(np.zeros((2, 2)))

    def test_rank_deficient_repaired(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        out, L = spd_repair(m)
        assert np.array_equal(L, np.linalg.cholesky(out))

    def test_jitter_base_scales_with_diagonal(self):
        # a scaled copy of a rank-deficient matrix is repaired at the same rung,
        # below a unit diagonal too, and a power of two scales the bits exactly
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        for s in (1.0, 1e6, 1e-6):
            out, _ = spd_repair(s * m)
            assert np.array_equal(out, s * m + 1e-10 * s * np.eye(2))
        for s in (2.0**-600, 2.0**20):
            assert np.array_equal(spd_repair(s * m)[0], s * spd_repair(m)[0])

    def test_jitter_base_underflows_below_the_subnormals(self):
        # 1e-10 times the largest diagonal entry reaches 0 once that entry is
        # below about 2.5e-314, the square of a sigma0 of about 1.6e-157
        assert scaled_jitter_eps(np.diag([3e-314, 0.0])) > 0.0
        assert scaled_jitter_eps(np.diag([2e-314, 0.0])) == 0.0

    def test_attempt_zero_factors_input_itself(self):
        m = make_spd(np.random.default_rng(3), 4)
        out, L = spd_repair(m)
        assert out is m
        assert np.array_equal(L, np.linalg.cholesky(m))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # the one check left: symmetry is the caller's guarantee, finiteness is not
        m = np.eye(2)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            spd_repair(m)

    def test_repair_failed_after_escalations(self):
        # off-diagonal dominant: eigenvalues -999 and 1001 against a unit
        # diagonal. A diagonal matrix such as diag(-1e30, 1) is always
        # repairable, since the largest jitter is 10 x the largest diagonal entry.
        m = np.array([[1.0, 1e3], [1e3, 1.0]])
        with pytest.raises(RepairFailed):
            spd_repair(m)


class TestSampleMvn:
    def test_determinism(self):
        a = sample_mvn(np.zeros(2), np.eye(2), 3, RandomSource(42))
        b = sample_mvn(np.zeros(2), np.eye(2), 3, RandomSource(42))
        assert np.array_equal(a, b)

    def test_variate_order_documented(self):
        # point i is mean + L @ z[i], with z filled row-major from the stream
        mean = np.array([1.0, -2.0])
        L = np.linalg.cholesky(np.array([[2.0, 0.3], [0.3, 1.0]]))
        k = 5
        pts = sample_mvn(mean, L, k, RandomSource(11))
        z = RandomSource(11).standard_normals(k * 2).reshape(k, 2)
        manual = mean + z @ L.T
        assert np.array_equal(pts, manual)

    def test_sample_moments(self):
        k = 200_000
        pts = sample_mvn(np.array([5.0, 5.0]), np.eye(2), k, RandomSource(123))
        mean_err = np.abs(pts.mean(axis=0) - 5.0)
        assert np.all(mean_err < 0.02)
        emp_cov = np.cov(pts, rowvar=False)
        assert np.abs(emp_cov - np.eye(2)).max() < 5 * np.sqrt(2.0 / k)

    def test_loop_draw_returns_its_variates(self):
        # the loop's draw: the points of sample_mvn and the z behind them, in stream order
        mean = np.array([1.0, -2.0, 0.5])
        L = np.linalg.cholesky(make_spd(np.random.default_rng(5), 3))
        points, z = _sample(mean, L, 4, RandomSource(11))
        assert np.array_equal(points, sample_mvn(mean, L, 4, RandomSource(11)))
        assert np.array_equal(z, RandomSource(11).standard_normals(12).reshape(4, 3))
        assert np.array_equal(points, mean + z @ L.T)


class TestMvnPdf:
    def test_standard_normal_at_mode(self):
        val = _pdf(np.zeros(1), np.eye(1), np.zeros(1))
        assert val == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-14)

    def test_bivariate_at_mode(self):
        val = _pdf(np.zeros(2), np.eye(2), np.zeros(2))
        assert val == pytest.approx(1.0 / (2 * np.pi), rel=1e-14)

    def test_scaled_cov_frozen_value(self):
        # closed form evaluated independently: (4*pi)^-1 * exp(-1/2)
        val = _pdf(np.zeros(2), 2 * np.eye(2), np.array([1.0, 1.0]))
        assert val == pytest.approx(0.04826617631502696, rel=1e-14)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(1)
        cov = make_spd(rng, 3)
        for _ in range(20):
            x = rng.normal(scale=5, size=3)
            assert _pdf(np.zeros(3), cov, x) > 0

    def test_integrates_to_one_1d(self):
        sigma = 1.7
        xs = np.linspace(-8 * sigma, 8 * sigma, 20_001)
        vals = np.exp(mvn_logpdf_batch(np.zeros(1), np.array([[sigma]]), xs[:, None]))
        trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2
        integral = trapezoid(vals, xs)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_logpdf_consistent(self):
        # against the closed form -(d log 2 pi + log det cov + x^T cov^-1 x) / 2
        rng = np.random.default_rng(2)
        cov = make_spd(rng, 2)
        x = np.array([0.3, -0.7])
        logdet = np.linalg.slogdet(cov)[1]
        closed = -0.5 * (2 * np.log(2 * np.pi) + logdet + x @ np.linalg.solve(cov, x))
        got = mvn_logpdf_batch(np.zeros(2), np.linalg.cholesky(cov), x[None, :])[0]
        assert got == pytest.approx(closed, rel=1e-14)


class TestMvnPdfBatch:
    @pytest.mark.parametrize("d", [2, 10, 40])
    def test_bit_equal_to_per_point_density(self, d):
        # against the reference: its own Cholesky and one triangular solve per point
        rng = np.random.default_rng(d)
        for scale in (1e-6, 1.0, 1e4):
            cov = make_spd(rng, d, scale)
            mean = rng.normal(size=d)
            L = np.linalg.cholesky(cov)
            points = sample_mvn(mean, L, 15, RandomSource(d))
            batch = np.exp(mvn_logpdf_batch(mean, L, points))
            assert np.array_equal(batch, [mvn_pdf(mean, cov, x) for x in points])

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 10, 40, 100]),
        log_scale=st.floats(min_value=-8.0, max_value=8.0),
        spread=st.sampled_from([1.0, 30.0]),
        k=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bit_equal_to_row_loop(self, d, log_scale, spread, k, seed):
        # the stacked quadratic forms against one y @ y per row, after the same solves
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        L = np.linalg.cholesky(make_spd(rng, d, scale * scale))
        mean = scale * rng.normal(size=d)
        points = mean + spread * sample_mvn(np.zeros(d), L, k, RandomSource(seed))
        assert np.array_equal(mvn_logpdf_batch(mean, L, points),
                              oracles.mvn_logpdf_rows(mean, L, points))

    def test_bit_equal_to_row_loop_where_the_dot_overflows(self):
        # y @ y is 2e308, past the float range, but the row loop's 0.5 * y @ y
        # halves inside the dot and is finite; so is the batch
        points = np.array([[1e154, 1e154], [1e154, -1e154], [1.0, 2.0]])
        got = mvn_logpdf_batch(np.zeros(2), np.eye(2), points)
        assert np.isfinite(got).all()
        assert np.array_equal(got, oracles.mvn_logpdf_rows(np.zeros(2), np.eye(2), points))

    def test_non_finite_points_rejected(self):
        with pytest.raises(ValueError):
            mvn_logpdf_batch(np.zeros(2), np.eye(2), np.array([[0.0, 0.0], [np.nan, 1.0]]))


class TestWrongLengthPoint:
    # a length-1 point used to broadcast against a d-vector mean
    def test_mvn_pdf(self):
        with pytest.raises(ValueError, match="length 2"):
            mvn_logpdf_batch(np.zeros(2), np.eye(2), np.array([[1.0]]))

    def test_mvn_logpdf(self):
        with pytest.raises(ValueError, match="length 2"):
            mvn_logpdf_batch(np.zeros(2), np.eye(2), np.array([[1.0, 2.0, 3.0]]))

    def test_batch(self):
        with pytest.raises(ValueError, match="length 3"):
            mvn_logpdf_batch(np.zeros(3), np.eye(3), np.ones((4, 1)))


def test_frobenius_norm():
    assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0))
    assert frobenius_norm(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("peak", [1e-300, 1e-200, 1e-155, 1e155, 1e200, 1e300, 1.7e308])
def test_frobenius_norm_finite_where_the_squares_overflow(peak):
    # the squares overflow above about 1e154 and fall below the smallest normal
    # float, losing precision down to 0, below about 1e-154
    m = np.array([[peak, -0.5 * peak], [-0.5 * peak, 0.25 * peak]])
    with np.errstate(over="ignore"):
        got = frobenius_norm(m)
    want = math.hypot(*m.ravel().tolist())  # hypot scales internally
    if math.isfinite(want):
        assert got == pytest.approx(want, rel=1e-15, abs=0)
    else:
        assert got == math.inf


def test_frobenius_norm_keeps_nan_and_inf():
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(frobenius_norm(np.array([[np.nan, 1.0], [1.0, 1.0]])))
        assert frobenius_norm(np.array([[np.inf, 1.0], [1.0, 1.0]])) == math.inf


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from([1, 2, 10, 40, 100]),
    log_scale=st.floats(min_value=-8.0, max_value=8.0),
    transposed=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_frobenius_norm_bit_equal_to_numpy_norm(d, log_scale, transposed, seed):
    m = np.random.default_rng(seed).normal(size=(d, d)) * 10.0**log_scale
    if transposed:
        m = m.T  # a Fortran-ordered view: both sum in memory order
    got, want = frobenius_norm(m), oracles.frobenius_norm(m)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()

"""Matrix primitives, sampling, and density evaluation."""

import numpy as np
import pytest

from bcmaes.errors import NotPositiveDefinite, RepairFailed
from bcmaes.linalg import (
    cholesky,
    frobenius_norm,
    mvn_logpdf,
    mvn_pdf,
    mvn_pdf_batch,
    sample_mvn,
    spd_repair,
)
from bcmaes.rng import RandomSource

from _util import make_spd


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(2)), np.eye(2))

    def test_diagonal_square_roots(self):
        L = cholesky(np.diag([4.0, 9.0]))
        assert np.array_equal(L, np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        L = cholesky(m)
        assert np.allclose(np.tril(L), L)
        assert np.abs(L @ L.T - m).max() <= 1e-10

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            m = make_spd(rng, d)
            L = cholesky(m)
            rel = np.linalg.norm(L @ L.T - m) / np.linalg.norm(m)
            assert rel <= 1e-10

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.zeros((2, 2)))
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSpdRepair:
    def test_spd_unchanged(self):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        out, L = spd_repair(m, 1e-10)
        assert np.array_equal(out, m)
        assert np.array_equal(L, cholesky(m))

    def test_zero_matrix_first_escalation(self):
        out, L = spd_repair(np.zeros((2, 2)), 1e-10)
        assert np.array_equal(out, 1e-10 * np.eye(2))
        assert np.array_equal(L, cholesky(out))

    def test_rank_deficient_repaired(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        out, L = spd_repair(m, 1e-10)
        assert np.array_equal(L, cholesky(out))

    def test_attempt_zero_factors_input_itself(self):
        m = make_spd(np.random.default_rng(3), 4)
        out, L = spd_repair(m, 1e-10)
        assert out is m
        assert np.array_equal(L, np.linalg.cholesky(m))

    def test_repair_failed_after_escalations(self):
        m = np.diag([-1e30, 1.0])
        with pytest.raises(RepairFailed):
            spd_repair(m, 1e-10)


class TestSampleMvn:
    def test_determinism(self):
        a = sample_mvn(np.zeros(2), np.eye(2), 3, RandomSource(42))
        b = sample_mvn(np.zeros(2), np.eye(2), 3, RandomSource(42))
        assert np.array_equal(a, b)

    def test_zero_cov_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            sample_mvn(np.zeros(2), np.zeros((2, 2)), 5, RandomSource(0))

    def test_variate_order_documented(self):
        # point i is mean + L @ z[i], with z filled row-major from the stream
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        k = 5
        pts = sample_mvn(mean, cov, k, RandomSource(11))
        z = RandomSource(11).standard_normals(k * 2).reshape(k, 2)
        manual = mean + z @ cholesky(cov).T
        assert np.array_equal(pts, manual)

    def test_sample_moments(self):
        k = 200_000
        pts = sample_mvn(np.array([5.0, 5.0]), np.eye(2), k, RandomSource(123))
        mean_err = np.abs(pts.mean(axis=0) - 5.0)
        assert np.all(mean_err < 0.02)
        emp_cov = np.cov(pts, rowvar=False)
        assert np.abs(emp_cov - np.eye(2)).max() < 5 * np.sqrt(2.0 / k)

    @pytest.mark.parametrize("m", [np.array([[2.0, 0.3], [0.3, 1.0]]), np.ones((3, 3))])
    def test_factor_from_repair_matches_factorization(self, m):
        # the second case needs jitter, so the factor is that of the repaired matrix
        cov, L = spd_repair(m, 1e-10)
        mean = np.arange(m.shape[0], dtype=float)
        with_factor = sample_mvn(mean, cov, 7, RandomSource(5), factor=L)
        assert np.array_equal(with_factor, sample_mvn(mean, cov, 7, RandomSource(5)))

    def test_k_minimum(self):
        with pytest.raises(ValueError):
            sample_mvn(np.zeros(2), np.eye(2), 1, RandomSource(0))


class TestMvnPdf:
    def test_standard_normal_at_mode(self):
        val = mvn_pdf(np.zeros(1), np.eye(1), np.zeros(1))
        assert val == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-14)

    def test_bivariate_at_mode(self):
        val = mvn_pdf(np.zeros(2), np.eye(2), np.zeros(2))
        assert val == pytest.approx(1.0 / (2 * np.pi), rel=1e-14)

    def test_scaled_cov_frozen_value(self):
        # closed form evaluated independently: (4*pi)^-1 * exp(-1/2)
        val = mvn_pdf(np.zeros(2), 2 * np.eye(2), np.array([1.0, 1.0]))
        assert val == pytest.approx(0.04826617631502696, rel=1e-14)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(1)
        cov = make_spd(rng, 3)
        for _ in range(20):
            x = rng.normal(scale=5, size=3)
            assert mvn_pdf(np.zeros(3), cov, x) > 0

    def test_integrates_to_one_1d(self):
        sigma = 1.7
        xs = np.linspace(-8 * sigma, 8 * sigma, 20_001)
        vals = [mvn_pdf(np.zeros(1), np.array([[sigma**2]]), np.array([x])) for x in xs]
        trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2
        integral = trapezoid(vals, xs)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_non_spd_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            mvn_pdf(np.zeros(2), np.zeros((2, 2)), np.zeros(2))

    def test_logpdf_consistent(self):
        rng = np.random.default_rng(2)
        cov = make_spd(rng, 2)
        x = np.array([0.3, -0.7])
        assert np.exp(mvn_logpdf(np.zeros(2), cov, x)) == pytest.approx(
            mvn_pdf(np.zeros(2), cov, x), rel=1e-14
        )


class TestMvnPdfBatch:
    @pytest.mark.parametrize("d", [2, 10, 40])
    def test_bit_equal_to_per_point_density(self, d):
        rng = np.random.default_rng(d)
        for scale in (1e-6, 1.0, 1e4):
            cov = make_spd(rng, d, scale)
            mean = rng.normal(size=d)
            points = sample_mvn(mean, cov, 15, RandomSource(d))
            batch = mvn_pdf_batch(mean, cholesky(cov), points)
            assert np.array_equal(batch, [mvn_pdf(mean, cov, x) for x in points])

    def test_non_finite_points_rejected(self):
        with pytest.raises(ValueError):
            mvn_pdf_batch(np.zeros(2), np.eye(2), np.array([[0.0, 0.0], [np.nan, 1.0]]))


def test_frobenius_norm():
    assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0))

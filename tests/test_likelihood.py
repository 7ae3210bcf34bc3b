"""Density weighting, rank pairing, strategy means, and the corrected covariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcmaes.errors import InvariantViolation, NonFiniteFitness, NonPositiveDensity, RepairFailed
from bcmaes.likelihood import (
    CandidateSet,
    compute_weights,
    corrected_covariance,
    rank_candidates,
    strategy_one_mean,
    strategy_two_mean,
    summarize,
)
from bcmaes.linalg import mvn_logpdf_batch, scaled_jitter_eps, spd_repair

from _util import make_spd
from oracles import mvn_pdf


def _candidates(points, fitness, densities):
    return CandidateSet.from_evaluations(
        np.asarray(points, dtype=float),
        np.asarray(fitness, dtype=float),
        np.asarray(densities, dtype=float),
    )


def _aligned_population(rng, k=6, d=2):
    """Population whose fitness ranking equals its density ranking."""
    points = rng.normal(size=(k, d))
    densities = rng.uniform(0.1, 5.0, size=k)
    fitness = -densities  # largest density <=> smallest fitness
    return _candidates(points, fitness, densities)


class TestComputeWeights:
    def test_uniform(self):
        assert np.array_equal(compute_weights(np.ones(4)), np.full(4, 0.25))

    def test_direct_normalization(self):
        assert np.array_equal(compute_weights(np.array([3.0, 1.0])), np.array([0.75, 0.25]))

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=12))
    def test_normalized_and_order_preserving(self, dens):
        w = compute_weights(np.array(dens))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        order_d = np.argsort(dens, kind="stable")
        order_w = np.argsort(w, kind="stable")
        assert np.array_equal(order_d, order_w)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveDensity):
            compute_weights(np.array([1.0, 0.0]))
        with pytest.raises(NonPositiveDensity):
            compute_weights(np.array([1.0, -2.0]))


class TestCandidateSetValidates:
    """Public construction keeps every check; only the run loop builds candidate sets unchecked."""

    @pytest.mark.parametrize("fields,error", [
        (dict(points=np.zeros((1, 2)), fitness=np.zeros(1), densities=np.ones(1),
              weights=np.ones(1)), InvariantViolation),
        (dict(fitness=np.zeros(2)), InvariantViolation),
        (dict(densities=np.ones(4)), InvariantViolation),
        (dict(weights=np.full(2, 0.5)), InvariantViolation),
        (dict(densities=np.array([1.0, 0.0, 1.0])), NonPositiveDensity),
        (dict(weights=np.array([0.5, 0.5, 0.5])), InvariantViolation),
        (dict(weights=np.array([1.5, -0.25, -0.25])), InvariantViolation),
    ], ids=["k1", "fitness-length", "densities-length", "weights-length", "zero-density",
            "weights-sum", "negative-weight"])
    def test_rejects(self, fields, error):
        base = dict(points=np.zeros((3, 2)), fitness=np.zeros(3), densities=np.ones(3),
                    weights=np.full(3, 1.0 / 3.0))
        with pytest.raises(error):
            CandidateSet(**{**base, **fields})


class TestRankCandidates:
    def test_descending_weights_with_fitness_tie(self):
        # weights {0.5, 0.3, 0.2} already descending; fitness {2, 1, 1}:
        # the two f=1 points keep their density order, the f=2 point goes last
        c = _candidates([[0.0], [1.0], [2.0]], [2.0, 1.0, 1.0], [5.0, 3.0, 2.0])
        r = rank_candidates(c)
        assert np.array_equal(r.point_provenance, [1, 2, 0])
        assert np.array_equal(r.weights_w_desc, [0.5, 0.3, 0.2])
        assert np.array_equal(r.points_f_asc[:, 0], [1.0, 2.0, 0.0])

    def test_consistent_orders_keep_pairing(self):
        rng = np.random.default_rng(0)
        c = _aligned_population(rng)
        r = rank_candidates(c)
        assert np.array_equal(r.point_provenance, r.weight_provenance)

    def test_two_point_swap(self):
        # weights {0.4, 0.6}, fitness {1, 2} -> pairs (point0, 0.6), (point1, 0.4)
        c = _candidates([[10.0], [20.0]], [1.0, 2.0], [2.0, 3.0])
        r = rank_candidates(c)
        assert np.array_equal(r.points_f_asc[:, 0], [10.0, 20.0])
        assert np.array_equal(r.weights_w_desc, [0.6, 0.4])

    def test_weight_multiset_conserved(self):
        rng = np.random.default_rng(1)
        c = _candidates(
            rng.normal(size=(8, 3)), rng.normal(size=8), rng.uniform(0.1, 2.0, size=8)
        )
        r = rank_candidates(c)
        assert np.array_equal(np.sort(r.weights_w_desc), np.sort(c.weights))
        # provenance really points at the originating rows
        assert np.array_equal(r.points_f_asc, c.points[r.point_provenance])
        assert np.array_equal(r.weights_w_desc, c.weights[r.weight_provenance])

    def test_nan_fitness_rejected(self):
        c = CandidateSet(
            points=np.zeros((2, 1)),
            fitness=np.array([np.nan, 1.0]),
            densities=np.array([1.0, 1.0]),
            weights=np.array([0.5, 0.5]),
        )
        with pytest.raises(NonFiniteFitness):
            rank_candidates(c)


class TestStrategyOneMean:
    def test_cancellation_with_aligned_orders(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = _aligned_population(rng, k=int(rng.integers(2, 9)), d=2)
            prior_mean = rng.normal(size=2)
            out = strategy_one_mean(rank_candidates(c), c, prior_mean)
            assert np.abs(out - prior_mean).max() <= 1e-12

    def test_equal_weights_cancel(self):
        c = _candidates([[1.0, 0.0], [0.0, 2.0]], [5.0, 1.0], [1.0, 1.0])
        prior_mean = np.array([0.3, -0.4])
        out = strategy_one_mean(rank_candidates(c), c, prior_mean)
        assert np.allclose(out, prior_mean, atol=1e-15)

    def test_frozen_two_point_case(self):
        # points {-1, 2}, prior mean 0, unit prior variance, densities
        # phi(-1), phi(2), fitness (x-2)^2; value computed by a separate
        # term-by-term script
        points = np.array([[-1.0], [2.0]])
        dens = np.array(
            [mvn_pdf(np.zeros(1), np.eye(1), p) for p in points]
        )
        fitness = (points[:, 0] - 2.0) ** 2
        c = _candidates(points, fitness, dens)
        out = strategy_one_mean(rank_candidates(c), c, np.zeros(1))
        assert out[0] == pytest.approx(1.905446857161862, rel=1e-13)


class TestStrategyTwoMean:
    def test_direct_argmin(self):
        c = _candidates([[3.0], [-1.0], [2.0]], [9.0, 1.0, 4.0], [1.0, 1.0, 1.0])
        assert strategy_two_mean(c)[0] == -1.0

    def test_tie_takes_first(self):
        c = _candidates([[3.0], [-1.0]], [2.0, 2.0], [1.0, 1.0])
        assert strategy_two_mean(c)[0] == 3.0

    def test_brute_force_scan(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(5, 2))
        fitness = np.array([np.linalg.norm(p) for p in points])
        c = _candidates(points, fitness, np.ones(5))
        best = min(range(5), key=lambda i: fitness[i])
        assert np.array_equal(strategy_two_mean(c), points[best])

    def test_nan_rejected(self):
        c = CandidateSet(
            points=np.zeros((2, 1)),
            fitness=np.array([np.nan, 1.0]),
            densities=np.array([1.0, 1.0]),
            weights=np.array([0.5, 0.5]),
        )
        with pytest.raises(NonFiniteFitness):
            strategy_two_mean(c)


def _naive_corrected_cov(points, weights, fitness, prior_cov):
    """Straightforward loop transcription, kept independent of the module."""
    k = len(points)
    order_w = sorted(range(k), key=lambda i: -weights[i])
    w_desc = [weights[i] for i in order_w]
    pts_w = [points[i] for i in order_w]
    fit_w = [fitness[i] for i in order_w]
    order_f = sorted(range(k), key=lambda j: fit_w[j])
    pts_f = [pts_w[j] for j in order_f]
    d = len(points[0])
    mf = np.zeros(d)
    for w, p in zip(w_desc, pts_f):
        mf = mf + w * np.asarray(p)
    a = np.zeros((d, d))
    for w, p in zip(w_desc, pts_f):
        dev = np.asarray(p) - mf
        a = a + w * np.outer(dev, dev)
    mr = np.zeros(d)
    for w, p in zip(weights, points):
        mr = mr + w * np.asarray(p)
    b = np.zeros((d, d))
    for w, p in zip(weights, points):
        dev = np.asarray(p) - mr
        b = b + w * np.outer(dev, dev)
    return a - (b - prior_cov)


class TestCorrectedCovariance:
    def test_cancellation_with_aligned_orders(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            c = _aligned_population(rng, k=int(rng.integers(2, 9)))
            prior_cov = make_spd(rng, 2)
            out = corrected_covariance(rank_candidates(c), c, prior_cov)
            assert np.abs(out - prior_cov).max() <= 1e-12

    def test_two_point_populations_return_prior(self):
        # at k=2 the two weighted scatters coincide for any pairing, so the
        # estimate always falls back to the prior covariance
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = _candidates(
                rng.normal(size=(2, 1)), rng.normal(size=2), rng.uniform(0.5, 2.0, size=2)
            )
            out = corrected_covariance(rank_candidates(c), c, np.array([[1.3]]))
            assert out[0, 0] == pytest.approx(1.3, rel=1e-12)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            k = int(rng.integers(3, 9))
            points = rng.normal(size=(k, 2))
            fitness = rng.normal(size=k)
            densities = rng.uniform(0.1, 3.0, size=k)
            c = _candidates(points, fitness, densities)
            prior_cov = make_spd(rng, 2)
            expected = _naive_corrected_cov(
                list(points), list(c.weights), list(fitness), prior_cov
            )
            expected = 0.5 * (expected + expected.T)
            out = corrected_covariance(rank_candidates(c), c, prior_cov)
            assert np.abs(out - expected).max() <= 1e-12

    def test_output_symmetric(self):
        rng = np.random.default_rng(7)
        c = _candidates(
            rng.normal(size=(6, 3)), rng.normal(size=6), rng.uniform(0.1, 1.0, size=6)
        )
        out = corrected_covariance(rank_candidates(c), c, make_spd(rng, 3))
        assert np.array_equal(out, out.T)

    def test_indefinite_estimate_repaired_to_spd(self):
        # a tiny prior covariance with wildly uneven weights makes the raw
        # scatter dominate the rank-paired one, driving the estimate
        # indefinite; the repair must still hand back a factorizable matrix
        rng = np.random.default_rng(12)
        repaired_some = False
        for _ in range(50):
            k = int(rng.integers(3, 8))
            points = rng.normal(scale=5.0, size=(k, 2))
            fitness = rng.normal(size=k)
            densities = np.exp(rng.uniform(-20, 0, size=k))
            c = _candidates(points, fitness, densities)
            prior_cov = 1e-8 * np.eye(2)
            out = corrected_covariance(rank_candidates(c), c, prior_cov)
            np.linalg.cholesky(out)  # must not raise
            raw = _naive_corrected_cov(list(points), list(c.weights), list(fitness), prior_cov)
            if np.linalg.eigvalsh(0.5 * (raw + raw.T))[0] < 0:
                repaired_some = True
        assert repaired_some  # the fixture really exercised the repair path

    def test_jitter_failure_falls_back_to_cone_projection(self):
        # the estimate comes out off-diagonal dominant: eigenvalues about
        # -14.3 and 13.6 against diagonal entries below 1, so even the largest
        # jitter (10x the largest diagonal entry) cannot repair it
        points = [[-1.6, 7.9], [5.4, 2.7], [-8.4, 2.8]]
        fitness = [0.4, 1.7, 0.2]
        c = _candidates(points, fitness, np.exp([-7.0, -6.0, -19.0]))
        prior_cov = 1e-8 * np.eye(2)
        raw = _naive_corrected_cov(points, list(c.weights), fitness, prior_cov)
        raw = 0.5 * (raw + raw.T)
        with pytest.raises(RepairFailed):
            spd_repair(raw)
        out = corrected_covariance(rank_candidates(c), c, prior_cov)
        assert np.array_equal(out, out.T)
        np.linalg.cholesky(out)  # must not raise
        floored = np.maximum(np.linalg.eigvalsh(raw), scaled_jitter_eps(prior_cov))
        assert np.abs(np.linalg.eigvalsh(out) - floored).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(3, 12),
        data=st.data(),
        log_scale=st.floats(-6.0, 6.0),
        spread=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_factorizes_when_popsize_below_dim(self, d, data, log_scale, spread, seed):
        # the k < d regime, with points drawn at up to 5x the prior's spread
        k = data.draw(st.integers(2, d - 1), label="k")
        rng = np.random.default_rng(seed)
        prior_cov = make_spd(rng, d, 10.0**log_scale)
        mean = rng.normal(size=d)
        L = np.linalg.cholesky(prior_cov)
        points = mean + spread * rng.normal(size=(k, d)) @ L.T
        c = _candidates(points, rng.normal(size=k), np.exp(mvn_logpdf_batch(mean, L, points)))
        out = corrected_covariance(rank_candidates(c), c, prior_cov)
        assert np.array_equal(out, out.T)
        np.linalg.cholesky(out)  # must not raise


class TestSummarize:
    def test_s2_delegates_to_argmin(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(5, 2))
        fitness = np.array([np.linalg.norm(p) for p in points])
        c = _candidates(points, fitness, np.ones(5))
        s = summarize(c, np.zeros(2), np.eye(2), "s2")
        assert np.array_equal(s.mu_bar, points[int(np.argmin(fitness))])
        assert s.n_obs == 5

    def test_s1_double_cancellation(self):
        rng = np.random.default_rng(9)
        c = _aligned_population(rng)
        prior_mean = rng.normal(size=2)
        prior_cov = make_spd(rng, 2)
        s = summarize(c, prior_mean, prior_cov, "s1")
        assert np.abs(s.mu_bar - prior_mean).max() <= 1e-12
        assert np.abs(s.sigma_bar - prior_cov).max() <= 1e-12
        assert s.n_obs == c.k

    def test_strategies_differ_when_argmin_is_not_the_ranked_mean(self):
        points = np.array([[-1.0], [2.0]])
        dens = np.array([mvn_pdf(np.zeros(1), np.eye(1), p) for p in points])
        fitness = (points[:, 0] - 2.0) ** 2
        c = _candidates(points, fitness, dens)
        s1 = summarize(c, np.zeros(1), np.eye(1), "s1")
        s2 = summarize(c, np.zeros(1), np.eye(1), "s2")
        assert s2.mu_bar[0] == 2.0
        assert s1.mu_bar[0] != s2.mu_bar[0]
        assert np.array_equal(s1.sigma_bar, s2.sigma_bar)

    def test_unknown_strategy_rejected(self):
        rng = np.random.default_rng(10)
        c = _aligned_population(rng)
        with pytest.raises(ValueError):
            summarize(c, np.zeros(2), np.eye(2), "s3")


class TestInputOrderInvariance:
    def test_joint_permutation_leaves_outputs(self):
        rng = np.random.default_rng(11)
        k = 7
        points = rng.normal(size=(k, 2))
        fitness = rng.normal(size=k)
        densities = rng.uniform(0.1, 2.0, size=k)
        prior_mean = rng.normal(size=2)
        prior_cov = make_spd(rng, 2)
        c = _candidates(points, fitness, densities)
        base_s1 = strategy_one_mean(rank_candidates(c), c, prior_mean)
        base_s2 = strategy_two_mean(c)
        base_cov = corrected_covariance(rank_candidates(c), c, prior_cov)
        for _ in range(10):
            perm = rng.permutation(k)
            cp = _candidates(points[perm], fitness[perm], densities[perm])
            assert np.abs(strategy_one_mean(rank_candidates(cp), cp, prior_mean) - base_s1).max() <= 1e-14
            assert np.array_equal(strategy_two_mean(cp), base_s2)
            assert np.abs(corrected_covariance(rank_candidates(cp), cp, prior_cov) - base_cov).max() <= 1e-14

"""Density weighting, then rank pairing, strategy means and the corrected covariance through ``summarize``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


from bcmaes.likelihood import summarize
from bcmaes.linalg import scaled_jitter_eps
from bcmaes.optimizer import _softmax

from _util import make_spd, spy_factorizations
from oracles import mvn_logpdf_batch, mvn_pdf


def _summary(points, fitness, densities, prior_mean, prior_cov, strategy):
    """``summarize`` on float64 copies of the inputs, weighted by the normalized densities."""
    densities = np.asarray(densities, dtype=float)
    return summarize(np.asarray(points, dtype=float), np.asarray(fitness, dtype=float),
                     densities / densities.sum(), np.asarray(prior_mean, dtype=float),
                     np.asarray(prior_cov, dtype=float), strategy)


def _s1_mean(points, fitness, densities, prior_mean):
    d = np.shape(points)[1]
    mu_bar, _, _ = _summary(points, fitness, densities, prior_mean, np.eye(d), "s1")
    return mu_bar


def _s2_mean(points, fitness, densities):
    d = np.shape(points)[1]
    mu_bar, _, _ = _summary(points, fitness, densities, np.zeros(d), np.eye(d), "s2")
    return mu_bar


def _covariance(points, fitness, densities, prior_cov):
    d = np.shape(points)[1]
    _, sigma_bar, _ = _summary(points, fitness, densities, np.zeros(d), prior_cov, "s2")
    return sigma_bar


class TestComputeWeights:
    """The run loop's weights: the softmax of log-densities, ``exp(logp - max)`` over its sum."""

    def test_uniform(self):
        assert np.array_equal(_softmax(np.zeros(4)), np.full(4, 0.25))

    def test_direct_normalization(self):
        # exp(log 1 - log 3) is not exactly 1/3, so the weights are checked
        # bitwise against the shifted quotient and against 3:1 to rounding
        logp = np.log([3.0, 1.0])
        shifted = np.exp(logp - logp.max())
        w = _softmax(logp)
        assert np.array_equal(w, shifted / shifted.sum())
        assert w == pytest.approx([0.75, 0.25], rel=1e-15)

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=12))
    def test_normalized_and_order_preserving(self, dens):
        logp = np.log(dens)
        w = _softmax(logp.copy())  # it works in place
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        order_d = np.argsort(np.exp(logp), kind="stable")
        order_w = np.argsort(w, kind="stable")
        assert np.array_equal(order_d, order_w)


def _aligned_population(rng, k=6, d=2):
    """(points, fitness, densities) whose fitness ranking equals their density ranking."""
    points = rng.normal(size=(k, d))
    densities = rng.uniform(0.1, 5.0, size=k)
    fitness = -densities  # largest density <=> smallest fitness
    return points, fitness, densities


class TestRankCandidates:
    def test_descending_weights_with_fitness_tie(self):
        # fitness {2, 1, 1}: the two f=1 points share the best fitness, and the
        # larger weight of their two slots (0.5) must go to the denser one.
        # Every weight and sum is exact, so each pairing has its own mean.
        points = np.array([[0.0], [1.0], [2.0]])
        fitness = np.array([2.0, 1.0, 1.0])
        for weights, expected in (
            # point 1 is the denser: pairs (1, 0.5), (2, 0.375), (0, 0.125)
            ([0.5, 0.375, 0.125], 0.625),
            # point 2 is the denser, though it comes later: pairs (2, 0.5), (1, 0.375), (0, 0.125)
            ([0.5, 0.125, 0.375], 0.5),
        ):
            mu_bar, _, _ = summarize(points, fitness, np.array(weights), np.zeros(1), np.eye(1), "s1")
            assert mu_bar[0] == expected

    def test_two_point_swap(self):
        # weights {0.4, 0.6}, fitness {1, 2} -> pairs (point0, 0.6), (point1, 0.4):
        # ranked mean 14 against raw mean 16; the unswapped pairing would return the prior
        out = _s1_mean([[10.0], [20.0]], [1.0, 2.0], [2.0, 3.0], np.zeros(1))
        assert out[0] == pytest.approx(-2.0, rel=1e-12)


def _two_stage_order(weights, fitness):
    """The pairing order as two stable argsorts: weights descending, then fitness ascending."""
    order_w = (-weights).argsort(kind="stable")
    return order_w[fitness[order_w].argsort(kind="stable")]


def _two_stage_summary(points, fitness, weights, prior_mean, prior_cov, strategy):
    """``(mu_bar, sigma_bar)`` by the plain expressions, the pairing as two argsorts."""
    order_w = (-weights).argsort(kind="stable")
    w_desc = weights[order_w]
    x_fasc = points[_two_stage_order(weights, fitness)]
    ranked_mean = w_desc @ x_fasc
    raw_mean = weights @ points
    if strategy == "s1":
        mu_bar = ranked_mean - (raw_mean - prior_mean)
    else:
        mu_bar = points[fitness.argmin()].copy()
    dev_r = x_fasc - ranked_mean
    a = (w_desc[:, None] * dev_r).T @ dev_r
    dev = points - raw_mean
    b = (weights[:, None] * dev).T @ dev
    out = a - (b - prior_cov)
    out = 0.5 * (out + out.T)
    try:
        np.linalg.cholesky(out)
    except np.linalg.LinAlgError:
        shift = np.abs(out).sum(axis=1).max()
        out[np.diag_indices_from(out)] += shift + scaled_jitter_eps(prior_cov)
    return mu_bar, out


class TestPairingOrder:
    """The one lexsort that summarize pairs by is the two-stage argsort, ties and all."""

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(2, 12),
        d=st.integers(1, 4),
        strategy=st.sampled_from(["s1", "s2"]),
        data=st.data(),
    )
    def test_lexsort_is_the_two_stage_argsort(self, k, d, strategy, data):
        # few distinct values, so that fitness and weights tie; +inf fitness
        # and zero weights are drawn too
        fitness = np.array(data.draw(st.lists(
            st.sampled_from([-1.0, 0.0, 2.5, np.inf]), min_size=k, max_size=k)))
        raw = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=k, max_size=k)))
        if raw.sum() == 0.0:
            raw[0] = 1.0
        weights = raw / raw.sum()
        assert np.array_equal(np.lexsort((-weights, fitness)), _two_stage_order(weights, fitness))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        points = rng.normal(size=(k, d))
        prior_mean, prior_cov = rng.normal(size=d), make_spd(rng, d)
        got_mean, got_cov, _ = summarize(points, fitness, weights, prior_mean, prior_cov, strategy)
        mu_bar, sigma_bar = _two_stage_summary(points, fitness, weights, prior_mean, prior_cov,
                                               strategy)
        assert got_mean.tobytes() == mu_bar.tobytes()
        assert got_cov.tobytes() == sigma_bar.tobytes()


class TestStrategyOneMean:
    def test_cancellation_with_aligned_orders(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            points, fitness, densities = _aligned_population(rng, k=int(rng.integers(2, 9)), d=2)
            prior_mean = rng.normal(size=2)
            out = _s1_mean(points, fitness, densities, prior_mean)
            assert np.abs(out - prior_mean).max() <= 1e-12

    def test_equal_weights_cancel(self):
        prior_mean = np.array([0.3, -0.4])
        out = _s1_mean([[1.0, 0.0], [0.0, 2.0]], [5.0, 1.0], [1.0, 1.0], prior_mean)
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
        out = _s1_mean(points, fitness, dens, np.zeros(1))
        assert out[0] == pytest.approx(1.905446857161862, rel=1e-13)


class TestStrategyTwoMean:
    def test_direct_argmin(self):
        assert _s2_mean([[3.0], [-1.0], [2.0]], [9.0, 1.0, 4.0], [1.0, 1.0, 1.0])[0] == -1.0

    def test_tie_takes_first(self):
        assert _s2_mean([[3.0], [-1.0]], [2.0, 2.0], [1.0, 1.0])[0] == 3.0
        # the lowest index, not the best-ranked point: the later point is denser
        assert _s2_mean([[3.0], [-1.0]], [2.0, 2.0], [1.0, 3.0])[0] == 3.0

    def test_brute_force_scan(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(5, 2))
        fitness = np.array([np.linalg.norm(p) for p in points])
        best = min(range(5), key=lambda i: fitness[i])
        assert np.array_equal(_s2_mean(points, fitness, np.ones(5)), points[best])


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


def _weights(densities):
    densities = np.asarray(densities, dtype=float)
    return list(densities / densities.sum())


class TestCorrectedCovariance:
    def test_cancellation_with_aligned_orders(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            points, fitness, densities = _aligned_population(rng, k=int(rng.integers(2, 9)))
            prior_cov = make_spd(rng, 2)
            out = _covariance(points, fitness, densities, prior_cov)
            assert np.abs(out - prior_cov).max() <= 1e-12

    def test_two_point_populations_return_prior(self):
        # at k=2 the two weighted scatters coincide for any pairing, so the
        # estimate always falls back to the prior covariance
        rng = np.random.default_rng(5)
        for _ in range(10):
            out = _covariance(rng.normal(size=(2, 1)), rng.normal(size=2),
                              rng.uniform(0.5, 2.0, size=2), np.array([[1.3]]))
            assert out[0, 0] == pytest.approx(1.3, rel=1e-12)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            k = int(rng.integers(3, 9))
            points = rng.normal(size=(k, 2))
            fitness = rng.normal(size=k)
            densities = rng.uniform(0.1, 3.0, size=k)
            prior_cov = make_spd(rng, 2)
            expected = _naive_corrected_cov(
                list(points), _weights(densities), list(fitness), prior_cov
            )
            expected = 0.5 * (expected + expected.T)
            out = _covariance(points, fitness, densities, prior_cov)
            assert np.abs(out - expected).max() <= 1e-12

    def test_output_symmetric(self):
        rng = np.random.default_rng(7)
        out = _covariance(rng.normal(size=(6, 3)), rng.normal(size=6),
                          rng.uniform(0.1, 1.0, size=6), make_spd(rng, 3))
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
            prior_cov = 1e-8 * np.eye(2)
            out = _covariance(points, fitness, densities, prior_cov)
            np.linalg.cholesky(out)  # must not raise
            raw = _naive_corrected_cov(list(points), _weights(densities), list(fitness), prior_cov)
            if np.linalg.eigvalsh(0.5 * (raw + raw.T))[0] < 0:
                repaired_some = True
        assert repaired_some  # the fixture really exercised the repair path

    @staticmethod
    def _estimate_and_summary(points, fitness, densities, prior_cov):
        """The symmetrized estimate summarize factors, as it was then, and its summary."""
        with spy_factorizations() as spy:
            _, sigma_bar, _ = _summary(points, fitness, densities, np.zeros(len(prior_cov)), prior_cov,
                                       "s2")
        assert len(spy.calls) == 1  # one factorization and no other attempt
        assert spy.numpy["cholesky"] == 0
        return spy.calls[0][:2], sigma_bar

    def test_estimate_that_factors_is_kept_as_it_is(self):
        rng = np.random.default_rng(4)
        points, fitness, densities = _aligned_population(rng, k=6)
        (estimate, before), sigma_bar = self._estimate_and_summary(
            points, fitness, densities, make_spd(rng, 2))
        assert sigma_bar is estimate
        assert np.array_equal(sigma_bar, before)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_indefinite_estimate_is_shifted_by_its_infinity_norm(self):
        # the estimate comes out off-diagonal dominant: eigenvalues about
        # -14.3 and 13.6 against diagonal entries below 1, beyond every rung
        # of a jitter ladder relative to its diagonal
        points = [[-1.6, 7.9], [5.4, 2.7], [-8.4, 2.8]]
        fitness = [0.4, 1.7, 0.2]
        densities = np.exp([-7.0, -6.0, -19.0])
        prior_cov = 1e-8 * np.eye(2)
        (_, before), sigma_bar = self._estimate_and_summary(points, fitness, densities, prior_cov)
        assert np.linalg.eigvalsh(before)[0] < -14.0
        shift = np.abs(before).sum(axis=1).max() + scaled_jitter_eps(prior_cov)
        assert np.array_equal(sigma_bar, before + shift * np.eye(2))
        assert np.array_equal(sigma_bar, sigma_bar.T)
        np.linalg.cholesky(sigma_bar)  # must not raise

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
        out = _covariance(points, rng.normal(size=k),
                          np.exp(mvn_logpdf_batch(mean, L, points)), prior_cov)
        assert np.array_equal(out, out.T)
        np.linalg.cholesky(out)  # must not raise


class TestSummarize:
    def test_s2_delegates_to_argmin(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(5, 2))
        fitness = np.array([np.linalg.norm(p) for p in points])
        mu_bar, _, n_obs = _summary(points, fitness, np.ones(5), np.zeros(2), np.eye(2), "s2")
        assert np.array_equal(mu_bar, points[int(np.argmin(fitness))])
        assert n_obs == 5

    def test_s1_double_cancellation(self):
        rng = np.random.default_rng(9)
        points, fitness, densities = _aligned_population(rng)
        prior_mean = rng.normal(size=2)
        prior_cov = make_spd(rng, 2)
        mu_bar, sigma_bar, n_obs = _summary(points, fitness, densities, prior_mean, prior_cov, "s1")
        assert np.abs(mu_bar - prior_mean).max() <= 1e-12
        assert np.abs(sigma_bar - prior_cov).max() <= 1e-12
        assert n_obs == len(points)

    def test_strategies_differ_when_argmin_is_not_the_ranked_mean(self):
        points = np.array([[-1.0], [2.0]])
        dens = np.array([mvn_pdf(np.zeros(1), np.eye(1), p) for p in points])
        fitness = (points[:, 0] - 2.0) ** 2
        mean1, cov1, _ = _summary(points, fitness, dens, np.zeros(1), np.eye(1), "s1")
        mean2, cov2, _ = _summary(points, fitness, dens, np.zeros(1), np.eye(1), "s2")
        assert mean2[0] == 2.0
        assert mean1[0] != mean2[0]
        assert np.array_equal(cov1, cov2)

    @pytest.mark.parametrize("strategy", ["s1", "s2"])
    def test_leaves_its_arrays(self, strategy):
        # k < d with a tiny prior covariance and uneven weights: the estimate
        # does not factor, so the in-place shift path runs too
        rng = np.random.default_rng(0)
        k, d = 3, 5
        weights = np.exp(rng.uniform(-20, 0, size=k))
        weights /= weights.sum()
        inputs = (rng.normal(scale=5.0, size=(k, d)), rng.normal(size=k), weights,
                  rng.normal(size=d), 1e-8 * np.eye(d))
        before = [a.copy() for a in inputs]
        with spy_factorizations() as spy:
            summarize(*inputs, strategy)
        assert [factor for _, _, factor in spy.calls] == [None]  # the estimate was shifted
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)


class TestInputOrderInvariance:
    def test_joint_permutation_leaves_outputs(self):
        rng = np.random.default_rng(11)
        k = 7
        points = rng.normal(size=(k, 2))
        fitness = rng.normal(size=k)
        densities = rng.uniform(0.1, 2.0, size=k)
        prior_mean = rng.normal(size=2)
        prior_cov = make_spd(rng, 2)
        base_mean1, base_cov1, _ = _summary(points, fitness, densities, prior_mean, prior_cov, "s1")
        base_mean2, _, _ = _summary(points, fitness, densities, prior_mean, prior_cov, "s2")
        for _ in range(10):
            perm = rng.permutation(k)
            mean1, cov1, _ = _summary(points[perm], fitness[perm], densities[perm], prior_mean,
                                      prior_cov, "s1")
            mean2, _, _ = _summary(points[perm], fitness[perm], densities[perm], prior_mean,
                                   prior_cov, "s2")
            assert np.abs(mean1 - base_mean1).max() <= 1e-14
            assert np.array_equal(mean2, base_mean2)
            assert np.abs(cov1 - base_cov1).max() <= 1e-14

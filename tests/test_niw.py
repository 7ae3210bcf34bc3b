"""Belief-state expectations, conjugate updates, and their cross-checking oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcmaes.niw import NiwParams, expected_covariance, posterior_update

from _util import make_spd, rel_err
from oracles import NigParams, nig_posterior, posterior_update_raw, weighted_update_expectations


def _random_niw(rng: np.random.Generator, d: int) -> NiwParams:
    return NiwParams(
        mu=rng.normal(size=d),
        kappa=float(rng.uniform(0.1, 10)),
        nu=float(d + 1 + rng.uniform(0.5, 10)),
        psi=make_spd(rng, d),
    )


class TestExpectations:
    def test_expected_covariance_unit_denominator(self):
        p = NiwParams(mu=np.zeros(2), kappa=1.0, nu=4.0, psi=np.eye(2))
        assert np.array_equal(expected_covariance(p), np.eye(2))

    def test_expected_covariance_scaling(self):
        p = NiwParams(mu=np.zeros(2), kappa=1.0, nu=5.0, psi=2 * np.eye(2))
        assert np.allclose(expected_covariance(p), np.eye(2), rtol=0, atol=0)


class TestPosteriorUpdate:
    def test_zero_innovation(self):
        p = NiwParams(mu=np.array([1.0, -2.0]), kappa=3.0, nu=7.0, psi=make_spd(np.random.default_rng(0), 2))
        q = posterior_update(p, p.mu, np.zeros((2, 2)), 1)
        assert np.array_equal(q.mu, p.mu)
        assert np.array_equal(q.psi, p.psi)
        assert q.kappa == p.kappa + 1
        assert q.nu == p.nu + 1

    def test_leaves_its_inputs(self):
        rng = np.random.default_rng(3)
        p = _random_niw(rng, 3)
        mu_bar, sigma_bar = rng.normal(size=3), make_spd(rng, 3)
        inputs = (p.mu, p.psi, mu_bar, sigma_bar)
        before = [a.copy() for a in inputs]
        posterior_update(p, mu_bar, sigma_bar, 6)
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)

    def test_hand_case_1d(self):
        # mu=0, kappa=1, nu=5, psi=4; mu_bar=2, sigma_bar=3, n=4
        # => mu'=1.6, kappa'=5, nu'=9, psi' = 4 + 3 + (4/5)*4 = 10.2
        p = NiwParams(mu=np.zeros(1), kappa=1.0, nu=5.0, psi=np.array([[4.0]]))
        q = posterior_update(p, np.array([2.0]), np.array([[3.0]]), 4)
        assert q.mu[0] == pytest.approx(1.6, rel=1e-15)
        assert q.kappa == 5.0
        assert q.nu == 9.0
        assert q.psi[0, 0] == pytest.approx(10.2, rel=1e-15)

    def test_matches_raw_route(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 51))
            p = _random_niw(rng, d)
            xs = p.mu + rng.normal(size=(n, d)) * rng.uniform(0.5, 3)
            xbar = xs.mean(axis=0)
            dev = xs - xbar
            via_summary = posterior_update(p, xbar, dev.T @ dev, n)
            via_raw = posterior_update_raw(p, xs)
            assert rel_err(via_summary.mu, via_raw.mu) <= 1e-12
            assert rel_err(via_summary.psi, via_raw.psi) <= 1e-12
            assert via_summary.kappa == via_raw.kappa
            assert via_summary.nu == via_raw.nu

    def test_contraction_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 20))
            p = _random_niw(rng, d)
            q = posterior_update(p, rng.normal(size=d), make_spd(rng, d), n)
            assert q.kappa == p.kappa + n
            assert q.nu == p.nu + n
            # psi grows by a PSD amount when sigma_bar is PSD
            assert np.linalg.eigvalsh(q.psi - p.psi)[0] >= -1e-12


class TestPosteriorUpdateRaw:
    def test_single_sample_at_prior_mean(self):
        rng = np.random.default_rng(1)
        p = _random_niw(rng, 2)
        q = posterior_update_raw(p, p.mu[None, :])
        assert np.allclose(q.mu, p.mu, rtol=1e-14)
        assert np.allclose(q.psi, p.psi, rtol=0, atol=1e-15)
        assert q.kappa == p.kappa + 1
        assert q.nu == p.nu + 1

    def test_hand_case_repeated_samples(self):
        p = NiwParams(mu=np.zeros(1), kappa=1.0, nu=5.0, psi=np.array([[4.0]]))
        q = posterior_update_raw(p, np.full((4, 1), 2.0))
        # xbar=2, zero scatter: mu' = (0 + 4*2)/5 = 1.6, psi' = 4 + (4/5)*4
        assert q.mu[0] == pytest.approx(1.6, rel=1e-15)
        assert q.psi[0, 0] == pytest.approx(4 + 0.8 * 4, rel=1e-15)

    @given(
        st.lists(st.integers(-8, 8), min_size=4, max_size=4).flatmap(
            lambda xs: st.tuples(st.just(xs), st.permutations(xs))
        )
    )
    def test_permutation_invariance_exact(self, xs_perm):
        # n=4 integer samples keep every intermediate exactly representable,
        # so reordering must give bit-identical results
        xs, perm = xs_perm
        p = NiwParams(mu=np.array([0.5]), kappa=2.0, nu=4.0, psi=np.array([[1.0]]))
        a = posterior_update_raw(p, np.array(xs, dtype=float)[:, None])
        b = posterior_update_raw(p, np.array(perm, dtype=float)[:, None])
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.psi, b.psi)


class TestNigPosterior:
    def test_singleton_at_prior_mean(self):
        p = NigParams(mu=1.5, lam=2.0, alpha=3.0, beta=0.7)
        q = nig_posterior(p, [1.5])
        assert q.mu == 1.5
        assert q.beta == 0.7
        assert q.alpha == 3.5
        assert q.lam == 3.0

    def test_hand_case(self):
        # mu0=0, lam=1, alpha=2, beta=1, xs={1,3}: xbar=2, scatter=2,
        # mu' = (1*0 + 2*2)/(1+2) = 4/3, lam'=3, alpha'=3,
        # beta' = 1 + (2 + (2*1/3)*4)/2 = 10/3 under the single-half convention
        p = NigParams(mu=0.0, lam=1.0, alpha=2.0, beta=1.0)
        q = nig_posterior(p, [1.0, 3.0])
        assert q.mu == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert q.lam == 3.0
        assert q.alpha == 3.0
        assert q.beta == pytest.approx(10.0 / 3.0, rel=1e-15)

    def test_conjugacy_with_1d_update(self):
        # alpha = nu/2, beta = psi/2, lam = kappa maps the 1-D update onto
        # the inverse-gamma one exactly (same shift-term convention both sides)
        rng = np.random.default_rng(7)
        for _ in range(200):
            mu0 = float(rng.normal())
            kappa = float(rng.uniform(0.1, 10))
            nu = float(rng.uniform(2.5, 20))
            psi = float(rng.uniform(0.1, 10))
            n = int(rng.integers(1, 21))
            xs = rng.normal(loc=mu0, scale=2.0, size=n)
            niw = posterior_update_raw(
                NiwParams(mu=np.array([mu0]), kappa=kappa, nu=nu, psi=np.array([[psi]])),
                xs[:, None],
            )
            nig = nig_posterior(NigParams(mu=mu0, lam=kappa, alpha=nu / 2, beta=psi / 2), xs)
            assert rel_err(nig.mu, niw.mu[0]) <= 1e-12
            assert nig.lam == niw.kappa
            assert nig.alpha == niw.nu / 2
            assert rel_err(nig.beta, niw.psi[0, 0] / 2) <= 1e-12


class TestWeightedUpdateExpectations:
    def test_zero_innovation_scales_covariance(self):
        rng = np.random.default_rng(5)
        p = _random_niw(rng, 2)
        n = 6
        mean_new, cov_new = weighted_update_expectations(p, p.mu.copy(), np.zeros((2, 2)), n)
        assert np.array_equal(mean_new, p.mu)
        d = 2
        w1 = (p.nu - d - 1) / (p.nu + n - d - 1)
        assert np.allclose(cov_new, w1 * expected_covariance(p), rtol=1e-14)

    def test_mean_weight(self):
        p = NiwParams(mu=np.zeros(1), kappa=1.0, nu=5.0, psi=np.array([[1.0]]))
        mean_new, _ = weighted_update_expectations(p, np.array([1.0]), np.zeros((1, 1)), 4)
        assert mean_new[0] == pytest.approx(0.8, rel=1e-15)  # n/(kappa+n) = 4/5

    def test_identity_with_posterior_update(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 51))
            p = _random_niw(rng, d)
            mu_bar = rng.normal(size=d)
            sigma_bar = make_spd(rng, d, scale=float(rng.uniform(0.1, 5)))
            mean_w, cov_w = weighted_update_expectations(p, mu_bar, sigma_bar, n)
            q = posterior_update(p, mu_bar, sigma_bar, n)
            assert rel_err(mean_w, q.mu) <= 1e-10
            assert rel_err(cov_w, expected_covariance(q)) <= 1e-10

    def test_reduces_to_classic_weights_when_n_equals_d(self):
        # with n_obs == d the general denominators collapse to (nu - 1) and
        # the discount factor to (nu - n - 1)/(nu - 1)
        rng = np.random.default_rng(13)
        d = n = 3
        p = _random_niw(rng, d)
        mu_bar, sigma_bar = rng.normal(size=d), make_spd(rng, d)
        _, cov_w = weighted_update_expectations(p, mu_bar, sigma_bar, n)
        shift = mu_bar - p.mu
        classic = (
            (p.nu - n - 1) / (p.nu - 1) * expected_covariance(p)
            + (p.kappa * n) / ((p.kappa + n) * (p.nu - 1)) * np.outer(shift, shift)
            + sigma_bar / (p.nu - 1)
        )
        assert rel_err(cov_w, classic) <= 1e-12

    def test_low_dof_rejected(self):
        p = NiwParams(mu=np.zeros(2), kappa=1.0, nu=3.0, psi=np.eye(2))
        with pytest.raises(ValueError):
            weighted_update_expectations(p, np.zeros(2), np.eye(2), 4)


class TestValidationAndJson:
    def test_nig_positivity(self):
        with pytest.raises(ValueError):
            NigParams(mu=0.0, lam=1.0, alpha=-1.0, beta=1.0)

"""The full optimization loop: budget, determinism, state bookkeeping, stops."""

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest

from bcmaes import optimizer
from bcmaes.benchmarks import FUNCTION_NAMES, cone, registry_lookup, schwefel2
from bcmaes.errors import PriorDegeneracy, RepairFailed
from bcmaes.niw import expected_covariance, expected_mean, posterior_update
from bcmaes.optimizer import (
    STOP_CONTROLLER,
    STOP_MAX_ITER,
    STOP_VAR_NORM,
    IterationObservation,
    OptimizerConfig,
    default_popsize,
    init_prior,
    run,
    _evaluate,
)
from bcmaes.rng import RandomSource

import oracles


def _cone_config(**kw):
    base = dict(dim=2, x0=np.array([10.0, 10.0]), seed=1, max_iter=50)
    base.update(kw)
    return OptimizerConfig(**base)


class _RisingObjective:
    """Impure helper: strictly increasing values, so nothing after the first
    iteration ever improves and the controller ladder runs its full course."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return float(self.calls)


class TestInitPrior:
    def test_expected_parameters_match_construction(self):
        p = init_prior(np.array([10.0, 10.0]), 1.0, 2)
        assert np.array_equal(expected_mean(p), [10.0, 10.0])
        assert np.allclose(expected_covariance(p), np.eye(2), rtol=0, atol=0)

    def test_dim2_hyperparameters(self):
        p = init_prior(np.zeros(2), 2.0, 2)
        assert p.nu == 5.0
        assert p.kappa == 1.0
        assert np.array_equal(p.psi, 2 * 2.0**2 * np.eye(2))


class TestConfig:
    def test_default_popsize(self):
        assert default_popsize(2) == 6
        assert default_popsize(1) == 4
        assert _cone_config().k == 6
        assert _cone_config(popsize=9).k == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            _cone_config(popsize=1)
        with pytest.raises(ValueError):
            _cone_config(sigma0=-1.0)
        with pytest.raises(ValueError):
            _cone_config(strategy="best")
        with pytest.raises(ValueError):
            OptimizerConfig(dim=2, x0=np.zeros(3))

    @pytest.mark.parametrize("field,value,message", [
        ("sigma0", np.nan, "positive"),
        ("sigma0", np.inf, "too large"),
        ("sigma0", 0.0, "positive"),
        ("sigma0", -1.0, "positive"),
        ("sigma0", 1.3e154, "too large"),  # 2 * sigma0**2, the prior scale, overflows
        ("sigma0", 1e155, "too large"),  # sigma0**2 itself overflows a Python float
        ("sigma0", 1e-170, "too small"),  # 2 * sigma0**2 underflows to 0
        ("x0", np.array([np.nan, 10.0]), "finite"),
        ("x0", np.array([10.0, np.inf]), "finite"),
        ("dim", 2.0, "dim must be an integer"),
        ("dim", -1, "dim must be at least 1"),
        ("popsize", 6.5, "popsize must be an integer"),
        ("popsize", 6.0, "popsize must be an integer"),
        ("max_iter", 10.5, "max_iter must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", "1", "seed must be an integer"),
        ("seed", True, "seed must be an integer"),
        ("seed", -1, "unsigned 64-bit"),
        ("seed", 2**64, "unsigned 64-bit"),
    ], ids=["sigma0-nan", "sigma0-inf", "sigma0-zero", "sigma0-negative", "sigma0-scale-overflow",
            "sigma0-square-overflow", "sigma0-scale-underflow", "x0-nan", "x0-inf",
            "dim-float", "dim-negative", "popsize-fraction", "popsize-float", "max_iter-fraction",
            "seed-fraction", "seed-str", "seed-bool", "seed-negative", "seed-too-large"])
    def test_rejected_at_construction(self, field, value, message):
        # the run boundary: nothing past the config re-checks these
        with pytest.raises(ValueError, match=message):
            _cone_config(**{field: value})

    @pytest.mark.parametrize("popsize", [None, 4], ids=["default-popsize", "popsize-4"])
    def test_zero_dim_rejected_at_construction(self, popsize):
        # both must fail here: the default popsize takes log(dim), and run() needs a nonempty mean
        with pytest.raises(ValueError, match="dim must be at least 1"):
            _cone_config(dim=0, x0=np.zeros(0), popsize=popsize)

    def test_numpy_integers_accepted_as_python_ints(self):
        cfg = _cone_config(dim=np.int64(2), popsize=np.int32(6), max_iter=np.uint8(3),
                           seed=np.uint64(2**64 - 1))
        assert (cfg.dim, cfg.popsize, cfg.max_iter, cfg.seed) == (2, 6, 3, 2**64 - 1)
        assert all(type(v) is int for v in (cfg.dim, cfg.popsize, cfg.max_iter, cfg.seed))
        assert run(cfg, cone).iterations == 3

    def test_largest_finite_prior_scale_accepted(self):
        assert _cone_config(sigma0=9e153).sigma0 == 9e153

    def test_small_prior_scale_accepted_and_sampled(self):
        # the first sampled covariance is the requested sigma0**2 * I, not jitter
        seen = []
        run(_cone_config(sigma0=1e-150, max_iter=1), cone, callback=seen.append)
        assert np.array_equal(seen[0].sampled_cov, 1e-300 * np.eye(2))


class TestEvaluatePopulation:
    def test_direct_values(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert np.array_equal(_evaluate(pts, cone, None)[0], [0.0, 5.0])

    def test_nan_maps_to_inf(self):
        def objective(x):
            return np.nan if x[0] > 0 else cone(x)

        pts = np.array([[1.0, 0.0], [-3.0, 4.0]])
        fit, n_nan = _evaluate(pts, objective, None)
        assert fit[0] == np.inf
        assert int(np.argmin(fit)) == 1
        assert n_nan == 1

    def test_parallel_matches_sequential(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(64, 3))
        seq = _evaluate(pts, cone, None)[0]
        with ThreadPoolExecutor() as pool:
            par = _evaluate(pts, cone, pool)[0]
        assert np.array_equal(seq, par)


class TestBudget:
    def test_exact_call_count_single_iteration(self):
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return cone(x)

        result = run(_cone_config(popsize=2, max_iter=1), counted)
        assert calls["n"] == 2
        assert result.iterations == 1
        assert len(result.trace) == 1
        assert result.n_evals == 2

    def test_call_count_scales_with_iterations(self):
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return cone(x)

        result = run(_cone_config(max_iter=40), counted)
        assert calls["n"] == result.iterations * 6

    def test_two_factorizations_per_iteration(self):
        # the sampling covariance and the corrected covariance; the corrected
        # covariance and the updated scale are not factored again
        real = np.linalg.cholesky
        failed = []

        def cholesky(m):
            try:
                return real(m)
            except np.linalg.LinAlgError:
                failed.append(m)
                raise

        with mock.patch.object(np.linalg, "cholesky", wraps=cholesky) as chol:
            result = run(_cone_config(max_iter=40), cone)
        assert not failed  # no jitter rung was climbed
        assert chol.call_count == 2 * result.iterations

    @pytest.mark.parametrize("dim,popsize", [(2, None), (10, None), (40, 15)])
    def test_no_search_and_no_projection(self, dim, popsize):
        # one attempt each for the belief's certificate and the covariance
        # estimate, also at d=10 and d=40, where the estimate is indefinite
        # in most iterations: its repair is a closed-form shift, not a jitter
        # search or an eigen-projection
        spec = registry_lookup("cone", dim)
        cfg = OptimizerConfig(dim=dim, x0=spec.default_x0, popsize=popsize, max_iter=60, seed=3)
        with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as chol, \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            result = run(cfg, spec.fn)
        assert result.iterations == 60
        assert chol.call_count == 2 * result.iterations
        assert eigh.call_count == 0

    def test_loop_records_stay_frozen(self):
        seen = []
        result = run(_cone_config(max_iter=30), cone, callback=seen.append)
        records = [result.trace[-1], seen[-1], seen[-1].state_after, seen[-1].decision]
        for record, field in zip(records, ("f_best_iter", "points", "psi", "new_sigma_scale")):
            with pytest.raises(FrozenInstanceError):
                setattr(record, field, None)
            with pytest.raises(FrozenInstanceError):
                setattr(record, "extra", None)
        assert type(result.trace[-1]).__name__ == "IterationTrace"
        assert isinstance(seen[-1], IterationObservation)


class TestWeights:
    @pytest.mark.parametrize("dim,sigma0", [(2, 1.0), (100, 1e3), (100, 1e-4)])
    def test_weights_are_normalized_densities(self, monkeypatch, dim, sigma0):
        # summarize gets softmax(-|z|**2 / 2) over the variates behind the
        # points, exactly; that is the densities over their sum to rounding,
        # also where the densities themselves underflow (sigma0 = 1e3) or
        # overflow (sigma0 = 1e-4)
        seen = []
        real = optimizer.summarize

        def capture(points, fitness, weights, mean, cov, strategy):
            seen.append((points, weights, mean, cov))
            return real(points, fitness, weights, mean, cov, strategy)

        monkeypatch.setattr(optimizer, "summarize", capture)
        spec = registry_lookup("cone", dim)
        run(OptimizerConfig(dim=dim, x0=spec.default_x0, sigma0=sigma0, max_iter=5, seed=1),
            spec.fn)
        assert len(seen) == 5
        k = default_popsize(dim)
        stream = RandomSource(1)
        for points, weights, mean, cov in seen:
            z = stream.standard_normals(k * dim).reshape(k, dim)
            q = -0.5 * (z * z).sum(axis=1)
            e = np.exp(q - q.max())
            assert np.array_equal(weights, e / e.sum())
            logp = oracles.mvn_logpdf_batch(mean, np.linalg.cholesky(cov), points)
            densities = np.exp(logp - logp.max())
            np.testing.assert_allclose(weights, densities / densities.sum(), rtol=1e-8)
            assert np.isfinite(weights).all() and (weights >= 0).all()
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert (np.diff(weights[np.argsort(logp, kind="stable")]) >= 0).all()


class TestRunOnCone:
    def test_trace_monotone_and_improving(self):
        result = run(_cone_config(max_iter=300), cone)
        f_mins = [t.f_min_so_far for t in result.trace]
        assert all(a >= b for a, b in zip(f_mins, f_mins[1:]))
        assert result.f_best < cone([10.0, 10.0])
        assert result.f_best == min(t.f_best_iter for t in result.trace)
        assert cone(result.x_best) == result.f_best

    def test_retrial_resets_on_improvement(self):
        result = run(_cone_config(max_iter=100), cone)
        prev = 0
        for t in result.trace:
            if t.retrial == 0 and prev != 0:
                pass  # reset happened
            else:
                assert t.retrial in (0, prev + 1)
            prev = t.retrial

    def test_determinism_bitwise(self):
        a = run(_cone_config(max_iter=120, seed=9), cone)
        b = run(_cone_config(max_iter=120, seed=9), cone)
        assert a.f_best == b.f_best
        assert np.array_equal(a.x_best, b.x_best)
        assert a.stop_reason == b.stop_reason
        assert len(a.trace) == len(b.trace)
        for ta, tb in zip(a.trace, b.trace):
            assert ta.f_best_iter == tb.f_best_iter
            assert ta.f_min_so_far == tb.f_min_so_far
            assert np.array_equal(ta.expected_mean, tb.expected_mean)
            assert ta.cov_frobenius_norm == tb.cov_frobenius_norm
            assert ta.retrial == tb.retrial
            assert ta.event == tb.event

    def test_parallel_eval_identical_run(self):
        a = run(_cone_config(max_iter=80, seed=4), cone)
        b = run(_cone_config(max_iter=80, seed=4, parallel_eval=True), cone)
        assert a.f_best == b.f_best
        assert np.array_equal(a.x_best, b.x_best)
        assert [t.cov_frobenius_norm for t in a.trace] == [t.cov_frobenius_norm for t in b.trace]


class TestStateConsistency:
    def test_sampling_covariance_is_belief_expectation(self):
        seen = []

        def observer(obs: IterationObservation):
            seen.append(obs)

        run(_cone_config(max_iter=60), cone, callback=observer)
        assert len(seen) >= 2
        for prev, cur in zip(seen, seen[1:]):
            expected = expected_covariance(prev.state_after)
            assert np.abs(cur.sampled_cov - expected).max() <= 1e-12
        for obs in seen:
            assert np.array_equal(obs.sampled_mean, expected_mean(obs.state_before))

    def test_first_iteration_mean_is_convex_combination(self):
        seen = []
        cfg = _cone_config(max_iter=1, strategy="s2")
        run(cfg, cone, callback=seen.append)
        obs = seen[0]
        x_best = obs.points[int(np.argmin(obs.fitness))]
        k = cfg.k
        w = k / (1.0 + k)  # kappa0 = 1
        expected = obs.state_before.mu + w * (x_best - obs.state_before.mu)
        assert np.abs(obs.state_after.mu - expected).max() <= 1e-12
        assert 0 < w < 1

    def test_restart_rebuild_scales_from_memorized_covariance(self):
        objective = _RisingObjective()
        seen = []
        run(_cone_config(max_iter=30, seed=2), objective, callback=seen.append)
        restart_obs = [o for o in seen if o.decision.restart_point is not None]
        assert len(restart_obs) == 1
        obs = restart_obs[0]
        # only iteration 1 improved, so the memory is the prior covariance I;
        # the rebuild then contracts it by k2 = 0.9
        assert np.array_equal(obs.decision.restart_sigma, np.eye(2))
        after = expected_covariance(obs.state_after)
        assert np.abs(after - 0.9 * np.eye(2)).max() <= 1e-12


@functools.cache
def _unit_cone_run(dim, popsize, seed):
    """(f_best, iterations, stop reason) of cone from its default start with sigma0 = 1."""
    spec = registry_lookup("cone", dim)
    result = run(OptimizerConfig(dim=dim, x0=spec.default_x0, popsize=popsize, max_iter=300,
                                 seed=seed), spec.fn)
    return result.f_best, result.iterations, result.stop_reason


class TestStops:
    def test_controller_terminate(self):
        result = run(_cone_config(max_iter=200), _RisingObjective())
        assert result.stop_reason == STOP_CONTROLLER
        assert result.iterations == 51  # one improving iteration + L5 misses
        assert result.trace[-1].event == "terminate-signal"

    @pytest.mark.parametrize("scale", [1.0, 2.0**-40, 2.0**20, 2.0**-300, 2.0**-460, 2.0**-490],
                             ids=["1", "2^-40", "2^20", "2^-300", "2^-460", "2^-490"])
    def test_var_norm_stop(self, scale):
        # cone is homogeneous and a power of two scales every step exactly, so
        # the run started at scale * [10, 10] with sigma0 = scale is the scale-1
        # run times scale, and the stop relative to sigma0**2 comes at the same
        # iteration; an absolute 1e-12 stopped the 2^-40 run at iteration 1. At
        # 2^-300 and 2^-460 the covariance's squares underflow, so the norm must
        # scale its entries not to read 0; at 2^-490 the points' squares do, so
        # cone must too
        cfg = _cone_config(x0=scale * np.array([10.0, 10.0]), sigma0=scale, seed=2, max_iter=1500)
        result = run(cfg, cone)
        assert result.stop_reason == STOP_VAR_NORM
        assert result.iterations == 608
        assert result.f_best / scale == run(replace(cfg, x0=np.array([10.0, 10.0]), sigma0=1.0),
                                            cone).f_best

    @pytest.mark.parametrize("scale", [2.0**-40, 2.0**-200, 2.0**20], ids=["2^-40", "2^-200", "2^20"])
    @pytest.mark.parametrize("dim,popsize", [(10, None), (40, 15)])
    def test_scaled_run_is_the_unit_run_scaled(self, dim, popsize, scale):
        # as test_var_norm_stop, at dimensions where the covariance estimate
        # is indefinite in most iterations: its repair and the belief's
        # jitter base are relative to the matrices, not to an absolute 1
        for seed in (1, 2, 3):
            unit = _unit_cone_run(dim, popsize, seed)
            spec = registry_lookup("cone", dim)
            cfg = OptimizerConfig(dim=dim, x0=scale * spec.default_x0, sigma0=scale,
                                  popsize=popsize, max_iter=300, seed=seed)
            result = run(cfg, spec.fn)
            assert (result.f_best / scale, result.iterations, result.stop_reason) == unit, seed

    @pytest.mark.parametrize("sigma0", [1e-9, 1e-7, 1e-6])
    def test_var_norm_tol_is_relative_to_sigma0(self, sigma0):
        # an absolute 1e-12 stopped these runs after iteration 1: their first
        # expected covariance already had a norm of about sigma0**2
        cfg = _cone_config(x0=np.array([1e-8, 1e-8]), sigma0=sigma0)
        result = run(cfg, cone)
        assert result.stop_reason == STOP_MAX_ITER
        assert result.iterations == 50

    @pytest.mark.parametrize("function", FUNCTION_NAMES)
    @pytest.mark.parametrize("sigma0", [1e-100, 1e-160])
    def test_tiny_sigma0_runs_past_the_first_iteration(self, function, sigma0):
        # the norm and cone once read 0 at these scales, which stopped the
        # run by VarNormSmall at iteration 1
        bench = registry_lookup(function, 2)
        cfg = OptimizerConfig(dim=2, x0=bench.default_x0, sigma0=sigma0, seed=1, max_iter=20)
        result = run(cfg, bench.fn)
        assert result.stop_reason == STOP_MAX_ITER
        assert result.iterations == 20

    def test_max_iter_stop(self):
        result = run(_cone_config(max_iter=5), cone)
        assert result.stop_reason == STOP_MAX_ITER
        assert result.iterations == 5

    def test_all_nan_objective_survives(self):
        cfg = _cone_config(max_iter=200)
        result = run(cfg, lambda x: float("nan"))
        assert result.stop_reason == STOP_CONTROLLER
        assert result.nan_evals == result.n_evals
        assert np.array_equal(result.x_best, cfg.x0)
        assert result.f_best == math.inf
        assert {t.f_min_so_far for t in result.trace} == {math.inf}

    def test_trace_events_vocabulary(self):
        result = run(_cone_config(max_iter=300, seed=3), cone)
        allowed = {"none", "dilate", "contract", "restart", "terminate-signal"}
        assert {t.event for t in result.trace} <= allowed

    def test_unrepairable_update_raises_prior_degeneracy(self, monkeypatch):
        # posterior_update builds psi' unchecked; the next iteration's belief
        # repair rejects a non-finite scale
        def overflowed_update(p, s):
            q = posterior_update(p, s)
            q.psi[0, 0] = np.inf
            return q

        monkeypatch.setattr(optimizer, "posterior_update", overflowed_update)
        with pytest.raises(PriorDegeneracy, match="iteration 2") as info:
            run(_cone_config(max_iter=5), cone)
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_scale_raises_prior_degeneracy(self):
        # psi' overflows in the conjugate update of iteration 15, which builds it
        # unchecked; the belief repair of iteration 16 rejects it. The cone
        # itself does not overflow here, and the loop warns of nothing before
        # the error.
        with pytest.raises(PriorDegeneracy, match="iteration 16") as info:
            run(_cone_config(sigma0=1e153, max_iter=60), cone)
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_scatter_of_a_quiet_objective_raises_without_warning(self):
        # |x_1| does not overflow; the population scatter about its weighted mean does
        with pytest.raises(PriorDegeneracy, match="scatter not finite at iteration 1"):
            run(_cone_config(x0=np.array([1e307, -1e307])), lambda x: abs(float(x[0])))

    def test_objective_warnings_still_surface(self):
        def loud(x):
            np.float64(1e300) * np.float64(1e300)  # numpy warns of this overflow
            return cone(x)

        with pytest.warns(RuntimeWarning, match="overflow"):
            run(_cone_config(max_iter=1), loud)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_covariance_has_finite_norm(self):
        # entries near 1e300: the sum of squares overflows, the norm does not
        seen = []
        result = run(_cone_config(sigma0=1e150, max_iter=200),
                     cone, callback=lambda obs: seen.append(expected_covariance(obs.state_after)))
        assert result.stop_reason == STOP_MAX_ITER
        for row, cov in zip(result.trace, seen, strict=True):
            assert math.isfinite(row.cov_frobenius_norm)
            assert row.cov_frobenius_norm == pytest.approx(math.hypot(*cov.ravel().tolist()),
                                                           rel=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_mean_raises_prior_degeneracy(self):
        # kappa * mu + n * mu_bar overflows for a start this close to the float range
        with pytest.raises(PriorDegeneracy):
            run(_cone_config(x0=np.array([1e307, 1e307]), max_iter=10), cone)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
    def test_overflowing_scatter_raises_prior_degeneracy(self):
        # the first population's scatter about its weighted mean overflows,
        # so the covariance estimate of summarize is not finite
        with pytest.raises(PriorDegeneracy, match="scatter not finite at iteration 1") as info:
            run(_cone_config(x0=np.array([1.79e308, 1.79e308])), schwefel2)
        assert isinstance(info.value.__cause__, ValueError)

    def test_unrepairable_updated_scale_raises_prior_degeneracy(self, monkeypatch):
        # posterior_update does not factor psi'; the next iteration's repair of
        # the belief covariance is its certificate. This scale has eigenvalues
        # -999 and 1001, beyond the largest jitter (10x the largest diagonal entry).
        def indefinite_update(p, s):
            return replace(posterior_update(p, s), psi=np.array([[1.0, 1e3], [1e3, 1.0]]))

        monkeypatch.setattr(optimizer, "posterior_update", indefinite_update)
        with pytest.raises(PriorDegeneracy, match="iteration 2") as info:
            run(_cone_config(max_iter=5), cone)
        assert isinstance(info.value.__cause__, RepairFailed)


class TestOtherDimensions:
    def test_one_dimensional_run(self):
        cfg = OptimizerConfig(dim=1, x0=np.array([10.0]), seed=2, max_iter=200)
        assert cfg.k == 4
        result = run(cfg, cone)
        assert result.f_best < 0.1
        assert result.n_evals == 4 * result.iterations

    @pytest.mark.parametrize("seed", [3, 5])
    def test_dim40_popsize_below_dim_finishes(self, seed):
        # the covariance estimate is indefinite in most iterations of both
        # runs; its closed-form shift keeps them running
        spec = registry_lookup("cone", 40)
        cfg = OptimizerConfig(dim=40, x0=spec.default_x0, popsize=15, max_iter=300, seed=seed)
        result = run(cfg, spec.fn)
        assert result.stop_reason == STOP_MAX_ITER
        assert result.f_best < spec.fn(spec.default_x0)

    def test_dim100_large_sigma0_finishes(self):
        # at sigma0 = 1e3 every density of the first population underflows to
        # zero; the weights come from the variates and do not
        spec = registry_lookup("cone", 100)
        cfg = OptimizerConfig(dim=100, x0=spec.default_x0, sigma0=1e3, max_iter=10, seed=1)
        seen = []
        result = run(cfg, spec.fn, callback=seen.append)
        first = seen[0]
        factor = np.linalg.cholesky(first.sampled_cov)
        assert not np.any(np.exp(oracles.mvn_logpdf_batch(first.sampled_mean, factor,
                                                          first.points)))
        assert result.stop_reason == STOP_MAX_ITER
        assert result.iterations == 10
        assert np.isfinite(result.f_best)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("function", FUNCTION_NAMES)
    @pytest.mark.parametrize("dim,sigma0", [(100, 1e-4), (10, 1e-35), (3, 1e-150)])
    def test_overflowing_densities_finish(self, dim, sigma0, function):
        # a small sigma0 makes the densities' normalizing constant exceed the
        # float range, so some density of the first population overflows to inf;
        # the weights come from the variates and do not, without a warning
        spec = registry_lookup(function, dim)
        cfg = OptimizerConfig(dim=dim, x0=spec.default_x0, sigma0=sigma0, max_iter=5, seed=1)
        seen = []
        result = run(cfg, spec.fn, callback=seen.append)
        first = seen[0]
        factor = np.linalg.cholesky(first.sampled_cov)
        assert oracles.mvn_logpdf_batch(first.sampled_mean, factor, first.points).max() > 710.0
        assert result.stop_reason in (STOP_CONTROLLER, STOP_MAX_ITER, STOP_VAR_NORM)
        assert result.iterations == len(result.trace) <= 5

    @pytest.mark.parametrize("function", FUNCTION_NAMES)
    @pytest.mark.parametrize("dim", [10, 100])
    def test_documented_regime_finishes(self, dim, function):
        # the default popsize (10 at d=10, 17 at d=100) and the default sigma0
        spec = registry_lookup(function, dim)
        cfg = OptimizerConfig(dim=dim, x0=spec.default_x0, max_iter=150, seed=1)
        result = run(cfg, spec.fn)
        assert result.stop_reason in (STOP_CONTROLLER, STOP_MAX_ITER, STOP_VAR_NORM)
        assert result.iterations == len(result.trace) <= 150
        assert result.f_best < spec.fn(spec.default_x0)

    def test_three_dimensional_run(self):
        cfg = OptimizerConfig(dim=3, x0=np.full(3, 10.0), seed=2, max_iter=400)
        assert cfg.k == 7
        result = run(cfg, cone)
        assert result.f_best < 0.5
        assert result.x_best.shape == (3,)

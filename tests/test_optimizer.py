"""The full optimization loop: budget, determinism, state bookkeeping, stops."""

import functools
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from bcmaes import optimizer
from bcmaes.benchmarks import FUNCTION_NAMES, cone, registry_lookup, schwefel2
from bcmaes.errors import PriorDegeneracy
from bcmaes.linalg import scaled_jitter_eps
from bcmaes.niw import expected_covariance, posterior_update
from bcmaes.optimizer import (
    STOP_CONTROLLER,
    STOP_MAX_ITER,
    STOP_VAR_NORM,
    IterationTrace,
    OptimizerConfig,
    default_popsize,
    init_prior,
    run,
    _evaluate,
)
from bcmaes.rng import RandomSource

import oracles
from _util import spy_factorizations, spy_loop


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
        # N(0, I) in the loop's units: N(x0, sigma0**2 I) in x = x0 + sigma0 * y
        p = init_prior(2)
        assert np.array_equal(p.mu, [0.0, 0.0])
        assert np.array_equal(expected_covariance(p), np.eye(2))

    def test_dim2_hyperparameters(self):
        p = init_prior(2)
        assert p.nu == 5.0
        assert p.kappa == 1.0
        assert np.array_equal(p.psi, 2 * np.eye(2))


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
        ("sigma0", np.nan, "positive and finite"),
        ("sigma0", np.inf, "positive and finite"),
        ("sigma0", 0.0, "positive and finite"),
        ("sigma0", -1.0, "positive and finite"),
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
        ("sigma0", 10**400, "positive and finite"),
        ("x0", [10**400, 10.0], "finite"),
        ("sigma0", None, "positive and finite"),
        ("sigma0", 1j, "positive and finite"),
        ("sigma0", [1.0], "positive and finite"),
        ("x0", [{}, 0], "finite"),
        ("x0", [1 + 1j, 0], "finite"),
        ("x0", np.array([1 + 1j, 0]), "finite"),
        ("sigma0", np.complex128(2 + 1j), "positive and finite"),
        ("sigma0", [[1.0], [1.0, 2.0]], "positive and finite"),
        ("sigma0", "abc", "positive and finite"),
        ("x0", [[1.0], [1.0, 2.0]], "x0 entries must be finite"),
    ], ids=["sigma0-nan", "sigma0-inf", "sigma0-zero", "sigma0-negative", "x0-nan", "x0-inf",
            "dim-float", "dim-negative", "popsize-fraction", "popsize-float", "max_iter-fraction",
            "seed-fraction", "seed-str", "seed-bool", "seed-negative", "seed-too-large",
            "sigma0-int-beyond-float", "x0-int-beyond-float", "sigma0-none", "sigma0-complex",
            "sigma0-list", "x0-dict-entry", "x0-complex-entry", "x0-complex-array",
            "sigma0-numpy-complex", "sigma0-ragged", "sigma0-non-numeric-str", "x0-ragged"])
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma0", [5e-324, 1e-320, 1e-170, 1.3e154, 1e155, 1e308,
                                        np.finfo(float).max],
                             ids=lambda v: f"sigma0-{v:.2g}")
    def test_any_positive_finite_sigma0_accepted_and_run(self, sigma0):
        # the loop runs in units of sigma0, so no scale of it leaves the float
        # range inside the loop; 2 * sigma0**2 once overflowed at 1.3e154 and
        # 1e155 and underflowed at 1e-170, and those configs were refused
        cfg = _cone_config(x0=np.zeros(2), sigma0=sigma0, max_iter=20)
        assert cfg.sigma0 == sigma0
        result = run(cfg, cone)
        assert result.stop_reason == STOP_MAX_ITER
        assert result.iterations == 20

    def test_small_prior_scale_accepted_and_sampled(self):
        # the first sampled covariance is the requested sigma0**2 * I in x, not
        # jitter: I in the loop's units
        with spy_loop() as seen:
            run(_cone_config(sigma0=1e-150, max_iter=1), cone)
        assert np.array_equal(seen[0].sampled_cov, np.eye(2))
        assert np.array_equal(1e-150**2 * seen[0].sampled_cov, 1e-300 * np.eye(2))


class TestEvaluatePopulation:
    def test_direct_values(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert np.array_equal(_evaluate(pts, cone)[0], [0.0, 5.0])

    def test_nan_maps_to_inf(self):
        def objective(x):
            return np.nan if x[0] > 0 else cone(x)

        pts = np.array([[1.0, 0.0], [-3.0, 4.0]])
        fit, n_nan = _evaluate(pts, objective)
        assert fit[0] == np.inf
        assert int(np.argmin(fit)) == 1
        assert n_nan == 1


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
        with spy_factorizations() as spy:
            result = run(_cone_config(max_iter=40), cone)
        assert all(factor is not None for _, _, factor in spy.calls)  # no jitter was added
        assert len(spy.calls) == 2 * result.iterations
        assert spy.numpy["cholesky"] == 0

    @pytest.mark.parametrize("dim,popsize", [(2, None), (10, None), (40, 15)])
    def test_no_search_and_no_projection(self, dim, popsize):
        # one attempt each for the belief's certificate and the covariance
        # estimate, also at d=10 and d=40, where the estimate is indefinite
        # in most iterations: its repair is a closed-form shift, not a jitter
        # search or an eigen-projection
        spec = registry_lookup("cone", dim)
        cfg = OptimizerConfig(dim=dim, x0=spec.default_x0, popsize=popsize, max_iter=60, seed=3)
        with spy_factorizations() as spy:
            result = run(cfg, spec.fn)
        assert result.iterations == 60
        assert len(spy.calls) == 2 * result.iterations
        assert spy.numpy["cholesky"] == 0
        assert spy.numpy["eigh"] == 0

    def test_loop_records_stay_frozen(self):
        rows = []
        with spy_loop() as seen:
            result = run(_cone_config(max_iter=30), cone, callback=rows.append)
        # the trace rows are frozen dataclasses, the belief and the decision named tuples
        records = [result.trace[-1], rows[-1], seen[-1].state_after, seen[-1].decision]
        fields = ("f_best_iter", "event", "psi", "new_sigma_scale")
        errors = (FrozenInstanceError, FrozenInstanceError, AttributeError, AttributeError)
        for record, field, error in zip(records, fields, errors):
            with pytest.raises(error):
                setattr(record, field, None)
            with pytest.raises(error):
                setattr(record, "extra", None)
        assert type(result.trace[-1]).__name__ == "IterationTrace"
        assert isinstance(rows[-1], IterationTrace)


class TestWeights:
    @pytest.mark.parametrize("dim,sigma0", [(2, 1.0), (100, 1e3), (100, 1e-4)])
    def test_weights_are_normalized_densities(self, monkeypatch, dim, sigma0):
        # summarize gets softmax(-|z|**2 / 2) over the variates behind the
        # points, exactly; that is the densities over their sum to rounding.
        # Those of x are the same: x = x0 + sigma0 * y scales every density by
        # sigma0**-d, which cancels, also where the densities in x themselves
        # underflow (sigma0 = 1e3) or overflow (sigma0 = 1e-4)
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


class TestStateConsistency:
    def test_sampling_covariance_is_belief_expectation(self):
        with spy_loop() as seen:
            run(_cone_config(max_iter=60), cone)
        assert len(seen) >= 2
        for prev, cur in zip(seen, seen[1:]):
            expected = expected_covariance(prev.state_after)
            assert np.abs(cur.sampled_cov - expected).max() <= 1e-12
        for obs in seen:
            assert np.array_equal(obs.sampled_mean, obs.state_before.mu)

    def test_first_iteration_mean_is_convex_combination(self):
        cfg = _cone_config(max_iter=1, strategy="s2")
        with spy_loop() as seen:
            run(cfg, cone)
        obs = seen[0]
        fitness = [cone(x) for x in obs.points * cfg.sigma0 + cfg.x0]
        x_best = obs.points[int(np.argmin(fitness))]
        k = cfg.k
        w = k / (1.0 + k)  # kappa0 = 1
        expected = obs.state_before.mu + w * (x_best - obs.state_before.mu)
        assert np.abs(obs.state_after.mu - expected).max() <= 1e-12
        assert 0 < w < 1

    def test_restart_rebuild_scales_from_memorized_covariance(self):
        objective = _RisingObjective()
        with spy_loop() as seen:
            run(_cone_config(max_iter=30, seed=2), objective)
        restart_obs = [o for o in seen if o.decision.restart_point is not None]
        assert len(restart_obs) == 1
        obs = restart_obs[0]
        # only iteration 1 improved, so the memory is the prior covariance I;
        # the rebuild then contracts it by k2 = 0.9
        assert np.array_equal(obs.decision.restart_sigma, np.eye(2))
        after = expected_covariance(obs.state_after)
        assert np.abs(after - 0.9 * np.eye(2)).max() <= 1e-12


class TestCallback:
    @pytest.mark.parametrize("objective,max_iter,stop", [
        (_RisingObjective, 200, STOP_CONTROLLER),
        (lambda: cone, 5, STOP_MAX_ITER),
        (lambda: cone, 1500, STOP_VAR_NORM),
    ], ids=["controller", "max-iter", "var-norm"])
    def test_gets_each_trace_row_once(self, objective, max_iter, stop):
        # the row itself, not a copy, also for the iteration the run stops at
        seen = []
        result = run(_cone_config(seed=2, max_iter=max_iter), objective(), callback=seen.append)
        assert result.stop_reason == stop
        assert len(seen) == result.iterations == len(result.trace)
        assert all(a is b for a, b in zip(seen, result.trace))
        assert [row.iter for row in seen] == list(range(1, result.iterations + 1))

    def test_called_before_the_next_iteration_evaluates(self):
        cfg = _cone_config(max_iter=20)
        log = []

        def objective(x):
            log.append("eval")
            return cone(x)

        result = run(cfg, objective, callback=lambda row: log.append(row.iter))
        assert log == [e for t in range(1, result.iterations + 1) for e in ["eval"] * cfg.k + [t]]

    def test_sees_every_row_built_before_prior_degeneracy(self, monkeypatch):
        # the mean's guard of iteration 3 raises after rows 1 and 2 were built
        def overflowing_update(p, mu_bar, sigma_bar, n_obs):
            q = posterior_update(p, mu_bar, sigma_bar, n_obs)
            if q.nu > p.dim + 3 + n_obs:
                q.mu[0] = np.inf
            return q

        built = []

        def recording(**fields):
            record = IterationTrace(**fields)
            built.append(record)
            return record

        monkeypatch.setattr(optimizer, "posterior_update", overflowing_update)
        monkeypatch.setattr(optimizer, "IterationTrace", recording)
        seen = []
        with pytest.raises(PriorDegeneracy, match="belief mean not finite at iteration 3"):
            run(_cone_config(max_iter=10), cone, callback=seen.append)
        assert [row.iter for row in built] == [1, 2]
        assert len(seen) == len(built) and all(a is b for a, b in zip(seen, built))


@functools.cache
def _unit_cone_run(dim, popsize, seed, max_iter=300):
    """The run of cone from its default start with sigma0 = 1."""
    spec = registry_lookup("cone", dim)
    return run(OptimizerConfig(dim=dim, x0=spec.default_x0, popsize=popsize, max_iter=max_iter,
                               seed=seed), spec.fn)


def _assert_the_unit_run_scaled(result, unit, scale):
    """``result`` is ``unit`` run from ``scale`` times its start with sigma0 = ``scale``.

    Below a scale of about 2**-480 the best cone values take the scaled path
    of its norm, which rounds otherwise than the unit run's, so ``f_best`` is
    checked as cone at the scaled point, not as ``scale * unit.f_best``.
    """
    assert np.array_equal(result.x_best / scale, unit.x_best)
    assert (result.iterations, result.stop_reason) == (unit.iterations, unit.stop_reason)
    assert result.f_best == cone(scale * unit.x_best)


class TestStops:
    def test_controller_terminate(self):
        result = run(_cone_config(max_iter=200), _RisingObjective())
        assert result.stop_reason == STOP_CONTROLLER
        assert result.iterations == 51  # one improving iteration + L5 misses
        assert result.trace[-1].event == "terminate-signal"

    @pytest.mark.parametrize("scale", [1.0, 2.0**-40, 2.0**20, 2.0**-300, 2.0**-460, 2.0**-490,
                                       2.0**-515, 2.0**-1000],
                             ids=["1", "2^-40", "2^20", "2^-300", "2^-460", "2^-490", "2^-515",
                                  "2^-1000"])
    def test_var_norm_stop(self, scale):
        # cone is homogeneous and a power of two scales every step exactly, so
        # the run started at scale * [10, 10] with sigma0 = scale sees the
        # points of the scale-1 run times scale, takes the same steps in the
        # loop's units, and stops at the same iteration; an absolute 1e-12 on
        # the covariance in x stopped the 2^-40 run at iteration 1. From 2^-490
        # the points' squares underflow, so cone scales its entries; at 2^-515
        # a belief in x units fell into the subnormals and stopped at 905
        result = run(_cone_config(x0=scale * np.array([10.0, 10.0]), sigma0=scale, seed=2,
                                  max_iter=1500), cone)
        assert result.stop_reason == STOP_VAR_NORM
        assert result.iterations == 608
        _assert_the_unit_run_scaled(result, _unit_cone_run(2, None, 2, 1500), scale)

    @pytest.mark.parametrize("scale", [2.0**-40, 2.0**-200, 2.0**20, 2.0**-515, 2.0**-1000],
                             ids=["2^-40", "2^-200", "2^20", "2^-515", "2^-1000"])
    @pytest.mark.parametrize("dim,popsize", [(10, None), (40, 15)])
    def test_scaled_run_is_the_unit_run_scaled(self, dim, popsize, scale):
        # as test_var_norm_stop, at dimensions where the covariance estimate
        # is indefinite in most iterations and takes its closed-form shift
        for seed in (1, 2, 3):
            spec = registry_lookup("cone", dim)
            cfg = OptimizerConfig(dim=dim, x0=scale * spec.default_x0, sigma0=scale,
                                  popsize=popsize, max_iter=300, seed=seed)
            _assert_the_unit_run_scaled(run(cfg, spec.fn), _unit_cone_run(dim, popsize, seed),
                                        scale)

    @pytest.mark.parametrize("sigma0", [1e-9, 1e-7, 1e-6])
    def test_var_norm_tol_is_relative_to_sigma0(self, sigma0):
        # their first expected covariance in x has a norm of about sigma0**2, so
        # a tolerance of 1e-12 in x, not in units of sigma0, stops them at once
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

    def test_certificate_jitters_at_most_once(self, monkeypatch):
        # an update whose expected covariance is exactly singular, [[1, 1], [1, 1]]:
        # each certificate after the prior's factors it once more, with one jitter
        def singular_update(p, mu_bar, sigma_bar, n_obs):
            q = posterior_update(p, mu_bar, sigma_bar, n_obs)
            return q._replace(psi=(q.nu - 3) * np.ones((2, 2)))

        monkeypatch.setattr(optimizer, "posterior_update", singular_update)
        certificates = []
        with spy_factorizations() as spy:
            real = optimizer.spd_repair

            def recording(m):
                start = len(spy.calls)
                out = real(m)
                certificates.append((m, out, spy.calls[start:]))
                return out

            monkeypatch.setattr(optimizer, "spd_repair", recording)
            for function in FUNCTION_NAMES:
                bench = registry_lookup(function, 2)
                run(OptimizerConfig(dim=2, x0=bench.default_x0, seed=1, max_iter=20), bench.fn)
        assert len(certificates) == 4 * 20
        jittered = 0
        for m, (out, chol), calls in certificates:
            assert calls[0][0] is m
            if calls[0][2] is not None:
                assert len(calls) == 1 and out is m
                continue
            jittered += 1
            assert len(calls) == 2
            want = m + scaled_jitter_eps(m) * np.eye(2)
            assert np.array_equal(calls[1][1], want) and calls[1][2] is not None
            assert np.array_equal(out, want) and chol is calls[1][2]
        assert jittered == 4 * 19

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
        def overflowed_update(p, mu_bar, sigma_bar, n_obs):
            q = posterior_update(p, mu_bar, sigma_bar, n_obs)
            q.psi[0, 0] = np.inf
            return q

        monkeypatch.setattr(optimizer, "posterior_update", overflowed_update)
        with pytest.raises(PriorDegeneracy, match="iteration 2") as info:
            run(_cone_config(max_iter=5), cone)
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_scale_raises_prior_degeneracy(self, monkeypatch):
        # the certificate's guard, with an injected fault: psi' overflows in the
        # conjugate update of iteration 3, which builds it unchecked; the belief
        # repair of iteration 4 rejects it, and the loop warns of nothing first
        def overflowing_update(p, mu_bar, sigma_bar, n_obs):
            q = posterior_update(p, mu_bar, sigma_bar, n_obs)
            if q.nu > p.dim + 3 + 2 * n_obs:
                np.multiply(q.psi, 1e308, out=q.psi)
            return q

        monkeypatch.setattr(optimizer, "posterior_update", overflowing_update)
        with pytest.raises(PriorDegeneracy, match="belief covariance degenerate at iteration 4") \
                as info:
            run(_cone_config(max_iter=60), cone)
        assert str(info.value.__cause__) == "matrix entries must be finite"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_scatter_of_a_quiet_objective_raises_without_warning(self, monkeypatch):
        # |x_1| does not overflow; the population scatter about its weighted
        # mean does, with the variates behind the first population scaled to 1e300
        real = optimizer._sample
        monkeypatch.setattr(optimizer, "_sample",
                            lambda mean, chol, k, rng: real(mean, 1e300 * chol, k, rng))
        with pytest.raises(PriorDegeneracy, match="scatter not finite at iteration 1"):
            run(_cone_config(), lambda x: abs(float(x[0])))

    def test_objective_warnings_still_surface(self):
        def loud(x):
            np.float64(1e300) * np.float64(1e300)  # numpy warns of this overflow
            return cone(x)

        def loud_callback(row):
            np.float64(1e300) * np.float64(1e300)

        with pytest.warns(RuntimeWarning, match="overflow"):
            run(_cone_config(max_iter=1), loud)
        with pytest.warns(RuntimeWarning, match="overflow"):
            run(_cone_config(max_iter=1), cone, callback=loud_callback)

    def test_objective_exception_propagates_unchanged(self):
        error = ZeroDivisionError("seventh point")
        calls = []

        def failing(x):
            calls.append(x)
            if len(calls) == 7:
                raise error
            return cone(x)

        with pytest.raises(ZeroDivisionError) as info:
            run(_cone_config(max_iter=5), failing)
        assert info.value is error
        assert len(calls) == 7

    def test_callback_exception_propagates_unchanged(self):
        error = KeyError("callback")

        def callback(row):
            raise error

        with pytest.raises(KeyError) as info:
            run(_cone_config(max_iter=5), cone, callback=callback)
        assert info.value is error

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_covariance_has_finite_norm(self):
        # the covariance in x, sigma0**2 times the loop's, has entries near 1e300:
        # its sum of squares overflows, the reported norm does not
        with spy_loop() as seen:
            result = run(_cone_config(sigma0=1e150, max_iter=200), cone)
        assert result.stop_reason == STOP_MAX_ITER
        covs = [expected_covariance(obs.state_after) for obs in seen]
        for row, cov in zip(result.trace, covs, strict=True):
            assert math.isfinite(row.cov_frobenius_norm)
            assert row.cov_frobenius_norm == pytest.approx(
                1e300 * math.hypot(*cov.ravel().tolist()), rel=1e-15)

    def test_overflowing_mean_raises_prior_degeneracy(self, monkeypatch):
        # the mean's guard, with an injected fault: kappa * mu + n * mu_bar
        # overflows in the conjugate update of iteration 2
        def overflowing_update(p, mu_bar, sigma_bar, n_obs):
            q = posterior_update(p, mu_bar, sigma_bar, n_obs)
            if q.nu > p.dim + 3 + n_obs:
                q.mu[0] = np.inf
            return q

        monkeypatch.setattr(optimizer, "posterior_update", overflowing_update)
        with pytest.raises(PriorDegeneracy, match="belief mean not finite at iteration 3"):
            run(_cone_config(max_iter=10), cone)

    def test_overflowing_scatter_raises_prior_degeneracy(self, monkeypatch):
        # the scatter's guard, with an injected fault: summarize's covariance
        # estimate is not finite at iteration 2, and its ValueError is the cause
        real = optimizer.summarize

        def overflowing_summarize(points, fitness, weights, mean, cov, strategy):
            if np.any(mean):  # the prior mean is 0, so iteration 2 on
                points = points * 1e300
            return real(points, fitness, weights, mean, cov, strategy)

        monkeypatch.setattr(optimizer, "summarize", overflowing_summarize)
        with pytest.raises(PriorDegeneracy, match="scatter not finite at iteration 2") as info:
            run(_cone_config(), schwefel2)
        assert str(info.value.__cause__) == "covariance estimate entries must be finite"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma0,x0,function", [
        (1e153, [10.0, 10.0], "cone"),
        (1.0, [1e307, 1e307], "cone"),
        (1.0, [1e307, -1e307], "first-coordinate"),
        (1.0, [1.79e308, 1.79e308], "schwefel2"),
    ], ids=["sigma0-1e153", "start-1e307", "start-1e307-mixed", "start-1.79e308"])
    def test_former_overflows_finish(self, sigma0, x0, function):
        # a belief in x units overflowed on each of these: its scale at sigma0 =
        # 1e153, its mean near 1e307, its scatter at 1.79e308. In the loop's
        # units they run; what reaches the float range is x, which the
        # objective sees, here under its own errstate
        fn = (lambda x: abs(float(x[0]))) if function == "first-coordinate" else \
            registry_lookup(function, 2).fn

        def quiet(x):
            with np.errstate(all="ignore"):
                return fn(x)

        result = run(_cone_config(x0=np.array(x0), sigma0=sigma0, max_iter=60), quiet)
        assert result.stop_reason in (STOP_CONTROLLER, STOP_MAX_ITER, STOP_VAR_NORM)
        assert result.iterations == len(result.trace) <= 60

    def test_unrepairable_updated_scale_raises_prior_degeneracy(self, monkeypatch):
        # posterior_update does not factor psi'; the next iteration's repair of
        # the belief covariance is its certificate. This scale has eigenvalues
        # -999 and 1001: indefinite, so the certificate's one jitter does not help.
        def indefinite_update(p, mu_bar, sigma_bar, n_obs):
            q = posterior_update(p, mu_bar, sigma_bar, n_obs)
            return q._replace(psi=np.array([[1.0, 1e3], [1e3, 1.0]]))

        monkeypatch.setattr(optimizer, "posterior_update", indefinite_update)
        with pytest.raises(PriorDegeneracy, match="iteration 2") as info:
            run(_cone_config(max_iter=5), cone)
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__).startswith("matrix not positive definite")


def _x_log_densities(obs, sigma0):
    """Log-densities of a spied iteration's points in x, under N(x0 + sigma0 * mean, sigma0**2 * cov).

    ``x = x0 + sigma0 * y`` scales the density of ``y`` by ``sigma0**-d``,
    which is the log-determinant of ``sigma0**2 * cov`` less that of ``cov``.
    """
    factor = np.linalg.cholesky(obs.sampled_cov)
    logp = oracles.mvn_logpdf_batch(obs.sampled_mean, factor, obs.points)
    return logp - obs.points.shape[1] * math.log(sigma0)


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
        # at sigma0 = 1e3 every density in x of the first population underflows
        # to zero; the weights come from the variates and do not
        spec = registry_lookup("cone", 100)
        cfg = OptimizerConfig(dim=100, x0=spec.default_x0, sigma0=1e3, max_iter=10, seed=1)
        with spy_loop() as seen:
            result = run(cfg, spec.fn)
        assert not np.any(np.exp(_x_log_densities(seen[0], 1e3)))
        assert result.stop_reason == STOP_MAX_ITER
        assert result.iterations == 10
        assert np.isfinite(result.f_best)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("function", FUNCTION_NAMES)
    @pytest.mark.parametrize("dim,sigma0", [(100, 1e-4), (10, 1e-35), (3, 1e-150)])
    def test_overflowing_densities_finish(self, dim, sigma0, function):
        # a small sigma0 makes the normalizing constant of the densities in x
        # exceed the float range, so some density of the first population
        # overflows to inf; the weights come from the variates and do not,
        # without a warning
        spec = registry_lookup(function, dim)
        cfg = OptimizerConfig(dim=dim, x0=spec.default_x0, sigma0=sigma0, max_iter=5, seed=1)
        with spy_loop() as seen:
            result = run(cfg, spec.fn)
        assert _x_log_densities(seen[0], sigma0).max() > 710.0
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

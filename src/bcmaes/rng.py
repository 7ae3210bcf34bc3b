"""Seeded random source with a frozen, documented variate pipeline.

Reproducibility contract: a given 64-bit seed yields the same stream of
standard-normal variates on every platform and every run.  The pipeline is
fixed for the lifetime of the repository:

1. raw 64-bit integers come from the PCG64 bit generator (a permuted
   congruential generator whose raw stream numpy guarantees stable);
2. each raw word maps to a uniform in (0, 1) via the top 53 bits,
   ``u = (raw >> 11 + 0.5) * 2**-53``, which can never return 0 or 1;
3. normals are the inverse normal CDF of those uniforms (Wichura's AS 241
   algorithm, exposed as ``scipy.special.ndtri``).

One raw word is consumed per normal variate, so consumers can reason
exactly about stream positions.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_U64_SHIFT = np.uint64(11)
_U53_SCALE = 2.0**-53


class RandomSource:
    """Deterministic generator of standard-normal variates.

    Parameters
    ----------
    seed : int
        Unsigned 64-bit seed. Equal seeds produce bit-identical streams.
    """

    def __init__(self, seed: int):
        if not (0 <= int(seed) < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        self.seed = int(seed)
        self._bits = np.random.PCG64(self.seed)

    def standard_normals(self, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. standard-normal variates, consuming ``n`` raw words."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n == 0:
            return np.empty(0)
        u = (self._bits.random_raw(n) >> _U64_SHIFT).astype(np.float64)
        u += 0.5
        u *= _U53_SCALE
        return ndtri(u, out=u)

"""Seeded random source with a frozen, documented variate pipeline.

Reproducibility contract: a given 64-bit seed yields the same stream of
standard-normal variates on every run, and on every machine whose C library
computes the same ``log``: step 3 takes two logarithms from libm, which
picks its kernel by CPU, so a host where it picks another can give other
bits for some variates. The pipeline is fixed for the lifetime of the
repository:

1. raw 64-bit integers come from the PCG64 bit generator (a permuted
   congruential generator whose raw stream numpy guarantees stable);
2. each raw word maps to a uniform in (0, 1) via the top 53 bits,
   ``u = ((raw >> 11) + 0.5) * 2**-53``, which is never 0. It is 1 for the
   largest top-53-bit value, ``2**53 - 1``, where adding 0.5 rounds up, so
   about one word in ``2**53`` yields the normal ``+inf``;
3. normals are the inverse normal CDF of those uniforms, computed by Cephes'
   ``ndtri`` (Moshier, *Methods and Programs for Mathematical Functions*,
   1989), the algorithm behind ``scipy.special.ndtri``, ported here to numpy
   with the same bits: its rational approximations are evaluated in the same
   order, and the two tail logarithms are libm's ``log`` through
   :func:`math.log`. numpy's own ``log`` is a different implementation that
   differs from libm in the last bit of a few values per thousand, so it is
   never used here.

One raw word is consumed per normal variate, so consumers can reason
exactly about stream positions. The port costs numpy dispatch per call, so
the source converts ``_BLOCK`` words at a time and hands out slices of the
block; a draw that crosses a block's end joins the old block's tail to the
new block's head. The stream does not depend on how it is cut into draws.
"""

from __future__ import annotations

import math

import numpy as np

_U64_SHIFT = np.uint64(11)
_U53_SCALE = 2.0**-53
# Raw words converted per refill. A refill costs about 100 ns per word, so
# it is a spike inside one iteration: at d=40 and popsize 15 (600 words an
# iteration) one iteration in 27 pays it, and a run wastes at most one block.
_BLOCK = 16384

# Cephes ndtri: u in (exp(-2), 1 - exp(-2)) takes y + y * y2 * P0(y2) / Q0(y2)
# with y = u - 0.5; the tails take x = sqrt(-2 log y), y = min(u, 1 - u), and
# subtract z * P(z) / Q(z), z = 1 / x, with (P1, Q1) for x < 8 and (P2, Q2)
# beyond. Each Q has an implicit leading coefficient 1.
_EXP_M2 = 0.13533528323661269189
_ONE_MINUS_EXP_M2 = 1.0 - _EXP_M2
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes ``polevl``: Horner from the leading coefficient, into a new array."""
    a = coef[0] * x
    a += coef[1]
    for c in coef[2:]:
        a *= x
        a += c
    return a


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes ``p1evl``: :func:`_polevl` with an implicit leading coefficient 1."""
    a = x + coef[0]
    for c in coef[1:]:
        a *= x
        a += c
    return a


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The inverse normal CDF of a float64 array in [0, 1], with the bits of Cephes ``ndtri``.

    Every entry is first run through the central approximation; the tail
    entries (about 27% of uniforms) are then recomputed from one index array.
    The flip ``1 - u`` is exact for ``u > 1 - exp(-2)``, and its result lies
    below ``exp(-2)``, so a flipped entry is always a tail entry.
    """
    y = u - 0.5
    y2 = y * y
    x = _polevl(y2, _P0)
    x *= y2
    x /= _p1evl(y2, _Q0)
    x *= y
    x += y
    x *= _S2PI
    upper = u > _ONE_MINUS_EXP_M2
    tail = np.flatnonzero(upper | (u <= _EXP_M2))
    if tail.size:
        up = upper[tail]
        yt = u[tail]
        np.subtract(1.0, yt, out=yt, where=up)
        try:
            r = np.fromiter(map(math.log, yt.tolist()), float, tail.size)
        except ValueError:  # log(0): some u is 0 or 1, where ndtri is -inf or +inf
            ends = (u == 0.0) | (u == 1.0)
            x = _ndtri(np.where(ends, 0.5, u))
            x[ends] = np.copysign(np.inf, u[ends] - 0.5)
            return x
        r *= -2.0
        np.sqrt(r, out=r)
        t = np.fromiter(map(math.log, r.tolist()), float, tail.size)
        t /= r
        np.subtract(r, t, out=t)
        z = 1.0 / r
        x1 = _polevl(z, _P1)
        x1 *= z
        x1 /= _p1evl(z, _Q1)
        far = np.flatnonzero(r >= 8.0)  # u < exp(-32): about 3e-14 of uniforms
        if far.size:
            zf = z[far]
            x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
        t -= x1
        np.negative(t, out=t, where=~up)
        x[tail] = t
    return x


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
        self._block = np.empty(0)
        self._pos = 0

    def standard_normals(self, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. standard-normal variates, consuming ``n`` raw words.

        The result may be a view of the source's current block. Each refill
        allocates a new block, so a result never changes after later draws.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        start = self._pos
        stop = start + n
        block = self._block
        if stop <= block.size:
            self._pos = stop
            return block[start:stop]
        short = stop - block.size
        # whole blocks, enough to cover a draw longer than one
        u = (self._bits.random_raw(-(-short // _BLOCK) * _BLOCK) >> _U64_SHIFT).astype(np.float64)
        u += 0.5
        u *= _U53_SCALE
        self._block = _ndtri(u)
        self._pos = short
        return np.concatenate((block[start:], self._block[:short]))

#!/usr/bin/env python3
"""Check the variate stream's numpy ndtri against scipy.special.ndtri, bit for bit.

Draws N variates from ``RandomSource(seed)`` in chunks and compares each
with scipy's compiled Cephes ``ndtri`` of the same uniforms, rebuilt from a
second PCG64 of the same seed. Then compares the port on an edge set: the
extremes of the uniform map (the top raw word maps to u = 1), both exp(-2)
branch points and exp(-32), each one and two ulps either side, and values
deep in the x >= 8 tail. Prints the counts and exits 1 on any mismatch.
scipy comes with the ``test`` extra.

Usage:
    PYTHONPATH=src python scripts/check_ndtri.py N [--seed 1]
"""

import argparse
import math
import sys
import time

import numpy as np
from scipy.special import ndtri

from bcmaes.rng import RandomSource, _ndtri

CHUNK = 1_000_000


def uniforms(raw: np.ndarray) -> np.ndarray:
    """The stream's map from raw words to uniforms: top 53 bits, plus a half, over 2**53."""
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def edge_uniforms() -> np.ndarray:
    top = 2**64 - 1
    raw = np.array([0, 1, 2**11 - 1, 2**11, 2**63, top, top - 2**11, top - 2**12],
                   dtype=np.uint64)
    centres = [math.exp(-2.0), 1.0 - math.exp(-2.0), 0.13533528323661269189,
               math.exp(-32.0), 1.0 - math.exp(-32.0), 0.5]
    near = []
    for c in centres:
        lo = hi = c
        for _ in range(2):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
            near += [lo, hi]
    deep = [1e-15, 1e-100, 1e-300, 5e-324, 1.0 - 2.0**-53, 0.0, 1.0]
    return np.concatenate([uniforms(raw), centres, near, deep])


def mismatches(got: np.ndarray, want: np.ndarray) -> int:
    return int((got.view(np.uint64) != want.view(np.uint64)).sum())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("n", type=int, help="stream variates to compare")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.n < 0:
        parser.error("N must be nonnegative")

    start = time.perf_counter()
    stream, bits = RandomSource(args.seed), np.random.PCG64(args.seed)
    bad = far = 0
    for lo in range(0, args.n, CHUNK):
        m = min(CHUNK, args.n - lo)
        u = uniforms(bits.random_raw(m))
        bad += mismatches(stream.standard_normals(m), ndtri(u))
        far += int((np.minimum(u, 1.0 - u) < math.exp(-32.0)).sum())
    print(f"stream: {args.n} variates of seed {args.seed}, {bad} mismatches "
          f"({far} in the x >= 8 branch), {time.perf_counter() - start:.1f} s")
    u = edge_uniforms()
    edge_bad = mismatches(_ndtri(u), ndtri(u))
    print(f"edges: {u.size} values, {edge_bad} mismatches")
    return 1 if bad or edge_bad else 0


if __name__ == "__main__":
    sys.exit(main())

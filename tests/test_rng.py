"""The seeded variate stream: determinism, distribution shape, frozen values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcmaes.rng import _BLOCK, RandomSource, _ndtri

import oracles

# First draws for seed 42 under the frozen pipeline (PCG64 raw -> top-53-bit
# uniform -> inverse normal CDF). These must never change.
GOLDEN_SEED42 = [
    0.7519387345650749,
    -0.15381338528610264,
    1.0740413253833196,
    0.5168456046647117,
]


def _bits(a: np.ndarray) -> list[int]:
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


def test_same_seed_bit_identical():
    a = RandomSource(42).standard_normals(1000)
    b = RandomSource(42).standard_normals(1000)
    assert np.array_equal(a, b)


def test_golden_values_frozen():
    got = RandomSource(42).standard_normals(4)
    assert got.tolist() == GOLDEN_SEED42


def test_different_seeds_differ():
    a = RandomSource(1).standard_normals(100)
    b = RandomSource(2).standard_normals(100)
    assert not np.array_equal(a, b)


def test_stream_position_is_exact():
    # drawing 4 then 4 equals drawing 8 in one go
    r1 = RandomSource(7)
    first = np.concatenate([r1.standard_normals(4), r1.standard_normals(4)])
    second = RandomSource(7).standard_normals(8)
    assert np.array_equal(first, second)


def test_moments_roughly_standard():
    z = RandomSource(3).standard_normals(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    assert np.all(np.isfinite(z))


def test_seed_range_validated():
    with pytest.raises(ValueError):
        RandomSource(-1)
    with pytest.raises(ValueError):
        RandomSource(2**64)
    RandomSource(2**64 - 1).standard_normals(2)


def test_zero_draws():
    assert RandomSource(0).standard_normals(0).shape == (0,)
    with pytest.raises(ValueError):
        RandomSource(0).standard_normals(-1)


def test_stream_bits_equal_the_oracle():
    n = 10**6
    got = RandomSource(2024).standard_normals(n)
    want = oracles.ndtri(oracles.stream_uniforms(np.random.PCG64(2024).random_raw(n)))
    assert _bits(got) == _bits(want)


def _edge_uniforms() -> np.ndarray:
    exp_m2, exp_m32 = math.exp(-2.0), math.exp(-32.0)
    top = 2**64 - 1
    # the map's extremes, including the top word that rounds up to u = 1
    raw = [0, 1, 2**11 - 1, 2**11, 2**12, 2**63, 2**63 - 2**11,
           top, top - 2**11, top - 2**12, top - 2**13]
    centres = [exp_m2, 1.0 - exp_m2, 0.13533528323661269189, exp_m32, 1.0 - exp_m32, 0.5]
    neighbours = []  # one and two ulps either side
    for c in centres:
        lo = hi = c
        for _ in range(2):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
            neighbours += [lo, hi]
    deep = [1e-15, 1e-20, 1e-100, 1e-300, 2.2250738585072014e-308, 5e-324,
            1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 - 1e-15]
    return np.concatenate([oracles.stream_uniforms(raw), centres, neighbours, deep,
                           [0.0, 1.0]])


def test_edge_values_equal_the_oracle():
    u = _edge_uniforms()
    # x = sqrt(-2 log y) >= 8 is Cephes' third branch: y = min(u, 1 - u) < exp(-32)
    assert (np.minimum(u, 1.0 - u) < math.exp(-32.0)).sum() >= 10
    assert _bits(_ndtri(u)) == _bits(oracles.ndtri(u))


def test_sweeps_equal_the_oracle():
    # every branch across (0, 1), and a geometric sweep through the x >= 8 tail
    lin = np.linspace(0.0, 1.0, 200_001)
    geo = np.geomspace(5e-324, math.exp(-30.0), 20_000)
    u = np.concatenate([lin, geo, 1.0 - geo])
    assert _bits(_ndtri(u)) == _bits(oracles.ndtri(u))


def test_ndtri_leaves_its_input_unchanged():
    u = _edge_uniforms()
    before = u.copy()
    _ndtri(u)
    assert _bits(u) == _bits(before)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    sizes=st.lists(st.one_of(st.integers(min_value=0, max_value=40),
                             st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5])),
                   max_size=8),
)
def test_any_split_equals_one_draw(seed, sizes):
    rs = RandomSource(seed)
    pieces = [rs.standard_normals(n) for n in sizes]
    assert [p.shape for p in pieces] == [(n,) for n in sizes]
    whole = RandomSource(seed).standard_normals(sum(sizes))
    assert _bits(np.concatenate([np.empty(0), *pieces])) == _bits(whole)


def test_earlier_draws_unchanged_by_later_draws():
    rs = RandomSource(5)
    inside = rs.standard_normals(10)
    crossing = rs.standard_normals(_BLOCK)  # ends past the first block
    kept = [inside.copy(), crossing.copy()]
    for n in (3, _BLOCK, 2 * _BLOCK + 1, 7):
        rs.standard_normals(n)
    assert _bits(inside) == _bits(kept[0])
    assert _bits(crossing) == _bits(kept[1])

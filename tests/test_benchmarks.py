"""The four benchmark objectives and their registry."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcmaes.benchmarks import (
    FUNCTION_NAMES,
    cone,
    rastrigin,
    registry_lookup,
    schwefel1,
    schwefel2,
)
from bcmaes.errors import UnknownFunction

import oracles


class TestCone:
    def test_minimum_at_origin(self):
        assert cone([0.0, 0.0]) == 0.0

    def test_pythagorean_triple(self):
        assert cone([3.0, 4.0]) == 5.0

    def test_start_point_value(self):
        assert cone([10.0, 10.0]) == pytest.approx(14.142135623730951, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_scaled_where_the_squares_leave_the_float_range(self):
        # the squares underflow to 0, or overflow to inf, without the scaling;
        # neither warns
        assert cone([1e-170, 1e-170]) == pytest.approx(math.sqrt(2) * 1e-170, rel=1e-15, abs=0)
        assert cone([1e200, 1e200]) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)


class TestSchwefel2:
    def test_origin(self):
        assert schwefel2([0.0, 0.0]) == 0.0

    def test_sum_plus_product(self):
        assert schwefel2([1.0, 2.0]) == 5.0

    def test_even_in_each_coordinate(self):
        assert schwefel2([-1.0, -2.0]) == 5.0

    def test_product_overflow_is_silent(self):
        # at d = 100 the product of coordinates 1e5 exceeds the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert schwefel2(np.full(100, 1e5)) == np.inf


class TestRastrigin:
    def test_origin(self):
        assert rastrigin([0.0, 0.0]) == 0.0

    def test_unit_point(self):
        assert rastrigin([1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_half_point(self):
        # 20 + (0.25 + 10) + (0 - 10), the cos(pi) coordinate contributing 10.25
        assert rastrigin([0.5, 0.0]) == pytest.approx(20.25, abs=1e-12)


class TestSchwefel1:
    def test_near_minimizer_1d(self):
        assert schwefel1([420.9687]) == pytest.approx(0.0, abs=1e-3)
        assert schwefel1([420.9687]) == pytest.approx(1.2727837493413814e-05, rel=1e-9)

    def test_start_point_value(self):
        val = schwefel1([400.0, 400.0])
        assert val == pytest.approx(107.60959941789788, rel=1e-12)
        assert np.isfinite(val) and val > 0

    def test_indicator_boundary(self):
        at_clamp = schwefel1([500.0])
        just_inside = schwefel1([500.0 - 1e-9])
        assert at_clamp == pytest.approx(599.5720585313912, rel=1e-12)
        assert just_inside == pytest.approx(599.5720585206044, rel=1e-12)
        assert at_clamp != just_inside

    def test_clamped_beyond_500(self):
        assert schwefel1([600.0]) == schwefel1([500.0])
        assert schwefel1([5000.0]) == schwefel1([500.0])


class TestProperties:
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=5),
        st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_sign_symmetry(self, xs, flips):
        x = np.array(xs)
        signs = np.array([-1.0 if f else 1.0 for f in flips[: len(xs)]])
        for fn in (cone, schwefel2, rastrigin):
            assert abs(fn(x) - fn(signs * x)) <= 1e-12 * max(1.0, abs(fn(x)))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=6))
    def test_nonnegative(self, xs):
        x = np.array(xs)
        assert cone(x) >= 0
        assert schwefel2(x) >= 0
        assert rastrigin(x) >= -1e-12

    def test_rastrigin_zero_padding_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-5, 5, size=3)
            assert rastrigin(np.append(x, 0.0)) == pytest.approx(rastrigin(x), rel=1e-14)

    def test_schwefel1_zero_padding_increment(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(-500, 500, size=2)
            inc = schwefel1(np.append(x, 0.0)) - schwefel1(x)
            assert inc == pytest.approx(418.9829, abs=1e-9)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
    def test_finite_on_finite_inputs(self, xs):
        x = np.array(xs)
        for fn in (cone, schwefel2, rastrigin, schwefel1):
            assert np.isfinite(fn(x))


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


class TestBitEqualToNumpyExpressions:
    """The objectives give the bits of the plain numpy expressions in tests/oracles.py."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=400, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 10, 40, 100]),
        log_scale=st.floats(min_value=-8.0, max_value=8.0),
        zero_frac=st.sampled_from([0.0, 0.1]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # the product overflows to inf; with zeros, inf * 0 gives NaN
    @example(d=100, log_scale=8.0, zero_frac=0.0, seed=0)
    @example(d=100, log_scale=8.0, zero_frac=0.1, seed=130)
    def test_same_bits(self, d, log_scale, zero_frac, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=d) * 10.0**log_scale
        x[rng.random(d) < zero_frac] = 0.0
        # schwefel2 runs under the error filter: its product overflow must be silent
        assert _bits(schwefel2(x)) == _bits(oracles.schwefel2(x))
        assert _bits(cone(x)) == _bits(oracles.cone(x))
        assert _bits(rastrigin(x)) == _bits(oracles.rastrigin(x))
        assert _bits(schwefel1(x)) == _bits(oracles.schwefel1(x))

    @pytest.mark.parametrize("x", [
        [400.0, -400.0],
        [499.99, -3.0, 0.0],
        [np.nextafter(500.0, 0.0), -np.nextafter(500.0, 0.0)],
        [500.0, 12.5],
        [-500.0, -500.0],
        [600.0, 420.9687, -1e9],
        [np.nan, 420.9687],
    ], ids=["inside", "inside-0", "inside-last-float", "at-500", "at-minus-500", "beyond",
            "nan"])
    def test_schwefel1_straddles_the_clamp(self, x):
        # the clamp's where runs only when some |x_i| >= 500 or is NaN: both branches
        # must give the bits of the plain expression
        x = np.array(x)
        assert _bits(schwefel1(x)) == _bits(oracles.schwefel1(x))

    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.floats(-501.0, 501.0), min_size=1, max_size=12))
    def test_schwefel1_same_bits_around_the_clamp(self, xs):
        x = np.array(xs)
        assert _bits(schwefel1(x)) == _bits(oracles.schwefel1(x))


class TestRegistry:
    def test_cone_entry(self):
        spec = registry_lookup("cone", 2)
        assert np.array_equal(spec.default_x0, [10.0, 10.0])
        assert spec.global_min_value == 0.0
        assert np.array_equal(spec.global_min_point, np.zeros(2))

    def test_schwefel1_entry(self):
        spec = registry_lookup("schwefel1", 2)
        assert np.array_equal(spec.default_x0, [400.0, 400.0])
        assert spec.global_min_value == pytest.approx(2.5455674986827627e-05, rel=1e-9)

    def test_min_point_evaluates_to_min_value(self):
        for name in FUNCTION_NAMES:
            for dim in (1, 2, 4):
                spec = registry_lookup(name, dim)
                assert spec.fn(spec.global_min_point) == pytest.approx(
                    spec.global_min_value, abs=1e-6
                )

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            registry_lookup("foo", 2)

    @pytest.mark.parametrize("dim", [2.0, True, "2", None], ids=["float", "bool", "str", "none"])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be an integer"):
            registry_lookup("cone", dim)

    def test_numpy_integer_dim_stored_as_int(self):
        spec = registry_lookup("cone", np.int64(2))
        assert type(spec.dim) is int and spec.dim == 2
        assert np.array_equal(spec.default_x0, [10.0, 10.0])

    def test_higher_dim_start_points_extended(self):
        assert np.array_equal(registry_lookup("rastrigin", 4).default_x0, np.full(4, 10.0))
        assert np.array_equal(registry_lookup("schwefel1", 3).default_x0, np.full(3, 400.0))

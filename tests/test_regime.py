"""The regime contract, as one property: every run finishes with a stop reason or raises only
``PriorDegeneracy``, and a config the run cannot take is refused with ``ValueError``.

The configs span the documented regime: d up to 100, popsize from 2 to 2d
or the default, any sigma0 scale, starts far from the origin, both mean
strategies, and objectives that return NaN at any rate. The objectives
evaluate under ``np.errstate(all="ignore")``, so a numpy warning the run
raises comes from the loop itself.
"""

import math
import warnings
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bcmaes import OptimizerConfig, PriorDegeneracy, registry_lookup, run
from bcmaes.benchmarks import FUNCTION_NAMES
from bcmaes.optimizer import STOP_CONTROLLER, STOP_MAX_ITER, STOP_VAR_NORM

from _util import load_script

digest = load_script("calibrate_convergence").digest

# binary exponents of sigma0, over the whole positive finite range, and of the start's
# scale, whose entries reach about 1e307
SIGMA0_EXPONENTS = (-1074, 1023)
START_EXPONENTS = (-60, 1016)


def _objective(fn, nan_rate):
    """``fn`` returning NaN at a point-determined rate, with numpy's warnings off."""
    def objective(x):
        with np.errstate(all="ignore"):
            if zlib.crc32(x.tobytes()) < nan_rate * 2**32:
                return math.nan
            return fn(x)
    return objective


@st.composite
def configs(draw):
    dim = draw(st.sampled_from([1, 2, 3, 5, 10, 17, 40, 100]))
    start = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)))
    return dict(
        dim=dim,
        x0=start * math.ldexp(1.0, draw(st.integers(*START_EXPONENTS))),
        sigma0=math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)),
                          draw(st.integers(*SIGMA0_EXPONENTS))),
        popsize=draw(st.none() | st.integers(2, 2 * dim)),
        max_iter=draw(st.sampled_from([1, 10, 60] if dim < 10 else [1, 10])),
        strategy=draw(st.sampled_from(["s1", "s2"])),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kw=configs(), function=st.sampled_from(FUNCTION_NAMES),
       nan_rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_every_run_finishes_or_raises_prior_degeneracy(kw, function, nan_rate):
    try:
        config = OptimizerConfig(**kw)
    except ValueError:
        return  # refused at the boundary, before any run
    objective = _objective(registry_lookup(function, config.dim).fn, nan_rate)
    outcomes = []
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outcomes.append(run(config, objective))
            except PriorDegeneracy as exc:
                outcomes.append(exc)
        assert not caught, [str(w.message) for w in caught]
    result = outcomes[0]
    assert digest(result) == digest(outcomes[1])
    if isinstance(result, PriorDegeneracy):
        return
    assert result.stop_reason in (STOP_CONTROLLER, STOP_MAX_ITER, STOP_VAR_NORM)
    assert result.iterations == len(result.trace) <= config.max_iter
    assert result.n_evals == config.k * result.iterations

"""Golden trajectories: runs must keep the bits pinned in ``golden_traces.json``.

The fixture holds two kinds of digest:

- ``csv``: the SHA-256 of every trace CSV that
  ``bcmaes --function F --strategy S --seed 4 --seed 5 --seed 7 --seed 12
  --seed 13 --max-iter B`` writes at d=2, for both mean strategies, at the
  acceptance criterion 7 budgets.
- ``full``: the SHA-256 of a whole run, every ``IterationTrace`` field with
  floats as ``float.hex`` plus ``x_best``, ``f_best`` and the stop reason, for
  d=10 and for d=40 with popsize 15 < d. Those runs climb the jitter ladder
  and take the cone projection, which the d=2 runs never reach.

A refactor that changes a single bit of these trajectories fails here. A
change that is meant to change bits re-runs the calibration scan and
regenerates the fixture in its own change, from the repository root::

    PYTHONPATH=src python tests/test_golden_traces.py --write
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from bcmaes.benchmarks import registry_lookup
from bcmaes.cli import RunSpec, run_experiment
from bcmaes.optimizer import OptimizerConfig, run

GOLDEN = Path(__file__).resolve().with_name("golden_traces.json")
# acceptance criterion 7 budgets at d=2
BUDGETS = {"cone": 900, "schwefel2": 1500, "rastrigin": 500, "schwefel1": 500}
STRATEGIES = ("s1", "s2")
CSV_SEEDS = (4, 5, 7, 12, 13)
# (dim, popsize, seed) of the full-trace runs; popsize None is the default
FULL_RUNS = ((10, None, 1), (40, 15, 3), (40, 15, 5))
FULL_ITERS = 300


def csv_digests(function: str, strategy: str, out_dir: str) -> dict[str, str]:
    """Trace-CSV digests of one CLI invocation over every seed of ``CSV_SEEDS``."""
    spec = RunSpec(function=function, dim=2, strategy=strategy, seeds=CSV_SEEDS, popsize=None,
                   max_iter=BUDGETS[function], sigma0=1.0, x0=None, out_dir=out_dir)
    assert run_experiment(spec) == 0
    names = [f"{function}_{strategy}_{seed}.csv" for seed in CSV_SEEDS]
    return {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
            for name in names}


def full_key(function: str, dim: int, popsize, seed: int) -> str:
    return f"{function}_d{dim}_k{popsize or 'default'}_{seed}"


def full_digest(function: str, dim: int, popsize, seed: int) -> str:
    """SHA-256 over every field of a run's trace and result, floats in hex."""
    bench = registry_lookup(function, dim)
    config = OptimizerConfig(dim=dim, x0=bench.default_x0, popsize=popsize,
                             max_iter=FULL_ITERS, seed=seed)
    result = run(config, bench.fn)
    h = hashlib.sha256()
    for t in result.trace:
        fields = [str(t.iter), t.f_best_iter.hex(), t.f_min_so_far.hex(),
                  *(float(v).hex() for v in t.expected_mean), t.cov_frobenius_norm.hex(),
                  str(t.retrial), t.event]
        h.update((",".join(fields) + "\n").encode())
    h.update(",".join([*(float(v).hex() for v in result.x_best), float(result.f_best).hex(),
                       result.stop_reason]).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("function", sorted(BUDGETS))
def test_trace_csv_matches_pinned_digest(function, strategy, tmp_path, golden):
    digests = csv_digests(function, strategy, str(tmp_path))
    assert digests == {name: golden["csv"][name] for name in digests}


@pytest.mark.parametrize("dim,popsize,seed", FULL_RUNS)
@pytest.mark.parametrize("function", sorted(BUDGETS))
def test_full_trace_matches_pinned_digest(function, dim, popsize, seed, golden):
    assert full_digest(function, dim, popsize, seed) == golden["full"][
        full_key(function, dim, popsize, seed)]


def write_golden() -> None:
    csv = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for function in sorted(BUDGETS):
            for strategy in STRATEGIES:
                csv.update(csv_digests(function, strategy, out_dir))
    full = {full_key(function, *r): full_digest(function, *r)
            for r in FULL_RUNS for function in sorted(BUDGETS)}
    GOLDEN.write_text(json.dumps({"csv": csv, "full": full}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_golden()

"""Golden trajectories: runs must keep the bits pinned in ``golden_traces.json``.

``scripts/hash_traces.py`` computes every digest of that file and checks all
236 of them; this module checks 52 through the script's routines:

- the trace CSVs that ``run_experiment`` writes for the 40 d=2 runs, both
  mean strategies, at the acceptance criterion 7 budgets, one invocation
  over all five seeds per function and strategy;
- the full-trace digests of 12 runs at d=10 and at d=40 with popsize 15 < d.
  Their covariance estimate is indefinite in about half (d=10) and nine in
  ten (d=40) of their iterations and takes its closed-form shift there,
  which the d=2 runs almost never do.

A refactor that changes one bit of these trajectories fails here. A change
meant to move bits re-runs the calibration scans and regenerates the file::

    PYTHONPATH=src python scripts/hash_traces.py --write
"""

import json

import pytest

from _util import load_script

hash_traces = load_script("hash_traces")
FULL_RUNS = [r for r in hash_traces.RUNS
             if (r.dim, r.popsize, r.seed) in {(10, None, 1), (40, 15, 3), (40, 15, 5)}]
assert len(FULL_RUNS) == 12


@pytest.fixture(scope="module")
def golden():
    return json.loads(hash_traces.GOLDEN.read_text())


@pytest.mark.parametrize("strategy", ("s1", "s2"))
@pytest.mark.parametrize("function", hash_traces.FUNCTIONS)
def test_trace_csv_matches_pinned_digest(function, strategy, tmp_path, golden):
    runs = [r for r in hash_traces.RUNS
            if (r.dim, r.function, r.strategy) == (2, function, strategy)]
    digests = hash_traces.csv_digests(runs, str(tmp_path))
    assert len(digests) == 5
    assert digests == {name: golden["csv"][name] for name in digests}


@pytest.mark.parametrize("r", FULL_RUNS,
                         ids=lambda r: f"{r.function}-{r.dim}-{r.popsize}-{r.seed}")
def test_full_trace_matches_pinned_digest(r, golden):
    assert hash_traces.digest(r) == golden["full"][r.key]

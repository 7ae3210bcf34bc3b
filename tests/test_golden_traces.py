"""Golden trajectories: trace CSVs must stay byte-identical to the pinned digests.

``bench/trace_digests.json`` holds the SHA-256 of every trace CSV that
``bcmaes --function F --strategy S --seed 4 --seed 5 --seed 7 --max-iter B``
wrote when the digests were taken. This test reruns the seed-4 runs, so a
refactor that changes a single bit of those trajectories fails here; one
that is meant to change bits re-runs the calibration scan and re-pins the
digests in its own change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bcmaes.cli import RunSpec, run_experiment

DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "trace_digests.json"
# acceptance criterion 7 budgets at d=2
BUDGETS = {"cone": 900, "schwefel2": 1500, "rastrigin": 500, "schwefel1": 500}
SEED = 4


@pytest.mark.parametrize("strategy", ["s1", "s2"])
@pytest.mark.parametrize("function", sorted(BUDGETS))
def test_trace_csv_matches_pinned_digest(function, strategy, tmp_path):
    digests = json.loads(DIGESTS.read_text())
    spec = RunSpec(function=function, dim=2, strategy=strategy, seeds=(SEED,), popsize=None,
                   max_iter=BUDGETS[function], sigma0=1.0, x0=None, out_dir=str(tmp_path))
    assert run_experiment(spec) == 0
    name = f"{function}_{strategy}_{SEED}.csv"
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digests[name]

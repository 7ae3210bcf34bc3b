"""Golden trajectories: runs must keep the bits pinned in ``golden_traces.json``.

``scripts/calibrate_convergence.py`` computes every digest of that file and
checks all 244 of them; this module checks 52 through the script's routines:

- the trace CSVs that ``run_experiment`` writes for the 40 d=2 runs, both
  mean strategies, at the acceptance criterion 7 budgets, one invocation
  over all five seeds per function and strategy. The script writes them
  from the runs' results with the CLI's writer, so this pins the CLI path;
- the full-trace digests of 12 runs at d=10 and at d=40 with popsize 15 < d.
  Their covariance estimate is indefinite in about half (d=10) and nine in
  ten (d=40) of their iterations and takes its closed-form shift there,
  which the d=2 runs almost never do.

A refactor that changes one bit of these trajectories fails here. The bits
also depend on the CPU, so each failure's message names the entries of the
file's machine record that differ here, as the script's ``note:`` lines do,
or says that none does. A change meant to move bits re-runs the convergence
scans and, when they pass, regenerates the file and the scans' references in
one step::

    PYTHONPATH=src python scripts/calibrate_convergence.py --write
"""

import hashlib
import json

import pytest

from bcmaes.cli import RunSpec, run_experiment

from _util import load_script

gate = load_script("calibrate_convergence")
FULL_RUNS = [r for r in gate.RUNS
             if (r.dim, r.popsize, r.seed) in {(10, None, 1), (40, 15, 3), (40, 15, 5)}]
assert len(FULL_RUNS) == 12


@pytest.fixture(scope="module")
def golden():
    return json.loads(gate.GOLDEN.read_text())


@pytest.fixture(scope="module")
def machine_note(golden):
    """Why a digest may differ without a code change: the file was written on another machine."""
    notes = gate.machine_notes(golden["machine"], gate.machine())
    return "; ".join(notes) or "the machine record matches this machine"


@pytest.mark.parametrize("strategy", ("s1", "s2"))
@pytest.mark.parametrize("function", tuple(gate.STUDY))
def test_trace_csv_matches_pinned_digest(function, strategy, tmp_path, golden, machine_note):
    runs = [r for r in gate.RUNS
            if (r.dim, r.sigma0, r.function, r.strategy) == (2, 1.0, function, strategy)]
    spec = RunSpec(function=function, dim=2, strategy=strategy,
                   seeds=tuple(r.seed for r in runs), popsize=None, max_iter=runs[0].max_iter,
                   sigma0=1.0, x0=None, out_dir=str(tmp_path))
    assert run_experiment(spec) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.csv")}
    assert len(digests) == 5
    assert digests == {name: golden["csv"][name] for name in digests}, machine_note


@pytest.mark.parametrize("r", FULL_RUNS,
                         ids=lambda r: f"{r.function}-{r.dim}-{r.popsize}-{r.seed}")
def test_full_trace_matches_pinned_digest(r, golden, machine_note):
    assert gate.digest(gate.outcome(r)) == golden["full"][r.key], machine_note

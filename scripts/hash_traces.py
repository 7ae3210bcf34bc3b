#!/usr/bin/env python3
"""Check that every bit of 236 runs matches the digests in ``tests/golden_traces.json``.

The file holds two kinds of SHA-256 digest:

- ``full``: one per run of ``RUNS`` (196), over every ``IterationTrace``
  field (floats as ``float.hex``), then ``x_best``, ``f_best``, the stop
  reason, ``n_evals`` and ``nan_evals``. A run that raises hashes its
  exception type and message instead.
- ``csv``: one per d=2 run (40), over the trace CSV that the CLI's
  ``run_experiment`` writes, one invocation per function and strategy.

All four functions run in each regime:

- d=2, strategies s1 and s2, seeds 4, 5, 7, 12 and 13, at the acceptance
  criterion 7 budgets (40 runs);
- d=40 with popsize 15 < d, seeds 1-30, 300 iterations (120 runs);
- d=10, seeds 1-3, 300 iterations (12 runs);
- d=100, seeds 1-3, sigma0 = 1 and 1e3, 300 iterations (24 runs).

d=100 trajectories depend on the BLAS thread count, so
``OPENBLAS_NUM_THREADS`` defaults to 1 here; a value already set is kept
and recorded in the file, and a check under another value prints a note.

Usage:
    PYTHONPATH=src python scripts/hash_traces.py [--write]

With no flag every digest is recomputed and checked, which shows that a
change keeps bits: each key that differs, is missing from the file or is
extra in it is printed, then ``N/N equal``, and the exit status is 1 on any
difference. ``--write`` regenerates the file, for a change meant to move bits.
"""

import os

BLAS_THREADS = os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple, Optional  # noqa: E402

from bcmaes import BcmaesError, OptimizerConfig, registry_lookup, run  # noqa: E402
from bcmaes.cli import RunSpec, run_experiment  # noqa: E402

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden_traces.json"
FUNCTIONS = ("cone", "schwefel2", "rastrigin", "schwefel1")
# acceptance criterion 7 budgets at d=2
BUDGETS = {"cone": 900, "schwefel2": 1500, "rastrigin": 500, "schwefel1": 500}


class Run(NamedTuple):
    function: str
    dim: int
    popsize: Optional[int]
    seed: int
    max_iter: int
    sigma0: float = 1.0
    strategy: str = "s2"

    @property
    def key(self) -> str:
        return (f"{self.function}_d{self.dim}_k{self.popsize or 'default'}_sigma{self.sigma0:g}"
                f"_{self.strategy}_i{self.max_iter}_{self.seed}")


RUNS = (
    [Run(f, 2, None, seed, BUDGETS[f], strategy=s)
     for s in ("s1", "s2") for f in FUNCTIONS for seed in (4, 5, 7, 12, 13)]
    + [Run(f, 40, 15, seed, 300) for seed in range(1, 31) for f in FUNCTIONS]
    + [Run(f, 10, None, seed, 300) for seed in (1, 2, 3) for f in FUNCTIONS]
    + [Run(f, 100, None, seed, 300, sigma0)
       for sigma0 in (1.0, 1e3) for seed in (1, 2, 3) for f in FUNCTIONS]
)


def digest(r: Run) -> str:
    """SHA-256 of one run's trace and result, floats in hex."""
    bench = registry_lookup(r.function, r.dim)
    config = OptimizerConfig(dim=r.dim, x0=bench.default_x0, sigma0=r.sigma0, popsize=r.popsize,
                             max_iter=r.max_iter, strategy=r.strategy, seed=r.seed)
    h = hashlib.sha256()
    try:
        result = run(config, bench.fn)
    except BcmaesError as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest()
    for t in result.trace:
        fields = [str(t.iter), t.f_best_iter.hex(), t.f_min_so_far.hex(),
                  *(float(v).hex() for v in t.expected_mean), t.cov_frobenius_norm.hex(),
                  str(t.retrial), t.event]
        h.update((",".join(fields) + "\n").encode())
    h.update(",".join([*(float(v).hex() for v in result.x_best), float(result.f_best).hex(),
                       result.stop_reason, str(result.n_evals),
                       str(result.nan_evals)]).encode())
    return h.hexdigest()


def csv_digests(runs: list[Run], out_dir: str) -> dict[str, str]:
    """Trace-CSV digests of one ``run_experiment`` over ``runs``, which differ only in seed."""
    r = runs[0]
    spec = RunSpec(function=r.function, dim=r.dim, strategy=r.strategy,
                   seeds=tuple(run.seed for run in runs), popsize=r.popsize,
                   max_iter=r.max_iter, sigma0=r.sigma0, x0=None, out_dir=out_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        status = run_experiment(spec)
    if status != 0:
        raise RuntimeError(f"run_experiment exited {status} for {r.function} {r.strategy}")
    names = [f"{r.function}_{r.strategy}_{run.seed}.csv" for run in runs]
    return {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
            for name in names}


def hash_runs() -> dict:
    """Every digest of ``RUNS``, in the layout of the golden file."""
    csv: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as out_dir:
        d2 = [r for r in RUNS if r.dim == 2]
        for _, runs in itertools.groupby(d2, key=lambda r: r._replace(seed=0)):
            csv.update(csv_digests(list(runs), out_dir))
    return {"openblas_num_threads": BLAS_THREADS, "csv": csv,
            "full": {r.key: digest(r) for r in RUNS}}


def check(golden: dict, new: dict) -> int:
    """Print every key whose digest is not the golden one; return the exit status."""
    if golden.get("openblas_num_threads") != new["openblas_num_threads"]:
        print(f"note: OPENBLAS_NUM_THREADS {new['openblas_num_threads']}, the file was "
              f"written under {golden.get('openblas_num_threads')}")
    want = {**golden["csv"], **golden["full"]}
    got = {**new["csv"], **new["full"]}
    keys = sorted(set(want) | set(got))
    differ = [key for key in keys if want.get(key) != got.get(key)]
    for key in differ:
        side = "missing" if key not in want else "extra" if key not in got else "differs"
        print(f"{key}: {side}")
    print(f"{len(keys) - len(differ)}/{len(keys)} equal")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true",
                        help=f"regenerate {GOLDEN.name} instead of checking against it")
    args = parser.parse_args(argv)
    new = hash_runs()
    if args.write:
        GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        print(f"{len(new['csv']) + len(new['full'])} digests written to {GOLDEN}")
        return 0
    return check(json.loads(GOLDEN.read_text()), new)


if __name__ == "__main__":
    sys.exit(main())

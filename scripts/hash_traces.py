#!/usr/bin/env python3
"""Hash the full trace of 196 runs, to show that a change keeps every bit.

Each run's SHA-256 covers every ``IterationTrace`` field (floats as
``float.hex``), then ``x_best``, ``f_best``, the stop reason, ``n_evals``
and ``nan_evals``. A run that raises hashes its exception type and message
instead. All four functions run in each regime:

- d=2, strategies s1 and s2, seeds 4, 5, 7, 12 and 13, at the acceptance
  criterion 7 budgets (40 runs);
- d=40 with popsize 15 < d, seeds 1-30, 300 iterations (120 runs);
- d=10, seeds 1-3, 300 iterations (12 runs);
- d=100, seeds 1-3, sigma0 = 1 and 1e3, 300 iterations (24 runs).

d=100 trajectories depend on the BLAS thread count, so
``OPENBLAS_NUM_THREADS`` defaults to 1 here; a value already set is kept
and recorded with the digests.

Usage:
    PYTHONPATH=src python scripts/hash_traces.py [--json OUT]
    PYTHONPATH=src python scripts/hash_traces.py --compare A.json B.json

Without ``--json`` the digests are printed as JSON. ``--compare`` prints
every run whose digest differs or is missing from one side and exits 1 if
there is any.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import NamedTuple, Optional  # noqa: E402

from bcmaes import BcmaesError, OptimizerConfig, registry_lookup, run  # noqa: E402

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
     for s in ("s1", "s2") for seed in (4, 5, 7, 12, 13) for f in FUNCTIONS]
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


def hash_runs(runs) -> dict:
    return {
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "digests": {r.key: digest(r) for r in runs},
    }


def compare(a: dict, b: dict) -> int:
    """Print the runs whose digests differ; return the exit status."""
    da, db = a["digests"], b["digests"]
    if a.get("openblas_num_threads") != b.get("openblas_num_threads"):
        print(f"note: OPENBLAS_NUM_THREADS {a.get('openblas_num_threads')} against "
              f"{b.get('openblas_num_threads')}")
    keys = sorted(set(da) | set(db))
    differ = [key for key in keys if da.get(key) != db.get(key)]
    for key in differ:
        side = "only in A" if key not in db else "only in B" if key not in da else "differs"
        print(f"{key}: {side}")
    print(f"{len(keys) - len(differ)}/{len(keys)} equal")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", metavar="OUT", help="write the digests to OUT")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two digest files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(open(path).read()) for path in args.compare)
        return compare(a, b)
    t0 = time.perf_counter()
    out = hash_runs(RUNS)
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.json:
        with open(args.json, "w") as f:
            f.write(text)
        print(f"{len(out['digests'])} runs hashed in {time.perf_counter() - t0:.1f} s, "
              f"OPENBLAS_NUM_THREADS={out['openblas_num_threads']}: {args.json}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

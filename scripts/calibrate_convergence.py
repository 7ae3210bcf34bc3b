#!/usr/bin/env python3
"""Measure convergence crossing times across many seeds on the four benchmarks.

This is the study behind docs/calibration.md: for each function it reports
when each seed's best-so-far error first crosses the acceptance threshold,
plus the pass count for the multi-modal criteria. Full 60-seed sweep takes a
few minutes; use --seeds to trim.

With ``--json`` the script prints one JSON document instead of the report:
one record per seed and function with the crossing iteration (null when the
threshold is never crossed), the final best-so-far error and its log10
(null when the error is not positive), the stop reason, and whether the run
raised ``PriorDegeneracy``. ``--dim`` and ``--max-iter`` run the same scan
at another dimension or iteration cap (by default every function keeps its
own cap below). The population size is the default for the dimension,
4 + floor(3 ln dim), and each record carries it.

Usage:
    python scripts/calibrate_convergence.py [--seeds 60]
    python scripts/calibrate_convergence.py --json --dim 40 --max-iter 300 --seeds 30
"""

import argparse
import json
import math
import sys

import numpy as np

from bcmaes.benchmarks import registry_lookup
from bcmaes.errors import PriorDegeneracy
from bcmaes.optimizer import OptimizerConfig, run

# (threshold on error_vs_min, iteration cap used for the sweep)
STUDY = {
    "cone": (1e-6, 1200),
    "schwefel2": (1e-5, 1800),
    "rastrigin": (1e-2, 500),
    "schwefel1": (1.0, 500),
}


def first_cross(trace, threshold, reference):
    return next((t.iter for t in trace if t.f_min_so_far - reference <= threshold), None)


def scan_configs(function, seeds, dim, cap):
    """The benchmark and one run config per seed; an invalid scan raises ``ValueError``."""
    bench = registry_lookup(function, dim)
    return bench, [OptimizerConfig(dim=dim, x0=bench.default_x0, sigma0=1.0, seed=seed,
                                   max_iter=cap) for seed in seeds]


def scan_run(function, bench, cfg):
    """One seeded run of the scan, as a JSON-ready record."""
    threshold = STUDY[function][0]
    record = {"function": function, "seed": cfg.seed, "dim": cfg.dim, "popsize": cfg.k,
              "max_iter": cfg.max_iter, "threshold": threshold}
    try:
        result = run(cfg, bench.fn)
    except PriorDegeneracy as exc:
        return {**record, "crossing": None, "final_error": None, "final_log10_error": None,
                "stop_reason": None, "raised": True, "error": str(exc), "dilated": False}
    error = result.f_best - bench.global_min_value
    return {
        **record,
        "crossing": first_cross(result.trace, threshold, bench.global_min_value),
        "final_error": error,
        "final_log10_error": math.log10(error) if error > 0 else None,
        "stop_reason": result.stop_reason,
        "raised": False,
        "error": None,
        "dilated": any(t.event == "dilate" for t in result.trace),
    }


def report(function, records):
    """The text report of one function's records."""
    threshold, cap = records[0]["threshold"], records[0]["max_iter"]
    crossings = {r["seed"]: r["crossing"] for r in records}
    reached = sorted(c for c in crossings.values() if c is not None)
    misses = [s for s, c in crossings.items() if c is None]
    print(f"\n{function}: threshold {threshold:g}, cap {cap} iterations")
    print(f"  reached by {len(reached)}/{len(crossings)} seeds")
    if reached:
        q = np.percentile(reached, [0, 25, 50, 75, 100]).astype(int)
        print(f"  crossing iterations min/q1/median/q3/max: {q.tolist()}")
    if misses:
        print(f"  seeds never crossing within the cap: {misses}")
    raised = [r["seed"] for r in records if r["raised"]]
    if raised:
        print(f"  seeds raising PriorDegeneracy: {raised}")
    if function == "rastrigin":
        ok = [r["seed"] for r in records if r["crossing"] is not None and r["dilated"]]
        print(f"  seeds passing with dilatation events: {ok}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=60)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--max-iter", type=int, default=None,
                        help="iteration cap for every function (default: each function's own)")
    parser.add_argument("--json", action="store_true",
                        help="print the per-seed records as one JSON document")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    seeds = range(1, args.seeds + 1)
    # every config is built before the first run, so an invalid scan runs nothing
    try:
        scans = {function: scan_configs(function, seeds, args.dim,
                                        cap if args.max_iter is None else args.max_iter)
                 for function, (_, cap) in STUDY.items()}
    except ValueError as exc:
        parser.error(str(exc))

    runs = []
    for function, (bench, configs) in scans.items():
        records = [scan_run(function, bench, cfg) for cfg in configs]
        if args.json:
            runs.extend(records)
        else:
            report(function, records)
    if args.json:
        json.dump({"dim": args.dim, "seeds": args.seeds, "runs": runs}, sys.stdout, indent=1)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

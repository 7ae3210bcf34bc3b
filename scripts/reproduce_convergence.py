#!/usr/bin/env python3
"""Run both mean strategies on all four benchmarks and render convergence charts.

Produces, per function, the trace CSV and ``summary.json`` of each strategy
in ``<out>/<function>/<strategy>/``, plus an aligned plot-data file and an
SVG chart overlaying the two curves in ``<out>/<function>/``. Budgets are sized
so the runs reach their terminal precision (see docs/calibration.md).

Usage:
    python scripts/reproduce_convergence.py [--out results] [--seed 42]
"""

import argparse
import os
import sys

from bcmaes.cli import run_experiment, RunSpec
from bcmaes.plotting import emit_plot_data

BUDGETS = {"cone": 900, "schwefel2": 1500, "rastrigin": 500, "schwefel1": 500}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    for function, budget in BUDGETS.items():
        out_dir = os.path.join(args.out, function)
        csvs = []
        for strategy in ("s1", "s2"):
            spec = RunSpec(
                function=function,
                dim=2,
                strategy=strategy,
                seeds=(args.seed,),
                popsize=None,
                max_iter=budget,
                sigma0=1.0,
                x0=None,
                out_dir=os.path.join(out_dir, strategy),
            )
            code = run_experiment(spec)
            if code != 0:
                return code
            csvs.append(os.path.join(out_dir, strategy, f"{function}_{strategy}_{args.seed}.csv"))
        data_path, svg_path = emit_plot_data(csvs, out_dir)
        print(f"{function}: wrote {data_path} and {svg_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

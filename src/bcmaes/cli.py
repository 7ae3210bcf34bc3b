"""Reproducible experiment runner.

``bcmaes --function cone --seed 42 --out results`` executes one seeded run
per ``--seed`` flag, writing a frozen-schema trace CSV per run plus a
``summary.json``; ``bcmaes plot <csv...> --out results`` turns trace CSVs
into aligned plot data and an SVG convergence chart.

Exit codes: 0 success, 1 I/O failure, 2 usage or malformed input, 3 a run
that stopped on a package error (``PriorDegeneracy``); the seeds before it
keep their CSVs and ``summary.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .benchmarks import FUNCTION_NAMES, BenchmarkSpec, registry_lookup
from .errors import BcmaesError, SchemaError
from .likelihood import STRATEGIES
from .optimizer import IterationTrace, OptimizerConfig, run
from .plotting import CSV_HEADER, emit_plot_data


@dataclass(frozen=True)
class RunSpec:
    """Resolved experiment parameters for one invocation."""

    function: str
    dim: int
    strategy: str
    seeds: tuple[int, ...]
    popsize: Optional[int]
    max_iter: int
    sigma0: float
    x0: Optional[np.ndarray]
    out_dir: str


def parse_args(argv: Sequence[str]) -> RunSpec:
    """Parse run flags into a RunSpec; unknown flags abort with exit code 2."""
    parser = argparse.ArgumentParser(
        prog="bcmaes",
        description="Seeded benchmark runs of the conjugate-prior evolution strategy.",
    )
    parser.add_argument("--function", required=True, choices=FUNCTION_NAMES)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--strategy", choices=STRATEGIES, default="s2")
    parser.add_argument("--seed", type=int, action="append",
                        help="repeatable; defaults to a single seed 0")
    parser.add_argument("--popsize", type=int, default=None)
    parser.add_argument("--max-iter", type=int, default=500)
    parser.add_argument("--sigma0", type=float, default=1.0)
    parser.add_argument("--x0", type=str, default=None,
                        help="comma-separated start point, e.g. '10,10'")
    parser.add_argument("--out", type=str, default=".")
    ns = parser.parse_args(list(argv))
    x0 = None
    if ns.x0 is not None:
        try:
            x0 = np.array([float(v) for v in ns.x0.split(",")])
        except ValueError:
            parser.error(f"--x0 must be a comma-separated number list, got {ns.x0!r}")
    spec = RunSpec(
        function=ns.function,
        dim=ns.dim,
        strategy=ns.strategy,
        seeds=tuple(ns.seed) if ns.seed else (0,),
        popsize=ns.popsize,
        max_iter=ns.max_iter,
        sigma0=ns.sigma0,
        x0=x0,
        out_dir=ns.out,
    )
    try:
        _resolve(spec)
    except ValueError as exc:
        parser.error(str(exc))
    return spec


def _resolve(spec: RunSpec) -> tuple[BenchmarkSpec, list[OptimizerConfig]]:
    """The spec's benchmark and every seed's run config; an invalid spec raises ``ValueError``."""
    bench = registry_lookup(spec.function, spec.dim)
    x0 = spec.x0 if spec.x0 is not None else bench.default_x0
    configs = [
        OptimizerConfig(dim=spec.dim, x0=x0, sigma0=spec.sigma0, popsize=spec.popsize,
                        max_iter=spec.max_iter, strategy=spec.strategy, seed=seed)
        for seed in spec.seeds
    ]
    return bench, configs


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trace_csv(path: str, trace: Sequence[IterationTrace], global_min_value: float) -> None:
    """Write one run's trace in the frozen CSV schema (byte-deterministic)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for row in trace:
            fh.write(
                ",".join(
                    [
                        str(row.iter),
                        _fmt(row.f_best_iter),
                        _fmt(row.f_min_so_far),
                        _fmt(row.f_min_so_far - global_min_value),
                        _fmt(row.cov_frobenius_norm),
                        str(row.retrial),
                        row.event,
                    ]
                )
                + "\n"
            )


def run_experiment(spec: RunSpec) -> int:
    """Execute one seeded run per seed, emitting trace CSVs and summary.json.

    Every seed's config is checked first: an invalid spec raises ``ValueError`` and writes nothing.
    A run that raises a package error is reported on stderr as ``error: seed S: <message>``;
    the seeds before it keep their CSVs and ``summary.json``, no later seed runs, and the
    return value is 3. ``summary.json`` is strict JSON: a non-finite ``f_best`` is ``null``.
    """
    bench, configs = _resolve(spec)
    summary = []
    code = 0
    try:
        os.makedirs(spec.out_dir, exist_ok=True)
        for config in configs:
            seed = config.seed
            try:
                # the module-global run, so that a harness can replace cli.run
                result = run(config, bench.fn)
            except BcmaesError as exc:
                print(f"error: seed {seed}: {exc}", file=sys.stderr)
                code = 3
                break
            csv_name = f"{spec.function}_{spec.strategy}_{seed}.csv"
            write_trace_csv(os.path.join(spec.out_dir, csv_name), result.trace,
                            bench.global_min_value)
            summary.append(
                {
                    "function": spec.function,
                    "strategy": spec.strategy,
                    "seed": seed,
                    "f_best": result.f_best if math.isfinite(result.f_best) else None,
                    "iterations": result.iterations,
                    "stop_reason": result.stop_reason,
                }
            )
            print(
                f"{spec.function} {spec.strategy} seed={seed}: "
                f"f_best={result.f_best:.6e} iterations={result.iterations} "
                f"stop={result.stop_reason}"
            )
        with open(os.path.join(spec.out_dir, "summary.json"), "w", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def _plot_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bcmaes plot", description="Aligned plot data and SVG chart from trace CSVs."
    )
    parser.add_argument("csvs", nargs="*", help="trace CSV files")
    parser.add_argument("--out", type=str, default=".")
    ns = parser.parse_args(list(argv))
    try:
        data_path, svg_path = emit_plot_data(ns.csvs, ns.out)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {data_path} and {svg_path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "plot":
        return _plot_main(argv[1:])
    return run_experiment(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

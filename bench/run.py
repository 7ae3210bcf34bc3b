#!/usr/bin/env python3
"""bcmaes benchmark: per-iteration cost, throughput, time to target and set-up time.

Run from the repository root; the package is imported from ``src/``:

    python3 bench/run.py --workload accept-d2 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates traced and untraced passes over the same seed set
and reports the per-layer metrics from the spans (see bench/tracer.py). The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. bench/README.md describes the
workloads and every metric.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads: the benchmark is a single
# process on a small host, and the matrices are at most 40x40.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

FUNCTIONS = ("cone", "schwefel2", "rastrigin", "schwefel1")
# Acceptance criterion 7 at d=2: iteration budget and error threshold per function.
BUDGETS = {"cone": 900, "schwefel2": 1500, "rastrigin": 500, "schwefel1": 500}
THRESHOLDS = {"cone": 1e-6, "schwefel2": 1e-5, "rastrigin": 1e-2, "schwefel1": 1.0}
STOP_REASONS = ("ControllerTerminate", "MaxIter", "VarNormSmall", "StallTerminated")
# The frozen trace CSV schema, spelled out here so a change to it shows.
CSV_HEADER = "iter,f_best_iter,f_min_so_far,error_vs_min,cov_norm,retrial,event"
DIGESTS = BENCH_DIR / "trace_digests.json"
# --seed n > 0 shifts every optimizer seed by n * SEED_STRIDE, which keeps the
# sets of different n disjoint from each other and from the default (n = 0).
SEED_STRIDE = 1000
SETUP_REPEATS = 5
SETUP_CODE = (
    "import time; t = time.perf_counter(); import bcmaes; "
    "bcmaes.registry_lookup('cone', 2); print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Workload:
    dim: int
    popsize: Optional[int]
    seeds: tuple[int, ...]
    strategies: tuple[str, ...]
    max_iter: Optional[int]  # None: the criterion-7 budget of each function
    via_cli: bool = False

    @property
    def has_target(self) -> bool:
        return self.max_iter is None


WORKLOADS = {
    "accept-d2": Workload(2, None, (4, 5, 7, 12, 13), ("s2",), None),
    "dim40": Workload(40, 15, (1, 2, 3, 4, 5, 6), ("s2",), 300),
    "cli-d2": Workload(2, None, (4, 5, 7), ("s1", "s2"), None, via_cli=True),
}

# Metric names and units of the JSON result come from BENCHMARK.json.
SPEC = ROOT / "BENCHMARK.json"


def import_package():
    """Import bcmaes from this checkout's src/, never from an installed copy."""
    if not (SRC / "bcmaes" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'bcmaes'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bcmaes
    import bcmaes.cli
    import bcmaes.plotting

    if Path(bcmaes.__file__).resolve().parent != (SRC / "bcmaes").resolve():
        raise SystemExit(f"error: imported bcmaes from {bcmaes.__file__}, not {SRC}")
    return bcmaes


@dataclass
class RunRecord:
    """What one optimizer run did, as seen from outside the package."""

    function: str
    strategy: str
    seed: int
    ticks: list = field(default_factory=list)  # run start, then one per iteration
    calls: int = 0
    iterations: int = 0
    stop_reason: Optional[str] = None
    error: Optional[str] = None
    f_best: float = math.nan
    final_err: float = math.nan
    cross_iter: Optional[int] = None
    events: dict = field(default_factory=dict)

    @property
    def key(self):
        return (self.function, self.strategy, self.seed)

    @property
    def outcome(self):
        return (self.iterations, self.f_best, self.stop_reason, self.error)


@dataclass
class Pass:
    wall_s: float
    records: list
    traced: bool = False
    spans: tuple = (0, 0)
    counts: dict = field(default_factory=dict)  # tracer counts and span errors in this pass
    out_bytes: dict = field(default_factory=dict)


class Harness:
    """Runs a workload's optimizer runs through the public API and checks their outputs."""

    def __init__(self, bcmaes, name: str, bench_seed: int):
        self.bcmaes = bcmaes
        self.name = name
        self.w = WORKLOADS[name]
        self.seeds = tuple(s + SEED_STRIDE * bench_seed for s in self.w.seeds)
        self.specs = {f: bcmaes.registry_lookup(f, self.w.dim) for f in FUNCTIONS}
        self.k = self.w.popsize or bcmaes.default_popsize(self.w.dim)
        self.problems: list[str] = []
        self.tracer = None
        self.tracing = False
        self.digests = json.loads(DIGESTS.read_text())
        self.digest_checked = 0
        self.digest_mismatch = 0
        self._function = None

    def problem(self, msg: str) -> None:
        if len(self.problems) < 50:
            print(f"CHECK FAILED [{self.name}]: {msg}", file=sys.stderr)
        self.problems.append(msg)

    def call(self, run_fn, config, objective, records: list):
        """One optimizer run with per-iteration timestamps and output checks.

        Records the run, then re-raises any exception the run raised.
        """
        function = self._function
        rec = RunRecord(function, config.strategy, config.seed)
        records.append(rec)
        ticks = rec.ticks
        clock = time.perf_counter_ns
        calls = [0]
        inner = objective
        tracer = self.tracer if self.tracing else None
        if tracer is not None:
            tracer.run_id += 1
            inner = tracer.wrap("benchmarks.objective", objective)
            variates0 = tracer.counts["rng.variates"]

        def counted(x):
            calls[0] += 1
            return inner(x)

        def callback(_obs):
            ticks.append(clock())

        ticks.append(clock())
        try:
            result = run_fn(config, counted, callback=callback)
        except Exception as exc:
            rec.calls = calls[0]
            rec.iterations = len(ticks) - 1
            rec.error = type(exc).__name__
            if not isinstance(exc, self.bcmaes.BcmaesError):
                self.problem(f"{rec.key}: non-package exception {exc!r}")
            raise
        rec.calls = calls[0]
        rec.iterations = result.iterations
        rec.stop_reason = result.stop_reason
        rec.f_best = result.f_best
        spec = self.specs[function]
        rec.final_err = result.f_best - spec.global_min_value
        for t in result.trace:
            rec.events[t.event] = rec.events.get(t.event, 0) + 1
        if self.w.has_target:
            rec.cross_iter = next(
                (t.iter for t in result.trace
                 if t.f_min_so_far - spec.global_min_value <= THRESHOLDS[function]), None)
        if result.stop_reason not in STOP_REASONS:
            self.problem(f"{rec.key}: unknown stop reason {result.stop_reason!r}")
        if not (result.iterations == len(result.trace) == len(ticks) - 1):
            self.problem(f"{rec.key}: iterations {result.iterations}, trace rows "
                         f"{len(result.trace)}, callbacks {len(ticks) - 1} disagree")
        if not result.n_evals == self.k * result.iterations == calls[0]:
            self.problem(f"{rec.key}: n_evals {result.n_evals}, k*iterations "
                         f"{self.k * result.iterations}, objective calls {calls[0]} disagree")
        if result.iterations > config.max_iter:
            self.problem(f"{rec.key}: {result.iterations} iterations exceed max_iter")
        if objective(result.x_best) != result.f_best:
            self.problem(f"{rec.key}: f_best is not the objective at x_best")
        if tracer is not None:
            variates = tracer.counts["rng.variates"] - variates0
            if variates != self.k * self.w.dim * result.iterations:
                self.problem(f"{rec.key}: {variates} variates, expected k*d per iteration")
        return result

    def run_pass(self, traced: bool, seeds=None, functions=FUNCTIONS, strategies=None) -> Pass:
        seeds = self.seeds if seeds is None else seeds
        strategies = self.w.strategies if strategies is None else strategies
        if traced:
            lo = len(self.tracer)
            before = self.tracer.counts + self.tracer.errors
            self.tracer.install(self.bcmaes, hooks=self._hooks())
        self.tracing = traced
        try:
            if self.w.via_cli:
                p = self._cli_pass(seeds, functions, strategies)
            else:
                p = self._run_pass(seeds, functions, strategies)
        finally:
            self.tracing = False
            if traced:
                self.tracer.uninstall()
        p.traced = traced
        if traced:
            p.spans = (lo, len(self.tracer))
            p.counts = self.tracer.counts + self.tracer.errors - before
        return p

    def _run_pass(self, seeds, functions, strategies) -> Pass:
        bcmaes = self.bcmaes
        records: list = []
        t0 = time.perf_counter()
        for seed in seeds:
            for function in functions:
                for strategy in strategies:
                    self._function = function
                    config = bcmaes.OptimizerConfig(
                        dim=self.w.dim, x0=self.specs[function].default_x0,
                        popsize=self.w.popsize, max_iter=self.w.max_iter or BUDGETS[function],
                        strategy=strategy, seed=seed)
                    try:
                        self.call(bcmaes.run, config, self.specs[function].fn, records)
                    except Exception:
                        pass  # counted in fail_frac; a failed run never aborts the benchmark
        return Pass(time.perf_counter() - t0, records)

    def _cli_pass(self, seeds, functions, strategies) -> Pass:
        """``run_experiment`` per (function, strategy), then one plot per function."""
        cli, plotting = self.bcmaes.cli, self.bcmaes.plotting
        records: list = []
        original_run = cli.run
        cli.run = lambda config, objective: self.call(original_run, config, objective, records)
        OUT_DIR.mkdir(exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
                outputs = []
                t0 = time.perf_counter()
                for function in functions:
                    csvs = []
                    for strategy in strategies:
                        self._function = function
                        out_dir = os.path.join(tmp, function, strategy)
                        spec = cli.RunSpec(function=function, dim=self.w.dim, strategy=strategy,
                                           seeds=tuple(seeds), popsize=self.w.popsize,
                                           max_iter=BUDGETS[function], sigma0=1.0, x0=None,
                                           out_dir=out_dir)
                        n0 = len(records)
                        code = None
                        try:
                            with contextlib.redirect_stdout(io.StringIO()):
                                code = cli.run_experiment(spec)
                        except Exception:
                            pass  # the raising run is recorded; its later seeds never ran
                        csvs += [os.path.join(out_dir, f"{function}_{strategy}_{r.seed}.csv")
                                 for r in records[n0:] if r.error is None]
                        outputs.append((out_dir, code, records[n0:]))
                    if csvs:
                        plotting.emit_plot_data(csvs, os.path.join(tmp, function, "plot"))
                wall = time.perf_counter() - t0
                out_bytes = self._check_cli_outputs(tmp, outputs)
        finally:
            cli.run = original_run
        return Pass(wall, records, out_bytes=out_bytes)

    def _check_cli_outputs(self, tmp: str, outputs) -> dict:
        cli_bytes = 0
        for out_dir, code, recs in outputs:
            failed = any(r.error for r in recs)
            if not failed and code != 0:
                self.problem(f"{out_dir}: run_experiment returned {code!r}")
            for r in recs:
                if r.error:
                    continue
                path = os.path.join(out_dir, f"{r.function}_{r.strategy}_{r.seed}.csv")
                data = Path(path).read_bytes()
                cli_bytes += len(data)
                lines = data.decode().splitlines()
                if lines[0] != CSV_HEADER:
                    self.problem(f"{path}: header {lines[0]!r} is not the frozen schema")
                if len(lines) - 1 != r.iterations:
                    self.problem(f"{path}: {len(lines) - 1} rows for {r.iterations} iterations")
                expected = self.digests.get(os.path.basename(path))
                if expected is not None:
                    self.digest_checked += 1
                    self.digest_mismatch += hashlib.sha256(data).hexdigest() != expected
            if failed:
                continue
            summary_path = os.path.join(out_dir, "summary.json")
            cli_bytes += os.path.getsize(summary_path)
            summary = json.loads(Path(summary_path).read_text())
            got = [(e["seed"], e["iterations"], e["stop_reason"]) for e in summary]
            want = [(r.seed, r.iterations, r.stop_reason) for r in recs]
            if got != want:
                self.problem(f"{summary_path}: entries {got} do not match the runs {want}")
        plot_files = glob.glob(os.path.join(tmp, "*", "plot", "*"))
        return {"cli": cli_bytes, "plotting": sum(os.path.getsize(p) for p in plot_files)}

    def _hooks(self) -> dict:
        counts = self.tracer.counts

        def variates(_args, _kwargs, out):
            counts["rng.variates"] += out.size

        def repaired(args, kwargs, out):
            m = args[0] if args else kwargs.get("m")
            if out is not m and not np.array_equal(out, m):
                counts["linalg.spd_repair.fired"] += 1

        return {"rng.standard_normals": variates, "linalg.spd_repair": repaired}

    def warm_up(self, bench_seed: int) -> None:
        """One untimed run of the default seed set, picked by ``bench_seed``.

        On cli-d2 its trace CSV is checked against the stored digest, so every
        invocation checks at least one frozen trace whatever its seed. When
        tracing, the run is made twice and every span count must repeat exactly.
        """
        runs = [(s, f, st) for s in self.w.seeds for f in FUNCTIONS for st in self.w.strategies]
        seed, function, strategy = runs[bench_seed % len(runs)]
        traced = self.tracer is not None
        counts = []
        for _ in range(2 if traced else 1):
            p = self.run_pass(traced, seeds=(seed,), functions=(function,), strategies=(strategy,))
            if traced:
                calls = {n: v["calls"] for n, v in self.tracer.summary(*p.spans).items()}
                counts.append((calls, dict(p.counts)))
        if traced and counts[0] != counts[1]:
            self.problem(f"span counts of warm-up run {(function, strategy, seed)} do not repeat: "
                         f"{counts[0]} != {counts[1]}")


def median_none_worst(values):
    """Median over runs, where ``None`` (target never reached) counts as worst."""
    return statistics.median([math.inf if v is None else v for v in values])


def measure_setup() -> list[float]:
    """Seconds for a fresh interpreter to import bcmaes and resolve one benchmark."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_passes(harness: Harness, seconds: float, traced: bool) -> list[Pass]:
    """Whole passes over the seed set, as many as come closest to ``seconds``.

    Another pass starts while less than half a pass would be left over.
    Traced: traced and untraced passes alternate, at least one of each; the
    untraced ones give the tracing overhead.
    """
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        passes.append(harness.run_pass(traced and len(passes) % 2 == 0))
        elapsed = time.perf_counter() - t0
        if traced and len(passes) < 2:
            continue
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def end_to_end(harness: Harness, passes: list[Pass], setup: list[float]):
    """End-to-end metrics (value, unit, sample count) and the run-quality summary."""
    records = [r for p in passes for r in p.records]
    samples = np.concatenate([np.diff(np.array(r.ticks, dtype=np.int64)) for r in records]) / 1e3
    p50, p90, p99 = np.percentile(samples, [50, 90, 99])
    evals = sum(r.calls for r in records)
    wall = sum(p.wall_s for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"{len(setup)} fresh interpreters"),
        "evals_per_s": (evals / wall, "1/s", f"{evals} evals in {len(passes)} passes"),
        "iter_us_p50": (float(p50), "us", f"{samples.size} iterations"),
        "iter_us_p90": (float(p90), "us", f"{samples.size} iterations"),
        "iter_us_p99": (float(p99), "us", f"{samples.size} iterations"),
        "peak_rss_mb": (rss_mb, "MB", "1 process"),
    }
    # Quality: every run key once (outcomes repeat exactly across passes).
    first = {}
    cross_s = {}
    for r in records:
        first.setdefault(r.key, r)
        if r.cross_iter is not None:
            cross_s.setdefault(r.key, []).append((r.ticks[r.cross_iter] - r.ticks[0]) / 1e9)
    runs = list(first.values())
    n = len(runs)
    quality = {}
    if harness.w.has_target:
        solved = sum(r.cross_iter is not None for r in runs)
        quality["time_to_target_s_p50"] = (
            median_none_worst(statistics.median(cross_s[r.key]) if r.key in cross_s else None
                           for r in runs), "s", f"{n} runs, median over {len(passes)} passes")
        quality["iters_to_target_p50"] = (
            median_none_worst(r.cross_iter for r in runs), "iterations", f"{n} runs")
        quality["solved_frac"] = (solved / n, "ratio", f"{solved}/{n} runs")
    ok = [r for r in runs if r.error is None]
    quality["final_log10_err_p50"] = (
        statistics.median(math.log10(max(r.final_err, 0.0) + 1e-16) for r in ok) if ok
        else math.nan, "log10", f"{len(ok)} finished runs")
    failed = sum(r.error is not None for r in runs)
    quality["fail_frac"] = (failed / n, "ratio", " ".join(
        [f"{failed}/{n} runs"] + [f"{r.key}:{r.error}" for r in runs if r.error]))
    return metrics, quality


def per_layer(harness: Harness, passes: list[Pass]):
    """Per-layer metrics from the traced passes (median over them for times)."""
    tracer = harness.tracer
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    rows, counts = [], []
    for p in traced:
        s = tracer.summary(*p.spans)
        # a run that raised also started (and sampled in) the iteration it raised in
        iters = sum(r.iterations + (r.error is not None) for r in p.records)
        runs = len(p.records)

        def calls(name):
            return s.get(name, {}).get("calls", 0)

        def self_s(prefix):
            return sum(v["self_s"] for n, v in s.items()
                       if n == prefix or n.startswith(prefix + "."))

        row = {"trace.wall_s": p.wall_s, "optimizer.iterations": iters}
        for layer in ("linalg", "rng", "likelihood", "niw", "restart", "benchmarks", "optimizer"):
            row[f"{layer}.self_s"] = self_s(layer)
        row["optimizer.run.self_s"] = self_s("optimizer.run")
        for name in ("cli", "plotting"):
            row[f"{name}.share"] = self_s(name) / p.wall_s
        for name in ("linalg.mvn_pdf", "linalg.cholesky", "linalg.check_symmetric",
                     "linalg.sample_mvn", "linalg.spd_repair", "rng.standard_normals",
                     "likelihood.corrected_covariance", "likelihood.rank_candidates",
                     "likelihood.summarize", "likelihood.CandidateSet", "niw.SummaryStats",
                     "niw.NiwParams", "niw.posterior_update", "restart.step_restart",
                     "benchmarks.objective", "cli.write_trace_csv", "plotting.emit_plot_data"):
            row[f"{name}.incl_share"] = s.get(name, {}).get("incl_s", 0.0) / p.wall_s
        for name in ("linalg.cholesky", "linalg.check_symmetric", "linalg.mvn_pdf",
                     "linalg.spd_repair", "niw.expected_covariance"):
            row[f"{name}.per_iter"] = calls(name) / iters
        repairs = calls("linalg.spd_repair")
        row["linalg.spd_repair.fired_frac"] = (
            p.counts.get("linalg.spd_repair.fired", 0) / repairs if repairs else 0.0)
        row["linalg.spd_repair.failed"] = p.counts.get("linalg.spd_repair", 0)
        row["rng.variates_per_iter"] = p.counts.get("rng.variates", 0) / iters
        row["benchmarks.objective.calls"] = calls("benchmarks.objective")
        for event in ("dilate", "contract", "restart"):
            row[f"restart.{event}.per_run"] = sum(r.events.get(event, 0) for r in p.records) / runs
        row["cli.bytes"] = p.out_bytes.get("cli", 0)
        row["plotting.bytes"] = p.out_bytes.get("plotting", 0)
        row["trace.accounted_frac"] = sum(v["self_s"] for v in s.values()) / p.wall_s
        rows.append(row)
        counts.append({n: v["calls"] for n, v in s.items()})
    if any(c != counts[0] for c in counts):
        harness.problem("span call counts differ between traced passes")
    layer = {}
    for name in rows[0]:
        vals = [row[name] for row in rows]
        layer[name] = statistics.median(vals) if name.endswith(("_s", "share")) else vals[0]
    layer["cli.trace_digest_mismatch"] = harness.digest_mismatch
    layer["trace.overhead_frac"] = (statistics.median(p.wall_s for p in traced)
                                    / statistics.median(p.wall_s for p in untraced) - 1.0)
    return layer


def environment() -> dict:
    """Versions, core count and source identity recorded with every result."""
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "bcmaes").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def measure(bcmaes, name: str, bench_seed: int, seconds: float, trace: bool, setup,
            declared) -> dict:
    """Warm up, run timed passes, check outputs and print one workload's metrics."""
    harness = Harness(bcmaes, name, bench_seed)
    if trace:
        harness.tracer = Tracer()
    harness.warm_up(bench_seed)
    passes = run_passes(harness, seconds, trace)
    print(f"== {name}: seeds {harness.seeds}, k={harness.k}, d={harness.w.dim}, "
          f"{len(passes)} passes ({sum(p.traced for p in passes)} traced)")
    outcomes = {}
    for r in (r for p in passes for r in p.records):
        if outcomes.setdefault(r.key, r.outcome) != r.outcome:
            harness.problem(f"{r.key}: outcome {r.outcome} differs from {outcomes[r.key]}")
    timed = [p for p in passes if not p.traced]
    e2e, quality = end_to_end(harness, timed, setup) if not trace else ({}, {})
    layer = per_layer(harness, passes) if trace else {}
    for metric, (value, unit, n) in {**e2e, **quality}.items():
        print(f"  {metric:24s} {value:14.6g} {unit:10s} n={n}")
    for metric, value in layer.items():
        print(f"  {metric:40s} {value:14.6g}")
    if harness.digest_checked:
        print(f"  trace digests: {harness.digest_checked - harness.digest_mismatch}/"
              f"{harness.digest_checked} match {DIGESTS.name}")
    if trace:
        s = harness.tracer.summary(*passes[0].spans)
        print("  first traced pass, span calls and self time:")
        for span, v in sorted(s.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {span:40s} {v['calls']:9d} {v['self_s']:10.4f} s")
        OUT_DIR.mkdir(exist_ok=True)
        harness.tracer.save(OUT_DIR / f"spans-{name}.npz")
    records = [r for p in passes for r in p.records]
    values = {m: v for m, (v, _, _) in e2e.items()} | layer
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {
        "correct": not harness.problems,
        "attempted": len(records),
        "failed": sum(r.error is not None for r in records),
        "metrics": metrics,
        "printed": {m: {"value": v, "unit": u, "n": n}
                    for m, (v, u, n) in {**e2e, **quality}.items()},
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "runs": len(p.records)}
                   for p in passes],
        "problems": harness.problems[:50],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs the documented seed sets; n > 0 a disjoint set")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must be in [0, 2**40)")
    bcmaes = import_package()
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    # set-up time is measured before any workload runs in this process
    setup = [] if args.trace else measure_setup()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(bcmaes, n, args.seed, args.seconds, bool(args.trace), setup, declared)
               for n in names}
    OUT_DIR.mkdir(exist_ok=True)
    for n, res in results.items():
        (OUT_DIR / f"{n}-trace{args.trace}.json").write_text(
            json.dumps({"workload": n, "seed": args.seed, "env": env, **res}, indent=1) + "\n")
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, res in results.items() for m, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The bits and convergence gate: check the trace digests and the three convergence scans.

One pass checks two references:

- ``tests/golden_traces.json``, 244 SHA-256 digests. ``full``: one per run
  of ``RUNS`` (204), over every ``IterationTrace`` field (floats as
  ``float.hex``), then ``x_best``, ``f_best``, the stop reason, ``n_evals``
  and ``nan_evals``, or over the exception a run raised. ``csv``: one per
  d=2 run at sigma0 = 1 (40), over its trace CSV, written from the run's
  result by the CLI's own writer, as ``run_experiment`` writes it.
  ``RUNS`` covers all four functions at d=2 (both strategies at the
  acceptance criterion 7 budgets; 20 iterations at sigma0 = 1e-100 and
  1e-160, where the squares of the covariance in x underflow), d=10, d=40
  with popsize 15 < d, and d=100 at sigma0 = 1 and 1e3.
- ``docs/convergence/<scan>.json``, the records of one scan of ``SCANS``:
  every function of ``STUDY`` once per seed, from its default start with
  sigma0 = 1 and the default popsize. A record says how the run was made
  (``PARAMETERS``), the iteration whose best-so-far error first crosses the
  threshold (null when it never does), the final error and its log10 (null
  when not positive), the stop reason, and whether the run raised or
  dilated.

Each distinct config (function, dim, resolved popsize, seed, max_iter,
sigma0, strategy) runs once and feeds both references. A scan is checked
against its reference under a fixed rule, per function:

- at d=2, neither the median nor the q3 crossing iteration may get worse,
  a run that never crosses the threshold counting as +inf; nor may the
  number of seeds that cross fall, which is what a function with more
  misses than crossings (both quantiles +inf) can still show;
- at any other d, the median final log10 error may not rise by more than
  0.1; a run that hits the minimum exactly counts as -inf;
- no run of the scan may raise.

Quantiles are linear percentiles, and an interpolation that touches an
infinite value takes that value. d=100 trajectories depend on the BLAS
thread count, so ``OPENBLAS_NUM_THREADS`` defaults to 1; a value already
set is kept and recorded in the golden file. The digests also depend on the
CPU, through the kernels that BLAS, numpy and the C library pick for it, so
the golden file records the machine it was written on too (``machine``).

Usage:
    PYTHONPATH=src python scripts/calibrate_convergence.py [--write]

Prints a ``note:`` line for the thread count and for each entry of the
machine record that differs from the golden file's, then each key whose
digest differs, is missing from the golden file or is extra in it, then
``N/N equal``; then ``<scan> <function>: ok`` or ``FAIL``,
or ``<scan>: missing``. The run count and wall time go to stderr. Exits 1
on any digest difference, violation or missing reference, and 2, before
writing anything, when a reference was made with another dimension or other
runs than its scan. ``--write`` then rewrites the golden file and every
reference, unless a convergence comparison failed: moving bits is what it
is for, so a digest difference does not block it.
"""

import os

BLAS_THREADS = os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple, Optional  # noqa: E402

import numpy as np  # noqa: E402

from bcmaes import BcmaesError, OptimizerConfig, default_popsize, registry_lookup, run  # noqa: E402
from bcmaes.cli import write_trace_csv  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_traces.json"
REFERENCES = ROOT / "docs" / "convergence"

# (threshold on error_vs_min, iteration cap of the d=2 scan)
STUDY = {
    "cone": (1e-6, 1200),
    "schwefel2": (1e-5, 1800),
    "rastrigin": (1e-2, 500),
    "schwefel1": (1.0, 500),
}

# (dim, seeds, iteration cap); a cap of None is each function's own in STUDY
SCANS = {
    "d2": (2, range(1, 61), None),
    "d10": (10, range(1, 31), 300),
    "d40": (40, range(1, 31), 300),
}

# acceptance criterion 7 budgets at d=2
BUDGETS = {"cone": 900, "schwefel2": 1500, "rastrigin": 500, "schwefel1": 500}

# the record fields that say how a run was made
PARAMETERS = ("function", "seed", "dim", "popsize", "max_iter", "threshold")

MAX_LOG10_RISE = 0.1


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

    def resolved(self) -> "Run":
        """This run with its population size resolved, so both ways to ask for the default match."""
        return self._replace(popsize=self.popsize or default_popsize(self.dim))


RUNS = (
    [Run(f, 2, None, seed, BUDGETS[f], strategy=s)
     for s in ("s1", "s2") for f in STUDY for seed in (4, 5, 7, 12, 13)]
    + [Run(f, 40, 15, seed, 300) for seed in range(1, 31) for f in STUDY]
    + [Run(f, 10, None, seed, 300) for seed in (1, 2, 3) for f in STUDY]
    + [Run(f, 100, None, seed, 300, sigma0)
       for sigma0 in (1.0, 1e3) for seed in (1, 2, 3) for f in STUDY]
    + [Run(f, 2, None, 1, 20, sigma0) for sigma0 in (1e-100, 1e-160) for f in STUDY]
)


def scan_runs(name):
    """The runs of scan ``name``, in the order of its records."""
    dim, seeds, cap = SCANS[name]
    return [Run(f, dim, None, seed, cap or own_cap)
            for f, (_, own_cap) in STUDY.items() for seed in seeds]


def outcome(r: Run):
    """The ``RunResult`` of run ``r``, or the ``BcmaesError`` it raised."""
    bench = registry_lookup(r.function, r.dim)
    config = OptimizerConfig(dim=r.dim, x0=bench.default_x0, sigma0=r.sigma0, popsize=r.popsize,
                             max_iter=r.max_iter, strategy=r.strategy, seed=r.seed)
    try:
        return run(config, bench.fn)
    except BcmaesError as exc:
        return exc


def digest(result) -> str:
    """SHA-256 of one run's trace and result, floats in hex, or of the error it raised."""
    h = hashlib.sha256()
    if isinstance(result, BcmaesError):
        h.update(f"{type(result).__name__}: {result}".encode())
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


def first_cross(trace, threshold, reference):
    return next((t.iter for t in trace if t.f_min_so_far - reference <= threshold), None)


def scan_record(r: Run, result):
    """The JSON-ready record of resolved run ``r`` with outcome ``result``."""
    threshold = STUDY[r.function][0]
    record = dict(zip(PARAMETERS, (r.function, r.seed, r.dim, r.popsize, r.max_iter, threshold)))
    if isinstance(result, BcmaesError):
        return {**record, "crossing": None, "final_error": None, "final_log10_error": None,
                "stop_reason": None, "raised": True, "error": str(result), "dilated": False}
    minimum = registry_lookup(r.function, r.dim).global_min_value
    error = result.f_best - minimum
    return {
        **record,
        "crossing": first_cross(result.trace, threshold, minimum),
        "final_error": error,
        "final_log10_error": math.log10(error) if error > 0 else None,
        "stop_reason": result.stop_reason,
        "raised": False,
        "error": None,
        "dilated": any(t.event == "dilate" for t in result.trace),
    }


def csv_digest(r: Run, result, out_dir: str) -> tuple[str, str]:
    """The name and digest of d=2 run ``r``'s trace CSV, written from its ``result``."""
    name = f"{r.function}_{r.strategy}_{r.seed}.csv"
    path = Path(out_dir) / name
    write_trace_csv(str(path), result.trace, registry_lookup(r.function, r.dim).global_min_value)
    return name, hashlib.sha256(path.read_bytes()).hexdigest()


def _openblas_core() -> str:
    """The kernel set that numpy's bundled OpenBLAS picked for this CPU, such as ``SkylakeX``."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _numpy_simd() -> list[str]:
    """The SIMD targets numpy dispatches to on this CPU; empty at numpy's baseline."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f))


def _libc() -> Optional[str]:
    """The C library and its version, such as ``glibc 2.36``; ``None`` where Python cannot tell."""
    return " ".join(platform.libc_ver()).strip() or None


def machine() -> dict:
    """The golden file's machine record: what the digests' bits depend on beside the install.

    Each entry is ``None`` where its probe cannot answer on this machine or
    install. The probes live here and not in the package, so that
    ``import bcmaes`` loads nothing more.
    """
    record = {}
    for name, probe in (("openblas_core", _openblas_core), ("numpy_simd", _numpy_simd),
                        ("libc", _libc)):
        try:
            record[name] = probe()
        except (AttributeError, ImportError, IndexError, OSError):
            record[name] = None
    return record


def machine_notes(recorded: dict, here: dict) -> list[str]:
    """One ``note:`` line per entry in which machine record ``here`` differs from ``recorded``."""
    return [f"note: {name} {json.dumps(here[name])}, the file was written on "
            f"{json.dumps(recorded.get(name))}"
            for name in here if recorded.get(name) != here[name]]


def measure():
    """Run ``RUNS`` and the scans; return the digests, the scans' documents and the run count.

    The digests come in the golden file's layout. Each distinct resolved
    config runs once, and its outcome feeds every digest and record of it.
    A run that raised writes no CSV, so its CSV digest is missing.
    """
    scans = {name: scan_runs(name) for name in SCANS}
    made_by = {}  # resolved config -> the runs of RUNS that make it
    for r in RUNS:
        made_by.setdefault(r.resolved(), []).append(r)
    for r in itertools.chain(*scans.values()):
        made_by.setdefault(r.resolved(), [])
    full, records, csv = {}, {}, {}
    with tempfile.TemporaryDirectory() as out_dir:
        for config, runs in made_by.items():
            result = outcome(config)
            records[config] = scan_record(config, result)
            full.update((r.key, digest(result)) for r in runs)
            csv.update(csv_digest(r, result, out_dir) for r in runs
                       if r.dim == 2 and r.sigma0 == 1.0 and not isinstance(result, BcmaesError))
    docs = {name: {"dim": SCANS[name][0], "seeds": len(SCANS[name][1]),
                   "runs": [records[r.resolved()] for r in runs]}
            for name, runs in scans.items()}
    digests = {"openblas_num_threads": BLAS_THREADS, "machine": machine(), "csv": csv, "full": full}
    return digests, docs, len(made_by)


def check_digests(golden: dict, new: dict) -> bool:
    """Print every key whose digest is not the golden one; return whether any is not."""
    if golden:
        if golden.get("openblas_num_threads") != new["openblas_num_threads"]:
            print(f"note: OPENBLAS_NUM_THREADS {new['openblas_num_threads']}, the file was "
                  f"written under {golden.get('openblas_num_threads')}")
        for note in machine_notes(golden.get("machine", {}), new["machine"]):
            print(note)
    want = {**golden.get("csv", {}), **golden.get("full", {})}
    got = {**new["csv"], **new["full"]}
    keys = sorted(set(want) | set(got))
    differ = [key for key in keys if want.get(key) != got.get(key)]
    for key in differ:
        side = "missing" if key not in want else "extra" if key not in got else "differs"
        print(f"{key}: {side}")
    print(f"{len(keys) - len(differ)}/{len(keys)} equal")
    return bool(differ)


def quantile(values, q):
    """The q-th percentile by linear interpolation; an infinite neighbour wins."""
    v = sorted(values)
    pos = q / 100 * (len(v) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if v[lo] == v[hi]:
        return v[lo]
    for end in (v[lo], v[hi]):
        if math.isinf(end):
            return end
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def by_function(doc):
    """Map each function, in document order, to its records sorted by seed."""
    out = {}
    for r in doc["runs"]:
        out.setdefault(r["function"], []).append(r)
    return {f: sorted(rs, key=lambda r: r["seed"]) for f, rs in out.items()}


def crossings(records):
    return [math.inf if r["crossing"] is None else r["crossing"] for r in records]


def crossed(records):
    return sum(r["crossing"] is not None for r in records)


def log10_errors(records):
    # a raised run has no error either; the raise itself is the violation
    return [-math.inf if r["final_log10_error"] is None else r["final_log10_error"]
            for r in records]


def compare_function(function, ref, new, dim):
    """One report line for ``function`` and whether it violates the rule."""
    raised = sum(r["raised"] for r in new)
    parts, bad = [], raised > 0
    if dim == 2:
        for name, q in (("median", 50), ("q3", 75)):
            a, b = quantile(crossings(ref), q), quantile(crossings(new), q)
            worse = b > a
            bad |= worse
            parts.append(f"{name} crossing {a:g} -> {b:g}{' WORSE' if worse else ''}")
        a, b = crossed(ref), crossed(new)
        worse = b < a
        bad |= worse
        parts.append(f"crossed {a} -> {b}{' WORSE' if worse else ''}")
    else:
        a, b = quantile(log10_errors(ref), 50), quantile(log10_errors(new), 50)
        worse = b - a > MAX_LOG10_RISE
        bad |= worse
        parts.append(f"median log10 error {a:.3f} -> {b:.3f}{' WORSE' if worse else ''}")
    parts.append(f"raised {sum(r['raised'] for r in ref)} -> {raised}")
    return f"{function}: {'FAIL' if bad else 'ok'}: " + ", ".join(parts), bad


def compare(name, ref, new):
    """Check scan ``name``'s document ``new`` against ``ref``, one line per function.

    Returns 0 when every function keeps the rule, 1 on any violation and 2
    when the two documents differ in dimension or in any run's parameters.
    """
    if ref["dim"] != new["dim"]:
        print(f"{name}: the reference is at d={ref['dim']}, the scan at d={new['dim']}",
              file=sys.stderr)
        return 2
    made = [[tuple(r.get(k) for k in PARAMETERS) for r in doc["runs"]] for doc in (ref, new)]
    for a, b in itertools.zip_longest(*made):
        if a != b:
            print(f"{name}: the reference ran {a}, the scan {b}", file=sys.stderr)
            return 2
    failed, scanned = False, by_function(new)
    for function, records in by_function(ref).items():
        line, bad = compare_function(function, records, scanned[function], ref["dim"])
        print(f"{name} {line}")
        failed |= bad
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true",
                        help="rewrite the golden file and every reference, "
                             "only when no convergence comparison failed")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    digests, docs, runs = measure()
    print(f"{runs} runs in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    differ = check_digests(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}, digests)
    failed = False
    for name, doc in docs.items():
        path = REFERENCES / f"{name}.json"
        if not path.exists():
            print(f"{name}: missing")
            failed |= not args.write
            continue
        code = compare(name, json.loads(path.read_text()), doc)
        if code == 2:
            return 2
        failed |= code == 1
    if not args.write or failed:
        return 1 if failed or differ else 0
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    for name, doc in docs.items():
        with open(REFERENCES / f"{name}.json", "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

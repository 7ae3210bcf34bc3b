#!/usr/bin/env python3
"""Run the three convergence scans and check each against its reference in ``docs/convergence/``.

A scan runs every function of ``STUDY`` once per seed, from its default
start with sigma0 = 1 and the default population size for the dimension,
4 + floor(3 ln dim). ``SCANS`` fixes the three scans:

- ``d2``: d=2, seeds 1-60, each function's own cap in ``STUDY``; the
  study behind docs/calibration.md;
- ``d10`` and ``d40``: d=10 and d=40, seeds 1-30, 300 iterations.

Each run gives one record: how it was made (function, seed, dim, popsize,
max_iter, threshold), the iteration whose best-so-far error first crosses
the threshold (null when it never does), the final best-so-far error and
its log10 (null when the error is not positive), the stop reason, whether
the run raised ``PriorDegeneracy`` and whether it dilated. The reference
``docs/convergence/<scan>.json`` holds a scan's records.

A scan is checked against its reference under a fixed rule, per function:

- at d=2, neither the median nor the q3 crossing iteration may get worse,
  a run that never crosses the threshold counting as +inf; nor may the
  number of seeds that cross fall, which is what a function with more
  misses than crossings (both quantiles +inf) can still show;
- at any other d, the median final log10 error may not rise by more than
  0.1; a run that hits the minimum exactly counts as -inf;
- no run of the scan may raise.

Quantiles are linear percentiles, and an interpolation that touches an
infinite value takes that value.

Usage:
    PYTHONPATH=src python scripts/calibrate_convergence.py [--write]

With no flag every scan runs, and ``<scan> <function>: ok`` or ``FAIL``
is printed per scan and function; a missing reference prints
``<scan>: missing``. The exit status is 1 on any violation or missing
reference, and 2 when a reference was made with another dimension or
other runs than its scan. ``--write`` runs the same check, then writes
every scan's records to its reference only when no comparison failed, for
a change meant to move bits; a missing reference is created.
"""

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

from bcmaes.benchmarks import registry_lookup
from bcmaes.errors import PriorDegeneracy
from bcmaes.optimizer import OptimizerConfig, run

REFERENCES = Path(__file__).resolve().parent.parent / "docs" / "convergence"

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

# the record fields that say how a run was made
PARAMETERS = ("function", "seed", "dim", "popsize", "max_iter", "threshold")

MAX_LOG10_RISE = 0.1


def first_cross(trace, threshold, reference):
    return next((t.iter for t in trace if t.f_min_so_far - reference <= threshold), None)


def scan_run(function, bench, cfg):
    """One seeded run of a scan, as a JSON-ready record."""
    threshold = STUDY[function][0]
    record = dict(zip(PARAMETERS, (function, cfg.seed, cfg.dim, cfg.k, cfg.max_iter, threshold)))
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


def scan(name):
    """The document of scan ``name``: its dimension, seed count and records."""
    dim, seeds, cap = SCANS[name]
    runs = []
    for function, (_, own_cap) in STUDY.items():
        bench = registry_lookup(function, dim)
        runs += [scan_run(function, bench, OptimizerConfig(
            dim=dim, x0=bench.default_x0, sigma0=1.0, seed=seed, max_iter=cap or own_cap))
            for seed in seeds]
    return {"dim": dim, "seeds": len(seeds), "runs": runs}


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
                        help="rewrite every reference, only when no comparison failed")
    args = parser.parse_args(argv)
    docs, failed = {}, False
    for name in SCANS:
        docs[name] = scan(name)
        path = REFERENCES / f"{name}.json"
        if not path.exists():
            print(f"{name}: missing")
            failed |= not args.write
            continue
        code = compare(name, json.loads(path.read_text()), docs[name])
        if code == 2:
            return 2
        failed |= code == 1
    if args.write and not failed:
        for name, doc in docs.items():
            with open(REFERENCES / f"{name}.json", "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

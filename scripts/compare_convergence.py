#!/usr/bin/env python3
"""Compare two convergence scans under a fixed rule; exit 1 if NEW is worse than REF.

REF and NEW are documents printed by ``calibrate_convergence.py --json`` for
the same dimension and the same seeds. The rule, per function:

- at d=2, neither the median nor the q3 crossing iteration may get worse,
  a run that never crosses the threshold counting as +inf; nor may the
  number of seeds that cross fall, which is what a function with more
  misses than crossings (both quantiles +inf) can still show;
- at any other d (the references are d=10 and d=40), the median final
  log10 error may not rise by more than 0.1; a run that hits the minimum
  exactly counts as -inf;
- no run of NEW may raise.

Quantiles are linear percentiles, and an interpolation that touches an
infinite value takes that value. The script prints one line per function
and exits 1 on any violation, 2 when the documents cannot be compared.

Usage:
    python scripts/compare_convergence.py docs/convergence/d2.json new_d2.json
"""

import argparse
import json
import math
import sys

MAX_LOG10_RISE = 0.1


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("ref", help="reference scan (calibrate_convergence.py --json)")
    parser.add_argument("new", help="scan of the change under test")
    args = parser.parse_args()
    with open(args.ref) as f:
        ref = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    if ref["dim"] != new["dim"]:
        parser.error(f"dimensions differ: {ref['dim']} vs {new['dim']}")
    ref_runs, new_runs = by_function(ref), by_function(new)
    if set(ref_runs) != set(new_runs):
        parser.error(f"functions differ: {sorted(ref_runs)} vs {sorted(new_runs)}")
    failed = False
    for function, records in ref_runs.items():
        others = new_runs[function]
        if [r["seed"] for r in records] != [r["seed"] for r in others]:
            parser.error(f"{function}: the two scans ran different seeds")
        line, bad = compare_function(function, records, others, ref["dim"])
        print(line)
        failed |= bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

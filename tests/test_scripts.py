"""The calibration scan's machine-readable mode and the comparator of two scans."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_calibration_scan_json_records():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "calibrate_convergence.py"), "--json",
         "--seeds", "2", "--dim", "3", "--max-iter", "20"],
        env=env, capture_output=True, text=True, check=True).stdout
    doc = json.loads(out)
    runs = doc["runs"]
    assert doc["dim"] == 3
    assert [(r["function"], r["seed"]) for r in runs] == [
        (f, s) for f in ("cone", "schwefel2", "rastrigin", "schwefel1") for s in (1, 2)]
    for r in runs:
        assert (r["dim"], r["popsize"], r["max_iter"]) == (3, 7, 20)  # 4 + floor(3 ln 3)
        assert r["raised"] is False and r["stop_reason"] == "MaxIter"
        assert r["final_log10_error"] is not None or r["final_error"] <= 0
        assert r["crossing"] is None or 1 <= r["crossing"] <= 20


def _scan(dim, crossings=None, log10_errors=None, raised=()):
    """A hand-built ``calibrate_convergence.py --json`` document for one function."""
    values = crossings if dim == 2 else log10_errors
    runs = [{"function": "cone", "seed": seed, "dim": dim, "popsize": 6, "max_iter": 50,
             "threshold": 1e-6, "crossing": value if dim == 2 else None,
             "final_error": None, "final_log10_error": None if dim == 2 else value,
             "stop_reason": "MaxIter", "raised": seed in raised, "error": None,
             "dilated": False}
            for seed, value in enumerate(values, start=1)]
    return {"dim": dim, "seeds": len(runs), "runs": runs}


def _compare(tmp_path, ref, new):
    paths = []
    for name, doc in (("ref.json", ref), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_convergence.py"),
                           *paths], capture_output=True, text=True)


D2_REF = _scan(2, crossings=[10, 20, 30, 40, None])  # median 30, q3 40
D10_REF = _scan(10, log10_errors=[-1.0, -2.0, -3.0])  # median -2


@pytest.mark.parametrize("ref", [D2_REF, D10_REF], ids=["d2", "d10"])
def test_comparator_passes_a_scan_against_itself(tmp_path, ref):
    out = _compare(tmp_path, ref, ref)
    assert out.returncode == 0, out.stdout + out.stderr
    assert len(out.stdout.splitlines()) == 1  # one line per function
    assert out.stdout.startswith("cone: ok:")


@pytest.mark.parametrize("new,code", [
    (_scan(2, crossings=[10, 20, 30, 45, None]), 1),  # q3 40 -> 45
    (_scan(2, crossings=[10, 20, 30, None, None]), 1),  # a miss counts as +inf
    (_scan(2, crossings=[9, 20, 30, 40, None]), 0),  # a better run changes neither quantile
    (_scan(2, crossings=[10, 20, 30, 40, None], raised=(1,)), 1),
    (_scan(10, log10_errors=[-0.8, -1.8, -2.8]), 1),  # +0.2
    (_scan(10, log10_errors=[-0.95, -1.95, -2.95]), 0),  # +0.05 is within the bound
    (_scan(10, log10_errors=[-1.0, -2.0, -3.0], raised=(3,)), 1),
], ids=["worse-q3", "miss", "better", "d2-raised", "log10-rise", "log10-within", "d10-raised"])
def test_comparator_applies_the_rule(tmp_path, new, code):
    ref = D2_REF if new["dim"] == 2 else D10_REF
    out = _compare(tmp_path, ref, new)
    assert out.returncode == code, out.stdout + out.stderr
    assert out.stdout.startswith("cone: FAIL:" if code else "cone: ok:")


def test_comparator_refuses_scans_of_different_seeds(tmp_path):
    out = _compare(tmp_path, D2_REF, _scan(2, crossings=[10, 20, 30, 40]))
    assert out.returncode == 2
    assert "different seeds" in out.stderr

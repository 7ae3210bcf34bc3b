"""The calibration scan's machine-readable mode, the comparator of two scans and the ndtri check."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
D2_REFERENCE = ROOT / "docs" / "convergence" / "d2.json"


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


def test_comparator_passes_the_d2_reference_against_itself(tmp_path):
    ref = json.loads(D2_REFERENCE.read_text())
    out = _compare(tmp_path, ref, ref)
    assert out.returncode == 0, out.stdout + out.stderr
    assert [line.split(":")[:2] for line in out.stdout.splitlines()] == [
        [f, " ok"] for f in ("cone", "schwefel2", "rastrigin", "schwefel1")]


def test_comparator_sees_a_lost_rastrigin_crossing(tmp_path):
    # rastrigin crosses in fewer than half of the reference's seeds, so its
    # median and q3 are +inf either way; only the count of crossings can fall
    ref = json.loads(D2_REFERENCE.read_text())
    new = copy.deepcopy(ref)
    lost = next(r for r in new["runs"] if r["function"] == "rastrigin" and r["crossing"])
    lost["crossing"] = None
    out = _compare(tmp_path, ref, new)
    assert out.returncode == 1, out.stdout + out.stderr
    line = next(line for line in out.stdout.splitlines() if line.startswith("rastrigin:"))
    assert line.startswith("rastrigin: FAIL: median crossing inf -> inf, q3 crossing inf -> inf")
    assert "WORSE" in line.split("crossed ")[1]


def _check_ndtri(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "check_ndtri.py"), *args],
                          env=env, capture_output=True, text=True)


def test_check_ndtri_passes_the_port():
    out = _check_ndtri("20000", "--seed", "3")
    assert out.returncode == 0, out.stdout + out.stderr
    stream, edges = out.stdout.splitlines()
    assert stream.startswith("stream: 20000 variates of seed 3, 0 mismatches")
    assert edges.endswith(" 0 mismatches")


def test_check_ndtri_fails_on_a_one_ulp_difference(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("check_ndtri", ROOT / "scripts" / "check_ndtri.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    exact = script.ndtri
    monkeypatch.setattr(script, "ndtri", lambda u: np.nextafter(exact(u), np.inf))
    monkeypatch.setattr(sys, "argv", ["check_ndtri.py", "1000"])
    assert script.main() == 1
    assert "stream: 1000 variates of seed 1, 1000 mismatches" in capsys.readouterr().out

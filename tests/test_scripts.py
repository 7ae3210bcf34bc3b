"""The calibration scan's machine-readable mode."""

import json
import os
import subprocess
import sys
from pathlib import Path

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

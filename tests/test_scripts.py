"""The bits and convergence gate, its rule and its trace digests, and the reproduction script."""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bcmaes import registry_lookup

from _util import ROOT, load_script

D2_REFERENCE = ROOT / "docs" / "convergence" / "d2.json"


GATE = load_script("calibrate_convergence")
RUNS = GATE.RUNS  # the committed digest list, which the fixture below replaces
# one short d=2 scan over two seeds and one d=10 run per function
SUBSET = {"d2": (2, range(1, 3), 20), "d10": (10, range(1, 2), 10)}
# one d=2 run, shortened, whose trace CSV is pinned too: two digests
DIGESTED = [RUNS[0]._replace(max_iter=20)]


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """The gate on ``SUBSET`` and ``DIGESTED``, with its references in ``tmp_path``."""
    monkeypatch.setattr(GATE, "SCANS", SUBSET)
    monkeypatch.setattr(GATE, "RUNS", DIGESTED)
    monkeypatch.setattr(GATE, "REFERENCES", tmp_path)
    monkeypatch.setattr(GATE, "GOLDEN", tmp_path / "golden.json")
    return GATE


def _restyle_golden(gate):
    """Rewrite the golden file with the same digests in other bytes, so any rewrite shows."""
    gate.GOLDEN.write_text(json.dumps(json.loads(gate.GOLDEN.read_text())))


def test_calibration_scan_json_records(gate, tmp_path, capsys):
    # a missing golden file or reference fails the check, and --write creates them
    for argv, code in (([], 1), (["--write"], 0)):
        assert gate.main(argv) == code
        out = capsys.readouterr()
        assert out.out.splitlines() == [f"{DIGESTED[0].key}: missing", "cone_s1_4.csv: missing",
                                        "0/2 equal", "d2: missing", "d10: missing"]
        # 12 scan runs and the digested run, whose CSV is written from its result
        assert out.err.startswith("13 runs in ")
    assert sorted(json.loads(gate.GOLDEN.read_text())) == ["csv", "full", "machine",
                                                           "openblas_num_threads"]
    assert gate.main([]) == 0
    digests, *lines = capsys.readouterr().out.splitlines()
    assert digests == "2/2 equal"
    assert [line.split(":")[:2] for line in lines] == [
        [f"{scan} {f}", " ok"] for scan in SUBSET for f in gate.STUDY]
    keys = list(json.loads(D2_REFERENCE.read_text())["runs"][0])
    for scan, dim, popsize, seeds, cap in (("d2", 2, 6, (1, 2), 20), ("d10", 10, 10, (1,), 10)):
        doc = json.loads((tmp_path / f"{scan}.json").read_text())
        runs = doc["runs"]
        assert (doc["dim"], doc["seeds"]) == (dim, len(seeds))
        assert [(r["function"], r["seed"]) for r in runs] == [
            (f, s) for f in ("cone", "schwefel2", "rastrigin", "schwefel1") for s in seeds]
        for r in runs:
            assert list(r) == keys
            assert (r["dim"], r["popsize"], r["max_iter"]) == (dim, popsize, cap)
            assert r["threshold"] == gate.STUDY[r["function"]][0]
            assert r["raised"] is False and r["stop_reason"] == "MaxIter"
            assert r["final_log10_error"] is not None or r["final_error"] <= 0
            assert r["crossing"] is None or 1 <= r["crossing"] <= cap


def test_calibration_gate_writes_over_a_digest_difference(gate, capsys):
    assert gate.main(["--write"]) == 0
    written = gate.GOLDEN.read_text()
    doc = json.loads(written)
    doc["full"][DIGESTED[0].key] = "0" * 64
    gate.GOLDEN.write_text(json.dumps(doc))
    capsys.readouterr()
    # moving bits is what --write is for: a digest difference fails the
    # check, but only a convergence failure blocks the write
    for argv, code in (([], 1), (["--write"], 0)):
        assert gate.main(argv) == code
        assert capsys.readouterr().out.splitlines()[:2] == [f"{DIGESTED[0].key}: differs",
                                                            "1/2 equal"]
    assert gate.GOLDEN.read_text() == written


def test_calibration_gate_names_another_machine_before_its_digests(gate, capsys):
    # a golden file written on a host whose OpenBLAS picked other kernels
    assert gate.main(["--write"]) == 0
    doc = json.loads(gate.GOLDEN.read_text())
    core = doc["machine"]["openblas_core"]
    other = "Haswell" if core != "Haswell" else "SkylakeX"
    doc["machine"]["openblas_core"] = other
    gate.GOLDEN.write_text(json.dumps(doc))
    capsys.readouterr()
    # the note explains a digest difference; on its own it fails nothing
    assert gate.main([]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        f'note: openblas_core {json.dumps(core)}, the file was written on "{other}"', "2/2 equal"]


def test_calibration_gate_fails_a_better_reference_and_keeps_it(gate, tmp_path, capsys):
    assert gate.main(["--write"]) == 0
    reference = tmp_path / "d10.json"
    doc = json.loads(reference.read_text())
    for r in doc["runs"]:
        r["final_log10_error"] -= 1
    reference.write_text(json.dumps(doc))
    _restyle_golden(gate)
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    for argv in ([], ["--write"]):
        assert gate.main(argv) == 1
        digests, *lines = capsys.readouterr().out.splitlines()
        assert digests == "2/2 equal"
        assert len(lines) == 8 and all(line.startswith("d10 ") == (": FAIL: " in line)
                                       for line in lines)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written


def _rerun_at_cap_1200(doc):
    for r in doc["runs"]:
        r["max_iter"] = 1200
    return "d10: the reference ran ('cone', 1, 10, 10, 1200,"


def _move_to_d11(doc):
    doc["dim"] = 11
    return "d10: the reference is at d=11, the scan at d=10"


@pytest.mark.parametrize("doctor", [_rerun_at_cap_1200, _move_to_d11], ids=["cap", "dim"])
def test_calibration_gate_refuses_a_reference_made_otherwise(gate, tmp_path, capsys, doctor):
    assert gate.main(["--write"]) == 0
    reference = tmp_path / "d10.json"
    doc = json.loads(reference.read_text())
    message = doctor(doc)
    reference.write_text(json.dumps(doc))
    _restyle_golden(gate)
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for argv in ([], ["--write"]):
        assert gate.main(argv) == 2
        assert message in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written


def test_gate_runs_a_config_shared_by_a_digest_and_a_scan_once(gate, monkeypatch, capsys):
    # SUBSET's d10 cone run of seed 1, asking for the default popsize by its value
    shared = GATE.Run("cone", 10, 10, 1, 10)
    monkeypatch.setattr(GATE, "RUNS", [shared])
    real, made = GATE.run, []

    def counting(config, fn):
        made.append((fn, config.dim, config.k, config.seed, config.max_iter))
        return real(config, fn)

    monkeypatch.setattr(GATE, "run", counting)
    assert gate.main(["--write"]) == 0
    # the 12 scan runs, each once; the digest comes from the scan's run
    assert len(made) == len(set(made)) == 12
    assert made.count((registry_lookup("cone", 10).fn, 10, 10, 1, 10)) == 1
    assert capsys.readouterr().err.startswith("12 runs in ")
    monkeypatch.setattr(GATE, "run", real)
    golden = json.loads(gate.GOLDEN.read_text())
    assert golden["full"] == {shared.key: GATE.digest(GATE.outcome(shared))}


def test_convergence_references_hold_the_scans_runs():
    # the committed references, checked against the tables without running them
    from bcmaes import default_popsize

    golden = json.loads(GATE.GOLDEN.read_text())
    assert len(RUNS) == len({r.key for r in RUNS}) == 204
    assert sorted(golden["full"]) == sorted(r.key for r in RUNS)
    assert sorted(golden["csv"]) == sorted(f"{r.function}_{r.strategy}_{r.seed}.csv"
                                           for r in RUNS if r.dim == 2 and r.sigma0 == 1.0)
    assert len(golden["csv"]) == 40
    # 142 of the 204 digested runs are scan runs too: a pass runs 542 configs
    # once each, and writes the 40 CSVs from their results
    digested = {r.resolved() for r in RUNS}
    scanned = {r.resolved() for scan in GATE.SCANS for r in GATE.scan_runs(scan)}
    assert (len(digested & scanned), len(digested | scanned)) == (142, 542)
    assert sorted(p.name for p in D2_REFERENCE.parent.iterdir()) == sorted(
        f"{scan}.json" for scan in GATE.SCANS)
    for scan, (dim, seeds, cap) in GATE.SCANS.items():
        doc = json.loads((D2_REFERENCE.parent / f"{scan}.json").read_text())
        assert (doc["dim"], doc["seeds"]) == (dim, len(seeds))
        assert [tuple(r[k] for k in GATE.PARAMETERS) for r in doc["runs"]] == [
            (f, seed, dim, default_popsize(dim), cap or own_cap, threshold)
            for f, (threshold, own_cap) in GATE.STUDY.items() for seed in seeds]


def _scan(dim, crossings=None, log10_errors=None, raised=()):
    """A hand-built scan document for one function."""
    values = crossings if dim == 2 else log10_errors
    runs = [{"function": "cone", "seed": seed, "dim": dim, "popsize": 6, "max_iter": 50,
             "threshold": 1e-6, "crossing": value if dim == 2 else None,
             "final_error": None, "final_log10_error": None if dim == 2 else value,
             "stop_reason": "MaxIter", "raised": seed in raised, "error": None,
             "dilated": False}
            for seed, value in enumerate(values, start=1)]
    return {"dim": dim, "seeds": len(runs), "runs": runs}


def _compare(capsys, ref, new):
    code = GATE.compare(f"d{ref['dim']}", ref, new)
    return code, capsys.readouterr()


D2_REF = _scan(2, crossings=[10, 20, 30, 40, None])  # median 30, q3 40
D10_REF = _scan(10, log10_errors=[-1.0, -2.0, -3.0])  # median -2


@pytest.mark.parametrize("ref", [D2_REF, D10_REF], ids=["d2", "d10"])
def test_comparator_passes_a_scan_against_itself(capsys, ref):
    code, out = _compare(capsys, ref, ref)
    assert code == 0, out.out + out.err
    assert len(out.out.splitlines()) == 1  # one line per function
    assert out.out.startswith(f"d{ref['dim']} cone: ok:")


@pytest.mark.parametrize("new,code", [
    (_scan(2, crossings=[10, 20, 30, 45, None]), 1),  # q3 40 -> 45
    (_scan(2, crossings=[10, 20, 30, None, None]), 1),  # a miss counts as +inf
    (_scan(2, crossings=[9, 20, 30, 40, None]), 0),  # a better run changes neither quantile
    (_scan(2, crossings=[10, 20, 30, 40, None], raised=(1,)), 1),
    (_scan(10, log10_errors=[-0.8, -1.8, -2.8]), 1),  # +0.2
    (_scan(10, log10_errors=[-0.95, -1.95, -2.95]), 0),  # +0.05 is within the bound
    (_scan(10, log10_errors=[-1.0, -2.0, -3.0], raised=(3,)), 1),
], ids=["worse-q3", "miss", "better", "d2-raised", "log10-rise", "log10-within", "d10-raised"])
def test_comparator_applies_the_rule(capsys, new, code):
    ref = D2_REF if new["dim"] == 2 else D10_REF
    got, out = _compare(capsys, ref, new)
    assert got == code, out.out + out.err
    assert out.out.startswith(f"d{ref['dim']} cone: {'FAIL' if code else 'ok'}:")


def test_comparator_refuses_scans_of_different_seeds(capsys):
    code, out = _compare(capsys, D2_REF, _scan(2, crossings=[10, 20, 30, 40]))
    assert code == 2
    assert out.out == ""
    assert "d2: the reference ran ('cone', 5, 2, 6, 50, 1e-06), the scan None" in out.err


def test_comparator_passes_the_d2_reference_against_itself(capsys):
    ref = json.loads(D2_REFERENCE.read_text())
    code, out = _compare(capsys, ref, ref)
    assert code == 0, out.out + out.err
    assert [line.split(":")[:2] for line in out.out.splitlines()] == [
        [f"d2 {f}", " ok"] for f in ("cone", "schwefel2", "rastrigin", "schwefel1")]


def test_comparator_sees_a_lost_rastrigin_crossing(capsys):
    # rastrigin crosses in fewer than half of the reference's seeds, so its
    # median and q3 are +inf either way; only the count of crossings can fall
    ref = json.loads(D2_REFERENCE.read_text())
    new = copy.deepcopy(ref)
    lost = next(r for r in new["runs"] if r["function"] == "rastrigin" and r["crossing"])
    lost["crossing"] = None
    code, out = _compare(capsys, ref, new)
    assert code == 1, out.out + out.err
    line = next(line for line in out.out.splitlines() if line.startswith("d2 rastrigin:"))
    assert line.startswith("d2 rastrigin: FAIL: median crossing inf -> inf, q3 crossing inf -> inf")
    assert "WORSE" in line.split("crossed ")[1]


def test_gate_compares_equal_digests_and_sees_a_one_ulp_change(gate, monkeypatch, capsys):
    # one d=2 run and one d=40 run with popsize 15 < d, shortened; the d=2 run
    # also pins its trace CSV, so there are three digests; no scan
    subset = [RUNS[0]._replace(max_iter=40),
              next(r for r in RUNS if r.dim == 40)._replace(max_iter=20)]
    golden = gate.GOLDEN
    monkeypatch.setattr(gate, "RUNS", subset)
    monkeypatch.setattr(gate, "SCANS", {})
    assert gate.main(["--write"]) == 0
    assert gate.main([]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3/3 equal"

    # one ulp on every covariance norm of the d=40 run alone
    from bcmaes import optimizer

    exact = optimizer.frobenius_norm
    monkeypatch.setattr(optimizer, "frobenius_norm",
                        lambda m: np.nextafter(exact(m), np.inf) if m.shape[0] == 40 else exact(m))
    assert gate.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{subset[1].key}: differs", "2/3 equal"]

    # a key dropped from the file, and one the runs no longer make
    monkeypatch.setattr(optimizer, "frobenius_norm", exact)
    doc = json.loads(golden.read_text())
    doc["full"]["zz_stale"] = doc["full"].pop(subset[0].key)
    golden.write_text(json.dumps(doc))
    assert gate.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{subset[0].key}: missing", "zz_stale: extra", "2/4 equal"]


def test_reproduce_convergence_writes_what_the_cli_writes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_convergence.py"),
                    "--seed", "3", "--out", str(tmp_path / "script")],
                   env=env, capture_output=True, text=True, check=True)
    budgets = load_script("reproduce_convergence").BUDGETS
    assert sorted(p.name for p in (tmp_path / "script").iterdir()) == sorted(budgets)
    assert len(list((tmp_path / "script").glob("*/s[12]/*_s[12]_3.csv"))) == 8
    from bcmaes.cli import main

    for function, budget in budgets.items():
        out = tmp_path / "script" / function
        assert (out / "plot_data.csv").is_file() and (out / "convergence.svg").is_file()
        for strategy in ("s1", "s2"):
            # each strategy keeps its own summary: one record, of that strategy
            summary = json.loads((out / strategy / "summary.json").read_text())
            assert [(r["strategy"], r["seed"]) for r in summary] == [(strategy, 3)]
            cli_out = tmp_path / "cli" / function
            assert main(["--function", function, "--strategy", strategy, "--seed", "3",
                         "--max-iter", str(budget), "--out", str(cli_out)]) == 0
            name = f"{function}_{strategy}_3.csv"
            assert (out / strategy / name).read_bytes() == (cli_out / name).read_bytes()


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # under the suite's warning filter, Hypothesis's failure report imports a
    # module that warns on import; the session must report the failure and go
    # on to later tests, not stop with an internal error (exit 3)
    (tmp_path / "test_a.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n")
    (tmp_path / "test_b.py").write_text("def test_later():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_a.py"), str(tmp_path / "test_b.py")],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout

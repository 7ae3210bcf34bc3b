"""The public surface: what the package exports and what the benchmark harness calls."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import bcmaes
import bcmaes.cli
import bcmaes.plotting

PUBLIC = [
    "BcmaesError",
    "BenchmarkSpec",
    "DegreesOfFreedomTooLow",
    "DEFAULT_FACTORS",
    "DEFAULT_LEVELS",
    "InvalidLevels",
    "InvariantViolation",
    "IterationTrace",
    "NiwParams",
    "OptimizerConfig",
    "PriorDegeneracy",
    "RandomSource",
    "RepairFailed",
    "RestartDecision",
    "RestartState",
    "RunResult",
    "SchemaError",
    "SummaryStats",
    "UnknownFunction",
    "cone",
    "default_popsize",
    "expected_covariance",
    "expected_mean",
    "init_prior",
    "init_restart",
    "posterior_update",
    "rastrigin",
    "registry_lookup",
    "run",
    "sample_mvn",
    "schwefel1",
    "schwefel2",
    "step_restart",
]


def test_all_is_pinned():
    assert bcmaes.__all__ == PUBLIC


def test_every_exported_name_resolves():
    for name in bcmaes.__all__:
        assert getattr(bcmaes, name) is not None, name


def test_names_the_benchmark_harness_calls():
    # bench/run.py drives the package through exactly these names
    assert issubclass(bcmaes.BcmaesError, Exception)
    assert bcmaes.default_popsize(2) == 6
    assert bcmaes.registry_lookup("cone", 2).fn is bcmaes.cone
    assert "callback" in inspect.signature(bcmaes.run).parameters
    config_fields = {f.name for f in dataclasses.fields(bcmaes.OptimizerConfig)}
    assert {"dim", "x0", "popsize", "max_iter", "strategy", "seed"} <= config_fields
    spec_fields = {f.name for f in dataclasses.fields(bcmaes.cli.RunSpec)}
    assert spec_fields >= {"function", "dim", "strategy", "seeds", "popsize", "max_iter",
                           "sigma0", "x0", "out_dir"}
    assert callable(bcmaes.cli.run_experiment)
    assert bcmaes.cli.run is bcmaes.run
    assert callable(bcmaes.plotting.emit_plot_data)


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: the package, its CLI and its plotting run on numpy
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, bcmaes, bcmaes.cli, bcmaes.plotting; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"

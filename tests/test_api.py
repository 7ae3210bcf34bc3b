"""The public surface: what the package exports and what the benchmark harness calls."""

import dataclasses
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import bcmaes
import bcmaes.cli
import bcmaes.errors
import bcmaes.plotting

PUBLIC = [
    "BcmaesError",
    "BenchmarkSpec",
    "IterationTrace",
    "OptimizerConfig",
    "PriorDegeneracy",
    "RunResult",
    "SchemaError",
    "UnknownFunction",
    "cone",
    "default_popsize",
    "rastrigin",
    "registry_lookup",
    "run",
    "schwefel1",
    "schwefel2",
]


def test_all_is_pinned():
    assert bcmaes.__all__ == PUBLIC


def test_config_fields_are_pinned():
    # a new run knob is an API change: it must show up here
    assert [f.name for f in dataclasses.fields(bcmaes.OptimizerConfig)] == [
        "dim", "x0", "sigma0", "popsize", "max_iter", "strategy", "seed"]


def test_error_surface_is_pinned():
    # the errors a run or the CLI can raise; the loop's layers raise none of their own
    defined = {name for name, obj in vars(bcmaes.errors).items()
               if isinstance(obj, type) and issubclass(obj, bcmaes.errors.BcmaesError)
               and obj is not bcmaes.errors.BcmaesError}
    assert defined == {"PriorDegeneracy", "UnknownFunction", "SchemaError"}


def test_every_exported_name_resolves():
    for name in bcmaes.__all__:
        assert getattr(bcmaes, name) is not None, name


def test_names_the_benchmark_harness_calls():
    # bench/run.py drives the package through exactly these names
    assert issubclass(bcmaes.BcmaesError, Exception)
    assert bcmaes.default_popsize(2) == 6
    assert bcmaes.registry_lookup("cone", 2).fn is bcmaes.cone
    assert "callback" in inspect.signature(bcmaes.run).parameters
    # a one-argument callback that gets the run's trace row, once per iteration
    assert typing.get_type_hints(bcmaes.run)["callback"] == \
        typing.Optional[typing.Callable[[bcmaes.IterationTrace], None]]
    rows = []
    config = bcmaes.OptimizerConfig(dim=2, x0=[10.0, 10.0], max_iter=3)
    result = bcmaes.run(config, bcmaes.cone, callback=rows.append)
    assert len(rows) == result.iterations == 3
    assert all(isinstance(row, bcmaes.IterationTrace) for row in rows)
    config_fields = {f.name for f in dataclasses.fields(bcmaes.OptimizerConfig)}
    assert {"dim", "x0", "popsize", "max_iter", "strategy", "seed"} <= config_fields
    spec_fields = {f.name for f in dataclasses.fields(bcmaes.cli.RunSpec)}
    assert spec_fields >= {"function", "dim", "strategy", "seeds", "popsize", "max_iter",
                           "sigma0", "x0", "out_dir"}
    assert callable(bcmaes.cli.run_experiment)
    assert bcmaes.cli.run is bcmaes.run
    assert callable(bcmaes.plotting.emit_plot_data)


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: the package, its CLI and its plotting run
    # on numpy. The run evaluates in the calling thread, so the package loads
    # neither concurrent.futures nor the logging it would pull in.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, bcmaes; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging'))); "
            "import bcmaes.cli, bcmaes.plotting; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "[]"]

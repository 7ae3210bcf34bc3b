"""The experiment runner CLI: parsing, trace CSVs, summary, plot artifacts, exit codes."""

import csv
import json
import math
import os
import xml.dom.minidom
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bcmaes import cli
from bcmaes.cli import RunSpec, main, parse_args, run_experiment, write_trace_csv
from bcmaes.errors import PriorDegeneracy, SchemaError
from bcmaes.optimizer import OptimizerConfig, run
from bcmaes.benchmarks import cone, registry_lookup
from bcmaes.plotting import CSV_HEADER, emit_plot_data


def _run_spec_args(out, extra=()):
    return ["--function", "cone", "--dim", "2", "--seed", "42", "--max-iter", "40",
            "--out", str(out), *extra]


class TestParseArgs:
    def test_defaults(self):
        spec = parse_args(["--function", "cone", "--dim", "2", "--seed", "42"])
        assert spec.function == "cone"
        assert spec.dim == 2
        assert spec.strategy == "s2"
        assert spec.seeds == (42,)
        assert spec.popsize is None
        assert spec.max_iter == 500
        assert spec.sigma0 == 1.0
        assert spec.x0 is None
        assert spec.out_dir == "."

    def test_unknown_function_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--function", "nope"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--function", "cone", "--what", "3"])
        assert exc.value.code == 2

    def test_repeatable_seeds(self):
        spec = parse_args(["--function", "cone", "--seed", "1", "--seed", "2"])
        assert spec.seeds == (1, 2)

    def test_x0_parsing_and_dim_check(self):
        spec = parse_args(["--function", "cone", "--dim", "3", "--x0", "1,2,3"])
        assert np.array_equal(spec.x0, [1.0, 2.0, 3.0])
        with pytest.raises(SystemExit) as exc:
            parse_args(["--function", "cone", "--dim", "2", "--x0", "1,2,3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ("--sigma0", "-1"),
        ("--sigma0", "nan"),
        ("--sigma0", "inf"),
        ("--x0", "nan,1"),
        ("--popsize", "1"),
        ("--seed", "-1"),
        ("--seed", "18446744073709551616"),
        ("--dim", "0"),
    ], ids=["sigma0-negative", "sigma0-nan", "sigma0-inf", "x0-nan", "popsize-1",
            "seed-negative", "seed-too-large", "dim-zero"])
    def test_invalid_run_config_is_a_usage_error(self, flags, capsys, tmp_path):
        # the config's own checks, reported as a usage error, not a traceback
        with pytest.raises(SystemExit) as exc:
            main(["--function", "cone", *flags, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "usage: bcmaes" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sigma0", ["1e-320", "1e-170", "1e200", "1e308"])
    def test_any_positive_finite_sigma0_runs(self, sigma0, tmp_path):
        # the run is in units of sigma0; 1e-170 and 1e200 were once refused,
        # because 2 * sigma0**2 left the float range
        assert main(["--function", "cone", "--sigma0", sigma0, "--seed", "1", "--max-iter", "5",
                     "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())[0]["iterations"] == 5

    def test_schwefel1_uses_registry_default_x0(self, tmp_path):
        spec = parse_args(["--function", "schwefel1", "--seed", "1"])
        assert spec.x0 is None
        bench = registry_lookup(spec.function, spec.dim)
        assert np.array_equal(bench.default_x0, [400.0, 400.0])


class TestRunExperiment:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        code = main(_run_spec_args(tmp_path))
        assert code == 0
        csv_path = tmp_path / "cone_s2_42.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        f_mins = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(a >= b for a, b in zip(f_mins, f_mins[1:]))
        errors = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(e >= -1e-9 for e in errors)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary) == 1
        entry = summary[0]
        assert entry["function"] == "cone"
        assert entry["strategy"] == "s2"
        assert entry["seed"] == 42
        assert set(entry) == {"function", "strategy", "seed", "f_best", "iterations", "stop_reason"}
        assert len(lines) - 1 == entry["iterations"]

    def test_reruns_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(_run_spec_args(out_a)) == 0
        assert main(_run_spec_args(out_b)) == 0
        assert (out_a / "cone_s2_42.csv").read_bytes() == (out_b / "cone_s2_42.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_multiple_seeds(self, tmp_path):
        code = main(["--function", "cone", "--seed", "1", "--seed", "2",
                     "--max-iter", "10", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "cone_s2_1.csv").exists()
        assert (tmp_path / "cone_s2_2.csv").exists()
        assert len(json.loads((tmp_path / "summary.json").read_text())) == 2

    def test_bad_later_seed_writes_nothing(self, tmp_path):
        # every seed's config is checked before the first run starts
        spec = RunSpec(function="cone", dim=2, strategy="s2", seeds=(1, -1), popsize=None,
                       max_iter=10, sigma0=1.0, x0=None, out_dir=str(tmp_path / "out"))
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            run_experiment(spec)
        assert not (tmp_path / "out").exists()

    def test_numpy_integer_seed_is_written_as_an_int(self, tmp_path):
        spec = RunSpec(function="cone", dim=2, strategy="s2", seeds=(np.int64(3),), popsize=None,
                       max_iter=5, sigma0=1.0, x0=None, out_dir=str(tmp_path))
        assert run_experiment(spec) == 0
        assert json.loads((tmp_path / "summary.json").read_text())[0]["seed"] == 3
        assert (tmp_path / "cone_s2_3.csv").is_file()

    def test_io_error_exits_1(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(_run_spec_args(blocker / "sub"))
        assert code == 1

    def test_package_error_exits_3_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        def run_failing(config, objective):
            raise PriorDegeneracy("population scatter not finite at iteration 1")

        monkeypatch.setattr(cli, "run", run_failing)
        code = main(["--function", "schwefel2", "--seed", "1", "--max-iter", "5",
                     "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: seed 1: population scatter not finite at iteration 1\n"
        assert json.loads((tmp_path / "summary.json").read_text()) == []
        assert not (tmp_path / "schwefel2_s2_1.csv").exists()

    def test_package_error_keeps_the_seeds_before_it(self, tmp_path, capsys, monkeypatch):
        real_run = cli.run

        def run_failing_seed_2(config, objective):
            if config.seed == 2:
                raise PriorDegeneracy("belief covariance degenerate at iteration 7")
            return real_run(config, objective)

        monkeypatch.setattr(cli, "run", run_failing_seed_2)
        code = main(["--function", "cone", "--seed", "1", "--seed", "2", "--seed", "3",
                     "--max-iter", "10", "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: seed 2: belief covariance degenerate at iteration 7\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cone_s2_1.csv", "summary.json"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [entry["seed"] for entry in summary] == [1]

    def test_summary_is_strict_json(self, tmp_path):
        # schwefel2's product overflows to inf from 1e160: f_best is inf
        code = main(["--function", "schwefel2", "--x0", "1e160,1e160", "--seed", "1",
                     "--max-iter", "5", "--out", str(tmp_path)])
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
        assert summary[0]["f_best"] is None
        assert summary[0]["iterations"] == 5

    def test_rastrigin_stall_produces_dilate_events(self, tmp_path):
        code = main(["--function", "rastrigin", "--seed", "4", "--max-iter", "120",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "rastrigin_s2_4.csv").read_text().splitlines()[1:]
        events = [r.split(",")[6] for r in rows]
        assert "dilate" in events

    @pytest.mark.parametrize("function", ["cone", "schwefel2", "rastrigin", "schwefel1"])
    def test_error_column_never_meaningfully_negative(self, tmp_path, function):
        # schwefel1's reference minimum is evaluated at an approximate
        # minimizer, so tiny negative errors are possible but bounded
        code = main(["--function", function, "--seed", "5", "--max-iter", "500",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / f"{function}_s2_5.csv").read_text().splitlines()[1:]
        errors = [float(r.split(",")[3]) for r in rows]
        assert min(errors) >= -1e-9

    def test_frozen_trace_prefix(self, tmp_path):
        # drift canary for the frozen sampling pipeline: first iteration of
        # the cone run at seed 42 under defaults
        assert main(_run_spec_args(tmp_path)) == 0
        first = (tmp_path / "cone_s2_42.csv").read_text().splitlines()[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == pytest.approx(13.2704098976755, rel=1e-12)
        assert first[6] == "none"


class TestPlot:
    def _make_csvs(self, tmp_path, strategies=("s1", "s2")):
        paths = []
        for strat in strategies:
            code = main(["--function", "cone", "--strategy", strat, "--seed", "3",
                         "--max-iter", "25", "--out", str(tmp_path)])
            assert code == 0
            paths.append(tmp_path / f"cone_{strat}_3.csv")
        return paths

    def test_two_strategy_chart(self, tmp_path):
        paths = self._make_csvs(tmp_path)
        data_path, svg_path = emit_plot_data([str(p) for p in paths], str(tmp_path / "plots"))
        svg = Path(svg_path).read_text()
        assert "B-CMA-ES S1" in svg
        assert "B-CMA-ES S2" in svg
        assert svg.count("<polyline") == 2
        assert "#ff7f0e" in svg and "#1f77b4" in svg
        data_lines = Path(data_path).read_text().splitlines()
        assert data_lines[0] == "iter,cone_s1_3,cone_s2_3"

    def test_ragged_runs_padded_with_blanks(self, tmp_path):
        p1 = self._make_csvs(tmp_path, strategies=("s2",))[0]
        bench = registry_lookup("cone", 2)
        cfg = OptimizerConfig(dim=2, x0=bench.default_x0, seed=8, max_iter=10)
        result = run(cfg, bench.fn)
        p2 = tmp_path / "cone_s2_8.csv"
        write_trace_csv(str(p2), result.trace, bench.global_min_value)
        data_path, _ = emit_plot_data([str(p1), str(p2)], str(tmp_path / "plots"))
        lines = Path(data_path).read_text().splitlines()
        assert lines[-1].endswith(",")  # the 10-iteration run ran out of rows

    def test_external_overlay_csv_accepted(self, tmp_path):
        # comparison curves from other optimizers ride along as long as they
        # follow the schema; they get the stem as label and the fallback color
        own = self._make_csvs(tmp_path, strategies=("s2",))[0]
        external = tmp_path / "cone_reference_run.csv"
        external.write_text(
            "iter,f_best_iter,f_min_so_far,error_vs_min,cov_norm,retrial,event\n"
            "1,10.0,10.0,10.0,1.0,0,none\n"
            "2,4.0,4.0,4.0,1.0,0,none\n"
        )
        data_path, svg_path = emit_plot_data(
            [str(own), str(external)], str(tmp_path / "plots")
        )
        svg = Path(svg_path).read_text()
        assert "cone_reference_run" in svg
        assert "#2ca02c" in svg
        header = Path(data_path).read_text().splitlines()[0]
        assert header == "iter,cone_s2_3,cone_reference_run"

    @pytest.mark.parametrize("stem", ["cma&es<1>", "a,b"], ids=["markup", "comma"])
    def test_any_file_name_gives_a_well_formed_chart_and_data_file(self, tmp_path, stem):
        own = self._make_csvs(tmp_path, strategies=("s2",))[0]
        external = tmp_path / f"{stem}.csv"
        external.write_bytes(own.read_bytes())
        data_path, svg_path = emit_plot_data([str(own), str(external)], str(tmp_path / "plots"))
        labels = [node.firstChild.data
                  for node in xml.dom.minidom.parse(svg_path).getElementsByTagName("text")]
        assert labels[-2:] == ["B-CMA-ES S2", stem]
        with open(data_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "cone_s2_3", stem]
        assert {len(row) for row in rows} == {3}

    def test_empty_list_is_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            emit_plot_data([], str(tmp_path))

    def test_malformed_header_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("iter,nope\n1,2\n")
        with pytest.raises(SchemaError):
            emit_plot_data([str(bad)], str(tmp_path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "+inf", "NaN"])
    def test_unplottable_error_is_schema_error(self, tmp_path, capsys, cell):
        # NaN, and +inf after a finite value, have no chart coordinate; -inf
        # plots at the log floor, and leading +inf cells are skipped
        bad = tmp_path / "cone_reference_run.csv"
        bad.write_text(
            "iter,f_best_iter,f_min_so_far,error_vs_min,cov_norm,retrial,event\n"
            "1,10.0,10.0,10.0,1.0,0,none\n"
            f"2,4.0,4.0,{cell},1.0,0,none\n"
        )
        with pytest.raises(SchemaError, match=r"cone_reference_run\.csv:3: error_vs_min"):
            emit_plot_data([str(bad)], str(tmp_path / "plots"))
        assert main(["plot", str(bad), "--out", str(tmp_path / "plots")]) == 2
        assert "cone_reference_run.csv:3" in capsys.readouterr().err
        assert not (tmp_path / "plots").exists()

    def test_curve_starts_at_the_first_finite_error(self, tmp_path, capsys):
        # +inf for the first three iterations (six points each) never
        # improves: the best value and its error read inf there, the ladder
        # counts them as stalls, and the curve starts after them
        calls = {"n": 0}

        def late(x):
            calls["n"] += 1
            return math.inf if calls["n"] <= 18 else cone(x)

        cfg = OptimizerConfig(dim=2, x0=np.array([10.0, 10.0]), seed=1, max_iter=3)
        assert run(cfg, late).f_best == math.inf
        calls["n"] = 0
        result = run(replace(cfg, max_iter=10), late)
        assert [t.retrial for t in result.trace[:4]] == [1, 2, 3, 0]
        assert result.f_best == cone(result.x_best)
        path = tmp_path / "cone_s2_1.csv"
        write_trace_csv(str(path), result.trace, 0.0)
        lines = path.read_text().splitlines(keepends=True)
        errors = [row["error_vs_min"] for row in csv.DictReader(lines)]
        assert errors[:3] == ["inf"] * 3 and "inf" not in errors[3:]
        data_path, svg_path = emit_plot_data([str(path)], str(tmp_path / "plots"))
        with open(data_path, newline="") as fh:
            cells = [row[1] for row in csv.reader(fh)][1:]
        assert cells[:3] == [""] * 3 and cells[3:] == errors[3:]
        polyline = xml.dom.minidom.parse(svg_path).getElementsByTagName("polyline")[0]
        assert len(polyline.getAttribute("points").split()) == 7

        # a run that never saw a finite value has no curve at all
        never = tmp_path / "cone_s2_2.csv"
        never.write_text("".join(lines[:4]))
        with pytest.raises(SchemaError, match=r"cone_s2_2\.csv: no finite error_vs_min"):
            emit_plot_data([str(never)], str(tmp_path / "plots2"))
        assert main(["plot", str(never), "--out", str(tmp_path / "plots2")]) == 2
        assert "no finite error_vs_min" in capsys.readouterr().err

    def test_negative_infinite_error_plots_at_the_floor(self, tmp_path):
        csv_path = tmp_path / "cone_reference_run.csv"
        csv_path.write_text(
            "iter,f_best_iter,f_min_so_far,error_vs_min,cov_norm,retrial,event\n"
            "1,10.0,10.0,10.0,1.0,0,none\n"
            "2,4.0,4.0,-inf,1.0,0,none\n"
        )
        _, svg_path = emit_plot_data([str(csv_path)], str(tmp_path / "plots"))
        assert "nan" not in Path(svg_path).read_text()

    def test_plot_subcommand_exit_codes(self, tmp_path):
        paths = self._make_csvs(tmp_path, strategies=("s2",))
        assert main(["plot", str(paths[0]), "--out", str(tmp_path / "plots")]) == 0
        assert main(["plot", "--out", str(tmp_path / "plots")]) == 2
        assert main(["plot", str(tmp_path / "missing.csv"), "--out", str(tmp_path)]) in (1, 2)


def test_single_run_svg_monotone_curve(tmp_path):
    code = main(["--function", "cone", "--seed", "11", "--max-iter", "30", "--out", str(tmp_path)])
    assert code == 0
    _, svg_path = emit_plot_data([str(tmp_path / "cone_s2_11.csv")], str(tmp_path / "plots"))
    assert os.path.exists(svg_path)
    svg = Path(svg_path).read_text()
    assert svg.count("<polyline") == 1
    assert "B-CMA-ES S2" in svg

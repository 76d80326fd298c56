import json
import os
from pathlib import Path

import pytest

import numpy as np

from piecewise_prox import (Problem, capped_l1, default_step_size, indicator_penalty,
                            l0_penalty, l1_penalty, least_squares, leaky_capped_l1, ppgd,
                            synth, zero_penalty)
from piecewise_prox.cli import build_parser, main

DATA = Path(__file__).parent / "data"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHelp:
    def test_top_level_golden(self, capsys):
        parser = build_parser()
        text = parser.format_help()
        golden = (DATA / "cli_help.txt").read_text()
        assert " ".join(text.split()) == " ".join(golden.split())

    def test_every_flag_listed_in_subcommand_help(self):
        parser = build_parser()
        for sub in parser._subparsers._group_actions[0].choices.values():
            text = sub.format_help()
            for action in sub._actions:
                for opt in action.option_strings:
                    if opt.startswith("--"):
                        assert opt in text


class TestUsageErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        code, out, err = run_cli(["frobnicate"], capsys)
        assert code == 1
        assert "usage" in err

    def test_no_subcommand_exits_1(self, capsys):
        code, out, err = run_cli([], capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, out, err = run_cli(["certify", "--lg", "1", "--g", "1", "--f0", "1",
                                  "--bogus", "2"], capsys)
        assert code == 1
        assert "usage" in err


class TestCertify:
    def test_single_piece_binding(self, capsys):
        code, out, err = run_cli(
            ["certify", "--lg", "2.0", "--g", "1.0", "--f0", "0.5"], capsys)
        assert code == 0
        assert "binding term: 1/L_g" in out
        assert "s_max = 0.5" in out

    def test_missing_eps0_maps_to_runtime_error(self, capsys):
        code, out, err = run_cli(
            ["certify", "--lg", "1.0", "--g", "0.1", "--f0", "0.2", "--c", "0.2"],
            capsys)
        assert code == 2
        assert "eps0" in err

    def test_nan_constant_exits_2(self, capsys):
        code, out, err = run_cli(
            ["certify", "--lg", "1", "--g", "0.1", "--f0", "0.2", "--c", "nan"], capsys)
        assert code == 2
        assert err.startswith("error:") and "must be positive" in err
        assert len(err.strip().splitlines()) == 1
        assert out == ""


class TestProxCheck:
    @pytest.mark.parametrize("kernel", ["identity", "soft-threshold", "linear-shift",
                                        "indicator-snap", "hard-threshold"])
    def test_table_and_gap(self, kernel, capsys):
        code, out, err = run_cli(
            ["prox-check", "--kernel", kernel, "--lam", "0.5", "--s", "0.3",
             "--n-draws", "10", "--resolution", "1e-5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,closed_form,oracle,gap"
        assert len(lines) == 11
        for line in lines[1:]:
            gap = float(line.split(",")[3])
            assert gap <= 1e-8


class TestSolve:
    def test_end_to_end(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["solve", "--loss", "least-squares", "--penalty", "capped-l1",
             "--lam", "0.2", "--b", "1.0", "--data", "synth-regression",
             "--n", "60", "--d", "8", "--seed", "3", "--solver", "ppgd",
             "--iters", "80", "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        assert "final objective:" in out
        assert "stationarity residual:" in out
        assert "restarts:" in out
        assert (tmp_path / "trace_ppgd.csv").exists()

    @pytest.mark.parametrize("kind, penalty", [
        ("capped-l1", lambda: capped_l1(0.2, 1.0)),
        ("indicator", lambda: indicator_penalty(0.2, 0.0)),
        ("leaky-capped-l1", lambda: leaky_capped_l1(0.2, 1.0, 0.1)),
        ("l0", lambda: l0_penalty(0.2)),
        ("l1", lambda: l1_penalty(0.2)),
        ("zero", zero_penalty),
    ])
    def test_every_penalty_kind_matches_the_library(self, tmp_path, capsys, kind, penalty):
        # the flag defaults --lam 0.2 --b 1 --tau 0 --beta 0.1, spelled out
        code, out, err = run_cli(
            ["solve", "--penalty", kind, "--n", "40", "--d", "6", "--iters", "30",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0, err
        data, _ = synth("regression", n=40, d=6, sparsity=0.2, noise=0.0, seed=0)
        trace = ppgd(Problem(least_squares(data), penalty()), np.zeros(6), K=30)
        assert f"final objective: {trace.final_objective:.12g}\n" in out

    @pytest.mark.parametrize("solver", ["pgd", "apg", "ppgd"])
    def test_zero_step_exits_2(self, tmp_path, solver, capsys):
        code, out, err = run_cli(
            ["solve", "--n", "20", "--d", "3", "--solver", solver, "--s", "0",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: step size")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("solver", ["pgd", "apg"])
    def test_stop_tol_needs_ppgd(self, tmp_path, solver, capsys):
        code, out, err = run_cli(
            ["solve", "--n", "20", "--d", "3", "--solver", solver, "--stop-tol", "1e-3",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "--stop-tol" in err
        assert not (tmp_path / f"trace_{solver}.csv").exists()

    @pytest.mark.parametrize("stop_tol", ["nan", "0", "-1"])
    def test_bad_stop_tol_exits_2(self, tmp_path, capsys, stop_tol):
        code, out, err = run_cli(
            ["solve", "--n", "20", "--d", "3", "--solver", "ppgd", "--stop-tol", stop_tol,
             "--output-dir", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: stop_tol")
        assert len(err.strip().splitlines()) == 1

    def test_default_step_printed(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["solve", "--n", "20", "--d", "3", "--solver", "ppgd", "--stop-tol", "1e-3",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        data, _ = synth("regression", n=20, d=3, sparsity=0.2, noise=0.0, seed=0)
        step = default_step_size(Problem(least_squares(data), capped_l1(0.2, 1.0)))
        assert f"step size: {step:.6g}\n" in out

    def test_csv_requires_path(self, capsys):
        code, out, err = run_cli(["solve", "--data", "csv"], capsys)
        assert code == 1
        assert "csv-path" in err

    def test_csv_with_nan_cell_exits_2(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,1.0\nnan,0.5,-1.0\n0.3,0.1,1.0\n")
        code, out, err = run_cli(["solve", "--data", "csv", "--csv-path", str(path),
                                  "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "features must be finite" in err


class TestBenchmark:
    def write_config(self, tmp_path, out_dir):
        cfg = {
            "loss": "least-squares",
            "penalty": {"kind": "capped-l1", "params": {"lam": 0.2, "b": 0.5}},
            "data": {"kind": "synth-regression", "n": 80, "d": 10, "seed": 7},
            "solvers": [
                {"name": "ppgd", "K": 40},
                {"name": "apg", "K": 40},
                {"name": "pgd", "K": 40},
            ],
            "output_dir": str(out_dir),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_three_csvs_written(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        cfg = self.write_config(tmp_path, out_dir)
        code, out, err = run_cli(["benchmark", "--config", str(cfg)], capsys)
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["report.json", "trace_apg.csv", "trace_pgd.csv", "trace_ppgd.csv"]
        rows = json.loads((out_dir / "report.json").read_text())["solvers"]
        for row in rows:
            assert f"{row['solver']}: " in out and f"k0 = {row['k0']}, rate slope = " in out

    def test_writes_only_inside_output_dir(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "results"
        cfg = self.write_config(tmp_path, out_dir)
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        before = set(os.listdir(workdir))
        code, _, _ = run_cli(["benchmark", "--config", str(cfg)], capsys)
        assert code == 0
        assert set(os.listdir(workdir)) == before

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(["benchmark", "--config", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("field, value", [("K", 4.5), ("reference_multiple", 2.5)])
    def test_non_integer_count_exits_2(self, tmp_path, capsys, field, value):
        cfg = self.write_config(tmp_path, tmp_path / "results")
        doc = json.loads(cfg.read_text())
        if field == "K":
            doc["solvers"][0]["K"] = value
        else:
            doc[field] = value
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(["benchmark", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error:") and "integer >= 1" in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("field, value", [("s", "abc"), ("w0", "x"),
                                              ("tail_fraction", "x")])
    def test_non_numeric_setting_exits_2(self, tmp_path, capsys, field, value):
        cfg = self.write_config(tmp_path, tmp_path / "results")
        doc = json.loads(cfg.read_text())
        if field == "tail_fraction":
            doc[field] = value
        else:
            doc["solvers"][0][field] = value
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(["benchmark", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error:") and field in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("data, key", [
        ({"n": "abc"}, "n"), ({"d": 2.5}, "d"), ({"sparsity": "x"}, "sparsity"),
        ({"kind": "csv"}, "path"),
    ], ids=["n-string", "d-float", "sparsity-string", "csv-no-path"])
    def test_bad_data_value_exits_2(self, tmp_path, capsys, data, key):
        cfg = self.write_config(tmp_path, tmp_path / "results")
        doc = json.loads(cfg.read_text())
        doc["data"].update(data)
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(["benchmark", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith(f"error: data key {key!r}")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: [doc],
        lambda doc: {**doc, "solvers": ["ppgd"]},
        lambda doc: {**doc, "solvers": [{"name": "ppgd", "foo": 1}]},
        lambda doc: {**doc, "penalty": {"kind": "capped-l1", "params": {"b": 0.5}}},
        lambda doc: {**doc, "penalty": {"kind": "capped-l1",
                                        "params": {"lam": 0.2, "bogus": 1}}},
        lambda doc: {**doc, "penalty": {"kind": "capped-l1", "params": {"lam": "x"}}},
        lambda doc: {**doc, "seed": "x"},
        lambda doc: {**doc, "seed": 1.5},
        lambda doc: {**doc, "solvers": 5},
        lambda doc: {**doc, "solvers": None},
        lambda doc: {**doc, "record_timing": "no"},
        lambda doc: {**doc, "output_dir": 5},
    ], ids=["list", "solver-string", "solver-key", "missing-lam", "bogus-param", "string-lam",
            "seed-string", "seed-float", "solvers-number", "solvers-null", "timing-string",
            "dir-number"])
    @pytest.mark.parametrize("override", [False, True], ids=["config-dir", "override-dir"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, edit, override):
        cfg = self.write_config(tmp_path, tmp_path / "results")
        doc = json.loads(cfg.read_text())
        argv = ["benchmark", "--config", str(cfg)]
        if override:  # the output directory comes from the command line instead
            argv += ["--output-dir", doc.pop("output_dir")]
        cfg.write_text(json.dumps(edit(doc)))
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "results").exists()

    def test_config_wins_on_conflict_with_warning(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        cfg = self.write_config(tmp_path, out_dir)
        code, out, err = run_cli(
            ["benchmark", "--config", str(cfg), "--output-dir", str(tmp_path / "elsewhere")],
            capsys)
        assert code == 0
        assert "wins" in err
        assert out_dir.exists()
        assert not (tmp_path / "elsewhere").exists()

    def test_trace_csv_schema(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        cfg = self.write_config(tmp_path, out_dir)
        run_cli(["benchmark", "--config", str(cfg)], capsys)
        header = (out_dir / "trace_ppgd.csv").read_text().splitlines()[0]
        assert header == "k,F,F_surrogate_z,n_transitions_so_far,nce_flag,wall_ms"

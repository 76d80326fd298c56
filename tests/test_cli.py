import json
import os
import re
from pathlib import Path

import pytest

import numpy as np

from piecewise_prox import (Problem, capped_l1, default_step_size, indicator_penalty,
                            l0_penalty, l1_penalty, least_squares, leaky_capped_l1, load_idx,
                            ppgd, subsample_binary, synth, write_idx,
                            zero_penalty)
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


    @pytest.mark.parametrize("argv", [
        ["--kernel", "soft-threshold", "--s", "1e308"],  # the bracket overflows to inf
        ["--kernel", "identity", "--s", "1e308"],  # inf * 0: a NaN bracket
        ["--kernel", "hard-threshold", "--resolution", "nan"],
        ["--kernel", "identity", "--resolution", "1e-300"],  # 4e300 grid points
    ], ids=["inf-halfwidth", "nan-halfwidth", "nan-resolution", "tiny-resolution"])
    def test_non_finite_oracle_bracket_exits_2(self, argv, capsys):
        # these once ended in an OverflowError traceback, a NaN-to-int error,
        # or ran until killed
        code, out, err = run_cli(["prox-check", *argv, "--n-draws", "2"], capsys)
        assert code == 2
        assert re.match(r"error: halfwidth and resolution must (be finite and positive"
                        r"|give at most 1e\+08 grid points)", err)
        assert len(err.strip().splitlines()) == 1


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

    def test_idx_requires_images(self, capsys):
        code, out, err = run_cli(["solve", "--data", "idx", "--labels", "l.idx"], capsys)
        assert code == 1
        assert "--images and --labels are required with --data idx" in err

    @pytest.mark.parametrize("classes", [[], ["--class-a", "3", "--class-b", "7",
                                              "--per-class", "6"]],
                             ids=["all-labels", "subsampled"])
    def test_idx_matches_the_library(self, tmp_path, capsys, classes):
        rng = np.random.default_rng(2)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(ip, lp, rng.random((30, 4)), np.repeat([3, 7, 1], 10), 2, 2)
        code, out, err = run_cli(["solve", "--data", "idx", "--images", str(ip), "--labels",
                                  str(lp), *classes, "--iters", "20",
                                  "--output-dir", str(tmp_path)], capsys)
        assert code == 0, err
        data = load_idx(ip, lp)
        if classes:  # --seed 0 draws the subsample
            data = subsample_binary(data, 3, 7, per_class=6, seed=0)
        trace = ppgd(Problem(least_squares(data), capped_l1(0.2, 1.0)), np.zeros(4), K=20)
        assert f"final objective: {trace.final_objective:.12g}\n" in out

    @pytest.mark.parametrize("flags, message", [
        (["--data", "idx", "--per-class", "6"], "--per-class needs --class-a"),
        (["--data", "idx", "--class-b", "7"], "--class-b needs --class-a"),
        (["--class-a", "3", "--class-b", "7"], "--class-a applies to --data idx only"),
        (["--data", "csv", "--csv-path", "d.csv", "--per-class", "6"],
         "--per-class applies to --data idx only"),
        (["--data", "synth-classification", "--class-b", "7"],
         "--class-b applies to --data idx only"),
    ])
    def test_subsample_flags_misused_exit_1(self, capsys, flags, message):
        code, out, err = run_cli(["solve", "--images", "i.idx", "--labels", "l.idx", *flags],
                                 capsys)
        assert code == 1
        assert err == f"usage error: {message}\n"

    def test_csv_requires_path(self, capsys):
        code, out, err = run_cli(["solve", "--data", "csv"], capsys)
        assert code == 1
        assert "csv-path" in err

    def test_csv_matches_the_library(self, tmp_path, capsys):
        # csv takes no seed: --seed must stay out of its data keys
        data, _ = synth("regression", n=30, d=4, seed=5)
        path = tmp_path / "data.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in [*row, y]) + "\n"
                                for row, y in zip(data.features, data.labels)))
        code, out, err = run_cli(["solve", "--data", "csv", "--csv-path", str(path), "--seed",
                                  "3", "--iters", "20", "--output-dir", str(tmp_path)], capsys)
        assert code == 0, err
        trace = ppgd(Problem(least_squares(data), capped_l1(0.2, 1.0)), np.zeros(4), K=20)
        assert f"final objective: {trace.final_objective:.12g}\n" in out

    def test_csv_with_nan_cell_exits_2(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,1.0\nnan,0.5,-1.0\n0.3,0.1,1.0\n")
        code, out, err = run_cli(["solve", "--data", "csv", "--csv-path", str(path),
                                  "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "features must be finite" in err


# edits that make the benchmark config malformed
MALFORMED_CONFIGS = {
    "list": lambda doc: [doc],
    "solver-string": lambda doc: {**doc, "solvers": ["ppgd"]},
    "solver-key": lambda doc: {**doc, "solvers": [{"name": "ppgd", "foo": 1}]},
    "missing-lam": lambda doc: {**doc, "penalty": {"kind": "capped-l1", "params": {"b": 0.5}}},
    "bogus-param": lambda doc: {**doc, "penalty": {"kind": "capped-l1",
                                                   "params": {"lam": 0.2, "bogus": 1}}},
    "string-lam": lambda doc: {**doc, "penalty": {"kind": "capped-l1", "params": {"lam": "x"}}},
    "seed-string": lambda doc: {**doc, "seed": "x"},
    "seed-float": lambda doc: {**doc, "seed": 1.5},
    "solvers-number": lambda doc: {**doc, "solvers": 5},
    "solvers-null": lambda doc: {**doc, "solvers": None},
    "timing-string": lambda doc: {**doc, "record_timing": "no"},
    "dir-number": lambda doc: {**doc, "output_dir": 5},
}


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
            assert (f"{row['solver']}: final F = {row['final_objective']:.9g}, "
                    f"transitions = {row['n_transitions']}, k0 = {row['k0']}\n") in out

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
        ({"kind": "csv"}, "path"), ({"sparsty": 0.9}, "sparsty"),
    ], ids=["n-string", "d-float", "sparsity-string", "csv-no-path", "key-misspelt"])
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

    @pytest.mark.parametrize("override, edit", [
        pytest.param(override, edit, id=f"{'override' if override else 'config'}-dir-{name}")
        for override in (False, True) for name, edit in MALFORMED_CONFIGS.items()
        # --output-dir replaces the config's output_dir, a bad one too
        if not (override and name == "dir-number")])
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

    def test_output_dir_flag_overrides_config(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        cfg = self.write_config(tmp_path, out_dir)
        code, out, err = run_cli(
            ["benchmark", "--config", str(cfg), "--output-dir", str(tmp_path / "elsewhere")],
            capsys)
        assert code == 0 and err == ""
        assert (tmp_path / "elsewhere" / "report.json").exists()
        assert not out_dir.exists()
        assert f"report: {tmp_path / 'elsewhere'}/report.json" in out

    def test_trace_csv_schema(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        cfg = self.write_config(tmp_path, out_dir)
        run_cli(["benchmark", "--config", str(cfg)], capsys)
        header = (out_dir / "trace_ppgd.csv").read_text().splitlines()[0]
        assert header == "k,F,F_surrogate_z,n_transitions_so_far,nce_flag,wall_ms"

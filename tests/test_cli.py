import json
import os
from pathlib import Path

import pytest

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


class TestProxCheck:
    @pytest.mark.parametrize("kernel", ["soft-threshold", "indicator-snap", "hard-threshold"])
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
        assert (tmp_path / "trace_ppgd.csv").exists()

    @pytest.mark.parametrize("solver", ["pgd", "apg", "ppgd"])
    def test_zero_step_exits_2(self, tmp_path, solver, capsys):
        code, out, err = run_cli(
            ["solve", "--n", "20", "--d", "3", "--solver", solver, "--s", "0",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: step size")
        assert len(err.strip().splitlines()) == 1

    def test_csv_requires_path(self, capsys):
        code, out, err = run_cli(["solve", "--data", "csv"], capsys)
        assert code == 1
        assert "csv-path" in err


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

import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest

from piecewise_prox import harness
from piecewise_prox import (
    Dataset,
    ExperimentConfig,
    IdxFormatError,
    PiecewiseBuildError,
    PiecewiseFn,
    Problem,
    apg_monotone,
    build_problem,
    capped_l1,
    default_step_size,
    fit_rate,
    l1_penalty,
    least_squares,
    load_csv,
    load_idx,
    pgd,
    ppgd,
    run_experiment,
    subsample_binary,
    synth,
    write_idx,
)


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.random((2, 784))
    labels = np.array([3, 7], dtype=np.uint8)
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    write_idx(ip, lp, images, labels, 28, 28)
    return ip, lp, images, labels


class TestIdx:
    def test_well_formed_fixture(self, idx_pair):
        ip, lp, images, labels = idx_pair
        data = load_idx(ip, lp)
        assert data.n == 2 and data.d == 784
        assert np.array_equal(data.labels, labels.astype(float))

    def test_round_trip(self, idx_pair):
        ip, lp, images, labels = idx_pair
        data = load_idx(ip, lp)
        # u8 quantization: exact after one write/read cycle of the quantized grid
        quant = np.rint(images * 255.0) / 255.0
        assert np.allclose(data.features, quant, atol=1e-12)

    def test_wrong_magic_rejected(self, idx_pair, tmp_path):
        ip, lp, _, _ = idx_pair
        raw = bytearray(ip.read_bytes())
        raw[:4] = struct.pack(">I", 2049)  # labels magic in the images slot
        bad = tmp_path / "bad.idx"
        bad.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(bad, lp)

    def test_count_mismatch_rejected(self, idx_pair, tmp_path):
        ip, lp, _, _ = idx_pair
        raw = bytearray(lp.read_bytes())
        raw += b"\x01"  # one extra label
        raw[4:8] = struct.pack(">I", 3)
        bad = tmp_path / "labels3.idx"
        bad.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="count"):
            load_idx(ip, bad)

    def test_truncation_rejected(self, idx_pair, tmp_path):
        ip, lp, _, _ = idx_pair
        raw = ip.read_bytes()[:-10]
        bad = tmp_path / "short.idx"
        bad.write_bytes(raw)
        with pytest.raises(IdxFormatError, match="expected"):
            load_idx(bad, lp)

    @pytest.mark.parametrize("which, edit, message", [
        (0, lambda raw: raw[:15], "images file truncated before the 16-byte header"),
        (1, lambda raw: raw[:7], "labels file truncated before the 8-byte header"),
        (1, lambda raw: struct.pack(">I", 2051) + raw[4:], "labels magic 2051 != 2049"),
        (1, lambda raw: raw + b"\x00", "labels payload is 11 bytes, expected 10"),
    ], ids=["images-header", "labels-header", "labels-magic", "labels-payload"])
    def test_malformed_file_rejected(self, idx_pair, tmp_path, which, edit, message):
        paths = list(idx_pair[:2])
        bad = tmp_path / "bad.idx"
        bad.write_bytes(edit(paths[which].read_bytes()))
        paths[which] = bad
        with pytest.raises(IdxFormatError, match=re.escape(message)):
            load_idx(*paths)

    def test_empty_pair_rejected(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(ip, lp, np.zeros((0, 4)), np.zeros(0), 2, 2)
        with pytest.raises(IdxFormatError, match="empty IDX payload"):
            load_idx(ip, lp)

    def test_write_checks_the_image_shape(self, tmp_path):
        with pytest.raises(ValueError, match="images shape does not match rows \\* cols"):
            write_idx(tmp_path / "i.idx", tmp_path / "l.idx", np.zeros((2, 10)),
                      np.zeros(2), 3, 3)

    def test_header_fuzz_every_single_byte_corruption_rejected(self, idx_pair, tmp_path):
        ip, lp, _, _ = idx_pair
        orig = bytearray(ip.read_bytes())
        bad = tmp_path / "fuzz.idx"
        flips = 0
        for pos in range(16):
            for delta in (1, 0x40, 0x80, 0xFF):
                mutated = bytearray(orig)
                mutated[pos] = (mutated[pos] + delta) % 256
                if mutated[pos] == orig[pos]:
                    continue
                bad.write_bytes(bytes(mutated))
                flips += 1
                with pytest.raises(IdxFormatError):
                    load_idx(bad, lp)
        assert flips >= 60


class TestSubsample:
    def make_dataset(self):
        rng = np.random.default_rng(1)
        X = rng.random((60, 4))
        y = np.repeat([0.0, 3.0, 7.0], 20)
        return Dataset(X, y)

    def test_remaps_labels(self):
        data = self.make_dataset()
        sub = subsample_binary(data, 3, 7, per_class=10, seed=5)
        assert sub.n == 20
        assert set(np.unique(sub.labels)) == {-1.0, 1.0}
        assert int(np.sum(sub.labels == 1.0)) == 10

    def test_deterministic(self):
        data = self.make_dataset()
        a = subsample_binary(data, 3, 7, per_class=10, seed=5)
        b = subsample_binary(data, 3, 7, per_class=10, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_insufficient_examples(self):
        data = self.make_dataset()
        with pytest.raises(ValueError, match="need"):
            subsample_binary(data, 3, 7, per_class=30, seed=5)


class TestCsv:
    def test_happy_path(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,1\n3.0,4.0,-1\n")
        data = load_csv(p)
        assert data.n == 2 and data.d == 2
        assert np.array_equal(data.labels, [1.0, -1.0])

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(p)

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("1,2,3\n4,x,6\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(p)

    def test_one_column_rejected(self, tmp_path):
        p = tmp_path / "o.csv"
        p.write_text("1\n2\n")
        with pytest.raises(ValueError, match="need at least one feature column plus the label"):
            load_csv(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("1.0,2.0,1\n\n3.0,4.0,-1\n")
        assert load_csv(p).features.tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestSynth:
    def test_noiseless_regression_recovers_support(self):
        data, x_star = synth("regression", n=100, d=20, sparsity=0.2, noise=0.0, seed=3)
        prob = Problem(least_squares(data), l1_penalty(1e-4))
        trace = apg_monotone(prob, np.zeros(20), K=4000)
        support = np.abs(x_star) > 0
        assert np.all(np.abs(trace.final_x[support]) > 0.1)
        assert np.all(np.abs(trace.final_x[~support]) < 1e-2)

    def test_deterministic(self):
        a, xa = synth("classification", n=50, d=5, seed=9)
        b, xb = synth("classification", n=50, d=5, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(xa, xb)

    def test_classification_labels(self):
        data, _ = synth("classification", n=30, d=4, seed=2)
        assert set(np.unique(data.labels)) <= {-1.0, 1.0}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            synth("clustering", n=10, d=2)


def desk_config(tmp_path, record_timing=True, seed=0):
    return ExperimentConfig.from_dict({
        "loss": "logistic",
        "penalty": {"kind": "capped-l1", "params": {"lam": 0.2, "b": 0.4}},
        "data": {"kind": "synth-classification", "n": 400, "d": 24,
                 "sparsity": 0.125, "noise": 0.4, "seed": seed, "feature_scale": 2.0},
        "solvers": [
            {"name": "ppgd", "K": 80},
            {"name": "apg", "K": 80},
            {"name": "pgd", "K": 80},
        ],
        "output_dir": str(tmp_path / "out"),
        "record_timing": record_timing,
    })


class TestRunExperiment:
    def test_three_solver_report(self, tmp_path):
        cfg = desk_config(tmp_path)
        report = run_experiment(cfg)
        assert {r["solver"] for r in report.solvers} == {"ppgd", "apg", "pgd"}
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        for name in ("ppgd", "apg", "pgd"):
            assert (out / f"trace_{name}.csv").exists()
        finals = {r["solver"]: r["final_objective"] for r in report.solvers}
        assert finals["ppgd"] <= finals["pgd"] + 1e-12
        assert finals["ppgd"] <= finals["apg"] + 1e-12

    def test_report_rows_carry_k0(self, tmp_path):
        report = run_experiment(desk_config(tmp_path, seed=1))  # seed 0 makes no crossing
        rows = json.loads((tmp_path / "out" / "report.json").read_text())["solvers"]
        for row in rows:
            trace = report.traces[row["solver"]]
            assert row["k0"] == trace.last_transition_index()
        assert max(row["k0"] for row in rows) > 0

    def test_report_rows_carry_restarts(self, tmp_path):
        # the first solver's trace is cut from a longer run: its restarts too
        report = run_experiment(desk_config(tmp_path, seed=1))
        rows = json.loads((tmp_path / "out" / "report.json").read_text())["solvers"]
        for row in rows:
            trace = report.traces[row["solver"]]
            assert len(trace.restarted) == len(trace.k)
            assert row["restarts"] == int(trace.restarted.sum())
        assert {row["solver"] for row in rows if row["restarts"]} == {"ppgd", "apg"}

    def test_report_rows_are_the_trace_summaries(self, tmp_path):
        report = run_experiment(desk_config(tmp_path))
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["solvers"] == json.loads(json.dumps(
            [trace.summary() for trace in report.traces.values()]))
        assert "rate_slope" not in doc["solvers"][0]
        assert set(doc["config"]) == {"loss", "penalty", "data", "solvers", "output_dir",
                                      "record_timing", "reference_multiple"}

    def test_single_solver(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "loss": "least-squares",
            "penalty": {"kind": "l1", "params": {"lam": 0.05}},
            "data": {"kind": "synth-regression", "n": 60, "d": 10, "seed": 4},
            "solvers": [{"name": "ppgd", "K": 40}],
            "output_dir": str(tmp_path / "one"),
        })
        report = run_experiment(cfg)
        assert len(report.solvers) == 1

    def test_deterministic_artifacts(self, tmp_path):
        cfg_a = desk_config(tmp_path / "a", record_timing=False)
        cfg_b = desk_config(tmp_path / "b", record_timing=False)
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("report.json", "trace_ppgd.csv", "trace_apg.csv", "trace_pgd.csv"):
            a = (tmp_path / "a" / "out" / name).read_bytes()
            b = (tmp_path / "b" / "out" / name).read_bytes()
            if name == "report.json":
                # output_dir echo differs by construction; compare the rest
                da = json.loads(a)
                db = json.loads(b)
                da["config"].pop("output_dir")
                db["config"].pop("output_dir")
                # wall times are zeroed with record_timing off
                assert da == db
            else:
                assert a == b

    def test_fairness_same_x0_and_problem(self, tmp_path):
        cfg = desk_config(tmp_path)
        report = run_experiment(cfg)
        f0 = {r["solver"]: None for r in report.solvers}
        for name, tr in report.traces.items():
            assert np.array_equal(tr.iterates[0], np.zeros(24))
            f0[name] = tr.objective[0]
        assert len(set(f0.values())) == 1  # identical starting objective

    def test_unknown_config_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({
                "loss": "logistic", "penalty": {}, "data": {}, "solvers": [{"name": "pgd"}],
                "output_dir": str(tmp_path), "typo_key": 1,
            })

    @pytest.mark.parametrize("first", ["ppgd", "pgd"])
    def test_traces_equal_direct_calls(self, tmp_path, monkeypatch, first):
        cfg = desk_config(tmp_path, record_timing=False)
        specs = sorted(cfg.solvers, key=lambda spec: spec.name != first)
        cfg = dataclasses.replace(cfg, solvers=tuple(specs))
        calls = []
        for name, solver in harness._SOLVERS.items():
            def recorded(*args, _name=name, _solver=solver, **kwargs):
                calls.append((_name, kwargs["K"]))
                return _solver(*args, **kwargs)
            monkeypatch.setitem(harness._SOLVERS, name, recorded)
        report = run_experiment(cfg)
        # one call per spec; the first one's is also the reference run
        assert calls == [(first, 80 * cfg.reference_multiple)] + [
            (spec.name, 80) for spec in specs[1:]]
        problem, x0 = build_problem(cfg)
        s = default_step_size(problem)
        direct = {
            "ppgd": ppgd(problem, x0, s=s, K=80, record_timing=False),
            "apg": apg_monotone(problem, x0, s=s, K=80, record_timing=False),
            "pgd": pgd(problem, x0, s=s, K=80, record_timing=False),
        }
        assert list(report.traces) == [spec.name for spec in specs]
        for name, want in direct.items():
            got = report.traces[name]
            assert np.array_equal(got.objective, want.objective)
            assert np.array_equal(got.iterates, want.iterates)
            assert np.array_equal(got.transitions, want.transitions)
            assert np.array_equal(got.restarted, want.restarted)
            assert got.nce_outcomes == want.nce_outcomes
            assert got.final_residual == want.final_residual

    def test_duplicate_solver_names_rejected(self, tmp_path):
        doc = desk_config(tmp_path).to_dict()
        doc["solvers"] = [{"name": "ppgd", "w0": 0.2}, {"name": "ppgd", "w0": 0.9}]
        with pytest.raises(ValueError, match="unique"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("K", [4.5, 0, True])
    def test_non_integer_solver_K_rejected(self, tmp_path, K):
        doc = desk_config(tmp_path).to_dict()
        doc["solvers"] = [{"name": "ppgd", "K": K}]
        with pytest.raises(ValueError, match="K must be an integer >= 1"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("multiple", [2.5, 0])
    def test_bad_reference_multiple_rejected(self, tmp_path, multiple):
        doc = desk_config(tmp_path).to_dict()
        doc["reference_multiple"] = multiple
        with pytest.raises(ValueError, match="reference_multiple must be an integer >= 1"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("field, value, message", [
        ("s", "abc", "s must be null or a number"),
        ("s", True, "s must be null or a number"),
        ("w0", "x", r"w0 must be a number in \(0, 1\]"),
        ("w0", 0, r"w0 must be a number in \(0, 1\]"),
        ("w0", 1.5, r"w0 must be a number in \(0, 1\]"),
        ("w0", True, r"w0 must be a number in \(0, 1\]"),
        ("output_dir", 5, "output_dir must be a path string"),
        ("record_timing", "no", "record_timing must be true or false"),
    ])
    def test_non_numeric_setting_rejected(self, tmp_path, field, value, message):
        doc = desk_config(tmp_path).to_dict()
        if field not in ("s", "w0"):  # a top-level setting, not a solver's
            doc[field] = value
        else:
            doc["solvers"] = [{"name": "ppgd", field: value}]
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "config must be a JSON object"),
        (lambda doc: {**doc, "solvers": ["ppgd"]}, "each solver entry must be a JSON object"),
        (lambda doc: {**doc, "solvers": [{"name": "ppgd", "foo": 1}]}, "only the keys"),
        (lambda doc: {**doc, "solvers": [{"K": 5}]}, "needs a name"),
        (lambda doc: {k: v for k, v in doc.items() if k != "loss"}, "missing config keys"),
        (lambda doc: {**doc, "penalty": "capped-l1"}, "penalty must be a JSON object"),
        (lambda doc: {**doc, "penalty": {"kind": "capped-l1", "params": [0.2]}},
         "penalty params must be a JSON object"),
        (lambda doc: {**doc, "solvers": 5}, "solvers must be a JSON list"),
        (lambda doc: {**doc, "solvers": None}, "solvers must be a JSON list"),
        (lambda doc: {**doc, "solvers": [{"name": "newton"}]}, "unknown solver 'newton'"),
        (lambda doc: {**doc, "solvers": []}, "config needs at least one solver"),
        (lambda doc: {**doc, "x0": "zeros"}, r"unknown config keys: \['x0'\]"),
        (lambda doc: {**doc, "seed": 3}, r"unknown config keys: \['seed'\]"),
        (lambda doc: {**doc, "tail_fraction": 0.5}, r"unknown config keys: \['tail_fraction'\]"),
    ], ids=["list", "solver-string", "solver-key", "solver-name", "missing-loss",
            "penalty-string", "params-list", "solvers-number", "solvers-null",
            "solver-unknown", "solvers-empty", "x0", "seed", "tail_fraction"])
    def test_malformed_config_rejected(self, tmp_path, edit, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(edit(desk_config(tmp_path).to_dict()))

    @pytest.mark.parametrize("params, message", [
        ({"b": 0.4}, "missing a required argument: 'lam'"),
        ({"lam": 0.2, "bogus": 1}, "unexpected keyword argument 'bogus'"),
        ({"lam": "x"}, "lam must be a number"),
    ], ids=["missing-lam", "bogus-param", "string-lam"])
    def test_bad_penalty_params_rejected(self, tmp_path, params, message):
        doc = desk_config(tmp_path).to_dict()
        doc["penalty"] = {"kind": "capped-l1", "params": params}
        with pytest.raises(PiecewiseBuildError, match=message):
            build_problem(ExperimentConfig.from_dict(doc))

    @pytest.mark.parametrize("data, message", [
        ({"n": "abc"}, "data key 'n' must be an integer >= 1, got 'abc'"),
        ({"d": 2.5}, "data key 'd' must be an integer >= 1, got 2.5"),
        ({"sparsity": "x"}, "data key 'sparsity' must be a number"),
        ({"noise": None}, "data key 'noise' must be a number"),
        ({"feature_scale": [2.0]}, "data key 'feature_scale' must be a number"),
        ({"seed": 1.5}, "data key 'seed' must be an integer >= 0"),
        ({"kind": "csv"}, "data key 'path' is required for kind 'csv'"),
        ({"kind": "csv", "path": 3}, "data key 'path' must be a path string"),
        ({"kind": "idx", "images": "x.idx"}, "data key 'labels' is required for kind 'idx'"),
        ({"kind": "idx", "images": "x.idx", "labels": "y.idx", "class_a": 3},
         "data key 'class_b' is required for kind 'idx'"),
        ({"kind": "libsvm"}, "unknown data kind 'libsvm'"),
        ({"seed": "x"}, "data key 'seed' must be an integer >= 0, got 'x'"),
        ({"seed": -1}, "data key 'seed' must be an integer >= 0, got -1"),
        ({"sparsty": 0.9}, "data key 'sparsty' is not taken by kind 'synth-classification'"),
        ({"path": "x.csv"}, "data key 'path' is not taken by kind 'synth-classification'"),
        ({"kind": "csv", "path": "x.csv", "seed": 0},
         "data key 'seed' is not taken by kind 'csv'"),
        ({"kind": "idx", "images": "x.idx", "labels": "y.idx", "per_class": 2},
         "data key 'per_class' is not taken by kind 'idx'"),
        ({"kind": "idx", "images": "x.idx", "labels": "y.idx", "class_b": 7},
         "data key 'class_b' is not taken by kind 'idx'"),
        ({"kind": ["csv"]}, "unknown data kind ['csv']"),
    ], ids=["n-string", "d-float", "sparsity-string", "noise-null", "scale-list",
            "seed-float", "csv-no-path", "csv-path-number", "idx-no-labels", "idx-no-class-b",
            "kind-unknown", "seed-string", "seed-negative", "key-misspelt", "synth-path",
            "csv-seed", "idx-per-class-alone", "idx-class-b-alone", "kind-list"])
    def test_bad_data_values_rejected(self, tmp_path, data, message):
        doc = desk_config(tmp_path).to_dict()
        # a spec with a kind replaces the synth one; other keys go into it
        doc["data"] = data if "kind" in data else {**doc["data"], **data}
        cfg = ExperimentConfig.from_dict(doc)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_problem(cfg)

    def test_unknown_loss_rejected(self, tmp_path):
        cfg = ExperimentConfig.from_dict({**desk_config(tmp_path).to_dict(), "loss": "hinge"})
        with pytest.raises(ValueError, match="unknown loss 'hinge'"):
            build_problem(cfg)

    def test_idx_data_subsampled(self, tmp_path):
        rng = np.random.default_rng(4)
        images, labels = rng.random((12, 6)), np.repeat([3, 7, 1], 4)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(ip, lp, images, labels, 2, 3)
        doc = desk_config(tmp_path).to_dict()
        doc["data"] = {"kind": "idx", "images": str(ip), "labels": str(lp),
                       "class_a": 3, "class_b": 7, "per_class": 2, "seed": 5}
        problem, x0 = build_problem(ExperimentConfig.from_dict(doc))
        want = subsample_binary(load_idx(ip, lp), 3, 7, per_class=2, seed=5)
        assert problem.loss.data.features.tobytes() == want.features.tobytes()
        assert problem.loss.data.labels.tolist() == want.labels.tolist()
        assert x0.tolist() == [0.0] * 6

    def test_numpy_integer_data_values_accepted(self, tmp_path):
        # n, d and seed take numpy integers alike, as a config built in Python may
        doc = desk_config(tmp_path).to_dict()
        want = harness._load_dataset(ExperimentConfig.from_dict(doc))
        doc["data"] = {**doc["data"], "n": np.int64(400), "d": np.int32(24), "seed": np.int64(0)}
        got = harness._load_dataset(ExperimentConfig.from_dict(doc))
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_numeric_settings_accepted(self, tmp_path):
        doc = desk_config(tmp_path).to_dict()
        doc["solvers"] = [{"name": "ppgd", "s": 1, "w0": 1}, {"name": "pgd", "s": None}]
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.solvers[0].s == 1 and cfg.solvers[0].w0 == 1 and cfg.solvers[1].s is None


class TestMembershipPasses:
    # One piece_index call per penalty group (the problems here have one) for
    # the start point, and one for each ppgd probe that passes the guard but
    # leaves x's pieces (an nce-accept or nce-reject).  The piece plan's
    # bounds test finds a same-piece probe, a guard-reject keeps x, the stop
    # test and the final residual reuse x's pieces, and apg and pgd take z's
    # pieces from the exact prox's own valuation: none of them takes a pass.
    @pytest.mark.parametrize("solver, stop_tol, calls", [
        pytest.param(ppgd, None, None, id="ppgd-per-outcome"),
        pytest.param(ppgd, 1e-8, None, id="ppgd-to-tolerance"),
        pytest.param(apg_monotone, None, 1, id="apg_monotone-1"),
        pytest.param(pgd, None, 1, id="pgd-1")])
    def test_piece_index_calls(self, tmp_path, monkeypatch, solver, stop_tol, calls):
        problem, x0 = build_problem(desk_config(tmp_path))
        piece_index = PiecewiseFn.piece_index
        count = 0

        def counted(self, x):
            nonlocal count
            count += 1
            return piece_index(self, x)

        monkeypatch.setattr(PiecewiseFn, "piece_index", counted)
        kwargs = {"K": 40} if stop_tol is None else {"K": 2000, "stop_tol": stop_tol}
        trace = solver(problem, x0, **kwargs)
        if solver is ppgd:
            outcomes = trace.nce_outcomes
            assert 0 < outcomes.count("guard-reject") < outcomes.count("same-piece")
            calls = 1 + outcomes.count("nce-accept") + outcomes.count("nce-reject")
        assert count == calls

    def test_one_pass_per_crossing(self, monkeypatch):
        # coordinates 0 and 2 leave capped-l1's middle piece; 1 stays on it
        problem = Problem(least_squares(Dataset(np.eye(3), [3.0, 0.1, -2.0])),
                          capped_l1(0.1, 0.5))
        piece_index = PiecewiseFn.piece_index
        count = 0

        def counted(self, x):
            nonlocal count
            count += 1
            return piece_index(self, x)

        monkeypatch.setattr(PiecewiseFn, "piece_index", counted)
        outcomes = ppgd(problem, np.zeros(3), K=60).nce_outcomes
        crossings = outcomes.count("nce-accept") + outcomes.count("nce-reject")
        assert crossings > 0 and "same-piece" in outcomes
        assert count == 1 + crossings


class TestFitRate:
    def quad_l1_problem(self):
        rng = np.random.default_rng(1)
        n, d = 15, 30
        D = rng.standard_normal((n, d)) / math.sqrt(n)
        y = rng.standard_normal(n)
        return Problem(least_squares(Dataset(D, y)), l1_penalty(0.01))

    def test_accelerated_beats_quadratic_rate_floor(self):
        prob = self.quad_l1_problem()
        tr = apg_monotone(prob, np.zeros(30), K=600)
        ref = apg_monotone(prob, np.zeros(30), K=3000)
        slope = fit_rate(tr, 0.6, float(ref.objective.min()))
        assert slope <= -1.7

    def test_pgd_near_first_order_rate(self):
        prob = self.quad_l1_problem()
        tr = pgd(prob, np.zeros(30), K=600)
        ref = apg_monotone(prob, np.zeros(30), K=3000)
        slope = fit_rate(tr, 0.6, float(ref.objective.min()))
        assert -1.3 <= slope <= -0.1

    def test_constant_trace_sentinel(self):
        prob = self.quad_l1_problem()
        tr = ppgd(prob, np.zeros(30), K=60)
        # a reference at the trace's own level floors every gap
        slope = fit_rate(tr, 0.5, float(tr.objective.min()))
        assert slope == -math.inf or slope < 0  # converged tail is floored
        flat = ppgd(prob, np.zeros(30), K=0)
        # single-row trace: no fittable points
        assert fit_rate(flat, 1.0, float(flat.objective.min())) == -math.inf

    def test_tail_fraction_validated(self):
        prob = self.quad_l1_problem()
        tr = ppgd(prob, np.zeros(30), K=10)
        with pytest.raises(ValueError):
            fit_rate(tr, 0.0, 0.0)

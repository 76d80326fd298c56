import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from piecewise_prox import harness
from piecewise_prox import (
    Dataset,
    ExperimentConfig,
    IdxFormatError,
    Problem,
    apg_monotone,
    build_problem,
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
        "seed": seed,
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

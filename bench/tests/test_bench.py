"""The benchmark's own formulas, checks and tracing, on tiny problems.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import tracing
from workloads import NUMERIC_EVERY, WORKLOADS, capped_pseudo_huber, mixed_groups

import piecewise_prox as pp


def _data(kind, n=40, d=6, seed=0):
    data, _ = pp.synth(kind, n=n, d=d, sparsity=0.5, noise=0.1, seed=seed)
    return data


@pytest.fixture
def tiny():
    data = _data("regression")
    problem = pp.Problem(pp.least_squares(data), pp.capped_l1(2.0, 0.5))
    L_true = checks.lipschitz("least-squares", data.features)
    trace = pp.ppgd(problem, np.zeros(data.d), K=30)
    return data, problem, L_true, trace


def _planted(trace, **changes):
    fields = dict(final_x=np.array(trace.final_x), final_objective=trace.final_objective,
                  objective=np.array(trace.objective), s=trace.s,
                  nce_outcomes=list(trace.nce_outcomes))
    fields.update(changes)
    return SimpleNamespace(**fields)


# ---------------------------------------------------------------------------
# independent formulas agree with the library
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,loss", [("least-squares", pp.least_squares),
                                       ("logistic", pp.logistic_loss)])
def test_loss_formulas_match_library(kind, loss):
    data = _data("regression" if kind == "least-squares" else "classification")
    g = loss(data)
    x = np.random.default_rng(1).standard_normal(data.d)
    X, y = data.features, data.labels
    assert checks.loss_value(kind, X, y, x) == pytest.approx(g.value(x), rel=1e-12)
    np.testing.assert_allclose(checks.loss_gradient(kind, X, y, x), g.gradient(x),
                               rtol=1e-10, atol=1e-12)
    assert checks.lipschitz(kind, X) == pytest.approx(g.lipschitz_bound(), rel=1e-6)


def test_lipschitz_uses_the_smaller_gram():
    X = np.random.default_rng(2).standard_normal((5, 30))
    assert checks.lipschitz("least-squares", X) == pytest.approx(
        2.0 * np.linalg.norm(X, 2) ** 2, rel=1e-10)


GRID = np.concatenate([np.linspace(-3, 3, 241), [-1.0, -0.5, 0.0, 0.5, 1.0]])


@pytest.mark.parametrize("formula,fn", [
    (lambda x: checks.capped_l1(x, 0.3, 0.5), pp.capped_l1(0.3, 0.5)),
    (lambda x: checks.l0(x, 0.7), pp.l0_penalty(0.7)),
    (lambda x: checks.indicator(x, 0.4, 0.5), pp.indicator_penalty(0.4, 0.5)),
    (lambda x: checks.capped_pseudo_huber(x, 0.5, 1.0), capped_pseudo_huber(pp, 0.5, 1.0)),
])
def test_penalty_formulas_match_library(formula, fn):
    np.testing.assert_allclose(formula(GRID), fn.evaluate(GRID), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_penalty_formula_matches_problem(name):
    d = 2 * NUMERIC_EVERY  # two coordinates of a mixed penalty are numeric
    wl = dataclasses.replace(WORKLOADS[name], data={**WORKLOADS[name].data, "d": d})
    problem = pp.Problem(pp.least_squares(_data("regression", n=12, d=d)), wl.build_penalty(pp))
    x = np.random.default_rng(3).choice([-1.5, -0.4, 0.0, 0.3, 0.5, 2.0], size=d)
    formula = wl.penalty_formula()
    assert float(np.sum(formula(x))) == pytest.approx(problem.penalty_value(x), rel=1e-12)
    if wl.penalty == "mixed":
        assert np.bincount(mixed_groups(d)).tolist() == [666, 666, 666, 2]


def test_real_traces_pass_every_check(tiny):
    data, problem, L_true, trace = tiny
    checks.check_trace(trace, "least-squares", data.features, data.labels,
                       lambda x: checks.capped_l1(x, 2.0, 0.5), L_true, "ppgd")
    for solver in (pp.apg_monotone, pp.pgd):
        other = solver(problem, np.zeros(data.d), K=30)
        checks.check_trace(other, "least-squares", data.features, data.labels,
                           lambda x: checks.capped_l1(x, 2.0, 0.5), L_true, "other")


# ---------------------------------------------------------------------------
# each check rejects a planted wrong result
# ---------------------------------------------------------------------------


def test_non_monotone_column_is_rejected(tiny):
    _, _, _, trace = tiny
    F = np.array(trace.objective)
    F[5] = F[4] + 1e-6 * abs(F[4])
    with pytest.raises(checks.CheckFailed, match="rises at row 5"):
        checks.check_monotone(_planted(trace, objective=F), "planted")


def test_perturbed_final_x_is_rejected(tiny):
    data, _, _, trace = tiny
    x = np.array(trace.final_x)
    x[0] += 1e-3
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_objective(_planted(trace, final_x=x), "least-squares", data.features,
                               data.labels, lambda v: checks.capped_l1(v, 2.0, 0.5), "planted")


def test_step_above_inverse_lipschitz_is_rejected(tiny):
    _, _, L_true, trace = tiny
    with pytest.raises(checks.CheckFailed, match="exceeds 1/L_true"):
        checks.check_step(_planted(trace, s=1.01 / L_true), L_true, "planted")


def test_stationarity_check_accepts_solution_and_rejects_shifted_one():
    data = _data("classification", n=300, d=8, seed=4)
    problem = pp.Problem(pp.logistic_loss(data), pp.capped_l1(0.05, 0.4))
    tol = 1e-8
    trace = pp.ppgd(problem, np.zeros(data.d), K=20000, stop_tol=tol)
    X, y = data.features, data.labels
    checks.check_capped_l1_stationary("logistic", X, y, trace.final_x, 0.05, 0.4, tol, "ok")
    x = np.array(trace.final_x)
    x[int(np.argmax(np.abs(x)))] *= 1.01
    with pytest.raises(checks.CheckFailed, match="first-order condition"):
        checks.check_capped_l1_stationary("logistic", X, y, x, 0.05, 0.4, tol, "planted")


def test_crossing_check_needs_an_accepted_crossing(tiny):
    _, _, _, trace = tiny
    checks.check_crossing(_planted(trace, nce_outcomes=["", "nce-accept"]), "ok")
    with pytest.raises(checks.CheckFailed, match="no accepted crossing"):
        checks.check_crossing(_planted(trace, nce_outcomes=["", "same-piece"]), "planted")


def test_experiment_files_and_columns(tmp_path, tiny):
    K = 4
    cfg = pp.ExperimentConfig.from_dict({
        "loss": "least-squares",
        "penalty": {"kind": "capped-l1", "params": {"lam": 2.0, "b": 0.5}},
        "data": {"kind": "synth-regression", "n": 40, "d": 6, "sparsity": 0.5,
                 "noise": 0.1, "seed": 0},
        "solvers": [{"name": name, "K": K} for name in ("ppgd", "apg", "pgd")],
        "output_dir": str(tmp_path),
    })
    report = pp.run_experiment(cfg)
    checks.check_experiment_files(tmp_path, ("ppgd", "apg", "pgd"), K, "ok")
    _, problem, _, _ = tiny
    direct = pp.ppgd(problem, np.zeros(6), K=K)
    checks.check_same_columns(report.traces["ppgd"].objective, direct.objective, "ok")

    shifted = np.array(direct.objective)
    shifted[-1] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed, match="row 4 differs"):
        checks.check_same_columns(report.traces["ppgd"].objective, shifted, "planted")
    path = tmp_path / "trace_apg.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(checks.CheckFailed, match="trace_apg.csv has 4 rows"):
        checks.check_experiment_files(tmp_path, ("ppgd", "apg", "pgd"), K, "planted")
    (tmp_path / "report.json").write_text("{not json")
    with pytest.raises(checks.CheckFailed, match="report.json"):
        checks.check_experiment_files(tmp_path, ("ppgd", "apg", "pgd"), K, "planted")


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_tracing_records_nested_spans_and_uninstalls(tiny):
    _, problem, _, _ = tiny
    value, ppgd = pp.smooth.SmoothLoss.value, pp.solvers.ppgd
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, pp)
    try:
        assert pp.ppgd is not ppgd and pp.harness._SOLVERS["ppgd"] is pp.ppgd
        pp.ppgd(problem, np.zeros(problem.d), K=3)
    finally:
        tracing.uninstall(undo)
    assert pp.smooth.SmoothLoss.value is value
    assert pp.ppgd is ppgd and pp.solvers.ppgd is ppgd and pp.harness._SOLVERS["ppgd"] is ppgd
    summary = tracing.summarize(tracer.spans)
    assert summary["solvers.ppgd"]["calls"] == 1
    assert summary["solvers.ppgd"]["attr"] == 3
    gradient = summary["smooth.gradient"]
    assert gradient["calls"] >= 3
    assert gradient["attr"] == gradient["calls"] * 40 * 6 * 8
    run = summary["solvers.ppgd"]
    assert 0.0 < run["self_s"] < run["total_s"]
    for row in summary.values():
        assert row["self_s"] >= -1e-9


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, None, 1, "outer", 1, 0.0, 10.0, None, 0.0),
        (1, 0, 1, "child", 2, 1.0, 4.0, None, 0.0),
        (2, 0, 1, "child", 3, 3.0, 6.0, None, 0.0),  # overlaps the first child
        (3, 0, 1, "child", 1, 8.0, 9.0, None, 0.5),
    ]
    summary = tracing.summarize(spans)
    assert summary["outer"]["self_s"] == pytest.approx(10.0 - 6.0)
    assert summary["child"]["self_s"] == pytest.approx(3.0 + 3.0 + 0.5)


def test_missing_names_are_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("gone.fn", "smooth", None, "no_such_function"),
        ("gone.cls", "no_such_module", "Nope", "method"),
    ))
    undo = tracing.install(tracing.Tracer(), pp)
    tracing.uninstall(undo)
    assert math.isfinite(pp.spectral_norm(np.eye(3)))

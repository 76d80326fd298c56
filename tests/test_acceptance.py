"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from piecewise_prox import (
    Dataset,
    ExperimentConfig,
    Problem,
    apg_monotone,
    capped_l1,
    certify_step_size,
    fit_rate,
    indicator_penalty,
    l0_penalty,
    l1_penalty,
    least_squares,
    leaky_capped_l1,
    logistic_loss,
    minimizer_halfwidth,
    pgd,
    ppgd,
    prox_oracle,
    prox_surrogate,
    run_experiment,
    zero_penalty,
)


def report(criterion: int, message: str) -> None:
    print(f"criterion {criterion}: PASS - {message}")


def _objective(f, s, x, v):
    return (v - x) ** 2 / (2.0 * s) + float(f(np.asarray(v, dtype=float)))


# ---------------------------------------------------------------------------
# criterion 1: prox oracle suite
# ---------------------------------------------------------------------------


def test_criterion_1_prox_oracle_suite():
    # Each entry pairs a built-in surrogate whose shape has a closed-form prox
    # with an independently written definition of the same function for the
    # grid oracle; the names are the old closed-form kernels'.
    surrogates = [
        ("identity", capped_l1(0.2, 1.0).surrogate(1),
         lambda v: np.full_like(np.asarray(v, float), 0.2), 0.0, 0.0, ()),
        ("soft-threshold", capped_l1(0.2, 1.0).surrogate(2),
         lambda v: 0.2 * np.abs(v), 0.2, 0.0, ()),
        ("linear-shift", leaky_capped_l1(1.0, 1.0, 0.1).surrogate(3),
         lambda v: 0.9 + 0.1 * np.asarray(v, float), 0.1, 0.0, ()),
        ("indicator-snap", indicator_penalty(0.7, 0.3).surrogate(2),
         lambda v: 0.7 * (np.asarray(v, float) < 0.3), 0.0, 0.7, (0.3,)),
        ("hard-threshold", l0_penalty(0.5).surrogate(2),
         lambda v: 0.5 * (np.asarray(v, float) != 0.0), 0.0, 0.5, (0.0,)),
    ]
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for name, sur, f_ref, slope, jump, jumps in surrogates:
        assert callable(getattr(sur.piece.shape, "prox", None)), name
        # the independent definition agrees with the surrogate pointwise
        probe = np.linspace(-10, 10, 1001)
        assert np.allclose(sur(probe), f_ref(probe), atol=1e-12)
        for _ in range(1000):
            s = rng.uniform(1e-3, 1.0)
            x = rng.uniform(-10.0, 10.0)
            closed = prox_surrogate(sur, s, float(x))
            # a convex surrogate's prox is firmly nonexpansive: within s * slope of x
            hw = (s * slope + 1e-3 if sur.is_convex
                  else minimizer_halfwidth(slope, jump, jumps, s, x))
            oracle = prox_oracle(f_ref, s, float(x), hw, 1e-6)
            assert _objective(f_ref, s, x, closed) <= _objective(f_ref, s, x, oracle) + 1e-8, (
                name, s, x, closed, oracle)
            checked += 1
    elapsed = time.perf_counter() - tic
    assert elapsed < 10.0, f"prox oracle suite took {elapsed:.1f}s"
    report(1, f"{checked} draws across {len(surrogates)} closed forms in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 2 and 4: monotone descent and eventual piece stability
# ---------------------------------------------------------------------------


def _seeded_problems():
    """20 seeded problems: both losses, capped-l1 / indicator / l0 penalties."""
    problems = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(80, 500))
        d = int(rng.integers(8, 50))
        X = rng.standard_normal((n, d)) / math.sqrt(n)
        pen = [capped_l1(0.2, 1.0), indicator_penalty(0.5, 0.3), l0_penalty(0.3)][seed % 3]
        if seed % 2 == 0:
            loss = least_squares(Dataset(X, rng.standard_normal(n)))
        else:
            loss = logistic_loss(Dataset(4.0 * X, rng.choice((-1.0, 1.0), size=n)))
        problems.append((seed, Problem(loss, pen)))
    return problems


@pytest.fixture(scope="module")
def seeded_traces():
    tic = time.perf_counter()
    traces = []
    for seed, prob in _seeded_problems():
        x0 = np.zeros(prob.d)
        traces.append((seed, "ppgd", ppgd(prob, x0, K=150, record_timing=False)))
        traces.append((seed, "apg", apg_monotone(prob, x0, K=150, record_timing=False)))
    return traces, time.perf_counter() - tic


def test_criterion_2_monotone_descent(seeded_traces):
    traces, build_seconds = seeded_traces
    tic = time.perf_counter()
    for seed, name, trace in traces:
        rises = np.diff(trace.objective)
        assert np.all(rises <= 1e-12), (
            f"{name} on seed {seed} rose by {float(rises.max())}")
    elapsed = build_seconds + (time.perf_counter() - tic)
    assert elapsed < 30.0, f"monotone suite took {elapsed:.1f}s including solves"
    report(2, f"{len(traces)} traces nonincreasing within 1e-12 ({elapsed:.1f}s)")


def test_criterion_4_eventual_piece_stability(seeded_traces):
    checked = 0
    problems = dict(_seeded_problems())
    for seed, name, trace in seeded_traces[0]:
        assignments = np.array([problems[seed].assignments(x) for x in trace.iterates])
        last = trace.last_transition_index()
        tail = assignments[max(last, 0):]
        assert np.all(tail == tail[0]), f"{name} seed {seed} unstable after last transition"
        changed = np.any(np.diff(assignments, axis=0) != 0, axis=1)
        assert np.array_equal(trace.transitions[1:], changed)
        checked += 1
    report(4, f"piece assignment constant after the last transition in {checked} runs")


def test_restart_after_a_rejected_probe(seeded_traces):
    # a guard-reject or revert restarts the momentum, so the next probe is a
    # plain prox-gradient step from x, which passes at the default step
    rejected = 0
    for seed, name, trace in seeded_traces[0]:
        kept = np.isin(trace.nce_outcomes, ("guard-reject", "revert"))
        assert not np.any(kept[1:] & kept[:-1]), f"{name} seed {seed} rejected twice in a row"
        assert np.all(trace.restarted[kept]), f"{name} seed {seed} kept x without a restart"
        rejected += int(kept.sum())
    assert rejected > 0


def test_gradient_test_never_fires_right_after_a_restart(seeded_traces):
    # a restart leaves u = x_prev = x, so the next accepted probe z reads
    # (u - z).(z - x_prev) = -|z - x|^2 <= 0 in the gradient test
    fired = 0
    for seed, name, trace in seeded_traces[0]:
        accepted = ~np.isin(trace.nce_outcomes, ("", "guard-reject", "revert", "nce-reject"))
        gradient = trace.restarted & accepted
        assert not np.any(gradient[1:] & trace.restarted[:-1]), (
            f"{name} seed {seed} restarted on the gradient test right after a restart")
        fired += int(gradient.sum())
    assert fired > 0


# ---------------------------------------------------------------------------
# criterion 3: certified kappa decrease at transitions
# ---------------------------------------------------------------------------


def test_criterion_3_kappa_decrease_on_transitions():
    tic = time.perf_counter()
    # g(x) = 0.5 (x - 2)^2 encoded exactly; capped-l1 lam=0.2, b=1
    data = Dataset(np.array([[2.0 ** -0.5]]), np.array([2.0 ** 0.5]))
    loss = least_squares(data)
    penalty = capped_l1(0.2, 1.0)
    prob = Problem(loss, penalty)
    C, J, F0, R0, s0 = penalty.structural_constants()
    L_g = loss.lipschitz_bound()

    # Sound constants: level set of F at x0=0 is contained in [0, 4]; inflated
    # by R0=2 the gradient bound is sup |x - 2| over [-2, 6] = 4.  eps0 is the
    # smallest of |grad g(q) + p| over the four endpoint/side combinations:
    # min(|-1+0.2|, |-3-0.2|, |-1|, |-3|) = 0.8.  For this penalty
    # C w0 eps0 <= G (G + F0) for every valid G, so no positive step size
    # certifies kappa > 0: the certificate must report infeasibility.
    sound = certify_step_size(L_g=L_g, G=4.0, F0=F0, C=C, eps0=0.8, s0=s0,
                              R0=R0, w0=0.5, d=1)
    assert sound.s_max == 0.0 and not sound.feasible

    # Nominal user-supplied constants give a usable certificate; the decrease
    # assertion below is checked against its kappa.
    cert = certify_step_size(L_g=L_g, G=0.05, F0=F0, C=C, eps0=0.8, s0=s0,
                             R0=R0, w0=0.5, d=1)
    assert cert.feasible
    s = 0.5
    assert cert.is_certified(s)
    kappa = cert.kappas(s)[0]
    assert kappa > 0

    trace = ppgd(prob, np.zeros(1), s=s, w0=0.5, K=200, record_timing=False)
    hits = np.flatnonzero(trace.transitions)
    assert hits.size >= 1, "instance must produce at least one transition"
    for j in hits:
        drop = trace.objective[j - 1] - trace.objective[j]
        assert drop >= kappa - 1e-12, f"transition at row {j} dropped only {drop}"
    # finite-transition budget implied by the decrease
    budget = (trace.objective[0] - trace.objective.min()) / kappa
    assert trace.n_transitions[-1] <= budget
    elapsed = time.perf_counter() - tic
    assert elapsed < 1.0
    report(3, f"{hits.size} transition(s), each dropping F by >= kappa = {kappa:.4g}")


# ---------------------------------------------------------------------------
# criterion 5: local rate separation
# ---------------------------------------------------------------------------


def test_criterion_5_rate_separation():
    tic = time.perf_counter()
    rng = np.random.default_rng(1)
    n, d = 15, 30
    D = rng.standard_normal((n, d)) / math.sqrt(n)
    y = rng.standard_normal(n)
    prob = Problem(least_squares(Dataset(D, y)), l1_penalty(0.01))
    x0 = np.zeros(d)
    tr_fast = ppgd(prob, x0, K=2000, record_timing=False)
    tr_slow = pgd(prob, x0, K=2000, record_timing=False)
    ref = ppgd(prob, x0, K=10000, record_timing=False)
    f_ref = float(ref.objective.min())
    slope_fast = fit_rate(tr_fast, 0.6, f_ref)
    slope_slow = fit_rate(tr_slow, 0.6, f_ref)
    assert slope_fast <= -1.7, f"accelerated slope {slope_fast}"
    assert slope_slow >= -1.3, f"unaccelerated slope {slope_slow}"
    elapsed = time.perf_counter() - tic
    assert elapsed < 10.0
    report(5, f"slopes {slope_fast:.2f} (accelerated) vs {slope_slow:.2f} (plain)")


# ---------------------------------------------------------------------------
# criterion 6: single-piece reduction
# ---------------------------------------------------------------------------


def test_criterion_6_single_piece_reduction():
    mismatches = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n, d = 60, 10
        X = rng.standard_normal((n, d)) / math.sqrt(n)
        if seed % 2 == 0:
            loss = least_squares(Dataset(X, rng.standard_normal(n)))
        else:
            loss = logistic_loss(Dataset(X, rng.choice((-1.0, 1.0), size=n)))
        pen = l1_penalty(0.05) if seed % 3 else zero_penalty()
        prob = Problem(loss, pen)
        a = ppgd(prob, np.zeros(d), K=500, record_timing=False)
        b = apg_monotone(prob, np.zeros(d), K=500, record_timing=False)
        diff = np.max(np.abs(a.iterates - b.iterates))
        assert diff <= 1e-12, f"seed {seed}: iterate gap {diff}"
        mismatches = max(mismatches, diff)
    report(6, f"10 convex instances agree over 500 iterations (max gap {mismatches:g})")


# ---------------------------------------------------------------------------
# criterion 7: qualitative experiment reproduction at desk scale
# ---------------------------------------------------------------------------


def test_criterion_7_desk_scale_reproduction(tmp_path):
    tic = time.perf_counter()
    cfg = ExperimentConfig.from_dict({
        "loss": "logistic",
        "penalty": {"kind": "capped-l1", "params": {"lam": 0.2, "b": 0.4}},
        "data": {"kind": "synth-classification", "n": 10000, "d": 64,
                 "sparsity": 0.0625, "noise": 0.5, "seed": 1, "feature_scale": 2.0},
        "solvers": [
            {"name": "ppgd", "K": 300},
            {"name": "apg", "K": 300},
            {"name": "pgd", "K": 300},
        ],
        "output_dir": str(tmp_path / "exp"),
        "record_timing": False,
    })
    rep = run_experiment(cfg)
    F_p = rep.traces["ppgd"].objective
    F_a = rep.traces["apg"].objective
    F_g = rep.traces["pgd"].objective
    # accelerated projected run never above the accelerated baseline past k=100
    # (1e-12 absorbs float summation noise between converged iterates)
    gap = F_p[100:] - F_a[100:]
    assert np.all(gap <= 1e-12), f"max violation {float(gap.max())}"
    assert F_p[-1] <= F_g[-1] + 1e-12
    assert rep.traces["ppgd"].n_transitions[-1] >= 1
    elapsed = time.perf_counter() - tic
    assert elapsed < 300.0
    report(7, f"n=10000 logistic, lam=0.2: dominance past k=100 and over the "
              f"plain baseline in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: gradient checks
# ---------------------------------------------------------------------------


def test_criterion_8_gradient_checks():
    rng = np.random.default_rng(8)
    n, d = 50, 7
    X = rng.standard_normal((n, d))
    losses = [
        least_squares(Dataset(X, rng.standard_normal(n))),
        logistic_loss(Dataset(X, rng.choice((-1.0, 1.0), size=n))),
    ]
    h = 1e-5
    for loss in losses:
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=d)
            g = loss.gradient(x)
            fd = np.zeros(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd[i] = (loss.value(x + e) - loss.value(x - e)) / (2.0 * h)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
            assert rel <= 1e-5, f"{loss.kind}: relative gradient error {rel}"
    report(8, "both losses match central differences to 1e-5 on 100 points each")


# ---------------------------------------------------------------------------
# criterion 9: certificate positivity
# ---------------------------------------------------------------------------


def test_criterion_9_certificate_positivity():
    rng = np.random.default_rng(9)
    feasible = 0
    for _ in range(1000):
        kw = dict(
            L_g=rng.uniform(0.2, 3.0),
            G=rng.uniform(0.002, 0.1),
            F0=rng.uniform(0.02, 0.4),
            w0=rng.uniform(0.2, 1.0),
            d=int(rng.integers(1, 10)),
            s0=rng.uniform(0.05, 3.0),
        )
        which = rng.integers(0, 3)
        if which == 0:
            kw.update(C=rng.uniform(0.1, 2.0), eps0=rng.uniform(0.2, 2.0))
        elif which == 1:
            kw.update(J=rng.uniform(0.05, 2.0))
        else:
            kw.update(C=rng.uniform(0.1, 2.0), eps0=rng.uniform(0.2, 2.0),
                      J=rng.uniform(0.05, 2.0))
        cert = certify_step_size(**kw)
        if not cert.feasible:
            continue  # s < s_max = 0 never holds: vacuous draw
        feasible += 1
        for frac in (0.05, 0.37, 0.73, 0.999):
            s = frac * cert.s_max
            kappa, k0, k1, k2 = cert.kappas(s)
            assert kappa > 0 and k0 > 0 and k1 > 0 and k2 > 0, (kw, s)
    assert feasible >= 500
    report(9, f"all kappas positive below s_max on {feasible} feasible draws")

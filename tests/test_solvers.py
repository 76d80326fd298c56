import math

import numpy as np
import pytest

from piecewise_prox import (
    Dataset,
    Problem,
    SolverError,
    apg_monotone,
    capped_l1,
    estimate_G,
    extrapolate,
    indicator_penalty,
    l0_penalty,
    l1_penalty,
    least_squares,
    logistic_loss,
    nce,
    pgd,
    ppgd,
    project_piecewise,
    stationarity_residual,
    surrogate_objective,
    tk_next,
    zero_penalty,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def one_d_problem(lam=0.2, b=1.0):
    """g(x) = 0.5 (x - 2)^2 encoded as ||y - D x||^2 with D = 1/sqrt(2)."""
    data = Dataset(np.array([[2.0 ** -0.5]]), np.array([2.0 ** 0.5]))
    return Problem(least_squares(data), capped_l1(lam, b))


def random_ls_problem(seed, n=40, d=12, lam=0.05):
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((n, d)) / math.sqrt(n)
    y = rng.standard_normal(n)
    return Problem(least_squares(Dataset(D, y)), l1_penalty(lam))


class TestTk:
    def test_first_values(self):
        assert tk_next(0.0) == 1.0
        assert tk_next(1.0) == pytest.approx(GOLDEN, abs=1e-12)

    def test_growth_lower_bound(self):
        t = 1.0
        for k in range(1, 101):
            assert t >= (k + 1) / 2.0
            t = tk_next(t)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tk_next(-0.1)


class TestExtrapolate:
    def test_first_iteration_fixed_point(self):
        x = np.array([1.0, -2.0])
        assert np.array_equal(extrapolate(x, x, x, 0.0, 1.0), x)

    def test_all_equal_fixed_point(self):
        x = np.array([0.3, 0.4])
        assert np.allclose(extrapolate(x, x, x, 1.0, GOLDEN), x)

    def test_hand_value(self):
        u = extrapolate(np.array([1.0, 0.0]), np.array([0.0, 0.0]),
                        np.array([2.0, 0.0]), 1.0, GOLDEN)
        assert u[0] == pytest.approx(1.0 + 2.0 / (1.0 + math.sqrt(5.0)))
        assert u[1] == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            extrapolate(np.zeros(2), np.zeros(3), np.zeros(2), 1.0, 2.0)


class TestProjection:
    def test_clamp_to_piece_and_ball(self):
        fn = capped_l1(0.2, 1.0)
        out = project_piecewise(np.array([0.5]), np.array([3.0]), 2.0, fn)
        assert out[0] == 1.0  # piece edge binds before the ball

    def test_idempotent_inside(self):
        fn = capped_l1(0.2, 1.0)
        out = project_piecewise(np.array([0.5]), np.array([0.9]), 2.0, fn)
        assert out[0] == 0.9

    def test_left_edge_binds(self):
        fn = capped_l1(0.2, 1.0)
        out = project_piecewise(np.array([0.5]), np.array([-5.0]), 2.0, fn)
        assert out[0] == -1.0

    def test_ball_binds_on_unbounded_piece(self):
        fn = capped_l1(0.2, 1.0)
        out = project_piecewise(np.array([3.0]), np.array([9.0]), 2.0, fn)
        assert out[0] == 5.0  # x + R0 before the infinite piece edge

    def test_identity_on_single_piece(self):
        fn = l1_penalty(0.3)
        u = np.array([4.2, -7.5])
        out = project_piecewise(np.zeros(2), u, math.inf, fn)
        assert np.array_equal(out, u)


class TestNce:
    def test_same_pieces_pass_through(self):
        fn = capped_l1(0.2, 1.0)
        z = np.array([0.7])
        out = nce(np.array([0.5]), z, np.array([0.5]), 0.5, fn)
        assert np.array_equal(out, z)

    def test_continuous_accept(self):
        fn = capped_l1(0.2, 1.0)
        out = nce(np.array([0.9]), np.array([1.4]), np.array([0.9]), 0.5, fn)
        assert out[0] == 1.4  # d1 = 0.4 >= 0.5 * 0.5

    def test_continuous_reject(self):
        fn = capped_l1(0.2, 1.0)
        out = nce(np.array([0.9]), np.array([1.04]), np.array([0.9]), 0.5, fn)
        assert out[0] == 0.9  # d1 = 0.04 < 0.5 * 0.14

    def test_discontinuous_snaps_to_point_piece(self):
        fn = l0_penalty(1.0)
        out = nce(np.array([0.5]), np.array([0.0]), np.array([0.3]), 0.5, fn)
        assert out[0] == 0.0

    def test_inconsistent_metadata_raises(self):
        fn = capped_l1(0.2, 1.0)
        with pytest.raises(SolverError, match="no endpoint"):
            nce(np.array([0.9]), np.array([1.5]), np.array([1.2]), 0.5, fn)

    def test_w0_validated(self):
        fn = capped_l1(0.2, 1.0)
        with pytest.raises(ValueError):
            nce(np.zeros(1), np.zeros(1), np.zeros(1), 0.0, fn)


class TestSurrogateObjective:
    def test_interior_equals_true_objective(self):
        prob = one_d_problem()
        assign = prob.assignments(np.array([0.5]))
        v = np.array([0.8])
        assert surrogate_objective(prob, assign, v) == pytest.approx(prob.objective(v))

    def test_extension_differs_from_true(self):
        prob = one_d_problem()
        assign = np.array([2])  # middle piece surrogate 0.2|x|
        v = np.array([3.0])
        sur = surrogate_objective(prob, assign, v)
        assert sur == pytest.approx(prob.smooth_value(v) + 0.2 * 3.0, abs=1e-12)
        assert prob.objective(v) == pytest.approx(prob.smooth_value(v) + 0.2, abs=1e-12)
        assert sur > prob.objective(v)

    def test_constant_assignment(self):
        prob = one_d_problem()
        assign = np.array([3])
        v = np.array([-4.0])
        assert surrogate_objective(prob, assign, v) == pytest.approx(
            prob.smooth_value(v) + 0.2, abs=1e-12)


class TestPpgd:
    def test_converges_to_grid_minimizer(self):
        prob = one_d_problem()
        trace = ppgd(prob, np.zeros(1), s=0.5, w0=0.5, K=200)
        grid = np.arange(-5.0, 5.0, 1e-4)
        F = 0.5 * (grid - 2.0) ** 2 + 0.2 * np.minimum(np.abs(grid), 1.0)
        x_star = grid[np.argmin(F)]
        assert abs(trace.final_x[0] - x_star) < 1e-3
        assert trace.final_residual < 1e-6

    def test_zero_iterations(self):
        prob = one_d_problem()
        trace = ppgd(prob, np.zeros(1), K=0)
        assert len(trace.k) == 1
        assert trace.objective[0] == pytest.approx(prob.objective(np.zeros(1)))

    def test_reduces_to_apg_when_single_piece(self):
        for seed in (0, 1, 2):
            prob = random_ls_problem(seed)
            a = ppgd(prob, np.zeros(prob.d), K=120)
            b = apg_monotone(prob, np.zeros(prob.d), K=120)
            assert np.array_equal(a.iterates, b.iterates)

    def test_monotone_descent(self):
        prob = one_d_problem()
        trace = ppgd(prob, np.zeros(1), s=0.5, K=150)
        assert np.all(np.diff(trace.objective) <= 1e-12)

    def test_transition_bookkeeping(self):
        prob = one_d_problem()
        trace = ppgd(prob, np.zeros(1), s=0.5, K=150)
        changed = np.any(np.diff(trace.assignments, axis=0) != 0, axis=1)
        assert np.array_equal(trace.transitions[1:], changed)
        assert trace.n_transitions[-1] >= 1

    def test_piece_stability_after_last_transition(self):
        prob = one_d_problem()
        trace = ppgd(prob, np.zeros(1), s=0.5, K=150)
        last = trace.last_transition_index()
        tail = trace.assignments[last:]
        assert np.all(tail == tail[0])

    def test_step_length_bound_along_run(self):
        # ||z - w|| <= s (G_emp + sqrt(d) F0) with G_emp the max observed
        # gradient norm; reconstruct the probes from consecutive rows.
        rng = np.random.default_rng(5)
        n, d = 60, 8
        D = rng.standard_normal((n, d)) / math.sqrt(n)
        y = rng.standard_normal(n)
        prob = Problem(least_squares(Dataset(D, y)), capped_l1(0.3, 0.5))
        s = 0.4 / prob.loss.lipschitz_bound()
        trace = ppgd(prob, np.zeros(d), s=s, K=80)
        F0 = prob.shared_penalty.F0
        # replay to capture w and z
        x = np.zeros(d); x_prev = x.copy(); z = x.copy()
        t_prev, t = 0.0, 1.0
        G_emp = 0.0
        bound_ok = True
        assign = prob.assignments(x)
        for k in range(1, 81):
            u = extrapolate(x, x_prev, z, t_prev, t)
            w = prob.project(x, u, assign)
            grad = prob.smooth_gradient(w)
            G_emp = max(G_emp, float(np.linalg.norm(grad)))
            z_new = prob.prox_step(assign, s, w - s * grad)
            if np.linalg.norm(z_new - w) > s * (G_emp + math.sqrt(d) * F0) + 1e-9:
                bound_ok = False
            x_prev = x
            x = trace.iterates[k]
            z = z_new
            t_prev, t = t, tk_next(t)
            assign = prob.assignments(x)
        assert bound_ok

    def test_early_stop(self):
        prob = one_d_problem()
        trace = ppgd(prob, np.zeros(1), s=0.5, K=500, stop_tol=1e-10)
        assert trace.k[-1] < 500
        assert trace.final_residual < 1e-10

    def test_invalid_args(self):
        prob = one_d_problem()
        with pytest.raises(ValueError):
            ppgd(prob, np.zeros(1), w0=1.5)
        bad_kwargs = ({"s": -0.1}, {"s": 0.0}, {"s": math.nan}, {"s": math.inf},
                      {"K": -1}, {"K": 2.5}, {"x0": np.zeros(2)},
                      {"x0": np.array([math.nan])}, {"x0": np.array([math.inf])})
        for solver in (ppgd, apg_monotone, pgd):
            for kwargs in bad_kwargs:
                kwargs = {"x0": np.zeros(1), **kwargs}
                with pytest.raises(ValueError):
                    solver(prob, **kwargs)

    def test_trace_serialization(self, tmp_path):
        import json

        prob = one_d_problem()
        trace = ppgd(prob, np.zeros(1), s=0.5, K=20)
        path = tmp_path / "t.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,F,F_surrogate_z,n_transitions_so_far,nce_flag,wall_ms"
        assert len(lines) == 22  # header + K+1 rows
        doc = json.loads(trace.to_json())
        assert doc["meta"]["solver"] == "ppgd"
        assert len(doc["rows"]) == 21
        assert doc["rows"][0]["F_surrogate_z"] is None
        # round-trippable objective column
        assert [r["F"] for r in doc["rows"]] == [float(v) for v in trace.objective]


class TestPgd:
    def test_l0_prox_is_hard_threshold(self):
        rng = np.random.default_rng(1)
        d = 6
        D = np.eye(d)
        y = rng.uniform(-2, 2, size=d)
        prob = Problem(least_squares(Dataset(D, y)), l0_penalty(0.3))
        s = 0.25
        x = rng.uniform(-1, 1, size=d)
        v = x - s * prob.smooth_gradient(x)
        from piecewise_prox import prox_true
        out = prox_true(prob.shared_penalty, s, v)
        thr = math.sqrt(2.0 * 0.3 * s)
        expect = np.where(np.abs(v) <= thr, 0.0, v)
        assert np.array_equal(out, expect)

    def test_smooth_only_matches_gradient_descent(self):
        rng = np.random.default_rng(2)
        D = rng.standard_normal((20, 5))
        y = rng.standard_normal(20)
        prob = Problem(least_squares(Dataset(D, y)), zero_penalty())
        s = 0.05 / prob.loss.lipschitz_bound()
        trace = pgd(prob, np.zeros(5), s=s, K=30)
        x = np.zeros(5)
        for _ in range(30):
            x = x - s * prob.smooth_gradient(x)
        assert np.array_equal(trace.final_x, x)

    def test_same_minimizer_as_ppgd_in_1d(self):
        prob = one_d_problem()
        a = ppgd(prob, np.zeros(1), s=0.5, K=300)
        b = pgd(prob, np.zeros(1), s=0.5, K=300)
        assert abs(a.final_x[0] - b.final_x[0]) < 1e-6


class TestApg:
    def test_dominates_pgd_after_warmup(self):
        prob = random_ls_problem(5)
        a = apg_monotone(prob, np.zeros(prob.d), K=200)
        g = pgd(prob, np.zeros(prob.d), K=200)
        assert np.all(a.objective[50:] <= g.objective[50:] + 1e-12)

    def test_probe_step_is_gradient_step_when_smooth_only(self):
        rng = np.random.default_rng(3)
        D = rng.standard_normal((15, 4))
        y = rng.standard_normal(15)
        prob = Problem(least_squares(Dataset(D, y)), zero_penalty())
        s = 0.02
        trace = apg_monotone(prob, np.zeros(4), s=s, K=1)
        # first iteration: u = x0, so z = x0 - s grad g(x0)
        expect = -s * prob.smooth_gradient(np.zeros(4))
        assert np.allclose(trace.iterates[1], expect, atol=1e-15)

    def test_monotone(self):
        rng = np.random.default_rng(7)
        D = rng.standard_normal((30, 6))
        y = rng.standard_normal(30)
        prob = Problem(least_squares(Dataset(D, y)), capped_l1(0.2, 0.7))
        trace = apg_monotone(prob, np.zeros(6), K=150)
        assert np.all(np.diff(trace.objective) <= 1e-12)


class TestResidual:
    def test_zero_at_minimizer(self):
        prob = one_d_problem()
        assert stationarity_residual(prob, np.array([2.0]), 0.5) == 0.0

    def test_positive_at_nonstationary_point(self):
        prob = one_d_problem()
        assert stationarity_residual(prob, np.array([0.3]), 0.5) > 0.1

    def test_zero_for_smooth_at_gradient_zero(self):
        D = np.eye(2)
        y = np.array([1.0, -1.0])
        prob = Problem(least_squares(Dataset(D, y)), zero_penalty())
        assert stationarity_residual(prob, y, 0.3) == 0.0


class TestEstimateG:
    def test_constant_gradient_zero(self):
        prob = Problem(least_squares(Dataset(np.zeros((3, 3)), np.zeros(3))),
                       l1_penalty(0.1))
        assert estimate_G(prob, np.zeros(3)) == 0.0

    def test_identity_design_box(self):
        prob = Problem(least_squares(Dataset(np.eye(3), np.zeros(3))),
                       l1_penalty(0.1))

        class Box:
            iterates = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])

        G = estimate_G(prob, np.zeros(3), trace=Box())
        # gradient 2x: sup over the box is 2 sqrt(3); corners are sampled
        assert G == pytest.approx(1.5 * 2.0 * math.sqrt(3.0), rel=1e-12)

    def test_monotone_in_box(self):
        prob = Problem(least_squares(Dataset(np.eye(3), np.zeros(3))),
                       l1_penalty(0.1))

        def box(r):
            class Box:
                iterates = np.array([[-r, -r, -r], [r, r, r]])
            return Box()

        g1 = estimate_G(prob, np.zeros(3), trace=box(1.0))
        g2 = estimate_G(prob, np.zeros(3), trace=box(2.0))
        assert g2 >= g1


class TestMixedPenalties:
    def test_per_coordinate_penalties(self):
        rng = np.random.default_rng(4)
        D = rng.standard_normal((30, 3)) / math.sqrt(30)
        y = rng.standard_normal(30)
        pens = [capped_l1(0.2, 1.0), l0_penalty(0.3), l1_penalty(0.1)]
        prob = Problem(least_squares(Dataset(D, y)), pens)
        x = np.array([0.5, 0.0, -2.0])
        expect = 0.2 * 0.5 + 0.0 + 0.1 * 2.0
        assert prob.penalty_value(x) == pytest.approx(expect, abs=1e-12)
        trace = ppgd(prob, np.zeros(3), K=100)
        assert np.all(np.diff(trace.objective) <= 1e-12)


class TestMonotoneSeededSuite:
    @pytest.mark.parametrize("seed", range(6))
    def test_ppgd_and_apg_monotone(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 80, 14
        X = rng.standard_normal((n, d)) / math.sqrt(n)
        penalties = [capped_l1(0.2, 1.0), indicator_penalty(0.5, 0.3), l0_penalty(0.3)]
        pen = penalties[seed % 3]
        if seed % 2 == 0:
            prob = Problem(least_squares(Dataset(X, rng.standard_normal(n))), pen)
        else:
            prob = Problem(logistic_loss(Dataset(3.0 * X, rng.choice((-1.0, 1.0), size=n))), pen)
        for solver in (ppgd, apg_monotone):
            trace = solver(prob, np.zeros(d), K=120)
            diffs = np.diff(trace.objective)
            assert np.all(diffs <= 1e-12), f"{solver.__name__} rose by {diffs.max()}"

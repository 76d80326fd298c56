import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piecewise_prox import solvers
from piecewise_prox import (
    Affine,
    Constant,
    Dataset,
    PieceSpec,
    Problem,
    SolverError,
    apg_monotone,
    build_piecewise,
    capped_l1,
    default_step_size,
    estimate_G,
    extrapolate,
    indicator_penalty,
    l0_penalty,
    l1_penalty,
    leaky_capped_l1,
    least_squares,
    logistic_loss,
    pgd,
    ppgd,
    prox_true,
    stationarity_residual,
    synth,
    tk_next,
    zero_penalty,
)
from piecewise_prox.piecewise import builtin_penalty
from piecewise_prox.prox import _prox_true_valued
from test_acceptance import _seeded_problems

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
        for t in (-0.1, math.nan):
            with pytest.raises(ValueError, match="t must be nonnegative"):
                tk_next(t)


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

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_nonpositive_t_rejected(self, t):
        with pytest.raises(ValueError, match="t must be positive"):
            extrapolate(np.zeros(2), np.zeros(2), np.zeros(2), 1.0, t)

    def test_bits_equal_the_formula_and_inputs_stay(self):
        rng = np.random.default_rng(8)
        t = 1.0
        for _ in range(30):
            x, x_prev, z = (rng.standard_normal(50) * 10.0 ** rng.integers(-3, 4)
                            for _ in range(3))
            kept = [a.copy() for a in (x, x_prev, z)]
            t_prev, t = t, tk_next(t)
            expect = x + (t_prev / t) * (z - x) + ((t_prev - 1.0) / t) * (x - x_prev)
            assert extrapolate(x, x_prev, z, t_prev, t).tobytes() == expect.tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip((x, x_prev, z), kept))


def zero_loss_problem(penalty, d=1):
    """A d-coordinate problem with a zero loss and the given penalty."""
    return Problem(least_squares(Dataset(np.zeros((1, d)), np.zeros(1))), penalty)


def project(fn, x, u):
    prob = zero_loss_problem(fn, len(x))
    return prob.project(np.array(x), np.array(u), prob.assignments(np.array(x)))


def nce_flag(fn, x, z, w, w0):
    """Problem.nce on a problem sharing fn, with x's and z's own pieces."""
    prob = zero_loss_problem(fn, len(x))
    x, z, w = (np.array(a, dtype=float) for a in (x, z, w))
    return prob.nce(z, w, w0, prob.assignments(x), prob.assignments(z))


class TestProjection:
    # capped_l1(0.2, 1.0) has R0 = 2, the length of its middle piece
    def test_clamp_to_piece_and_ball(self):
        out = project(capped_l1(0.2, 1.0), [0.5], [3.0])
        assert out[0] == 1.0  # piece edge binds before the ball

    def test_idempotent_inside(self):
        out = project(capped_l1(0.2, 1.0), [0.5], [0.9])
        assert out[0] == 0.9

    def test_left_edge_binds(self):
        out = project(capped_l1(0.2, 1.0), [0.5], [-5.0])
        assert out[0] == -1.0

    def test_ball_binds_on_unbounded_piece(self):
        out = project(capped_l1(0.2, 1.0), [3.0], [9.0])
        assert out[0] == 5.0  # x + R0 before the infinite piece edge

    def test_identity_on_single_piece(self):
        u = np.array([4.2, -7.5])
        out = project(l1_penalty(0.3), [0.0, 0.0], u)
        assert np.array_equal(out, u)

    def test_each_group_by_its_own_penalty(self):
        fn = capped_l1(0.2, 1.0)
        prob = zero_loss_problem([fn, l1_penalty(0.3), fn], 3)
        x = np.array([0.5, 0.0, 3.0])
        out = prob.project(x, np.array([3.0, 9.0, 9.0]), prob.assignments(x))
        assert out.tolist() == [1.0, 9.0, 5.0]


class TestNce:
    def test_same_pieces_pass_through(self):
        # a probe on x's pieces never reaches NCE: ppgd takes it as same-piece
        assert nce_flag(capped_l1(0.2, 1.0), [0.5], [0.7], [0.5], 0.5) is False

    def test_continuous_accept(self):
        # d1 = 0.4 >= 0.5 * 0.5
        assert nce_flag(capped_l1(0.2, 1.0), [0.9], [1.4], [0.9], 0.5) is True

    def test_continuous_reject(self):
        # d1 = 0.04 < 0.5 * 0.14
        assert nce_flag(capped_l1(0.2, 1.0), [0.9], [1.04], [0.9], 0.5) is False

    def test_discontinuous_snaps_to_point_piece(self):
        assert nce_flag(l0_penalty(1.0), [0.5], [0.0], [0.3], 0.5) is True

    def test_endpoint_nearer_w_and_threshold_tie(self):
        fn = capped_l1(0.2, 1.0)
        # both endpoints of [-1, 1] lie in [w, z]: the one at w judges, d1 = d0
        # (judged at 1.0 it would reject: 0.2 < 0.5 * 2.2)
        assert nce_flag(fn, [0.5], [1.2], [-1.0], 0.5) is True
        # d1 = w0 d0 exactly accepts
        assert nce_flag(fn, [0.9], [1.5], [1.0], 1.0) is True

    def test_point_piece_judged_by_the_record_it_crosses(self):
        # pieces 1 / {0}: 0 / -x; from the right piece onto the point the
        # penalty is continuous, so d1 = 0 < w0 d0 rejects
        fn = _nce_penalty("point right-only/continuous", 0.0, 0.0, 0.0, 0.0)
        assert nce_flag(fn, [0.5], [0.0], [0.5], 0.5) is False
        # from the left piece the tag is right-only: a jump, always accepted
        assert nce_flag(fn, [-0.5], [0.0], [-0.5], 0.5) is True
        # off the point, the record toward z judges: continuous on the right
        # (d1 = 0.2 < 0.5 * 0.7 rejects), right-only on the left
        assert nce_flag(fn, [0.0], [0.2], [-0.5], 0.5) is False
        assert nce_flag(fn, [0.0], [-0.2], [0.5], 0.5) is True

    @pytest.mark.parametrize("bad, message", [
        ({"z": np.full(3, 1.5)}, r"x has shape \(3,\), expected \(4,\)"),
        ({"w": np.full((2, 2), 0.9)}, r"x has shape \(2, 2\), expected \(4,\)"),
        ({"w0": 5.0}, r"w0 must lie in \(0, 1\]"),
        ({"w0": math.nan}, r"w0 must lie in \(0, 1\]"),
        ({"assign_x": [2]}, r"assign_x must hold 4 piece numbers in 1\.\.3"),
        ({"assign_x": np.full((2, 2), 2)}, r"assign_x must hold 4 piece numbers in 1\.\.3"),
        ({"assign_z": [3, 2, 9, 2]}, r"assign_z must hold 4 piece numbers in 1\.\.3"),
        ({"assign_z": [3, 0, 2, 2]}, r"assign_z must hold 4 piece numbers in 1\.\.3"),
    ], ids=["z-short", "w-2x2", "w0-above-1", "w0-nan", "assign_x-short", "assign_x-2x2",
            "assign_z-9", "assign_z-0"])
    def test_malformed_input_rejected(self, bad, message):
        # these once decided, raised a bare IndexError, or blamed the pieces
        prob = Problem(least_squares(Dataset(np.eye(4), np.ones(4))), capped_l1(0.2, 1.0))
        args = {"z": np.full(4, 1.5), "w": np.full(4, 0.9), "w0": 0.5,
                "assign_x": [2, 2, 2, 2], "assign_z": [3, 2, 2, 2], **bad}
        with pytest.raises(ValueError, match=message):
            prob.nce(**args)

    def test_inconsistent_metadata_raises(self):
        with pytest.raises(SolverError, match="no endpoint"):
            nce_flag(capped_l1(0.2, 1.0), [0.9], [1.5], [1.2], 0.5)

    def test_every_group_is_judged(self):
        # the first group accepts its crossing; the second still raises on
        # its inconsistent one
        prob = zero_loss_problem([l0_penalty(1.0), capped_l1(0.2, 1.0)], 2)
        x, z, w = np.array([0.5, 0.9]), np.array([0.0, 1.5]), np.array([0.3, 1.2])
        with pytest.raises(SolverError, match="no endpoint of piece 2"):
            prob.nce(z, w, 0.5, prob.assignments(x), prob.assignments(z))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           kind=st.sampled_from(["capped-l1", "indicator", "leaky-capped-l1", "l0", "l1",
                                 "zero", "point isolated/left-only",
                                 "point right-only/continuous"]),
           lam=st.floats(0.01, 10.0), b=st.floats(1e-3, 1e3), tau=st.floats(-1e3, 1e3),
           beta_frac=st.floats(0.0, 0.99),
           w0=st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.01, 1.0)),
           n=st.integers(1, 3))
    def test_array_rule_matches_scalar_walk(self, data, kind, lam, b, tau, beta_frac, w0, n):
        fn = _nce_penalty(kind, lam, b, tau, beta_frac)
        pool = [0.0, -0.0]
        for e in fn.endpoints:
            q = e.value
            pool += [q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf),
                     q - 2.0, q - 1.0, q + 1.0, q + 2.0]
        values = st.lists(st.one_of(st.sampled_from(pool), st.floats(-1e4, 1e4)),
                          min_size=n, max_size=n)
        flags = st.lists(st.booleans(), min_size=n, max_size=n)
        x, z, w = (np.array(data.draw(values)) for _ in range(3))
        assign_x = fn.piece_index(x)
        # mostly w on the closure of x's piece, as the projection hands it over
        clip = np.array(data.draw(flags))
        lo, hi = np.array([[p.left, p.right] for p in fn.pieces]).T
        w = np.where(clip, np.clip(w, lo[assign_x - 1], hi[assign_x - 1]), w)
        # crossings that leave a single-point piece q with w on the far side of
        # q and a short overshoot: only the endpoint record toward z decides
        points = lo[lo == hi]
        if points.size:
            leave = np.array(data.draw(flags))
            q = data.draw(st.sampled_from(points.tolist()))
            toward = np.where(np.array(data.draw(flags)), 1.0, -1.0)
            far = data.draw(st.floats(1e-3, 10.0))
            over = data.draw(st.floats(0.0, 1.0)) * far
            x = np.where(leave, q, x)
            z = np.where(leave, q + toward * over, z)
            w = np.where(leave, q - toward * far, w)
        prob = zero_loss_problem(fn, n)
        assign_x, assign_z = prob.assignments(x), prob.assignments(z)
        try:
            expect = _scalar_nce_flag(fn, z, w, w0, assign_x, assign_z)
        except SolverError as exc:
            with pytest.raises(SolverError) as got:
                prob.nce(z, w, w0, assign_x, assign_z)
            assert str(got.value) == str(exc)
            return
        assert prob.nce(z, w, w0, assign_x, assign_z) is expect


def _nce_penalty(kind, lam, b, tau, beta_frac):
    """A built-in penalty, or a single-point piece at tau with one of two tag pairs."""
    if kind == "point isolated/left-only":
        return build_piecewise([PieceSpec(-math.inf, tau, Constant(1.0)),
                                PieceSpec(tau, tau, Constant(0.0)),
                                PieceSpec(tau, math.inf, Constant(0.5))],
                               ["isolated", "left-only"])
    if kind == "point right-only/continuous":
        # continuous from the right of the point, so the two tags at tau differ
        return build_piecewise([PieceSpec(-math.inf, tau, Constant(1.0)),
                                PieceSpec(tau, tau, Constant(0.0)),
                                PieceSpec(tau, math.inf, Affine(-1.0, tau))],
                               ["right-only", "continuous"])
    params = {"capped-l1": {"lam": lam, "b": b},
              "indicator": {"lam": lam, "tau": tau},
              "leaky-capped-l1": {"lam": lam, "b": b, "beta": beta_frac * lam},
              "l0": {"lam": lam}, "l1": {"lam": lam}, "zero": {}}[kind]
    return builtin_penalty(kind, **params)


def _scalar_nce_flag(fn, z, w, w0, assign_x, assign_z):
    """The NCE accept flag, one crossing coordinate at a time: the endpoint q
    of the old piece inside [w, z], the one nearer w if both are, judged by
    the tag of the endpoint record on q's side of the old piece, the side
    toward z when the old piece is a single point."""
    flag = False
    for i in np.flatnonzero(assign_z != assign_x):
        m, w_i, z_i = int(assign_x[i]), float(w[i]), float(z[i])
        lo, hi = fn.surrogate(m).piece.left, fn.surrogate(m).piece.right
        seg_lo, seg_hi = min(w_i, z_i), max(w_i, z_i)
        cands = [q for q in (lo, hi) if math.isfinite(q) and seg_lo <= q <= seg_hi]
        if not cands:
            raise SolverError(
                f"no endpoint of piece {m} lies between w={w_i!r} and z={z_i!r}; "
                "piece metadata is inconsistent"
            )
        q = min(cands, key=lambda q: abs(q - w_i))
        on_left = z_i < q if lo == hi else q == lo
        record = fn.endpoints[m - 2 if on_left else m - 1]
        if not record.is_continuous or abs(z_i - q) >= w0 * abs(z_i - w_i):
            flag = True
    return flag


def surrogate_objective(prob, assign, v):
    return prob.loss.value(v) + prob.surrogate_penalty(assign, v)


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
        assert sur == pytest.approx(prob.loss.value(v) + 0.2 * 3.0, abs=1e-12)
        assert prob.objective(v) == pytest.approx(prob.loss.value(v) + 0.2, abs=1e-12)
        assert sur > prob.objective(v)

    def test_constant_assignment(self):
        prob = one_d_problem()
        assign = np.array([3])
        v = np.array([-4.0])
        assert surrogate_objective(prob, assign, v) == pytest.approx(
            prob.loss.value(v) + 0.2, abs=1e-12)


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

    def test_row_order_does_not_pick_the_path(self):
        # the same problem with its rows shuffled: sums round differently, and
        # the to-tolerance solve ends at a plateau where F moves by ulps.  With
        # an exact guard this took 100, 111 or 112 iterations by row order, and
        # 110 with the rounding slack but no restart after a guard-reject, and
        # 55 with no restart on the gradient test.
        data, _ = synth("classification", n=10000, d=64, sparsity=0.0625, noise=0.5,
                        seed=1, feature_scale=2.0)
        lengths = set()
        for seed in range(1, 11):
            rows = np.random.default_rng(seed).permutation(data.n)
            prob = Problem(logistic_loss(Dataset(data.features[rows], data.labels[rows])),
                           capped_l1(0.2, 0.4))
            trace = ppgd(prob, np.zeros(64), K=1000, stop_tol=1e-8, record_timing=False)
            lengths.add(int(trace.k[-1]))
        assert len(lengths) == 1, sorted(lengths)
        assert lengths.pop() <= 55

    def test_guard_passes_a_rise_within_rounding(self):
        F_x = 0.5480703234715039
        assert solvers._no_worse(F_x + 2 * np.spacing(F_x), F_x)
        assert not solvers._no_worse(F_x * (1 + 1e-14), F_x)

    def test_transition_bookkeeping(self):
        prob = one_d_problem()
        trace = ppgd(prob, np.zeros(1), s=0.5, K=150)
        assignments = np.array([prob.assignments(x) for x in trace.iterates])
        changed = np.any(np.diff(assignments, axis=0) != 0, axis=1)
        assert np.array_equal(trace.transitions[1:], changed)
        assert trace.n_transitions[-1] >= 1

    def test_piece_stability_after_last_transition(self):
        prob = one_d_problem()
        trace = ppgd(prob, np.zeros(1), s=0.5, K=150)
        last = trace.last_transition_index()
        tail = np.array([prob.assignments(x) for x in trace.iterates[last:]])
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
        F0 = prob.penalty.F0
        # replay to capture w and z
        x = np.zeros(d); x_prev = x.copy(); z = x.copy()
        t_prev, t = 0.0, 1.0
        G_emp = 0.0
        bound_ok = True
        assign = prob.assignments(x)
        for k in range(1, 81):
            u = extrapolate(x, x_prev, z, t_prev, t)
            w = prob.project(x, u, assign)
            grad = prob.loss.gradient(w)
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
        for w0 in (1.5, 0.0):
            with pytest.raises(ValueError, match="w0"):
                ppgd(prob, np.zeros(1), w0=w0)
        bad_kwargs = ({"s": -0.1}, {"s": 0.0}, {"s": math.nan}, {"s": math.inf},
                      {"K": -1}, {"K": 2.5}, {"x0": np.zeros(2)},
                      {"x0": np.array([math.nan])}, {"x0": np.array([math.inf])})
        for solver in (ppgd, apg_monotone, pgd):
            for kwargs in bad_kwargs:
                kwargs = {"x0": np.zeros(1), **kwargs}
                with pytest.raises(ValueError):
                    solver(prob, **kwargs)
        for stop_tol in (math.nan, -1.0, 0.0):
            with pytest.raises(ValueError, match="stop_tol"):
                ppgd(prob, np.zeros(1), K=300, stop_tol=stop_tol)
        for s in (math.nan, math.inf, 0.0, -0.5):
            with pytest.raises(ValueError, match="step size"):
                stationarity_residual(prob, np.zeros(1), s)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("solver", [ppgd, apg_monotone, pgd])
    def test_non_finite_objective_raises(self, solver):
        # a finite x0 whose F overflows to inf
        with pytest.raises(SolverError, match="non-finite objective at iteration 0"):
            solver(one_d_problem(), np.array([1e200]), K=3)

    def test_default_step_without_curvature(self):
        # an all-zero X has L_g = 0, so the default step is 1
        prob = Problem(least_squares(Dataset(np.zeros((3, 2)), np.ones(3))), l1_penalty(0.1))
        assert default_step_size(prob) == 1.0

    def test_trace_serialization(self, tmp_path):
        prob = one_d_problem()
        trace = ppgd(prob, np.zeros(1), s=0.5, K=20)
        path = tmp_path / "t.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,F,F_surrogate_z,n_transitions_so_far,nce_flag,wall_ms"
        assert len(lines) == 22  # header + K+1 rows
        rows = [line.split(",") for line in lines[1:]]
        assert trace.summary()["solver"] == "ppgd"
        assert rows[0][2] == ""  # no probe at row 0
        # round-trippable objective column
        assert [float(r[1]) for r in rows] == [float(v) for v in trace.objective]


class TestDefaultStepGuarantees:
    """Two runs at the default step 1/(2 L_g), which the certificate does not
    cover.  The second breaks what ppgd promises; strict, so a fix must flip it."""

    def test_accepted_crossing_does_not_raise_F(self):
        # step 1's probe crosses from 1.5 to -46.75 and NCE approves it, but
        # F would go 27.8975 -> 42.2056, so ppgd rejects it (and, at this
        # step, every later probe: the run stalls at 1.5 as in the test below)
        prob = Problem(least_squares(Dataset([[0.1]], [-5.0])), leaky_capped_l1(1.0, 0.25, 0.9))
        F = ppgd(prob, np.array([1.5]), K=100).objective
        assert np.all(F[1:] <= F[:-1] + solvers._F_RTOL * np.abs(F[:-1]))

    @pytest.mark.xfail(strict=True, reason="every step is an nce-reject; x stays at -3")
    def test_run_does_not_stall_silently(self):
        # apg_monotone reaches x = 3; ppgd rejects all 500 crossings
        prob = Problem(least_squares(Dataset([[1.0]], [3.0])), capped_l1(0.1, 0.5))
        try:
            trace = ppgd(prob, np.array([-3.0]), K=500)
        except SolverError:
            return
        assert trace.final_x[0] != -3.0


class TestPgd:
    def test_l0_prox_is_hard_threshold(self):
        rng = np.random.default_rng(1)
        d = 6
        D = np.eye(d)
        y = rng.uniform(-2, 2, size=d)
        prob = Problem(least_squares(Dataset(D, y)), l0_penalty(0.3))
        s = 0.25
        x = rng.uniform(-1, 1, size=d)
        v = x - s * prob.loss.gradient(x)
        from piecewise_prox import prox_true
        out = prox_true(prob.penalty, s, v)
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
            x = x - s * prob.loss.gradient(x)
        assert np.array_equal(trace.final_x, x)

    def test_same_minimizer_as_ppgd_in_1d(self):
        prob = one_d_problem()
        a = ppgd(prob, np.zeros(1), s=0.5, K=300)
        b = pgd(prob, np.zeros(1), s=0.5, K=300)
        assert abs(a.final_x[0] - b.final_x[0]) < 1e-6

    def test_rise_of_F_raises(self):
        # s = 4/L_g overshoots the least-squares minimum along the top
        # singular vector, so F grows from the first step on
        prob = random_ls_problem(3, n=20, d=5, lam=0.01)
        s = 4.0 / prob.loss.lipschitz_bound()
        with pytest.raises(SolverError, match="pgd: F rose from"):
            pgd(prob, np.ones(5), s=s, K=5)
        trace = pgd(prob, np.ones(5), K=200)  # the default step never trips it
        assert trace.k[-1] == 200


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
        expect = -s * prob.loss.gradient(np.zeros(4))
        assert np.allclose(trace.iterates[1], expect, atol=1e-15)

    def test_monotone(self):
        rng = np.random.default_rng(7)
        D = rng.standard_normal((30, 6))
        y = rng.standard_normal(30)
        prob = Problem(least_squares(Dataset(D, y)), capped_l1(0.2, 0.7))
        trace = apg_monotone(prob, np.zeros(6), K=150)
        assert np.all(np.diff(trace.objective) <= 1e-12)


class TestRestart:
    @pytest.mark.parametrize("solver", [ppgd, apg_monotone])
    def test_step_after_a_restart_extrapolates_to_x(self, solver, monkeypatch):
        # a restart resets x_prev, z and t with x, so the next u is x and the
        # next X @ u is the product the loop holds for x, bit for bit
        calls = []

        def spy(*args):
            calls.append(extrapolate(*args))
            return calls[-1]

        monkeypatch.setattr(solvers, "extrapolate", spy)
        prob = dict(_seeded_problems())[0]
        trace = solver(prob, np.zeros(prob.d), K=150, record_timing=False)
        assert len(calls) == 2 * 150  # u and X @ u per iteration
        gradient = trace.restarted & np.isin(trace.nce_outcomes, ("same-piece", "accept"))
        assert gradient.sum() > 0  # the gradient test fires on this run
        X = prob.loss.data.features
        for j in np.flatnonzero(trace.restarted[:-1]):  # iteration j + 1 follows
            assert np.array_equal(calls[2 * j], trace.iterates[j])
            assert np.array_equal(calls[2 * j + 1], X @ trace.iterates[j])

    def test_pgd_has_no_momentum(self, monkeypatch):
        def no_extrapolation(*args):
            pytest.fail("pgd extrapolated")

        monkeypatch.setattr(solvers, "extrapolate", no_extrapolation)
        prob = dict(_seeded_problems())[0]
        trace = pgd(prob, np.zeros(prob.d), K=50, record_timing=False)
        assert not trace.restarted.any()
        assert trace.summary()["restarts"] == 0


def _assert_same_trace(a, b):
    """Every Trace field but wall_ms equal bit for bit."""
    for f in dataclasses.fields(solvers.Trace):
        if f.name == "wall_ms":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, (np.ndarray, float)):
            x, y = np.asarray(x), np.asarray(y)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert x == y, f.name


def _spy_at_rest(monkeypatch):
    """Wrap the loop's rest test; the list returned collects its answers."""
    answers, real = [], solvers._at_rest

    def spy(before, after):
        answers.append(real(before, after))
        return answers[-1]

    monkeypatch.setattr(solvers, "_at_rest", spy)
    return answers


def _full_loop(monkeypatch, call):
    """call() with the rest test off, so the loop computes every row."""
    with monkeypatch.context() as m:
        m.setattr(solvers, "_at_rest", lambda before, after: False)
        return call()


class TestAtRest:
    """Once the loop state repeats bit for bit, every later row repeats the
    last one, and the loop fills the rows up to K instead of computing them."""

    def test_fill_equals_the_full_loop(self, monkeypatch):
        rested = 0
        for seed, prob in _seeded_problems():
            for solver in (ppgd, apg_monotone, pgd):
                answers = _spy_at_rest(monkeypatch)
                trace = solver(prob, np.zeros(prob.d), K=150)
                if not any(answers):
                    continue
                rested += 1
                assert trace.wall_ms[-1] == 0.0  # a filled row costs nothing
                full = _full_loop(monkeypatch, lambda: solver(prob, np.zeros(prob.d), K=150))
                _assert_same_trace(trace, full)
        assert rested == 29

    @pytest.mark.parametrize("case", ["met", "missed"])
    def test_stop_row_equals_the_full_loop(self, monkeypatch, case):
        if case == "met":  # at rest from row 1 with residual 0 and no transition
            prob, x0, s, stop = random_ls_problem(0, lam=10.0), np.zeros(12), None, 10
        else:  # at s = 4 every probe fails the guard: x rests with residual 1.8
            prob, x0, s, stop = one_d_problem(), np.zeros(1), 4.0, 150
        answers = _spy_at_rest(monkeypatch)
        trace = ppgd(prob, x0, s=s, K=150, stop_tol=1e-3)
        assert answers[-1]
        full = _full_loop(monkeypatch, lambda: ppgd(prob, x0, s=s, K=150, stop_tol=1e-3))
        _assert_same_trace(trace, full)
        assert trace.k[-1] == stop


class TestTraceRows:
    """Trace.k is derived from the row count; head cuts every per-row field."""

    @pytest.mark.parametrize("case", ["rest", "stop-tol"])
    def test_k_counts_the_rows(self, monkeypatch, case):
        answers = _spy_at_rest(monkeypatch)
        if case == "rest":  # x0 = 0 is the minimizer: at rest from row 1, filled up to K
            prob = random_ls_problem(0, lam=10.0)
            trace = ppgd(prob, np.zeros(prob.d), K=150)
            assert any(answers) and len(trace.objective) == 151
        else:  # stops on the residual test before K, never at rest
            prob = few_moves_problem()
            trace = ppgd(prob, np.zeros(prob.d), K=2000, stop_tol=1e-3)
            assert not any(answers) and len(trace.objective) < 2001
        assert trace.k.dtype == np.int64
        assert np.array_equal(trace.k, np.arange(len(trace.objective)))

    def test_head_is_the_shorter_run(self):
        prob = dict(_seeded_problems())[0]
        long = ppgd(prob, np.zeros(prob.d), K=60, record_timing=False)
        short = ppgd(prob, np.zeros(prob.d), K=25, record_timing=False)
        head = long.head(26)
        assert math.isnan(head.final_residual)
        head.final_residual = short.final_residual
        _assert_same_trace(head, short)
        assert np.array_equal(head.k, short.k)
        _assert_same_trace(long.head(10 ** 6), long)

    @pytest.mark.parametrize("n", [0, -1, 2.0])
    def test_head_needs_a_row(self, n):
        prob = one_d_problem()
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            ppgd(prob, np.zeros(1), K=3).head(n)


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
    @pytest.mark.parametrize("kw, message", [
        ({"safety": -1.0}, "safety must be finite and positive"),
        ({"safety": 0.0}, "safety must be finite and positive"),
        ({"safety": math.nan}, "safety must be finite and positive"),
        ({"safety": math.inf}, "safety must be finite and positive"),
        ({"n_samples": -3}, "n_samples must be an integer >= 0"),
        ({"n_samples": 2.5}, "n_samples must be an integer >= 0"),
    ], ids=["safety-negative", "safety-zero", "safety-nan", "safety-inf", "samples-negative",
            "samples-float"])
    def test_bad_settings_rejected(self, kw, message):
        # a negative safety once gave a negative bound, and a negative count
        # sampled no points
        prob = Problem(least_squares(Dataset(np.eye(3), np.ones(3))), l1_penalty(0.1))
        with pytest.raises(ValueError, match=message):
            estimate_G(prob, np.zeros(3), **kw)

    @pytest.mark.parametrize("x0, message", [
        ([0.0, math.nan, 0.0], "x0 must hold 3 finite numbers"),
        ([0.0, math.inf, 0.0], "x0 must hold 3 finite numbers"),
        ([0.0, 0.0], r"x0 must hold 3 finite numbers, got shape \(2,\)"),
        ([[0.0, 0.0, 0.0]], r"x0 must hold 3 finite numbers, got shape \(1, 3\)"),
        (0.0, r"x0 must hold 3 finite numbers, got shape \(\)"),
    ], ids=["nan", "inf", "short", "2-d", "scalar"])
    def test_bad_x0_rejected(self, x0, message):
        # these once gave nan with RuntimeWarnings, numpy's matmul message,
        # or a bound from the 2-d x0's rows
        prob = Problem(least_squares(Dataset(np.eye(3), np.ones(3))), l1_penalty(0.1))
        with pytest.raises(ValueError, match=message):
            estimate_G(prob, x0)

    @pytest.mark.parametrize("iterates", [
        np.zeros((4, 2)), np.zeros(3), np.zeros((0, 3)), np.zeros((2, 3, 1)),
        np.array([[0.0, 0.0, 0.0], [0.0, math.nan, 0.0]]),
    ], ids=["narrow", "1-d", "no-rows", "3-d", "nan"])
    def test_bad_trace_iterates_rejected(self, iterates):
        prob = Problem(least_squares(Dataset(np.eye(3), np.ones(3))), l1_penalty(0.1))
        with pytest.raises(ValueError, match="trace iterates must be k >= 1 rows of 3 finite"):
            estimate_G(prob, np.zeros(3), trace=SimpleNamespace(iterates=iterates))

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


    @pytest.mark.parametrize("kind", ["least-squares", "logistic"])
    def test_matches_per_row_loop(self, kind):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 6))
        if kind == "logistic":
            loss = logistic_loss(Dataset(X, rng.choice((-1.0, 1.0), size=40)))
        else:
            loss = least_squares(Dataset(X, rng.standard_normal(40)))
        prob = Problem(loss, capped_l1(0.2, 1.0))
        trace = ppgd(prob, rng.standard_normal(6), K=20)
        # the per-point loop estimate_G ran before it batched its gradients
        lo = trace.iterates.min(axis=0) - prob.min_r0()
        hi = trace.iterates.max(axis=0) + prob.min_r0()
        unit = np.random.default_rng(0).random((300, 6))
        points = [lo, hi, 0.5 * (lo + hi), *(lo + unit * (hi - lo))]
        expect = 1.5 * max(float(np.linalg.norm(loss.gradient(p))) for p in points)
        got = estimate_G(prob, trace.iterates[0], trace=trace, n_samples=300)
        assert got == pytest.approx(expect, rel=1e-12)


class TestTiledDesign:
    """[[3, -3], [0.1, 0.1]] tiled 50 times: sigma_max = 30 with a top right
    singular vector orthogonal to the all-ones vector."""

    @staticmethod
    def problem():
        X = np.tile([[3.0, -3.0], [0.1, 0.1]], (50, 1))
        return Problem(least_squares(Dataset(X, np.ones(100))), capped_l1(1.0, 1.0))

    def test_pgd_does_not_diverge(self):
        trace = pgd(self.problem(), np.array([1.0, 0.0]))
        assert np.all(np.diff(trace.objective) <= 1e-12)

    def test_ppgd_leaves_the_start(self):
        prob = self.problem()
        x0 = np.array([1.0, 0.0])
        assert prob.objective(x0) == pytest.approx(241.5, rel=1e-12)
        assert ppgd(prob, x0).objective[-1] < 241.5


# the penalties of TestMixedPenalties, plus one single-piece penalty
_MIXED = (capped_l1(0.05, 0.3), l0_penalty(0.02), indicator_penalty(0.03, 0.0),
          leaky_capped_l1(0.05, 0.3, 0.01), l1_penalty(0.1))


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

    def test_wrong_number_of_penalties_rejected(self):
        data = Dataset(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="need 3 per-coordinate penalties, got 2"):
            Problem(least_squares(data), [capped_l1(0.2, 1.0)] * 2)

    @pytest.mark.parametrize("bad", [0.3, None, "l1"])
    def test_entry_that_is_not_a_penalty_names_its_coordinate(self, bad):
        data = Dataset(np.zeros((2, 3)), np.zeros(2))
        fn = capped_l1(0.2, 1.0)
        with pytest.raises(TypeError, match="coordinate 2 .* not a PiecewiseFn"):
            Problem(least_squares(data), [fn, fn, bad])

    def test_penalty_is_one_sum_per_group(self):
        lam, b, tau = 0.2, 1.0, 0.3
        fns = (capped_l1(lam, b), l0_penalty(lam), indicator_penalty(lam, tau))
        formulas = (lambda x: np.where(np.abs(x) <= b, lam * np.abs(x), lam * b),
                    lambda x: np.where(x == 0.0, 0.0, lam),
                    lambda x: np.where(x < tau, lam, 0.0))
        data = Dataset(np.zeros((1, 50)), np.zeros(1))
        for seed in range(200):
            rng = np.random.default_rng(seed)
            group = rng.integers(0, 3, size=50)
            prob = Problem(least_squares(data), [fns[g] for g in group])
            x = rng.uniform(-3.0, 3.0, size=50)
            on_breakpoint = rng.random(50) < 0.3
            x[on_breakpoint] = rng.choice([0.0, tau, b, -b], size=int(on_breakpoint.sum()))
            # one sum per group, added one after another in order of first use
            # (not with sum(), which compensates from Python 3.12 on)
            expect = 0.0
            for g in dict.fromkeys(group.tolist()):
                expect += float(np.sum(formulas[g](x[group == g])))
            assert prob.surrogate_penalty(prob.assignments(x), x) == expect
            assert prob.penalty_value(x) == expect

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), which=st.lists(st.integers(0, len(_MIXED) - 1), min_size=1, max_size=12),
           s=st.floats(1e-3, 10.0), w0=st.floats(0.01, 1.0))
    def test_table_rules_equal_the_per_group_rules(self, data, which, s, w0):
        # each penalty group of a mixed problem, taken alone on its own
        # coordinates, gives the same bytes, sum and accept flag; the mixed
        # problem judges one group's crossings by leaving the others on x's pieces
        fns = [_MIXED[j] for j in which]
        d = len(fns)
        mixed = zero_loss_problem(fns, d)
        pool = [0.0, -0.0, 0.3, -0.3, 0.29, 1.0]
        values = st.lists(st.one_of(st.sampled_from(pool), st.floats(-5.0, 5.0)),
                          min_size=d, max_size=d)
        x, u, z = (np.array(data.draw(values)) for _ in range(3))
        ax, az = mixed.assignments(x), mixed.assignments(z)
        w = mixed.project(x, u, ax)
        groups: dict = {}
        for i, fn in enumerate(fns):
            groups.setdefault(fn, []).append(i)
        project, prox, penalty, accepts = np.empty(d), np.empty(d), 0.0, []
        for fn, ix in groups.items():
            alone = zero_loss_problem(fn, len(ix))
            a = alone.assignments(x[ix])
            project[ix] = alone.project(x[ix], u[ix], a)
            prox[ix] = alone.prox_step(a, s, u[ix])
            penalty += alone.surrogate_penalty(a, z[ix])
            accepts.append(alone.nce(z[ix], w[ix], w0, a, alone.assignments(z[ix])))
            group_only = ax.copy()
            group_only[ix] = az[ix]
            assert mixed.nce(z, w, w0, ax, group_only) is accepts[-1]
        assert w.tobytes() == project.tobytes()
        assert mixed.prox_step(ax, s, u).tobytes() == prox.tobytes()
        assert mixed.surrogate_penalty(ax, z) == penalty
        assert mixed.nce(z, w, w0, ax, az) is any(accepts)

    def test_same_piece_probe_valued_as_the_objective(self):
        rng = np.random.default_rng(0)
        n, d = 60, 200
        D = rng.standard_normal((n, d)) / math.sqrt(n)
        pens = [capped_l1(0.05, 0.3), l0_penalty(0.02), indicator_penalty(0.03, 0.0),
                leaky_capped_l1(0.05, 0.3, 0.01)]
        prob = Problem(least_squares(Dataset(D, rng.standard_normal(n))),
                       [pens[j % 4] for j in range(d)])
        trace = ppgd(prob, np.zeros(d), K=100)
        same = [k for k, o in enumerate(trace.nce_outcomes) if o == "same-piece"]
        assert len(same) > 50 and trace.n_transitions[-1] > 0
        assert [k for k in same if trace.surrogate_objective[k] != trace.objective[k]] == []


# penalties whose pieces own their edges in every way the tags allow: both
# edges of a continuous breakpoint (capped-l1, leaky), a right-only jump
# (indicator), isolated single points (l0, and a point with an isolated and a
# left-only edge), a point between a right-only and a continuous tag, a custom
# middle piece, and one piece on the whole line
_PLAN_PENALTIES = (
    capped_l1(0.2, 1.0), leaky_capped_l1(0.3, 0.5, 0.1), indicator_penalty(0.4, 0.25),
    l0_penalty(0.3), _nce_penalty("point isolated/left-only", 0.0, 0.0, -0.5, 0.0),
    _nce_penalty("point right-only/continuous", 0.0, 0.0, 0.75, 0.0),
    build_piecewise([PieceSpec(-math.inf, -1.0, Constant(0.5)),
                     PieceSpec(-1.0, 1.0, lambda v: 0.5 * v * v),
                     PieceSpec(1.0, math.inf, Constant(0.5))], ["continuous", "continuous"]),
    l1_penalty(0.1))


def _near_breakpoints(fn):
    """Points on, beside and between fn's breakpoints, both zeros and any float."""
    qs = sorted({e.value for e in fn.endpoints}) or [0.0]
    pool = [0.0, -0.0] + [v for q in qs
                          for v in (q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf), q + 0.1)]
    return st.one_of(st.sampled_from(pool), st.floats(-3.0, 3.0))


class TestPiecePlan:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), which=st.lists(st.integers(0, len(_PLAN_PENALTIES) - 1),
                                          min_size=1, max_size=6))
    def test_same_piece_test_is_the_membership_rule(self, data, which):
        fns = [_PLAN_PENALTIES[j] for j in which]
        prob = zero_loss_problem(fns, len(fns))
        x, z = (np.array([data.draw(_near_breakpoints(fn)) for fn in fns]) for _ in range(2))
        assign = prob.assignments(x)
        assert prob._plan(assign).holds(z) is np.array_equal(prob.assignments(z), assign)
        assert prob._plan(assign).holds(x)
        for bad in (math.nan, math.inf, -math.inf):  # no membership either
            assert not prob._plan(assign).holds(np.where(np.arange(len(fns)) == 0, bad, x))

    def test_mutated_assignment_never_reads_a_stale_plan(self):
        fn = capped_l1(0.2, 1.0)
        prob, fresh = zero_loss_problem(fn, 4), zero_loss_problem(fn, 4)
        x = np.array([0.5, -2.0, 2.0, 1.0])
        u = np.array([3.0, 3.0, -3.0, 0.5])
        a = prob.assignments(x)
        for numbers in ([2, 2, 2, 2], [1, 3, 3, 2], [3, 1, 2, 3]):
            # build and read the plan of a's current numbers, then change them
            prob.project(x, u, a), prob.prox_step(a, 0.5, u), prob.surrogate_penalty(a, u)
            a[:] = numbers  # in place: the same array, other pieces
            b = np.array(numbers)
            assert prob.project(x, u, a).tobytes() == fresh.project(x, u, b).tobytes()
            assert prob.prox_step(a, 0.5, u).tobytes() == fresh.prox_step(b, 0.5, u).tobytes()
            assert prob.surrogate_penalty(a, u) == fresh.surrogate_penalty(b, u)
            assert prob._plan(a).holds(u) is fresh._plan(b).holds(u)
        with pytest.raises(ValueError):  # the plan keeps a read-only copy
            prob._plan(a).assign[0] = 1

    def test_bad_assignments_raise(self):
        prob = zero_loss_problem(capped_l1(0.2, 1.0), 3)
        with pytest.raises(ValueError, match="expected 3 surrogates"):
            prob.project(np.zeros(3), np.zeros(3), np.array([2, 2]))
        with pytest.raises(ValueError, match="coordinate 1 has surrogate number 0"):
            prob.prox_step(np.array([2, 0, 2]), 0.5, np.zeros(3))
        with pytest.raises(ValueError, match=r"x has shape \(4,\), expected \(3,\)"):
            prob.prox_step(np.array([2, 2, 2]), 0.5, np.zeros(4))

    @pytest.mark.parametrize("call", [
        lambda prob, a, v: prob.penalty_value(v),
        lambda prob, a, v: prob.assignments(v),
        lambda prob, a, v: prob.surrogate_penalty(a, v),
        lambda prob, a, v: prob.project(v, np.zeros(4), a),
        lambda prob, a, v: prob.project(np.zeros(4), v, a),
        lambda prob, a, v: prob.prox_exact(0.5, v),
        lambda prob, a, v: prob.prox_step(a, 0.5, v),
    ], ids=["penalty_value", "assignments", "surrogate_penalty", "project-x", "project-u",
            "prox_exact", "prox_step"])
    @pytest.mark.parametrize("n", [3, 5, 1, pytest.param((2, 2), id="2x2")])
    def test_vector_of_another_length_rejected(self, call, n):
        # these once dropped the extra coordinates, broadcast a short vector,
        # failed inside numpy, or (prox_step) flattened a 2 x 2 v
        prob = zero_loss_problem(capped_l1(0.2, 1.0), 4)
        v = np.full(n, 5.0)
        with pytest.raises(ValueError, match=re.escape(f"x has shape {v.shape}, expected (4,)")):
            call(prob, np.full(4, 2), v)


class TestExactProxValuation:
    @pytest.mark.parametrize("seed", range(20))
    def test_value_and_pieces_equal_a_membership_pass(self, seed):
        # the 20 seeded problems of tests/test_acceptance.py
        prob = dict(_seeded_problems())[seed]
        fn, s, rng = prob.penalty, default_step_size(prob), np.random.default_rng(seed)
        # points the exact prox sends onto, beside and between the breakpoints
        slopes = [0.0] + [t for p in fn.pieces for t in (p.left_slope, p.right_slope)
                          if math.isfinite(t)]
        pool = np.array([e.value + s * t for e in fn.endpoints for t in slopes] + [0.0, -0.0])
        trace = apg_monotone(prob, np.zeros(prob.d), s=s, K=20)
        draws = [np.where(rng.random(prob.d) < 0.5, rng.choice(pool, prob.d),
                          rng.uniform(-3.0, 3.0, prob.d)) for _ in range(10)]
        draws += [x - s * prob.loss.gradient(x) for x in trace.iterates]
        for v in draws:
            z, values, pieces = _prox_true_valued(fn, s, v)  # one penalty group
            assert z.tobytes() == prox_true(fn, s, v).tobytes()
            assign = prob.assignments(z)
            assert pieces.tobytes() == assign.tobytes()
            penalty = prob.surrogate_penalty(assign, z)
            assert np.float64(np.sum(values)).tobytes() == np.float64(penalty).tobytes()
            pz = prob.loss.data.features @ z
            F = prob.loss.value(z, pz) + penalty
            got = prob.prox_exact(s, v)
            assert [a.tobytes() for a in (got[0], got[1], np.float64(got[2]), got[3])] == \
                [a.tobytes() for a in (z, pz, np.float64(F), assign)]


def few_moves_problem():
    """Least squares with d = 1000: coordinates 0-9 carry capped-l1, l0 and
    indicator penalties, the rest l1, whose single piece the projection
    never clips.  So ppgd's projection moves at most 10 coordinates, 1% of d,
    and corrects X @ u on those columns instead of taking X @ w afresh."""
    rng = np.random.default_rng(0)
    n, d = 40, 1000
    D = rng.standard_normal((n, d)) / math.sqrt(n)
    pens = [capped_l1(0.05, 0.1), l0_penalty(0.02), indicator_penalty(0.02, 0.0)]
    penalty = [pens[j % 3] for j in range(10)] + [l1_penalty(0.3)] * (d - 10)
    return Problem(least_squares(Dataset(D, rng.standard_normal(n))), penalty)


class _CountedMatrix(np.ndarray):
    """A feature matrix that counts the products taken with the whole of it
    (X @ v or X.T @ r), not those with a gather of its columns."""

    full_size = 0
    full_products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and any(isinstance(a, _CountedMatrix)
                                      and a.size == _CountedMatrix.full_size for a in inputs):
            _CountedMatrix.full_products += 1
        inputs = [a.view(np.ndarray) if isinstance(a, _CountedMatrix) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def _products_counter(monkeypatch, prob):
    """Count the full products with prob's feature matrix: returns a function
    that runs call() and gives its result and the products it took."""
    data = prob.loss.data
    monkeypatch.setattr(_CountedMatrix, "full_size", data.features.size)
    object.__setattr__(data, "features", data.features.view(_CountedMatrix))

    def run(call):
        monkeypatch.setattr(_CountedMatrix, "full_products", 0)
        result = call()
        return result, _CountedMatrix.full_products

    return run


class TestLossProducts:
    def test_products_stay_within_1e_12_of_fresh_ones(self, monkeypatch):
        prob = few_moves_problem()
        X = prob.loss.data.features
        errors = []
        for name in ("value", "gradient"):
            method = getattr(type(prob.loss), name)

            def checked(loss, x, Xx=None, _method=method):
                if Xx is not None:
                    fresh = X @ x
                    errors.append(np.max(np.abs(Xx - fresh)) - 1e-12 * np.max(np.abs(fresh)))
                return _method(loss, x, Xx)

            monkeypatch.setattr(type(prob.loss), name, checked)
        moved = []
        shifted = solvers._shifted_product

        def counted(X, pu, u, w):
            moved.append(int(np.count_nonzero(w != u)))
            return shifted(X, pu, u, w)

        monkeypatch.setattr(solvers, "_shifted_product", counted)
        for solver in (ppgd, apg_monotone, pgd):
            solver(prob, np.zeros(prob.d), K=60)
        assert 0 < max(moved) <= 10
        assert len(errors) == 3 * (1 + 2 * 60 + 1)
        assert max(errors) <= 0.0

    @staticmethod
    def _fixed_k_products(monkeypatch, solver, x0_last):
        """Full products of a K = 60 call on few_moves_problem from zero but
        for x0's last (l1) coordinate."""
        prob = few_moves_problem()
        run = _products_counter(monkeypatch, prob)
        x0 = np.zeros(prob.d)
        x0[-1] = x0_last
        trace, products = run(lambda: solver(prob, x0, K=60))
        if solver is ppgd:
            assert trace.n_transitions[-1] > 0
        return products

    @pytest.mark.parametrize("solver", [ppgd, apg_monotone, pgd])
    def test_two_full_products_per_iteration(self, monkeypatch, solver):
        # X.T @ r and X @ z per iteration, then X.T @ r for the final
        # residual; a zero x0 takes no X @ x0
        assert self._fixed_k_products(monkeypatch, solver, 0.0) == 2 * 60 + 1

    @pytest.mark.parametrize("solver", [ppgd, apg_monotone, pgd])
    def test_a_nonzero_start_takes_its_product(self, monkeypatch, solver):
        assert self._fixed_k_products(monkeypatch, solver, 0.01) == 2 * 60 + 2

    def test_zero_start_has_the_product_bits(self):
        # X is finite, so X @ 0 is +0.0 in every row, for either zero sign:
        # the zeros the loop takes instead are the same bytes
        problems = [prob for _, prob in _seeded_problems()] + [few_moves_problem()]
        for prob in problems:
            X = prob.loss.data.features
            for zero in (np.zeros(prob.d), -np.zeros(prob.d)):
                assert (X @ zero).tobytes() == np.zeros(X.shape[0]).tobytes()

    def test_a_stopping_run_reuses_its_stop_test_residual(self, monkeypatch):
        # the stop test's residual at the stop is the final residual, so the
        # run takes no gradient pass after it: X.T @ r per stop test and the
        # two products per iteration, nothing for a zero x0 or at the end
        prob = few_moves_problem()
        run = _products_counter(monkeypatch, prob)
        trace, products = run(lambda: ppgd(prob, np.zeros(prob.d), K=2000, stop_tol=1e-3))
        k = int(trace.k[-1])
        assert k < 2000 and trace.final_residual < 1e-3
        last = np.maximum.accumulate(np.where(trace.transitions, trace.k, 0))
        tests = int(np.count_nonzero(trace.k[1:] - last[1:] >= 10))
        assert tests > 0
        assert products == 2 * k + tests
        assert trace.final_residual == solvers.stationarity_residual(prob, trace.final_x, trace.s)

    @pytest.mark.parametrize("solver", [ppgd, apg_monotone, pgd])
    def test_a_run_at_rest_takes_no_more_products(self, monkeypatch, solver):
        # x0 = 0 is the minimizer and every step returns it, so the loop
        # comes to rest at once and fills the rows up to K
        prob = random_ls_problem(0, lam=10.0)
        run = _products_counter(monkeypatch, prob)
        _, few = run(lambda: solver(prob, np.zeros(prob.d), K=10))
        trace, many = run(lambda: solver(prob, np.zeros(prob.d), K=10 ** 4))
        assert np.array_equal(trace.k, np.arange(10 ** 4 + 1))
        assert many <= few < 2 * 10 + 2

    def test_a_stalled_run_is_not_cut_short(self, monkeypatch):
        # test_run_does_not_stall_silently's example: every step is an
        # nce-reject, whose probe z is not x, so the loop never rests and
        # each further iteration takes its products
        prob = Problem(least_squares(Dataset([[1.0]], [3.0])), capped_l1(0.1, 0.5))
        run = _products_counter(monkeypatch, prob)
        (short, few), (long, many) = [run(lambda: ppgd(prob, np.array([-3.0]), K=K))
                                      for K in (50, 500)]
        assert short.final_x[0] == long.final_x[0] == -3.0
        assert many - few >= 2 * 450


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

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piecewise_prox import (
    Dataset,
    PieceSpec,
    Problem,
    ProxError,
    Quadratic,
    build_piecewise,
    capped_l1,
    indicator_penalty,
    l0_penalty,
    l1_penalty,
    leaky_capped_l1,
    least_squares,
    minimizer_halfwidth,
    prox_oracle,
    prox_surrogate,
    prox_true,
    zero_penalty,
)
from piecewise_prox.piecewise import Affine, Constant, ScaledAbs
from piecewise_prox.prox import (
    _closure_candidate,
    _flat,
    _least_rows,
    _pick,
    _pick_rows,
    _section_min,
    _section_scalar,
)

from helpers import prox_vector
from test_piecewise import TILING_IDS, TILING_PENALTIES


def objective(f, s, x, v):
    return (v - x) ** 2 / (2.0 * s) + float(f(np.asarray(v, dtype=float)))


def tie_break(a: float, b: float) -> float:
    """The library tie rule between two global minimizers: smaller |v| first,
    then smaller v."""
    return min(a, b, key=lambda v: (abs(v), v))


class TestClosedForms:
    def test_soft_threshold(self):
        f2 = capped_l1(1.0, 1.0).surrogate(2)
        assert prox_surrogate(f2, 0.5, 2.0) == pytest.approx(1.5)
        assert prox_surrogate(f2, 0.5, -2.0) == pytest.approx(-1.5)
        assert prox_surrogate(f2, 0.5, 0.3) == 0.0

    def test_constant_is_identity(self):
        f1 = capped_l1(1.0, 1.0).surrogate(1)
        assert prox_surrogate(f1, 0.7, 0.37) == 0.37

    def test_indicator_snap_branches(self):
        # lam=2, s=0.25 so sqrt(2 lam s) = 1, tau = 1
        f2 = indicator_penalty(2.0, 1.0).surrogate(2)
        assert prox_surrogate(f2, 0.25, 0.5) == 1.0
        assert prox_surrogate(f2, 0.25, -0.5) == -0.5
        assert prox_surrogate(f2, 0.25, 2.0) == 2.0

    def test_indicator_snap_tie(self):
        # at x exactly tau - sqrt(2 lam s) both branches are global minimizers
        f2 = indicator_penalty(2.0, 1.0).surrogate(2)
        x = 1.0 - math.sqrt(2.0 * 2.0 * 0.25)
        out = prox_surrogate(f2, 0.25, x)
        assert out == 0.0  # smaller absolute value wins
        assert abs(objective(f2, 0.25, x, out) - objective(f2, 0.25, x, 1.0)) < 1e-12

    def test_hard_threshold(self):
        f2 = l0_penalty(1.0).surrogate(2)
        assert prox_surrogate(f2, 0.5, 0.4) == 0.0
        assert prox_surrogate(f2, 0.5, 1.4) == 1.4
        # tie at |x| = sqrt(2 lam s) = 1: origin wins on absolute value
        assert prox_surrogate(f2, 0.5, 1.0) == 0.0

    def test_linear_shift(self):
        from piecewise_prox import leaky_capped_l1

        f3 = leaky_capped_l1(1.0, 1.0, 0.5).surrogate(3)
        assert prox_surrogate(f3, 0.4, 2.0) == pytest.approx(2.0 - 0.4 * 0.5)

    def test_soft_threshold_sign_and_origin(self):
        f2 = capped_l1(0.7, 2.0).surrogate(2)
        assert prox_surrogate(f2, 0.9, 0.0) == 0.0
        rng = np.random.default_rng(4)
        for x in rng.uniform(-5, 5, size=50):
            out = prox_surrogate(f2, 0.9, float(x))
            assert out * x >= 0.0


class TestOracle:
    def test_quadratic_analytic(self):
        # argmin (v-x)^2/(2s) + v^2 = x / (1 + 2s)
        out = prox_oracle(lambda v: np.asarray(v) ** 2, 1.0, 3.0, 4.0, 1e-5)
        assert out == pytest.approx(1.0, abs=1e-6)

    def test_zero_function_identity(self):
        out = prox_oracle(lambda v: 0.0 * np.asarray(v), 0.5, 1.234, 1.0, 1e-5)
        assert out == pytest.approx(1.234, abs=1e-9)

    def test_true_capped_l1_branch_choice(self):
        # prox of the true penalty near the cap: compare both branch candidates
        fn = capped_l1(0.2, 1.0)
        s, x = 1.0, 1.05
        out = prox_oracle(fn.evaluate, s, x, 2.0, 1e-6)
        soft = math.copysign(abs(x) - 0.2 * s, x)
        best = min((soft, x), key=lambda v: objective(fn.evaluate, s, x, v))
        assert objective(fn.evaluate, s, x, out) <= objective(fn.evaluate, s, x, best) + 1e-9

    def test_nonfinite_rejected(self):
        with np.errstate(invalid="ignore", divide="ignore"), \
                pytest.raises(ProxError, match="non-finite"):
            prox_oracle(lambda v: np.log(np.asarray(v)), 1.0, 0.5, 2.0, 1e-3)

    @pytest.mark.parametrize("halfwidth, resolution", [
        *((bad, 1e-3) for bad in (0.0, -1.0, math.nan, math.inf)),
        *((1.0, bad) for bad in (0.0, -1.0, math.nan, math.inf)),
        (1.0, 1e-300),  # 2e300 grid points: it once ran until killed
    ])
    def test_bad_bracket_rejected(self, halfwidth, resolution):
        with pytest.raises(ValueError, match=r"halfwidth and resolution must (be finite and "
                                             r"positive|give at most 1e\+08 grid points)"):
            prox_oracle(lambda v: np.abs(v), 0.5, 0.3, halfwidth, resolution)

    def test_scalar_search_equals_lockstep_search(self):
        # the oracle's own search must take the samples _section_min takes
        rng = np.random.default_rng(23)
        lo = rng.uniform(-5.0, 5.0, size=200)
        hi = lo + np.where(rng.random(200) < 0.05, 0.0, 10.0 ** rng.uniform(-13.0, 3.0, 200))
        u = rng.uniform(-5.0, 5.0, size=200)

        def psi_for(u):
            return lambda v: (v - u) * (v - u) / 0.6 + np.sqrt(1.0 + v * v) + 0.4 * np.abs(v - 0.2)

        for tol in (1e-12, 1e-10):
            v, fv = _section_min(psi_for(u), lo, hi, tol=tol)
            for i in range(lo.size):
                vi, fi = _section_scalar(psi_for(float(u[i])), float(lo[i]), float(hi[i]), tol)
                assert np.array([vi, fi]).tobytes() == np.array([v[i], fv[i]]).tobytes()

    def test_search_stops_when_a_round_cannot_narrow(self):
        # neighbouring floats at 1e6 lie 1.2e-10 apart, wider than tol, so
        # the grid holds only the two ends and the bracket cannot shrink
        lo = np.array([1e6])
        hi = np.nextafter(lo, np.inf)
        calls = []

        def psi(v):
            calls.append(v)
            return -v

        v, fv = _section_min(psi, lo, hi)
        assert (v[0], fv[0], len(calls)) == (hi[0], -hi[0], 1)
        assert _section_scalar(psi, float(lo[0]), float(hi[0]), 1e-12) == (hi[0], -hi[0])
        assert len(calls) == 2

    def test_halfwidth_is_sound(self):
        # the bracket bound must contain the closed-form minimizer
        rng = np.random.default_rng(11)
        f2 = indicator_penalty(2.0, 1.0).surrogate(2)
        for _ in range(200):
            s = rng.uniform(1e-3, 1.0)
            x = rng.uniform(-10, 10)
            hw = minimizer_halfwidth(0.0, 2.0, (1.0,), s, x)
            out = prox_surrogate(f2, s, float(x))
            assert abs(out - x) <= hw


class TestVector:
    def test_constant_coordinates_unchanged(self):
        fn = capped_l1(1.0, 1.0)
        u = np.array([0.3, -2.5])
        assert np.array_equal(prox_vector(fn.surrogates, [1, 1], 0.5, u), u)

    def test_mixed_kernels_match_scalar_calls(self):
        fn = capped_l1(0.5, 1.0)
        l0 = l0_penalty(0.8)
        surs = [fn.surrogate(2), fn.surrogate(3), l0.surrogate(2)]
        u = np.array([0.9, 4.0, 0.2])
        # one call on a table of both penalties' surrogates, as Problem.prox_step
        # makes it: l0's piece 2 is entry 5
        out = prox_vector(fn.surrogates + l0.surrogates, [2, 3, 5], 0.6, u)
        expect = np.array([prox_surrogate(s_, 0.6, float(ui)) for s_, ui in zip(surs, u)])
        assert np.array_equal(out, expect)

    def test_matches_oracle_capped_l1(self):
        fn = capped_l1(0.2, 1.0)
        rng = np.random.default_rng(7)
        u = rng.uniform(-3, 3, size=20)
        s = 0.8
        assign = fn.piece_index(u)
        surs = [fn.surrogate(int(m)) for m in assign]
        out = prox_vector(fn.surrogates, assign, s, u)
        for i, sur in enumerate(surs):
            hw = minimizer_halfwidth(sur.piece.slope_bound(), 0.0, (), s, float(u[i]))
            ref = prox_oracle(sur, s, float(u[i]), hw, 1e-6)
            assert abs(out[i] - ref) < 1e-5

    def test_length_mismatch(self):
        fn = capped_l1(0.2, 1.0)
        with pytest.raises(ValueError, match="surrogates"):
            prox_vector(fn.surrogates, [1], 0.5, np.zeros(2))

    @pytest.mark.parametrize("call", [
        lambda fn, s, u: prox_surrogate(fn.surrogate(2), s, 0.5),
        lambda fn, s, u: prox_vector(fn.surrogates, fn.piece_index(u), s, u),
        lambda fn, s, u: prox_true(fn, s, u),
        lambda fn, s, u: prox_oracle(fn.evaluate, s, 0.5, 1.0, 1e-3),
        lambda fn, s, u: Problem(least_squares(Dataset(np.eye(2), np.ones(2))), fn)
        .prox_step([2, 3], s, u),
        lambda fn, s, u: Problem(least_squares(Dataset(np.eye(2), np.ones(2))), fn)
        .prox_exact(s, u),
    ], ids=["prox_surrogate", "prox_vector", "prox_true", "prox_oracle", "prox_step",
            "prox_exact"])
    @pytest.mark.parametrize("s", [0.0, -0.5, math.nan, math.inf])
    def test_bad_step_rejected(self, call, s):
        # each once returned numbers or raised a ProxError about NaN objectives
        with pytest.raises(ValueError, match="step size must be finite and positive"):
            call(capped_l1(0.2, 1.0), s, np.array([0.5, 2.0]))

    @pytest.mark.parametrize("assign, first", [([0, 4, 2], 0), ([1, 2, 4], 2), ([1, 1.5, 2], 1)])
    def test_number_outside_table(self, assign, first):
        # no entry serves such a coordinate; it once came back as np.empty garbage
        fn = capped_l1(0.2, 1.0)
        with pytest.raises(ValueError, match=f"coordinate {first} .* outside 1..3"):
            prox_vector(fn.surrogates, np.array(assign), 0.5, np.array([1.0, 2.0, 3.0]))


def linear_wings():
    # quadratic bowl piece between affine pieces: its surrogate is the
    # quadratic's closed form on [-1, 1] and linear wings beyond
    return build_piecewise(
        [
            PieceSpec(-math.inf, -1.0, Affine(-1.0, 0.0)),
            PieceSpec(-1.0, 1.0, Quadratic(1.0, 0.0, 0.0)),
            PieceSpec(1.0, math.inf, Affine(0.5, 0.5)),
        ],
        ["continuous", "continuous"],
    )


def constant_limit_wing():
    # the custom middle piece owns the jump at 0, so its left wing is the
    # constant limit 1; it does not own the jump at 2, so its right wing is
    # affine through its own limit
    return build_piecewise(
        [
            PieceSpec(-math.inf, 0.0, Affine(-0.3, 1.0)),
            PieceSpec(0.0, 2.0, lambda x: 0.5 * x * x),
            PieceSpec(2.0, math.inf, Constant(1.5)),
        ],
        ["right-only", "right-only"],
    )


def capped_pseudo_huber(lam=0.05, b=0.5, seen=None):
    """The benchmark's kernel-less penalty: lam (sqrt(1 + x^2) - 1) on
    [-b, b], constant beyond.  Each input of the middle shape is appended to
    ``seen`` when it is a list."""
    cap = lam * (math.sqrt(1.0 + b * b) - 1.0)

    def shape(x):
        if seen is not None:
            seen.append(np.array(x, dtype=float))
        return lam * (np.sqrt(1.0 + x * x) - 1.0)

    return build_piecewise(
        [
            PieceSpec(-math.inf, -b, Constant(cap)),
            PieceSpec(-b, b, shape),
            PieceSpec(b, math.inf, Constant(cap)),
        ],
        ["continuous", "continuous"],
    )


class TestNumericFallback:
    @pytest.fixture(params=[(linear_wings, 0.0, ()), (constant_limit_wing, 1.0, (0.0,))],
                    ids=["linear-wings", "constant-limit-wing"])
    def fn_without_kernels(self, request):
        """A penalty whose middle surrogate has a wing on each side, with that
        surrogate's jump bound and jump points for the oracle bracket."""
        make, jump, jumps = request.param
        return make(), jump, jumps

    def test_middle_surrogate_numeric_prox_matches_oracle(self, fn_without_kernels):
        fn, jump, jumps = fn_without_kernels
        f2 = fn.surrogate(2)
        assert math.isfinite(f2.piece.left) and math.isfinite(f2.piece.right)
        rng = np.random.default_rng(3)
        for _ in range(60):
            s = rng.uniform(1e-2, 1.0)
            x = rng.uniform(-4, 4)
            out = prox_surrogate(f2, s, float(x))
            hw = minimizer_halfwidth(f2.piece.slope_bound(), jump, jumps, s, float(x))
            ref = prox_oracle(f2, s, float(x), hw, 1e-5)
            assert objective(f2, s, x, out) <= objective(f2, s, x, ref) + 1e-8

    @pytest.mark.parametrize("make", [linear_wings, constant_limit_wing, zero_penalty,
                                      *TILING_PENALTIES],
                             ids=["linear-wings", "constant-limit-wing", "zero", *TILING_IDS])
    def test_prox_true_matches_oracle(self, make):
        # the draws hold each breakpoint, its float neighbours and the points
        # an edge slope moves onto it, where a breakpoint is the minimizer
        fn = make()
        rng = np.random.default_rng(5)
        jumps = sum(abs(a.value_right - b.value_left) for a, b in zip(fn.pieces, fn.pieces[1:]))
        breakpoints = [e.value for e in fn.endpoints]
        for s in (0.37, 2.0):
            u = prox_true_draws(fn, s, rng, 12)
            for ui, vi in zip(u, prox_true(fn, s, u)):
                hw = minimizer_halfwidth(fn.F0, jumps, breakpoints, s, float(ui))
                ref = prox_oracle(fn.evaluate, s, float(ui), hw, 1e-4)
                assert objective(fn.evaluate, s, ui, vi) <= objective(fn.evaluate, s, ui, ref) + 1e-8

    def test_wing_minimizers_are_closed_form(self):
        # u far left of the constant-limit wing's edge stays put; far right of
        # the affine wing it moves by s times the wing's slope
        fn = constant_limit_wing()
        f2 = fn.surrogate(2)
        # the left wing is the constant limit of piece 1, the right one the
        # piece's own limit and slope
        assert (f2.left_value, f2.left_slope) == (fn.pieces[0].value_right, 0.0) == (1.0, 0.0)
        assert (f2.right_value, f2.right_slope) == (f2.piece.value_right, f2.piece.right_slope)
        assert not f2.is_convex
        s = 0.25
        out = prox_vector(fn.surrogates, [2, 2], s, np.array([-3.0, 5.0]))
        assert out[0] == -3.0
        assert out[1] == 5.0 - s * f2.right_slope

    def test_unbounded_custom_slope_cannot_be_bracketed(self):
        # a custom shape on the whole line has no slope estimate at +-inf
        fn = build_piecewise([PieceSpec(-math.inf, math.inf, lambda x: 0.5 * x * x)], [])
        with pytest.raises(ProxError, match="cannot bracket a minimizer: unbounded slope"):
            prox_vector(fn.surrogates, [1, 1], 0.5, np.array([0.3, -2.0]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("big", [1e155, 1e200, -1e160])
    def test_huge_inputs_are_not_errors(self, big):
        # the objective of some candidates overflows to +inf, which only
        # loses the comparison; 0.0 is the exact minimizer at u = 0
        fn = capped_pseudo_huber()
        u = np.array([0.0, big])
        expect = [0.0, big]
        assert prox_vector(fn.surrogates, [2, 2], 0.5, u).tolist() == expect
        assert prox_true(fn, 0.5, u).tolist() == expect
        assert [prox_surrogate(fn.surrogate(2), 0.5, x) for x in u] == expect

    def test_shape_runs_on_its_closure_only(self):
        seen = []
        fn = capped_pseudo_huber(b=0.5, seen=seen)
        sur = fn.surrogate(2)
        seen.clear()
        wing = np.array([-1e200, -2.0, -0.5, 0.0, 0.5, np.nextafter(0.5, 1.0), 2.0, 1e200])
        with np.errstate(over="ignore"):
            sur(wing)
            [sur(float(x)) for x in wing]
            prox_vector(fn.surrogates, [2, 2], 0.5, np.array([0.0, 1e200]))
        inputs = np.concatenate([x.ravel() for x in seen])
        assert inputs.size and np.abs(inputs).max() <= 0.5

    def test_nan_objective_names_the_coordinate(self):
        fn = capped_pseudo_huber()
        with pytest.raises(ProxError, match="coordinate 2: NaN"):
            prox_vector(fn.surrogates, [1, 2, 2], 0.5, np.array([math.nan, 0.0, math.nan]))
        with pytest.raises(ProxError, match="coordinate 0: NaN"):
            prox_surrogate(fn.surrogate(2), 0.5, math.nan)

    def test_nan_on_a_mixed_problem_names_the_problem_coordinate(self):
        # capped-l1 on coordinates 0-1, the custom shape on 2-3: the custom
        # group's pieces follow capped-l1's 3 in the problem's piece table
        prob = Problem(least_squares(Dataset(np.eye(4), np.ones(4))),
                       [capped_l1(0.1, 0.5)] * 2 + [capped_pseudo_huber(0.1, 0.5)] * 2)
        assign = prob.assignments(np.full(4, 0.1))
        assert assign.tolist() == [2, 2, 5, 5]
        with pytest.raises(ProxError, match="coordinate 3: NaN"):
            prob.prox_step(assign, 0.5, np.array([0.1, 0.1, 0.1, math.nan]))

    def test_lockstep_search_equals_one_bracket_at_a_time(self):
        # brackets from a point to 1e3 wide: each must stop on its own width
        rng = np.random.default_rng(17)
        widths = np.array([0.0, 1e-13, 1e-12, 3e-12, 1e-9, 1e-3, 0.5, 2.0, 40.0, 1e3])
        lo = rng.uniform(-5.0, 5.0, size=widths.size)
        hi = lo + widths
        u = rng.uniform(-5.0, 5.0, size=widths.size)

        def psi_for(u):
            return lambda v: (v - u) ** 2 / 0.6 + np.sqrt(1.0 + v * v) + 0.4 * np.abs(v - 0.2)

        v, fv = _section_min(psi_for(u), lo, hi)
        for i in range(widths.size):
            vi, fi = _section_min(psi_for(u[i:i + 1]), lo[i:i + 1], hi[i:i + 1])
            assert vi.tobytes() == v[i:i + 1].tobytes()
            assert fi.tobytes() == fv[i:i + 1].tobytes()

    def test_bench_shape_takes_a_narrow_start(self):
        # the benchmark's shape at its step: one stencil call, one check
        # call, then 4 grid rounds from the certified 2^-28 wide bracket
        # (the search from the full reach took 11 rounds and 2 end values)
        seen = []
        sur = capped_pseudo_huber(seen=seen).surrogate(2)
        s = 0.014553677719437256
        u = np.random.default_rng(29).uniform(-0.45, 0.45, size=10)
        seen.clear()
        v = _closure_candidate(sur, s, u, np.arange(u.size))
        assert [x.shape for x in seen] == [(3, 10)] * 2 + [(17, 10)] * 4
        for i in range(u.size):
            ref = prox_oracle(sur.piece.shape, s, float(u[i]), 0.01, 1e-6)
            assert objective(sur.piece.shape, s, u[i], v[i]) <= \
                objective(sur.piece.shape, s, u[i], ref) + 1e-15

    def test_kinked_shape_falls_back_to_the_full_reach(self):
        # 0.5 v^2 + 0.4 |v - 0.3| on [-1, 1]: for u in [0.25, 0.65] the
        # minimizer is the kink 0.3, where the stencil's estimate fails its
        # check, so the search runs on the whole reach and still finds it
        seen = []

        def shape(v):
            seen.append(np.array(v, dtype=float))
            return 0.5 * v * v + 0.4 * np.abs(v - 0.3)

        fn = build_piecewise([PieceSpec(-math.inf, -1.0, Constant(1.02)),
                              PieceSpec(-1.0, 1.0, shape),
                              PieceSpec(1.0, math.inf, Constant(0.78))],
                             ["continuous", "continuous"])
        sur, s = fn.surrogate(2), 0.5
        for x in np.linspace(0.26, 0.64, 7):
            seen.clear()
            out = prox_surrogate(sur, s, float(x))
            assert len(seen) > 6  # more rounds than the certified start takes
            assert np.abs(np.concatenate([v.ravel() for v in seen])).max() <= 1.0
            ref = prox_oracle(sur, s, float(x), 2.0, 1e-5)
            assert abs(out - 0.3) < 1e-9
            assert objective(sur, s, x, out) <= objective(sur, s, x, ref) + 1e-12

    @pytest.mark.parametrize("curve, calls", [(lambda v: 2.0 * v * v, 12),
                                              (lambda v: np.sqrt(1.0 + (10.0 * v) ** 2), 16)],
                             ids=["quadratic", "sqrt"])
    def test_large_valued_shape_matches_oracle(self, curve, calls):
        # 1e7 + curve(v) on [-1, 1]: psi rounds at ulps of 1e7, far above
        # what psi changes by across a 2^-28 wide bracket.  On the quadratic
        # the stencil's estimate is exact and the start widens to 2^-11 (s = 1)
        # or 2^-12 (s = 0.3): two 3-point calls, then 10 grid rounds.  On the sqrt the estimate
        # misses that bracket and the search runs 14 rounds on the whole
        # closure.  Either way the point matches the oracle up to rounding.
        def shape(v):
            seen.append(np.array(v, dtype=float))
            return 1e7 + curve(v)

        seen, cap = [], 1e7 + curve(1.0)
        fn = build_piecewise([PieceSpec(-math.inf, -1.0, Constant(cap)),
                              PieceSpec(-1.0, 1.0, shape),
                              PieceSpec(1.0, math.inf, Constant(cap))],
                             ["continuous", "continuous"])
        sur = fn.surrogate(2)
        for s in (1.0, 0.3):
            for x in np.linspace(-0.9, 0.9, 10):
                seen.clear()
                out = prox_surrogate(sur, s, float(x))
                assert len(seen) == calls
                assert np.abs(np.concatenate([v.ravel() for v in seen])).max() <= 1.0
                ref = prox_oracle(sur, s, float(x), 1.0, 1e-4)
                assert objective(sur, s, x, out) <= \
                    objective(sur, s, x, ref) + 4 * np.spacing(1e7)

    def test_closure_search_takes_blocks(self):
        # 2500 coordinates go through in blocks of 1024: the shape never sees
        # more than 17 x 1024 points at once, and each coordinate, at the block
        # edges too, gets the bytes it gets alone
        seen = []
        fn = capped_pseudo_huber(seen=seen)
        u = np.random.default_rng(23).uniform(-0.6, 0.6, size=2500)
        out = prox_vector(fn.surrogates, np.full(u.size, 2), 0.5, u)
        assert max(x.size for x in seen) <= 17 * 1024
        for i in [0, 1, 1023, 1024, 1025, 2047, 2048, 2049, 2499, *range(3, 2500, 97)]:
            alone = prox_vector(fn.surrogates, [2], 0.5, u[i:i + 1])
            assert alone.tobytes() == out[i:i + 1].tobytes(), i


def signed_zero_edge():
    # piece 2 owns the jump at 0, so piece 1's candidate for u >= 0, the edge
    # 0 (-0.0 at u = -0.0), lies off the set piece 1 owns and does not compete
    return build_piecewise(
        [
            PieceSpec(-math.inf, 0.0, Constant(1.0)),
            PieceSpec(0.0, 1.0, Quadratic(1.0, 0.0, 0.0)),
            PieceSpec(1.0, math.inf, Constant(1.0)),
        ],
        ["right-only", "continuous"],
    )


def signed_zero_unowned_edge():
    # at u = -0.0 piece 1's candidate -0.0 sits on the edge piece 2 owns, so
    # only piece 2's +0.0 competes: one psi, 0, for either sign
    return build_piecewise(
        [PieceSpec(-math.inf, 0.0, Constant(1.0)), PieceSpec(0.0, math.inf, Affine(0.5, 0.0))],
        ["right-only"],
    )


def mixed_tag_point():
    # the point piece owns 0 through a right-only and a left-only record
    return build_piecewise(
        [
            PieceSpec(-math.inf, 0.0, Constant(2.0)),
            PieceSpec(0.0, 0.0, Constant(0.2)),
            PieceSpec(0.0, math.inf, Constant(0.5)),
        ],
        ["right-only", "left-only"],
    )


def prox_true_by_membership(fn, s, u):
    """prox_true from each piece's closure candidate where the membership
    rule gives that point to the piece, valued through fn.evaluate."""
    coords = np.arange(u.size)
    cands = np.stack([_closure_candidate(sur, s, u, coords) for sur in fn.surrogates])
    psi = (cands - u) ** 2 / (2.0 * s) + fn.evaluate(cands)
    own = fn.piece_index(cands) == np.arange(1, fn.n_pieces + 1)[:, None]
    return cands.take(_flat(_least_rows(cands, np.where(own, psi, np.inf), coords)))


def prox_true_draws(fn, s, rng, n=60):
    """n random points, both zeros, each breakpoint with its float neighbours,
    and the points that a piece's edge slope moves onto a breakpoint."""
    slopes = np.array([t for p in fn.pieces for t in (p.left_slope, p.right_slope)
                       if math.isfinite(t)])
    draws = [rng.uniform(-4.0, 4.0, n), np.array([0.0, -0.0])]
    for q in sorted({e.value for e in fn.endpoints}):
        draws += [np.array([q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf)]),
                  q + s * slopes, q - s * slopes]
    return np.concatenate(draws)


def prox_hard_masked(x, s, params):
    """The hard-threshold kernel in its masked form, kept as the reference."""
    q, jump_left, jump_right = params
    out = x.copy()
    d2 = (x - q) ** 2
    left, right = x < q, x > q
    snap = np.zeros_like(x, dtype=bool)
    snap[left] = d2[left] < 2.0 * jump_left * s
    snap[right] = d2[right] < 2.0 * jump_right * s
    out[snap] = q
    tie = np.zeros_like(x, dtype=bool)
    tie[left] = d2[left] == 2.0 * jump_left * s
    tie[right] = d2[right] == 2.0 * jump_right * s
    for i in np.flatnonzero(tie):
        out[i] = tie_break(q, float(x[i]))
    return out


def prox_indicator_snap_branches(x, s, params):
    """The indicator-snap kernel in its two-branch form, kept as the reference."""
    jump, tau, high_side = params
    reach = math.sqrt(2.0 * jump * s)
    out = x.copy()
    t = tau - reach if high_side < 0 else tau + reach
    snap = (x > t) & (x < tau) if high_side < 0 else (x < t) & (x > tau)
    out[snap] = tau
    on_edge = x == t
    if on_edge.any():
        out[on_edge] = tie_break(t, tau)
    return out


class TestProxTrue:
    @pytest.mark.parametrize("make", [
        lambda: capped_l1(0.2, 1.0), lambda: indicator_penalty(0.7, 0.3),
        lambda: indicator_penalty(0.7, 0.0), lambda: leaky_capped_l1(1.0, 1.0, 0.5),
        lambda: l0_penalty(0.5), lambda: l1_penalty(0.3), zero_penalty,
        constant_limit_wing, linear_wings, capped_pseudo_huber, mixed_tag_point,
        signed_zero_edge, signed_zero_unowned_edge,
    ], ids=["capped-l1", "indicator", "indicator-at-0", "leaky-capped-l1", "l0", "l1",
            "zero", "constant-limit-wing", "linear-wings", "capped-pseudo-huber",
            "mixed-tag-point", "signed-zero-edge", "signed-zero-unowned-edge"])
    def test_equals_membership_valuation(self, make):
        fn = make()
        rng = np.random.default_rng(31)
        for s in (0.125, 0.37, 0.5, 2.0):
            u = prox_true_draws(fn, s, rng)
            # bytes, so that 0.0 and -0.0 differ
            assert prox_true(fn, s, u).tobytes() == prox_true_by_membership(fn, s, u).tobytes()

    @pytest.mark.parametrize("make", [capped_pseudo_huber, lambda: l0_penalty(0.5)],
                             ids=["kernel-less", "l0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_u_raises_the_membership_error(self, make, bad):
        with pytest.raises(ValueError, match="piece membership needs finite x"):
            prox_true(make(), 0.5, np.array([0.3, bad]))


def point_penalty(q, jump_left, jump_right):
    """0 at the single point q, jump_left below it and jump_right above it."""
    return build_piecewise(
        [
            PieceSpec(-math.inf, q, Constant(jump_left)),
            PieceSpec(q, q, Constant(0.0)),
            PieceSpec(q, math.inf, Constant(jump_right)),
        ],
        ["isolated", "isolated"],
    )


def step_penalty(jump, tau, high_side):
    """jump on the side ``high_side`` of tau, 0 on the other and at tau; the
    piece that holds tau is returned with the penalty."""
    if high_side < 0:
        return indicator_penalty(jump, tau), 2
    return build_piecewise([PieceSpec(-math.inf, tau, Constant(0.0)),
                            PieceSpec(tau, math.inf, Constant(jump))], ["left-only"]), 1


def exact_psi(f, s, u, v):
    """(v - u)^2 / (2s) + f(v), valued exactly."""
    return (Fraction(v) - Fraction(u)) ** 2 / (2 * Fraction(s)) + Fraction(f(v))


def assert_old_form_off_the_thresholds(got, old, x, thresholds, snap, f, s):
    """Off the threshold draws the bytes are the old form's.  On them staying
    and snapping tie up to rounding: the result is one of the two, and its
    exact psi is within 1 ulp of the better one's."""
    at_t = np.isin(x, thresholds)
    assert got[~at_t].tobytes() == old[~at_t].tobytes()
    for xi, gi in zip(x[at_t].tolist(), got[at_t].tolist()):
        best = min(exact_psi(f, s, xi, v) for v in (xi, snap))
        assert gi in (xi, snap)
        assert exact_psi(f, s, xi, gi) - best <= Fraction(math.ulp(float(best)))


def neighbours(t):
    """t and its two float neighbours."""
    return [t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]


class TestKernelsEqualTheirOldForms:
    """The surrogate prox on the built-in step and point surrogates, against
    the closed forms that served them before (the masked and two-branch
    forms below)."""

    @pytest.mark.parametrize("params, s", [
        ((0.0, 1.0, 1.0), 0.5), ((0.5, 2.0, 0.5), 0.25), ((-1.0, 0.5, 4.5), 0.25),
    ])
    def test_hard_threshold_equals_masked_form(self, params, s):
        q, jump_left, jump_right = params
        # (x - q)^2 equals 2 s jump exactly at these two points
        ties = [q - math.sqrt(2.0 * s * jump_left), q + math.sqrt(2.0 * s * jump_right)]
        assert [(t - q) ** 2 for t in ties] == [2.0 * jump_left * s, 2.0 * jump_right * s]
        rng = np.random.default_rng(43)
        x = np.concatenate([rng.uniform(q - 3.0, q + 3.0, 200), ties,
                            [q, 0.0, -0.0, np.nextafter(q, -np.inf), np.nextafter(q, np.inf)]])
        fn = point_penalty(*params)
        got = prox_vector(fn.surrogates, np.full(x.size, 2), s, x)
        f = lambda v: 0.0 if v == q else (jump_left if v < q else jump_right)  # noqa: E731
        assert_old_form_off_the_thresholds(got, prox_hard_masked(x, s, params), x,
                                           [n for t in ties for n in neighbours(t)], q, f, s)

    @pytest.mark.parametrize("high_side", [-1, 1])
    @pytest.mark.parametrize("jump, tau, s", [(2.0, 1.0, 0.25), (0.5, 0.0, 0.25), (0.7, -0.3, 0.4)])
    def test_indicator_snap_equals_branch_form(self, jump, tau, s, high_side):
        t = tau + high_side * math.sqrt(2.0 * jump * s)
        rng = np.random.default_rng(47)
        x = np.concatenate([rng.uniform(tau - 3.0, tau + 3.0, 200),
                            [t, tau, 0.0, -0.0, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                             np.nextafter(tau, -np.inf), np.nextafter(tau, np.inf)]])
        params = (jump, tau, float(high_side))
        fn, m = step_penalty(*params)
        got = prox_vector(fn.surrogates, np.full(x.size, m), s, x)
        f = lambda v: jump if (v - tau) * high_side > 0 else 0.0  # noqa: E731
        # the float neighbours of t, and both zeros where t is 0
        assert_old_form_off_the_thresholds(got, prox_indicator_snap_branches(x, s, params), x,
                                           neighbours(t), tau, f, s)


def scaled_abs_owning_jumps():
    # the scaled-abs middle piece owns both breakpoints, so both its wings
    # are the constant limit 1
    return build_piecewise(
        [
            PieceSpec(-math.inf, -1.0, Constant(1.0)),
            PieceSpec(-1.0, 1.0, ScaledAbs(0.3)),
            PieceSpec(1.0, math.inf, Constant(1.0)),
        ],
        ["right-only", "left-only"],
    )


def constant_with_jump_and_linear_wing():
    # the constant middle piece owns the jump at 0 (constant-limit left wing)
    # and meets a falling affine piece continuously at 2 (linear right wing)
    return build_piecewise(
        [
            PieceSpec(-math.inf, 0.0, Constant(1.0)),
            PieceSpec(0.0, 2.0, Constant(0.2)),
            PieceSpec(2.0, math.inf, Affine(-0.5, 1.2)),
        ],
        ["right-only", "continuous"],
    )


class TestClosedFormWithWings:
    """Surrogates whose shape has a closed form take it, clipped to the
    closure, whatever their wings; these three once took the grid search."""

    @pytest.mark.parametrize("make, lo, hi, formula", [
        (linear_wings, -1.0, 1.0, lambda u, s: (u - s * 0.0) / (1.0 + 2.0 * 1.0 * s)),
        (constant_with_jump_and_linear_wing, 0.05, 1.5, lambda u, s: u),
        (scaled_abs_owning_jumps, -1.1, 1.1,
         lambda u, s: np.sign(u) * np.maximum(np.abs(u) - 0.3 * s, 0.0) + 0.0),
    ], ids=["quadratic-with-wings", "constant-jump-and-linear-wing", "scaled-abs-owning-jumps"])
    def test_bytes_equal_the_clipped_formula(self, make, lo, hi, formula):
        fn = make()
        closure = fn.surrogate(2).piece.left, fn.surrogate(2).piece.right
        u = np.concatenate([np.random.default_rng(53).uniform(lo, hi, 200), [0.0, -0.0]])
        for s in (0.125, 0.37, 0.5):
            expect = np.clip(formula(u, s), *closure)
            assert prox_vector(fn.surrogates, np.full(u.size, 2), s, u).tobytes() == expect.tobytes()
            assert prox_true(fn, s, u).tobytes() == expect.tobytes()


class TestInvariants:
    @pytest.mark.parametrize("factory,m", [
        # each factory returns the penalty and the oracle bracket of its
        # surrogate m: slope bound, jump bound and jump points
        (lambda: (capped_l1(0.2, 1.0), 0.2, 0.0, ()), 2),
        (lambda: (capped_l1(0.2, 1.0), 0.0, 0.0, ()), 1),
        (lambda: (indicator_penalty(0.7, 0.3), 0.0, 0.7, (0.3,)), 2),
        (lambda: (l0_penalty(0.5), 0.0, 0.5, (0.0,)), 2),
    ])
    def test_closed_form_never_loses_to_oracle(self, factory, m):
        # light version of the acceptance suite: 100 draws at 1e-4 resolution
        fn, slope, jump, jumps = factory()
        sur = fn.surrogate(m)
        rng = np.random.default_rng(hash((m, fn.n_pieces)) % 2**32)
        for _ in range(100):
            s = rng.uniform(1e-3, 1.0)
            x = rng.uniform(-10.0, 10.0)
            hw = minimizer_halfwidth(slope, jump, jumps, s, x)
            closed = prox_surrogate(sur, s, float(x))
            ref = prox_oracle(sur, s, float(x), hw, 1e-4)
            assert objective(sur, s, x, closed) <= objective(sur, s, x, ref) + 1e-8

    def test_firm_nonexpansive_convex_kernels(self):
        fn = capped_l1(0.4, 1.5)
        rng = np.random.default_rng(9)
        for sur in (fn.surrogate(1), fn.surrogate(2)):
            for _ in range(300):
                s = rng.uniform(1e-3, 1.0)
                x, y = rng.uniform(-6, 6, size=2)
                px = prox_surrogate(sur, s, float(x))
                py = prox_surrogate(sur, s, float(y))
                assert abs(px - py) <= abs(x - y) + 1e-12


def tie_break_fold(cands, psi):
    """The sequential rule: per column, fold tie_break over the rows of least
    psi in row order."""
    out = []
    for i in range(cands.shape[1]):
        tied = np.flatnonzero(psi[:, i] == psi[:, i].min())
        v = cands[tied[0], i]
        for r in tied[1:]:
            v = tie_break(v, cands[r, i])
        out.append(v)
    return np.array(out, dtype=float)


# few distinct values, so that psi and |v| tie often, with both zeros
TIE_VALUES = [-1.5, -1.0, -0.0, 0.0, 1.0, 1.5]
TIE_PSI = [0.0, 0.5, 1.0]


class TestTieRule:
    def test_zero_signs_keep_the_earlier_row(self):
        psi = np.zeros((2, 1))
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            got = np.array([first, second])[_pick_rows(np.array([[first], [second]]), psi)]
            assert np.signbit(got[0]) == np.signbit(first)

    def test_smaller_magnitude_then_negative(self):
        cands = np.array([[1.0, 2.0], [-1.0, -2.0], [1.5, 3.0]])
        psi = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 0.5]])
        assert np.array_equal(cands.take(_flat(_pick_rows(cands, psi))), [-1.0, 3.0])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7) | st.sampled_from([53, 54, 60]),
           st.integers(1, 6) | st.sampled_from([300, 2000]), st.integers(0, 2 ** 32 - 1))
    def test_columns_equal_sequential_fold(self, rows, cols, seed):
        # tables from one column to thousands, and from one row past the 53
        # that the row weights hold exactly; per column the least psi 0.0 is
        # rare, common or nearly everywhere, so that tall columns hold ties
        # more than 53 rows apart and runs of more than 53 tied rows
        rng = np.random.default_rng(seed)
        cands = rng.choice(TIE_VALUES, size=(rows, cols))
        share = rng.choice([0.03, 1 / 3, 0.97], size=cols)
        psi = np.where(rng.random((rows, cols)) < share, 0.0,
                       rng.choice(TIE_PSI[1:], size=(rows, cols)))
        expect = tie_break_fold(cands, psi)
        # bytes, so that 0.0 and -0.0 differ
        assert cands.take(_flat(_pick_rows(cands, psi))).tobytes() == expect.tobytes()
        rows = _least_rows(cands, psi, np.arange(cols))
        assert cands.take(_flat(rows)).tobytes() == expect.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(TIE_VALUES), st.sampled_from(TIE_PSI)),
                    min_size=1, max_size=8))
    def test_pick_equals_sequential_fold(self, candidates):
        best_v, best_f = candidates[0]
        for v, fv in candidates[1:]:
            if fv < best_f:
                best_v, best_f = v, fv
            elif fv == best_f:
                best_v = tie_break(best_v, v)
        got = _pick(candidates)
        assert got == best_v and math.copysign(1.0, got) == math.copysign(1.0, best_v)

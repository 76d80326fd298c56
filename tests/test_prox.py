import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piecewise_prox import (
    PieceSpec,
    ProxError,
    Quadratic,
    build_piecewise,
    capped_l1,
    indicator_penalty,
    l0_penalty,
    minimizer_halfwidth,
    prox_oracle,
    prox_surrogate,
    prox_true,
    prox_vector,
)
from piecewise_prox.kernels import tie_break
from piecewise_prox.piecewise import Affine, Constant
from piecewise_prox.prox import _golden_min, _pick, _pick_columns


def objective(f, s, x, v):
    return (v - x) ** 2 / (2.0 * s) + float(f(np.asarray(v, dtype=float)))


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
        assert np.array_equal(prox_vector(fn, [1, 1], 0.5, u), u)

    def test_mixed_kernels_match_scalar_calls(self):
        fn = capped_l1(0.5, 1.0)
        l0 = l0_penalty(0.8)
        surs = [fn.surrogate(2), fn.surrogate(3), l0.surrogate(2)]
        u = np.array([0.9, 4.0, 0.2])
        # one call per penalty, as Problem.prox_step makes them
        out = np.concatenate([prox_vector(fn, [2, 3], 0.6, u[:2]),
                              prox_vector(l0, [2], 0.6, u[2:])])
        expect = np.array([prox_surrogate(s_, 0.6, float(ui)) for s_, ui in zip(surs, u)])
        assert np.array_equal(out, expect)

    def test_matches_oracle_capped_l1(self):
        fn = capped_l1(0.2, 1.0)
        rng = np.random.default_rng(7)
        u = rng.uniform(-3, 3, size=20)
        s = 0.8
        assign = fn.piece_index(u)
        surs = [fn.surrogate(int(m)) for m in assign]
        out = prox_vector(fn, assign, s, u)
        for i, sur in enumerate(surs):
            hw = minimizer_halfwidth(sur.slope_bound(), 0.0, (), s, float(u[i]))
            ref = prox_oracle(sur, s, float(u[i]), hw, 1e-6)
            assert abs(out[i] - ref) < 1e-5

    def test_length_mismatch(self):
        fn = capped_l1(0.2, 1.0)
        with pytest.raises(ValueError, match="surrogates"):
            prox_vector(fn, [1], 0.5, np.zeros(2))


def linear_wings():
    # quadratic bowl piece between affine wings: no registered closed form
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


def capped_pseudo_huber(lam=0.05, b=0.5):
    """The benchmark's kernel-less penalty: lam (sqrt(1 + x^2) - 1) on
    [-b, b], constant beyond."""
    cap = lam * (math.sqrt(1.0 + b * b) - 1.0)
    return build_piecewise(
        [
            PieceSpec(-math.inf, -b, Constant(cap)),
            PieceSpec(-b, b, lambda x: lam * (np.sqrt(1.0 + x * x) - 1.0)),
            PieceSpec(b, math.inf, Constant(cap)),
        ],
        ["continuous", "continuous"],
    )


class TestNumericFallback:
    @pytest.fixture(params=[(linear_wings, 0.0, ()), (constant_limit_wing, 1.0, (0.0,))],
                    ids=["linear-wings", "constant-limit-wing"])
    def fn_without_kernels(self, request):
        """A penalty whose middle surrogate has no kernel, with that
        surrogate's jump bound and jump points for the oracle bracket."""
        make, jump, jumps = request.param
        return make(), jump, jumps

    def test_middle_surrogate_numeric_prox_matches_oracle(self, fn_without_kernels):
        fn, jump, jumps = fn_without_kernels
        f2 = fn.surrogate(2)
        assert f2.kernel is None
        rng = np.random.default_rng(3)
        for _ in range(60):
            s = rng.uniform(1e-2, 1.0)
            x = rng.uniform(-4, 4)
            out = prox_surrogate(f2, s, float(x))
            hw = minimizer_halfwidth(f2.slope_bound(), jump, jumps, s, float(x))
            ref = prox_oracle(f2, s, float(x), hw, 1e-5)
            assert objective(f2, s, x, out) <= objective(f2, s, x, ref) + 1e-8

    def test_prox_true_matches_oracle(self, fn_without_kernels):
        fn, _, _ = fn_without_kernels
        rng = np.random.default_rng(5)
        u = rng.uniform(-4, 4, size=12)
        s = 0.37
        out = prox_true(fn, s, u)
        for i, ui in enumerate(u):
            ref = prox_oracle(fn.evaluate, s, float(ui), 3.0, 1e-5)
            assert objective(fn.evaluate, s, ui, out[i]) <= objective(fn.evaluate, s, ui, ref) + 1e-8

    def test_wing_minimizers_are_closed_form(self):
        # u far left of the constant-limit wing's edge stays put; far right of
        # the affine wing it moves by s times the wing's slope
        fn = constant_limit_wing()
        f2 = fn.surrogate(2)
        assert (f2.left_case, f2.right_case) == ("constant-limit", "limit-linear")
        s = 0.25
        out = prox_vector(fn, [2, 2], s, np.array([-3.0, 5.0]))
        assert out[0] == -3.0
        assert out[1] == 5.0 - s * f2.right_slope

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("big", [1e155, 1e200, -1e160])
    def test_huge_inputs_are_not_errors(self, big):
        # the objective of some candidates overflows to +inf, which only
        # loses the comparison; these are the values of the scalar search
        fn = capped_pseudo_huber()
        u = np.array([0.0, big])
        expect = [-1.2110070516682412e-13, big]
        assert prox_vector(fn, [2, 2], 0.5, u).tolist() == expect
        assert prox_true(fn, 0.5, u).tolist() == expect
        assert [prox_surrogate(fn.surrogate(2), 0.5, x) for x in u] == expect

    def test_nan_objective_names_the_coordinate(self):
        fn = capped_pseudo_huber()
        with pytest.raises(ProxError, match="coordinate 2: NaN"):
            prox_vector(fn, [1, 2, 2], 0.5, np.array([math.nan, 0.0, math.nan]))
        with pytest.raises(ProxError, match="coordinate 0: NaN"):
            prox_surrogate(fn.surrogate(2), 0.5, math.nan)

    def test_lockstep_search_equals_one_bracket_at_a_time(self):
        # brackets from a point to 1e3 wide: each must stop on its own width
        rng = np.random.default_rng(17)
        widths = np.array([0.0, 1e-13, 1e-12, 3e-12, 1e-9, 1e-3, 0.5, 2.0, 40.0, 1e3])
        lo = rng.uniform(-5.0, 5.0, size=widths.size)
        hi = lo + widths
        u = rng.uniform(-5.0, 5.0, size=widths.size)

        def psi_for(u):
            return lambda v: (v - u) ** 2 / 0.6 + np.sqrt(1.0 + v * v) + 0.4 * np.abs(v - 0.2)

        v, fv = _golden_min(psi_for(u), lo, hi)
        for i in range(widths.size):
            vi, fi = _golden_min(psi_for(u[i:i + 1]), lo[i:i + 1], hi[i:i + 1])
            assert vi.tobytes() == v[i:i + 1].tobytes()
            assert fi.tobytes() == fv[i:i + 1].tobytes()


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
            got = _pick_columns(np.array([[first], [second]]), psi)
            assert np.signbit(got[0]) == np.signbit(first)

    def test_smaller_magnitude_then_negative(self):
        cands = np.array([[1.0, 2.0], [-1.0, -2.0], [1.5, 3.0]])
        psi = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 0.5]])
        assert np.array_equal(_pick_columns(cands, psi), [-1.0, 3.0])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.tuples(
            st.lists(st.lists(st.sampled_from(TIE_VALUES), min_size=cols, max_size=cols),
                     min_size=rows, max_size=rows),
            st.lists(st.lists(st.sampled_from(TIE_PSI), min_size=cols, max_size=cols),
                     min_size=rows, max_size=rows)))))
    def test_columns_equal_sequential_fold(self, matrices):
        cands, psi = (np.array(m, dtype=float) for m in matrices)
        got = _pick_columns(cands, psi)
        # bytes, so that 0.0 and -0.0 differ
        assert got.tobytes() == tie_break_fold(cands, psi).tobytes()

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

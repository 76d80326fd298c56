import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piecewise_prox import (
    Constant,
    PieceSpec,
    PiecewiseBuildError,
    Quadratic,
    ScaledAbs,
    build_piecewise,
    capped_l1,
    indicator_penalty,
    l0_penalty,
    l1_penalty,
    leaky_capped_l1,
    zero_penalty,
)


from piecewise_prox import Affine, Endpoint
from piecewise_prox.piecewise import builtin_penalty

from helpers import prox_vector


def quad_on_segments():
    """Generic continuous model: affine / quadratic bowl / affine with slope
    drops 1 and 1.5 at the breakpoints."""
    return build_piecewise(
        [
            PieceSpec(-math.inf, -1.0, Affine(-1.0, 0.0)),
            PieceSpec(-1.0, 1.0, Quadratic(1.0, 0.0, 0.0)),
            PieceSpec(1.0, math.inf, Affine(0.5, 0.5)),
        ],
        ["continuous", "continuous"],
    )


class TestBuild:
    def test_capped_l1_constants(self):
        fn = capped_l1(0.2, 1.0)
        C, J, F0, R0, s0 = fn.C, fn.J, fn.F0, fn.R0, fn.s0
        assert fn.n_pieces == 3
        # slope drop at +-b is lam - 0 on each side
        assert C == pytest.approx(0.2)
        assert math.isinf(J)
        assert F0 == pytest.approx(0.2)
        assert R0 == pytest.approx(2.0)
        assert s0 == pytest.approx(1.0)  # kink at 0, distance b from each cap

    def test_single_quadratic_piece(self):
        fn = build_piecewise([PieceSpec(-math.inf, math.inf, Quadratic(1.0, 0.0, 0.0))], [])
        C, J, F0, R0, s0 = fn.C, fn.J, fn.F0, fn.R0, fn.s0
        assert fn.n_pieces == 1
        assert math.isinf(R0)
        assert not fn.endpoints
        assert math.isinf(F0)  # unbounded slope tolerated only when M = 1

    def test_affine_quadratic_slope_at_infinity(self):
        # a = 0: the quadratic is the line x, whose slope at -inf is b = 1
        fn = build_piecewise([PieceSpec(-math.inf, 0.0, Quadratic(0.0, 1.0, 0.0)),
                              PieceSpec(0.0, math.inf, Constant(0.0))], ["continuous"])
        assert (fn.pieces[0].left_slope, fn.pieces[0].right_slope) == (1.0, 1.0)
        assert (fn.C, fn.J, fn.F0, fn.R0, fn.s0) == (1.0, math.inf, 1.0, math.inf, math.inf)
        assert fn.evaluate([-2.0, 0.0, 3.0]).tolist() == [-2.0, 0.0, 0.0]

    def test_piece_beyond_the_probe_grid(self):
        # piece 2 lies wholly beyond 1e6, where the convexity probe takes no grid
        fn = build_piecewise([PieceSpec(-math.inf, 2e6, ScaledAbs(1.0)),
                              PieceSpec(2e6, math.inf, Constant(2e6))], ["continuous"])
        assert [(p.left, p.right) for p in fn.pieces] == [(-math.inf, 2e6), (2e6, math.inf)]
        assert (fn.C, fn.J, fn.F0, fn.R0, fn.s0) == (1.0, math.inf, 1.0, math.inf, 2e6)
        assert fn.evaluate([-5.0, 2e6, 3e6]).tolist() == [5.0, 2e6, 2e6]

    def test_l0_constants(self):
        fn = l0_penalty(1.0)
        C, J, F0, R0, s0 = fn.C, fn.J, fn.F0, fn.R0, fn.s0
        assert math.isinf(C)
        assert J == pytest.approx(1.0)  # both one-sided jumps at the isolated origin
        assert F0 == 0.0
        assert math.isinf(R0)  # only nonzero-length pieces count

    def test_indicator_constants(self):
        fn = indicator_penalty(2.0, 1.0)
        C, J, F0, R0, s0 = fn.C, fn.J, fn.F0, fn.R0, fn.s0
        assert math.isinf(C)
        assert J == pytest.approx(2.0)
        assert math.isinf(R0)

    def test_leaky_slope_drop(self):
        fn = leaky_capped_l1(1.0, 1.0, 0.5)
        assert fn.C == pytest.approx(0.5)  # lam - beta at each cap
        assert fn.F0 == pytest.approx(1.0)

    def test_overlap_rejected(self):
        with pytest.raises(PiecewiseBuildError, match="overlap"):
            build_piecewise(
                [PieceSpec(-math.inf, 1.0, Constant(1.0)),
                 PieceSpec(0.5, math.inf, Constant(0.0))],
                ["right-only"],
            )

    def test_gap_rejected(self):
        with pytest.raises(PiecewiseBuildError, match="gap"):
            build_piecewise(
                [PieceSpec(-math.inf, 0.0, Constant(1.0)),
                 PieceSpec(1.0, math.inf, Constant(0.0))],
                ["right-only"],
            )

    def test_bad_tag_rejected(self):
        with pytest.raises(PiecewiseBuildError, match="continuity"):
            build_piecewise(
                [PieceSpec(-math.inf, 0.0, Constant(1.0)),
                 PieceSpec(0.0, math.inf, Constant(0.0))],
                ["sideways"],
            )

    def test_isolated_requires_point_piece(self):
        with pytest.raises(PiecewiseBuildError, match="isolated"):
            build_piecewise(
                [PieceSpec(-math.inf, 0.0, Constant(1.0)),
                 PieceSpec(0.0, math.inf, Constant(0.0))],
                ["isolated"],
            )

    @pytest.mark.parametrize("specs, tags, message", [
        ([], [], "at least one piece is required"),
        ([PieceSpec(-math.inf, math.inf, Constant(0.0))], ["continuous"],
         "0 continuity tags required, got 1"),
        ([PieceSpec(-1.0, math.inf, Constant(0.0))], [], "first piece must extend to -inf"),
        ([PieceSpec(-math.inf, 1.0, Constant(0.0))], [], "last piece must extend to +inf"),
        ([PieceSpec(-math.inf, 0.0, Constant(2.0)), PieceSpec(0.0, 0.0, Constant(1.0)),
          PieceSpec(0.0, 0.0, Constant(0.5)), PieceSpec(0.0, math.inf, Constant(2.0))],
         ["isolated"] * 3, "pieces 2 and 3 are both single points"),
        # a point piece at an end is finite, so the end is not unbounded
        ([PieceSpec(0.0, 0.0, Constant(0.0)), PieceSpec(0.0, math.inf, Constant(1.0))],
         ["isolated"], "first piece must extend to -inf"),
        ([PieceSpec(-math.inf, 2.0, Constant(1.0)), PieceSpec(2.0, 1.0, Constant(0.0)),
          PieceSpec(1.0, math.inf, Constant(1.0))], ["right-only", "left-only"],
         "piece 2: left 2.0 exceeds right 1.0"),
        ([PieceSpec(math.inf, math.inf, Constant(0.0))], [], "piece 1: degenerate infinite piece"),
        ([PieceSpec(-math.inf, 0.0, Constant(1.0)), PieceSpec(0.0, 0.0, Constant(2.0)),
          PieceSpec(0.0, math.inf, Constant(1.0))], ["isolated", "isolated"],
         "isolated value must sit strictly below both limits"),
        ([PieceSpec(-math.inf, math.inf, 3.0)], [], "unsupported piece evaluator 3.0"),
        ([PieceSpec(-math.inf, math.inf, lambda x: np.full_like(x, np.inf))], [],
         "piece 1: evaluator returned non-finite values"),
    ], ids=["no-pieces", "tag-count", "first-bounded", "last-bounded", "adjacent-points",
            "point-at-end", "left-above-right", "infinite-point", "isolated-above-limit",
            "unsupported-evaluator", "non-finite-values"])
    def test_structure_rejected(self, specs, tags, message):
        with pytest.raises(PiecewiseBuildError, match=re.escape(message)):
            build_piecewise(specs, tags)

    def test_non_finite_endpoint_rejected(self):
        with pytest.raises(PiecewiseBuildError, match="endpoint value must be finite"):
            Endpoint(math.nan, "continuous", 1)

    @pytest.mark.parametrize("make, message", [
        (lambda: capped_l1(0.0, 1.0), "capped-l1 requires lam > 0 and b > 0"),
        (lambda: capped_l1(0.2, 0.0), "capped-l1 requires lam > 0 and b > 0"),
        (lambda: indicator_penalty(0.0), "indicator requires lam > 0"),
        (lambda: leaky_capped_l1(1.0, 1.0, 1.0), "leaky capped-l1 requires 0 <= beta < lam"),
        (lambda: leaky_capped_l1(1.0, 0.0, 0.5), "leaky capped-l1 requires b > 0"),
        (lambda: l0_penalty(-1.0), "l0 requires lam > 0"),
        (lambda: l1_penalty(-0.1), "l1 requires lam >= 0"),
        (lambda: builtin_penalty("l2", lam=1.0), "unknown penalty kind 'l2'"),
    ], ids=["capped-lam", "capped-b", "indicator-lam", "leaky-beta", "leaky-b", "l0-lam",
            "l1-lam", "unknown-kind"])
    def test_builtin_parameters_rejected(self, make, message):
        with pytest.raises(PiecewiseBuildError, match=re.escape(message)):
            make()

    def test_nonconvex_evaluator_rejected(self):
        with pytest.raises(PiecewiseBuildError, match="convex"):
            build_piecewise(
                [PieceSpec(-math.inf, 0.0, Constant(1.0)),
                 PieceSpec(0.0, math.inf, Quadratic(-1.0, 0.0, 0.0))],
                ["right-only"],
            )

    def test_nonconvex_callable_rejected_by_probe(self):
        with pytest.raises(PiecewiseBuildError, match="convexity probe"):
            build_piecewise(
                [PieceSpec(-math.inf, 0.0, Constant(2.0)),
                 PieceSpec(0.0, math.inf, lambda v: np.sin(3.0 * np.asarray(v)))],
                ["right-only"],
            )

    def test_nonpositive_slope_drop_rejected(self):
        # slope increases across the breakpoint: no negative curvature
        with pytest.raises(PiecewiseBuildError, match="not positive"):
            build_piecewise(
                [PieceSpec(-math.inf, 0.0, Quadratic(0.1, 0.0, 0.0)),
                 PieceSpec(0.0, math.inf, Quadratic(1.0, 0.0, 0.0))],
                ["continuous"],
            )

    def test_continuous_tag_with_jump_rejected(self):
        with pytest.raises(PiecewiseBuildError, match="limits differ"):
            build_piecewise(
                [PieceSpec(-math.inf, 0.0, Constant(1.0)),
                 PieceSpec(0.0, math.inf, Constant(0.0))],
                ["continuous"],
            )

    def test_discontinuous_tag_without_jump_rejected(self):
        with pytest.raises(PiecewiseBuildError, match="limits agree"):
            build_piecewise(
                [PieceSpec(-math.inf, 0.0, ScaledAbs(1.0)),
                 PieceSpec(0.0, math.inf, ScaledAbs(1.0))],
                ["right-only"],
            )

    def test_lsc_violation_rejected(self):
        # left-continuous value above the right limit
        with pytest.raises(PiecewiseBuildError, match="semicontinuity"):
            build_piecewise(
                [PieceSpec(-math.inf, 0.0, Constant(1.0)),
                 PieceSpec(0.0, math.inf, Constant(0.0))],
                ["left-only"],
            )

    @pytest.mark.parametrize("specs,tags", [
        ([PieceSpec(-math.inf, 1.0, Quadratic(1.0, 0.0, 0.0)),
          PieceSpec(1.0, math.inf, Affine(0.5, 0.5))], ["continuous"]),
        # a custom shape has no slope estimate at an infinite end (NaN)
        ([PieceSpec(-math.inf, 0.0, lambda x: 1.0 + 0.3 * np.abs(x)),
          PieceSpec(0.0, math.inf, Affine(0.5, 0.0))], ["right-only"]),
    ], ids=["quadratic", "custom-at-infinity"])
    def test_unbounded_slope_rejected_when_multiple_pieces(self, specs, tags):
        with pytest.raises(PiecewiseBuildError, match="unbounded"):
            build_piecewise(specs, tags)

    def test_custom_piece_at_infinity_needs_its_slope(self):
        alone = build_piecewise([PieceSpec(-math.inf, math.inf, lambda x: 0.5 * x * x)], [])
        assert math.isinf(alone.F0)  # like a single quadratic piece
        given = build_piecewise(
            [PieceSpec(-math.inf, 0.0, lambda x: 1.0 + 0.3 * np.abs(x), left_slope=-0.3),
             PieceSpec(0.0, math.inf, Affine(0.5, 0.0))],
            ["right-only"],
        )
        assert given.F0 == pytest.approx(0.5)

    def test_decreasing_slope_metadata_rejected(self):
        with pytest.raises(PiecewiseBuildError, match="contradicting convexity"):
            build_piecewise(
                [PieceSpec(-math.inf, -1.0, Affine(-1.0, 0.0)),
                 PieceSpec(-1.0, 1.0, Quadratic(1.0, 0.0, 0.0),
                           left_slope=2.0, right_slope=-2.0),
                 PieceSpec(1.0, math.inf, Affine(0.5, 0.5))],
                ["continuous", "continuous"],
            )


def tag_owner(fn, j):
    """The piece that the tag of endpoint record j names: the left piece for
    ``continuous`` and ``left-only``, the right piece for ``right-only``, the
    single-point piece for ``isolated``."""
    e, left, right = fn.endpoints[j], fn.pieces[j], fn.pieces[j + 1]
    if e.continuity in ("continuous", "left-only"):
        return left.index
    if e.continuity == "right-only":
        return right.index
    return left.index if left.is_point else right.index


def closure_claims(fn, x):
    """Pieces claiming each x by the interval-closure definition.

    A piece holds its open interior, and each breakpoint belongs to the piece
    its continuity tag names (``tag_owner``).  Returns (number of claiming
    pieces, last claiming piece).
    """
    x = np.asarray(x, dtype=float)
    count = np.zeros(x.shape, dtype=np.int64)
    index = np.zeros(x.shape, dtype=np.int64)
    for p in fn.pieces:
        claims = (x > p.left) & (x < p.right)
        if p.index > 1 and tag_owner(fn, p.index - 2) == p.index:
            claims |= x == p.left
        if p.index < fn.n_pieces and tag_owner(fn, p.index - 1) == p.index:
            claims |= x == p.right
        count += claims
        index[claims] = p.index
    return count, index


def point_owned(tags, far=(2.0, 0.5)):
    """A point piece at 0 with value 0.2 between constants far[0] and far[1],
    owning 0 through the two tags."""
    return build_piecewise([PieceSpec(-math.inf, 0.0, Constant(far[0])),
                            PieceSpec(0.0, 0.0, Constant(0.2)),
                            PieceSpec(0.0, math.inf, Constant(far[1]))], tags)


def right_only_then_continuous():
    """A jump owned from the right at 0, then a continuous slope drop at 1."""
    return build_piecewise([PieceSpec(-math.inf, 0.0, Constant(1.0)),
                            PieceSpec(0.0, 1.0, Affine(0.5, 0.0)),
                            PieceSpec(1.0, math.inf, Constant(0.5))],
                           ["right-only", "continuous"])


def point_then_line(tag):
    """A point piece at 0 with value 0.2, owned from the left through tag and
    continuous into a falling line on its right."""
    return build_piecewise([PieceSpec(-math.inf, 0.0, Constant(2.0)),
                            PieceSpec(0.0, 0.0, Constant(0.2)),
                            PieceSpec(0.0, math.inf, Affine(-0.5, 0.2))], [tag, "continuous"])


# penalties covering every continuity tag, and all six tag pairs a point piece
# may carry: right-only or isolated on its left, continuous, left-only or
# isolated on its right
TILING_PENALTIES = [
    lambda: capped_l1(0.2, 1.0),
    lambda: indicator_penalty(2.0, 1.0),
    lambda: l0_penalty(1.0),
    lambda: leaky_capped_l1(1.0, 1.0, 0.5),
    lambda: l1_penalty(0.3),
    quad_on_segments,
    lambda: point_owned(["right-only", "left-only"]),
    lambda: point_owned(["isolated", "left-only"], far=(1.0, 2.0)),
    right_only_then_continuous,
    lambda: point_owned(["right-only", "isolated"]),
    lambda: point_then_line("right-only"),
    lambda: point_then_line("isolated"),
]


class TestMembership:
    def test_capped_l1_endpoint_ownership(self):
        fn = capped_l1(0.2, 1.0)
        assert fn.piece_index(-1.0) == 1  # continuous endpoint joins the left piece
        assert fn.piece_index(0.0) == 2
        assert fn.piece_index(1.0) == 2
        assert fn.piece_index(1.0 + 1e-12) == 3

    def test_indicator_right_continuity(self):
        fn = indicator_penalty(2.0, 1.0)
        assert fn.piece_index(1.0) == 2
        assert fn.piece_index(1.0 - 1e-12) == 1

    def test_l0_point_piece(self):
        fn = l0_penalty(1.0)
        assert fn.piece_index(0.0) == 2
        assert fn.piece_index(-1e-300) == 1
        assert fn.piece_index(1e-300) == 3

    @pytest.mark.parametrize("fn_factory", TILING_PENALTIES)
    def test_tiling(self, fn_factory):
        fn = fn_factory()
        assert [e.owner for e in fn.endpoints] == [tag_owner(fn, j) for j in range(fn.n_pieces - 1)]
        rng = np.random.default_rng(0)
        big = np.finfo(float).max
        pts = [rng.uniform(-10, 10, size=10_000), np.array([-big, big, -5e-324, 5e-324])]
        for e in fn.endpoints:
            q = e.value
            ulp = np.spacing(abs(q) + 1.0)
            pts.append(np.array([q, q - ulp, q + ulp, q - 1e3 * ulp, q + 1e3 * ulp]))
        pts = np.concatenate(pts)
        counts, owners = closure_claims(fn, pts)
        assert np.all(counts == 1)
        idx = fn.piece_index(pts)
        assert np.all((idx >= 1) & (idx <= fn.n_pieces))
        assert np.array_equal(idx, owners)

    @pytest.mark.parametrize("tags", [["right-only", "right-only"],
                                      ["isolated", "right-only"]])
    def test_double_claimed_breakpoint_rejected(self, tags):
        # both tag lists hand 0 to the point piece and to the piece on its right
        specs = [PieceSpec(-math.inf, 0.0, Constant(2.0)), PieceSpec(0.0, 0.0, Constant(1.0)),
                 PieceSpec(0.0, math.inf, Constant(0.5))]
        with pytest.raises(PiecewiseBuildError, match="both claim"):
            build_piecewise(specs, tags)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, x):
        fn = capped_l1(0.2, 1.0)
        with pytest.raises(ValueError, match="finite"):
            fn.piece_index(x)
        with pytest.raises(ValueError, match="finite"):
            fn.piece_index(np.array([0.5, x]))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["capped-l1", "indicator", "leaky-capped-l1", "l0",
                                 "l1", "zero"]),
           lam=st.floats(0.01, 10.0), b=st.floats(1e-3, 1e3), tau=st.floats(-1e3, 1e3),
           beta_frac=st.floats(0.0, 0.99),
           extra=st.lists(st.floats(-1e4, 1e4), max_size=20))
    def test_matches_closure_definition_near_breakpoints(self, kind, lam, b, tau,
                                                         beta_frac, extra):
        params = {"capped-l1": {"lam": lam, "b": b},
                  "indicator": {"lam": lam, "tau": tau},
                  "leaky-capped-l1": {"lam": lam, "b": b, "beta": beta_frac * lam},
                  "l0": {"lam": lam}, "l1": {"lam": lam}, "zero": {}}[kind]
        fn = builtin_penalty(kind, **params)
        pts = [np.array(extra, dtype=float), np.array([0.0, -0.0])]
        for e in fn.endpoints:
            q = e.value
            pts.append(np.array([q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf)]))
        pts = np.concatenate(pts)
        counts, owners = closure_claims(fn, pts)
        assert np.all(counts == 1)
        assert np.array_equal(fn.piece_index(pts), owners)
        assert [fn.piece_index(float(x)) for x in pts] == owners.tolist()


class TestEvaluate:
    def test_capped_values(self):
        fn = capped_l1(0.2, 1.0)
        assert fn.evaluate(0.5) == pytest.approx(0.1)
        assert fn.evaluate(3.0) == pytest.approx(0.2)

    def test_indicator_values(self):
        fn = indicator_penalty(2.0, 1.0)
        assert fn.evaluate(0.5) == pytest.approx(2.0)
        assert fn.evaluate(1.0) == 0.0

    def test_dispatch_matches_piece_evaluators(self):
        fn = leaky_capped_l1(1.0, 2.0, 0.25)
        for m, p in enumerate(fn.pieces, start=1):
            lo = max(p.left, -50.0)
            hi = min(p.right, 50.0)
            grid = np.linspace(lo + 1e-6, hi - 1e-6, 100)
            assert np.array_equal(fn.evaluate(grid), np.asarray(p.shape(grid)))


class TestSurrogates:
    def test_capped_middle_is_global_abs(self):
        fn = capped_l1(0.2, 1.0)
        f2 = fn.surrogate(2)
        grid = np.linspace(-7, 7, 301)
        # the linear extension equals 0.2|x| mathematically; last-ulp rounding differs
        assert np.allclose(f2(grid), 0.2 * np.abs(grid), rtol=0, atol=1e-14)
        # so its prox is the soft threshold on the whole line, wings included
        soft = np.sign(grid) * np.maximum(np.abs(grid) - 0.2 * 0.5, 0.0) + 0.0
        assert prox_vector(fn.surrogates, np.full(grid.size, 2), 0.5, grid).tobytes() == soft.tobytes()

    def test_capped_outer_is_constant(self):
        fn = capped_l1(0.2, 1.0)
        for m in (1, 3):
            fm = fn.surrogate(m)
            grid = np.linspace(-5, 5, 101)
            assert np.all(fm(grid) == 0.2)

    def test_indicator_first_surrogate_constant(self):
        fn = indicator_penalty(1.5, 0.0)
        f1 = fn.surrogate(1)
        assert np.all(f1(np.linspace(-4, 4, 51)) == 1.5)

    def test_l0_point_surrogate_third_branch(self):
        fn = l0_penalty(1.0)
        f2 = fn.surrogate(2)
        # the point piece owns both jumps: each wing is the constant far-side limit
        assert (f2.left_value, f2.left_slope, f2.right_value, f2.right_slope) == (1.0, 0.0, 1.0, 0.0)
        assert not f2.is_convex
        assert f2(0.0) == 0.0
        assert f2(0.7) == 1.0 and f2(-0.7) == 1.0

    @pytest.mark.parametrize("fn_factory", TILING_PENALTIES)
    def test_wings_follow_the_tags(self, fn_factory):
        # past each finite edge: the constant far-side limit where the tag
        # hands the piece a jump, else the piece's own limit and slope
        fn = fn_factory()
        for m, (p, sur) in enumerate(zip(fn.pieces, fn.surrogates), 1):
            assert sur.piece is p
            sides = []
            if m > 1:  # record m - 2 closes piece m on the left
                sides.append((m - 2, (sur.left_value, sur.left_slope),
                              (p.value_left, p.left_slope), fn.pieces[m - 2].value_right))
            if m < fn.n_pieces:
                sides.append((m - 1, (sur.right_value, sur.right_slope),
                              (p.value_right, p.right_slope), fn.pieces[m].value_left))
            owned_jumps = 0
            for j, wing, own, far in sides:
                jump = fn.endpoints[j].continuity != "continuous" and tag_owner(fn, j) == m
                assert wing == ((far, 0.0) if jump else own)
                owned_jumps += jump
            assert sur.is_convex == (owned_jumps == 0)

    def test_agreement_on_source_piece_is_exact(self):
        for fn in (capped_l1(0.2, 1.0), indicator_penalty(2.0, 1.0),
                   leaky_capped_l1(1.0, 1.0, 0.5), quad_on_segments()):
            for m in range(1, fn.n_pieces + 1):
                fm = fn.surrogate(m)
                lo = max(fm.piece.left, -20.0)
                hi = min(fm.piece.right, 20.0)
                if hi < lo:
                    continue
                grid = np.linspace(lo, hi, 1000) if hi > lo else np.array([lo])
                idx = fn.piece_index(grid)
                on_piece = grid[idx == m]
                assert np.array_equal(fm(on_piece), fn.evaluate(on_piece))

    def test_linearity_outside_source_piece(self):
        fn = quad_on_segments()
        f2 = fn.surrogate(2)
        grid = np.linspace(1.5, 9.5, 200)  # strictly right of piece 2
        vals = f2(grid)
        second = np.diff(vals, 2)
        assert np.max(np.abs(second)) < 1e-9
        slope = (vals[1] - vals[0]) / (grid[1] - grid[0])
        assert slope == pytest.approx(fn.pieces[1].right_slope, abs=1e-9)
        grid_l = np.linspace(-9.5, -1.5, 200)
        vals_l = f2(grid_l)
        assert np.max(np.abs(np.diff(vals_l, 2))) < 1e-9
        slope_l = (vals_l[1] - vals_l[0]) / (grid_l[1] - grid_l[0])
        assert slope_l == pytest.approx(fn.pieces[1].left_slope, abs=1e-9)

    def test_negative_curvature_audit(self):
        for fn in (capped_l1(0.2, 1.0), leaky_capped_l1(1.0, 1.0, 0.5), quad_on_segments()):
            gaps = []
            for j, e in enumerate(fn.endpoints):
                if e.is_continuous:
                    gaps.append(fn.pieces[j].right_slope - fn.pieces[j + 1].left_slope)
            assert min(gaps) == pytest.approx(fn.C)
            assert all(g >= fn.C - 1e-12 for g in gaps)

    def test_convexity_probe_property(self):
        for fn in (capped_l1(0.4, 2.0), leaky_capped_l1(2.0, 0.5, 0.1), quad_on_segments()):
            for p in fn.pieces:
                if p.is_point:
                    continue
                lo = max(p.left, -1e6)
                hi = min(p.right, 1e6)
                grid = np.linspace(lo, hi, 1000)
                vals = np.asarray(p.shape(grid))
                assert np.min(vals[2:] - 2 * vals[1:-1] + vals[:-2]) >= -1e-10 * max(1.0, np.abs(vals).max())

    @pytest.mark.parametrize("fn, m", [
        (capped_l1(0.2, 1.0), 1), (capped_l1(0.2, 1.0), 2), (capped_l1(0.2, 1.0), 3),
        (indicator_penalty(2.0, 1.0), 1), (indicator_penalty(2.0, 1.0), 2),
        (l0_penalty(1.0), 2), (l1_penalty(0.3), 1), (quad_on_segments(), 2),
    ], ids=["right-bounded", "two-sided", "left-bounded", "indicator-1", "indicator-2",
            "point", "whole-line", "quadratic-segment"])
    def test_call_equals_masked_form(self, fn, m):
        # the closure test is skipped on an unbounded side; the values must be
        # those of the masked form on every input, NaN and infinities included
        sur = fn.surrogate(m)
        p = sur.piece

        def masked(x):
            below, above = x < p.left, x > p.right
            inside = ~(below | above)
            out = np.empty_like(x)
            out[inside] = p.shape(x[inside])
            out[below] = sur.left_value + sur.left_slope * (x[below] - p.left)
            out[above] = sur.right_value + sur.right_slope * (x[above] - p.right)
            return out

        edges = [e for e in (p.left, p.right) if math.isfinite(e)]
        inside = edges[0] if edges else 0.5
        batches = [[math.nan], [inside, math.nan], [math.inf], [-math.inf], edges,
                   [inside, math.inf], [-math.inf, inside], [-math.inf, math.inf, math.nan],
                   [e + t for e in edges for t in (-1e-9, 0.0, 1e-9)] + [inside]]
        with np.errstate(invalid="ignore"):
            for batch in batches:
                x = np.array(batch, dtype=float)
                assert sur(x).tobytes() == masked(x).tobytes(), batch
                for xi in x:
                    assert np.float64(sur(float(xi))).tobytes() == masked(np.array([xi])).tobytes()

    @pytest.mark.parametrize("fn", [capped_l1(0.2, 1.0), indicator_penalty(2.0, 1.0),
                                    leaky_capped_l1(1.0, 1.0, 0.5), l0_penalty(0.7),
                                    l1_penalty(0.3), zero_penalty(), quad_on_segments()],
                             ids=["capped-l1", "indicator", "leaky", "l0", "l1", "zero",
                                  "quadratic-segments"])
    def test_owner_values_match_evaluate(self, fn):
        q, fq, at, unowned = fn._owner_values
        assert q.tolist() == sorted({e.value for e in fn.endpoints})
        assert fq.tobytes() == fn.evaluate(q).tobytes()
        owner = fn.piece_index(q)
        assert at.tolist() == owner.tolist()
        for m, (edges, values, owners) in enumerate(unowned, start=1):
            lo, hi = fn.surrogate(m).piece.left, fn.surrogate(m).piece.right
            expect = [j for j, v in enumerate(q) if v in (lo, hi) and owner[j] != m]
            assert edges.tobytes() == q[expect].tobytes()
            assert values.tobytes() == fq[expect].tobytes()
            assert owners.tolist() == owner[expect].tolist()

    def test_index_out_of_range(self):
        fn = capped_l1(0.2, 1.0)
        for m in (4, 0, -1):  # 0 and -1 once read the last pieces
            with pytest.raises(IndexError, match=f"piece index {m} outside 1..3"):
                fn.surrogate(m)

    @pytest.mark.parametrize("x, assign, match", [
        ([0.5, 2.0, -3.0], [0, 7, 2], "coordinate 0 has surrogate number 0, outside 1..3"),
        ([0.5, 2.0, -3.0], [2, 3, 4], "coordinate 2 has surrogate number 4"),
        ([[0.5, 2.0], [-3.0, 0.1]], [[2, 3], [1, 9]], "coordinate 3 has surrogate number 9"),
        ([0.5, 2.0, -3.0], [2, 3], "expected 3 surrogates"),
    ])
    def test_surrogate_values_rejects_bad_numbers(self, x, assign, match):
        # out-of-range numbers once came back as whatever np.empty_like held
        with pytest.raises(ValueError, match=match):
            capped_l1(0.2, 1.0).surrogate_values(np.array(x), np.array(assign))


class TestSlopeEstimation:
    def test_custom_piece_slopes_estimated(self):
        # piece evaluator exp(x) on (-inf, 0]: slope at 0- is 1
        fn = build_piecewise(
            [
                PieceSpec(-math.inf, 0.0, lambda v: np.exp(np.asarray(v, dtype=float)),
                          left_slope=0.0),
                PieceSpec(0.0, math.inf, Affine(0.2, 1.0)),
            ],
            ["continuous"],
        )
        assert fn.pieces[0].right_slope == pytest.approx(1.0, abs=1e-6)
        assert fn.C == pytest.approx(1.0 - 0.2, abs=1e-6)


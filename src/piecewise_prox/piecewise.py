"""Univariate piecewise convex penalties and their surrogate extensions.

A penalty is modeled as an ordered list of convex pieces tiling the real line.
Every interior breakpoint carries a one-sided continuity tag that decides which
piece owns the point.  Membership is single valued: ``build_piecewise`` rejects
tags under which two pieces claim one breakpoint.  From the piece metadata
the model derives the structural constants used by the solvers and step-size
certificates:

* ``C``  - minimum one-sided slope drop across continuous breakpoints,
* ``J``  - minimum jump magnitude across discontinuous breakpoints,
* ``F0`` - bound on |f'| over piece interiors,
* ``R0`` - minimum length over pieces of nonzero length,
* ``s0`` - differentiability margin around breakpoints.

``C``/``J``/``s0`` use ``+inf`` sentinels when no breakpoint of the relevant
kind exists; downstream formulas drop the corresponding terms.

Each piece induces a surrogate function that agrees with the penalty on the
piece and extends outside it with the simplest compatible structure: linearly
through the breakpoint value when the penalty is continuous there, linearly
through the one-sided limit when the piece does not own a discontinuous
breakpoint, and as the constant far-side limit when it does (the nonconvex
case).  Surrogates carry a closed-form prox kernel whenever their global shape
matches a registered family.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import (
    ProxKernel,
    hard_threshold_kernel,
    identity_kernel,
    indicator_snap_kernel,
    linear_shift_kernel,
    quadratic_kernel,
    soft_threshold_kernel,
)

__all__ = [
    "Constant",
    "Affine",
    "ScaledAbs",
    "Quadratic",
    "CustomShape",
    "Endpoint",
    "Piece",
    "PieceSpec",
    "PiecewiseFn",
    "SurrogateFn",
    "PiecewiseBuildError",
    "build_piecewise",
    "capped_l1",
    "indicator_penalty",
    "leaky_capped_l1",
    "l0_penalty",
    "l1_penalty",
    "zero_penalty",
    "to_json",
    "from_json",
]

_GRID_POINTS = 1000
_GRID_CLIP = 1.0e6
_CONVEXITY_TOL = 1.0e-10
_MATCH_TOL = 1.0e-9
_FD_STEP = 1.0e-6

CONTINUOUS = "continuous"
LEFT_ONLY = "left-only"
RIGHT_ONLY = "right-only"
ISOLATED = "isolated"
_TAGS = (CONTINUOUS, LEFT_ONLY, RIGHT_ONLY, ISOLATED)


class PiecewiseBuildError(ValueError):
    """Raised when a piece list fails validation."""


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    c: float

    tag = "constant"

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)

    def one_sided_slope(self, q: float, side: int) -> float:
        return 0.0

    def kinks_in(self, lo: float, hi: float):
        return ()

    def is_convex(self) -> bool:
        return True

    def params(self):
        return {"c": self.c}


@dataclass(frozen=True)
class Affine:
    slope: float
    intercept: float

    tag = "affine"

    def __call__(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    def one_sided_slope(self, q: float, side: int) -> float:
        return self.slope

    def kinks_in(self, lo: float, hi: float):
        return ()

    def is_convex(self) -> bool:
        return True

    def params(self):
        return {"slope": self.slope, "intercept": self.intercept}


@dataclass(frozen=True)
class ScaledAbs:
    scale: float

    tag = "scaled-abs"

    def __call__(self, x):
        return self.scale * np.abs(np.asarray(x, dtype=float))

    def one_sided_slope(self, q: float, side: int) -> float:
        # side=+1: limit from the right of q, side=-1: from the left.
        if q > 0 or (q == 0 and side > 0):
            return self.scale
        return -self.scale

    def kinks_in(self, lo: float, hi: float):
        return (0.0,) if lo < 0.0 < hi else ()

    def is_convex(self) -> bool:
        return self.scale >= 0.0

    def params(self):
        return {"scale": self.scale}


@dataclass(frozen=True)
class Quadratic:
    a: float
    b: float
    c: float

    tag = "quadratic"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (self.a * x + self.b) * x + self.c

    def one_sided_slope(self, q: float, side: int) -> float:
        if not math.isfinite(q):
            if self.a == 0.0:
                return self.b
            return math.inf if (q > 0) == (self.a > 0) else -math.inf
        return 2.0 * self.a * q + self.b

    def kinks_in(self, lo: float, hi: float):
        return ()

    def is_convex(self) -> bool:
        return self.a >= 0.0

    def params(self):
        return {"a": self.a, "b": self.b, "c": self.c}


@dataclass(frozen=True, eq=False)
class CustomShape:
    """User evaluator; one-sided slopes estimated by Richardson-extrapolated
    finite differences (step 1e-6) unless supplied at build time."""

    fn: Callable
    label: str = "custom"

    tag = "custom"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self.fn(x)
        return np.asarray(out, dtype=float)

    def one_sided_slope(self, q: float, side: int) -> float:
        if not math.isfinite(q):
            return math.nan
        h = _FD_STEP
        f0 = float(self.fn(np.asarray(q, dtype=float)))
        d1 = (float(self.fn(np.asarray(q + side * h, dtype=float))) - f0) / (side * h)
        d2 = (float(self.fn(np.asarray(q + side * h / 2, dtype=float))) - f0) / (side * h / 2)
        return 2.0 * d2 - d1

    def kinks_in(self, lo: float, hi: float):
        return ()

    def is_convex(self) -> bool:
        return True  # checked by the grid probe instead

    def params(self):
        raise PiecewiseBuildError(f"custom shape {self.label!r} is not serializable")


_SHAPE_TAGS = {"constant": Constant, "affine": Affine, "scaled-abs": ScaledAbs, "quadratic": Quadratic}


# ---------------------------------------------------------------------------
# pieces and endpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Endpoint:
    """Interior breakpoint with its one-sided continuity tag.

    ``continuous`` and ``left-only`` assign the point to the piece on its
    left, ``right-only`` to the piece on its right, and ``isolated`` marks a
    value owned by a single-point piece.
    """

    value: float
    continuity: str

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise PiecewiseBuildError("endpoint value must be finite")
        if self.continuity not in _TAGS:
            raise PiecewiseBuildError(
                f"endpoint at {self.value} has invalid continuity {self.continuity!r}"
            )

    @property
    def is_continuous(self) -> bool:
        return self.continuity == CONTINUOUS


@dataclass(frozen=True)
class PieceSpec:
    """Input descriptor for one convex piece on [left, right]."""

    left: float
    right: float
    shape: object  # Constant/Affine/ScaledAbs/Quadratic/CustomShape or callable
    left_slope: Optional[float] = None
    right_slope: Optional[float] = None
    kinks: Sequence[float] = ()


@dataclass(frozen=True)
class Piece:
    index: int  # 1-based
    left: float
    right: float
    shape: object
    left_slope: float  # slope limit entering the piece at its left end
    right_slope: float  # slope limit leaving the piece at its right end
    value_left: float  # limit of f approaching the left end from inside
    value_right: float
    kinks: tuple = ()

    @property
    def is_point(self) -> bool:
        return self.left == self.right

    @property
    def length(self) -> float:
        return self.right - self.left

    def slope_bound(self) -> float:
        if self.is_point:
            return 0.0
        # a NaN slope (a custom shape at an infinite end) is unbounded
        return max(math.inf if math.isnan(t) else abs(t)
                   for t in (self.left_slope, self.right_slope))


def _normalize_shape(shape) -> object:
    if isinstance(shape, (Constant, Affine, ScaledAbs, Quadratic, CustomShape)):
        return shape
    if callable(shape):
        return CustomShape(shape)
    raise PiecewiseBuildError(f"unsupported piece evaluator {shape!r}")


def _build_piece(i: int, spec: PieceSpec) -> Piece:
    shape = _normalize_shape(spec.shape)
    left, right = float(spec.left), float(spec.right)
    if not (left <= right):
        raise PiecewiseBuildError(f"piece {i + 1}: left {left} exceeds right {right}")
    if left == right and not math.isfinite(left):
        raise PiecewiseBuildError(f"piece {i + 1}: degenerate infinite piece")
    if left == right:
        v = float(shape(np.asarray(left)))
        return Piece(i + 1, left, right, shape, 0.0, 0.0, v, v, ())
    ls = spec.left_slope
    rs = spec.right_slope
    if ls is None:
        ls = shape.one_sided_slope(left, +1) if math.isfinite(left) else shape.one_sided_slope(-math.inf, -1)
    if rs is None:
        rs = shape.one_sided_slope(right, -1) if math.isfinite(right) else shape.one_sided_slope(math.inf, +1)
    vl = float(shape(np.asarray(left))) if math.isfinite(left) else math.nan
    vr = float(shape(np.asarray(right))) if math.isfinite(right) else math.nan
    kinks = tuple(float(k) for k in spec.kinks) or tuple(shape.kinks_in(left, right))
    kinks = tuple(k for k in kinks if left < k < right)
    return Piece(i + 1, left, right, shape, float(ls), float(rs), vl, vr, kinks)


def _probe_convexity(piece: Piece) -> None:
    if piece.is_point:
        return
    lo = max(piece.left, -_GRID_CLIP)
    hi = min(piece.right, _GRID_CLIP)
    if hi <= lo:
        return
    grid = np.linspace(lo, hi, _GRID_POINTS)
    vals = np.asarray(piece.shape(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise PiecewiseBuildError(f"piece {piece.index}: evaluator returned non-finite values")
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.min(second) < -_CONVEXITY_TOL * scale:
        raise PiecewiseBuildError(f"piece {piece.index}: evaluator fails the convexity probe")


# ---------------------------------------------------------------------------
# surrogate functions
# ---------------------------------------------------------------------------

CASE_NONE = "none"
CASE_CONTINUOUS_LINEAR = "continuous-linear"
CASE_LIMIT_LINEAR = "limit-linear"
CASE_CONSTANT_LIMIT = "constant-limit"


@dataclass(frozen=True, eq=False)
class SurrogateFn:
    """Extension of one piece to the whole line.

    ``left_case``/``right_case`` record which branch produced each side:
    ``continuous-linear`` and ``limit-linear`` extend with the piece's
    one-sided slope, ``constant-limit`` is the nonconvex constant branch.
    """

    source: "PiecewiseFn"
    m: int  # 1-based source piece index
    left_case: str
    right_case: str
    # linear extension "value + slope * (x - anchor)"; constant branch stores
    # the constant in value with slope 0.
    left_anchor: float = math.nan
    left_value: float = math.nan
    left_slope: float = 0.0
    right_anchor: float = math.nan
    right_value: float = math.nan
    right_slope: float = 0.0
    kernel: Optional[ProxKernel] = None

    @property
    def piece(self) -> Piece:
        return self.source.pieces[self.m - 1]

    @property
    def is_convex(self) -> bool:
        return CASE_CONSTANT_LIMIT not in (self.left_case, self.right_case)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        p = self.piece
        out = np.asarray(p.shape(arr), dtype=float).copy()
        if self.left_case != CASE_NONE:
            mask = arr < p.left
            if mask.any():
                out[mask] = self.left_value + self.left_slope * (arr[mask] - self.left_anchor)
        if self.right_case != CASE_NONE:
            mask = arr > p.right
            if mask.any():
                out[mask] = self.right_value + self.right_slope * (arr[mask] - self.right_anchor)
        return float(out[0]) if scalar else out

    def slope_bound(self) -> float:
        b = self.piece.slope_bound()
        if self.left_case != CASE_NONE:
            b = max(b, abs(self.left_slope))
        if self.right_case != CASE_NONE:
            b = max(b, abs(self.right_slope))
        return b


# ---------------------------------------------------------------------------
# the assembled model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PiecewiseFn:
    """Validated piecewise convex penalty with structural constants."""

    pieces: tuple
    endpoints: tuple  # Endpoint records, one per interior breakpoint
    C: float
    J: float
    F0: float
    R0: float
    s0: float
    # per-piece closure bounds
    _lo: np.ndarray = field(repr=False, default=None)
    _hi: np.ndarray = field(repr=False, default=None)
    # membership tables: the distinct breakpoint values padded with +inf, the
    # piece owning each value, the piece covering the open gap below it and
    # whether the penalty is continuous at each value
    _cuts: np.ndarray = field(repr=False, default=None)
    _at: np.ndarray = field(repr=False, default=None)
    _gap: np.ndarray = field(repr=False, default=None)
    _continuous: np.ndarray = field(repr=False, default=None)
    _builtin: Optional[tuple] = field(repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_surrogates", {})

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)

    # -- membership ---------------------------------------------------------

    def piece_index(self, x):
        """1-based index of the piece owning x (scalar or ndarray)."""
        arr = np.asarray(x, dtype=float)
        if not np.isfinite(arr).all():
            bad = float(arr[~np.isfinite(arr)].flat[0])
            raise ValueError(f"piece membership needs finite x, got {bad!r}")
        j = np.searchsorted(self._cuts, arr)
        out = np.where(self._cuts[j] == arr, self._at[j], self._gap[j])
        return int(out) if arr.ndim == 0 else out

    def evaluate(self, x):
        """Penalty value at x, dispatching through the membership rule."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = self._evaluate_on(arr, self.piece_index(arr))
        return float(out[0]) if scalar else out

    def _evaluate_on(self, x: np.ndarray, assign: np.ndarray) -> np.ndarray:
        """Penalty value at the 1-d array x, given its 1-based pieces."""
        out = np.empty_like(x)
        for i in range(self.n_pieces):
            mask = assign == i + 1
            if mask.any():
                out[mask] = self.pieces[i].shape(x[mask])
        return out

    __call__ = evaluate

    # -- structural metadata -------------------------------------------------

    def structural_constants(self):
        """(C, J, F0, R0, s0) with +inf sentinels where no term applies."""
        return (self.C, self.J, self.F0, self.R0, self.s0)

    def piece_bounds(self, m: int):
        """Closure bounds of piece m (1-based)."""
        return float(self._lo[m - 1]), float(self._hi[m - 1])

    def endpoint_values(self) -> np.ndarray:
        """The distinct breakpoint values, ascending."""
        return self._cuts[:-1].copy()

    # -- surrogates -----------------------------------------------------------

    def surrogate(self, m: int) -> SurrogateFn:
        """Surrogate extension of piece m (1-based), cached per instance."""
        if not 1 <= m <= self.n_pieces:
            raise IndexError(f"piece index {m} outside 1..{self.n_pieces}")
        cache = self._surrogates
        if m not in cache:
            cache[m] = _make_surrogate(self, m)
        return cache[m]


def _make_surrogate(fn: PiecewiseFn, m: int) -> SurrogateFn:
    pieces = fn.pieces
    p = pieces[m - 1]
    kw = dict(left_case=CASE_NONE, right_case=CASE_NONE)

    # Right side: breakpoint between piece m and m+1 is endpoint record m-1.
    if math.isfinite(p.right):
        e = fn.endpoints[m - 1]
        q = p.right
        if e.continuity == CONTINUOUS:
            kw.update(right_case=CASE_CONTINUOUS_LINEAR, right_anchor=q,
                      right_value=p.value_right, right_slope=p.right_slope)
        elif fn.piece_index(q) != m:
            # piece m does not own q: extend its own limit linearly
            kw.update(right_case=CASE_LIMIT_LINEAR, right_anchor=q,
                      right_value=p.value_right, right_slope=p.right_slope)
        else:
            # piece m owns a discontinuous q: constant far-side limit
            kw.update(right_case=CASE_CONSTANT_LIMIT, right_anchor=q,
                      right_value=pieces[m].value_left, right_slope=0.0)

    # Left side: breakpoint between piece m-1 and m is endpoint record m-2.
    if math.isfinite(p.left):
        e = fn.endpoints[m - 2]
        q = p.left
        if e.continuity == CONTINUOUS:
            kw.update(left_case=CASE_CONTINUOUS_LINEAR, left_anchor=q,
                      left_value=p.value_left, left_slope=p.left_slope)
        elif fn.piece_index(q) != m:
            kw.update(left_case=CASE_LIMIT_LINEAR, left_anchor=q,
                      left_value=p.value_left, left_slope=p.left_slope)
        else:
            kw.update(left_case=CASE_CONSTANT_LIMIT, left_anchor=q,
                      left_value=pieces[m - 2].value_right, left_slope=0.0)

    sur = SurrogateFn(source=fn, m=m, **kw)
    kernel = _detect_kernel(sur)
    if kernel is not None:
        sur = SurrogateFn(source=fn, m=m, kernel=kernel, **kw)
    return sur


def _detect_kernel(sur: SurrogateFn) -> Optional[ProxKernel]:
    p = sur.piece
    shape = p.shape
    lc, rc = sur.left_case, sur.right_case
    linear_cases = (CASE_NONE, CASE_CONTINUOUS_LINEAR, CASE_LIMIT_LINEAR)

    if p.is_point and lc == CASE_CONSTANT_LIMIT and rc == CASE_CONSTANT_LIMIT:
        c = p.value_left
        return hard_threshold_kernel(p.left, sur.left_value - c, sur.right_value - c)

    if isinstance(shape, Constant):
        if lc in linear_cases and rc in linear_cases:
            return identity_kernel()
        if lc == CASE_CONSTANT_LIMIT and rc in (CASE_NONE,):
            return indicator_snap_kernel(sur.left_value - shape.c, p.left, high_side=-1)
        if rc == CASE_CONSTANT_LIMIT and lc in (CASE_NONE,):
            return indicator_snap_kernel(sur.right_value - shape.c, p.right, high_side=+1)
        return None

    if isinstance(shape, Affine) and lc in linear_cases and rc in linear_cases:
        return linear_shift_kernel(shape.slope)

    if isinstance(shape, ScaledAbs) and lc in linear_cases and rc in linear_cases:
        if p.left < 0.0 < p.right:
            return soft_threshold_kernel(shape.scale)
        sign = 1.0 if p.left >= 0.0 else -1.0
        return linear_shift_kernel(sign * shape.scale)

    if isinstance(shape, Quadratic) and lc == CASE_NONE and rc == CASE_NONE:
        return quadratic_kernel(shape.a, shape.b)

    return None


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def build_piecewise(specs: Sequence[PieceSpec], continuity: Sequence[str],
                    builtin: Optional[tuple] = None) -> PiecewiseFn:
    """Assemble and validate a piecewise convex penalty.

    Parameters
    ----------
    specs : ordered piece descriptors covering the real line; single-point
        pieces are written with ``left == right``.
    continuity : one tag per interior breakpoint, drawn from ``continuous``,
        ``left-only``, ``right-only``, ``isolated``.

    Raises
    ------
    PiecewiseBuildError on overlapping pieces, coverage gaps, tag/value
    mismatches, nonconvex evaluators, a nonpositive slope drop at a continuous
    breakpoint, or an unbounded subgradient with more than one piece.
    """
    if not specs:
        raise PiecewiseBuildError("at least one piece is required")
    pieces = [_build_piece(i, s) for i, s in enumerate(specs)]
    M = len(pieces)
    if len(continuity) != M - 1:
        raise PiecewiseBuildError(f"{M - 1} continuity tags required, got {len(continuity)}")

    if pieces[0].left != -math.inf:
        raise PiecewiseBuildError("first piece must extend to -inf")
    if pieces[-1].right != math.inf:
        raise PiecewiseBuildError("last piece must extend to +inf")
    for a, b in zip(pieces, pieces[1:]):
        if a.right > b.left:
            raise PiecewiseBuildError(f"pieces {a.index} and {b.index} overlap")
        if a.right < b.left:
            raise PiecewiseBuildError(f"coverage gap between pieces {a.index} and {b.index}")
        if a.is_point and b.is_point:
            raise PiecewiseBuildError(f"pieces {a.index} and {b.index} are both single points")
    for p in pieces:
        if p.is_point and (p.index == 1 or p.index == M):
            raise PiecewiseBuildError("single-point pieces must be interior")
        if not p.shape.is_convex():
            raise PiecewiseBuildError(f"piece {p.index}: evaluator is not convex")
        if not p.is_point and p.left_slope > p.right_slope + _MATCH_TOL:
            raise PiecewiseBuildError(
                f"piece {p.index}: one-sided slopes decrease across the piece "
                f"({p.left_slope:g} > {p.right_slope:g}), contradicting convexity"
            )
        _probe_convexity(p)

    endpoints = []
    for j in range(M - 1):
        q = pieces[j].right
        tag = continuity[j]
        endpoints.append(Endpoint(q, tag))
    endpoints = tuple(endpoints)

    _validate_tags(pieces, endpoints)
    cuts, at, gap, continuous = _membership(pieces, endpoints)
    C, J, F0, R0, s0 = _structural_constants(pieces, endpoints)

    if M > 1 and not math.isfinite(F0):
        raise PiecewiseBuildError(
            "unbounded subgradient: a piece has infinite slope growth; "
            "no finite F0 exists for a multi-piece penalty"
        )
    lo = np.array([p.left for p in pieces])
    hi = np.array([p.right for p in pieces])
    return PiecewiseFn(tuple(pieces), endpoints, C, J, F0, R0, s0,
                       lo, hi, cuts, at, gap, continuous, builtin)


def _validate_tags(pieces, endpoints) -> None:
    for j, e in enumerate(endpoints):
        left_p, right_p = pieces[j], pieces[j + 1]
        lim_left = left_p.value_right
        lim_right = right_p.value_left
        point_adjacent = left_p.is_point or right_p.is_point
        scale = max(1.0, abs(lim_left), abs(lim_right))
        if e.continuity == ISOLATED:
            if not point_adjacent:
                raise PiecewiseBuildError(
                    f"endpoint {e.value}: 'isolated' is only valid beside a single-point piece"
                )
            point = left_p if left_p.is_point else right_p
            other_lim = lim_right if left_p.is_point else lim_left
            if point.value_left >= other_lim - _MATCH_TOL * scale:
                raise PiecewiseBuildError(
                    f"endpoint {e.value}: isolated value must sit strictly below both limits"
                )
            continue
        if e.continuity == CONTINUOUS:
            if abs(lim_left - lim_right) > _MATCH_TOL * scale:
                raise PiecewiseBuildError(
                    f"endpoint {e.value}: declared continuous but one-sided limits differ"
                )
            gap = left_p.right_slope - right_p.left_slope
            if gap <= 0:
                raise PiecewiseBuildError(
                    f"endpoint {e.value}: slope drop {gap:g} is not positive at a continuous endpoint"
                )
            continue
        # one-sided continuity: there must be an actual jump, lsc must hold
        if abs(lim_left - lim_right) <= _MATCH_TOL * scale:
            raise PiecewiseBuildError(
                f"endpoint {e.value}: declared discontinuous but one-sided limits agree"
            )
        if e.continuity == LEFT_ONLY and lim_left > lim_right + _MATCH_TOL * scale:
            raise PiecewiseBuildError(
                f"endpoint {e.value}: left-continuous value above the right limit breaks lower semicontinuity"
            )
        if e.continuity == RIGHT_ONLY and lim_right > lim_left + _MATCH_TOL * scale:
            raise PiecewiseBuildError(
                f"endpoint {e.value}: right-continuous value above the left limit breaks lower semicontinuity"
            )


def _membership(pieces, endpoints):
    """The membership tables (see PiecewiseFn); the continuity tags decide
    which piece owns each breakpoint, and only one piece may own it.  At a
    value shared by the two endpoints of a single-point piece, continuity is
    read from the first endpoint's tag."""
    owners: dict[float, set] = {}
    continuous: dict[float, bool] = {}
    for j, e in enumerate(endpoints):
        continuous.setdefault(e.value, e.is_continuous)
        left_p, right_p = pieces[j], pieces[j + 1]
        if e.continuity in (CONTINUOUS, LEFT_ONLY):
            owner = left_p
        elif e.continuity == RIGHT_ONLY:
            owner = right_p
        else:  # isolated: the point piece owns the value
            owner = left_p if left_p.is_point else right_p
        owners.setdefault(e.value, set()).add(owner.index)
    for q, claims in owners.items():
        if len(claims) > 1:
            raise PiecewiseBuildError(
                f"endpoint {q}: pieces {sorted(claims)} both claim the breakpoint"
            )
    cuts = sorted(owners)
    at = [min(owners[q]) for q in cuts] + [0]
    gap = [p.index for p in pieces if not p.is_point]
    return (np.array(cuts + [math.inf]), np.array(at, dtype=np.int64),
            np.array(gap, dtype=np.int64), np.array([continuous[q] for q in cuts] + [False]))


def _structural_constants(pieces, endpoints):
    gaps, jumps = [], []
    for j, e in enumerate(endpoints):
        left_p, right_p = pieces[j], pieces[j + 1]
        lim_left, lim_right = left_p.value_right, right_p.value_left
        if e.continuity == CONTINUOUS:
            gaps.append(left_p.right_slope - right_p.left_slope)
        elif e.continuity == LEFT_ONLY:
            jumps.append(abs(lim_right - lim_left))  # f(q) = left limit
        elif e.continuity == RIGHT_ONLY:
            jumps.append(abs(lim_left - lim_right))  # f(q) = right limit
        else:  # isolated: both one-sided jumps relative to the point value
            point = left_p if left_p.is_point else right_p
            fq = point.value_left
            other = lim_right if left_p.is_point else lim_left
            jumps.append(abs(other - fq))
    C = min(gaps) if gaps else math.inf
    J = min(jumps) if jumps else math.inf

    F0 = 0.0
    for p in pieces:
        F0 = max(F0, p.slope_bound())

    lengths = [p.length for p in pieces if p.length > 0]
    R0 = min(lengths) if lengths else math.inf

    s0 = R0
    values = sorted({e.value for e in endpoints})
    for q in values:
        for p in pieces:
            for k in p.kinks:
                if k != q:
                    s0 = min(s0, abs(k - q))
    return C, J, F0, R0, s0


# ---------------------------------------------------------------------------
# built-in penalties
# ---------------------------------------------------------------------------


def capped_l1(lam: float, b: float = 1.0) -> PiecewiseFn:
    """lam * min(|x|, b): three pieces with continuous breakpoints at +-b."""
    if lam <= 0 or b <= 0:
        raise PiecewiseBuildError("capped-l1 requires lam > 0 and b > 0")
    cap = lam * b
    specs = [
        PieceSpec(-math.inf, -b, Constant(cap)),
        PieceSpec(-b, b, ScaledAbs(lam)),
        PieceSpec(b, math.inf, Constant(cap)),
    ]
    return build_piecewise(specs, [CONTINUOUS, CONTINUOUS],
                           builtin=("capped-l1", {"lam": lam, "b": b}))


def indicator_penalty(lam: float, tau: float = 0.0) -> PiecewiseFn:
    """lam * 1{x < tau}: right continuous at tau."""
    if lam <= 0:
        raise PiecewiseBuildError("indicator requires lam > 0")
    specs = [
        PieceSpec(-math.inf, tau, Constant(lam)),
        PieceSpec(tau, math.inf, Constant(0.0)),
    ]
    return build_piecewise(specs, [RIGHT_ONLY],
                           builtin=("indicator", {"lam": lam, "tau": tau}))


def leaky_capped_l1(lam: float, b: float = 1.0, beta: float = 0.5) -> PiecewiseFn:
    """lam * min(|x|, b) + beta * max(|x| - b, 0), with 0 <= beta < lam."""
    if not (0.0 <= beta < lam):
        raise PiecewiseBuildError("leaky capped-l1 requires 0 <= beta < lam")
    if b <= 0:
        raise PiecewiseBuildError("leaky capped-l1 requires b > 0")
    cap = lam * b
    specs = [
        PieceSpec(-math.inf, -b, Affine(-beta, cap - beta * b)),
        PieceSpec(-b, b, ScaledAbs(lam)),
        PieceSpec(b, math.inf, Affine(beta, cap - beta * b)),
    ]
    return build_piecewise(specs, [CONTINUOUS, CONTINUOUS],
                           builtin=("leaky-capped-l1", {"lam": lam, "b": b, "beta": beta}))


def l0_penalty(lam: float = 1.0) -> PiecewiseFn:
    """lam * 1{x != 0}: the origin is an isolated single-point piece."""
    if lam <= 0:
        raise PiecewiseBuildError("l0 requires lam > 0")
    specs = [
        PieceSpec(-math.inf, 0.0, Constant(lam)),
        PieceSpec(0.0, 0.0, Constant(0.0)),
        PieceSpec(0.0, math.inf, Constant(lam)),
    ]
    return build_piecewise(specs, [ISOLATED, ISOLATED],
                           builtin=("l0", {"lam": lam}))


def l1_penalty(lam: float) -> PiecewiseFn:
    """lam * |x| as a single convex piece (no breakpoints)."""
    if lam < 0:
        raise PiecewiseBuildError("l1 requires lam >= 0")
    specs = [PieceSpec(-math.inf, math.inf, ScaledAbs(lam))]
    return build_piecewise(specs, [], builtin=("l1", {"lam": lam}))


def zero_penalty() -> PiecewiseFn:
    """The zero penalty (smooth-only problems)."""
    specs = [PieceSpec(-math.inf, math.inf, Constant(0.0))]
    return build_piecewise(specs, [], builtin=("zero", {}))


_BUILTINS = {
    "capped-l1": capped_l1,
    "indicator": indicator_penalty,
    "leaky-capped-l1": leaky_capped_l1,
    "l0": l0_penalty,
    "l1": l1_penalty,
    "zero": zero_penalty,
}


def builtin_penalty(kind: str, **params) -> PiecewiseFn:
    try:
        ctor = _BUILTINS[kind]
    except KeyError:
        raise PiecewiseBuildError(
            f"unknown penalty kind {kind!r}; expected one of {sorted(_BUILTINS)}"
        ) from None
    return ctor(**params)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def to_json(fn: PiecewiseFn) -> str:
    """Serialize to a JSON document of tagged piece records."""
    doc = {}
    if fn._builtin is not None:
        doc["builtin"] = {"kind": fn._builtin[0], "params": fn._builtin[1]}
    doc["pieces"] = [
        {
            "left": _num_out(p.left),
            "right": _num_out(p.right),
            "shape": {"tag": p.shape.tag, **p.shape.params()},
        }
        for p in fn.pieces
    ]
    doc["continuity"] = [e.continuity for e in fn.endpoints]
    return json.dumps(doc, indent=2, sort_keys=True)


def from_json(text: str) -> PiecewiseFn:
    doc = json.loads(text)
    if "builtin" in doc:
        b = doc["builtin"]
        return builtin_penalty(b["kind"], **b["params"])
    specs = []
    for rec in doc["pieces"]:
        shape_rec = dict(rec["shape"])
        tag = shape_rec.pop("tag")
        if tag not in _SHAPE_TAGS:
            raise PiecewiseBuildError(f"unknown shape tag {tag!r}")
        shape = _SHAPE_TAGS[tag](**shape_rec)
        specs.append(PieceSpec(float(rec["left"]), float(rec["right"]), shape))
    return build_piecewise(specs, doc["continuity"])


def _num_out(v: float):
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return v

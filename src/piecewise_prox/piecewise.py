"""Univariate piecewise convex penalties and their surrogate extensions.

A penalty is modeled as an ordered list of convex pieces tiling the real line.
Every interior breakpoint carries a one-sided continuity tag that decides which
piece owns the point: ``continuous`` and ``left-only`` the piece on its left,
``right-only`` the piece on its right, ``isolated`` the single-point piece
beside it.  ``build_piecewise`` decodes each tag once into an ``Endpoint``
record that names its owner, and rejects tags under which two pieces claim
one breakpoint.  From the owners it builds one owned-bounds table: per piece
its closure (left, right), the set it owns (own_lo, own_hi; an edge it does
not own, an infinite one too, one float inward) and whether the endpoint
record on each side is continuous.  The owned sets tile the line in piece
order, so membership is one ``searchsorted`` over own_lo; ``Problem``'s piece
plan and NCE step read the same table.  PPGD's NCE step judges a
crossing by the record it crosses: the one closing the old piece on that
side, toward the new point when the old piece is a single point, whose two
records may carry different tags.  From the piece metadata
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
piece and extends past each finite edge by a line: the piece's own limit and
one-sided slope, or the constant far-side limit when the piece owns a jump
there (the nonconvex case).  The table pass builds these surrogates from the
same decode of each endpoint record, and ``PiecewiseFn.surrogates`` holds
them in piece order; ``surrogate_values`` values the surrogates of given
pieces at an array.  Every built-in shape has a closed-form ``prox(u, s)``, the
minimizer of (1/2s)(v - u)^2 + shape(v) over the whole line; ``prox`` builds
each surrogate's prox from it and the surrogate's wing data.  A
``CustomShape`` has none and takes a grid search on its piece's closure.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

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
# shapes: each but CustomShape has prox(u, s) = argmin_v (1/2s)(v - u)^2 + shape(v)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    c: float

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)

    def prox(self, u, s: float):
        return u

    def one_sided_slope(self, q: float, side: int) -> float:
        return 0.0

    def kinks_in(self, lo: float, hi: float):
        return ()

    def is_convex(self) -> bool:
        return True


@dataclass(frozen=True)
class Affine:
    slope: float
    intercept: float

    def __call__(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    def prox(self, u, s: float):
        return u - s * self.slope

    def one_sided_slope(self, q: float, side: int) -> float:
        return self.slope

    def kinks_in(self, lo: float, hi: float):
        return ()

    def is_convex(self) -> bool:
        return True


@dataclass(frozen=True)
class ScaledAbs:
    scale: float

    def __call__(self, x):
        return self.scale * np.abs(np.asarray(x, dtype=float))

    def prox(self, u, s: float):
        # soft threshold; the + 0.0 turns a -0.0 result into 0.0
        return np.sign(u) * np.maximum(np.abs(u) - self.scale * s, 0.0) + 0.0

    def one_sided_slope(self, q: float, side: int) -> float:
        # side=+1: limit from the right of q, side=-1: from the left.
        if q > 0 or (q == 0 and side > 0):
            return self.scale
        return -self.scale

    def kinks_in(self, lo: float, hi: float):
        return (0.0,) if lo < 0.0 < hi else ()

    def is_convex(self) -> bool:
        return self.scale >= 0.0


@dataclass(frozen=True)
class Quadratic:
    a: float
    b: float
    c: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (self.a * x + self.b) * x + self.c

    def prox(self, u, s: float):
        return (u - s * self.b) / (1.0 + 2.0 * self.a * s)

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


@dataclass(frozen=True, eq=False)
class CustomShape:
    """User evaluator; one-sided slopes estimated by Richardson-extrapolated
    finite differences (step 1e-6) unless supplied at build time."""

    fn: Callable

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


# ---------------------------------------------------------------------------
# pieces and endpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Endpoint:
    """Interior breakpoint with its one-sided continuity tag and owner.

    ``continuous`` and ``left-only`` assign the point to the piece on its
    left, ``right-only`` to the piece on its right, and ``isolated`` marks a
    value owned by a single-point piece.  ``owner`` is that piece's 1-based
    index; ``build_piecewise`` decodes it from the tag once.
    """

    value: float
    continuity: str
    owner: int

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

@dataclass(frozen=True, eq=False)
class SurrogateFn:
    """Extension of one piece to the whole line: past each finite edge of the
    piece, the wing "value + slope * (x - edge)".  A wing is the piece's own
    limit and one-sided slope, or, where the piece owns a jump, the constant
    far-side limit (slope 0), which makes the surrogate nonconvex."""

    piece: Piece
    left_value: float = math.nan
    left_slope: float = 0.0
    right_value: float = math.nan
    right_slope: float = 0.0
    is_convex: bool = True

    def __call__(self, x):
        """Surrogate value at x; the piece's shape runs on its closure only."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        p = self.piece
        # the common case, every point on the closure (a NaN fails a bounded side)
        if ((p.left == -math.inf or arr.min(initial=math.inf) >= p.left)
                and (p.right == math.inf or arr.max(initial=-math.inf) <= p.right)):
            out = np.asarray(p.shape(arr), dtype=float)
        else:
            below, above = arr < p.left, arr > p.right
            inside = ~(below | above)
            out = np.empty_like(arr)
            out[inside] = p.shape(arr[inside])
            out[below] = self.left_value + self.left_slope * (arr[below] - p.left)
            out[above] = self.right_value + self.right_slope * (arr[above] - p.right)
        return float(out[0]) if scalar else out


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
    # the owned-bounds table, one column per piece: rows left, right, own_lo,
    # own_hi, and whether the endpoint record on the left/right is continuous
    _bounds: np.ndarray = field(repr=False, default=None)
    _record_continuous: np.ndarray = field(repr=False, default=None)
    surrogates: tuple = field(repr=False, default=())  # every piece's, in piece order

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)

    # -- membership ---------------------------------------------------------

    def piece_index(self, x):
        """1-based index of the piece owning x (scalar or ndarray): the last
        piece whose own_lo is at most x, as the owned sets tile the line."""
        arr = np.asarray(x, dtype=float)
        if not np.isfinite(arr).all():
            bad = float(arr[~np.isfinite(arr)].flat[0])
            raise ValueError(f"piece membership needs finite x, got {bad!r}")
        out = np.searchsorted(self._bounds[2], arr, side="right")
        return int(out) if arr.ndim == 0 else out

    def evaluate(self, x):
        """Penalty value at x, dispatching through the membership rule."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = self.surrogate_values(arr, self.piece_index(arr))
        return float(out[0]) if scalar else out

    def surrogate_values(self, x: np.ndarray, assign: np.ndarray) -> np.ndarray:
        """Surrogate value of each assigned 1-based piece at the array x, of
        ``assign``'s shape: the penalty itself where x lies on its assigned
        pieces.  A bad shape or number raises ValueError (``_entries``)."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        flat_x, flat_out = x.reshape(-1), out.reshape(-1)
        for sur, sel in _entries(self.surrogates, np.asarray(assign), x.shape):
            flat_out[sel] = sur(flat_x[sel])
        return out

    __call__ = evaluate

    # -- structural metadata -------------------------------------------------

    @cached_property
    def _owner_values(self):
        """(q, f(q), owner, unowned): the breakpoint values ascending, the
        penalty at each (the bytes ``evaluate`` gives), the owner of each and,
        per piece, the (edges, values, owners) of its finite edges that
        another piece owns, all from the endpoint records."""
        owners = {e.value: e.owner for e in self.endpoints}
        q = np.array(list(owners), dtype=float)
        at = np.array(list(owners.values()), dtype=np.int64)
        fq = self.surrogate_values(q, at)
        foreign = [((q == p.left) | (q == p.right)) & (at != p.index) for p in self.pieces]
        return q, fq, at, tuple((q[f], fq[f], at[f]) for f in foreign)

    def surrogate(self, m: int) -> SurrogateFn:
        """Surrogate extension of piece m (1-based)."""
        if not 1 <= m <= self.n_pieces:
            raise IndexError(f"piece index {m} outside 1..{self.n_pieces}")
        return self.surrogates[m - 1]


def _entries(surrogates, assignment: np.ndarray, shape) -> list:
    """(surrogate, flat coordinates) per entry of a surrogate table in use,
    for 1-based numbers into it; a bad shape or number raises ValueError."""
    if assignment.shape != shape:
        raise ValueError(f"expected {math.prod(shape)} surrogates, one per coordinate, "
                         f"got {assignment.size}")
    entries = [(sur, np.flatnonzero(assignment == m)) for m, sur in enumerate(surrogates, 1)]
    if sum(sel.size for _, sel in entries) != assignment.size:
        flat = assignment.reshape(-1)
        i = np.flatnonzero(~np.isin(flat, np.arange(1, len(surrogates) + 1)))[0]
        raise ValueError(f"coordinate {i} has surrogate number {flat[i]}, "
                         f"outside 1..{len(surrogates)}")
    return [(sur, sel) for sur, sel in entries if sel.size]


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def build_piecewise(specs: Sequence[PieceSpec], continuity: Sequence[str]) -> PiecewiseFn:
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
        if not p.shape.is_convex():
            raise PiecewiseBuildError(f"piece {p.index}: evaluator is not convex")
        if not p.is_point and p.left_slope > p.right_slope + _MATCH_TOL:
            raise PiecewiseBuildError(
                f"piece {p.index}: one-sided slopes decrease across the piece "
                f"({p.left_slope:g} > {p.right_slope:g}), contradicting convexity"
            )
        _probe_convexity(p)

    endpoints, drops, jumps = [], [], []
    for a, b, tag in zip(pieces, pieces[1:], continuity):
        q, lim_a, lim_b = a.right, a.value_right, b.value_left
        owner = {CONTINUOUS: a, LEFT_ONLY: a, RIGHT_ONLY: b}.get(tag, a if a.is_point else b)
        endpoints.append(Endpoint(q, tag, owner.index))  # rejects an unknown tag
        # the owner's limit at q and the limit from the other side
        own, far = (lim_a, lim_b) if owner is a else (lim_b, lim_a)
        tol = _MATCH_TOL * max(1.0, abs(lim_a), abs(lim_b))
        if tag == ISOLATED:
            if not (a.is_point or b.is_point):
                raise PiecewiseBuildError(
                    f"endpoint {q}: 'isolated' is only valid beside a single-point piece"
                )
            if own >= far - tol:
                raise PiecewiseBuildError(
                    f"endpoint {q}: isolated value must sit strictly below both limits"
                )
            jumps.append(abs(far - own))
        elif tag == CONTINUOUS:
            if abs(own - far) > tol:
                raise PiecewiseBuildError(
                    f"endpoint {q}: declared continuous but one-sided limits differ"
                )
            drop = a.right_slope - b.left_slope
            if drop <= 0:
                raise PiecewiseBuildError(
                    f"endpoint {q}: slope drop {drop:g} is not positive at a continuous endpoint"
                )
            drops.append(drop)
        else:  # one-sided continuity: there must be an actual jump, lsc must hold
            if abs(own - far) <= tol:
                raise PiecewiseBuildError(
                    f"endpoint {q}: declared discontinuous but one-sided limits agree"
                )
            if own > far + tol:
                sides = ("left", "right") if owner is a else ("right", "left")
                raise PiecewiseBuildError(
                    f"endpoint {q}: {sides[0]}-continuous value above the {sides[1]} limit "
                    "breaks lower semicontinuity"
                )
            jumps.append(abs(far - own))
    endpoints = tuple(endpoints)

    bounds, record_continuous, surrogates = _piece_table(pieces, endpoints)
    F0, R0, s0 = _structural_constants(pieces, endpoints)
    if M > 1 and not math.isfinite(F0):
        raise PiecewiseBuildError(
            "unbounded subgradient: a piece has infinite slope growth; "
            "no finite F0 exists for a multi-piece penalty"
        )
    C = min(drops) if drops else math.inf
    J = min(jumps) if jumps else math.inf
    return PiecewiseFn(tuple(pieces), endpoints, C, J, F0, R0, s0, bounds, record_continuous,
                       surrogates)


def _piece_table(pieces, endpoints):
    """The owned-bounds table (see PiecewiseFn) and every piece's surrogate,
    from one decode of the endpoint record on each side of each piece into
    (owns, continuous); only one piece may own a breakpoint value."""
    owners: dict[float, int] = {}
    for e in endpoints:
        if owners.setdefault(e.value, e.owner) != e.owner:
            raise PiecewiseBuildError(f"endpoint {e.value}: pieces {owners[e.value]} and "
                                      f"{e.owner} both claim the breakpoint")
    M, owns, continuous, surrogates = len(pieces), [], [], []
    for m, p in enumerate(pieces, 1):
        # endpoint record m-2 closes piece m on the left and record m-1 on the
        # right, with the neighbour's limit there on the far side; an infinite
        # edge has neither
        wings, convex = [], True
        for record, limit, slope in (
                ((endpoints[m - 2], pieces[m - 2].value_right) if m > 1 else None,
                 p.value_left, p.left_slope),
                ((endpoints[m - 1], pieces[m].value_left) if m < M else None,
                 p.value_right, p.right_slope)):
            e, far = record or (None, math.nan)
            owns.append(e is not None and e.owner == m)
            continuous.append(e is not None and e.is_continuous)
            if e is None:
                wing = (math.nan, 0.0)
            elif owns[-1] and not continuous[-1]:  # a jump it owns: the nonconvex case
                wing, convex = (far, 0.0), False
            else:
                wing = (limit, slope)
            wings += wing
        surrogates.append(SurrogateFn(p, *wings, convex))
    closure = np.array([[p.left for p in pieces], [p.right for p in pieces]])
    owns, continuous = (np.array(t).reshape(M, 2).T for t in (owns, continuous))
    inward = np.nextafter(closure, [[np.inf], [-np.inf]])
    return (np.vstack([closure, np.where(owns, closure, inward)]), continuous,
            tuple(surrogates))


def _structural_constants(pieces, endpoints):
    """(F0, R0, s0); C and J come from the breakpoint decode."""
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
    return F0, R0, s0


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
    return build_piecewise(specs, [CONTINUOUS, CONTINUOUS])


def indicator_penalty(lam: float, tau: float = 0.0) -> PiecewiseFn:
    """lam * 1{x < tau}: right continuous at tau."""
    if lam <= 0:
        raise PiecewiseBuildError("indicator requires lam > 0")
    specs = [
        PieceSpec(-math.inf, tau, Constant(lam)),
        PieceSpec(tau, math.inf, Constant(0.0)),
    ]
    return build_piecewise(specs, [RIGHT_ONLY])


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
    return build_piecewise(specs, [CONTINUOUS, CONTINUOUS])


def l0_penalty(lam: float = 1.0) -> PiecewiseFn:
    """lam * 1{x != 0}: the origin is an isolated single-point piece."""
    if lam <= 0:
        raise PiecewiseBuildError("l0 requires lam > 0")
    specs = [
        PieceSpec(-math.inf, 0.0, Constant(lam)),
        PieceSpec(0.0, 0.0, Constant(0.0)),
        PieceSpec(0.0, math.inf, Constant(lam)),
    ]
    return build_piecewise(specs, [ISOLATED, ISOLATED])


def l1_penalty(lam: float) -> PiecewiseFn:
    """lam * |x| as a single convex piece (no breakpoints)."""
    if lam < 0:
        raise PiecewiseBuildError("l1 requires lam >= 0")
    specs = [PieceSpec(-math.inf, math.inf, ScaledAbs(lam))]
    return build_piecewise(specs, [])


def zero_penalty() -> PiecewiseFn:
    """The zero penalty (smooth-only problems)."""
    specs = [PieceSpec(-math.inf, math.inf, Constant(0.0))]
    return build_piecewise(specs, [])


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
    try:
        inspect.signature(ctor).bind(**params)
    except TypeError as exc:
        raise PiecewiseBuildError(f"{kind} penalty: {exc}") from None
    for name, value in params.items():
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise PiecewiseBuildError(f"{kind} penalty: {name} must be a number, got {value!r}")
    return ctor(**params)

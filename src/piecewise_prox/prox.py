"""Proximal maps for surrogate penalties, plus a brute-force grid oracle.

``_surrogate_prox`` is the one prox rule for a surrogate.  Its closure
candidate is the point itself on a single-point piece, the shape's closed-form
``prox`` clipped to the closure, or, for a custom shape, a grid-section search
on the closure.  A convex surrogate (no constant wing) takes a wing's own
minimizer where it lies strictly beyond that wing's edge; a nonconvex one keeps
the best of the closure candidate and each wing minimizer that lies on its
wing.  ``prox_surrogate`` applies it at one point, ``_prox_entries`` to each
entry of a surrogate table on its coordinates, one array call per entry, as
``Problem.prox_step`` does.  ``prox_true`` is the exact prox of the full
penalty: each piece's closure candidate, valued by its shape, competes where
it lies on the set the piece owns, and the winner's value and piece come
with its row (``_prox_true_valued``).  Ties go to the library rule
(``_pick_rows``), which finds each column's first least row from one
weighted sum over the rows of a table of up to 53 rows (pieces).
Every grid-section search runs on all of its brackets at once
(``_section_min``): each round samples a fixed 17-point grid across every
bracket and keeps the two cells around the least sample, until the bracket is
at most 1e-12 wide; a closure search takes at most 1024 brackets per call.  A
closure search starts from a narrow bracket around a Newton estimate where
psi certifies it holds the minimizer, else from the whole sound reach
(``_narrow_start``).  The narrow bracket is 2^-28 wide, or wider where psi's
rounding is larger than such a bracket can tell apart.  Either way the search
fixes the minimizer up to psi's rounding.
``prox_oracle`` is an independent ground-truth used by tests: a dense grid
argmin refined by one grid-section pass per local basin, with its own scalar
search (``_section_scalar``).  The two routes are kept separate so each can
check the other.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .piecewise import CustomShape, PiecewiseFn, SurrogateFn

__all__ = [
    "ProxError",
    "prox_surrogate",
    "prox_oracle",
    "prox_true",
    "minimizer_halfwidth",
]

# the grid-section sample positions across a bracket, and the most brackets per call
_GRID, _BLOCK = np.linspace(0.0, 1.0, 17)[:, None], 1 << 10
# the least half width of a closure search's narrow start (4 grid rounds to
# 1e-12), and the machine epsilon that psi's rounding is counted in
_NARROW, _EPS = 2.0 ** -29, 2.0 ** -52
# _first_rows's weight of each row of a table
_ROW_WEIGHTS = 2.0 ** np.arange(52, -1, -1)
_CHUNK = 1 << 14
_MAX_GRID = 10**8  # the most points of a prox_oracle grid


class ProxError(RuntimeError):
    """Numeric prox failed: no bracket for a minimizer, or a NaN objective."""


def _check_step(s: float) -> float:
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"step size must be finite and positive, got {s!r}")
    return s


def _objective(f: Callable, s: float, u):
    """v -> (1/2s)(v - u)^2 + f(v), elementwise."""
    return lambda v: (v - u) ** 2 / (2.0 * s) + f(v)


def minimizer_halfwidth(slope_bound: float, jump_bound: float, jump_points,
                        s: float, x: float) -> float:
    """Sound bracket radius for argmin of (1/2s)(v-x)^2 + f(v).

    Any global minimizer v* satisfies (v*-x)^2 <= 2s (f(x) - f(v*)); splitting
    f into a slope_bound-Lipschitz part plus jumps of total size jump_bound
    gives |v* - x| <= 2 s slope_bound + sqrt(2 s jump_bound).  When no jump
    point lies within that reach the jump term drops.
    """
    if not math.isfinite(slope_bound):
        raise ProxError("cannot bracket a minimizer: unbounded slope")
    base = 2.0 * s * slope_bound + 1e-3  # never a zero-width bracket
    if jump_bound <= 0.0:
        return base
    reach = base + math.sqrt(2.0 * s * jump_bound)
    if any(abs(p - x) <= reach for p in jump_points):
        return reach
    return base


def _section_min(psi: Callable, lo, hi, tol: float = 1e-12, iters: int = 200):
    """Grid-section search on every bracket [lo_i, hi_i] at once.

    Each round evaluates ``psi`` once on a fixed 17-point grid across every
    bracket, ends included; a live bracket keeps the two cells around its
    first least sample, and stops once at most ``tol`` wide or unchanged.
    ``psi`` broadcasts over the brackets on the last axis, so each bracket
    takes the samples a search of its own would.  Returns the (argmin, value)
    arrays among each bracket's samples, (lo, inf) where none is below inf.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    k, last = a.size, _GRID.size - 1
    cols = np.arange(k)
    top = cols + last * k  # sample j of bracket c is flat index j * k + c
    live = np.ones(a.shape, dtype=bool)
    best_v, best_f = a.copy(), np.full(a.shape, np.inf)
    for _ in range(iters):
        width = b - a
        v = width * _GRID
        v += a
        v[last] = b
        fv = psi(v)
        at = fv.argmin(axis=0) * k + cols
        f_at = fv.take(at)
        better = f_at < best_f
        better &= live
        np.copyto(best_v, v.take(at), where=better)
        np.copyto(best_f, f_at, where=better)
        np.copyto(a, v.take(np.maximum(at - k, cols)), where=live)
        np.copyto(b, v.take(np.minimum(at + k, top)), where=live)
        narrowed = b - a
        live &= (narrowed > tol) & (narrowed < width)
        if not live.any():
            break
    return best_v, best_f


def _first_rows(ok: np.ndarray):
    """Per column of a boolean table with a True in every column, the first
    True row, and whether another row is True (None: not told).  A table of
    at most 53 rows weighs row r by 2^(52 - r): a column's sum over its True
    rows is exact, the first in its exponent and any other in its mantissa.
    That one product costs less than ``argmax(axis=0)``, which makes an inner
    call per column, and lets the tie keys skip columns with one True row;
    a taller table takes ``argmax``."""
    if len(ok) > _ROW_WEIGHTS.size:
        return ok.argmax(axis=0), None
    mantissa, exponent = np.frexp(_ROW_WEIGHTS[:len(ok)] @ ok)
    return np.subtract(_ROW_WEIGHTS.size, exponent, dtype=np.intp), mantissa != 0.5


def _pick_rows(cands: np.ndarray, psi: np.ndarray, least=None) -> np.ndarray:
    """Per column, the candidate row of least psi under the library tie rule.

    Among the rows that reach the column's least psi (``least``, when the
    caller has it) it keeps the smaller |v|, then the smaller v, then the
    earlier row, which is what folding ``min(a, b, key=lambda v: (abs(v), v))``
    over those rows in order returns (0.0 and -0.0 tie, so the earlier wins).
    The keys run only on columns where those rows hold unequal values.  psi
    must not contain NaN.
    """
    ok = psi == (psi.min(axis=0) if least is None else least)
    rows, several = _first_rows(ok)
    if several is None or several.any():
        tied = np.flatnonzero((ok & (cands != cands.take(_flat(rows)))).any(axis=0))
        if tied.size:
            c, ok = cands.take(tied, axis=1), ok.take(tied, axis=1)  # row-major, as min needs
            mag = np.where(ok, np.abs(c), np.inf)
            ok &= mag == mag.min(axis=0)
            val = np.where(ok, c, np.inf)
            ok &= val == val.min(axis=0)
            rows[tied] = _first_rows(ok)[0]
    return rows


def _flat(rows: np.ndarray) -> np.ndarray:
    """Flat indices into a row-major table of the given row of each column."""
    return rows * rows.size + np.arange(rows.size)


def _check_nan(bad: np.ndarray, coords) -> None:
    """Raise ProxError naming the coordinate of the first column marked ``bad``."""
    if bad.any():
        raise ProxError(f"coordinate {int(coords[bad.argmax()])}: "
                        "NaN objective among the prox candidates")


def _least_rows(cands: np.ndarray, psi: np.ndarray, coords) -> np.ndarray:
    """``_pick_rows`` from each column's least psi, which is NaN just where
    the column holds a NaN: that raises ProxError naming its coordinate."""
    least = psi.min(axis=0)
    _check_nan(np.isnan(least), coords)
    return _pick_rows(cands, psi, least)


def _pick(candidates):
    """Argmin of (v, psi(v)) pairs with the library tie rule."""
    v, f = np.array(candidates, dtype=float).T
    return float(v[_pick_rows(v[:, None], f[:, None])[0]])


def prox_surrogate(f_m: SurrogateFn, s: float, x: float) -> float:
    """Global minimizer of (1/2s)(v - x)^2 + f_m(v), deterministic under ties."""
    _check_step(s)
    return float(_surrogate_prox(f_m, s, np.array([float(x)]), np.arange(1))[0])


def _surrogate_prox(sur: SurrogateFn, s: float, u: np.ndarray, coords) -> np.ndarray:
    """Prox at each u of a surrogate, from its closure candidate and each
    wing's own minimizer u - s * slope where that lies strictly beyond the
    wing's edge.  A convex surrogate takes such a wing minimizer outright.  A
    nonconvex one keeps the best of them and the closure candidate by the
    library tie rule, where a wing minimizer off its wing stands in as the
    closure candidate; the rule runs only where some wing minimizer on its
    wing is not worse than the closure candidate, or a psi is NaN, since
    elsewhere it keeps the closure candidate.  ``coords`` names u's
    coordinates in errors."""
    p = sur.piece
    v = _closure_candidate(sur, s, u, coords)
    wings = []  # (minimizer, where it lies beyond the edge, the wing's value there)
    if math.isfinite(p.left):
        w = u - s * sur.left_slope
        wings.append((w, w < p.left, lambda x: sur.left_value + sur.left_slope * (x - p.left)))
    if math.isfinite(p.right):
        w = u - s * sur.right_slope
        wings.append((w, w > p.right, lambda x: sur.right_value + sur.right_slope * (x - p.right)))
    if sur.is_convex:
        for w, beyond, _ in wings:
            np.copyto(v, w, where=beyond)
        return v
    psi_v = _objective(p.shape, s, u)(v)
    live, contenders = np.isnan(psi_v), []
    for w, beyond, f in wings:
        psi = _objective(f, s, u)(w)
        live |= beyond & ~(psi > psi_v)
        contenders.append((w, psi, beyond))
    live = np.flatnonzero(live)
    if live.size:
        v_, psi_v_ = v[live], psi_v[live]
        cands, psis = [v_], [psi_v_]
        for w, psi, beyond in contenders:
            on = beyond[live]
            cands.append(np.where(on, w[live], v_))
            psis.append(np.where(on, psi[live], psi_v_))
        cands = np.stack(cands)
        v[live] = cands.take(_flat(_least_rows(cands, np.stack(psis), coords[live])))
    return v


def _closure_candidate(sur: SurrogateFn, s: float, u: np.ndarray, coords) -> np.ndarray:
    """Minimizer at each u of (1/2s)(v - u)^2 + sur(v) over its piece's
    closure: the point itself on a single-point piece (a clip, which keeps
    u = -0.0 at q = 0), the shape's closed-form prox clipped to the closure,
    or a custom shape's grid-section search."""
    p = sur.piece
    if p.is_point:  # the clip method skips np.clip's wrapper and its 1.5 us
        return u.clip(p.left, p.right)
    if isinstance(p.shape, CustomShape):
        return _closure_prox(sur, s, u, p.left, p.right, coords)
    return p.shape.prox(u, s).clip(p.left, p.right)


def _closure_prox(sur: SurrogateFn, s: float, u: np.ndarray, lo: float, hi: float,
                  coords) -> np.ndarray:
    """Minimizer at each u of (1/2s)(v - u)^2 + sur(v) over the closure
    [lo, hi], where sur is its convex piece's shape: a grid-section search on
    the closure cut to the reach u +- hw, or on the narrow bracket that
    ``_narrow_start`` certifies inside it, or the nearer edge where the reach
    misses the closure.  The narrow bracket's certificate takes psi to round
    within 4 ulps of |f| + (v - u)^2 / 2s; a shape that rounds worse (say,
    by cancellation) is covered while its error stays below h^2 / 4s, about
    1e-18 / s at the narrowest h.  The search fixes the minimizer up to
    psi's rounding: where psi differs from its least value by a few ulps,
    the least sample among such points wins.  A NaN u raises ProxError
    naming its coordinate."""
    _check_nan(np.isnan(u), coords)
    if u.size > _BLOCK:  # blocks of coordinates bound the search's 17 x k temporaries
        return np.concatenate([_closure_prox(sur, s, u[i:i + _BLOCK], lo, hi,
                                             coords[i:i + _BLOCK])
                               for i in range(0, u.size, _BLOCK)])
    hw = minimizer_halfwidth(sur.piece.slope_bound(), 0.0, (), s, 0.0)
    a, b = np.maximum(lo, u - hw), np.minimum(hi, u + hw)
    edge, miss = np.where(u < lo, lo, hi), a > b
    psi = _objective(sur.piece.shape, s, u)
    v, _ = _section_min(psi, *_narrow_start(psi, s, hw, np.where(miss, edge, a),
                                            np.where(miss, edge, b)))
    return np.where(miss, edge, v)


def _narrow_start(psi: Callable, s: float, hw: float, a: np.ndarray, b: np.ndarray):
    """Per sound bracket [a, b], within hw of its u, [c - h, c + h] cut to
    it, c the Newton estimate from a 3-point stencil of psi at its middle.
    psi is (1/s)-strongly convex on [a, b], so were the minimizer beyond
    c - h, psi(c) would exceed psi(c - h) by at least h^2 / 2s.  h, one for
    all brackets, is the least power of two, and at least ``_NARROW``, that
    puts h^2 / 2s above twice psi's rounding, taken as 4 ulps of
    |f| + (v - u)^2 / 2s, which |psi| + hw^2 / s bounds; the stencil's
    middles on brackets of nonzero width size it.  So where psi at the three
    points keeps to that size and psi(c) is no worse than at each end that
    is strictly apart from c and not an end of [a, b], the minimizer lies
    inside; elsewhere (a kink, an edge, a NaN, an infinite psi) [a, b]
    stays.  psi sees only points of [a, b]."""
    width = b - a
    f_lo, f_mid, f_hi = psi(a + width * _GRID[7:10])
    # h^2 must exceed 16 eps (s |psi| + hw^2); a NaN is left to the check
    size = float(np.fmax.reduce(np.abs(f_mid), where=width > 0.0, initial=0.0))
    need = 16.0 * _EPS * (s * size + hw * hw)  # hw >= 1e-3, so need > 0
    if not need < math.inf:
        return a, b
    h = max(_NARROW, 2.0 ** math.ceil(0.5 * math.log2(need)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = width / 32.0 * (f_hi - f_lo) / (f_hi - 2.0 * f_mid + f_lo)
        # c on the lattice of h / 8, the first round's grid step, so that the
        # rounds sample dyadic points, 0 among them where the bracket holds it
        c = np.rint((0.5 * (a + b) - step) * (8.0 / h)) * (h / 8.0)
    c = np.fmin(np.fmax(c, a), b)  # fmax takes a for a NaN
    a1, b1 = np.maximum(a, c - h), np.minimum(b, c + h)
    fv = psi(np.stack([a1, c, b1]))
    f_a, f_c, f_b = fv
    keep = ((np.abs(fv).max(axis=0) <= (h * h / (16.0 * _EPS) - hw * hw) / s)
            & ((a1 == a) | ((a1 < c) & (f_c <= f_a)))
            & ((b1 == b) | ((c < b1) & (f_c <= f_b))))
    return np.where(keep, a1, a), np.where(keep, b1, b)


def prox_oracle(f: Callable, s: float, x: float, halfwidth: float,
                resolution: float) -> float:
    """Brute-force prox ground truth.

    Grid argmin of (1/2s)(v - x)^2 + f(v) over [x - halfwidth, x + halfwidth]
    at the given spacing, then one ``_section_scalar`` pass per grid-local basin.
    The caller must pick ``halfwidth`` large enough to bracket the true
    minimizer (see :func:`minimizer_halfwidth`).
    """
    if not all(math.isfinite(t) and t > 0 for t in (halfwidth, resolution)):
        raise ValueError("halfwidth and resolution must be finite and positive, "
                         f"got {halfwidth!r} and {resolution!r}")
    span = 2.0 * halfwidth / resolution
    if span + 1.0 > _MAX_GRID:
        raise ValueError(f"halfwidth and resolution must give at most {_MAX_GRID:.0e} grid "
                         f"points, got {halfwidth!r} and {resolution!r} ({span + 1.0:.3g} points)")
    _check_step(s)
    lo, hi = x - halfwidth, x + halfwidth
    n = int(math.ceil(span)) + 1
    step = 2.0 * halfwidth / (n - 1) if n > 1 else 0.0
    half_inv_s = 0.5 / s
    brackets = []
    best = (math.nan, math.inf)
    start = 0
    while start < n:
        stop = min(n, start + _CHUNK)
        i0 = max(0, start - 1)
        i1 = min(n, stop + 1)
        v = lo + step * np.arange(i0, i1) if n > 1 else np.array([x])
        vals = v - x
        vals *= vals
        vals *= half_inv_s
        vals += np.asarray(f(v), dtype=float)
        if not (math.isfinite(float(np.min(vals))) and math.isfinite(float(np.max(vals)))):
            raise ProxError("non-finite function values on the oracle grid")
        # local minima strictly inside this window
        is_min = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
        for i in np.flatnonzero(is_min) + 1:
            brackets.append((float(v[i - 1]), float(v[i + 1])))
        k = int(np.argmin(vals))
        if vals[k] < best[1]:
            best = (float(v[k]), float(vals[k]))
        start = stop

    def psi(v):  # squared by a product, which rounds alike on floats and arrays
        return (v - x) * (v - x) / (2.0 * s) + np.asarray(f(v), dtype=float)

    ends = np.array([lo, hi])
    candidates = [*zip(ends, psi(ends)), best]
    candidates += [_section_scalar(psi, a, b, tol=1e-10) for a, b in brackets]
    return _pick(candidates)


def _section_scalar(psi: Callable, lo: float, hi: float, tol: float, iters: int = 200):
    """The oracle's grid-section search on one bracket, written apart from
    ``_section_min`` with the same grid, ``tol`` and cap, so that each
    checks the other.  Returns (argmin, value) among its samples.
    """
    a, b, best_v, best_f = lo, hi, lo, math.inf
    for _ in range(iters):
        v = a + (b - a) * _GRID[:, 0]
        v[-1] = b
        fv = psi(v)
        k = int(np.argmin(fv))
        if fv[k] < best_f:
            best_v, best_f = v[k], fv[k]
        width = b - a
        a, b = v[max(k - 1, 0)], v[min(k + 1, v.size - 1)]
        if not tol < b - a < width:
            break
    return best_v, best_f


def _prox_entries(entries, s: float, u: np.ndarray) -> np.ndarray:
    """The prox of each entry's surrogate on its coordinates of u."""
    _check_step(s)
    out = np.empty_like(u)
    for sur, sel in entries:
        out[sel] = _surrogate_prox(sur, s, u[sel], sel)
    return out


def prox_true(fn: PiecewiseFn, s: float, u: np.ndarray) -> np.ndarray:
    """Exact prox of the full penalty, coordinatewise.

    Per piece, its closure candidate (see ``_surrogate_prox``) competes where
    it lies on the set that piece owns, valued by the piece's shape; the
    least objective wins, ties broken by the library rule.  This is exact:
    a global minimizer v* lies on the set its owner m owns, where m's shape
    is f, and by the build's lower-semicontinuity check m's shape is no
    lower than f at an edge m does not own, so v* minimizes m's strongly
    convex objective on its closure and is m's closure candidate.  The
    winner's value and piece come with its row (``_prox_true_valued``).
    """
    return _prox_true_valued(fn, s, u)[0]


def _prox_true_valued(fn: PiecewiseFn, s: float, u: np.ndarray):
    """``prox_true``'s point, with f there and the 1-based piece that owns
    it: a piece's closure candidate off its owned set [own_lo, own_hi] (an
    edge it does not own) takes psi = +inf, so the winning row is the owner."""
    _check_step(s)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.isfinite(u).all():
        fn.piece_index(u)  # raises the membership rule's ValueError
    coords = np.arange(u.size)
    cands = np.stack([_closure_candidate(sur, s, u, coords) for sur in fn.surrogates])
    values = np.stack([p.shape(v) for p, v in zip(fn.pieces, cands)])
    psi = cands - u  # (cands - u) ** 2 / (2s) + values, in one buffer
    np.square(psi, out=psi)
    psi /= 2.0 * s
    psi += values
    own_lo, own_hi = fn._bounds[2:4, :, None]
    np.copyto(psi, np.inf, where=(cands < own_lo) | (cands > own_hi))
    rows = _least_rows(cands, psi, coords)
    flat = _flat(rows)
    return cands.take(flat), values.take(flat), rows + 1

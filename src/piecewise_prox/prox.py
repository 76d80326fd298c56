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
penalty: each piece's closure candidate and every breakpoint, each valued once
by the piece that produced it, so the winner's value and piece come with it
(``_prox_true_valued``).  Ties go to the library rule (``_pick_rows``).  Every
grid-section search runs on all of its brackets at once (``_section_min``):
each round samples a fixed 17-point grid across every bracket and keeps the
two cells around the least sample, until the bracket is at most 1e-12 wide; a
closure search takes at most 1024 brackets per call.
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
    cols, last = np.arange(a.size), _GRID.size - 1
    live = np.ones(a.shape, dtype=bool)
    best_v, best_f = a.copy(), np.full(a.shape, np.inf)
    for _ in range(iters):
        v = a + (b - a) * _GRID
        v[last] = b
        fv = psi(v)
        i = fv.argmin(axis=0)
        better = live & (fv[i, cols] < best_f)
        np.copyto(best_v, v[i, cols], where=better)
        np.copyto(best_f, fv[i, cols], where=better)
        width = b - a
        np.copyto(a, v[np.maximum(i - 1, 0), cols], where=live)
        np.copyto(b, v[np.minimum(i + 1, last), cols], where=live)
        live &= (b - a > tol) & (b - a < width)
        if not live.any():
            break
    return best_v, best_f


def _pick_rows(cands: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Per column, the candidate row of least psi under the library tie rule.

    Among the rows that reach the column's least psi it keeps the smaller |v|,
    then the smaller v, then the earlier row, which is what folding
    ``min(a, b, key=lambda v: (abs(v), v))`` over those rows in order returns
    (0.0 and -0.0 tie, so the earlier wins).  The keys run only on columns
    where those rows hold unequal values.  psi must not contain NaN.
    """
    ok = psi == psi.min(axis=0)
    rows = ok.argmax(axis=0)
    tied = np.flatnonzero((ok & (cands != cands[rows, np.arange(rows.size)])).any(axis=0))
    if tied.size:
        c, ok = cands[:, tied], ok[:, tied]
        mag = np.where(ok, np.abs(c), np.inf)
        ok &= mag == mag.min(axis=0)
        val = np.where(ok, c, np.inf)
        ok &= val == val.min(axis=0)
        rows[tied] = ok.argmax(axis=0)
    return rows


def _pick_columns(cands: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Per column, the candidate ``_pick_rows`` picks."""
    return cands[_pick_rows(cands, psi), np.arange(cands.shape[1])]


def _check_nan(bad: np.ndarray, coords) -> None:
    """Raise ProxError naming the coordinate of the first column marked ``bad``."""
    if bad.any():
        raise ProxError(f"coordinate {int(coords[bad.argmax()])}: "
                        "NaN objective among the prox candidates")


def _pick_checked(cands: np.ndarray, psi: np.ndarray, coords) -> np.ndarray:
    """``_pick_columns``, but a NaN psi raises ProxError naming its column's coords."""
    _check_nan(np.isnan(psi).any(axis=0), coords)
    return _pick_columns(cands, psi)


def _pick(candidates):
    """Argmin of (v, psi(v)) pairs with the library tie rule."""
    v, f = np.array(candidates, dtype=float).T
    return float(_pick_columns(v[:, None], f[:, None])[0])


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
        v[live] = _pick_checked(np.stack(cands), np.stack(psis), coords[live])
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
    the closure cut to the reach u +- hw, against the finite edges, or the
    nearer edge where the reach misses the closure.  A NaN u raises
    ProxError naming its coordinate."""
    _check_nan(np.isnan(u), coords)
    if u.size > _BLOCK:  # blocks of coordinates bound the search's 17 x k temporaries
        return np.concatenate([_closure_prox(sur, s, u[i:i + _BLOCK], lo, hi,
                                             coords[i:i + _BLOCK])
                               for i in range(0, u.size, _BLOCK)])
    hw = minimizer_halfwidth(sur.piece.slope_bound(), 0.0, (), s, 0.0)
    a, b = np.maximum(lo, u - hw), np.minimum(hi, u + hw)
    edge, miss = np.where(u < lo, lo, hi), a > b
    psi = _objective(sur.piece.shape, s, u)
    v, fv = _section_min(psi, np.where(miss, edge, a), np.where(miss, edge, b))
    ends = [np.full_like(u, end) for end in (lo, hi) if math.isfinite(end)]
    best = _pick_columns(np.stack([v, *ends]), np.stack([fv, *map(psi, ends)]))
    return np.where(miss, edge, best)


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

    Enumerates, per piece, its closure candidate (see ``_surrogate_prox``),
    plus every finite breakpoint, and keeps the candidate minimizing the true
    objective (ties broken by the library rule).  Restricted to a closure each
    shape is continuous and convex, so the clipped closed form is exact there.  A
    candidate takes its piece's shape, or the owner's f(q) on a breakpoint
    row or an edge its piece does not own, as the membership rule values it,
    so the winner's value and piece come free (``_prox_true_valued``).
    """
    return _prox_true_valued(fn, s, u)[0]


def _prox_true_valued(fn: PiecewiseFn, s: float, u: np.ndarray):
    """``prox_true``'s point, with f there and the 1-based piece that owns it
    as its row has them: the row's piece, or the owner of its breakpoint."""
    _check_step(s)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.isfinite(u).all():
        fn.piece_index(u)  # raises the membership rule's ValueError
    q, fq, at, unowned = fn._owner_values
    n = fn.n_pieces
    cands = np.empty((n + q.size, u.size))
    values, pieces = np.empty_like(cands), np.empty(cands.shape, dtype=np.int64)
    cands[n:], values[n:], pieces[n:] = q[:, None], fq[:, None], at[:, None]
    coords = np.arange(u.size)
    for m, (p, (edges, edge_values, owners)) in enumerate(zip(fn.pieces, unowned), 1):
        v = _closure_candidate(fn.surrogate(m), s, u, coords)
        cands[m - 1], values[m - 1], pieces[m - 1] = v, p.shape(v), m
        for e, fe, owner in zip(edges, edge_values, owners):
            np.copyto(values[m - 1], fe, where=v == e)
            np.copyto(pieces[m - 1], owner, where=v == e)
    psi = (cands - u) ** 2 / (2.0 * s) + values
    _check_nan(np.isnan(psi).any(axis=0), coords)
    rows = _pick_rows(cands, psi)
    return cands[rows, coords], values[rows, coords], pieces[rows, coords]

"""Proximal maps for surrogate penalties, plus a brute-force grid oracle.

``prox_surrogate`` dispatches to the surrogate's registered closed-form kernel
and otherwise takes the best of a golden-section search on the piece closure
and the closed-form minimizers of its affine or constant wings.
``prox_vector`` does so for one penalty's coordinates, one array call per
piece present.  ``prox_true`` is the exact prox of the full penalty.  All of
them break ties with the library rule (``_pick_columns``), and every
golden-section search runs on all of its brackets at once (``_golden_min``).
``prox_oracle`` is an independent ground-truth used by tests: a dense grid
argmin refined by one golden-section pass per local basin.  The two routes are
kept separate so each can check the other.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .piecewise import CASE_NONE, PiecewiseFn, SurrogateFn

__all__ = [
    "ProxError",
    "prox_surrogate",
    "prox_oracle",
    "prox_vector",
    "prox_true",
    "minimizer_halfwidth",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CHUNK = 1 << 14


class ProxError(RuntimeError):
    """Numeric prox failed: no bracket for a minimizer, or a NaN objective."""


def _objective(f: Callable, s: float, u):
    """v -> (1/2s)(v - u)^2 + f(v), elementwise."""
    return lambda v: (v - u) ** 2 / (2.0 * s) + f(v)


def minimizer_halfwidth(slope_bound: float, jump_bound: float, jump_points,
                        s: float, x: float, margin: float = 1e-3,
                        convex: bool = False) -> float:
    """Sound bracket radius for argmin of (1/2s)(v-x)^2 + f(v).

    Any global minimizer v* satisfies (v*-x)^2 <= 2s (f(x) - f(v*)); splitting
    f into a slope_bound-Lipschitz part plus jumps of total size jump_bound
    gives |v* - x| <= 2 s slope_bound + sqrt(2 s jump_bound).  When no jump
    point lies within that reach the jump term drops.  For convex f the prox
    is firmly nonexpansive and the tight bound s * slope_bound applies.
    """
    if not math.isfinite(slope_bound):
        raise ProxError("cannot bracket a minimizer: unbounded slope")
    scale = 1.0 if convex else 2.0
    base = scale * s * slope_bound + margin
    if jump_bound <= 0.0:
        return base
    reach = base + math.sqrt(2.0 * s * jump_bound)
    if any(abs(p - x) <= reach for p in jump_points):
        return reach
    return base


def _golden_min(psi: Callable, lo, hi, tol: float = 1e-12, iters: int = 200):
    """Golden-section search on every bracket [lo_i, hi_i] in lockstep.

    ``psi`` maps an array of points, one per bracket, to their objectives.  A
    bracket stops once it is at most ``tol`` wide, so each one takes the
    samples that a search of its own would.  Returns the (argmin, value)
    arrays among each bracket's samples and its two ends.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    a, b = lo.copy(), hi.copy()
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = psi(c), psi(d)
    best_v, best_f = np.where(fc <= fd, c, d), np.where(fc <= fd, fc, fd)
    for _ in range(iters):
        live = np.abs(b - a) > tol
        if not live.any():
            break
        # on the left, keep [a, d]: c becomes d and a new c is sampled; on
        # the right, keep [c, b]: d becomes c and a new d is sampled
        left = live & (fc <= fd)
        right = live ^ left
        np.copyto(a, c, where=right)
        np.copyto(b, d, where=left)
        step = _GOLDEN * (b - a)
        v = np.where(left, b - step, a + step)
        fv = psi(v)
        for x, y, fx, fy, side in ((d, c, fd, fc, left), (c, d, fc, fd, right)):
            np.copyto(x, y, where=side)
            np.copyto(fx, fy, where=side)
            np.copyto(y, v, where=side)
            np.copyto(fy, fv, where=side)
        better = live & (fv < best_f)
        np.copyto(best_v, v, where=better)
        np.copyto(best_f, fv, where=better)
    for end in (lo, hi):
        fe = psi(end)
        better = fe < best_f
        np.copyto(best_v, end, where=better)
        np.copyto(best_f, fe, where=better)
    return best_v, best_f


def _pick_columns(cands: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Per column, the candidate row of least psi under the library tie rule.

    Among the rows that reach the column's least psi it keeps the smaller |v|,
    then the smaller v, then the earlier row, which is what folding
    ``kernels.tie_break`` over those rows in order returns (0.0 and -0.0 tie,
    so the earlier wins).  psi must not contain NaN.
    """
    ok = psi == psi.min(axis=0)
    mag = np.where(ok, np.abs(cands), np.inf)
    ok &= mag == mag.min(axis=0)
    val = np.where(ok, cands, np.inf)
    ok &= val == val.min(axis=0)
    return cands[ok.argmax(axis=0), np.arange(cands.shape[1])]


def _pick_checked(cands: np.ndarray, psi: np.ndarray, coords) -> np.ndarray:
    """``_pick_columns``, but a NaN psi raises ProxError naming its column's coords."""
    if np.isnan(psi).any():
        col = np.isnan(psi).any(axis=0).argmax()
        raise ProxError(f"coordinate {int(coords[col])}: NaN objective among the prox candidates")
    return _pick_columns(cands, psi)


def _pick(candidates):
    """Argmin of (v, psi(v)) pairs with the library tie rule."""
    v, f = np.array(candidates, dtype=float).T
    return float(_pick_columns(v[:, None], f[:, None])[0])


def prox_surrogate(f_m: SurrogateFn, s: float, x: float) -> float:
    """Global minimizer of (1/2s)(v - x)^2 + f_m(v), deterministic under ties."""
    if s <= 0:
        raise ValueError("step size s must be positive")
    if f_m.kernel is not None:
        return f_m.kernel.prox(float(x), s)
    return float(_surrogate_prox(f_m, s, np.array([float(x)]), (0,))[0])


def _surrogate_prox(sur: SurrogateFn, s: float, u: np.ndarray, coords) -> np.ndarray:
    """Prox at each u of a kernel-less surrogate: the best of the closure
    minimizer and each affine or constant wing's minimizer clipped to the
    wing.  At a clipped edge the surrogate takes the piece's own value, which
    lower semicontinuity keeps at or below the wing's limit, so the clip is
    exact.  ``coords`` names u's coordinates in errors."""
    p = sur.piece
    rows = [_closure_prox(sur, s, u, p.left, p.right)]
    if sur.left_case != CASE_NONE:
        rows.append(np.minimum(u - s * sur.left_slope, p.left))
    if sur.right_case != CASE_NONE:
        rows.append(np.maximum(u - s * sur.right_slope, p.right))
    cands = np.stack(rows)
    psi = _objective(lambda v: sur(v.ravel()).reshape(v.shape), s, u)(cands)
    return _pick_checked(cands, psi, coords)


def _closure_prox(sur: SurrogateFn, s: float, u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Minimizer at each u of (1/2s)(v - u)^2 + sur(v) over the closure
    [lo, hi], where sur is its convex piece: a golden-section search on the
    closure cut to the reach u +- hw, against the finite edges, or the nearer
    edge where the reach misses the closure."""
    hw = minimizer_halfwidth(sur.slope_bound(), 0.0, (), s, 0.0)
    a, b = np.maximum(lo, u - hw), np.minimum(hi, u + hw)
    edge, miss = np.where(u < lo, lo, hi), a > b
    psi = _objective(sur, s, u)
    v, fv = _golden_min(psi, np.where(miss, edge, a), np.where(miss, edge, b))
    ends = [np.full_like(u, end) for end in (lo, hi) if math.isfinite(end)]
    best = _pick_columns(np.stack([v, *ends]), np.stack([fv, *map(psi, ends)]))
    return np.where(miss, edge, best)


def prox_oracle(f: Callable, s: float, x: float, halfwidth: float,
                resolution: float) -> float:
    """Brute-force prox ground truth.

    Grid argmin of (1/2s)(v - x)^2 + f(v) over [x - halfwidth, x + halfwidth]
    at the given spacing, then one golden-section pass per grid-local basin.
    The caller must pick ``halfwidth`` large enough to bracket the true
    minimizer (see :func:`minimizer_halfwidth`).
    """
    if resolution <= 0 or halfwidth <= 0:
        raise ValueError("halfwidth and resolution must be positive")
    if s <= 0:
        raise ValueError("step size s must be positive")
    lo, hi = x - halfwidth, x + halfwidth
    n = int(math.ceil(2.0 * halfwidth / resolution)) + 1
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
    psi = _objective(lambda v: np.asarray(f(v), dtype=float), s, x)
    ends = np.array([lo, hi])
    candidates = [*zip(ends, psi(ends)), best]
    if brackets:
        a, b = np.array(brackets).T
        candidates += zip(*_golden_min(psi, a, b, tol=1e-10))
    return _pick(candidates)


def prox_vector(fn: PiecewiseFn, assignment, s: float, u: np.ndarray) -> np.ndarray:
    """Coordinatewise prox of the surrogates of one penalty.

    Coordinate i of u takes the prox of ``fn.surrogate(assignment[i])``, with
    1-based piece indices.  Each piece present gets one array call on its
    coordinates: its closed-form kernel, or the kernel-less surrogate prox.
    Only a NaN objective raises ProxError, naming the first such coordinate.
    """
    u = np.asarray(u, dtype=float)
    assignment = np.asarray(assignment)
    if assignment.shape != u.shape:
        raise ValueError(f"expected {u.size} surrogates, one per coordinate, "
                         f"got {assignment.size}")
    out = np.empty_like(u)
    for m in range(1, fn.n_pieces + 1):
        sel = np.flatnonzero(assignment == m)
        if not sel.size:
            continue
        sur = fn.surrogate(m)
        if sur.kernel is not None:
            out[sel] = sur.kernel.prox(u[sel], s)
        else:
            out[sel] = _surrogate_prox(sur, s, u[sel], sel)
    return out


def prox_true(fn: PiecewiseFn, s: float, u: np.ndarray) -> np.ndarray:
    """Exact prox of the full penalty, coordinatewise.

    Enumerates, per piece, the surrogate prox clamped to the piece closure,
    plus every finite breakpoint, and keeps the candidate minimizing the true
    objective (ties broken by the library rule).  Restricted to a closure each
    surrogate is continuous and convex, so the clamp is exact there.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    cand_vals = []
    for m in range(1, fn.n_pieces + 1):
        sur = fn.surrogate(m)
        lo, hi = fn.piece_bounds(m)
        cand_vals.append(np.clip(sur.kernel.prox(u, s), lo, hi) if sur.kernel is not None
                         else _closure_prox(sur, s, u, lo, hi))
    for q in fn.endpoint_values():
        cand_vals.append(np.full(u.shape, q))
    cands = np.stack(cand_vals, axis=0)
    psi = _objective(fn.evaluate, s, u)(cands)
    return _pick_checked(cands, psi, np.arange(u.size))

"""Proximal maps for surrogate penalties, plus a brute-force grid oracle.

``prox_surrogate`` dispatches to the surrogate's registered closed-form kernel
and otherwise falls back to golden-section minimization over the surrogate's
convex regions.  ``prox_vector`` does so for one penalty's coordinates, one
kernel call per piece present.  ``prox_true`` is the exact prox of the full
penalty.  All of them break ties with the library rule (``_pick_columns``).
``prox_oracle`` is an independent ground-truth used by tests: a dense grid
argmin refined by one golden-section pass per local basin.  The two routes are
kept separate so each can check the other.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .piecewise import PiecewiseFn, SurrogateFn

__all__ = [
    "ProxError",
    "prox_surrogate",
    "prox_oracle",
    "prox_vector",
    "prox_true",
    "minimizer_halfwidth",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CHUNK = 1 << 20


class ProxError(RuntimeError):
    """Numeric prox fallback failed to bracket a minimizer."""


def _objective(f: Callable, s: float, x: float):
    def psi(v):
        return (v - x) ** 2 / (2.0 * s) + f(v)

    return psi


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


def _golden_min(psi: Callable, lo: float, hi: float, tol: float = 1e-12, iters: int = 200):
    """Golden-section search; returns (argmin, value) among sampled points."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = psi(c), psi(d)
    best_v, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(iters):
        if abs(b - a) <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = psi(c)
            if fc < best_f:
                best_v, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = psi(d)
            if fd < best_f:
                best_v, best_f = d, fd
    for v in (lo, hi):
        fv = psi(v)
        if fv < best_f:
            best_v, best_f = v, fv
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
    return _numeric_prox(f_m, s, float(x))


def _numeric_prox(f_m: SurrogateFn, s: float, x: float) -> float:
    hw = minimizer_halfwidth(f_m.slope_bound(), f_m.jump_bound(),
                             f_m.breakpoints(), s, x)
    lo, hi = x - hw, x + hw
    cuts = sorted({lo, hi, *(q for q in f_m.breakpoints() if lo < q < hi)})
    psi = _objective(f_m, s, x)
    candidates = []
    for a, b in zip(cuts, cuts[1:]):
        v, fv = _golden_min(psi, a, b)
        if not math.isfinite(fv):
            raise ProxError(f"non-finite surrogate objective near v={v!r}")
        candidates.append((v, fv))
    for q in cuts:
        fq = psi(q)
        if math.isfinite(fq):
            candidates.append((q, fq))
    return _pick(candidates)


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
    psi = _objective(f, s, x)
    candidates = [(lo, psi(lo)), (hi, psi(hi)), (best[0], best[1])]
    for a, b in brackets:
        vv, fv = _golden_min(psi, a, b, tol=1e-10)
        candidates.append((vv, fv))
    return _pick(candidates)


def prox_vector(fn: PiecewiseFn, assignment, s: float, u: np.ndarray) -> np.ndarray:
    """Coordinatewise prox of the surrogates of one penalty.

    Coordinate i of u takes the prox of ``fn.surrogate(assignment[i])``, with
    1-based piece indices.  Each piece present gets one closed-form kernel
    call on its coordinates; a surrogate without a kernel goes through the
    golden-section fallback coordinate by coordinate.
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
            continue
        for i in sel:
            try:
                out[i] = _numeric_prox(sur, s, float(u[i]))
            except ProxError as exc:
                raise ProxError(f"coordinate {int(i)}: {exc}") from exc
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
        if sur.kernel is not None:
            c = np.clip(sur.kernel.prox(u, s), lo, hi)
        else:
            c = np.array([
                _golden_on_interval(sur, s, float(ui), lo, hi) for ui in u
            ])
        cand_vals.append(c)
    for q in fn.endpoint_values():
        cand_vals.append(np.full(u.shape, q))
    cands = np.stack(cand_vals, axis=0)
    psi = (cands - u[None, :]) ** 2 / (2.0 * s) + fn.evaluate(cands)
    if np.isnan(psi).any():
        raise ProxError("NaN objective among the prox candidates")
    return _pick_columns(cands, psi)


def _golden_on_interval(sur: SurrogateFn, s: float, x: float, lo: float, hi: float) -> float:
    if lo == hi:
        return lo
    hw = minimizer_halfwidth(sur.slope_bound(), 0.0, (), s, x)
    a = max(lo, x - hw) if math.isfinite(lo) else x - hw
    b = min(hi, x + hw) if math.isfinite(hi) else x + hw
    if a > b:  # interval entirely outside the reach: nearest edge is optimal
        return lo if x < lo else hi
    psi = _objective(sur, s, x)
    v, fv = _golden_min(psi, a, b)
    cands = [(v, fv)]
    for edge in (lo, hi):
        if math.isfinite(edge):
            cands.append((edge, psi(edge)))
    return _pick(cands)

"""First-order solvers for F(x) = g(x) + sum_i f(x_i).

Three algorithms share the machinery here:

* ``pgd``            - plain proximal gradient descent with the exact prox of
                       the full penalty (per-piece enumeration),
* ``apg_monotone``   - accelerated proximal gradient with an objective
                       decrease guard,
* ``ppgd``           - the projected variant: the extrapolated point is pulled
                       back onto the convex pieces of the current iterate, the
                       prox uses the per-coordinate surrogates of those pieces,
                       and a negative-curvature-exploitation step decides
                       whether an iterate may cross onto new pieces.

All three run through one loop and differ only in their per-iteration step.
With a single convex piece the projection is the identity and ``ppgd`` reduces
exactly to ``apg_monotone``.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .piecewise import PiecewiseFn
from .prox import prox_true, prox_vector
from .smooth import SmoothLoss

__all__ = [
    "Problem",
    "Trace",
    "SolverError",
    "tk_next",
    "extrapolate",
    "project_piecewise",
    "nce",
    "surrogate_objective",
    "ppgd",
    "pgd",
    "apg_monotone",
    "stationarity_residual",
    "estimate_G",
    "default_step_size",
]


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Problem:
    """Smooth loss plus a separable piecewise convex penalty.

    ``penalty`` is either one PiecewiseFn shared by every coordinate or a
    sequence of length d assigning one per coordinate.
    """

    loss: SmoothLoss
    penalty: object
    _groups: tuple = field(init=False, repr=False, default=())

    def __post_init__(self):
        d = self.loss.d
        if isinstance(self.penalty, PiecewiseFn):
            groups = ((self.penalty, np.arange(d)),)
        else:
            fns = tuple(self.penalty)
            if len(fns) != d:
                raise ValueError(f"need {d} per-coordinate penalties, got {len(fns)}")
            by_id: dict[int, list[int]] = {}
            table: dict[int, PiecewiseFn] = {}
            for i, fn in enumerate(fns):
                by_id.setdefault(id(fn), []).append(i)
                table[id(fn)] = fn
            groups = tuple((table[k], np.asarray(ix, dtype=np.intp)) for k, ix in by_id.items())
        object.__setattr__(self, "_groups", groups)

    @property
    def d(self) -> int:
        return self.loss.d

    @property
    def shared_penalty(self) -> PiecewiseFn:
        if len(self._groups) != 1:
            raise ValueError("problem uses distinct per-coordinate penalties")
        return self._groups[0][0]

    def min_r0(self) -> float:
        return min(fn.R0 for fn, _ in self._groups)

    def smooth_value(self, x) -> float:
        return self.loss.value(x)

    def smooth_gradient(self, x) -> np.ndarray:
        return self.loss.gradient(x)

    def penalty_value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for fn, ix in self._groups:
            total += float(np.sum(fn.evaluate(x[ix])))
        return total

    def objective(self, x) -> float:
        return self.smooth_value(x) + self.penalty_value(x)

    def assignments(self, x) -> np.ndarray:
        """Per-coordinate 1-based piece indices."""
        x = np.asarray(x, dtype=float)
        out = np.empty(self.d, dtype=np.int64)
        for fn, ix in self._groups:
            out[ix] = fn.piece_index(x[ix])
        return out

    def surrogate_penalty(self, assignment, v) -> float:
        v = np.asarray(v, dtype=float)
        total = 0.0
        for fn, ix in self._groups:
            sub_assign = assignment[ix]
            for m in np.unique(sub_assign):
                sel = ix[sub_assign == m]
                total += float(np.sum(fn.surrogate(int(m))(v[sel])))
        return total

    def surrogates_for(self, assignment) -> list:
        out = [None] * self.d
        for fn, ix in self._groups:
            for i in ix:
                out[i] = fn.surrogate(int(assignment[i]))
        return out

    def prox_step(self, assignment, s: float, v: np.ndarray) -> np.ndarray:
        return prox_vector(self.surrogates_for(assignment), s, v)

    def project(self, x, u, assignment) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        w = np.empty_like(u)
        for fn, ix in self._groups:
            w[ix] = _project_group(fn, x[ix], u[ix], assignment[ix], fn.R0)
        return w


def _project_group(fn: PiecewiseFn, x, u, assign, R0: float) -> np.ndarray:
    lo = fn._lo[assign - 1]
    hi = fn._hi[assign - 1]
    if math.isfinite(R0):
        lo = np.maximum(lo, x - R0)
        hi = np.minimum(hi, x + R0)
    return np.clip(u, lo, hi)


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def tk_next(t: float) -> float:
    """Momentum weight recurrence t_{k+1} = (sqrt(1 + 4 t_k^2) + 1) / 2."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return 0.5 * (math.sqrt(1.0 + 4.0 * t * t) + 1.0)


def extrapolate(x, x_prev, z, t_prev: float, t: float) -> np.ndarray:
    """u = x + (t_prev/t)(z - x) + ((t_prev - 1)/t)(x - x_prev)."""
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != x_prev.shape or x.shape != z.shape:
        raise ValueError("dimension mismatch in extrapolation")
    return x + (t_prev / t) * (z - x) + ((t_prev - 1.0) / t) * (x - x_prev)


def project_piecewise(x, u, R0: float, fn: PiecewiseFn) -> np.ndarray:
    """Clamp u coordinatewise to closure(piece of x_i) intersected with the
    radius-R0 ball around x_i."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    assign = fn.piece_index(x)
    return _project_group(fn, x, u, assign, R0)


def surrogate_objective(problem: Problem, assignment, v) -> float:
    """g(v) + sum_i f_{assignment_i}(v_i)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.d,):
        raise ValueError(f"v has shape {v.shape}, expected ({problem.d},)")
    return problem.smooth_value(v) + problem.surrogate_penalty(np.asarray(assignment), v)


def _endpoint_between(fn: PiecewiseFn, m: int, w_i: float, z_i: float) -> float:
    """The endpoint of piece m inside [w_i, z_i], closer one to w_i if both."""
    lo, hi = fn.piece_bounds(m)
    seg_lo, seg_hi = min(w_i, z_i), max(w_i, z_i)
    cands = [q for q in (lo, hi) if math.isfinite(q) and seg_lo <= q <= seg_hi]
    if not cands:
        raise SolverError(
            f"no endpoint of piece {m} lies between w={w_i!r} and z={z_i!r}; "
            "piece metadata is inconsistent"
        )
    return min(cands, key=lambda q: abs(q - w_i))


def _nce_group(fn: PiecewiseFn, x, z, w, w0: float, assign_x, assign_z):
    """Negative-curvature-exploitation for one penalty group.

    Returns (z_snapped, flag) where flag reports whether any crossing
    coordinate satisfied an acceptance condition.
    """
    flag = False
    z_out = z.copy()
    for i in np.flatnonzero(assign_z != assign_x):
        q = _endpoint_between(fn, int(assign_x[i]), float(w[i]), float(z[i]))
        rec = fn.endpoint_record(q)
        d0 = abs(float(z[i]) - float(w[i]))
        d1 = abs(float(z[i]) - q)
        if rec.is_continuous:
            if d1 >= w0 * d0:
                flag = True
        else:
            flag = True
            dest = fn.pieces[int(assign_z[i]) - 1]
            if dest.is_point and dest.left == q:
                z_out[i] = q
    return z_out, flag


def nce(x_k, z_k1, w_k, w0: float, fn: PiecewiseFn) -> np.ndarray:
    """Negative-curvature-exploitation step for a shared penalty.

    If z sits on the same pieces as x it is accepted outright.  Otherwise each
    crossing coordinate is inspected: a continuous endpoint accepts only when
    the overshoot past the endpoint is at least the w0 fraction of the step
    (d_{i,1} >= w0 d_{i,0}); a discontinuous endpoint always accepts, snapping
    onto a single-point destination piece.  Without any acceptance the step is
    rejected and x is returned.
    """
    if not 0.0 < w0 <= 1.0:
        raise ValueError("w0 must lie in (0, 1]")
    x_k = np.atleast_1d(np.asarray(x_k, dtype=float))
    z_k1 = np.atleast_1d(np.asarray(z_k1, dtype=float))
    w_k = np.atleast_1d(np.asarray(w_k, dtype=float))
    assign_x = fn.piece_index(x_k)
    assign_z = fn.piece_index(z_k1)
    if np.array_equal(assign_x, assign_z):
        return z_k1.copy()
    z_out, flag = _nce_group(fn, x_k, z_k1, w_k, w0, assign_x, assign_z)
    return z_out if flag else x_k.copy()


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("k", "F", "F_surrogate_z", "n_transitions_so_far", "nce_flag", "wall_ms")


@dataclass
class Trace:
    """Per-iteration record of one solver run."""

    solver: str
    s: float
    w0: Optional[float]
    k: np.ndarray
    objective: np.ndarray
    surrogate_objective: np.ndarray
    transitions: np.ndarray
    nce_outcomes: list
    wall_ms: np.ndarray
    iterates: np.ndarray
    assignments: np.ndarray
    final_residual: float = math.nan

    @property
    def n_transitions(self) -> np.ndarray:
        return np.cumsum(self.transitions.astype(np.int64))

    @property
    def final_objective(self) -> float:
        return float(self.objective[-1])

    @property
    def final_x(self) -> np.ndarray:
        return self.iterates[-1]

    def last_transition_index(self) -> int:
        """Row index of the last piece transition, -1 if none."""
        hits = np.flatnonzero(self.transitions)
        return int(hits[-1]) if hits.size else -1

    def to_rows(self):
        n_trans = self.n_transitions
        for j in range(len(self.k)):
            sz = self.surrogate_objective[j]
            yield (
                int(self.k[j]),
                repr(float(self.objective[j])),
                "" if math.isnan(sz) else repr(float(sz)),
                int(n_trans[j]),
                self.nce_outcomes[j],
                f"{self.wall_ms[j]:.3f}",
            )

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for row in self.to_rows():
                fh.write(",".join(str(c) for c in row) + "\n")

    def to_json(self) -> str:
        import json

        n_trans = self.n_transitions
        rows = [
            {
                "k": int(self.k[j]),
                "F": float(self.objective[j]),
                "F_surrogate_z": None if math.isnan(self.surrogate_objective[j])
                else float(self.surrogate_objective[j]),
                "n_transitions_so_far": int(n_trans[j]),
                "nce_flag": self.nce_outcomes[j],
                "wall_ms": float(self.wall_ms[j]),
            }
            for j in range(len(self.k))
        ]
        return json.dumps({"meta": self.summary(), "rows": rows}, indent=2)

    def summary(self) -> dict:
        return {
            "solver": self.solver,
            "s": self.s,
            "w0": self.w0,
            "iterations": int(self.k[-1]),
            "final_objective": self.final_objective,
            "n_transitions": int(self.n_transitions[-1]),
            "final_residual": self.final_residual,
            "wall_ms_total": float(np.sum(self.wall_ms)),
        }


class _TraceBuilder:
    def __init__(self, solver, s, w0, x0, assign, F0, record_timing=True):
        self.solver = solver
        self.s = s
        self.w0 = w0
        self.record_timing = record_timing
        self.k = [0]
        self.objective = [F0]
        self.surrogate = [math.nan]
        self.transitions = [False]
        self.outcomes = [""]
        self.wall = [0.0]
        self.iterates = [np.array(x0, dtype=float)]
        self.assignments = [np.array(assign)]

    def add(self, k, F, F_sz, transition, outcome, wall_ms, x, assign):
        self.k.append(k)
        self.objective.append(F)
        self.surrogate.append(F_sz)
        self.transitions.append(transition)
        self.outcomes.append(outcome)
        self.wall.append(wall_ms if self.record_timing else 0.0)
        self.iterates.append(np.array(x, dtype=float))
        self.assignments.append(np.array(assign))

    def build(self, final_residual=math.nan) -> Trace:
        return Trace(
            solver=self.solver,
            s=self.s,
            w0=self.w0,
            k=np.asarray(self.k, dtype=np.int64),
            objective=np.asarray(self.objective, dtype=float),
            surrogate_objective=np.asarray(self.surrogate, dtype=float),
            transitions=np.asarray(self.transitions, dtype=bool),
            nce_outcomes=self.outcomes,
            wall_ms=np.asarray(self.wall, dtype=float),
            iterates=np.stack(self.iterates, axis=0),
            assignments=np.stack(self.assignments, axis=0),
            final_residual=final_residual,
        )


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def default_step_size(problem: Problem) -> float:
    """Practical default 1 / (2 L_g); the certified bound is opt-in."""
    L = problem.loss.lipschitz_bound()
    if L <= 0:
        return 1.0
    return 0.5 / L


def _check_finite(F: float, solver: str, k: int) -> None:
    if not math.isfinite(F):
        raise SolverError(f"{solver}: non-finite objective at iteration {k} (diverging step?)")


def _solve(solver: str, step, problem: Problem, x0, s: Optional[float], K: int,
           w0: Optional[float], stop_tol: Optional[float], record_timing: bool) -> Trace:
    """The iteration every solver shares.

    Validates the arguments, keeps the momentum state (x_prev, z, t) and
    extrapolates u from it, records piece transitions and the trace, applies
    the ``stop_tol`` early stop and computes the final stationarity residual.
    Per iteration ``step(x, u, assign, F_x, s)`` returns
    ``(x_next, F(x_next), z, F_probe, outcome)``: the accepted iterate, the
    probe z that feeds the next extrapolation, the objective the step judged
    the probe by (the trace's ``F_surrogate_z`` column) and the outcome label.
    """
    if not isinstance(K, numbers.Integral) or K < 0:
        raise ValueError(f"K must be a nonnegative integer, got {K!r}")
    if s is None:
        s = default_step_size(problem)
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"step size must be finite and positive, got {s!r}")
    x = np.array(x0, dtype=float)
    if x.shape != (problem.d,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({problem.d},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")

    x_prev = x.copy()
    z = x.copy()
    t_prev, t = 0.0, 1.0
    assign = problem.assignments(x)
    F_x = problem.objective(x)
    _check_finite(F_x, solver, 0)
    tb = _TraceBuilder(solver, s, w0, x, assign, F_x, record_timing)
    last_transition = 0

    for k in range(1, K + 1):
        tic = time.perf_counter()
        u = extrapolate(x, x_prev, z, t_prev, t)
        x_next, F_next, z, F_probe, outcome = step(x, u, assign, F_x, s)
        _check_finite(F_probe, solver, k)
        _check_finite(F_next, solver, k)
        new_assign = problem.assignments(x_next)
        transition = not np.array_equal(new_assign, assign)
        if transition:
            last_transition = k

        x_prev, x = x, x_next
        t_prev, t = t, tk_next(t)
        assign, F_x = new_assign, F_next

        wall = (time.perf_counter() - tic) * 1e3
        tb.add(k, F_x, F_probe, transition, outcome, wall, x, assign)

        if stop_tol is not None and k - last_transition >= 10:
            if stationarity_residual(problem, x, s) < stop_tol:
                break

    return tb.build(final_residual=stationarity_residual(problem, x, s))


def ppgd(problem: Problem, x0, s: Optional[float] = None, w0: float = 0.5,
         K: int = 100, stop_tol: Optional[float] = None,
         record_timing: bool = True) -> Trace:
    """Projected proximal gradient descent with negative-curvature exploitation.

    Per iteration: extrapolate u from (x, x_prev, z); pull u back onto the
    pieces of x (projection with radius R0); take a prox step on the
    surrogates of those pieces; accept through the surrogate-objective guard
    and the NCE rule.  ``stop_tol`` enables an early stop once the
    stationarity residual drops below it with no transition in the last 10
    iterations.
    """
    if not 0.0 < w0 <= 1.0:
        raise ValueError("w0 must lie in (0, 1]")

    def step(x, u, assign, F_x, s):
        w = problem.project(x, u, assign)
        z = problem.prox_step(assign, s, w - s * problem.smooth_gradient(w))
        g_z = problem.smooth_value(z)
        F_sz = g_z + problem.surrogate_penalty(assign, z)
        if not F_sz <= F_x:
            return x, F_x, z, F_sz, "guard-reject"
        assign_z = problem.assignments(z)
        if np.array_equal(assign_z, assign):
            return z, g_z + problem.penalty_value(z), z, F_sz, "same-piece"
        z_snap = z.copy()
        flag = False
        for fn, ix in problem._groups:
            zs, fl = _nce_group(fn, x[ix], z[ix], w[ix], w0, assign[ix], assign_z[ix])
            flag = flag or fl
            z_snap[ix] = zs
        if not flag:
            return x, F_x, z, F_sz, "nce-reject"
        if np.array_equal(z_snap, z):
            return z_snap, g_z + problem.penalty_value(z), z, F_sz, "nce-accept"
        return z_snap, problem.objective(z_snap), z, F_sz, "nce-accept"

    return _solve("ppgd", step, problem, x0, s, K, w0, stop_tol, record_timing)


def pgd(problem: Problem, x0, s: Optional[float] = None, K: int = 100,
        record_timing: bool = True) -> Trace:
    """Proximal gradient descent with the exact prox of the full penalty.

    The step starts from x and never uses the extrapolated point.
    """

    def step(x, u, assign, F_x, s):
        x_new = _prox_full(problem, s, x - s * problem.smooth_gradient(x))
        F_new = problem.objective(x_new)
        return x_new, F_new, x_new, F_new, "step"

    return _solve("pgd", step, problem, x0, s, K, None, None, record_timing)


def apg_monotone(problem: Problem, x0, s: Optional[float] = None, K: int = 100,
                 record_timing: bool = True) -> Trace:
    """Accelerated proximal gradient with an objective decrease guard.

    z is the accelerated probe prox_{sh}(u - s grad g(u)); x advances to z only
    when F(z) <= F(x), which keeps the objective column nonincreasing.
    """

    def step(x, u, assign, F_x, s):
        z = _prox_full(problem, s, u - s * problem.smooth_gradient(u))
        F_z = problem.objective(z)
        if F_z <= F_x:
            return z, F_z, z, F_z, "accept"
        return x, F_x, z, F_z, "revert"

    return _solve("apg", step, problem, x0, s, K, None, None, record_timing)


def _prox_full(problem: Problem, s: float, v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    for fn, ix in problem._groups:
        out[ix] = prox_true(fn, s, v[ix])
    return out


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def stationarity_residual(problem: Problem, x, s: float) -> float:
    """||x - prox-step(x)|| / s with the surrogates of the pieces of x.

    Zero at a point that is a fixed point of the projected surrogate update; a
    numeric stand-in for the critical-point condition.
    """
    if s <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(x, dtype=float)
    assign = problem.assignments(x)
    p = problem.prox_step(assign, s, x - s * problem.smooth_gradient(x))
    return float(np.linalg.norm(x - p) / s)


def estimate_G(problem: Problem, x0, trace: Optional[Trace] = None,
               n_samples: int = 1000, seed: int = 0, safety: float = 1.5) -> float:
    """Empirical gradient bound over the inflated iterate box.

    Takes the coordinatewise hull of the observed iterates (just x0 when no
    trace is given), inflates it by the penalty's R0 on each side (no inflation
    when R0 is infinite), samples it with a seeded generator plus the corners,
    and returns the max gradient norm scaled by ``safety``.
    """
    x0 = np.asarray(x0, dtype=float)
    pts = trace.iterates if trace is not None else x0[None, :]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    r0 = problem.min_r0()
    if math.isfinite(r0):
        lo = lo - r0
        hi = hi + r0
    rng = np.random.default_rng(seed)
    unit = rng.random((n_samples, problem.d))
    samples = lo[None, :] + unit * (hi - lo)[None, :]
    best = 0.0
    for p in (lo, hi, 0.5 * (lo + hi)):
        best = max(best, float(np.linalg.norm(problem.smooth_gradient(p))))
    for row in samples:
        best = max(best, float(np.linalg.norm(problem.smooth_gradient(row))))
    return safety * best

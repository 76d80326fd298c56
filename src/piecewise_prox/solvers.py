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
                       whether an iterate may cross onto new pieces; a
                       crossing must also not raise the true F.  It is taken
                       as the prox put it: one onto a single-point piece
                       already lands on its value, so nothing is snapped.

All three run through one loop, ``_solve``, and differ only in their
per-iteration step, which hands the loop the piece assignment of the iterate
it accepts, as numbers into ``Problem``'s one table of the pieces of all its
penalties.  A ``ppgd`` step runs ``Problem``'s ``project``, ``prox_step``,
``surrogate_penalty`` and ``nce``, each one array rule over that table; the
others its ``prox_exact``, which values its own output.  With a single convex
piece the projection is the identity and ``ppgd`` reduces exactly to
``apg_monotone``.  The momentum restarts after a step that keeps x because
its probe failed the objective test, and after an accepted step that fails
the gradient test (see ``_solve``).  The paper analyses the unrestarted t_k
sequence; after the last crossing, ``ppgd`` is monotone accelerated proximal
gradient with these restarts.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .piecewise import PiecewiseFn, _entries
from .prox import _check_step, _prox_entries, _prox_true_valued
from .smooth import SmoothLoss

__all__ = [
    "Problem",
    "Trace",
    "SolverError",
    "tk_next",
    "extrapolate",
    "ppgd",
    "pgd",
    "apg_monotone",
    "stationarity_residual",
    "estimate_G",
    "default_step_size",
]


class SolverError(RuntimeError):
    pass


class _PiecePlan(namedtuple("_PiecePlan", "assign lo hi own_lo own_hi entries")):
    """One piece assignment as ``Problem`` reads it: a read-only copy of its
    numbers, per coordinate the bounds of its piece's closure (lo, hi) and of
    the set the piece owns (own_lo, own_hi), and each entry's coordinates."""

    def holds(self, z: np.ndarray) -> bool:
        """Whether every z_i is strictly inside its piece or on an edge it owns."""
        return bool(((z >= self.own_lo) & (z <= self.own_hi)).all())


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Problem:
    """Smooth loss plus a separable piecewise convex penalty.

    ``penalty`` is either one PiecewiseFn shared by every coordinate or a
    sequence of length d assigning one per coordinate.  The pieces of all
    penalties are numbered once, one penalty group (the coordinates sharing
    one penalty, in order of first use) after another, into a table of their
    surrogates.  A piece assignment is a 1-based number into that table: a
    group's piece m is offset + m, so with one shared penalty it is m itself.
    ``project``, ``prox_step`` and ``surrogate_penalty`` read the piece plan
    of their assignment, built anew only for numbers unlike the latest's.
    """

    loss: SmoothLoss
    penalty: object
    _groups: tuple = field(init=False, repr=False, default=())  # (fn, coordinates, offset)
    _surrogates: tuple = field(init=False, repr=False, default=())  # the piece table
    # the groups' owned-bounds tables side by side, one column per table entry
    # (see PiecewiseFn): closure and owned bounds, record continuity
    _bounds: np.ndarray = field(init=False, repr=False, default=None)
    _record_continuous: np.ndarray = field(init=False, repr=False, default=None)
    _r0: np.ndarray = field(init=False, repr=False, default=None)  # R0 per coordinate
    _latest: Optional[_PiecePlan] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        d = self.loss.d
        if isinstance(self.penalty, PiecewiseFn):
            by_fn = {self.penalty: np.arange(d)}
        else:
            fns = tuple(self.penalty)
            if len(fns) != d:
                raise ValueError(f"need {d} per-coordinate penalties, got {len(fns)}")
            by_fn: dict[PiecewiseFn, list[int]] = {}  # PiecewiseFn hashes by identity
            for i, fn in enumerate(fns):
                if not isinstance(fn, PiecewiseFn):
                    raise TypeError(f"penalty of coordinate {i} is {type(fn).__name__}, "
                                    "not a PiecewiseFn")
                by_fn.setdefault(fn, []).append(i)
            by_fn = {fn: np.asarray(ix, dtype=np.intp) for fn, ix in by_fn.items()}
        groups, table, r0 = [], [], np.empty(d)
        for fn, ix in by_fn.items():
            groups.append((fn, ix, len(table)))
            table += fn.surrogates
            r0[ix] = fn.R0
        for name, value in (("_groups", tuple(groups)), ("_surrogates", tuple(table)),
                            ("_bounds", np.hstack([fn._bounds for fn in by_fn])),
                            ("_record_continuous",
                             np.hstack([fn._record_continuous for fn in by_fn])),
                            ("_r0", r0)):
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.loss.d

    def min_r0(self) -> float:
        return min(fn.R0 for fn, _, _ in self._groups)

    def penalty_value(self, x) -> float:
        return self.surrogate_penalty(self.assignments(x), x)

    def objective(self, x) -> float:
        return self.loss.value(x) + self.penalty_value(x)

    def assignments(self, x) -> np.ndarray:
        """Per coordinate, the 1-based table number of its own piece."""
        x = self.loss._check(x)
        out = np.empty(self.d, dtype=np.int64)
        for fn, ix, offset in self._groups:
            out[ix] = fn.piece_index(x[ix]) + offset
        return out

    def _plan(self, assignment) -> _PiecePlan:
        """The latest piece plan if it has ``assignment``'s numbers, else a new
        one.  Callers may race: each reads the plan it got, at worst rebuilt."""
        plan = self._latest
        if plan is None or (assignment is not plan.assign
                            and not np.array_equal(plan.assign, assignment)):
            assign = np.array(assignment)  # a copy: the caller may change its array
            entries = _entries(self._surrogates, assign, (self.d,))
            assign.flags.writeable = False
            # np.take: indexing [:, a] gathers 4x slower at d = 10^4
            plan = _PiecePlan(assign, *np.take(self._bounds, assign - 1, axis=1), entries)
            object.__setattr__(self, "_latest", plan)
        return plan

    def surrogate_penalty(self, assignment, v) -> float:
        """sum_i of table entry assignment_i's surrogate at v_i, one sum per
        penalty group: the penalty sum_i f(v_i) when the pieces are v's own."""
        v = self.loss._check(v)
        values = np.empty(self.d)
        for sur, sel in self._plan(assignment).entries:
            values[sel] = sur(v[sel])
        total = 0.0
        for _, ix, _ in self._groups:
            total += float(np.sum(values[ix]))
        return total

    def prox_step(self, assignment, s: float, v: np.ndarray) -> np.ndarray:
        """Prox of the surrogates of the assigned table entries."""
        v = np.asarray(v, dtype=float).reshape(self.d)  # a v of another size raises
        return _prox_entries(self._plan(assignment).entries, s, v)

    def prox_exact(self, s: float, v: np.ndarray):
        """(z, X @ z, F(z), z's piece assignment) for z the exact prox at v, one
        penalty group at a time, with f as its own valuation gives it."""
        v = self.loss._check(v)
        z, assign, total = np.empty_like(v), np.empty(self.d, dtype=np.int64), 0.0
        for fn, ix, offset in self._groups:
            z[ix], values, pieces = _prox_true_valued(fn, s, v[ix])
            assign[ix] = pieces + offset
            total += float(np.sum(values))
        pz = self.loss.data.features @ z
        return z, pz, self.loss.value(z, pz) + total, assign

    def project(self, x, u, assignment) -> np.ndarray:
        """Clamp u coordinatewise to the closure of x_i's piece intersected
        with the radius-R0 box around x_i; an infinite R0 leaves the closure."""
        plan = self._plan(assignment)
        x, u = self.loss._check(x), self.loss._check(u)
        return u.clip(np.maximum(plan.lo, x - self._r0), np.minimum(plan.hi, x + self._r0))

    def nce(self, z, w, w0: float, assign_x, assign_z) -> bool:
        """Whether negative-curvature exploitation accepts the probe z, taken
        from the projected point w, off the pieces ``assign_x`` onto
        ``assign_z``: whether some coordinate that crosses satisfies the
        acceptance condition.

        Each crossing is judged at the endpoint q of its old piece that lies
        between w and z, the one closer to w if both do, by the endpoint
        record on that side of the old piece: toward z when the old piece is
        a single point.  A continuous record accepts only when the overshoot
        past q is at least the w0 fraction of the step (d_{i,1} >= w0 d_{i,0});
        any other record always accepts.  A crossing with no endpoint between
        w and z raises SolverError, whatever the other crossings decide.
        """
        cross = np.flatnonzero(assign_z != assign_x)
        wc, zc, a = w[cross], z[cross], assign_x[cross] - 1
        lo, hi = np.take(self._bounds[:2], a, axis=1)
        seg_lo, seg_hi = np.minimum(wc, zc), np.maximum(wc, zc)
        lo_in = np.isfinite(lo) & (seg_lo <= lo) & (lo <= seg_hi)
        hi_in = np.isfinite(hi) & (seg_lo <= hi) & (hi <= seg_hi)
        missing = np.flatnonzero(~(lo_in | hi_in))
        if missing.size:
            i = missing[0]
            raise SolverError(
                f"no endpoint of piece {self._surrogates[a[i]].piece.index} lies between "
                f"w={float(wc[i])!r} and z={float(zc[i])!r}; piece metadata is inconsistent"
            )
        at_lo = lo_in & ~(hi_in & (np.abs(hi - wc) < np.abs(lo - wc)))
        q = np.where(at_lo, lo, hi)
        left = np.where(lo == hi, zc < q, at_lo)
        continuous = np.where(left, *np.take(self._record_continuous, a, axis=1))
        return bool(np.any(~continuous | (np.abs(zc - q) >= w0 * np.abs(zc - wc))))


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
    u = z - x  # the formula's operations in its order, mostly in place
    u *= t_prev / t
    u += x
    u += np.multiply(x - x_prev, (t_prev - 1.0) / t)
    return u


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
    restarted: np.ndarray  # per row: whether its step restarted the momentum
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
            "k0": self.last_transition_index(),
            "restarts": int(self.restarted.sum()),
        }


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def default_step_size(problem: Problem) -> float:
    """Practical default 1 / (2 L_g); the certified bound is opt-in."""
    L = problem.loss.lipschitz_bound()
    if L <= 0:
        return 1.0
    return 0.5 / L


# A probe no worse than F(x) by this share of |F(x)| passes ppgd's guard and
# apg's decrease test.  Objective values are sums of thousands of terms, so
# two that agree up to a few ulps can differ by their summation order alone;
# an exact comparison lets that rounding pick the path at a plateau, and the
# iteration count then depends on the order of the data rows.  A rise this
# small (1.8e-15 relative) stays far inside what the monotone checks allow.
_F_RTOL = 8 * np.finfo(float).eps


def _no_worse(F_z: float, F_x: float) -> bool:
    return F_z <= F_x + _F_RTOL * abs(F_x)


def _check_finite(F: float, solver: str, k: int) -> None:
    if not math.isfinite(F):
        raise SolverError(f"{solver}: non-finite objective at iteration {k} (diverging step?)")


def _solve(solver: str, step, problem: Problem, x0, s: Optional[float], K: int,
           w0: Optional[float], stop_tol: Optional[float], record_timing: bool,
           momentum: bool = True) -> Trace:
    """The iteration every solver shares.

    Validates the arguments (``stop_tol`` is None or positive), keeps the
    momentum state (x_prev, z, t) and extrapolates u from it, records piece
    transitions and the trace, applies the ``stop_tol`` early stop and
    computes the final stationarity residual, both on x's pieces as the
    loop holds them.  With ``momentum`` off (``pgd``) u is x and nothing
    restarts.

    The momentum restarts (adaptive restart, O'Donoghue & Candes 2015) when
    a step keeps x (``guard-reject``, ``revert``), or accepts its probe z
    while (u - z).(z - x_prev) > 0, x_prev the iterate before z: the step
    moved against the direction u had taken.  A restart resets the whole
    state to the one the loop starts in (x_prev = z = x, t_prev = 0, t = 1),
    so the next u is x bit for bit and that step is a plain prox-gradient
    step from x, which passes the objective test at s <= 1/L_g by the
    descent lemma and cannot fail the gradient test.  The trace's
    ``restarted`` column marks the rows whose step restarted.  An
    ``nce-reject`` does not restart: from u = x its probe would come back
    the same, and the run would stall.

    Next to each of x, x_prev and z the loop carries its product with the
    feature matrix X (px, px_prev, pz), each a fresh product of its own
    vector: an accepted iterate takes over its probe's.  u is affine in x,
    x_prev and z, so ``extrapolate`` gives pu = X @ u from their products, and
    an iteration takes two passes over X, ``X.T @ r`` for a gradient and
    ``X @ z`` for the probe's value (three in a ``ppgd`` step that takes
    ``X @ w`` afresh, see ``_shifted_product``).  The residuals reuse px.

    Per iteration ``step(x, px, u, pu, assign, F_x, s)`` returns
    ``(z, pz, F_probe, outcome, accepted)``: the probe z that feeds the next
    extrapolation with its product, the objective the step judged it by (the
    trace's ``F_surrogate_z`` column), the outcome label, and ``(F(z), piece
    assignment of z)`` when z becomes the next iterate, None when x stays.
    Every objective value is the loss plus a penalty summed as
    ``Problem.surrogate_penalty`` sums it, so a probe that stays on x's pieces
    is valued by its true F, summed exactly as F(x) is.
    """
    if not isinstance(K, numbers.Integral) or K < 0:
        raise ValueError(f"K must be a nonnegative integer, got {K!r}")
    if stop_tol is not None and not stop_tol > 0:
        raise ValueError(f"stop_tol must be None or positive, got {stop_tol!r}")
    s = _check_step(default_step_size(problem) if s is None else s)
    x = np.array(x0, dtype=float)
    if x.shape != (problem.d,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({problem.d},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")

    px = problem.loss.data.features @ x
    x_prev, px_prev, z, pz, t_prev, t = x, px, x, px, 0.0, 1.0
    assign = problem._plan(problem.assignments(x)).assign
    F_x = problem.loss.value(x, px) + problem.surrogate_penalty(assign, x)
    _check_finite(F_x, solver, 0)
    # one row per trace line; x is never changed in place, so no row copies it
    rows = [(0, F_x, math.nan, False, "", 0.0, x, False)]
    last_transition = 0

    for k in range(1, K + 1):
        tic = time.perf_counter()
        u, pu = x, px
        if momentum:
            u = extrapolate(x, x_prev, z, t_prev, t)
            pu = extrapolate(px, px_prev, pz, t_prev, t)
        z, pz, F_probe, outcome, accepted = step(x, px, u, pu, assign, F_x, s)
        _check_finite(F_probe, solver, k)
        x_prev, px_prev = x, px
        transition = False
        restart = outcome in ("guard-reject", "revert")
        if accepted is not None:
            F_x, new_assign = accepted
            _check_finite(F_x, solver, k)
            transition = not np.array_equal(new_assign, assign)
            if transition:
                last_transition = k
            x, px, assign = z, pz, new_assign
            restart = momentum and float(np.dot(u - z, z - x_prev)) > 0
        t_prev, t = t, tk_next(t)
        if restart:
            x_prev, px_prev, z, pz, t_prev, t = x, px, x, px, 0.0, 1.0

        wall = (time.perf_counter() - tic) * 1e3 if record_timing else 0.0
        rows.append((k, F_x, F_probe, transition, outcome, wall, x, restart))

        if (stop_tol is not None and k - last_transition >= 10
                and _residual(problem, x, s, px, assign) < stop_tol):
            break

    ks, F, F_sz, transitions, outcomes, walls, xs, restarts = zip(*rows)
    return Trace(solver=solver, s=s, w0=w0,
                 k=np.asarray(ks, dtype=np.int64),
                 objective=np.asarray(F, dtype=float),
                 surrogate_objective=np.asarray(F_sz, dtype=float),
                 transitions=np.asarray(transitions, dtype=bool),
                 nce_outcomes=list(outcomes),
                 wall_ms=np.asarray(walls, dtype=float),
                 iterates=np.stack(xs, axis=0),
                 restarted=np.asarray(restarts, dtype=bool),
                 final_residual=_residual(problem, x, s, px, assign))


def _shifted_product(X: np.ndarray, pu: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X @ w from pu = X @ u, adding the columns of X where w differs from u.

    Gathering columns from the row-major X costs more than the whole product
    once about 1% of them are taken (measured at 1000 x 10^4 and 10^4 x 64),
    so beyond that share w gets a fresh product.
    """
    moved = np.flatnonzero(w != u)
    if not moved.size:
        return pu
    if 100 * moved.size > w.size:
        return X @ w
    return pu + X[:, moved] @ (w[moved] - u[moved])


def ppgd(problem: Problem, x0, s: Optional[float] = None, w0: float = 0.5,
         K: int = 100, stop_tol: Optional[float] = None,
         record_timing: bool = True) -> Trace:
    """Projected proximal gradient descent with negative-curvature exploitation.

    Per iteration: extrapolate u from (x, x_prev, z); pull u back onto the
    pieces of x (projection with radius R0); take a prox step on the
    surrogates of those pieces; accept through the surrogate-objective guard
    F_s(z) <= F(x) (up to ``_F_RTOL`` |F(x)|, the rounding of the sums) and,
    for a probe on new pieces, the NCE rule and the same test on its true
    F(z).  On a probe that stays on x's pieces, as the piece plan's bounds
    test tells with no membership pass, the surrogate objective is the true
    F(z), summed exactly as F(x) is, so a probe equal to x passes the guard.
    A guard-reject, or an accepted step that fails the gradient test,
    restarts the momentum; an nce-reject does not (see ``_solve``).
    ``stop_tol`` enables an early stop once the stationarity residual drops
    below it with no transition in the last 10 iterations.
    """
    if not 0.0 < w0 <= 1.0:
        raise ValueError("w0 must lie in (0, 1]")

    loss = problem.loss
    X = loss.data.features

    def step(x, px, u, pu, assign, F_x, s):
        w = problem.project(x, u, assign)
        z = problem.prox_step(assign, s, w - s * loss.gradient(w, _shifted_product(X, pu, u, w)))
        pz = X @ z
        g_z = loss.value(z, pz)
        F_sz = g_z + problem.surrogate_penalty(assign, z)
        if not _no_worse(F_sz, F_x):
            return z, pz, F_sz, "guard-reject", None
        if problem._plan(assign).holds(z):
            return z, pz, F_sz, "same-piece", (F_sz, assign)
        assign_z = problem.assignments(z)
        if problem.nce(z, w, w0, assign, assign_z):
            assign_z = problem._plan(assign_z).assign  # the loop keeps the plan's array
            F_z = g_z + problem.surrogate_penalty(assign_z, z)
            if _no_worse(F_z, F_x):
                return z, pz, F_sz, "nce-accept", (F_z, assign_z)
        return z, pz, F_sz, "nce-reject", None

    return _solve("ppgd", step, problem, x0, s, K, w0, stop_tol, record_timing)


def pgd(problem: Problem, x0, s: Optional[float] = None, K: int = 100,
        record_timing: bool = True) -> Trace:
    """Proximal gradient descent with the exact prox of the full penalty.

    The step starts from x, so the shared loop runs without momentum: no
    extrapolation and no restart.  A rise of F beyond ``_no_worse`` (a step
    s above 1/L_g) raises SolverError.
    """

    def step(x, px, u, pu, assign, F_x, s):
        z, pz, F_z, assign_z = problem.prox_exact(s, x - s * problem.loss.gradient(x, px))
        if not (_no_worse(F_z, F_x) or math.isnan(F_z)):
            raise SolverError(f"pgd: F rose from {F_x!r} to {F_z!r} (s={s!r} above 1/L_g?)")
        return z, pz, F_z, "step", (F_z, assign_z)

    return _solve("pgd", step, problem, x0, s, K, None, None, record_timing, momentum=False)


def apg_monotone(problem: Problem, x0, s: Optional[float] = None, K: int = 100,
                 record_timing: bool = True) -> Trace:
    """Accelerated proximal gradient with an objective decrease guard.

    z is the accelerated probe prox_{sh}(u - s grad g(u)); x advances to z only
    when F(z) <= F(x) up to ``_F_RTOL`` |F(x)|, the rounding of the sums, which
    keeps the objective column nonincreasing up to that rounding.  A revert,
    or an accept that fails the gradient test, restarts the momentum (see
    ``_solve``), by the same rule as in ``ppgd``.
    """

    def step(x, px, u, pu, assign, F_x, s):
        z, pz, F_z, assign_z = problem.prox_exact(s, u - s * problem.loss.gradient(u, pu))
        if _no_worse(F_z, F_x):
            return z, pz, F_z, "accept", (F_z, assign_z)
        return z, pz, F_z, "revert", None

    return _solve("apg", step, problem, x0, s, K, None, None, record_timing)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def stationarity_residual(problem: Problem, x, s: float, Xx=None) -> float:
    """||x - prox-step(x)|| / s with the surrogates of the pieces of x.

    Zero at a point that is a fixed point of the projected surrogate update; a
    numeric stand-in for the critical-point condition.  A caller that holds
    the product X @ x passes it as ``Xx``, as to ``SmoothLoss.gradient``; the
    result is the same bit for bit.
    """
    _check_step(s)
    x = np.asarray(x, dtype=float)
    return _residual(problem, x, s, Xx, problem.assignments(x))


def _residual(problem: Problem, x: np.ndarray, s: float, Xx, assign) -> float:
    """``stationarity_residual`` with the piece assignment of x given."""
    p = problem.prox_step(assign, s, x - s * problem.loss.gradient(x, Xx))
    return float(np.linalg.norm(x - p) / s)


# sample points per batched gradient call in estimate_G
_G_CHUNK = 128


def estimate_G(problem: Problem, x0, trace: Optional[Trace] = None,
               n_samples: int = 1000, seed: int = 0, safety: float = 1.5) -> float:
    """Empirical gradient bound over the inflated iterate box.

    Takes the coordinatewise hull of the observed iterates (just x0 when no
    trace is given), inflates it by the penalty's R0 on each side (no inflation
    when R0 is infinite), samples it with a seeded generator plus the corners,
    and returns the max gradient norm scaled by ``safety``.  The gradients are
    taken ``_G_CHUNK`` points at a time by ``SmoothLoss._gradients``.
    """
    x0 = np.asarray(x0, dtype=float)
    pts = trace.iterates if trace is not None else x0[None, :]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    r0 = problem.min_r0()
    if math.isfinite(r0):
        lo = lo - r0
        hi = hi + r0

    def top_norm(P):
        return float(np.linalg.norm(problem.loss._gradients(P), axis=1).max(initial=0.0))

    best = top_norm(np.stack([lo, hi, 0.5 * (lo + hi)]))
    rng = np.random.default_rng(seed)
    # chunks draw the same stream as one (n_samples, d) draw would
    for start in range(0, n_samples, _G_CHUNK):
        unit = rng.random((min(_G_CHUNK, n_samples - start), problem.d))
        best = max(best, top_norm(lo + unit * (hi - lo)))
    return safety * best

"""Spans around calls into the library, installed from outside ``src/``.

:func:`install` replaces each traced public function or method with a wrapper
that records a span, everywhere the library looks the name up: the defining
class, every module of the package that imported the function, and
module-level dicts that hold it (the harness keeps its solvers in one).  A
name that no longer exists is skipped, so its metrics read zero.

Spans are kept in memory as tuples and written out when the run ends.  A
span's parent is the innermost open span of its thread; a span opened on a
worker thread with nothing open there takes the innermost open span of the
main thread, which is the ``run_experiment`` call that started the pool.
Self time is a span's duration minus the union of its children's intervals
and minus the time the wrapper spent computing the span's attributes.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (span name, module, class or None, attribute)
TARGETS = (
    ("smooth.value", "smooth", "SmoothLoss", "value"),
    ("smooth.gradient", "smooth", "SmoothLoss", "gradient"),
    ("smooth.spectral_norm", "smooth", None, "spectral_norm"),
    ("piecewise.piece_index", "piecewise", "PiecewiseFn", "piece_index"),
    ("piecewise.evaluate", "piecewise", "PiecewiseFn", "evaluate"),
    ("kernels.prox", "kernels", "ProxKernel", "prox"),
    ("prox.prox_vector", "prox", None, "prox_vector"),
    ("prox.prox_true", "prox", None, "prox_true"),
    ("solvers.project", "solvers", "Problem", "project"),
    ("solvers.surrogates_for", "solvers", "Problem", "surrogates_for"),
    ("solvers.assignments", "solvers", "Problem", "assignments"),
    ("solvers.surrogate_penalty", "solvers", "Problem", "surrogate_penalty"),
    ("solvers.stationarity_residual", "solvers", None, "stationarity_residual"),
    ("solvers.ppgd", "solvers", None, "ppgd"),
    ("solvers.apg", "solvers", None, "apg_monotone"),
    ("solvers.pgd", "solvers", None, "pgd"),
    ("harness.build_problem", "harness", None, "build_problem"),
    ("harness.run_experiment", "harness", None, "run_experiment"),
    ("harness.to_csv", "solvers", "Trace", "to_csv"),
)

SOLVER_SPANS = ("solvers.ppgd", "solvers.apg", "solvers.pgd")


def _matrix_bytes(loss, *args, **kwargs):
    return loss.data.features.nbytes


def _numeric_surrogates(surrogates, *args, **kwargs):
    return sum(1 for sur in surrogates if sur.kernel is None)


def _numeric_pieces(fn, s, u, *args, **kwargs):
    numeric = sum(1 for m in range(1, fn.n_pieces + 1) if fn.surrogate(m).kernel is None)
    return numeric * len(u) if hasattr(u, "__len__") else numeric


def _iterations(problem, x0, *args, **kwargs):
    return kwargs.get("K")


# Span attribute computed from the call's arguments, by span name.
ATTRIBUTES = {
    "smooth.value": _matrix_bytes,
    "smooth.gradient": _matrix_bytes,
    "prox.prox_vector": _numeric_surrogates,
    "prox.prox_true": _numeric_pieces,
    "solvers.ppgd": _iterations,
    "solvers.apg": _iterations,
    "solvers.pgd": _iterations,
}


class Tracer:
    """Records spans (id, parent, op, name, thread, start, end, attr, overhead)."""

    def __init__(self):
        self.spans = []
        self.op = 0  # identifier shared by every span of one benchmark operation
        self._ids = itertools.count()
        self._open = {}  # span id -> record, while the call runs
        self._stacks = {}  # thread id -> open span ids
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._origin = time.perf_counter()

    def wrap(self, name, fn, attribute=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._enter(name)
            try:
                if attribute is not None:
                    tic = time.perf_counter()
                    try:
                        value = attribute(*args, **kwargs)
                    except Exception:  # instrumentation never fails the call
                        value = None
                    rec = self._open[sid]
                    rec[7] = value
                    rec[8] = time.perf_counter() - tic
                return fn(*args, **kwargs)
            finally:
                self._exit(sid)

        return traced

    def _enter(self, name) -> int:
        tid = threading.get_ident()
        with self._lock:
            sid = next(self._ids)
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            stack.append(sid)
            rec = [sid, parent, self.op, name, tid, time.perf_counter() - self._origin,
                   None, None, 0.0]
            self._open[sid] = rec
        return sid

    def _exit(self, sid) -> None:
        end = time.perf_counter() - self._origin
        with self._lock:
            rec = self._open.pop(sid)
            rec[6] = end
            self._stacks[rec[4]].pop()
            self.spans.append(tuple(rec))

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "thread", "start_s", "end_s", "attr",
                "overhead_s")
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r[0]):
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def install(tracer: Tracer, package) -> list:
    """Wrap every name in TARGETS that exists; returns the undo records."""
    prefix = package.__name__
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == prefix or name.startswith(prefix + "."))]
    undo = []
    for span, modname, owner, attr in TARGETS:
        holder = sys.modules.get(f"{prefix}.{modname}")
        if holder is not None and owner is not None:
            holder = getattr(holder, owner, None)
        original = getattr(holder, attr, None) if holder is not None else None
        if original is None:
            continue
        wrapped = tracer.wrap(span, original, ATTRIBUTES.get(span))
        homes = [holder] if owner is not None else modules
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is original:
                    undo.append((home, key, original, False))
                    setattr(home, key, wrapped)
                elif owner is None and isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            undo.append((value, k, original, True))
                            value[k] = wrapped
    return undo


def uninstall(undo) -> None:
    for home, key, original, is_dict in reversed(undo):
        if is_dict:
            home[key] = original
        else:
            setattr(home, key, original)


def _covered(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans) -> dict:
    """Per span name: calls, total seconds, self seconds and attribute sum.

    Also ``harness.reference_run``: the solver call with the largest K under
    each ``run_experiment`` span, by total time.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[1] is not None:
            children[rec[1]].append(rec)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attr": 0})
    for rec in spans:
        sid, _, _, name, _, start, end, attr, overhead = rec
        kids = [(max(c[5], start), min(c[6], end)) for c in children[sid]]
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - _covered([k for k in kids if k[1] > k[0]]) - overhead
        if isinstance(attr, (int, float)):
            row["attr"] += attr
    ref = out["harness.reference_run"]
    for rec in spans:
        if rec[3] != "harness.run_experiment":
            continue
        solves = [c for c in children[rec[0]] if c[3] in SOLVER_SPANS]
        if solves:
            longest = max(solves, key=lambda c: (c[7] or 0, c[6] - c[5]))
            ref["calls"] += 1
            ref["total_s"] += longest[6] - longest[5]
    return dict(out)

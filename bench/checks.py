"""Correctness checks made apart from the library.

Every formula here is plain numpy written from the definitions of the loss and
the penalties; nothing is imported from ``piecewise_prox``.  A failed check
raises :class:`CheckFailed` naming what disagreed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Objective match between the library's final_objective and the recomputation.
OBJECTIVE_RTOL = 1e-9
# Allowed rise between consecutive objective values, relative to |F(x0)|: the
# library sums the same terms in another order, so equal values can differ in
# the last bits.
MONOTONE_RTOL = 1e-12
# Slack on the capped-l1 first-order conditions beyond the stop tolerance, for
# the rounding between the library's gradient and the one below.
STATIONARY_ATOL = 1e-12


class CheckFailed(Exception):
    """A solver result disagrees with an independent computation."""


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def loss_value(kind: str, X, y, x) -> float:
    """||y - X x||^2, or mean log(1 + exp(-y X x)) through logaddexp."""
    z = X @ x
    if kind == "least-squares":
        r = y - z
        return float(r @ r)
    return float(np.mean(np.logaddexp(0.0, -y * z)))


def loss_gradient(kind: str, X, y, x) -> np.ndarray:
    z = X @ x
    if kind == "least-squares":
        return 2.0 * (X.T @ (z - y))
    # d/dz log(1 + exp(-y z)) = -y / (1 + exp(y z))
    return X.T @ (-y * np.exp(-np.logaddexp(0.0, y * z))) / len(y)


def lipschitz(kind: str, X) -> float:
    """Exact gradient Lipschitz constant from the top eigenvalue of the Gram
    matrix (the smaller of X^T X and X X^T)."""
    n, d = X.shape
    gram = X.T @ X if d <= n else X @ X.T
    top = float(np.linalg.eigvalsh(gram)[-1])
    return 2.0 * top if kind == "least-squares" else top / (4.0 * n)


# ---------------------------------------------------------------------------
# penalties (per-coordinate values)
# ---------------------------------------------------------------------------


def capped_l1(x, lam: float, b: float):
    return lam * np.minimum(np.abs(x), b)


def l0(x, lam: float):
    return lam * (x != 0.0)


def indicator(x, lam: float, tau: float):
    return lam * (x < tau)


def capped_pseudo_huber(x, lam: float, b: float):
    """lam * (sqrt(1 + x^2) - 1) inside [-b, b], held at its value at b outside."""
    c = np.minimum(np.abs(x), b)
    return lam * (np.sqrt(1.0 + c * c) - 1.0)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_objective(trace, kind: str, X, y, penalty, label: str) -> None:
    """final_objective equals g(final_x) + sum penalty(final_x) to 1e-9 relative."""
    x = np.asarray(trace.final_x, dtype=float)
    want = loss_value(kind, X, y, x) + float(np.sum(penalty(x)))
    got = float(trace.final_objective)
    if not abs(got - want) <= OBJECTIVE_RTOL * abs(want):
        raise CheckFailed(f"{label}: final_objective {got!r} but recomputed {want!r}")


def check_monotone(trace, label: str) -> None:
    """The objective column never rises (all three methods, s <= 1/L_g)."""
    F = np.asarray(trace.objective, dtype=float)
    if not np.all(np.isfinite(F)):
        raise CheckFailed(f"{label}: non-finite objective value")
    rise = np.diff(F)
    slack = MONOTONE_RTOL * max(1.0, abs(float(F[0])))
    bad = np.flatnonzero(rise > slack)
    if bad.size:
        k = int(bad[0]) + 1
        raise CheckFailed(f"{label}: objective rises at row {k} by {float(rise[k - 1])!r}")


def check_step(trace, L_true: float, label: str) -> None:
    if not float(trace.s) <= 1.0 / L_true:
        raise CheckFailed(f"{label}: step {trace.s!r} exceeds 1/L_true = {1.0 / L_true!r}")


def check_trace(trace, kind: str, X, y, penalty, L_true: float, label: str) -> None:
    check_objective(trace, kind, X, y, penalty, label)
    check_monotone(trace, label)
    check_step(trace, L_true, label)


def check_capped_l1_stationary(kind: str, X, y, x, lam: float, b: float,
                               tol: float, label: str) -> None:
    """First-order conditions of g + lam*min(|x|, b) on the pieces of x.

    At 0: |grad_i| <= lam.  On 0 < |x_i| <= b: |grad_i + lam sign(x_i)| small.
    Beyond b: |grad_i| small.  "Small" is the stop tolerance the solver used,
    which bounds every coordinate of its stationarity residual.
    """
    x = np.asarray(x, dtype=float)
    g = loss_gradient(kind, X, y, x)
    a = np.abs(x)
    zero = a == 0.0
    inside = (a > 0.0) & (a <= b)
    beyond = a > b
    excess = np.concatenate([
        np.abs(g[zero]) - (lam + tol),
        np.abs(g[inside] + lam * np.sign(x[inside])) - tol,
        np.abs(g[beyond]) - tol,
    ])
    if excess.size and float(excess.max()) > STATIONARY_ATOL:
        i = int(np.argmax(excess))
        raise CheckFailed(f"{label}: capped-l1 first-order condition off by "
                          f"{float(excess[i])!r} beyond tolerance {tol!r}")


def check_experiment_files(out_dir, names, K: int, label: str) -> None:
    """report.json parses and each trace CSV has K + 1 data rows."""
    out = Path(out_dir)
    try:
        doc = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{label}: report.json unreadable: {exc}") from None
    if len(doc.get("solvers", ())) != len(names):
        raise CheckFailed(f"{label}: report.json lists {len(doc.get('solvers', ()))} "
                          f"solvers, expected {len(names)}")
    for name in names:
        try:
            with open(out / f"trace_{name}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            raise CheckFailed(f"{label}: trace_{name}.csv unreadable: {exc}") from None
        if len(rows) - 1 != K + 1:
            raise CheckFailed(f"{label}: trace_{name}.csv has {len(rows) - 1} rows, "
                              f"expected {K + 1}")


def check_same_columns(a, b, label: str) -> None:
    """Two objective columns agree value for value to 1e-9 relative."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise CheckFailed(f"{label}: columns have shapes {a.shape} and {b.shape}")
    gap = np.abs(a - b) - OBJECTIVE_RTOL * np.abs(b)
    if np.any(gap > 0.0):
        k = int(np.argmax(gap))
        raise CheckFailed(f"{label}: row {k} differs: {float(a[k])!r} vs {float(b[k])!r}")


def check_crossing(trace, label: str) -> None:
    """ppgd accepted at least one crossing onto a new piece."""
    if "nce-accept" not in trace.nce_outcomes:
        raise CheckFailed(f"{label}: no accepted crossing (nce-accept) in the run")


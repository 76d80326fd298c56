"""Closed-form proximal kernels for surrogate penalty functions.

Each kernel evaluates ``argmin_v (1/2s)(v - x)^2 + f(v)`` for one family of
surrogate shapes.  Whenever the minimizer is not unique the kernel applies the
library-wide tie rule: among global minimizers prefer the one with smaller
absolute value, then the smaller value.  This keeps solver traces reproducible
across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProxKernel",
    "identity_kernel",
    "linear_shift_kernel",
    "soft_threshold_kernel",
    "indicator_snap_kernel",
    "hard_threshold_kernel",
    "quadratic_kernel",
    "tie_break",
]


def tie_break(a: float, b: float) -> float:
    """Pick between two global minimizers: smaller |v| first, then smaller v."""
    return min(a, b, key=lambda v: (abs(v), v))


@dataclass(frozen=True)
class ProxKernel:
    """A registered closed-form prox map.

    kind is one of ``identity``, ``linear-shift``, ``soft-threshold``,
    ``indicator-snap``, ``hard-threshold`` or ``quadratic``; ``params`` holds
    the scalars listed below for that kind.
    """

    kind: str
    params: tuple = ()

    def prox(self, x, s: float):
        """Vectorized prox of ``s * f`` at x (x scalar or ndarray)."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        out = _DISPATCH[self.kind](np.atleast_1d(arr), float(s), self.params)
        return float(out[0]) if scalar else out

    def __str__(self):
        if not self.params:
            return self.kind
        inner = ", ".join(f"{p:g}" for p in self.params)
        return f"{self.kind}({inner})"


def _prox_identity(x, s, params):
    return x.copy()


def _prox_linear_shift(x, s, params):
    (slope,) = params
    return x - s * slope


def _prox_soft(x, s, params):
    (lam,) = params
    return np.sign(x) * np.maximum(np.abs(x) - lam * s, 0.0) + 0.0  # -0.0 -> 0.0


def _prox_quadratic(x, s, params):
    # f(v) = a v^2 + b v (+ const): minimize (v-x)^2/(2s) + f(v) in closed form.
    a, b = params
    return (x - s * b) / (1.0 + 2.0 * a * s)


def _prox_indicator_snap(x, s, params):
    # Step surrogate: f(v) = c + jump on the high side of tau, c on the other.
    # high_side = -1 means the high constant sits on v < tau.  Points within
    # the reach t of tau on the high side snap to tau; t itself is a tie.
    jump, tau, high_side = params
    t = tau + high_side * math.sqrt(2.0 * jump * s)
    out = x.copy()
    out[(x > min(t, tau)) & (x < max(t, tau))] = tau
    out[x == t] = tie_break(t, tau)
    return out


def _prox_hard(x, s, params):
    # Point surrogate: f(v) = c + jump_left for v < q, c at q, c + jump_right
    # for v > q.  Staying costs the side jump, snapping costs (x-q)^2/(2s).
    q, jump_left, jump_right = params
    d2 = (x - q) ** 2
    reach = np.where(x < q, 2.0 * jump_left * s, 2.0 * jump_right * s)
    off = x != q
    out = np.where(off & (d2 < reach), q, x)
    for i in np.flatnonzero(off & (d2 == reach)):
        out[i] = tie_break(q, float(x[i]))
    return out


_DISPATCH = {
    "identity": _prox_identity,
    "linear-shift": _prox_linear_shift,
    "soft-threshold": _prox_soft,
    "quadratic": _prox_quadratic,
    "indicator-snap": _prox_indicator_snap,
    "hard-threshold": _prox_hard,
}


def identity_kernel() -> ProxKernel:
    return ProxKernel("identity")


def linear_shift_kernel(slope: float) -> ProxKernel:
    if slope == 0.0:
        return identity_kernel()
    return ProxKernel("linear-shift", (float(slope),))


def soft_threshold_kernel(lam: float) -> ProxKernel:
    return ProxKernel("soft-threshold", (float(lam),))


def indicator_snap_kernel(jump: float, tau: float, high_side: int) -> ProxKernel:
    return ProxKernel("indicator-snap", (float(jump), float(tau), float(high_side)))


def hard_threshold_kernel(q: float, jump_left: float, jump_right: float) -> ProxKernel:
    return ProxKernel("hard-threshold", (float(q), float(jump_left), float(jump_right)))


def quadratic_kernel(a: float, b: float) -> ProxKernel:
    return ProxKernel("quadratic", (float(a), float(b)))

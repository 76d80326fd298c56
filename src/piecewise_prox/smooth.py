"""Smooth convex losses with gradients and Lipschitz bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "SmoothLoss", "least_squares", "logistic_loss", "spectral_norm"]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix (n x d) and label vector (n,)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"features must be a nonempty 2-d array, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"labels shape {y.shape} does not match {X.shape[0]} rows")
        for name, a in (("features", X), ("labels", y)):  # min/max: no n x d temporary
            if not (math.isfinite(a.min()) and math.isfinite(a.max())):
                raise ValueError(f"{name} must be finite (found NaN or inf)")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def require_binary_labels(self):
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("classification labels must be exactly +-1")


# Largest min(n, d) whose Gram matrix is formed (8 * m^2 bytes, 18 MB here).
# An estimate, not a benchmarked choice: no benchmark workload has min(n, d)
# above it, so the Lanczos path below runs only in tests.  Timed on Gaussian
# matrices alone, the two paths cost the same near m = 1500 with the long
# side 10^4, but the crossover moves with the long side: Lanczos was faster
# at every m from 1000 to 2000 with it 3000, Gram at every such m with it
# 3 * 10^4.
_GRAM_CAP = 1500
# Lanczos steps above the cap, and the chance the returned value is still low.
_LANCZOS_STEPS = 60
_FAIL_PROB = 1e-10


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value of A (exact, or an upper bound above the cap).

    With m = min(n, d) at most ``_GRAM_CAP``, this is sqrt of the top
    eigenvalue of the smaller Gram matrix (A^T A or A A^T): exact up to
    rounding.  Above the cap it runs up to 60 Lanczos steps on the smaller
    side from a seeded Gaussian start, with full reorthogonalization, and
    returns sqrt(theta / (1 - eps)), theta the top Ritz value and
    sqrt(eps) = ln(1.648 sqrt(m) / 1e-10) / (2k - 1), k = 60.  By
    Kuczynski & Wozniakowski (SIAM J. Matrix Anal. Appl. 1992) that is an
    upper bound on sigma_max with probability at least 1 - 1e-10 over the
    start; at m = 1000 it is about 3% above.  The start is fixed, so the
    result is deterministic.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    B = A if A.shape[1] <= A.shape[0] else A.T  # m = min(n, d) columns
    m = B.shape[1]
    if m <= _GRAM_CAP:
        return math.sqrt(max(float(np.linalg.eigvalsh(B.T @ B)[-1]), 0.0))
    theta = _lanczos_top(lambda v: B.T @ (B @ v), m)
    root_eps = math.log(1.648 * math.sqrt(m) / _FAIL_PROB) / (2 * _LANCZOS_STEPS - 1)
    return math.sqrt(theta / (1.0 - root_eps**2))


def _lanczos_top(apply, m: int) -> float:
    """Top Ritz value of the symmetric PSD operator ``apply`` on R^m.

    Runs min(m, ``_LANCZOS_STEPS``) steps, fewer when the Krylov space turns
    invariant (beta numerically zero).  Either way the space stops growing,
    so the Ritz value equals the one ``_LANCZOS_STEPS`` steps would give.
    """
    Q = np.empty((_LANCZOS_STEPS, m))
    q = np.random.default_rng(0).standard_normal(m)
    q /= np.linalg.norm(q)
    alphas, betas = [], []
    for j in range(min(m, _LANCZOS_STEPS)):
        Q[j] = q
        w = apply(q)
        alphas.append(float(q @ w))
        # full reorthogonalization, twice for a numerically orthonormal basis
        for _ in range(2):
            w -= Q[: j + 1].T @ (Q[: j + 1] @ w)
        beta = float(np.linalg.norm(w))
        if beta <= 1e-12 * max(alphas):
            break
        betas.append(beta)
        q = w / beta
    k = len(alphas)
    T = np.diag(alphas) + np.diag(betas[: k - 1], 1) + np.diag(betas[: k - 1], -1)
    return max(float(np.linalg.eigvalsh(T)[-1]), 0.0)


def _log1pexp(t: np.ndarray) -> np.ndarray:
    # log(1 + exp(t)) without overflow: exp only ever sees -|t|
    tail = np.abs(t)
    np.log1p(np.exp(np.negative(tail, out=tail), out=tail), out=tail)
    tail += np.maximum(t, 0.0)
    return tail


@dataclass(frozen=True, eq=False)
class SmoothLoss:
    """Smooth convex loss with a certified gradient Lipschitz bound.

    kind ``least-squares``: g(x) = ||y - D x||^2, grad = 2 D^T (D x - y),
    L = 2 sigma_max(D)^2.  kind ``logistic``: g(x) = mean log(1 + exp(-y a^T x)),
    grad = -mean y sigmoid(-y a^T x) a, L = sigma_max(A)^2 / (4 n).
    sigma_max comes from ``spectral_norm``: exact up to rounding when
    min(n, d) <= 1500 (the smaller Gram matrix), above that a Lanczos upper
    bound about 3% high that holds with probability 1 - 1e-10.  So L bounds
    the gradient's Lipschitz constant from above, and the default step
    1 / (2 L) is at most 1 / (2 L_true).  Logistic values take
    log(1 + exp(-m)) of each margin m as
    max(-m, 0) + log1p(exp(-|m|)), which never overflows and is the
    asymptotic linear branch -m for large negative margins.

    ``value`` and ``gradient`` read the data only through the product X @ x
    (X the feature matrix).  A caller that already holds it passes it as
    ``Xx`` and the product is not taken again; the result is the same as
    without it when ``Xx`` equals ``X @ x`` bit for bit.
    """

    kind: str
    data: Dataset
    lipschitz: float

    @property
    def d(self) -> int:
        return self.data.d

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.data.d,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.data.d},)")
        return x

    def _product(self, x, Xx) -> np.ndarray:
        x = self._check(x)
        if Xx is None:
            return self.data.features @ x
        Xx = np.asarray(Xx, dtype=float)
        if Xx.shape != (self.data.n,):
            raise ValueError(f"Xx has shape {Xx.shape}, expected ({self.data.n},)")
        return Xx

    def value(self, x, Xx=None) -> float:
        Xx = self._product(x, Xx)
        y = self.data.labels
        if self.kind == "least-squares":
            r = y - Xx
            return float(r @ r)
        t = y * Xx  # the margins, then negated; add.reduce / n is np.mean's division
        return float(np.add.reduce(_log1pexp(np.negative(t, out=t))) / self.data.n)

    def gradient(self, x, Xx=None) -> np.ndarray:
        Xx = self._product(x, Xx)
        return self.data.features.T @ self._weights(Xx)

    def _gradients(self, P: np.ndarray) -> np.ndarray:
        """Gradients at the rows of P (k x d), as rows: one P @ X^T, one R @ X."""
        X = self.data.features
        return self._weights(P @ X.T) @ X

    def _weights(self, Xx: np.ndarray) -> np.ndarray:
        """The r with gradient X^T r, from products X @ x along the last axis."""
        y = self.data.labels
        if self.kind == "least-squares":
            return 2.0 * (Xx - y)
        # -y * sigmoid(-margins) / n in one buffer, with sigmoid(t) = 0.5 (1 + tanh(t/2)),
        # overflow-safe for any t; -(y * a) rounds as (-y) * a, so the bits stay
        r = y * Xx
        np.tanh(np.multiply(np.negative(r, out=r), 0.5, out=r), out=r)
        r += 1.0
        r *= 0.5
        np.negative(np.multiply(r, y, out=r), out=r)
        r /= self.data.n
        return r

    def lipschitz_bound(self) -> float:
        return self.lipschitz


def least_squares(data: Dataset) -> SmoothLoss:
    L = 2.0 * spectral_norm(data.features) ** 2
    return SmoothLoss("least-squares", data, L)


def logistic_loss(data: Dataset) -> SmoothLoss:
    data.require_binary_labels()
    L = spectral_norm(data.features) ** 2 / (4.0 * data.n)
    return SmoothLoss("logistic", data, L)

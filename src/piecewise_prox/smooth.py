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


def spectral_norm(A: np.ndarray, iters: int = 100, tol: float = 1e-8) -> float:
    """Largest singular value by power iteration on A^T A (deterministic start)."""
    A = np.asarray(A, dtype=float)
    d = A.shape[1]
    v = np.ones(d) / math.sqrt(d)
    sigma = 0.0
    for _ in range(iters):
        w = A.T @ (A @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        sigma_new = math.sqrt(norm)
        if abs(sigma_new - sigma) <= tol * max(sigma_new, 1.0):
            return sigma_new
        v, sigma = v_new, sigma_new
    return sigma


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # 0.5 * (1 + tanh(t/2)) is overflow-safe for any t
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def _log1pexp(t: np.ndarray) -> np.ndarray:
    # log(1 + exp(t)) without overflow: exp only ever sees -|t|
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


@dataclass(frozen=True, eq=False)
class SmoothLoss:
    """Smooth convex loss with a certified gradient Lipschitz bound.

    kind ``least-squares``: g(x) = ||y - D x||^2, grad = 2 D^T (D x - y),
    L = 2 sigma_max(D)^2.  kind ``logistic``: g(x) = mean log(1 + exp(-y a^T x)),
    grad = -mean y sigmoid(-y a^T x) a, L = sigma_max(A)^2 / (4 n).  Logistic
    values take log(1 + exp(-m)) of each margin m as
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
        margins = y * Xx
        return float(np.mean(_log1pexp(-margins)))

    def gradient(self, x, Xx=None) -> np.ndarray:
        Xx = self._product(x, Xx)
        X, y = self.data.features, self.data.labels
        if self.kind == "least-squares":
            return 2.0 * (X.T @ (Xx - y))
        margins = y * Xx
        w = -y * _sigmoid(-margins) / self.data.n
        return X.T @ w

    def lipschitz_bound(self) -> float:
        return self.lipschitz


def least_squares(data: Dataset) -> SmoothLoss:
    L = 2.0 * spectral_norm(data.features) ** 2
    return SmoothLoss("least-squares", data, L)


def logistic_loss(data: Dataset) -> SmoothLoss:
    data.require_binary_labels()
    L = spectral_norm(data.features) ** 2 / (4.0 * data.n)
    return SmoothLoss("logistic", data, L)

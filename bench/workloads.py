"""The benchmark workloads: their inputs, penalties and reference formulas.

Each workload solves one fixed problem, generated by ``synth`` with a fixed
data seed, so that iteration counts and per-iteration costs are comparable
between runs.  The run's ``--seed`` draws the order of the rows of the data
matrix: every seed hands the library different arrays that pose the same
problem, and the solvers take the same path up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    loss: str  # "logistic" or "least-squares"
    data: dict  # keyword arguments of piecewise_prox.synth
    penalty: str  # "capped-l1" or "mixed"
    lam: float
    b: float
    K: int  # iterations of each fixed-K solver call
    calls_per_round: int  # fixed-K calls of each solver per run_experiment call
    stop_tol: float  # stationarity tolerance of the to-tolerance ppgd solve
    experiment_K: int  # K of each solver inside run_experiment
    checks_stationary: bool = False  # capped-l1 first-order conditions at stop
    checks_crossing: bool = False  # ppgd must accept a crossing
    checks_columns: bool = False  # run_experiment columns equal the direct calls

    @property
    def n(self) -> int:
        return self.data["n"]

    @property
    def d(self) -> int:
        return self.data["d"]

    def rows(self, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).permutation(self.n)

    def build_penalty(self, pp):
        """The penalty handed to Problem: one PiecewiseFn or one per coordinate."""
        if self.penalty == "capped-l1":
            return pp.capped_l1(self.lam, self.b)
        groups = (pp.capped_l1(self.lam, self.b), pp.l0_penalty(self.lam),
                  pp.indicator_penalty(self.lam), capped_pseudo_huber(pp, self.lam, self.b))
        return [groups[g] for g in mixed_groups(self.d)]

    def penalty_formula(self):
        """Per-coordinate penalty values, written apart from the library."""
        lam, b = self.lam, self.b
        if self.penalty == "capped-l1":
            return lambda x: checks.capped_l1(x, lam, b)
        group = mixed_groups(self.d)

        def mixed(x):
            return np.select([group == 0, group == 1, group == 2],
                             [checks.capped_l1(x, lam, b), checks.l0(x, lam),
                              checks.indicator(x, lam, 0.0)],
                             checks.capped_pseudo_huber(x, lam, b))

        return mixed

    def experiment_config(self, output_dir: str) -> dict:
        """run_experiment takes built-in penalties only, so every workload's
        experiment runs capped-l1 with the workload's lam and b on its data."""
        kind = "synth-classification" if self.loss == "logistic" else "synth-regression"
        return {
            "loss": self.loss,
            "penalty": {"kind": "capped-l1", "params": {"lam": self.lam, "b": self.b}},
            "data": {"kind": kind, **{k: v for k, v in self.data.items() if k != "kind"}},
            "solvers": [{"name": name, "K": self.experiment_K} for name in SOLVERS],
            "output_dir": output_dir,
        }


SOLVERS = ("ppgd", "apg", "pgd")

# Iteration cap of every to-tolerance solve; no workload reaches it.
CAP_ITERS = 20000

# In a mixed penalty, every NUMERIC_EVERY-th coordinate gets the capped
# pseudo-Huber penalty, whose prox goes to the golden-section fallback.
NUMERIC_EVERY = 1000


def mixed_groups(d: int) -> np.ndarray:
    """Group of each coordinate of a mixed penalty: 0 capped-l1, 1 l0,
    2 indicator (j mod 3), and 3 capped pseudo-Huber on every
    NUMERIC_EVERY-th coordinate."""
    j = np.arange(d)
    return np.where(j % NUMERIC_EVERY == NUMERIC_EVERY - 1, 3, j % 3)


def capped_pseudo_huber(pp, lam: float, b: float):
    """lam * (sqrt(1 + x^2) - 1) on [-b, b], constant beyond: the middle piece
    is a plain callable, so its prox has no closed-form kernel."""
    cap = lam * (math.sqrt(1.0 + b * b) - 1.0)
    specs = [
        pp.PieceSpec(-math.inf, -b, pp.Constant(cap)),
        pp.PieceSpec(-b, b, lambda x: lam * (np.sqrt(1.0 + x * x) - 1.0)),
        pp.PieceSpec(b, math.inf, pp.Constant(cap)),
    ]
    return pp.build_piecewise(specs, ["continuous", "continuous"])


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="desk-logistic",
            loss="logistic",
            data=dict(kind="classification", n=10000, d=64, sparsity=0.0625, noise=0.5,
                      seed=1, feature_scale=2.0),
            penalty="capped-l1", lam=0.2, b=0.4,
            K=50, calls_per_round=1, stop_tol=1e-8, experiment_K=50,
            checks_stationary=True, checks_columns=True,
        ),
        Workload(
            name="wide-mixed",
            loss="least-squares",
            data=dict(kind="regression", n=1000, d=10000, sparsity=0.01, noise=0.1,
                      seed=2, feature_scale=1.0 / math.sqrt(1000)),
            penalty="mixed", lam=0.05, b=0.5,
            K=10, calls_per_round=3, stop_tol=0.2, experiment_K=5,
            checks_crossing=True,
        ),
    )
}

"""Print one sha256 digest per solver trace, to compare traces between trees.

Runs the traces that must stay bit-identical across a change:

* the 60 tier-1 seeded traces: the 20 ``_seeded_problems`` of
  tests/test_acceptance.py, each solved by ``ppgd``, ``apg_monotone`` and
  ``pgd`` from zero with K = 150;
* both benchmark workloads of bench/workloads.py at row seeds 1-5: the
  to-tolerance ``ppgd`` solve and one fixed-K call of each solver;
* each workload's experiment problem, as ``build_problem`` makes it from the
  workload's ``experiment_config``: one call of each solver with the
  reference run's length, ``reference_multiple`` x ``experiment_K``.

Each line ends with the digest.  Before it stand the final objective
(``F=``, its repr), the number of piece transitions and the count of each
outcome label, so a diff shows how a changed trace moved.  A digest covers
the objective and surrogate columns, the transitions, the outcome labels, the
iterates and ``final_residual``; timings are off.  The script imports the
library from the ``src/`` of its own tree and reads bench/ and tests/ without
writing there.  To check a change, run this version of the script in both
trees (copy it into the other tree if that one predates it) and diff the
outputs::

    python3 tools/trace_digest.py > after.txt
    cp tools/trace_digest.py ../parent/tools/
    (cd ../parent && python3 tools/trace_digest.py) > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/ or tests/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import piecewise_prox as pp  # noqa: E402
from test_acceptance import _seeded_problems  # noqa: E402
from workloads import CAP_ITERS, WORKLOADS  # noqa: E402

SOLVERS = {"ppgd": pp.ppgd, "apg": pp.apg_monotone, "pgd": pp.pgd}
SEEDS = range(1, 6)


def digest(trace) -> str:
    h = hashlib.sha256()
    for column in (trace.objective, trace.surrogate_objective, trace.transitions,
                   trace.iterates, np.float64(trace.final_residual)):
        h.update(np.ascontiguousarray(column).tobytes())
    h.update("\n".join(trace.nce_outcomes).encode())
    return h.hexdigest()


def describe(trace) -> str:
    """Final F, transition count, outcome counts and digest of one trace."""
    outcomes = Counter(trace.nce_outcomes[1:])
    counts = ",".join(f"{label}:{n}" for label, n in sorted(outcomes.items()))
    return (f"F={trace.final_objective!r} transitions={int(trace.n_transitions[-1])} "
            f"outcomes={counts} {digest(trace)}")


def workload_problem(wl, seed: int):
    """The benchmark's problem for one workload and row seed."""
    data, _ = pp.synth(**wl.data)
    rows = wl.rows(seed)
    make_loss = pp.logistic_loss if wl.loss == "logistic" else pp.least_squares
    return pp.Problem(make_loss(pp.Dataset(data.features[rows], data.labels[rows])),
                      wl.build_penalty(pp))


def main() -> None:
    for seed, prob in _seeded_problems():
        for name, solver in SOLVERS.items():
            trace = solver(prob, np.zeros(prob.d), K=150, record_timing=False)
            print(f"tier1 seed={seed} {name} K=150 {describe(trace)}")
    for wl in WORKLOADS.values():
        for seed in SEEDS:
            prob = workload_problem(wl, seed)
            x0 = np.zeros(wl.d)
            trace = pp.ppgd(prob, x0, K=CAP_ITERS, stop_tol=wl.stop_tol, record_timing=False)
            print(f"{wl.name} seed={seed} ppgd to-tol iters={int(trace.k[-1])} {describe(trace)}")
            for name, solver in SOLVERS.items():
                trace = solver(prob, x0, K=wl.K, record_timing=False)
                print(f"{wl.name} seed={seed} {name} K={wl.K} {describe(trace)}")
    for wl in WORKLOADS.values():
        # build_problem reads the config's data and penalty; nothing is written
        cfg = pp.ExperimentConfig.from_dict(wl.experiment_config("unused"))
        prob, x0 = pp.build_problem(cfg)
        K = cfg.reference_multiple * wl.experiment_K
        for name, solver in SOLVERS.items():
            trace = solver(prob, x0, K=K, record_timing=False)
            print(f"{wl.name} experiment {name} K={K} {describe(trace)}")


if __name__ == "__main__":
    main()

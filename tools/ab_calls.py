"""Time the solvers of two trees against each other in one process.

Imports the library of a base tree and of a change tree under two package
names, builds each workload of bench/workloads.py once per side (row seed
1, as the benchmark's default run), and times the fixed-K calls of
``ppgd``, ``apg_monotone`` and ``pgd`` with the workload's K, and one
``run_experiment`` call of the workload's ``experiment_config`` (the
benchmark's ``experiment_s``), which writes into a temporary directory
outside both trees.  Each repetition makes every call once on each side,
back to back, and the side that goes first alternates between repetitions,
so both sides see the same phases of a noisy machine.  Prints, per workload
and call, each side's median milliseconds (and iterations per second for a
solver call), the change's median gain, and the number of repetitions in
which the change's call was the faster.

    python3 tools/ab_calls.py BASE_TREE [CHANGE_TREE] [--reps N] [--workload NAME]

CHANGE_TREE defaults to the tree holding this script; both are checkouts
with a ``src/piecewise_prox``.  The workloads come from this tree's bench/
and are only read.  No bytecode is written into either tree.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # a __pycache__ in a tree moves the benchmark's peak RSS
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SOLVERS = {"ppgd": "ppgd", "apg": "apg_monotone", "pgd": "pgd"}
SIDES = ("base", "change")


def load(tree: Path, name: str):
    """The library of ``tree`` imported as the package ``name``."""
    package = tree / "src" / "piecewise_prox"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def build(pp, wl):
    """The benchmark's problem for one workload at row seed 1."""
    data, _ = pp.synth(**wl.data)
    rows = wl.rows(1)
    make_loss = pp.logistic_loss if wl.loss == "logistic" else pp.least_squares
    return pp.Problem(make_loss(pp.Dataset(data.features[rows], data.labels[rows])),
                      wl.build_penalty(pp))


def compare(packages, wl, reps: int, out: Path) -> None:
    problems = [build(pp, wl) for pp in packages]
    x0 = np.zeros(wl.d)
    calls = {name: [functools.partial(getattr(pp, function), problem, x0, K=wl.K)
                    for pp, problem in zip(packages, problems)]
             for name, function in SOLVERS.items()}
    calls["experiment"] = [
        functools.partial(pp.run_experiment,
                          pp.ExperimentConfig.from_dict(wl.experiment_config(str(out / side))))
        for pp, side in zip(packages, SIDES)]
    seconds = {(name, side): [] for name in calls for side in SIDES}
    for rep in range(reps):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for name, sides in calls.items():
            for i in order:
                tic = time.perf_counter()
                sides[i]()
                seconds[name, SIDES[i]].append(time.perf_counter() - tic)
    for name in calls:
        base, change = seconds[name, "base"], seconds[name, "change"]
        mb, mc = statistics.median(base), statistics.median(change)
        wins = sum(c < b for b, c in zip(base, change))

        def rate(m):
            return f"{wl.K / m:8.1f} it/s" if name in SOLVERS else " " * 13

        print(f"{wl.name:14s} {name:10s} base {1e3 * mb:9.3f} ms {rate(mb)}   "
              f"change {1e3 * mc:9.3f} ms {rate(mc)}   "
              f"gain {100.0 * (mb / mc - 1.0):+6.1f}%   change won {wins}/{reps}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--reps", type=int, default=50)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    packages = [load(args.base.resolve(), "ab_base"), load(args.change.resolve(), "ab_change")]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix="ab_calls_") as out:
        for name in names:
            compare(packages, WORKLOADS[name], args.reps, Path(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

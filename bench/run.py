"""Benchmark of the three solvers, end to end and per layer.

Run one workload (the form the command in BENCHMARK.json takes):

    python3 bench/run.py --workload desk-logistic --seed 1 --seconds 55 --trace 0

or every workload, each in its own process, with a table of the results:

    python3 bench/run.py

With ``--trace 0`` the run measures the end-to-end metrics with no tracing.
With ``--trace 1`` it wraps the library's public functions (see tracing.py),
repeats whole passes, and reports per-layer metrics per pass; the spans go to
``bench/out/spans-<workload>-seed<seed>.jsonl``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 1 when a correctness check fails and 2 when the library
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import CAP_ITERS, SOLVERS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SOLVER_FUNCTIONS = {"ppgd": "ppgd", "apg": "apg_monotone", "pgd": "pgd"}

END_TO_END = {
    "setup_s": "s",
    "ppgd.iter_per_s": "iter/s",
    "apg.iter_per_s": "iter/s",
    "pgd.iter_per_s": "iter/s",
    "ppgd.iters_to_tol": "count",
    "experiment_s": "s",
    "peak_rss_mb": "MB",
}


class Run:
    """One workload's problem and the operations timed on it.

    An operation is one solver call or one run_experiment call; each is
    counted in ``attempted``, and in ``failed`` when the library raises.
    """

    def __init__(self, pp, workload, seed: int, tracer=None):
        self.pp = pp
        self.wl = workload
        self.seed = seed
        self.rows = workload.rows(seed)
        self.tracer = tracer
        self.out_dir = OUT / f"{workload.name}-experiment"
        self.penalty = workload.penalty_formula()
        self.attempted = 0
        self.failed = 0
        self.problem = self.X = self.y = None
        self.L_true = None
        self.counts = Counter()  # read from the returned Traces when tracing

    def setup(self) -> float:
        """Data synthesis, loss (with its Lipschitz estimate), penalty and
        Problem; returns the seconds spent in the library."""
        pp, wl = self.pp, self.wl
        self.problem = self.X = self.y = None
        tic = time.perf_counter()
        data, _ = pp.synth(**wl.data)
        mid = time.perf_counter()
        X, y = data.features[self.rows], data.labels[self.rows]
        del data
        resume = time.perf_counter()
        make_loss = pp.logistic_loss if wl.loss == "logistic" else pp.least_squares
        problem = pp.Problem(make_loss(pp.Dataset(X, y)), wl.build_penalty(pp))
        toc = time.perf_counter()
        self.problem, self.X, self.y = problem, X, y
        if self.L_true is None:
            self.L_true = checks.lipschitz(wl.loss, X)
        return (mid - tic) + (toc - resume)

    def _operation(self, fn, *args, **kwargs):
        """Call the library once; returns (result, seconds) or (None, None)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        tic = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, and the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, None
        return result, time.perf_counter() - tic

    def _count(self, source, name, trace):
        """Per-layer counts read from a returned Trace (traced runs only).

        Outcomes, iterations and transitions come from the benchmark's direct
        calls; trace bytes from every Trace returned, whatever its fields.
        """
        if self.tracer is None:
            return
        c = self.counts
        c["trace bytes"] += sum(v.nbytes for v in vars(trace).values()
                                if isinstance(v, np.ndarray))
        if source != "direct":
            return
        if name == "ppgd":
            c.update(f"ppgd {o}" for o in trace.nce_outcomes[1:])
            c["ppgd iterations"] += int(trace.k[-1])
            c["ppgd transitions"] += int(trace.n_transitions[-1])
        elif name == "apg":
            c["apg revert"] += trace.nce_outcomes.count("revert")

    def _check(self, trace, label, penalty=None):
        checks.check_trace(trace, self.wl.loss, self.X, self.y, penalty or self.penalty,
                           self.L_true, f"{self.wl.name} {label}")

    def solve_to_tol(self):
        """ppgd with stop_tol; returns (iterations, seconds)."""
        wl = self.wl
        trace, seconds = self._operation(self.pp.ppgd, self.problem, np.zeros(wl.d),
                                         K=CAP_ITERS, stop_tol=wl.stop_tol)
        if trace is None:
            return None, None
        label = "ppgd to tolerance"
        self._check(trace, label)
        iterations = int(trace.k[-1])
        if iterations >= CAP_ITERS:
            raise checks.CheckFailed(f"{wl.name} {label}: hit the cap of {CAP_ITERS}")
        if wl.checks_stationary:
            checks.check_capped_l1_stationary(wl.loss, self.X, self.y, trace.final_x,
                                              wl.lam, wl.b, wl.stop_tol,
                                              f"{wl.name} {label}")
        self._count("direct", "ppgd", trace)
        return iterations, seconds

    def round(self) -> dict:
        """``calls_per_round`` fixed-K calls of each solver, then one
        run_experiment.

        Returns the seconds of every call, by solver and ``experiment``.
        """
        wl = self.wl
        figures = defaultdict(list)
        direct = {}
        for _ in range(wl.calls_per_round):
            for name in SOLVERS:
                solver = getattr(self.pp, SOLVER_FUNCTIONS[name])
                trace, seconds = self._operation(solver, self.problem, np.zeros(wl.d), K=wl.K)
                if trace is None:
                    continue
                self._check(trace, f"{name} K={wl.K}")
                if name == "ppgd" and wl.checks_crossing:
                    checks.check_crossing(trace, f"{wl.name} ppgd K={wl.K}")
                self._count("direct", name, trace)
                direct[name] = trace
                figures[name].append(seconds)

        cfg = self.pp.ExperimentConfig.from_dict(wl.experiment_config(str(self.out_dir)))
        report, seconds = self._operation(self.pp.run_experiment, cfg)
        if report is None:
            return figures
        figures["experiment"].append(seconds)
        label = f"{wl.name} run_experiment"
        experiment_penalty = lambda x: checks.capped_l1(x, wl.lam, wl.b)  # noqa: E731
        for name in SOLVERS:
            trace = report.traces[name]
            self._check(trace, f"run_experiment {name}", experiment_penalty)
            self._count("experiment", name, trace)
            if wl.checks_columns and name in direct:
                checks.check_same_columns(trace.objective, direct[name].objective,
                                          f"{label} {name} vs direct call")
        checks.check_experiment_files(self.out_dir, SOLVERS, wl.experiment_K, label)
        return figures


def _median(values):
    return statistics.median(values) if values else None


def _rate(K, seconds):
    return K / _median(seconds) if seconds else None


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics, tracing off; every timing is the median call of
    the run (see README, "Steadiness").

    The run's ``seconds`` start before its first set-up and cover the
    to-tolerance solve.  Rounds, each with a set-up of its own, follow while
    one more round as long as the last would end within ``seconds``; there is
    at least one.
    """
    start = time.perf_counter()
    setups = [run.setup()]
    iterations, to_tol_s = run.solve_to_tol()
    samples = defaultdict(list)
    round_s = []
    while True:
        tic = time.perf_counter()
        setups.append(run.setup())
        for key, values in run.round().items():
            samples[key].extend(values)
        round_s.append(time.perf_counter() - tic)
        if time.perf_counter() - start + round_s[-1] > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = (to_tol_s or 0.0) + _median(round_s)  # a round includes a set-up
    print(f"# {run.wl.name}: {len(round_s)} rounds; one set-up, to-tolerance solve and "
          f"median round take {pass_s:.3f}s", file=sys.stderr)
    values = {
        "setup_s": _median(setups),
        "ppgd.iter_per_s": _rate(run.wl.K, samples["ppgd"]),
        "apg.iter_per_s": _rate(run.wl.K, samples["apg"]),
        "pgd.iter_per_s": _rate(run.wl.K, samples["pgd"]),
        "ppgd.iters_to_tol": iterations,
        "experiment_s": _median(samples["experiment"]),
        "peak_rss_mb": peak_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def measure_traced(run: Run, tracer, seconds: float) -> dict:
    """Per-layer metrics per pass; a pass is one set-up, one to-tolerance
    solve and one round, all traced.  Passes follow while one more, as long
    as the last, would end within ``seconds``; there is at least one.  Spans
    are summarized and dropped after each pass; the span file holds the
    first pass."""
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{run.wl.name}-seed{run.seed}.jsonl"
    totals = defaultdict(Counter)
    passes = 0
    pass_s = []
    start = time.perf_counter()
    while True:
        tic = time.perf_counter()
        run.setup()
        run.solve_to_tol()
        run.round()
        pass_s.append(time.perf_counter() - tic)
        if passes == 0:
            tracer.write(spans_path)
        for name, row in tracing.summarize(tracer.spans).items():
            totals[name].update(row)
        tracer.spans.clear()
        passes += 1
        if time.perf_counter() - start + pass_s[-1] > seconds:
            break
    print(f"# {run.wl.name}: {passes} traced passes, pass median {_median(pass_s):.3f}s, "
          f"first pass in {spans_path.relative_to(ROOT)}", file=sys.stderr)
    return layer_metrics(totals, run.counts, passes)


def layer_metrics(totals: dict, counts: Counter, passes: int) -> dict:
    """Counts and self times per pass, plus counts read from the returned Traces."""
    def row(name):
        return totals.get(name, Counter())

    def calls(name):
        return row(name)["calls"] / passes

    def ms(name, key="self_s"):
        return row(name)[key] * 1e3 / passes

    def per_pass(key):
        return counts[key] / passes

    base = counts["ppgd iterations"]
    matvec_bytes = row("smooth.value")["attr"] + 2 * row("smooth.gradient")["attr"]

    values = {
        "smooth.value.calls": (calls("smooth.value"), "count"),
        "smooth.value.ms": (ms("smooth.value"), "ms"),
        "smooth.gradient.calls": (calls("smooth.gradient"), "count"),
        "smooth.gradient.ms": (ms("smooth.gradient"), "ms"),
        "smooth.matvecs": (calls("smooth.value") + 2 * calls("smooth.gradient"), "count"),
        "smooth.matvec_gb_computed": (matvec_bytes / 1e9 / passes, "GB"),
        "smooth.spectral_norm.calls": (calls("smooth.spectral_norm"), "count"),
        "smooth.spectral_norm.ms": (ms("smooth.spectral_norm"), "ms"),
        "piecewise.piece_index.calls": (calls("piecewise.piece_index"), "count"),
        "piecewise.piece_index.ms": (ms("piecewise.piece_index"), "ms"),
        "piecewise.evaluate.calls": (calls("piecewise.evaluate"), "count"),
        "piecewise.evaluate.ms": (ms("piecewise.evaluate"), "ms"),
        "kernels.prox.calls": (calls("kernels.prox"), "count"),
        "kernels.prox.ms": (ms("kernels.prox"), "ms"),
        "prox.prox_vector.calls": (calls("prox.prox_vector"), "count"),
        "prox.prox_vector.ms": (ms("prox.prox_vector"), "ms"),
        "prox.prox_true.calls": (calls("prox.prox_true"), "count"),
        "prox.prox_true.ms": (ms("prox.prox_true"), "ms"),
        "prox.numeric_coords": ((row("prox.prox_vector")["attr"]
                                 + row("prox.prox_true")["attr"]) / passes, "count"),
        "solvers.project.ms": (ms("solvers.project"), "ms"),
        "solvers.surrogates_for.ms": (ms("solvers.surrogates_for"), "ms"),
        "solvers.assignments.calls": (calls("solvers.assignments"), "count"),
        "solvers.assignments.ms": (ms("solvers.assignments"), "ms"),
        "solvers.surrogate_penalty.ms": (ms("solvers.surrogate_penalty"), "ms"),
        "solvers.stationarity_residual.calls": (calls("solvers.stationarity_residual"), "count"),
        "solvers.stationarity_residual.ms": (ms("solvers.stationarity_residual"), "ms"),
        "solvers.ppgd.self_ms": (ms("solvers.ppgd"), "ms"),
        "solvers.apg.self_ms": (ms("solvers.apg"), "ms"),
        "solvers.pgd.self_ms": (ms("solvers.pgd"), "ms"),
        "solvers.ppgd.useful_ratio": (
            (counts["ppgd same-piece"] + counts["ppgd nce-accept"]) / base if base else 0.0,
            "ratio"),
        "solvers.ppgd.ratio_base_iters": (per_pass("ppgd iterations"), "count"),
        "solvers.ppgd.guard_reject": (per_pass("ppgd guard-reject"), "count"),
        "solvers.ppgd.nce_reject": (per_pass("ppgd nce-reject"), "count"),
        "solvers.ppgd.transitions": (per_pass("ppgd transitions"), "count"),
        "solvers.apg.revert": (per_pass("apg revert"), "count"),
        "solvers.trace_mb": (per_pass("trace bytes") / 1e6, "MB"),
        "harness.build_problem.ms": (ms("harness.build_problem"), "ms"),
        "harness.reference_run.ms": (ms("harness.reference_run", "total_s"), "ms"),
        "harness.to_csv.ms": (ms("harness.to_csv"), "ms"),
        "harness.run_experiment.self_ms": (ms("harness.run_experiment"), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_one(args) -> int:
    if not (ROOT / "src" / "piecewise_prox" / "__init__.py").is_file():
        print(f"error: no library under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import piecewise_prox as pp

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, pp)
    run = Run(pp, WORKLOADS[args.workload], args.seed, tracer)
    try:
        if tracer is None:
            metrics = measure(run, args.seconds)
        else:
            metrics = measure_traced(run, tracer, args.seconds)
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": run.failed, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else {}
        except ValueError:
            result = {}
        print(f"{name}: correct={result.get('correct')} attempted={result.get('attempted')} "
              f"failed={result.get('failed')} exit={proc.returncode}")
        for metric, entry in result.get("metrics", {}).items():
            value = entry["value"]
            shown = f"{value:>14.6g}" if value is not None else f"{'-':>14}"
            print(f"  {metric:40s} {shown} {entry['unit']}")
        if proc.returncode != 0 or not result.get("correct"):
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

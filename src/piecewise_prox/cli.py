"""Command-line interface: solve, benchmark, prox-check, certify.

Exit codes: 0 success, 1 usage error, 2 runtime error (out of memory too),
each error with one line on stderr.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys

import numpy as np

from .piecewise import _BUILTINS

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="piecewise-prox",
                description="First-order solvers for piecewise convex regularized objectives")
    sub = p.add_subparsers(dest="command", metavar="{solve,benchmark,prox-check,certify}")

    ps = sub.add_parser("solve", help="run one solver on one problem", prog="piecewise-prox solve")
    ps.add_argument("--loss", choices=("logistic", "least-squares"), default="least-squares")
    ps.add_argument("--penalty", default="capped-l1", choices=tuple(_BUILTINS))
    # each penalty takes the flags named after its constructor's parameters
    ps.add_argument("--lam", type=float, default=0.2, help="penalty weight")
    ps.add_argument("--b", type=float, default=1.0, help="cap location for capped penalties")
    ps.add_argument("--tau", type=float, default=0.0, help="indicator threshold")
    ps.add_argument("--beta", type=float, default=0.1, help="leak slope beyond the cap")
    ps.add_argument("--data", default="synth-regression",
                    choices=("synth-classification", "synth-regression", "csv", "idx"))
    # a data flag left out takes the default of synth (here n, d = 200, 20) or subsample_binary
    ps.add_argument("--n", type=int, help="examples of synthetic data")
    ps.add_argument("--d", type=int, help="features of synthetic data")
    ps.add_argument("--sparsity", type=float, help="fraction of nonzero true coefficients")
    ps.add_argument("--noise", type=float, help="label noise scale")
    ps.add_argument("--seed", type=int, help="seed of the synthetic data or IDX subsample")
    ps.add_argument("--csv-path", help="CSV with the label in the last column")
    ps.add_argument("--images", help="IDX images path")
    ps.add_argument("--labels", help="IDX labels path")
    ps.add_argument("--class-a", type=int, help="positive class for IDX subsampling")
    ps.add_argument("--class-b", type=int, help="negative class for IDX subsampling")
    ps.add_argument("--per-class", type=int, help="examples per class of an IDX subsample")
    ps.add_argument("--solver", choices=("ppgd", "pgd", "apg"), default="ppgd")
    ps.add_argument("--s", type=float, help="step size (default 1/(2 L_g))")
    ps.add_argument("--w0", type=float, help="NCE acceptance fraction in (0,1] (ppgd only)")
    ps.add_argument("--iters", type=int, default=200, help="iteration count K")
    ps.add_argument("--stop-tol", type=float, help="early-stop residual tolerance (ppgd only)")
    ps.add_argument("--output-dir", default=".", help="where the trace CSV is written")

    pb = sub.add_parser("benchmark", help="run a config-driven experiment",
                        prog="piecewise-prox benchmark")
    pb.add_argument("--config", required=True, help="experiment config JSON path")
    pb.add_argument("--output-dir", help="output directory, in place of the config's output_dir")

    pp = sub.add_parser("prox-check", help="closed-form prox vs grid oracle table",
                        prog="piecewise-prox prox-check")
    pp.add_argument("--kernel", required=True,
                    choices=("identity", "soft-threshold", "linear-shift",
                             "indicator-snap", "hard-threshold"))
    pp.add_argument("--lam", type=float, default=0.2)
    pp.add_argument("--tau", type=float, default=0.0)
    pp.add_argument("--slope", type=float, default=0.5)
    pp.add_argument("--s", type=float, default=0.5)
    pp.add_argument("--n-draws", type=int, default=25)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--resolution", type=float, default=1e-5)

    pc = sub.add_parser("certify", help="evaluate the step-size certificate",
                        prog="piecewise-prox certify")
    pc.add_argument("--lg", type=float, required=True, help="gradient Lipschitz bound L_g")
    pc.add_argument("--g", type=float, required=True, help="level-set gradient bound G")
    pc.add_argument("--f0", type=float, required=True, help="penalty subgradient bound F0")
    pc.add_argument("--c", type=float, default=math.inf, help="slope-drop constant C (inf if none)")
    pc.add_argument("--j", type=float, default=math.inf, help="jump constant J (inf if none)")
    pc.add_argument("--eps0", type=float, help="nonvanishing-gradient margin at continuous endpoints")
    pc.add_argument("--s0", type=float, default=math.inf, help="differentiability margin")
    pc.add_argument("--r0", type=float, default=math.inf, help="minimum piece length")
    pc.add_argument("--w0", type=float, default=0.5)
    pc.add_argument("--dim", type=int, default=1)
    return p


def _cmd_solve(args) -> int:
    from .harness import _DATA_KEYS, ExperimentConfig, _data_keys, _run_one, build_problem

    if args.stop_tol is not None and args.solver != "ppgd":
        raise _UsageError("--stop-tol applies to --solver ppgd only")
    penalty_params = {name: getattr(args, name)
                      for name in inspect.signature(_BUILTINS[args.penalty]).parameters}

    # the data keys the flags give, the subsample's first, so that a misplaced
    # subsample flag is the one an error names
    flags = {"class_a": args.class_a, "class_b": args.class_b, "per_class": args.per_class,
             "seed": args.seed, "n": args.n, "d": args.d, "sparsity": args.sparsity,
             "noise": args.noise, "path": args.csv_path, "images": args.images,
             "labels": args.labels}
    data = {key: value for key, value in flags.items() if value is not None}
    required, optional = _data_keys(args.data, "class_a" in data)
    for key in data:
        if key not in required + optional:
            flag = "--csv-path" if key == "path" else "--" + key.replace("_", "-")
            kinds = [kind for kind in _DATA_KEYS if key in sum(_data_keys(kind, True), ())]
            if args.data in kinds:
                raise _UsageError(f"{flag} needs --class-a")
            raise _UsageError(f"{flag} applies to --data {' or '.join(kinds)} only")
    if args.data == "csv" and not args.csv_path:
        raise _UsageError("--csv-path is required with --data csv")
    if args.data == "idx" and not (args.images and args.labels):
        raise _UsageError("--images and --labels are required with --data idx")
    if args.data.startswith("synth"):
        data = {"n": 200, "d": 20, **data}

    cfg = ExperimentConfig.from_dict({
        "loss": args.loss,
        "penalty": {"kind": args.penalty, "params": penalty_params},
        "data": {"kind": args.data, **data},
        "solvers": [{"name": args.solver, "s": args.s, "w0": args.w0, "K": args.iters}],
        "output_dir": args.output_dir,
    })
    problem, x0 = build_problem(cfg)
    trace = _run_one(problem, x0, cfg.solvers[0], stop_tol=args.stop_tol)
    out = f"{args.output_dir}/trace_{args.solver}.csv"
    trace.to_csv(out)
    print(f"solver: {args.solver}")
    print(f"step size: {trace.s:.6g}")
    print(f"final objective: {trace.final_objective:.12g}")
    print(f"stationarity residual: {trace.final_residual:.6g}")
    print(f"transitions: {int(trace.n_transitions[-1])}")
    print(f"restarts: {trace.summary()['restarts']}")
    print(f"trace: {out}")
    return 0


def _cmd_benchmark(args) -> int:
    from .harness import ExperimentConfig, run_experiment

    with open(args.config) as fh:
        doc = json.load(fh)
    if args.output_dir is not None and isinstance(doc, dict):  # from_dict rejects the rest
        doc["output_dir"] = args.output_dir
    cfg = ExperimentConfig.from_dict(doc)
    report = run_experiment(cfg)
    for row in report.solvers:
        print(f"{row['solver']}: final F = {row['final_objective']:.9g}, "
              f"transitions = {row['n_transitions']}, k0 = {row['k0']}")
    print(f"report: {cfg.output_dir}/report.json")
    return 0


def _cmd_prox_check(args) -> int:
    from .piecewise import (Affine, PieceSpec, build_piecewise, indicator_penalty,
                            l0_penalty, l1_penalty, zero_penalty)
    from .prox import minimizer_halfwidth, prox_oracle, prox_surrogate

    # each --kernel name is a built-in surrogate, checked against an
    # independent definition of the same function
    if args.kernel == "identity":
        sur, f, slope_bound, jumps = (zero_penalty().surrogate(1),
                                      lambda v: np.zeros_like(v), 0.0, ())
    elif args.kernel == "soft-threshold":
        lam = args.lam
        sur, f, slope_bound, jumps = (l1_penalty(lam).surrogate(1),
                                      lambda v: lam * np.abs(v), lam, ())
    elif args.kernel == "linear-shift":
        c = args.slope
        line = build_piecewise([PieceSpec(-math.inf, math.inf, Affine(c, 0.0))], [])
        sur, f, slope_bound, jumps = (line.surrogate(1),
                                      lambda v: c * np.asarray(v, dtype=float), abs(c), ())
    elif args.kernel == "indicator-snap":
        lam, tau = args.lam, args.tau
        sur = indicator_penalty(lam, tau).surrogate(2)
        f = lambda v: lam * (np.asarray(v, dtype=float) < tau)  # noqa: E731
        slope_bound, jumps = 0.0, (tau,)
    else:
        lam = args.lam
        sur = l0_penalty(lam).surrogate(2)
        f = lambda v: lam * (np.asarray(v, dtype=float) != 0.0)  # noqa: E731
        slope_bound, jumps = 0.0, (0.0,)

    rng = np.random.default_rng(args.seed)
    xs = rng.uniform(-3.0, 3.0, size=args.n_draws)
    print("x,closed_form,oracle,gap")
    jump_bound = args.lam if jumps else 0.0
    for x in xs:
        closed = prox_surrogate(sur, args.s, float(x))
        hw = minimizer_halfwidth(slope_bound, jump_bound, jumps, args.s, float(x))
        orac = prox_oracle(f, args.s, float(x), hw, args.resolution)
        psi = lambda v: (v - x) ** 2 / (2 * args.s) + float(f(np.asarray(v)))  # noqa: E731
        gap = psi(closed) - psi(orac)
        print(f"{x:.9g},{closed:.9g},{orac:.9g},{gap:.3e}")
    return 0


def _cmd_certify(args) -> int:
    from .certificate import certify_step_size

    cert = certify_step_size(L_g=args.lg, G=args.g, F0=args.f0, C=args.c,
                             J=args.j, eps0=args.eps0, s0=args.s0, R0=args.r0,
                             w0=args.w0, d=args.dim)
    print(cert.describe())
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "benchmark": _cmd_benchmark,
    "prox-check": _cmd_prox_check,
    "certify": _cmd_certify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        handler = _COMMANDS[args.command]
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError, KeyError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

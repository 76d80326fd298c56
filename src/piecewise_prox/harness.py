"""Experiment harness: data ingestion, solver runs, trace export.

The benchmark entry point is :func:`run_experiment`, driven by an
``ExperimentConfig`` (JSON-friendly).  All solvers in one experiment observe
the identical Problem instance and starting point; each writes its own trace
CSV and the combined report is serialized as JSON.  With ``record_timing``
off, artifacts are byte-for-byte reproducible for a fixed config and seed.

Artifact schemas
----------------
Trace CSV: one row per iteration with columns
``k, F, F_surrogate_z, n_transitions_so_far, nce_flag, wall_ms`` (row 0 is the
starting point; ``F_surrogate_z`` is empty there).  Report JSON: a config echo
plus the reference objective and one ``Trace.summary()`` record per solver.
Config JSON keys: ``loss``, ``penalty {kind, params}``,
``data {kind, ...}``, ``solvers [{name, s, w0, K}]``, ``output_dir``,
``record_timing``, ``reference_multiple``.  Every run starts at zeros.
The config and each solver entry are JSON objects; ``loss``, ``penalty``,
``data``, ``output_dir`` and each solver's ``name`` are required, and the
penalty params are numbers that its builder takes.  The data keys are the
arguments of ``synth``, ``load_csv`` or ``subsample_binary`` (defaults there),
and ``images``/``labels`` for ``load_idx``; any other key is an error.
Solver names must be unique; each ``K`` and ``reference_multiple`` is an
integer >= 1, ``s`` is null (the default step) or a number, and ``w0`` is a
number in (0, 1].
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .piecewise import builtin_penalty
from .smooth import Dataset, least_squares, logistic_loss
from .solvers import Problem, Trace, apg_monotone, pgd, ppgd, stationarity_residual

__all__ = [
    "IdxFormatError",
    "load_idx",
    "write_idx",
    "subsample_binary",
    "load_csv",
    "synth",
    "ExperimentConfig",
    "SolverSpec",
    "Report",
    "build_problem",
    "run_experiment",
    "fit_rate",
]

_SOLVERS = {"ppgd": ppgd, "pgd": pgd, "apg": apg_monotone}

_IMAGES_MAGIC = 2051
_LABELS_MAGIC = 2049


class IdxFormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# data ingestion
# ---------------------------------------------------------------------------


def load_idx(images_path, labels_path) -> Dataset:
    """Parse a big-endian IDX image/label pair into a Dataset.

    Images: u32 magic 2051, count, rows, cols, then row-major u8 pixels scaled
    to [0, 1].  Labels: u32 magic 2049, count, then u8 labels.  Rejects magic
    mismatches, image/label count mismatches, and truncated or oversized
    payloads.
    """
    img = Path(images_path).read_bytes()
    lab = Path(labels_path).read_bytes()
    if len(img) < 16:
        raise IdxFormatError("images file truncated before the 16-byte header")
    magic, count, rows, cols = struct.unpack(">IIII", img[:16])
    if magic != _IMAGES_MAGIC:
        raise IdxFormatError(f"images magic {magic} != {_IMAGES_MAGIC}")
    expected = 16 + count * rows * cols
    if len(img) != expected:
        raise IdxFormatError(f"images payload is {len(img)} bytes, expected {expected}")
    if len(lab) < 8:
        raise IdxFormatError("labels file truncated before the 8-byte header")
    lmagic, lcount = struct.unpack(">II", lab[:8])
    if lmagic != _LABELS_MAGIC:
        raise IdxFormatError(f"labels magic {lmagic} != {_LABELS_MAGIC}")
    if len(lab) != 8 + lcount:
        raise IdxFormatError(f"labels payload is {len(lab)} bytes, expected {8 + lcount}")
    if lcount != count:
        raise IdxFormatError(f"image count {count} != label count {lcount}")
    if count == 0 or rows == 0 or cols == 0:
        raise IdxFormatError("empty IDX payload")
    pixels = np.frombuffer(img, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    labels = np.frombuffer(lab, dtype=np.uint8, offset=8)
    return Dataset(pixels.astype(float) / 255.0, labels.astype(float))


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray,
              rows: int, cols: int) -> None:
    """Inverse of load_idx for fixtures: images in [0, 1], shape (n, rows*cols)."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    n = images.shape[0]
    if images.shape != (n, rows * cols):
        raise ValueError("images shape does not match rows * cols")
    pix = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", _IMAGES_MAGIC, n, rows, cols))
        fh.write(pix.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", _LABELS_MAGIC, n))
        fh.write(labels.astype(np.uint8).tobytes())


def subsample_binary(data: Dataset, class_a, class_b, per_class: int = 5000,
                     seed: int = 0) -> Dataset:
    """Draw per_class examples of each class and remap labels to +-1.

    class_a maps to +1 and class_b to -1; the draw is deterministic under the
    seed.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for cls, sign in ((class_a, 1.0), (class_b, -1.0)):
        idx = np.flatnonzero(data.labels == cls)
        if idx.size < per_class:
            raise ValueError(f"class {cls} has {idx.size} examples, need {per_class}")
        take = rng.choice(idx, size=per_class, replace=False)
        parts.append((np.sort(take), sign))
    rows = np.concatenate([p[0] for p in parts])
    signs = np.concatenate([np.full(per_class, p[1]) for p in parts])
    order = rng.permutation(rows.size)
    return Dataset(data.features[rows[order]], signs[order])


def load_csv(path) -> Dataset:
    """Numeric CSV with the label in the last column."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            if not rec:
                continue
            try:
                rows.append([float(c) for c in rec])
            except ValueError:
                raise ValueError(f"{path}: non-numeric cell on line {lineno}") from None
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}: ragged row on line {lineno}")
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    if len(rows[0]) < 2:
        raise ValueError(f"{path}: need at least one feature column plus the label")
    arr = np.asarray(rows, dtype=float)
    return Dataset(arr[:, :-1], arr[:, -1])


def synth(kind: str, n: int, d: int, sparsity: float = 0.2, noise: float = 0.0,
          seed: int = 0, coeff_scale: float = 3.0,
          feature_scale: float = 1.0) -> tuple[Dataset, np.ndarray]:
    """Seeded synthetic data with a sparse ground truth.

    kind ``regression``: y = A x* + noise * eps.  kind ``classification``:
    y = sign(A x* + noise * eps) in {-1, +1}.  ``sparsity`` is the fraction of
    nonzero coefficients (at least one); nonzero magnitudes are uniform on
    [0.5, coeff_scale] with random signs; features are ``feature_scale`` times
    a seeded standard normal.  Returns (dataset, x_star).
    """
    if kind not in ("regression", "classification"):
        raise ValueError(f"unknown synth kind {kind!r}")
    rng = np.random.default_rng(seed)
    A = feature_scale * rng.standard_normal((n, d))
    k = max(1, int(round(sparsity * d)))
    support = rng.choice(d, size=k, replace=False)
    x_star = np.zeros(d)
    x_star[support] = rng.uniform(0.5, coeff_scale, size=k) * rng.choice((-1.0, 1.0), size=k)
    score = A @ x_star + noise * rng.standard_normal(n)
    if kind == "regression":
        return Dataset(A, score), x_star
    y = np.where(score >= 0.0, 1.0, -1.0)
    return Dataset(A, y), x_star


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


def _is_count(v, least: int = 1) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# the check of each top-level experiment setting
_SETTINGS = {
    "output_dir": (lambda v: isinstance(v, str), "a path string"),
    "record_timing": (lambda v: isinstance(v, bool), "true or false"),
    "reference_multiple": (_is_count, "an integer >= 1"),
}


@dataclass(frozen=True)
class SolverSpec:
    name: str
    s: Optional[float] = None
    w0: float = 0.5
    K: int = 100

    def __post_init__(self):
        if self.name not in _SOLVERS:
            raise ValueError(f"unknown solver {self.name!r}; expected one of {sorted(_SOLVERS)}")
        if not _is_count(self.K):
            raise ValueError(f"solver {self.name!r}: K must be an integer >= 1, got {self.K!r}")
        if self.s is not None and not _is_real(self.s):
            raise ValueError(f"solver {self.name!r}: s must be null or a number, got {self.s!r}")
        if not (_is_real(self.w0) and 0.0 < self.w0 <= 1.0):
            raise ValueError(f"solver {self.name!r}: w0 must be a number in (0, 1], "
                             f"got {self.w0!r}")


def _solver_spec(doc) -> SolverSpec:
    if not isinstance(doc, dict):
        raise ValueError(f"each solver entry must be a JSON object, got {doc!r}")
    fields = {f.name for f in dataclasses.fields(SolverSpec)}
    unknown = set(doc) - fields
    if unknown or "name" not in doc:
        raise ValueError(f"solver entry {doc!r} needs a name and only the keys {sorted(fields)}")
    return SolverSpec(**doc)


@dataclass(frozen=True)
class ExperimentConfig:
    loss: str
    penalty: dict
    data: dict
    solvers: tuple
    output_dir: str
    record_timing: bool = True
    reference_multiple: int = 5

    def __post_init__(self):
        for name in ("penalty", "data"):
            spec = getattr(self, name)
            if not isinstance(spec, dict) or "kind" not in spec:
                raise ValueError(f"{name} must be a JSON object with a kind, got {spec!r}")
        if not isinstance(self.penalty.get("params", {}), dict):
            raise ValueError(f"penalty params must be a JSON object, got {self.penalty['params']!r}")
        names = [spec.name for spec in self.solvers]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(f"solver names must be unique; repeated: {duplicates}")
        for name, (check, what) in _SETTINGS.items():
            if not check(getattr(self, name)):
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        if not isinstance(doc.get("solvers", []), list):
            raise ValueError(f"solvers must be a JSON list, got {doc['solvers']!r}")
        solvers = tuple(_solver_spec(s) for s in doc.get("solvers", []))
        if not solvers:
            raise ValueError("config needs at least one solver")
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(doc) - fields
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"loss", "penalty", "data", "output_dir"} - set(doc)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        kw = {k: v for k, v in doc.items() if k != "solvers"}
        return ExperimentConfig(solvers=solvers, **kw)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["solvers"] = list(doc["solvers"])  # from_dict takes a list, as JSON gives it
        return doc


# per data kind, the keys it requires and the keys it may also take, and the
# check of each key
_SYNTH_KEYS = (("n", "d"), ("sparsity", "noise", "seed", "coeff_scale", "feature_scale"))
_DATA_KEYS = {"synth-classification": _SYNTH_KEYS, "synth-regression": _SYNTH_KEYS,
              "csv": (("path",), ()), "idx": (("images", "labels"), ("class_a",))}
_DATA_VALUES = {
    **dict.fromkeys(("n", "d", "per_class"), (_is_count, "an integer >= 1")),
    **dict.fromkeys(("sparsity", "noise", "coeff_scale", "feature_scale", "class_a", "class_b"),
                    (_is_real, "a number")),
    "seed": (lambda v: _is_count(v, least=0), "an integer >= 0"),
    **dict.fromkeys(("path", "images", "labels"), (lambda v: isinstance(v, str), "a path string")),
}


def _load_dataset(cfg: ExperimentConfig) -> Dataset:
    spec = dict(cfg.data)
    kind = spec.pop("kind")
    if not isinstance(kind, str) or kind not in _DATA_KEYS:
        raise ValueError(f"unknown data kind {kind!r}")
    required, optional = _DATA_KEYS[kind]
    if kind == "idx" and "class_a" in spec:  # a two-class subsample
        required, optional = required + ("class_b",), optional + ("per_class", "seed")
    for key in required:
        if key not in spec:
            raise ValueError(f"data key {key!r} is required for kind {kind!r}")
    for key in spec:
        if key not in required + optional:
            raise ValueError(f"data key {key!r} is not taken by kind {kind!r}; "
                             f"it takes {sorted(required + optional)}")
        check, what = _DATA_VALUES[key]
        if not check(spec[key]):
            raise ValueError(f"data key {key!r} must be {what}, got {spec[key]!r}")
    if kind == "csv":
        return load_csv(**spec)
    if kind == "idx":
        data = load_idx(spec.pop("images"), spec.pop("labels"))
        return subsample_binary(data, **spec) if spec else data
    data, _ = synth(kind.removeprefix("synth-"), **spec)
    return data


def build_problem(cfg: ExperimentConfig) -> tuple[Problem, np.ndarray]:
    """Construct the shared Problem and starting point for a config."""
    data = _load_dataset(cfg)
    if cfg.loss == "logistic":
        loss = logistic_loss(data)
    elif cfg.loss == "least-squares":
        loss = least_squares(data)
    else:
        raise ValueError(f"unknown loss {cfg.loss!r}")
    penalty = builtin_penalty(cfg.penalty["kind"], **cfg.penalty.get("params", {}))
    problem = Problem(loss, penalty)
    return problem, np.zeros(problem.d)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class Report:
    config: dict
    reference_objective: float
    solvers: list  # per-solver summary dicts
    traces: dict  # name -> Trace

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "reference_objective": self.reference_objective,
            "solvers": self.solvers,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# rate fit and experiment
# ---------------------------------------------------------------------------

_FLOOR_SHIFT = 1e-12
_FLOOR_CUTOFF = 1e-11
_MIN_POINTS = 20


def fit_rate(trace, tail_fraction: float, f_ref: float) -> float:
    """Least-squares slope of log(F - F_ref') versus log k over the trace tail.

    ``f_ref`` should be the minimum objective of a several-times-longer
    reference run; it is shifted down by 1e-12 so exact convergence stays
    loggable.  Rows whose gap sits at the shift floor are treated as converged
    and dropped; if fewer than 20 fittable rows remain the run is reported as
    already converged with the sentinel slope -inf.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    k = np.asarray(trace.k, dtype=float)
    F = np.asarray(trace.objective, dtype=float)
    n = len(k)
    start = max(1, n - int(math.ceil(tail_fraction * n)))  # k = 0 never enters
    k = k[start:]
    F = F[start:]
    gaps = F - (f_ref - _FLOOR_SHIFT)
    usable = gaps > _FLOOR_CUTOFF
    if int(usable.sum()) < _MIN_POINTS:
        return -math.inf
    logs_k = np.log(k[usable])
    logs_g = np.log(gaps[usable])
    slope, _ = np.polyfit(logs_k, logs_g, 1)
    return float(slope)


def _run_one(problem: Problem, x0: np.ndarray, spec: SolverSpec,
             record_timing: bool = True, stop_tol: Optional[float] = None) -> Trace:
    """One call of the spec's solver; ``stop_tol`` applies to ``ppgd`` only."""
    fn = _SOLVERS[spec.name]
    if spec.name == "ppgd":
        return fn(problem, x0, s=spec.s, w0=spec.w0, K=spec.K, stop_tol=stop_tol,
                  record_timing=record_timing)
    return fn(problem, x0, s=spec.s, K=spec.K, record_timing=record_timing)


def _prefix(problem: Problem, trace: Trace, K: int) -> Trace:
    """The trace a K-iteration call would return, cut from a longer run.

    Exact, because no solver's iteration k depends on its K; only the final
    residual, taken at the last kept iterate, is recomputed.
    """
    n = K + 1
    return dataclasses.replace(
        trace,
        k=trace.k[:n],
        objective=trace.objective[:n],
        surrogate_objective=trace.surrogate_objective[:n],
        transitions=trace.transitions[:n],
        nce_outcomes=trace.nce_outcomes[:n],
        wall_ms=trace.wall_ms[:n],
        iterates=trace.iterates[:n],
        restarted=trace.restarted[:n],
        final_residual=stationarity_residual(problem, trace.iterates[K], trace.s),
    )


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run every configured solver on one shared problem and export artifacts.

    Writes ``trace_<solver>.csv`` per solver plus ``report.json`` under the
    config's output directory.  The solvers run one after another, in config
    order.  The first one runs ``reference_multiple`` x its K iterations: that
    run supplies the reference objective (the least F of every run), and its
    first K iterations are that solver's trace.  A report row is a trace's
    ``summary()``.
    """
    problem, x0 = build_problem(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    specs = list(cfg.solvers)
    ref_spec = specs[0]
    ref = _run_one(problem, x0,
                   dataclasses.replace(ref_spec, K=ref_spec.K * cfg.reference_multiple),
                   cfg.record_timing)
    traces: dict[str, Trace] = {ref_spec.name: _prefix(problem, ref, ref_spec.K)}
    for spec in specs[1:]:
        traces[spec.name] = _run_one(problem, x0, spec, cfg.record_timing)
    f_ref = min(min(float(t.objective.min()) for t in traces.values()),
                float(ref.objective.min()))

    for name, tr in traces.items():
        tr.to_csv(out / f"trace_{name}.csv")
    report = Report(cfg.to_dict(), f_ref, [tr.summary() for tr in traces.values()], traces)
    (out / "report.json").write_text(report.to_json())
    return report

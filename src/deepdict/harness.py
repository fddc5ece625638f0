"""Experiment orchestration: repeated splits, grids, diagnostics, exports.

An experiment fixes a dataset, a method and its settings, then runs R
independent train/test splits (replicate ``r`` uses seed ``base_seed + r``),
evaluates nearest-neighbor accuracy on each, and aggregates. Everything is
deterministic given the configuration, so two runs with the same config
produce byte-identical CSV reports. Replicates are independent and can run
in worker processes, one pool per command: a grid submits every cell's
replicates to it at once. Report assembly stays serialized and ordered.
"""

from __future__ import annotations

import csv
import ctypes
import glob
import itertools
import math
import os
import time
from collections import namedtuple
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy

from .baseline import TrainConfig, code_test_ddl, train_ddl
from .classify import KnnConfig, _neighbor_sizes, code_layers, code_test_ddlic, evaluate_accuracy
from .data import (
    LabeledMatrix,
    SplitSpec,
    load_labeled_matrix,
    make_synthetic_clusters,
    split_per_class,
)
from .intraclass import DdlicConfig, DdlicModel, train_ddlic

__all__ = [
    "DEFAULT_ALPHA_GRID",
    "CONFIG_KEYS",
    "SyntheticSpec",
    "ExperimentConfig",
    "ReplicateResult",
    "ExperimentReport",
    "load_experiment_data",
    "fit_model",
    "code_test",
    "evaluate_experiment",
    "run_experiment",
    "grid_search_alpha",
    "intra_class_scatter_ratio",
    "export_embeddings",
    "per_layer_accuracy",
    "parse_config_file",
    "build_experiment_config",
    "resolved_config_text",
]

DEFAULT_ALPHA_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.2)


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic Gaussian-cluster dataset request."""

    classes: int
    per_class: int
    dim: int
    separation: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description: dataset, method, splits, evaluation."""

    # dataset: either a file or a synthetic spec
    data_path: str | None = None
    data_format: str = "dense"
    labels_path: str | None = None
    normalize: bool = False
    synthetic: SyntheticSpec | None = None
    # method
    method: str = "ddlic"
    layer_sizes: tuple[int, ...] = (400, 200, 100)
    alphas: tuple[float, ...] = (1e-3, 1e-3, 1e-3)
    l1_weight: float = 0.1
    iters_per_layer: int = 20
    init: str = "qr"
    seed: int = 0
    # splits
    train_per_class: int | None = None
    replicates: int = 10
    # evaluation
    knn: KnnConfig = field(default_factory=KnnConfig)
    # grid search
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    grid_mode: str = "shared"
    # execution
    workers: int = 1
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.method not in ("ddl", "ddlic"):
            raise ValueError(f"unknown method: {self.method!r}")
        if self.data_format not in ("dense", "pair"):
            raise ValueError(f"unknown data format: {self.data_format!r}")
        if self.grid_mode not in ("shared", "full"):
            raise ValueError(f"unknown grid mode: {self.grid_mode!r}")
        # Both trainers' configs check the method settings, whichever method
        # runs, so a grid or a method switch never meets an invalid one.
        _ddlic_config(self, self.seed)
        _ddl_config(self, self.seed)
        if self.train_per_class is not None and self.train_per_class < 1:
            raise ValueError("train_per_class must be >= 1")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not self.alpha_grid or not all(0 <= a < math.inf for a in self.alpha_grid):
            raise ValueError("alpha_grid must be non-empty with finite values >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class ReplicateResult:
    """Outcome of one train/test split; failures are recorded, not raised."""

    index: int
    seed: int
    accuracy: float
    best_k: int
    scatter: tuple[tuple[str, float], ...]
    train_seconds: float
    total_seconds: float
    failed: bool
    error: str


@dataclass
class ExperimentReport:
    """Aggregate over replicates. Statistics cover non-failed replicates."""

    method: str
    alphas: tuple[float, ...]
    l1_weight: float
    replicates: list[ReplicateResult]
    mean_accuracy: float
    std_accuracy: float
    n_failed: int
    scatter_names: tuple[str, ...]
    scatter_means: tuple[float, ...]
    wall_seconds: float = 0.0  # elapsed time of all replicates, workers included


def _check_one_dataset(cfg: ExperimentConfig) -> None:
    if cfg.data_path and cfg.synthetic:
        raise ValueError("configure either data= or synth_*, not both")
    if not cfg.data_path and not cfg.synthetic:
        raise ValueError("no dataset configured: set data= or the synth_* keys")


def load_experiment_data(cfg: ExperimentConfig) -> LabeledMatrix:
    """Materialize the configured dataset (file or synthetic)."""
    _check_one_dataset(cfg)
    if cfg.data_path:
        return load_labeled_matrix(
            cfg.data_path, cfg.data_format, cfg.labels_path, cfg.normalize
        )
    s = cfg.synthetic
    return make_synthetic_clusters(s.classes, s.per_class, s.dim, s.separation, cfg.seed)


def _stack_settings(cfg: ExperimentConfig, seed: int) -> dict:
    """The settings both trainers' configs take from an experiment."""
    return dict(
        depth=len(cfg.layer_sizes),
        layer_sizes=cfg.layer_sizes,
        iters_per_layer=cfg.iters_per_layer,
        seed=seed,
        init=cfg.init,
    )


def _ddlic_config(cfg: ExperimentConfig, seed: int) -> DdlicConfig:
    return DdlicConfig(alphas=cfg.alphas, **_stack_settings(cfg, seed))


def _ddl_config(cfg: ExperimentConfig, seed: int) -> TrainConfig:
    return TrainConfig(l1_weight=cfg.l1_weight, **_stack_settings(cfg, seed))


def fit_model(cfg: ExperimentConfig, train: LabeledMatrix, seed: int):
    """Train the configured method on ``train`` with the given seed.

    Either model keeps the training labels, so it can classify on its own.
    """
    if cfg.method == "ddlic":
        return train_ddlic(train, _ddlic_config(cfg, seed))
    model = train_ddl(train.features, _ddl_config(cfg, seed))
    return replace(model, labels=np.array(train.original_labels))


def code_test(model, features: np.ndarray) -> np.ndarray:
    """Codes of test samples, comparable with ``model.train_repr``."""
    if isinstance(model, DdlicModel):
        return code_test_ddlic(model, features)
    return code_test_ddl(model, features)


def intra_class_scatter_ratio(codes: np.ndarray, class_index) -> float:
    """Within-class scatter divided by total scatter of the code columns.

    Returns 0 when the total scatter is zero; a single class with nonzero
    scatter gives exactly 1.
    """
    grand_mean = codes.mean(axis=1, keepdims=True)
    centered = codes - grand_mean
    total = float(np.sum(centered * centered))
    if total == 0.0:
        return 0.0
    within = 0.0
    for idx in class_index:
        block = codes[:, idx]
        mu = block.mean(axis=1, keepdims=True)
        within += float(np.sum((block - mu) ** 2))
    return within / total


def _training_layer_stack(model, train: LabeledMatrix) -> list[tuple[str, np.ndarray]]:
    """Named training-side representations, input first."""
    stack = [("z0", train.features)]
    if isinstance(model, DdlicModel):
        stack.extend(
            (f"z{i}", codes) for i, codes in enumerate(model.layer_reprs, start=1)
        )
    else:
        stack.append((f"z{len(model.dictionaries)}", model.train_repr))
    return stack


def _run_replicate(cfg: ExperimentConfig, data: LabeledMatrix, r: int) -> ReplicateResult:
    seed = cfg.seed + r
    started = time.perf_counter()
    error = ""
    try:
        spec = SplitSpec(cfg.train_per_class, seed=seed, replicate_index=r)
        train, test = split_per_class(data, spec)
        _neighbor_sizes(cfg.knn, train.num_samples)  # fail before training, not after it
        model = fit_model(cfg, train, seed)
        test_codes = code_test(model, test.features)
        train_seconds = time.perf_counter() - started
        report = evaluate_accuracy(
            model.train_repr,
            train.original_labels,
            test_codes,
            test.original_labels,
            cfg.knn,
        )
        scatter = tuple(
            (name, intra_class_scatter_ratio(mat, train.class_index))
            for name, mat in _training_layer_stack(model, train)
        )
        accuracy, best_k = report.selected_accuracy, report.selected_k
    except Exception as exc:  # noqa: BLE001 - replicate failures are reported, not fatal
        error = f"{type(exc).__name__}: {exc}"
        accuracy, best_k, scatter, train_seconds = float("nan"), 0, (), 0.0
    return ReplicateResult(
        index=r,
        seed=seed,
        accuracy=accuracy,
        best_k=best_k,
        scatter=scatter,
        train_seconds=train_seconds,
        total_seconds=time.perf_counter() - started,
        failed=bool(error),
        error=error,
    )


# NumPy and SciPy each load their own OpenBLAS copy, with its own thread count.
# Each symbol names the copy's thread-count setter with "{}" for "set" or "get".
_OPENBLAS_THREAD_SETTERS = (
    (np, "scipy_openblas_{}_num_threads64_"),
    (scipy, "scipy_openblas_{}_num_threads"),
)


def _openblas_libraries(package) -> list[ctypes.CDLL]:
    """The OpenBLAS copies that ``package``'s wheel bundles in ``<package>.libs``.

    NumPy's and SciPy's wheels each ship their own ``libscipy_openblas*.so``;
    SciPy's is the one its LAPACK wrapper module links. Another install may
    ship none, and then the list is empty.
    """
    libs = os.path.join(os.path.dirname(package.__path__[0]), f"{package.__name__}.libs")
    return [ctypes.CDLL(path) for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so"))]


def _one_blas_thread() -> Callable[[], None]:
    """Limit both OpenBLAS copies to one thread; return what restores their counts.

    OpenBLAS starts one thread per core in every process. Parallel workers
    would compete for the same cores, and a serial run is slower with more
    threads at these sizes and sums in a different order than a worker does.
    So workers (as pool initializer) and serial runs both use one thread. A
    copy whose library or symbol is missing is left unchanged.
    """
    saved = []  # (setter, thread count before)
    for package, symbol in _OPENBLAS_THREAD_SETTERS:
        for lib in _openblas_libraries(package):
            get, set_threads = (getattr(lib, symbol.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_threads is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                saved.append((set_threads, get()))
                set_threads(1)

    def restore() -> None:
        for set_threads, count in saved:
            set_threads(count)

    return restore


@contextmanager
def _replicate_pool(workers: int, tasks: int):
    """A pool of ``min(workers, tasks)`` processes, or ``None`` at width 1.

    The pool uses the platform's default start method, and its workers all
    start at the first submit. An exception in the block cancels the queued
    tasks, so the pool waits only for the running ones. At width 1 the
    caller runs the tasks itself, with one BLAS thread for the block.
    """
    width = min(workers, tasks)
    if width == 1:
        restore = _one_blas_thread()
        try:
            yield None
        finally:
            restore()
        return
    with ProcessPoolExecutor(max_workers=width, initializer=_one_blas_thread) as pool:
        try:
            yield pool
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _submit_replicates(pool, cfg: ExperimentConfig, data: LabeledMatrix) -> list[Future]:
    return [pool.submit(_run_replicate, cfg, data, r) for r in range(1, cfg.replicates + 1)]


def _run_replicates(cfg: ExperimentConfig, data: LabeledMatrix) -> list[ReplicateResult]:
    with _replicate_pool(cfg.workers, cfg.replicates) as pool:
        if pool is None:
            return [_run_replicate(cfg, data, r) for r in range(1, cfg.replicates + 1)]
        return [f.result() for f in _submit_replicates(pool, cfg, data)]


def evaluate_experiment(
    cfg: ExperimentConfig, data: LabeledMatrix | None = None, *, pending: list[Future] | None = None
) -> ExperimentReport:
    """Run all replicates and aggregate, without touching the filesystem.

    ``pending`` holds the replicates' futures in order, submitted to a pool
    the caller owns; the report then waits for them instead of running them.
    """
    if cfg.train_per_class is None:
        raise ValueError("train_per_class (h) is required to run an experiment")
    if data is None:
        data = load_experiment_data(cfg)
    started = time.perf_counter()
    results = _run_replicates(cfg, data) if pending is None else [f.result() for f in pending]
    wall_seconds = time.perf_counter() - started
    ok = [res for res in results if not res.failed]
    if ok:
        accs = np.array([res.accuracy for res in ok])
        mean_acc = float(accs.mean())
        std_acc = float(accs.std())
        names = tuple(name for name, _ in ok[0].scatter)
        means = tuple(
            float(np.mean([dict(res.scatter)[name] for res in ok])) for name in names
        )
    else:
        mean_acc = float("nan")
        std_acc = float("nan")
        names = ()
        means = ()
    return ExperimentReport(
        method=cfg.method,
        alphas=cfg.alphas,
        l1_weight=cfg.l1_weight,
        replicates=results,
        mean_accuracy=mean_acc,
        std_accuracy=std_acc,
        n_failed=len(results) - len(ok),
        scatter_names=names,
        scatter_means=means,
        wall_seconds=wall_seconds,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(out_dir: str, name: str, header: list, rows) -> str:
    """Write ``out_dir/name`` (creating ``out_dir``) with ``\n`` line ends; return its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _aggregate_lines(report: ExperimentReport) -> list[str]:
    """The replicate count, accuracy and scatter lines of ``summary.txt`` and ``experiment``."""
    scatter = zip(report.scatter_names, report.scatter_means)
    return [
        f"replicates: {len(report.replicates)} ({report.n_failed} failed)",
        f"mean_accuracy: {_fmt(report.mean_accuracy)}",
        f"std_accuracy: {_fmt(report.std_accuracy)}",
        *(f"mean_scatter_{name}: {_fmt(value)}" for name, value in scatter),
    ]


def _write_report_files(report: ExperimentReport, cfg: ExperimentConfig) -> None:
    scatter_names = report.scatter_names
    rows = []
    for res in report.replicates:
        scatter_map = dict(res.scatter)
        row = [
            res.index,
            res.seed,
            "" if res.failed else _fmt(res.accuracy),
            "" if res.failed else res.best_k,
            int(res.failed),
            res.error,
        ]
        row += [
            _fmt(scatter_map[name]) if name in scatter_map else ""
            for name in scatter_names
        ]
        rows.append(row)
    header = ["replicate", "seed", "accuracy", "best_k", "failed", "error"]
    _write_csv(cfg.out_dir, "report.csv", header + [f"scatter_{n}" for n in scatter_names], rows)

    with open(os.path.join(cfg.out_dir, "summary.txt"), "w") as fh:
        fh.write(f"method: {report.method}\n")
        if report.method == "ddlic":
            fh.write(f"alphas: {', '.join(_fmt(a) for a in report.alphas)}\n")
        else:
            fh.write(f"l1_weight: {_fmt(report.l1_weight)}\n")
        fh.writelines(line + "\n" for line in _aggregate_lines(report))
        fh.write(f"wall_seconds: {report.wall_seconds:.3f}\n")
        for res in report.replicates:
            status = "failed: " + res.error if res.failed else (
                f"accuracy={_fmt(res.accuracy)} best_k={res.best_k}"
            )
            fh.write(
                f"  replicate {res.index} (seed {res.seed}, {res.total_seconds:.3f}s): {status}\n"
            )

    with open(os.path.join(cfg.out_dir, "resolved_config.txt"), "w") as fh:
        fh.write(resolved_config_text(cfg))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the configured experiment; write report files when out_dir is set.

    Outputs: ``report.csv`` (one row per replicate; byte-identical across
    reruns of the same config), ``summary.txt`` (human-readable, includes
    wall-clock timings), and ``resolved_config.txt`` (provenance).
    """
    report = evaluate_experiment(cfg)
    if cfg.out_dir is not None:
        _write_report_files(report, cfg)
    return report


def _require_a_replicate(reports: list[ExperimentReport], what: str) -> None:
    """Raise with the first replicate error when every replicate of ``reports`` failed."""
    if all(report.n_failed == len(report.replicates) for report in reports):
        first = reports[0].replicates[0].error
        raise ValueError(f"every {what} failed; first replicate error: {first}")


def grid_search_alpha(
    cfg: ExperimentConfig, data: LabeledMatrix | None = None
) -> tuple[tuple[float, ...], list[ExperimentReport]]:
    """Evaluate the alpha grid and return (best alphas, one report per cell).

    ``grid_mode="shared"`` ties every layer to one grid value (default);
    ``grid_mode="full"`` evaluates the full per-layer Cartesian product.
    The best cell is the highest mean accuracy; ties keep the earliest cell
    in grid order. Raises ``ValueError`` with the first replicate error when
    every replicate of every cell failed.
    """
    if cfg.method != "ddlic":
        raise ValueError("alpha grid search applies to method 'ddlic'")
    if data is None:
        data = load_experiment_data(cfg)
    depth = len(cfg.layer_sizes)
    if cfg.grid_mode == "shared":
        combos = [(a,) * depth for a in cfg.alpha_grid]
    else:
        combos = [tuple(c) for c in itertools.product(cfg.alpha_grid, repeat=depth)]
    cells = [replace(cfg, alphas=alphas, out_dir=None) for alphas in combos]
    # One pool serves every cell, all submitted up front; each cell's report
    # waits for its own futures. Without a pool each cell runs in turn.
    with _replicate_pool(cfg.workers, len(cells) * cfg.replicates) as pool:
        pending = [None if pool is None else _submit_replicates(pool, cell, data) for cell in cells]
        reports = [evaluate_experiment(cell, data, pending=p) for cell, p in zip(cells, pending)]
    _require_a_replicate(reports, "grid cell")
    best = max(reports, key=lambda report: np.nan_to_num(report.mean_accuracy, nan=-math.inf))
    return best.alphas, reports


def export_embeddings(model, train: LabeledMatrix, out_dir: str) -> list[str]:
    """Write per-layer embeddings and labels as CSV files (samples as rows).

    Layer 0 is the raw input. Values carry 17 significant digits, so
    reloading reproduces them exactly. Returns the written paths.
    """
    stack = _training_layer_stack(model, train)
    for _, mat in stack:
        if mat.shape[1] != train.num_samples:
            raise ValueError("model codes and training data disagree on sample count")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, mat in stack:
        path = os.path.join(out_dir, f"embedding_layer_{int(name[1:]):02d}.csv")
        np.savetxt(path, mat.T, fmt="%.17g", delimiter=",")
        paths.append(path)
    labels_path = os.path.join(out_dir, "labels.csv")
    np.savetxt(labels_path, train.original_labels, fmt="%d")
    paths.append(labels_path)
    return paths


def per_layer_accuracy(
    model,
    train: LabeledMatrix,
    test: LabeledMatrix,
    knn_cfg: KnnConfig = KnnConfig(),
) -> list[float]:
    """Accuracy using each layer's codes in turn (diagnostic).

    Requires a model that stores per-layer training codes. ``train`` must be
    the data the model was trained on.
    """
    if not isinstance(model, DdlicModel):
        raise ValueError("per-layer accuracy requires a model with stored per-layer codes")
    if model.train_repr.shape[1] != train.num_samples:
        raise ValueError("model codes and training data disagree on sample count")
    coded = code_layers(model.dictionaries, test.features, model.config.ridge)
    out = []
    for layer_codes, test_layer in zip(model.layer_reprs, coded):
        report = evaluate_accuracy(
            layer_codes,
            train.original_labels,
            test_layer,
            test.original_labels,
            knn_cfg,
        )
        out.append(report.selected_accuracy)
    return out


# --- plain-text configuration files -------------------------------------

# How a config value is read from text, how it is written back, what a value
# that fails to parse should have been, and the fixed values it may take.
_Kind = namedtuple("_Kind", "parse render expected choices", defaults=(None,))


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


def _parse_list(item: Callable[[str], object]) -> Callable[[str], tuple]:
    # An empty item fails to parse; a wholly empty value is an empty list,
    # which the config's own checks reject.
    return lambda text: tuple(item(tok) for tok in text.split(",")) if text.strip() else ()


def _render_list(item: Callable[[object], str]) -> Callable[[tuple], str]:
    return lambda values: ",".join(map(item, values))


def _choice(*values: str) -> _Kind:
    # Parsed as plain text, so a config file's value meets the config's own check.
    return _Kind(str, str, "text", values)


_PATH = _Kind(lambda text: text or None, str, "a path")  # empty means unset
_INT = _Kind(int, str, "an integer")
_FLOAT = _Kind(float, _fmt, "a number")
_BOOL = _Kind(_parse_bool, lambda value: "true" if value else "false", "a boolean")
_INTS = _Kind(_parse_list(int), _render_list(str), "comma-separated integers")
_FLOATS = _Kind(_parse_list(float), _render_list(_fmt), "comma-separated numbers")
_COUNT = _Kind(int, lambda value: str(len(value)), "an integer")  # the length of a list field

# Every config key: the ExperimentConfig field it sets (a dotted path into a
# nested spec), the kind of its value, and the help of its command-line flag,
# which is the key with dashes (None: config files only). Config files, flags
# and resolved_config.txt all use these names.
CONFIG_KEYS = {
    "method": ("method", _choice("ddl", "ddlic"), "training method"),
    "data": ("data_path", _PATH, "labeled data file"),
    "format": ("data_format", _choice("dense", "pair"), "data file layout"),
    "labels": ("labels_path", _PATH, "separate label file (pair format)"),
    "normalize": ("normalize", _BOOL, "scale each sample to unit norm on load"),
    "synth_classes": ("synthetic.classes", _INT, None),
    "synth_per_class": ("synthetic.per_class", _INT, None),
    "synth_dim": ("synthetic.dim", _INT, None),
    "synth_separation": ("synthetic.separation", _FLOAT, None),
    "depth": ("layer_sizes", _COUNT, "number of layers (must match --layer-sizes)"),  # derived
    "layer_sizes": ("layer_sizes", _INTS, "comma-separated atoms per layer"),
    "alphas": ("alphas", _FLOATS, "per-layer compactness weights (one value broadcasts)"),
    "l1_weight": ("l1_weight", _FLOAT, "sparsity weight for method ddl"),
    "iters": ("iters_per_layer", _INT, "alternating updates per layer"),
    "init": ("init", _choice("qr", "random"), "first-layer dictionary init"),
    "seed": ("seed", _INT, "base random seed"),
    "h": ("train_per_class", _INT, "training samples reserved per class"),
    "replicates": ("replicates", _INT, "number of independent splits"),
    "knn_min": ("knn.k_min", _INT, "smallest neighbor count"),
    "knn_max": ("knn.k_max", _INT, "largest neighbor count"),
    "knn_selection": ("knn.selection", _choice("best", "cv"),
                      "report the best k on the curve, or pick k by leave-one-out"),
    "alpha_grid": ("alpha_grid", _FLOATS, "comma-separated grid values"),
    "grid_mode": ("grid_mode", _choice("shared", "full"),
                  "one weight for all layers, or the full per-layer product"),
    "workers": ("workers", _INT, "worker processes for replicates"),
    "out": ("out_dir", _PATH, None),
}

_SYNTH_KEYS = tuple(key for key, (path, *_) in CONFIG_KEYS.items() if path.startswith("synthetic"))


def parse_config_file(path: str) -> dict[str, str]:
    """Read a plain-text ``key=value`` configuration file.

    Blank lines and lines starting with ``#`` are ignored. Unknown keys and
    keys set twice are rejected so typos fail loudly.
    """
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in set_on:
                raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {set_on[key]}")
            set_on[key] = lineno
            values[key] = value.strip()
    return values


def _parse_value(key: str, text: str):
    kind = CONFIG_KEYS[key][1]
    try:
        return kind.parse(text)
    except ValueError:
        raise ValueError(f"config key {key!r}: expected {kind.expected}, got {text!r}") from None


def build_experiment_config(values: dict[str, str]) -> ExperimentConfig:
    """Turn raw ``key=value`` strings into a validated ExperimentConfig.

    Keys left out keep the dataclass defaults. A single ``alphas`` value,
    like the default one, applies to every layer.
    """
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    parsed = {key: _parse_value(key, text) for key, text in values.items()}

    depth = len(parsed.get("layer_sizes", ExperimentConfig.layer_sizes))
    stated = parsed.pop("depth", depth)
    if stated != depth:
        raise ValueError(f"depth={stated} does not match layer_sizes of length {depth}")
    alphas = parsed.get("alphas", ExperimentConfig.alphas[:1])
    if len(alphas) == 1:
        alphas = alphas * depth
    if len(alphas) != depth:
        raise ValueError(f"alphas must have 1 or {depth} values, got {len(alphas)}")
    parsed["alphas"] = alphas

    fields: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {"knn": {}, "synthetic": {}}
    for key, value in parsed.items():
        owner, _, name = CONFIG_KEYS[key][0].rpartition(".")
        (nested[owner] if owner else fields)[name] = value
    if nested["synthetic"]:
        missing = [key for key in _SYNTH_KEYS if key not in values]
        if missing:
            raise ValueError(f"synthetic dataset needs: {', '.join(missing)}")
        fields["synthetic"] = SyntheticSpec(**nested["synthetic"])
    cfg = ExperimentConfig(knn=KnnConfig(**nested["knn"]), **fields)
    _check_one_dataset(cfg)
    return cfg


def resolved_config_text(cfg: ExperimentConfig) -> str:
    """Render a config as sorted ``key=value`` lines; parses back to itself.

    Unset optional settings (no data file, no synthetic spec, no ``h``, no
    output directory) are left out.
    """
    lines = []
    for key, (path, kind, _) in CONFIG_KEYS.items():
        value = cfg
        for name in path.split("."):
            value = None if value is None else getattr(value, name)
        if value is not None and value != "":
            lines.append(f"{key}={kind.render(value)}")
    return "\n".join(sorted(lines)) + "\n"

"""The benchmark's workloads: inputs, the timed loop, metrics and checks.

Every run makes its inputs from the seed, sets up (parses the data file)
several times, then repeats whole rounds of the same operations until the
measuring time is used, and finally checks the outputs and measures the
accuracies on data that are the same for every seed. All timed work is a
call into ``deepdict``'s public functions or its ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import bench_checks as checks
import bench_trace as trace
from deepdict import baseline, classify, cli, data, harness, kernels, model_io
from deepdict.classify import KnnConfig
from deepdict.harness import DEFAULT_ALPHA_GRID, ExperimentConfig

SETUP_REPEATS = 5
ALPHA = 1e-4  # ddlic compactness weight for every layer on the serial workloads
ACCURACY_SEED = 0  # data and splits of the accuracy metrics, the same for every --seed


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    per_class: int  # train + test samples per class
    dim: int
    separation: float
    train_per_class: int
    layer_sizes: tuple[int, ...]
    knn_selection: str
    replicates: int  # per method per round
    roundtrips: int  # model save/load round trips per round
    grid_workers: int = 0  # > 0: run ``deepdict grid`` and ``experiment`` through cli.main


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-scale", 10, 100, 784, 10.0, 50, (400, 200, 100), "best",
                 replicates=1, roundtrips=1),
        Workload("many-class", 40, 60, 64, 6.0, 30, (48, 32, 24), "cv",
                 replicates=1, roundtrips=3),
        Workload("grid-parallel", 10, 60, 200, 6.0, 30, (128, 96, 64), "best",
                 replicates=2, roundtrips=3, grid_workers=2),
    )
}


class MachineSpeed:
    """A fixed reference loop, timed just before and just after every timed
    operation.

    The host this benchmark was tuned on is shared: its speed drifts by
    10-20 % over tens of seconds, in step for all code, which moves a 30 s
    run's medians by as much. The loop mixes the program's kinds of work
    (BLAS products, small NumPy calls, float formatting and parsing). Each
    timed operation's seconds are divided by the mean of the two loop times
    around it over ``REFERENCE_S``, the loop's typical time on that host,
    so that drift cancels.
    """

    REFERENCE_S = 0.05

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((160, 160))
        self._labels = rng.integers(0, 8, size=(3000, 30))
        self._values = rng.standard_normal(8000)
        self.samples: list[float] = []

    def _measure(self) -> float:
        start = time.perf_counter()
        for _ in range(100):
            self._matrix @ self._matrix
        for row in self._labels:
            np.unique(row)
        for value in self._values:
            float(repr(float(value)))
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def timed(self, fn, *args):
        """``fn(*args)`` and its seconds divided by the host's slowdown
        around the call."""
        before = self._measure()
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        after = self._measure()
        return result, seconds * 2 * self.REFERENCE_S / (before + after)

    def slowdown(self) -> float:
        """How much slower than typical the host ran during this run."""
        return statistics.median(self.samples) / self.REFERENCE_S


class Captured:
    """Return values of the program's calls in this process, kept for the
    checks: each experiment's report, and per replicate seed its split, its
    models and their test codes. Later rounds overwrite earlier ones."""

    def __init__(self) -> None:
        self.reports: list[tuple[ExperimentConfig, object, float]] = []
        self.splits: dict[int, tuple] = {}
        self.models: dict[tuple[str, int], object] = {}
        self.codes: dict[tuple[str, int], np.ndarray] = {}

    def install(self):
        def on_report(args, report, seconds):
            self.reports.append((args[0], report, seconds))

        def on_split(args, split, seconds):
            self.splits[args[1].seed] = split

        def on_train(method):
            def hook(args, model, seconds):
                self.models[method, args[1].seed] = model
            return hook

        def on_code(method):
            def hook(args, codes, seconds):
                self.codes[method, args[0].config.seed] = codes
            return hook

        hooks = (("evaluate_experiment", on_report), ("split_per_class", on_split),
                 ("train_ddlic", on_train("ddlic")), ("train_ddl", on_train("ddl")),
                 ("code_test_ddlic", on_code("ddlic")), ("code_test_ddl", on_code("ddl")))
        return trace.patched([(harness, name, trace.wrap(getattr(harness, name), None, hook))
                              for name, hook in hooks])


@dataclass
class Run:
    workload: Workload
    seed: int
    workdir: str
    data_path: str = ""
    setup_s: list[float] = field(default_factory=list)
    rates: dict[str, list[float]] = field(default_factory=lambda: {"ddlic": [], "ddl": []})
    roundtrip_s: list[float] = field(default_factory=list)
    model_bytes: int = 0
    outcomes: list = field(default_factory=list)  # one comparable outcome per round
    notes: set[str] = field(default_factory=set)
    speed: MachineSpeed = field(default_factory=MachineSpeed)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0


def _rss_mb() -> float:
    """Peak resident set of this process plus that of its largest worker
    so far (``getrusage`` self + children). Pages a forked worker shares
    with this process count in both, and two workers that ran at once
    count as the larger one alone."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _make_data(w: Workload, seed: int):
    return data.make_synthetic_clusters(w.classes, w.per_class, w.dim, w.separation, seed)


def _setup(run: Run):
    """Synthesise the data from the seed and write it once, then time
    parsing it back with ``load_labeled_matrix``."""
    made = _make_data(run.workload, run.seed)
    run.data_path = os.path.join(run.workdir, "data.csv")
    data.save_labeled_matrix(made, run.data_path)
    for _ in range(SETUP_REPEATS):
        loaded, seconds = run.speed.timed(data.load_labeled_matrix, run.data_path)
        run.setup_s.append(seconds)
    checks.require(np.array_equal(loaded.features, made.features)
                   and np.array_equal(loaded.labels, made.labels),
                   "the parsed data file differs from the data written")
    return loaded


def _config(w: Workload, seed: int, method: str, alpha: float = ALPHA, workers: int = 1):
    return ExperimentConfig(
        method=method,
        layer_sizes=w.layer_sizes,
        alphas=(alpha,) * len(w.layer_sizes),
        seed=seed,
        train_per_class=w.train_per_class,
        replicates=w.replicates,
        knn=KnnConfig(selection=w.knn_selection),
        workers=workers,
    )


def _save_load(model, path: str):
    model_io.save_model(model, path)
    return model_io.load_model(path)


def _roundtrip(run: Run, model) -> object:
    path = os.path.join(run.workdir, "model")
    loaded = None
    for _ in range(run.workload.roundtrips):
        shutil.rmtree(path, ignore_errors=True)
        loaded, seconds = run.speed.timed(_save_load, model, path)
        run.roundtrip_s.append(seconds)
        run.attempted += 1
    run.model_bytes = sum(e.stat().st_size for e in os.scandir(path))
    return loaded


def _serial_round(run: Run, dataset, cap: Captured):
    w = run.workload
    outcome = []
    for method in ("ddlic", "ddl"):
        cfg = _config(w, run.seed, method)
        report, seconds = run.speed.timed(harness.evaluate_experiment, cfg, dataset)
        run.rates[method].append(w.replicates / seconds)
        run.attempted += len(report.replicates)
        run.failed += report.n_failed
        outcome.append([(r.accuracy, r.best_k, r.failed) for r in report.replicates])
    model = cap.models["ddlic", run.seed + 1]
    return outcome, model, _roundtrip(run, model)


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    checks.require(status == 0, f"deepdict {argv[0]} exited with status {status}")
    return out.getvalue()


def _grid_argv(run: Run) -> list[str]:
    w = run.workload
    return ["--data", run.data_path,
            "--layer-sizes", ",".join(map(str, w.layer_sizes)),
            "--h", str(w.train_per_class), "--replicates", str(w.replicates),
            "--knn-selection", w.knn_selection,
            "--workers", str(w.grid_workers), "--seed", str(run.seed)]


def _parse_grid(text: str):
    """``deepdict grid`` output as ([(alphas, mean accuracy, failed)], best alphas)."""
    rows, best = [], None
    for line in text.splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split())
        if "best_alphas" in fields:
            best = tuple(float(a) for a in fields["best_alphas"].split(","))
        elif "alphas" in fields:
            alphas = tuple(float(a) for a in fields["alphas"].split(","))
            rows.append((alphas, float(fields["mean_accuracy"]), int(fields["failed"])))
    return rows, best


def _grid_round(run: Run, model):
    w = run.workload
    argv = _grid_argv(run)
    grid_text, seconds = run.speed.timed(_cli, ["grid"] + argv)
    run.rates["ddlic"].append(len(DEFAULT_ALPHA_GRID) * w.replicates / seconds)
    rows, _ = _parse_grid(grid_text)
    run.attempted += len(rows)
    run.failed += sum(1 for *_, failed in rows if failed)
    exp_text, seconds = run.speed.timed(_cli, ["experiment", "--method", "ddl"] + argv)
    run.rates["ddl"].append(w.replicates / seconds)
    lines = dict(line.split(": ", 1) for line in exp_text.splitlines() if ": " in line)
    run.attempted += w.replicates
    run.failed += int(lines["replicates"].split("(")[1].split()[0])
    outcome = (grid_text, float(lines["mean_accuracy"]))
    return outcome, model, _roundtrip(run, model)


# --- checks ------------------------------------------------------------------

def _check_replicates(run: Run, cfg: ExperimentConfig, report, cap: Captured) -> None:
    """Brute-force KNN, monotone traces, and the test-code optimality
    conditions, on every replicate of one report."""
    for res in report.replicates:
        checks.require(not res.failed, f"{cfg.method} replicate {res.index} failed: {res.error}")
        train, test = cap.splits[res.seed]
        model = cap.models[cfg.method, res.seed]
        codes = cap.codes[cfg.method, res.seed]
        checks.check_knn(res.accuracy, res.best_k, model.train_repr, train.original_labels,
                         codes, test.original_labels, cfg.knn)
        checks.check_traces(model.traces, cfg.method)
        if cfg.method == "ddlic":
            layers = classify.code_layers(model.dictionaries, test.features, model.config.ridge)
            checks.require(np.array_equal(layers[-1], codes),
                           "ddlic test codes differ from the layer-by-layer codes")
            checks.check_normal_equations(model.dictionaries, test.features, layers,
                                          model.config.ridge)
        else:
            _check_ddl_codes(run, model, test.features, codes)


def _check_ddl_codes(run: Run, model, features, codes) -> None:
    product = baseline.product_dictionary(model.dictionaries)
    ista_cfg = model.config.ista
    again, objective = kernels.ista_sparse_code(
        product, features, model.l1_weight, ista_cfg, return_trace=True)
    checks.require(np.array_equal(again, codes), "ddl test codes are not reproducible")
    if len(objective) - 1 >= ista_cfg.max_iters:
        # Stopped at the iteration cap, not by its rule: no bound applies.
        run.notes.add(f"ddl test coding stopped at ISTA's cap of {ista_cfg.max_iters} iterations")
        return
    checks.check_lasso_kkt(product, features, codes, model.l1_weight, ista_cfg)


def _check_roundtrip(run: Run, model, loaded, cap: Captured) -> None:
    checks.check_roundtrip(model, loaded)
    _, test = cap.splits[model.config.seed]
    knn = KnnConfig(selection=run.workload.knn_selection)
    results = []
    for m in (model, loaded):
        codes = classify.code_test_ddlic(m, test.features)
        results.append((codes, classify.evaluate_accuracy(
            m.train_repr, m.labels, codes, test.original_labels, knn)))
    checks.check_same_classification(results[0][0], results[1][0], results[0][1], results[1][1])


def _check_rounds(run: Run) -> None:
    first = run.outcomes[0]
    for i, other in enumerate(run.outcomes[1:], start=2):
        checks.require(other == first, f"round {i} gave other results than round 1")


def _cli_config(run: Run, method: str, seed: int, workers: int = 1, alpha=None):
    """The configuration ``deepdict`` builds from the grid-parallel flags."""
    argv = _grid_argv(run)
    values = {flag[2:].replace("-", "_"): value for flag, value in zip(argv[::2], argv[1::2])}
    values.update(method=method, seed=str(seed), workers=str(workers))
    if alpha is not None:
        values["alphas"] = repr(alpha)
    return harness.build_experiment_config(values)


def _reference_pass(run: Run, dataset, cap: Captured):
    """Serial re-run of one grid cell and of the ddl experiment, outside the
    timed region, with the configuration the CLI builds from the same flags."""
    refs = {}
    for method, alpha in (("ddlic", ALPHA), ("ddl", None)):
        cfg = _cli_config(run, method, run.seed, alpha=alpha)
        report = harness.evaluate_experiment(cfg, dataset)
        _check_replicates(run, cfg, report, cap)
        refs[method] = (cfg, report)
    return refs


def _check_grid(run: Run, refs, cap: Captured) -> None:
    rows, best = _parse_grid(run.outcomes[0][0])
    checks.require(len(rows) == len(DEFAULT_ALPHA_GRID), "grid: wrong number of cells")
    checks.check_first_max([(alphas, acc) for alphas, acc, _ in rows], best)
    for method, (ref_cfg, ref_report) in refs.items():
        matches = [rep for cfg, rep, _ in cap.reports
                   if cfg.workers > 1 and replace(cfg, workers=1, out_dir=None) == ref_cfg]
        checks.require(bool(matches), f"grid: no parallel {method} run with the reference config")
        for rep in matches:
            checks.check_same_replicates(rep, ref_report, f"grid {method}")
    ddlic_row = [acc for alphas, acc, _ in rows if alphas == refs["ddlic"][0].alphas]
    checks.require(ddlic_row == [refs["ddlic"][1].mean_accuracy],
                   "grid: printed cell mean differs from the serial re-run")
    checks.require(run.outcomes[0][1] == refs["ddl"][1].mean_accuracy,
                   "grid: printed ddl mean differs from the serial re-run")


def _accuracies(run: Run) -> tuple[float, float]:
    """``ddlic`` and ``ddl`` mean accuracy on data and splits made from
    ACCURACY_SEED, so that the figures are the same for every ``--seed``
    and a change of the program's accuracy shows undiluted by the spread
    between seeds. On ``grid-parallel`` ``ddlic``'s is the best grid cell's,
    as ``deepdict grid`` finds it."""
    w = run.workload
    fixed = _make_data(w, ACCURACY_SEED)
    if w.grid_workers:
        cfg = _cli_config(run, "ddlic", ACCURACY_SEED, w.grid_workers)
        best, rows = harness.grid_search_alpha(cfg, fixed)
        ddlic_acc = next(row.mean_accuracy for row in rows if row.alphas == best)
        ddl_cfg = _cli_config(run, "ddl", ACCURACY_SEED, w.grid_workers)
    else:
        ddlic_acc = harness.evaluate_experiment(_config(w, ACCURACY_SEED, "ddlic"), fixed).mean_accuracy
        ddl_cfg = _config(w, ACCURACY_SEED, "ddl")
    return ddlic_acc, harness.evaluate_experiment(ddl_cfg, fixed).mean_accuracy


# --- the run -----------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, traced: bool, root: str) -> dict:
    w = WORKLOADS[name]
    workdir = os.path.join(root, ".bench_runs", f"{name}-s{seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    run = Run(w, seed, workdir)
    recorder = trace.Recorder()
    cap = Captured()
    traced_ctx = (lambda: trace.tracing(recorder)) if traced else contextlib.nullcontext
    try:
        with cap.install():
            with traced_ctx():
                dataset = _setup(run)
            refs = _reference_pass(run, dataset, cap) if w.grid_workers else None
            grid_model = cap.models["ddlic", seed + 1] if refs else None
            timed_reports = len(cap.reports)
            loop_start = time.perf_counter()
            with traced_ctx():
                while True:
                    round_start = time.perf_counter()
                    if w.grid_workers:
                        outcome, model, loaded = _grid_round(run, grid_model)
                    else:
                        outcome, model, loaded = _serial_round(run, dataset, cap)
                    run.outcomes.append(outcome)
                    run.rounds += 1
                    now = time.perf_counter()
                    # Stop before a round that would overrun the measuring time.
                    if now - loop_start + (now - round_start) > seconds:
                        break
            timed = cap.reports[timed_reports:]
            rss = _rss_mb()
            # checks, outside the timed region
            _check_rounds(run)
            if refs:
                _check_grid(run, refs, cap)
            else:
                for cfg, report, _ in timed[-2:]:
                    _check_replicates(run, cfg, report, cap)
            _check_roundtrip(run, model, loaded, cap)
            ista = trace.IstaCounts()
            if traced:
                with trace.count_ista(ista):
                    harness.evaluate_experiment(
                        refs["ddl"][0] if refs else _config(w, seed, "ddl"), dataset)
        ddlic_acc, ddl_acc = _accuracies(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if w.grid_workers:
        rows, best = _parse_grid(run.outcomes[0][0])
        seeded = {"ddlic": next(acc for alphas, acc, _ in rows if alphas == best),
                  "ddl": run.outcomes[0][1]}
    else:
        seeded = {method: float(np.mean([a for a, _, _ in replicates]))
                  for method, replicates in zip(("ddlic", "ddl"), run.outcomes[0])}
    end_to_end = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "ddlic.replicates_per_s": (statistics.median(run.rates["ddlic"]), "replicates/s"),
        "ddl.replicates_per_s": (statistics.median(run.rates["ddl"]), "replicates/s"),
        "ddlic.accuracy": (ddlic_acc, "fraction"),
        "ddl.accuracy": (ddl_acc, "fraction"),
        "model_roundtrip_s": (statistics.median(run.roundtrip_s), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {"rounds": run.rounds, "notes": sorted(run.notes), "slowdown": run.speed.slowdown(),
            "seeded_accuracy": seeded,
            "samples": {"setup_s": run.setup_s, "roundtrip_s": run.roundtrip_s, **run.rates,
                        "reference_s": run.speed.samples}}
    if not traced:
        return {"attempted": run.attempted, "failed": run.failed, "metrics": end_to_end,
                "info": info}
    spans_path = os.path.join(root, ".bench_runs", f"spans-{name}-s{seed}.jsonl")
    recorder.write(spans_path)
    info["spans"] = spans_path
    info["untraced_equivalent"] = {k: v[0] for k, v in end_to_end.items()}
    per_layer = _per_layer(run, recorder, timed, ista)
    return {"attempted": run.attempted, "failed": run.failed, "metrics": per_layer,
            "info": info}


PER_ROUND = (
    "data.split",
    "intraclass.train_ddlic",
    "intraclass.train_layer.l1",
    "intraclass.train_layer.l2",
    "intraclass.train_layer.l3",
    "intraclass.update_representations",
    "intraclass.update_dictionary",
    "intraclass.layer_objective",
    "baseline.train_ddl",
    "baseline.train_dense_layer",
    "baseline.train_sparse_layer",
    "baseline.code_test_ddl",
    "kernels.ista",
    "kernels.gram_spectral_norm",
    "kernels.ridge_code",
    "kernels.solve_least_squares_dictionary",
    "classify.code_layers",
    "classify.evaluate_accuracy",
)


def _per_layer(run: Run, recorder, timed, ista) -> dict:
    """Per-layer figures from the spans of the timed loop and the setup.

    ``<layer>_s`` for the names in PER_ROUND is the seconds spent inside that
    layer per round, summed over all processes; the other times are medians
    per call.
    """
    by_name: dict[str, list[float]] = {}
    for s in recorder.spans:
        by_name.setdefault(s["name"], []).append(s["end"] - s["start"])
    metrics = {}
    for name in PER_ROUND:
        metrics[name + "_s"] = (sum(by_name.get(name, ())) / run.rounds, "s")
    per_call = (("data.load", "data.load_s"), ("harness.cell", "harness.cell_s"),
                ("model_io.save", "model_io.save_s"), ("model_io.load", "model_io.load_s"))
    for name, metric in per_call:
        metrics[metric] = (statistics.median(by_name.get(name, [0.0])), "s")
    replicates = [r.total_seconds for _, rep, _ in timed for r in rep.replicates]
    busy = sum(replicates)
    capacity = sum(cfg.workers * wall for cfg, _, wall in timed)
    metrics["harness.replicate_s"] = (statistics.median(replicates), "s")
    metrics["harness.worker_busy_ratio"] = (busy / capacity, "ratio")
    metrics["model_io.bytes"] = (float(run.model_bytes), "bytes")
    metrics["kernels.ista.calls"] = (ista.calls, "count")
    metrics["kernels.ista.iters"] = (ista.iters, "count")
    metrics["kernels.ista.capped"] = (ista.capped, "count")
    return metrics

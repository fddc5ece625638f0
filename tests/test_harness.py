"""Experiment runner: replicates, aggregation, grids, diagnostics, configs."""

import ctypes
import glob
import math
import os
import time
from collections import namedtuple
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
import scipy

from deepdict import harness
from deepdict.classify import KnnConfig
from deepdict.data import make_synthetic_clusters, save_labeled_matrix
from deepdict.harness import (
    DEFAULT_ALPHA_GRID,
    ExperimentConfig,
    SyntheticSpec,
    build_experiment_config,
    evaluate_experiment,
    export_embeddings,
    grid_search_alpha,
    intra_class_scatter_ratio,
    load_experiment_data,
    parse_config_file,
    per_layer_accuracy,
    resolved_config_text,
    run_experiment,
)
from deepdict.baseline import TrainConfig, train_ddl
from deepdict.intraclass import DdlicConfig, train_ddlic
from deepdict.data import LabeledMatrix, SplitSpec, split_per_class

# NumPy's and SciPy's OpenBLAS copies: (package, thread-count symbol pattern).
OPENBLAS = (
    (np, "scipy_openblas_{}_num_threads64_"),
    (scipy, "scipy_openblas_{}_num_threads"),
)


def _openblas_calls(verb):
    """The ``set`` or ``get`` thread-count function of each OpenBLAS copy."""
    calls = []
    for package, symbol in OPENBLAS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        paths = glob.glob(os.path.join(site, f"{package.__name__}.libs", "libscipy_openblas*.so"))
        if not paths:
            pytest.skip(f"{package.__name__} does not ship its own OpenBLAS")
        call = getattr(ctypes.CDLL(paths[0]), symbol.format(verb))
        call.argtypes = [ctypes.c_int] if verb == "set" else []
        call.restype = None if verb == "set" else ctypes.c_int
        calls.append(call)
    return calls


WorkerThreads = namedtuple("WorkerThreads", "index counts")


def _report_blas_threads(cfg, data, r):
    return WorkerThreads(r, tuple(get() for get in _openblas_calls("get")))


def small_config(**overrides):
    base = dict(
        synthetic=SyntheticSpec(classes=3, per_class=8, dim=10, separation=5.0),
        method="ddlic",
        layer_sizes=(6, 4),
        alphas=(1e-3, 1e-3),
        iters_per_layer=3,
        seed=0,
        train_per_class=4,
        replicates=3,
        knn=KnnConfig(1, 5),
        alpha_grid=(1e-4, 1e-2),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _synthetic_config(tmp_path, **overrides):
    return small_config(**overrides)


def _data_file_config(tmp_path, **overrides):
    """Every key that a synthetic config leaves at its default, set off it."""
    features, labels = tmp_path / "features.txt", tmp_path / "labels.txt"
    data = make_synthetic_clusters(3, 8, 10, 5.0, seed=2)
    save_labeled_matrix(data, str(features), "pair", str(labels))
    return ExperimentConfig(
        data_path=str(features),
        data_format="pair",
        labels_path=str(labels),
        normalize=True,
        method="ddl",
        layer_sizes=(6, 4),
        alphas=(1e-2, 1e-4),
        l1_weight=0.05,
        iters_per_layer=2,
        init="random",
        seed=3,
        train_per_class=4,
        replicates=2,
        knn=KnnConfig(2, 7, "cv"),
        alpha_grid=(1e-4, 1e-2),
        grid_mode="full",
        workers=2,
        **overrides,
    )


ROUND_TRIP_CONFIGS = [_synthetic_config, _data_file_config]


class RecordingPool:
    """A stand-in for ``ProcessPoolExecutor`` that starts no process.

    Each instance logs its width, every submitted task and its shutdown
    calls to ``events``. A task runs in this process at submit, unless
    ``queue`` is set: then its future stays pending, as in a busy pool.
    """

    events: list = []
    queue = False

    def __init__(self, max_workers, initializer):
        self.events.append(("pool", max_workers))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.events.append(("exit",))
        return False

    def submit(self, fn, cfg, data, r):
        self.events.append(("submit", cfg.alphas, r))
        future = Future()
        if not self.queue:
            future.set_result(fn(cfg, data, r))
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.events.append(("shutdown", cancel_futures))


@pytest.fixture()
def recording_pool(monkeypatch):
    """Install ``RecordingPool`` with a fresh log and instant replicates."""
    monkeypatch.setattr(RecordingPool, "events", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(
        harness,
        "_run_replicate",
        lambda cfg, data, r: harness.ReplicateResult(
            r, cfg.seed + r, 1.0, 1, (), 0.0, 0.0, False, ""
        ),
    )
    return RecordingPool


def _replicate_fields(report):
    return [
        (r.index, r.seed, r.failed, r.accuracy, r.best_k, r.scatter) for r in report.replicates
    ]


class TestScatterRatio:
    def test_matches_manual_computation(self):
        rng = np.random.default_rng(0)
        codes = rng.normal(size=(4, 12))
        class_index = (np.arange(0, 5), np.arange(5, 12))
        mu = codes.mean(axis=1, keepdims=True)
        total = np.sum((codes - mu) ** 2)
        within = sum(
            np.sum((codes[:, ix] - codes[:, ix].mean(axis=1, keepdims=True)) ** 2)
            for ix in class_index
        )
        got = intra_class_scatter_ratio(codes, class_index)
        assert got == pytest.approx(within / total)

    def test_constant_codes_give_zero(self):
        codes = np.ones((3, 6))
        assert intra_class_scatter_ratio(codes, (np.arange(6),)) == 0.0

    def test_identical_class_members_give_zero_ratio(self):
        block = np.random.default_rng(1).normal(size=(3, 1))
        codes = np.concatenate([np.tile(block, (1, 4)), np.tile(block + 5, (1, 4))], axis=1)
        class_index = (np.arange(4), np.arange(4, 8))
        assert intra_class_scatter_ratio(codes, class_index) == pytest.approx(0.0)

    def test_random_labels_match_expected_ratio(self):
        # with labels carrying no information the ratio concentrates near
        # (N - C) / (N - 1)
        n, c = 120, 4
        vals = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            codes = rng.normal(size=(6, n))
            perm = rng.permutation(n)
            class_index = tuple(np.sort(perm[i::c]) for i in range(c))
            vals.append(intra_class_scatter_ratio(codes, class_index))
        assert abs(float(np.mean(vals)) - (n - c) / (n - 1)) < 0.1


class TestEvaluateExperiment:
    def test_replicates_are_ordered_and_seeded(self):
        cfg = small_config(seed=100)
        report = evaluate_experiment(cfg)
        assert [r.index for r in report.replicates] == [1, 2, 3]
        assert [r.seed for r in report.replicates] == [101, 102, 103]
        assert report.n_failed == 0
        accs = [r.accuracy for r in report.replicates]
        assert report.mean_accuracy == pytest.approx(float(np.mean(accs)))
        assert report.std_accuracy == pytest.approx(float(np.std(accs)))

    def test_scatter_names_cover_input_and_layers(self):
        report = evaluate_experiment(small_config())
        assert report.scatter_names == ("z0", "z1", "z2")

    def test_ddl_method_tracks_input_and_final_layer(self):
        report = evaluate_experiment(small_config(method="ddl"))
        assert report.scatter_names == ("z0", "z2")

    def test_deterministic_across_calls(self):
        cfg = small_config()
        a = evaluate_experiment(cfg)
        b = evaluate_experiment(cfg)
        assert [r.accuracy for r in a.replicates] == [r.accuracy for r in b.replicates]
        assert a.replicates[0].scatter == b.replicates[0].scatter

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_replicates_are_recorded_not_raised(self, workers):
        # h equal to the class size leaves no test remainder: every split fails
        cfg = small_config(train_per_class=8, workers=workers)
        report = evaluate_experiment(cfg)
        assert report.n_failed == 3
        assert all(r.failed for r in report.replicates)
        assert all("cannot reserve" in r.error for r in report.replicates)
        assert math.isnan(report.mean_accuracy)
        assert report.scatter_names == ()

    def test_failed_replicate_error_names_the_exception_type(self, tmp_path):
        out = tmp_path / "exp"
        run_experiment(small_config(train_per_class=8, replicates=2, out_dir=str(out)))
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(",ValueError: class 0 has 8 samples; cannot reserve" in row for row in rows)
        summary = (out / "summary.txt").read_text()
        assert summary.count("failed: ValueError: class 0 has 8 samples") == 2

    def test_workers_run_with_one_blas_thread(self, monkeypatch):
        sets, gets = _openblas_calls("set"), _openblas_calls("get")
        saved = [get() for get in gets]
        monkeypatch.setattr(harness, "_run_replicate", _report_blas_threads)
        try:
            for set_threads in sets:
                set_threads(2)
            results = harness._run_replicates(small_config(workers=2, replicates=4), None)
            assert [res.counts for res in results] == [(1, 1)] * 4
            assert [get() for get in gets] == [2, 2]  # the parent keeps its setting
        finally:
            for set_threads, count in zip(sets, saved):
                set_threads(count)

    @pytest.mark.parametrize("workers, replicates, pools", [(16, 2, [2]), (2, 1, []), (2, 3, [2])])
    def test_pool_is_never_wider_than_the_replicate_count(
        self, monkeypatch, workers, replicates, pools
    ):
        sizes = []

        class InlinePool:
            """Records the pool size and runs each task in this process."""

            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_run_replicate", lambda cfg, data, r: r)
        cfg = small_config(workers=workers, replicates=replicates)
        assert harness._run_replicates(cfg, None) == list(range(1, replicates + 1))
        assert sizes == pools

    def test_blas_thread_limit_skips_missing_library_or_symbol(self, monkeypatch):
        gets = _openblas_calls("get")
        before = [get() for get in gets]
        monkeypatch.setattr(
            harness, "_OPENBLAS_THREAD_SETTERS", ((np, "no_such_symbol"), (pytest, "x"))
        )
        harness._one_blas_thread()
        assert [get() for get in gets] == before

    def test_requires_train_count(self):
        with pytest.raises(ValueError, match="train_per_class"):
            evaluate_experiment(small_config(train_per_class=None))

    def test_parallel_workers_reproduce_serial_results(self):
        serial = evaluate_experiment(small_config())
        parallel = evaluate_experiment(small_config(workers=2))
        assert [r.accuracy for r in serial.replicates] == [
            r.accuracy for r in parallel.replicates
        ]
        assert serial.replicates[-1].scatter == parallel.replicates[-1].scatter


class TestDegenerateFeatures:
    def test_all_zero_features(self, monkeypatch):
        # ddlic trains through the pseudo-inverse fallback to chance accuracy;
        # every ddl replicate fails on its zero dictionary
        data = LabeledMatrix(np.zeros((10, 24)), np.repeat(np.arange(3), 8))
        pinv, pinv_calls = np.linalg.pinv, []

        def counted_pinv(a):
            pinv_calls.append(a.shape)
            return pinv(a)

        monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
        report = evaluate_experiment(small_config(), data)
        assert pinv_calls
        assert report.n_failed == 0
        assert [r.accuracy for r in report.replicates] == [1 / 3] * 3
        assert report.scatter_means == (0.0, 0.0, 0.0)
        report = evaluate_experiment(small_config(method="ddl"), data)
        assert report.n_failed == 3
        assert {r.error for r in report.replicates} == {
            "ValueError: dictionary has zero spectral norm; cannot derive a step size"
        }

    @pytest.mark.parametrize("method", ["ddlic", "ddl"])
    def test_constant_feature_row(self, method):
        data = make_synthetic_clusters(3, 8, 10, 5.0, seed=0)
        features = np.array(data.features)
        features[2] = 3.5
        constant = LabeledMatrix(features, data.original_labels)
        report = evaluate_experiment(small_config(method=method), constant)
        assert report.n_failed == 0
        assert all(0.0 <= r.accuracy <= 1.0 for r in report.replicates)
        # a constant row adds no scatter to the input
        dropped = LabeledMatrix(np.delete(features, 2, axis=0), data.original_labels)
        without = evaluate_experiment(small_config(method=method), dropped)
        assert report.scatter_means[0] == pytest.approx(without.scatter_means[0], rel=1e-12)


class TestRunExperiment:
    def test_writes_report_summary_and_config(self, tmp_path):
        out = tmp_path / "exp"
        cfg = small_config(out_dir=str(out))
        run_experiment(cfg)
        assert (out / "report.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "resolved_config.txt").exists()
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header.startswith("replicate,seed,accuracy,best_k,failed,error")
        assert "scatter_z0" in header

    def test_report_is_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(small_config(out_dir=str(out1)))
        run_experiment(small_config(out_dir=str(out2)))
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    @pytest.mark.parametrize("make_config", ROUND_TRIP_CONFIGS, ids=["synthetic", "data_file"])
    def test_resolved_config_round_trips(self, tmp_path, make_config):
        out = tmp_path / "exp"
        cfg = make_config(tmp_path, out_dir=str(out))
        run_experiment(cfg)
        text = (out / "resolved_config.txt").read_text()
        path = tmp_path / "c.cfg"
        path.write_text(text)
        rebuilt = build_experiment_config(parse_config_file(str(path)))
        assert rebuilt == cfg

    def test_round_trip_inputs_set_every_key_off_its_default(self, tmp_path):
        default = set(resolved_config_text(ExperimentConfig()).splitlines())
        changed = set()
        for make_config in ROUND_TRIP_CONFIGS:
            lines = resolved_config_text(make_config(tmp_path, out_dir="out")).splitlines()
            changed |= {line.partition("=")[0] for line in lines if line not in default}
        assert changed == set(harness.CONFIG_KEYS)


class TestGridSearch:
    def test_shared_mode_evaluates_one_row_per_grid_value(self):
        cfg = small_config(replicates=2)
        data = load_experiment_data(cfg)
        best, rows = grid_search_alpha(cfg, data)
        assert len(rows) == 2
        assert all(len(set(row.alphas)) == 1 for row in rows)
        assert best in [row.alphas for row in rows]

    def test_full_mode_evaluates_cartesian_product(self):
        cfg = small_config(replicates=2, grid_mode="full")
        data = load_experiment_data(cfg)
        _, rows = grid_search_alpha(cfg, data)
        assert len(rows) == 4
        assert rows[0].alphas == (1e-4, 1e-4)
        assert rows[1].alphas == (1e-4, 1e-2)

    def test_first_best_row_wins_ties(self):
        cfg = small_config(replicates=2)
        data = load_experiment_data(cfg)
        best, rows = grid_search_alpha(cfg, data)
        top = max(row.mean_accuracy for row in rows)
        first = next(row for row in rows if row.mean_accuracy == top)
        assert best == first.alphas

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_cell_failing_raises_the_first_replicate_error(self, workers):
        # h equal to the class size leaves no test remainder: every split fails
        cfg = small_config(train_per_class=8, replicates=2, workers=workers)
        with pytest.raises(
            ValueError,
            match="every grid cell failed; first replicate error: ValueError: class 0 has 8",
        ):
            grid_search_alpha(cfg)

    def test_requires_label_aware_method(self):
        with pytest.raises(ValueError, match="ddlic"):
            grid_search_alpha(small_config(method="ddl"))

    @pytest.mark.parametrize("mode", ["shared", "full"])
    def test_parallel_grid_equals_serial_grid(self, mode):
        cfg = small_config(replicates=2, grid_mode=mode)
        data = load_experiment_data(cfg)
        serial_best, serial = grid_search_alpha(cfg, data)
        parallel_best, parallel = grid_search_alpha(replace(cfg, workers=2), data)
        assert parallel_best == serial_best
        assert len(parallel) == len(serial) == (2 if mode == "shared" else 4)
        for a, b in zip(serial, parallel):
            assert (a.alphas, a.mean_accuracy, a.std_accuracy, a.n_failed) == (
                b.alphas, b.mean_accuracy, b.std_accuracy, b.n_failed
            )
            assert _replicate_fields(a) == _replicate_fields(b)

    def test_one_pool_serves_every_cell(self, monkeypatch, recording_pool):
        # 2 cells x 2 replicates: one pool, 4 wide, every task submitted in
        # cell-major order before any cell's report is built
        cfg = small_config(workers=16, replicates=2)
        evaluate = harness.evaluate_experiment

        def recording_evaluate(cell, data=None, **kwargs):
            recording_pool.events.append(("report", cell.alphas))
            return evaluate(cell, data, **kwargs)

        monkeypatch.setattr(harness, "evaluate_experiment", recording_evaluate)
        _, reports = grid_search_alpha(cfg, load_experiment_data(cfg))
        cells = [(1e-4, 1e-4), (1e-2, 1e-2)]
        assert recording_pool.events == (
            [("pool", 4)]
            + [("submit", alphas, r) for alphas in cells for r in (1, 2)]
            + [("report", alphas) for alphas in cells]
            + [("exit",)]
        )
        assert [_replicate_fields(rep) for rep in reports] == [
            [(r, r, False, 1.0, 1, ()) for r in (1, 2)]
        ] * 2

    def test_serial_grid_opens_no_pool(self, recording_pool):
        cfg = small_config(workers=1, replicates=2)
        grid_search_alpha(cfg, load_experiment_data(cfg))
        assert recording_pool.events == []

    def test_an_error_while_waiting_cancels_queued_replicates(self, monkeypatch, recording_pool):
        # Each cell's first replicate finds its worker dead; the rest stay queued.
        monkeypatch.setattr(recording_pool, "queue", True)
        submit = recording_pool.submit

        def submit_then_break(pool, fn, cfg, data, r):
            future = submit(pool, fn, cfg, data, r)
            if r == 1:
                future.set_exception(BrokenProcessPool("a worker died"))
            return future

        monkeypatch.setattr(recording_pool, "submit", submit_then_break)
        cfg = small_config(workers=2, replicates=2)
        with pytest.raises(BrokenProcessPool, match="a worker died"):
            grid_search_alpha(cfg, load_experiment_data(cfg))
        assert recording_pool.events[0] == ("pool", 2)
        assert recording_pool.events[-2:] == [("shutdown", True), ("exit",)]

    def test_each_cell_reports_through_evaluate_experiment(self, monkeypatch):
        # Callers that observe grid cells, such as a benchmark's hooks, wrap
        # harness.evaluate_experiment and read the cell's config as args[0].
        cfg = small_config(replicates=2, workers=2)
        data = load_experiment_data(cfg)
        calls = []
        evaluate = harness.evaluate_experiment

        def recording_evaluate(*args, **kwargs):
            report = evaluate(*args, **kwargs)
            calls.append((args, report))
            return report

        monkeypatch.setattr(harness, "evaluate_experiment", recording_evaluate)
        started = time.perf_counter()
        _, reports = grid_search_alpha(cfg, data)
        elapsed = time.perf_counter() - started
        assert [args[0] for args, _ in calls] == [
            replace(cfg, alphas=(a, a), out_dir=None) for a in cfg.alpha_grid
        ]
        assert all(args[0].workers > 1 and args[1] is data for args, _ in calls)
        assert all(report is mine for (_, report), mine in zip(calls, reports))
        assert all(report.wall_seconds > 0 for report in reports)
        assert sum(report.wall_seconds for report in reports) <= elapsed


class TestExports:
    def _trained(self):
        data = make_synthetic_clusters(2, 6, 8, 4.0, seed=3)
        cfg = DdlicConfig(depth=2, layer_sizes=(5, 3), alphas=(0.01, 0.01),
                          iters_per_layer=3)
        return data, train_ddlic(data, cfg)

    def test_embeddings_round_trip(self, tmp_path):
        data, model = self._trained()
        paths = export_embeddings(model, data, str(tmp_path / "emb"))
        names = sorted(os.path.basename(p) for p in paths)
        assert names == [
            "embedding_layer_00.csv",
            "embedding_layer_01.csv",
            "embedding_layer_02.csv",
            "labels.csv",
        ]
        layer0 = np.loadtxt(tmp_path / "emb" / "embedding_layer_00.csv", delimiter=",")
        assert np.array_equal(layer0.T, data.features)
        layer2 = np.loadtxt(tmp_path / "emb" / "embedding_layer_02.csv", delimiter=",")
        assert np.array_equal(layer2.T, model.train_repr)
        labels = np.loadtxt(tmp_path / "emb" / "labels.csv", dtype=np.int64)
        assert labels.tolist() == data.original_labels.tolist()

    def test_sample_count_mismatch_rejected(self, tmp_path):
        data, model = self._trained()
        other = make_synthetic_clusters(2, 5, 8, 4.0, seed=4)
        with pytest.raises(ValueError, match="sample count"):
            export_embeddings(model, other, str(tmp_path / "emb"))

    def test_plain_stack_exports_input_and_final_layer(self, tmp_path):
        data = make_synthetic_clusters(2, 6, 8, 4.0, seed=5)
        model = train_ddl(
            data.features, TrainConfig(depth=2, layer_sizes=(5, 3), iters_per_layer=2)
        )
        paths = export_embeddings(model, data, str(tmp_path / "emb"))
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["embedding_layer_00.csv", "embedding_layer_02.csv", "labels.csv"]


class TestPerLayerAccuracy:
    def test_one_accuracy_per_layer(self):
        data = make_synthetic_clusters(3, 10, 12, 6.0, seed=6)
        train, test = split_per_class(data, SplitSpec(6, seed=1, replicate_index=1))
        cfg = DdlicConfig(depth=3, layer_sizes=(8, 6, 4), alphas=(0.01,) * 3,
                          iters_per_layer=4)
        model = train_ddlic(train, cfg)
        accs = per_layer_accuracy(model, train, test, KnnConfig(1, 5))
        assert len(accs) == 3
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_plain_stack_rejected(self):
        data = make_synthetic_clusters(2, 6, 8, 4.0, seed=7)
        train, test = split_per_class(data, SplitSpec(3, seed=1, replicate_index=1))
        model = train_ddl(
            train.features, TrainConfig(depth=1, layer_sizes=(4,), iters_per_layer=2)
        )
        with pytest.raises(ValueError, match="per-layer"):
            per_layer_accuracy(model, train, test)

    def test_training_data_other_than_the_models_rejected(self):
        data = make_synthetic_clusters(3, 10, 12, 6.0, seed=6)
        train, test = split_per_class(data, SplitSpec(6, seed=1, replicate_index=1))
        cfg = DdlicConfig(depth=2, layer_sizes=(8, 6), alphas=(0.01,) * 2, iters_per_layer=2)
        model = train_ddlic(train, cfg)
        with pytest.raises(ValueError, match="disagree on sample count"):
            per_layer_accuracy(model, test, test)


class TestConfigFiles:
    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("data=somewhere.csv\n")
        cfg = build_experiment_config(parse_config_file(str(path)))
        assert cfg.method == "ddlic"
        assert cfg.layer_sizes == (400, 200, 100)
        assert cfg.alphas == (1e-3, 1e-3, 1e-3)
        assert cfg.alpha_grid == DEFAULT_ALPHA_GRID
        assert cfg.replicates == 10
        assert cfg.knn == KnnConfig(1, 30, "best")

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\ndata=x.csv\nseed=7\n")
        values = parse_config_file(str(path))
        assert values == {"data": "x.csv", "seed": "7"}

    def test_key_set_twice_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\ndata=x.csv\nseed=1\nseed=2\n")
        with pytest.raises(ValueError) as err:
            parse_config_file(str(path))
        assert str(err.value) == f"{path}:4: key 'seed' already set on line 3"

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("layer_sizes", "16,,8", "integers"),
            ("layer_sizes", "16,12,", "integers"),
            ("alphas", "1e-3,,1e-2,1e-1", "numbers"),
            ("alpha_grid", "1e-3,,1e-2", "numbers"),
        ],
    )
    def test_empty_list_item_rejected(self, tmp_path, key, value, expected):
        path = tmp_path / "c.cfg"
        path.write_text(f"data=x.csv\n{key}={value}\n")
        with pytest.raises(ValueError) as err:
            build_experiment_config(parse_config_file(str(path)))
        assert str(err.value) == (
            f"config key {key!r}: expected comma-separated {expected}, got {value!r}"
        )

    @pytest.mark.parametrize(
        "key, message",
        [
            ("layer_sizes", "depth must be >= 1"),
            ("alphas", "alphas must have 1 or 3 values, got 0"),
            ("alpha_grid", "alpha_grid must be non-empty"),
        ],
    )
    def test_wholly_empty_list_meets_the_config_check(self, key, message):
        for value in ("", " "):
            with pytest.raises(ValueError, match=message):
                build_experiment_config({"data": "x.csv", key: value})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("daat=x.csv\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(str(path))

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(str(path))

    def test_single_alpha_broadcasts_to_depth(self):
        cfg = build_experiment_config(
            {"data": "x.csv", "layer_sizes": "8,6,4", "alphas": "0.01"}
        )
        assert cfg.alphas == (0.01, 0.01, 0.01)

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            build_experiment_config(
                {"data": "x.csv", "depth": "2", "layer_sizes": "8,6,4"}
            )

    def test_bad_number_mentions_key(self):
        with pytest.raises(ValueError, match="seed"):
            build_experiment_config({"data": "x.csv", "seed": "soon"})

    def test_dataset_must_be_configured(self):
        with pytest.raises(ValueError, match="no dataset"):
            build_experiment_config({})

    def test_data_and_synthetic_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            build_experiment_config(
                {
                    "data": "x.csv",
                    "synth_classes": "2",
                    "synth_per_class": "3",
                    "synth_dim": "4",
                    "synth_separation": "5",
                }
            )

    def test_partial_synthetic_spec_rejected(self):
        with pytest.raises(ValueError, match="synth"):
            build_experiment_config({"synth_classes": "2"})

    def test_synthetic_flow_materializes_data(self):
        cfg = build_experiment_config(
            {
                "synth_classes": "3",
                "synth_per_class": "4",
                "synth_dim": "5",
                "synth_separation": "2.5",
                "layer_sizes": "4,3",
            }
        )
        data = load_experiment_data(cfg)
        assert data.features.shape == (5, 12)

    def test_resolved_text_is_sorted_and_stable(self):
        cfg = small_config()
        text = resolved_config_text(cfg)
        lines = [ln for ln in text.splitlines() if ln]
        assert lines == sorted(lines)
        assert text == resolved_config_text(cfg)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(layer_sizes=(), alphas=()),
        dict(alphas=(1e-3,)),
        dict(method="ddl", alphas=(1e-3, -1e-3)),
        dict(method="ddlic", l1_weight=-0.1),
        dict(iters_per_layer=0),
        dict(init="svd"),
        dict(seed=-1),
    ],
    ids=["empty-layers", "alphas-length", "ddl-negative-alpha", "ddlic-negative-l1",
         "zero-iters", "unknown-init", "negative-seed"],
)
def test_experiment_config_rejects_bad_method_settings(overrides):
    # Each setting is checked whichever method the experiment runs.
    with pytest.raises(ValueError):
        small_config(**overrides)


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(method="svm"), "unknown method: 'svm'"),
        (dict(data_format="xml"), "unknown data format: 'xml'"),
        (dict(grid_mode="random"), "unknown grid mode: 'random'"),
        (dict(train_per_class=0), "train_per_class must be >= 1"),
        (dict(replicates=0), "replicates must be >= 1"),
        (dict(workers=0), "workers must be >= 1"),
    ],
    ids=["method", "data-format", "grid-mode", "train-per-class", "replicates", "workers"],
)
def test_experiment_config_rejects_bad_run_settings(overrides, message):
    with pytest.raises(ValueError, match=message):
        small_config(**overrides)


def test_summary_wall_seconds_is_elapsed_time_not_replicate_sum(tmp_path, monkeypatch):
    import deepdict.harness as harness

    def instant_replicates(cfg, data):
        return [
            harness.ReplicateResult(r, cfg.seed + r, 1.0, 1, (), 50.0, 50.0, False, "")
            for r in (1, 2)
        ]

    monkeypatch.setattr(harness, "_run_replicates", instant_replicates)
    out = tmp_path / "exp"
    report = run_experiment(small_config(replicates=2, out_dir=str(out)))
    assert report.wall_seconds < 50.0
    lines = (out / "summary.txt").read_text().splitlines()
    wall = [line for line in lines if line.startswith("wall_seconds:")]
    assert wall == [f"wall_seconds: {report.wall_seconds:.3f}"]
    assert "wall_seconds: 100.000" not in lines

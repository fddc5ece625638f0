"""The benchmark's output checks pass on genuine outputs and fail on
deliberately corrupted ones; tracing leaves the program's results unchanged.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import bench_checks as checks  # noqa: E402
import bench_trace as trace  # noqa: E402
import compare  # noqa: E402
from deepdict import harness  # noqa: E402
from deepdict.baseline import TrainConfig, code_test_ddl, product_dictionary, train_ddl  # noqa: E402
from deepdict.classify import KnnConfig, code_layers, code_test_ddlic, evaluate_accuracy  # noqa: E402
from deepdict.data import SplitSpec, make_synthetic_clusters, split_per_class  # noqa: E402
from deepdict.harness import ExperimentConfig, evaluate_experiment  # noqa: E402
from deepdict.intraclass import DdlicConfig, train_ddlic  # noqa: E402
from deepdict.kernels import ista_sparse_code  # noqa: E402
from deepdict.model_io import load_model, save_model  # noqa: E402


@pytest.fixture(scope="module")
def split():
    data = make_synthetic_clusters(3, 30, 20, 4.0, seed=5)
    return split_per_class(data, SplitSpec(15, seed=2, replicate_index=1))


@pytest.fixture(scope="module")
def ddlic(split):
    train, test = split
    model = train_ddlic(train, DdlicConfig(3, (12, 8, 6), (1e-4,) * 3, 10, seed=3))
    return model, code_test_ddlic(model, test.features)


@pytest.fixture(scope="module")
def ddl(split):
    train, test = split
    model = train_ddl(train.features, TrainConfig(3, (12, 8, 6), 1.0, 10, seed=3))
    return model, code_test_ddl(model, test.features)


def _fails(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


@pytest.mark.parametrize("selection", ["best", "cv"])
def test_knn_check_reproduces_report_and_rejects_corruption(split, ddlic, selection):
    train, test = split
    model, codes = ddlic
    knn = KnnConfig(selection=selection)
    report = evaluate_accuracy(model.train_repr, train.original_labels, codes,
                               test.original_labels, knn)
    args = (model.train_repr, train.original_labels, codes, test.original_labels, knn)
    checks.check_knn(report.selected_accuracy, report.selected_k, *args)
    n_test = codes.shape[1]
    _fails(checks.check_knn, report.selected_accuracy - 1 / n_test, report.selected_k, *args)
    other_k = report.selected_k + 1
    _fails(checks.check_knn, report.selected_accuracy, other_k, *args)


def test_knn_tie_rule_prefers_smaller_distance_sum_then_label():
    train = np.array([[0.0, 1.0, -1.5, 3.0]])
    labels = np.array([2, 2, 1, 1])
    # k=4 at the origin: two votes each; label 2 sums 0+1, label 1 sums 1.5+3.
    assert checks._votes_by_k(np.abs(train[0]), labels, 4)[3] == 2
    equal = np.array([1.0, 1.0])
    assert checks._votes_by_k(equal, np.array([7, 4]), 2)[1] == 4


def test_trace_check_rejects_a_rise(ddlic, ddl):
    checks.check_traces(ddlic[0].traces, "ddlic")
    checks.check_traces(ddl[0].traces, "ddl")
    bad = [t.copy() for t in ddlic[0].traces]
    bad[1][4] = bad[1][3] * (1 + 1e-6)
    _fails(checks.check_traces, bad, "ddlic")


def test_normal_equation_check_rejects_perturbed_codes(split, ddlic):
    _, test = split
    model, _ = ddlic
    layers = code_layers(model.dictionaries, test.features, model.config.ridge)
    checks.check_normal_equations(model.dictionaries, test.features, layers, model.config.ridge)
    bad = [z.copy() for z in layers]
    bad[1][0, 0] *= 1 + 1e-4
    _fails(checks.check_normal_equations, model.dictionaries, test.features, bad,
           model.config.ridge)


def test_kkt_check_accepts_converged_ista_and_rejects_perturbed_codes(split, ddl):
    _, test = split
    model, codes = ddl
    product = product_dictionary(model.dictionaries)
    _, objective = ista_sparse_code(product, test.features, model.l1_weight,
                                    model.config.ista, return_trace=True)
    assert len(objective) - 1 < model.config.ista.max_iters
    checks.check_lasso_kkt(product, test.features, codes, model.l1_weight, model.config.ista)
    bad = codes.copy()
    row, col = np.argwhere(bad != 0)[0]
    bad[row, col] *= 1.01
    _fails(checks.check_lasso_kkt, product, test.features, bad, model.l1_weight,
           model.config.ista)


def test_roundtrip_checks_reject_any_changed_bit(tmp_path, split, ddlic):
    _, test = split
    model, codes = ddlic
    save_model(model, str(tmp_path / "m"))
    loaded = load_model(str(tmp_path / "m"))
    checks.check_roundtrip(model, loaded)
    knn = KnnConfig()
    report = evaluate_accuracy(model.train_repr, model.labels, codes, test.original_labels, knn)
    again = code_test_ddlic(loaded, test.features)
    checks.check_same_classification(
        codes, again, report,
        evaluate_accuracy(loaded.train_repr, loaded.labels, again, test.original_labels, knn))

    bumped = loaded.dictionaries[1].copy()
    bumped[0, 0] = np.nextafter(bumped[0, 0], np.inf)
    _fails(checks.check_roundtrip, model, replace(loaded, dictionaries=[
        loaded.dictionaries[0], bumped, loaded.dictionaries[2]]))
    _fails(checks.check_roundtrip, model, replace(loaded, labels=loaded.labels[::-1].copy()))
    _fails(checks.check_roundtrip, model, replace(loaded, traces=loaded.traces[:2] + [
        loaded.traces[2][:-1]]))
    _fails(checks.check_same_classification, codes, again * (1 + 1e-12), report, report)


def _report(accuracies):
    results = [harness.ReplicateResult(i, 10 + i, acc, 3, (), 0.0, 0.0, False, "")
               for i, acc in enumerate(accuracies, start=1)]
    return harness.ExperimentReport("ddlic", (1e-4,), 0.1, results, 0.0, 0.0, 0, (), ())


def test_parallel_and_serial_replicates_must_match():
    checks.check_same_replicates(_report([0.5, 0.75]), _report([0.5, 0.75]), "cell")
    _fails(checks.check_same_replicates, _report([0.5, 0.75]), _report([0.5, 0.7]), "cell")


def test_best_cell_must_be_the_first_maximum():
    rows = [((1e-5,), 0.5), ((1e-4,), float("nan")), ((1e-3,), 0.9), ((1e-2,), 0.9)]
    checks.check_first_max(rows, (1e-3,))
    _fails(checks.check_first_max, rows, (1e-2,))
    _fails(checks.check_first_max, rows, (1e-4,))


def test_tracing_keeps_results_and_returns_worker_spans():
    cfg = ExperimentConfig(
        synthetic=harness.SyntheticSpec(3, 12, 10, 5.0), layer_sizes=(8, 6, 4),
        alphas=(1e-4,) * 3, iters_per_layer=3, train_per_class=6, replicates=2)
    plain = evaluate_experiment(cfg)
    for workers in (1, 2):
        recorder = trace.Recorder()
        with trace.tracing(recorder):
            traced = harness.evaluate_experiment(replace(cfg, workers=workers))
        assert [r.accuracy for r in traced.replicates] == [r.accuracy for r in plain.replicates]
        assert not any(hasattr(r, "bench_spans") for r in traced.replicates)
        names = {s["name"] for s in recorder.spans}
        assert {"harness.cell", "harness.replicate", "intraclass.train_layer.l3",
                "intraclass.update_representations"} <= names
        pids = {s["pid"] for s in recorder.spans if s["name"] == "harness.replicate"}
        assert (len(pids) > 1 or next(iter(pids)) != os.getpid()) == (workers > 1)
        ids = {s["id"] for s in recorder.spans}
        assert all(s["parent"] in ids for s in recorder.spans if s["parent"])
        stats = compare.self_times(recorder.spans)
        count, inclusive, own = stats["harness.cell"]
        assert count == 1 and 0 <= own <= inclusive
    assert harness.evaluate_experiment is evaluate_experiment


def test_self_time_merges_overlapping_children():
    spans = [
        {"id": "a", "parent": None, "name": "cell", "start": 0.0, "end": 10.0, "pid": 1},
        {"id": "b", "parent": "a", "name": "rep", "start": 1.0, "end": 6.0, "pid": 2},
        {"id": "c", "parent": "a", "name": "rep", "start": 2.0, "end": 8.0, "pid": 3},
    ]
    stats = compare.self_times(spans)
    assert stats["cell"] == (1, 10.0, 3.0)
    assert stats["rep"] == (2, 11.0, 11.0)

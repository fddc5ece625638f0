"""The plain layer-wise trainer: dense layers, sparse top layer, test coding."""

import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from deepdict.baseline import (
    DdlModel,
    TrainConfig,
    alternate_layer,
    code_test_ddl,
    product_dictionary,
    train_ddl,
    train_dense_layer,
    train_sparse_layer,
    train_stack,
)
from deepdict.data import LabeledMatrix, make_synthetic_clusters
from deepdict import baseline, intraclass, kernels
from deepdict.intraclass import (
    DdlicConfig,
    layer_objective,
    train_ddlic,
    train_layer,
    update_representations,
)
from deepdict.kernels import (
    DEFAULT_RIDGE,
    IstaConfig,
    initial_dictionary,
    ista_sparse_code,
    random_dictionary_init,
    ridge_code,
    solve_least_squares_dictionary,
    sparse_objective,
)

RNG = np.random.default_rng

pytestmark = pytest.mark.usefixtures("no_thread_outlives_the_test")


def _reference_dense_layer(inputs, init_dict, n_iters, policy=DEFAULT_RIDGE):
    """Reference: the dense layer's own alternating loop."""
    codes = ridge_code(init_dict, inputs, policy)
    dictionary = init_dict
    trace = np.empty(n_iters)
    for it in range(n_iters):
        dictionary = solve_least_squares_dictionary(inputs, codes, policy)
        codes = ridge_code(dictionary, inputs, policy)
        resid = inputs - dictionary @ codes
        trace[it] = float(np.sum(resid * resid))
    return dictionary, codes, trace


def _reference_sparse_layer(inputs, init_dict, n_iters, l1_weight, ista_cfg, policy=DEFAULT_RIDGE):
    """Reference: the sparse layer's own alternating loop, ISTA warm-started."""
    codes = ridge_code(init_dict, inputs, policy)
    dictionary = init_dict
    trace = np.empty(n_iters)
    for it in range(n_iters):
        dictionary = solve_least_squares_dictionary(inputs, codes, policy)
        codes = ista_sparse_code(dictionary, inputs, l1_weight, ista_cfg, warm_start=codes)
        trace[it] = sparse_objective(dictionary, inputs, codes, l1_weight)
    return dictionary, codes, trace


def _reference_ddl(features, cfg):
    """Reference: the greedy stack as its own loop over the reference layers."""
    current, dictionaries, traces = features, [], []
    for layer, n_atoms in enumerate(cfg.layer_sizes, start=1):
        init = initial_dictionary(current, n_atoms, layer, cfg.init, cfg.seed)
        if layer < cfg.depth:
            d, current, t = _reference_dense_layer(current, init, cfg.iters_per_layer, cfg.ridge)
        else:
            d, current, t = _reference_sparse_layer(
                current, init, cfg.iters_per_layer, cfg.l1_weight, cfg.ista, cfg.ridge
            )
        dictionaries.append(d)
        traces.append(t)
    return dictionaries, current, traces


def _same(got, want):
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


def _instance(seed, d=10, k=6, n=40):
    rng = RNG(seed)
    inputs = rng.normal(size=(d, n))
    init = random_dictionary_init(d, k, seed=seed + 100)
    return inputs, init


class TestDenseLayer:
    def test_reconstruction_error_never_increases(self):
        for seed in range(8):
            inputs, init = _instance(seed)
            _, _, trace = train_dense_layer(inputs, init, 15)
            diffs = np.diff(trace)
            assert (diffs <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1]))).all()

    def test_converges_to_a_mutual_fixed_point(self):
        inputs, init = _instance(3)
        d, z, _ = train_dense_layer(inputs, init, 200)
        resid = inputs - d @ z
        # both closed forms are stationary at convergence
        assert np.max(np.abs(resid @ z.T)) < 1e-6
        assert np.max(np.abs(d.T @ resid)) < 1e-6

    def test_shapes(self):
        inputs, init = _instance(1, d=7, k=4, n=20)
        d, z, trace = train_dense_layer(inputs, init, 5)
        assert d.shape == (7, 4) and z.shape == (4, 20) and len(trace) == 5


class TestSparseLayer:
    def test_penalized_objective_never_increases(self):
        for seed in range(8):
            inputs, init = _instance(seed, d=8, k=5, n=25)
            _, _, trace = train_sparse_layer(inputs, init, 15, l1_weight=0.2)
            diffs = np.diff(trace)
            assert (diffs <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1]))).all()

    def test_large_weight_drives_codes_toward_zero(self):
        inputs, init = _instance(2, d=8, k=5, n=25)
        _, z_small, _ = train_sparse_layer(inputs, init, 10, l1_weight=0.01)
        _, z_big, _ = train_sparse_layer(inputs, init, 10, l1_weight=2.0)
        assert np.sum(np.abs(z_big)) < np.sum(np.abs(z_small))
        assert np.mean(z_big == 0.0) > np.mean(z_small == 0.0)

    def test_fixed_step_codes_that_all_reach_zero_warn_once(self):
        x = make_synthetic_clusters(3, 12, 64, 6.0, seed=0).features
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dictionary, codes, trace = train_sparse_layer(
                x, x[:, :8], 3, 1e3, IstaConfig(step=1e-3)
            )
        assert [(w.category, str(w.message)) for w in caught] == [(
            RuntimeWarning,
            "every sparse code is zero, so the refreshed dictionary is zero "
            "and the layer trains to zero codes",
        )]
        # trained on as before: a zero model and a flat trace
        assert not dictionary.any() and not codes.any()
        assert trace.shape == (3,) and (trace == trace[0]).all()
        with pytest.raises(ValueError, match="every sparse code is zero at l1_weight=1000.0"):
            train_sparse_layer(x, x[:, :8], 3, 1e3)


class TestSharedLoop:
    """The shared alternating and stacking loops reproduce each trainer's own loop bit for bit."""

    def test_dense_layer_matches_reference(self):
        for seed in range(6):
            inputs, init = _instance(seed)
            got = train_dense_layer(inputs, init, 12)
            assert _same(got, _reference_dense_layer(inputs, init, 12))

    def test_sparse_layer_matches_reference(self):
        cfg = IstaConfig(max_iters=80)
        for seed in range(6):
            inputs, init = _instance(seed, d=8, k=5, n=25)
            got = train_sparse_layer(inputs, init, 10, 0.2, cfg)
            assert _same(got, _reference_sparse_layer(inputs, init, 10, 0.2, cfg))

    @pytest.mark.parametrize("init", ["qr", "random"])
    def test_stack_matches_reference(self, init):
        feats = RNG(20).normal(size=(12, 30))
        cfg = TrainConfig(depth=3, layer_sizes=(9, 6, 4), iters_per_layer=5, seed=3,
                          init=init, ista=IstaConfig(max_iters=60))
        model = train_ddl(feats, cfg)
        dictionaries, codes, traces = _reference_ddl(feats, cfg)
        assert _same(model.dictionaries, dictionaries)
        assert np.array_equal(model.train_repr, codes)
        assert _same(model.traces, traces)


class ObjectiveFailed(Exception):
    pass


class CodeStepFailed(Exception):
    pass


def _failing(at: int, error: Exception, step):
    """A step that calls ``step`` and raises ``error`` from its ``at``-th call on."""
    calls = []

    def failing(*args):
        calls.append(len(calls) + 1)
        if len(calls) >= at:
            raise error
        return step(*args)

    return failing


def _helper_instance():
    """A layer just large enough for the helper thread: 128 x 1024 inputs, 16 atoms."""
    return _instance(5, d=128, k=16, n=1024)


def _objectives_on_the_calling_thread(n_iters, instance=_helper_instance):
    """Whether each objective of a layer ran on the thread that trains it."""
    inputs, init = instance()
    caller, seen = threading.get_ident(), []

    def objective(dictionary, codes):
        seen.append(threading.get_ident() == caller)
        return 0.0

    alternate_layer(inputs, init, n_iters, lambda d, z: ridge_code(d, inputs), objective)
    return seen


class TestObjectiveHelper:
    """Each objective runs on a helper thread while the next iteration trains."""

    def _layer(self):
        inputs, init = _helper_instance()
        code_step = lambda dictionary, codes: ridge_code(dictionary, inputs)
        objective = lambda dictionary, codes: sparse_objective(dictionary, inputs, codes, 0.0)
        return inputs, init, code_step, objective

    def test_an_objective_failure_surfaces_unchanged(self):
        inputs, init, code_step, objective = self._layer()
        error = ObjectiveFailed("objective failed at iteration 3")
        with pytest.raises(ObjectiveFailed) as caught:
            alternate_layer(inputs, init, 6, code_step, _failing(3, error, objective))
        assert caught.value is error
        assert str(caught.value) == "objective failed at iteration 3"

    def test_an_objective_failure_wins_over_the_next_code_step_failure(self):
        inputs, init, code_step, objective = self._layer()
        first = ObjectiveFailed("objective failed at iteration 3")
        code_step = _failing(4, CodeStepFailed("code step failed at iteration 4"), code_step)
        with pytest.raises(ObjectiveFailed) as caught:
            alternate_layer(inputs, init, 6, code_step, _failing(3, first, objective))
        assert caught.value is first

    def test_no_thread_outlives_training(self, monkeypatch):
        # the first layer is large enough for the helper thread
        feats = RNG(21).normal(size=(128, 1024))
        labeled = LabeledMatrix(feats, np.repeat(np.arange(8), 128))
        ddlic = DdlicConfig(depth=2, layer_sizes=(16, 8), alphas=(0.1, 0.1), iters_per_layer=4)
        ddl = TrainConfig(depth=2, layer_sizes=(16, 8), iters_per_layer=4)
        before = threading.active_count()
        train_ddlic(labeled, ddlic)
        train_ddl(feats, ddl)
        assert threading.active_count() == before
        # a failure on the main thread while an objective runs: every sparse code is zero
        with pytest.raises(ValueError, match="every sparse code is zero"):
            train_ddl(feats, TrainConfig(depth=1, layer_sizes=(16,), l1_weight=1e6))
        assert threading.active_count() == before
        # a failure on the helper thread
        failing = _failing(2, ObjectiveFailed("x"), intraclass.layer_objective)
        monkeypatch.setattr(intraclass, "layer_objective", failing)
        with pytest.raises(ObjectiveFailed):
            train_ddlic(labeled, ddlic)
        assert threading.active_count() == before

    def test_an_objective_sees_the_callers_errstate(self):
        inputs, init, code_step, objective = self._layer()
        seen = []

        def recording(dictionary, codes):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
            return objective(dictionary, codes)

        with np.errstate(all="raise"):
            alternate_layer(inputs, init, 3, code_step, recording)
            want = np.geterr()
        assert want != np.geterr()
        assert seen == [(False, want)] * 3

    def test_one_iteration_runs_its_objective_on_the_helper(self):
        assert _objectives_on_the_calling_thread(1) == [False]
        inputs, init = _helper_instance()
        assert _same(train_dense_layer(inputs, init, 1), _reference_dense_layer(inputs, init, 1))

    def test_a_pool_worker_computes_objectives_inline(self):
        assert _objectives_on_the_calling_thread(3) == [False] * 3
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            inline = pool.submit(_objectives_on_the_calling_thread, 3).result(timeout=120)
        assert inline == [True] * 3

    def test_a_small_layer_computes_objectives_inline(self):
        smaller = lambda: _instance(5, d=128, k=16, n=1023)
        assert _objectives_on_the_calling_thread(3, smaller) == [True] * 3

    def test_paper_scale_first_layer_matches_inline_loops(self):
        """784-dim inputs, 500 columns in 10 classes, 400 atoms: both stacks'
        first layers equal their inline loops."""
        rng = RNG(22)
        inputs = rng.normal(size=(784, 500)) + 10.0 * rng.normal(size=(784, 10)).repeat(50, axis=1)
        init = initial_dictionary(inputs, 400, 1, "qr", 0)
        assert _same(train_dense_layer(inputs, init, 3), _reference_dense_layer(inputs, init, 3))
        class_index = [np.arange(c * 50, (c + 1) * 50) for c in range(10)]
        codes = ridge_code(init, inputs)
        dictionary = init
        trace = []
        for _ in range(3):
            dictionary = solve_least_squares_dictionary(inputs, codes, DEFAULT_RIDGE)
            codes = update_representations(dictionary, inputs, codes, 1e-4, class_index)
            trace.append(layer_objective(inputs, dictionary, codes, 1e-4, class_index))
        got = train_layer(inputs, 1e-4, 400, 3, class_index, init)
        assert _same(got, (dictionary, codes, np.asarray(trace)))


# Trains both stacks on a paper-scale-shaped first layer (784-dim inputs, 500
# columns in 10 classes, 400 atoms), with the helper and then with every layer
# forced inline. Prints the array count and whether every dictionary, code
# matrix and trace match.
_HELPER_MATCHES_INLINE = """
import numpy as np
from deepdict import kernels
from deepdict.baseline import TrainConfig, train_ddl
from deepdict.data import LabeledMatrix
from deepdict.intraclass import DdlicConfig, train_ddlic
rng = np.random.default_rng(23)
feats = rng.normal(size=(784, 500)) + 10.0 * rng.normal(size=(784, 10)).repeat(50, axis=1)
train = LabeledMatrix(feats, np.repeat(np.arange(10), 50))
def arrays():
    ic = train_ddlic(train, DdlicConfig(depth=2, layer_sizes=(400, 20), alphas=(1e-4, 1e-4),
                                        iters_per_layer=2))
    ddl = train_ddl(feats, TrainConfig(depth=2, layer_sizes=(400, 20), iters_per_layer=2))
    return [*ic.dictionaries, *ic.layer_reprs, *ic.traces,
            *ddl.dictionaries, ddl.train_repr, *ddl.traces]
helper = arrays()
kernels._HELPER_MIN_WORK = float("inf")
inline = arrays()
print(len(helper), all(np.array_equal(a, b) for a, b in zip(helper, inline)))
"""


def _run_with_blas_threads(script, threads):
    """Standard output of ``script`` in a fresh interpreter, with the BLAS
    thread variables set to ``threads``, or unset for None."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(baseline.__file__))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("threads", [None, 1], ids=["blas-threads-unset", "one-blas-thread"])
def test_both_stacks_match_inline_loops(threads):
    assert _run_with_blas_threads(_HELPER_MATCHES_INLINE, threads) == "11 True\n"


# Trains both stacks' paper-scale-shaped first layers (784-dim inputs, 500
# columns in 10 classes, 400 atoms) in the layer loop and in serial loops of
# the public steps, which run outside it. Prints whether a pair's first call
# ran on the helper, whether none did in the serial loops, and whether every
# dictionary, code matrix and trace match.
_PAIRS_MATCH_SERIAL = """
import threading
import numpy as np
from deepdict import intraclass, kernels
from deepdict.baseline import train_dense_layer
from deepdict.intraclass import layer_objective, train_layer, update_representations
from deepdict.kernels import (initial_dictionary, ridge_code, solve_least_squares_dictionary,
                              sparse_objective)
main, on_helper = threading.get_ident(), []
def recording(paired):
    def pair(first, second, work):
        def first_recorded():
            on_helper.append(threading.get_ident() != main)
            return first()
        return paired(first_recorded, second, work)
    return pair
kernels._paired = recording(kernels._paired)
intraclass._paired = recording(intraclass._paired)
rng = np.random.default_rng(27)
x = rng.normal(size=(784, 500)) + 10.0 * rng.normal(size=(784, 10)).repeat(50, axis=1)
init = initial_dictionary(x, 400, 1, "qr", 0)
classes = [np.arange(c * 50, (c + 1) * 50) for c in range(10)]
looped = [*train_dense_layer(x, init, 2), *train_layer(x, 1e-4, 400, 2, classes, init)]
paired = any(on_helper)
on_helper.clear()
serial = []
for step, objective in (
    (lambda d, z: ridge_code(d, x), lambda d, z: sparse_objective(d, x, z, 0.0)),
    (lambda d, z: update_representations(d, x, z, 1e-4, classes),
     lambda d, z: layer_objective(x, d, z, 1e-4, classes)),
):
    codes, trace = ridge_code(init, x), []
    for _ in range(2):
        dictionary = solve_least_squares_dictionary(x, codes)
        codes = step(dictionary, codes)
        trace.append(objective(dictionary, codes))
    serial += [dictionary, codes, np.asarray(trace)]
print(paired, not any(on_helper), all(np.array_equal(a, b) for a, b in zip(looped, serial)))
"""


def _helper_seen_by_factors():
    """Whether the layer loop's helper was set at each factorization of a
    layer large enough for pairs (300 x 300 inputs, 120 atoms)."""
    seen, factor, caller = [], kernels._ridged_factor, threading.get_ident()

    def recording(*args):
        # work on the helper thread runs with no helper set, inside the loop all the same
        seen.append(kernels._SOLVE_HELPER.get() is not None or threading.get_ident() != caller)
        return factor(*args)

    kernels._ridged_factor = recording
    try:
        train_dense_layer(*_instance(28, d=300, k=120, n=300), 2)
    finally:
        kernels._ridged_factor = factor
    return seen


# Trains both stacks at grid-parallel's shape (200-dim inputs, 10 classes of
# 30 columns, layers 128/96/64) and with an overcomplete first layer (784-dim
# inputs, 5 columns, 400 atoms), with the helper gate open (0) and shut
# (infinity). Prints the array count and whether every dictionary, code
# matrix and trace match.
_GATE_OPEN_MATCHES_SHUT = """
import numpy as np
from deepdict import kernels
from deepdict.baseline import TrainConfig, train_ddl
from deepdict.data import LabeledMatrix, make_synthetic_clusters
from deepdict.intraclass import DdlicConfig, train_ddlic
grid = make_synthetic_clusters(10, 30, 200, 6.0, seed=1)
wide = LabeledMatrix(np.random.default_rng(31).normal(size=(784, 5)), np.array([0, 0, 1, 1, 1]))
def arrays():
    out = []
    for train, sizes in ((grid, (128, 96, 64)), (wide, (400, 3))):
        depth = len(sizes)
        ic = train_ddlic(train, DdlicConfig(depth=depth, layer_sizes=sizes,
                                            alphas=(1e-4,) * depth, iters_per_layer=2))
        ddl = train_ddl(train.features, TrainConfig(depth=depth, layer_sizes=sizes,
                                                    iters_per_layer=2))
        out += [*ic.dictionaries, *ic.layer_reprs, *ic.traces,
                *ddl.dictionaries, ddl.train_repr, *ddl.traces]
    return out
kernels._HELPER_MIN_WORK = 0
gate_open = arrays()
kernels._HELPER_MIN_WORK = float("inf")
gate_shut = arrays()
print(len(gate_open), all(np.array_equal(a, b) for a, b in zip(gate_open, gate_shut)))
"""


def _handed_over(monkeypatch, train):
    """``train()``, and the work of each pair whose first call ran on the helper."""
    paired, caller, handed = kernels._paired, threading.get_ident(), []

    def recording(first, second, work):
        def first_recorded():
            if threading.get_ident() != caller:
                handed.append(work)
            return first()
        return paired(first_recorded, second, work)

    for module in (kernels, baseline, intraclass):
        monkeypatch.setattr(module, "_paired", recording)
    return train(), handed


class TestPairedProducts:
    """Independent products run on the layer loop's two threads."""

    @pytest.mark.parametrize("threads", [None, 1], ids=["blas-threads-unset", "one-blas-thread"])
    def test_both_stacks_match_serial_loops(self, threads):
        assert _run_with_blas_threads(_PAIRS_MATCH_SERIAL, threads) == "True True True\n"

    @pytest.mark.parametrize("threads", [None, 1], ids=["blas-threads-unset", "one-blas-thread"])
    def test_the_gate_open_and_shut_train_the_same_stacks(self, threads):
        assert _run_with_blas_threads(_GATE_OPEN_MATCHES_SHUT, threads) == "27 True\n"

    def test_an_overcomplete_layer_pairs_its_gram(self, monkeypatch):
        # the objective's 1.6 M multiply-adds stay below the gate, D^T D's 125 M pass it
        x = RNG(31).normal(size=(784, 5))
        init = initial_dictionary(x, 400, 1, "qr", 0)
        gram = 400 * 400 * 784
        assert x.size * 400 < kernels._HELPER_MIN_WORK <= gram
        classes = [np.arange(2), np.arange(2, 5)]

        def both():
            return [*train_dense_layer(x, init, 2), *train_layer(x, 1e-4, 400, 2, classes, init)]

        paired, handed = _handed_over(monkeypatch, both)
        # each stack's starting codes and its two code steps
        assert handed == [gram] * 6
        monkeypatch.setattr(kernels, "_HELPER_MIN_WORK", float("inf"))
        inline, handed = _handed_over(monkeypatch, both)
        assert handed == [] and _same(paired, inline)

    def test_a_serial_run_at_grid_parallel_shape_pairs_its_first_layer(self, monkeypatch):
        # D^T D of the 128-atom layer on 200-dim inputs: 3.3 M multiply-adds
        train = make_synthetic_clusters(10, 30, 200, 6.0, seed=1)
        cfg = DdlicConfig(depth=3, layer_sizes=(128, 96, 64), alphas=(1e-4,) * 3,
                          iters_per_layer=2)
        _, handed = _handed_over(monkeypatch, lambda: train_ddlic(train, cfg))
        assert 128 * 128 * 200 in handed
        assert 96 * 96 * 128 < kernels._HELPER_MIN_WORK  # layer 2's stays inline

    def test_no_thread_or_helper_outlives_a_pair(self, monkeypatch):
        inputs, init = _instance(29, d=300, k=120, n=300)
        assert 120 * 120 * 300 >= kernels._HELPER_MIN_WORK
        code_step = lambda dictionary, codes: ridge_code(dictionary, inputs)
        objective = lambda dictionary, codes: sparse_objective(dictionary, inputs, codes, 0.0)
        before = threading.active_count()
        alternate_layer(inputs, init, 2, code_step, objective)
        assert threading.active_count() == before
        assert kernels._SOLVE_HELPER.get() is None
        # the third factorization, the first code step's, is a pair's first call
        factor, calls = kernels._ridged_factor, []

        def failing(*args):
            calls.append(threading.get_ident())
            if len(calls) == 3:
                raise ObjectiveFailed("factor failed")
            return factor(*args)

        monkeypatch.setattr(kernels, "_ridged_factor", failing)
        with pytest.raises(ObjectiveFailed, match="factor failed"):
            alternate_layer(inputs, init, 3, code_step, objective)
        assert len(calls) == 3
        assert threading.active_count() == before
        assert kernels._SOLVE_HELPER.get() is None

    def test_the_refresh_factors_on_the_owning_thread(self, monkeypatch):
        # the codes stay the starting codes, so the factors after the first are the refreshes'
        inputs, init = _instance(30, d=300, k=120, n=300)
        assert 120 * 120 * 300 >= kernels._HELPER_MIN_WORK
        factored, factor = [], kernels._ridged_factor
        monkeypatch.setattr(kernels, "_ridged_factor", lambda *args: (
            factored.append(threading.get_ident()) or factor(*args)))
        alternate_layer(inputs, init, 3, lambda dictionary, codes: codes,
                        lambda dictionary, codes: sparse_objective(dictionary, inputs, codes, 0.0))
        me = threading.get_ident()
        assert factored[0] != me  # the starting codes' pair
        assert factored[1:] == [me] * 3

    def test_no_pair_in_a_pool_worker(self):
        assert _helper_seen_by_factors() == [True] * 5
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            seen = pool.submit(_helper_seen_by_factors).result(timeout=120)
        assert seen == [False] * 5


SMALL = TrainConfig(depth=2, layer_sizes=(3, 2), iters_per_layer=2)
SMALL_DDLIC = DdlicConfig(depth=2, layer_sizes=(3, 2), alphas=(0.1, 0.1), iters_per_layer=2)


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: alternate_layer(np.ones((3, 4)), np.eye(2), 1, None, None),
             "init_dict rows must match the input dimension"),
            (lambda: alternate_layer(np.ones((3, 4)), np.eye(3), 0, None, None),
             "n_iters must be >= 1"),
            (lambda: train_stack(np.ones(4), TrainConfig(depth=1, layer_sizes=(2,)), None),
             "features must be a non-empty 2-D matrix"),
            (lambda: train_stack(np.ones((3, 0)), TrainConfig(depth=1, layer_sizes=(2,)), None),
             "features must be a non-empty 2-D matrix"),
            (lambda: product_dictionary([]), "at least one dictionary is required"),
        ],
        ids=["init-dict-rows", "no-iterations", "vector-features", "no-samples", "no-dictionaries"],
    )
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_all_zero_features_rejected_before_any_layer_trains(self):
        trained = []
        with pytest.raises(ValueError, match="features are all zero"):
            train_stack(np.zeros((4, 6)), SMALL, lambda layer, *_: trained.append(layer))
        assert trained == []
        with pytest.raises(ValueError, match="features are all zero"):
            train_ddl(np.zeros((4, 6)), SMALL)
        zeros = LabeledMatrix(np.zeros((4, 6)), np.repeat([0, 1], 3))
        with pytest.raises(ValueError, match="features are all zero"):
            train_ddlic(zeros, SMALL_DDLIC)

    def test_constant_nonzero_features_still_train(self):
        assert np.isfinite(train_ddl(np.full((4, 6), 3.5), SMALL).train_repr).all()
        constant = LabeledMatrix(np.full((4, 6), 3.5), np.repeat([0, 1], 3))
        assert np.isfinite(train_ddlic(constant, SMALL_DDLIC).train_repr).all()


class TestFullStack:
    def test_layer_shapes_follow_config(self):
        rng = RNG(4)
        feats = rng.normal(size=(12, 30))
        cfg = TrainConfig(depth=3, layer_sizes=(9, 6, 4), iters_per_layer=4, seed=1)
        model = train_ddl(feats, cfg)
        shapes = [d.shape for d in model.dictionaries]
        assert shapes == [(12, 9), (9, 6), (6, 4)]
        assert model.train_repr.shape == (4, 30)
        assert [len(t) for t in model.traces] == [4, 4, 4]

    def test_single_layer_stack_is_sparse(self):
        rng = RNG(5)
        feats = rng.normal(size=(8, 20))
        cfg = TrainConfig(depth=1, layer_sizes=(5,), l1_weight=5.0, iters_per_layer=6)
        model = train_ddl(feats, cfg)
        assert np.mean(model.train_repr == 0.0) > 0.1

    def test_deterministic_per_seed(self):
        rng = RNG(6)
        feats = rng.normal(size=(10, 24))
        cfg = TrainConfig(depth=2, layer_sizes=(7, 4), iters_per_layer=3, seed=9)
        m1, m2 = train_ddl(feats, cfg), train_ddl(feats, cfg)
        m3 = train_ddl(feats, TrainConfig(depth=2, layer_sizes=(7, 4), iters_per_layer=3, seed=10))
        for a, b in zip(m1.dictionaries, m2.dictionaries):
            assert np.array_equal(a, b)
        # layer 1 comes from the data alone here (orthonormal init); deeper
        # layers draw their starting dictionary from the seed
        assert not np.array_equal(m1.dictionaries[1], m3.dictionaries[1])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(depth=2, layer_sizes=(5,))
        with pytest.raises(ValueError):
            TrainConfig(depth=1, layer_sizes=(0,))
        with pytest.raises(ValueError):
            TrainConfig(l1_weight=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(iters_per_layer=0)

    def test_model_shape_validation(self):
        rng = RNG(7)
        with pytest.raises(ValueError):
            DdlModel(
                dictionaries=[rng.normal(size=(5, 3))],
                train_repr=rng.normal(size=(4, 10)),  # rows disagree with atoms
                config=TrainConfig(depth=1, layer_sizes=(3,)),
                traces=[np.zeros(2)],
            )


class TestTestCoding:
    def test_product_dictionary_equals_chained_product(self):
        rng = RNG(8)
        mats = [rng.normal(size=(10, 7)), rng.normal(size=(7, 5)), rng.normal(size=(5, 3))]
        assert np.allclose(product_dictionary(mats), mats[0] @ mats[1] @ mats[2])

    def test_test_codes_reach_a_sparse_fixed_point(self):
        rng = RNG(9)
        feats = rng.normal(size=(10, 30))
        cfg = TrainConfig(depth=2, layer_sizes=(7, 5), iters_per_layer=5, seed=2)
        model = train_ddl(feats, cfg)
        model = replace(model, config=replace(cfg, ista=IstaConfig(max_iters=6000, rel_tol=1e-13)))
        test = rng.normal(size=(10, 12))
        codes = code_test_ddl(model, test)
        # one more proximal step barely moves the result
        prod = product_dictionary(model.dictionaries)
        gram, corr = prod.T @ prod, prod.T @ test
        step = 1.0 / np.linalg.eigvalsh(gram)[-1]
        shifted = codes - step * (gram @ codes - corr)
        thr = 0.5 * step * model.l1_weight
        again = np.sign(shifted) * np.maximum(np.abs(shifted) - thr, 0.0)
        assert np.max(np.abs(again - codes)) < 1e-6

    def test_row_mismatch_rejected(self):
        rng = RNG(10)
        feats = rng.normal(size=(8, 20))
        model = train_ddl(feats, TrainConfig(depth=1, layer_sizes=(4,), iters_per_layer=2))
        with pytest.raises(ValueError):
            code_test_ddl(model, rng.normal(size=(9, 5)))

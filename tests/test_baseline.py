"""The plain layer-wise trainer: dense layers, sparse top layer, test coding."""

from dataclasses import replace

import numpy as np
import pytest

from deepdict.baseline import (
    DdlModel,
    TrainConfig,
    code_test_ddl,
    product_dictionary,
    train_ddl,
    train_dense_layer,
    train_sparse_layer,
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

"""Label-aware trainer: penalty, gradients, closed-form updates, full stack."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from deepdict import intraclass
from deepdict.data import make_synthetic_clusters
from deepdict.intraclass import (
    DdlicConfig,
    DdlicModel,
    column_gradient,
    compactness_penalty,
    dictionary_gradient,
    layer_objective,
    train_ddlic,
    train_layer,
    update_dictionary,
    update_representations,
)
from deepdict.baseline import train_dense_layer
from deepdict.harness import DEFAULT_ALPHA_GRID
from deepdict.kernels import (
    DEFAULT_RIDGE,
    RidgePolicy,
    gram_solver,
    initial_dictionary,
    random_dictionary_init,
    ridge_code,
)

RNG = np.random.default_rng

pytestmark = pytest.mark.usefixtures("no_thread_outlives_the_test")


def _class_index(counts):
    idx, start = [], 0
    for n in counts:
        idx.append(np.arange(start, start + n))
        start += n
    return tuple(idx)


def _instance(seed, d=9, k=5, counts=(4, 3, 5)):
    rng = RNG(seed)
    n = sum(counts)
    inputs = rng.normal(size=(d, n))
    dictionary = rng.normal(size=(d, k))
    codes = rng.normal(size=(k, n))
    return inputs, dictionary, codes, _class_index(counts)


def _sequential_sweep(dictionary, inputs, codes, alpha, class_index, policy=DEFAULT_RIDGE):
    """Reference sweep: one Gram solve per column, class by class, in index order."""
    gram = dictionary.T @ dictionary
    corr = dictionary.T @ inputs
    out = np.array(codes, dtype=float)
    eye = np.eye(gram.shape[0])
    for idx in class_index:
        solve = gram_solver(gram + (2.0 * alpha * (idx.size - 1)) * eye, policy)
        class_sum = out[:, idx].sum(axis=1)
        for col in idx:
            old = out[:, col].copy()
            new = solve(corr[:, col] + 2.0 * alpha * (class_sum - old))
            class_sum += new - old
            out[:, col] = new
    return out


def _batched_sweep(dictionary, inputs, codes, alpha, class_index, policy=DEFAULT_RIDGE):
    """Reference: the sweep batched by class size through ``gram_solver``.

    One ``gram_solver`` per class size, the sums of later columns from an
    axis-0 ``cumsum``, and one solver call per position.
    """
    by_size = {}
    for ix in class_index:
        by_size.setdefault(len(ix), []).append(ix)
    groups = [np.array(members) for size, members in by_size.items() if size]
    gram = dictionary.T @ dictionary
    corr = inputs.T @ dictionary
    old = codes.T
    out = np.empty_like(corr)
    if alpha == 0 and groups:
        groups = [np.concatenate(groups, axis=None)[:, None]]
    for cols in groups:
        n_c = cols.shape[1]
        solve = gram_solver(gram + 2.0 * alpha * (n_c - 1) * np.eye(gram.shape[0]), policy)
        by_position = cols.T
        rhs = corr[by_position]
        after = old[by_position[:0:-1]].cumsum(axis=0)[::-1]
        rhs[:-1] += 2.0 * alpha * after
        before = np.zeros_like(rhs[0])
        for j in range(n_c):
            rhs[j] = solve((rhs[j] + 2.0 * alpha * before).T).T
            before += rhs[j]
        out[by_position] = rhs
    return np.ascontiguousarray(out.T)


def _per_class_penalty(codes, class_index):
    """Reference: the compactness penalty summed class by class."""
    total = 0.0
    for idx in class_index:
        block = codes[:, idx]
        s = block.sum(axis=1)
        total += 2.0 * (idx.size * float(np.sum(block * block)) - float(s @ s))
    return total


def _reference_train_layer(inputs, alpha, n_iters, class_index, init_dict):
    """Reference: the layer's own alternating loop."""
    codes = ridge_code(init_dict, inputs)
    dictionary = init_dict
    values = []
    for _ in range(n_iters):
        dictionary = update_dictionary(inputs, codes)
        codes = update_representations(dictionary, inputs, codes, alpha, class_index)
        values.append(layer_objective(inputs, dictionary, codes, alpha, class_index))
    return dictionary, codes, np.asarray(values)


def _relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


SWEEP_ALPHAS = (0.0, 1e-4, 1e-2, 0.1, 0.3, 3.0)


@st.composite
def _partitioned_instances(draw):
    """Singleton classes mixed with several classes of one size, columns shuffled.

    The atom count reaches past the column count, as in a layer wider than
    its sample count, and past the input dimension.
    """
    counts = [1] * draw(st.integers(0, 4)) + [draw(st.integers(2, 6))] * draw(st.integers(2, 4))
    n = sum(counts)
    k = draw(st.integers(1, n + 4))
    d = draw(st.integers(2, 12))
    alpha = draw(st.sampled_from([0.0, 1e-4, 3.0]))
    rng = RNG(draw(st.integers(0, 2**32 - 1)))
    counts = rng.permutation(counts)
    class_index = tuple(np.split(rng.permutation(n), np.cumsum(counts)[:-1]))
    arrays = rng.normal(size=(d, k)), rng.normal(size=(d, n)), rng.normal(size=(k, n))
    return (*arrays, alpha, class_index)


class TestPenaltyAndObjective:
    def test_penalty_matches_brute_force_ordered_pairs(self):
        _, _, codes, class_index = _instance(0)
        want = 0.0
        for idx in class_index:
            for i in idx:
                for j in idx:
                    if i != j:
                        want += float(np.sum((codes[:, i] - codes[:, j]) ** 2))
        assert abs(compactness_penalty(codes, class_index) - want) < 1e-9

    def test_penalty_zero_for_identical_class_members(self):
        codes = np.tile(np.arange(3.0)[:, None], (1, 4))
        assert compactness_penalty(codes, _class_index((4,))) == pytest.approx(0.0)

    def test_singleton_classes_contribute_nothing(self):
        rng = RNG(1)
        codes = rng.normal(size=(3, 5))
        assert compactness_penalty(codes, _class_index((1,) * 5)) == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "counts", [(30,) * 40, (1, 4, 2, 1, 5, 3, 4), (4, 6, 4, 6, 6, 4, 4)], ids=str
    )
    def test_penalty_by_class_size_matches_class_by_class_sum(self, counts):
        rng = RNG(29)
        codes = rng.normal(size=(12, sum(counts)))
        class_index = tuple(np.split(rng.permutation(sum(counts)), np.cumsum(counts)[:-1]))
        got = compactness_penalty(codes, class_index)
        want = _per_class_penalty(codes, class_index)
        assert abs(got - want) <= 1e-12 * want

    def test_column_gradient_rejects_column_outside_its_class(self):
        inputs, dictionary, codes, class_index = _instance(31)
        with pytest.raises(ValueError, match="col must belong to class_cols"):
            column_gradient(dictionary, inputs, codes, 0.1, class_index[0], class_index[1][0])

    def test_penalty_rejects_class_index_that_is_not_a_partition(self):
        with pytest.raises(ValueError, match="partition"):
            compactness_penalty(np.zeros((2, 6)), (np.arange(3), np.arange(2, 5)))

    def test_objective_is_residual_plus_weighted_penalty(self):
        inputs, dictionary, codes, class_index = _instance(2)
        resid = float(np.sum((inputs - dictionary @ codes) ** 2))
        pen = compactness_penalty(codes, class_index)
        got = layer_objective(inputs, dictionary, codes, 0.25, class_index)
        assert abs(got - (resid + 0.25 * pen)) < 1e-9


class TestGradients:
    def test_column_gradient_matches_central_differences(self):
        inputs, dictionary, codes, class_index = _instance(3, d=7, k=4, counts=(3, 4))
        alpha, h = 0.15, 1e-5
        for col in (0, 2, 5):
            cols = next(idx for idx in class_index if col in idx)
            grad = column_gradient(dictionary, inputs, codes, alpha, cols, col)
            num = np.empty_like(grad)
            for i in range(len(grad)):
                zp, zm = codes.copy(), codes.copy()
                zp[i, col] += h
                zm[i, col] -= h
                num[i] = (
                    layer_objective(inputs, dictionary, zp, alpha, class_index)
                    - layer_objective(inputs, dictionary, zm, alpha, class_index)
                ) / (2 * h)
            assert np.max(np.abs(num - grad)) / max(1.0, np.linalg.norm(grad)) < 1e-4

    def test_dictionary_gradient_matches_central_differences(self):
        inputs, dictionary, codes, class_index = _instance(4, d=5, k=3, counts=(3, 3))
        alpha, h = 0.2, 1e-5
        grad = dictionary_gradient(inputs, dictionary, codes)
        num = np.empty_like(grad)
        for r in range(grad.shape[0]):
            for c in range(grad.shape[1]):
                dp, dm = dictionary.copy(), dictionary.copy()
                dp[r, c] += h
                dm[r, c] -= h
                num[r, c] = (
                    layer_objective(inputs, dp, codes, alpha, class_index)
                    - layer_objective(inputs, dm, codes, alpha, class_index)
                ) / (2 * h)
        assert np.max(np.abs(num - grad)) / max(1.0, np.linalg.norm(grad)) < 1e-4


class TestClosedFormUpdates:
    def test_dictionary_update_is_stationary(self):
        inputs, _, codes, _ = _instance(5)
        d = update_dictionary(inputs, codes)
        grad = dictionary_gradient(inputs, d, codes)
        scale = max(1.0, float(np.linalg.norm(2 * inputs @ codes.T)))
        assert np.linalg.norm(grad) / scale < 1e-8

    def test_sweep_never_increases_objective(self):
        inputs, dictionary, codes, class_index = _instance(6)
        alpha = 0.1
        before = layer_objective(inputs, dictionary, codes, alpha, class_index)
        new = update_representations(dictionary, inputs, codes, alpha, class_index)
        after = layer_objective(inputs, dictionary, new, alpha, class_index)
        assert after <= before + 1e-10

    def test_sweep_with_zero_weight_equals_plain_code_solve(self):
        inputs, dictionary, codes, class_index = _instance(7)
        got = update_representations(dictionary, inputs, codes, 0.0, class_index)
        want = ridge_code(dictionary, inputs)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_each_column_solve_matches_direct_linear_solve(self):
        # replay the sweep: column j's update sees new values left of j,
        # old values right of j; its solve must match a direct solve of the
        # same shifted system
        inputs, dictionary, codes, class_index = _instance(8, counts=(3, 4, 2))
        alpha = 0.3
        new = update_representations(dictionary, inputs, codes, alpha, class_index)
        gram = dictionary.T @ dictionary
        k = gram.shape[0]
        for idx in class_index:
            n_c = idx.size
            lhs = 2 * gram + 4 * alpha * (n_c - 1) * np.eye(k)
            for pos, j in enumerate(idx):
                sib = new[:, idx[:pos]].sum(axis=1) + codes[:, idx[pos + 1 :]].sum(axis=1)
                rhs = 2 * dictionary.T @ inputs[:, j] + 4 * alpha * sib
                want = np.linalg.solve(lhs, rhs)
                assert np.max(np.abs(new[:, j] - want)) < 1e-7

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_sweep_matches_sequential_reference(self, alpha):
        for seed in range(20):
            rng = RNG(200 + seed)
            d = int(rng.integers(4, 16))
            k = int(rng.integers(2, d + 1))
            counts = tuple(int(c) for c in rng.integers(2, 7, size=int(rng.integers(1, 5))))
            inputs, dictionary, codes, class_index = _instance(seed, d, k, counts)
            got = update_representations(dictionary, inputs, codes, alpha, class_index)
            want = _sequential_sweep(dictionary, inputs, codes, alpha, class_index)
            assert _relative_error(got, want) <= 1e-10, f"seed {seed}"

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_sweep_matches_reference_with_unequal_and_singleton_classes(self, alpha):
        inputs, dictionary, codes, class_index = _instance(
            14, d=10, k=6, counts=(1, 4, 2, 1, 5, 3, 4)
        )
        got = update_representations(dictionary, inputs, codes, alpha, class_index)
        want = _sequential_sweep(dictionary, inputs, codes, alpha, class_index)
        assert _relative_error(got, want) <= 1e-10

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_sweep_matches_reference_with_non_contiguous_classes(self, alpha):
        inputs, dictionary, codes, _ = _instance(15, d=8, k=5, counts=(3, 5, 3, 2))
        order = RNG(16).permutation(13)
        class_index = (order[:3], order[3:8], order[8:11], order[11:])
        got = update_representations(dictionary, inputs, codes, alpha, class_index)
        want = _sequential_sweep(dictionary, inputs, codes, alpha, class_index)
        assert _relative_error(got, want) <= 1e-10

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    @pytest.mark.parametrize("policy", [RidgePolicy(epsilon_scale=0.0), DEFAULT_RIDGE])
    def test_sweep_matches_reference_with_dead_atom(self, alpha, policy):
        inputs, dictionary, codes, class_index = _instance(17, d=9, k=5, counts=(1, 4, 3, 2))
        dictionary[:, 2] = 0.0
        if policy.epsilon_scale == 0.0:
            # the singleton class (and every class at alpha = 0) solves with
            # the bare Gram matrix, whose zero pivot forces the pinv fallback
            with pytest.raises(np.linalg.LinAlgError):
                scipy.linalg.cho_factor(dictionary.T @ dictionary)
        got = update_representations(dictionary, inputs, codes, alpha, class_index, policy)
        want = _sequential_sweep(dictionary, inputs, codes, alpha, class_index, policy)
        assert _relative_error(got, want) <= 1e-10

    @pytest.mark.parametrize("alpha", DEFAULT_ALPHA_GRID)
    def test_sweep_matches_reference_at_grid_parallel_shape(self, alpha):
        # the first layer of the grid-parallel benchmark workload: 10 classes
        # of 30 columns, 128 atoms on 200-dimensional inputs
        inputs, dictionary, codes, class_index = _instance(
            20, d=200, k=128, counts=(30,) * 10
        )
        got = update_representations(dictionary, inputs, codes, alpha, class_index)
        want = _sequential_sweep(dictionary, inputs, codes, alpha, class_index)
        assert _relative_error(got, want) <= 1e-10
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_sweep_matches_reference_with_two_sizes_of_several_classes(self, alpha):
        inputs, dictionary, codes, _ = _instance(21, d=12, k=7, counts=(4, 6, 4, 6, 6, 4, 4))
        order = RNG(22).permutation(34)
        bounds = np.cumsum((4, 6, 4, 6, 6, 4, 4))[:-1]
        class_index = tuple(np.split(order, bounds))
        got = update_representations(dictionary, inputs, codes, alpha, class_index)
        want = _sequential_sweep(dictionary, inputs, codes, alpha, class_index)
        assert _relative_error(got, want) <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(_partitioned_instances())
    def test_sweep_matches_reference_on_random_partitions(self, instance):
        dictionary, inputs, codes, alpha, class_index = instance
        got = update_representations(dictionary, inputs, codes, alpha, class_index)
        want = _sequential_sweep(dictionary, inputs, codes, alpha, class_index)
        assert _relative_error(got, want) <= 1e-10

    @pytest.mark.parametrize("alpha", DEFAULT_ALPHA_GRID + (0.0, 3.0))
    @pytest.mark.parametrize(
        "d, k, counts",
        [(64, 48, (30,) * 40), (200, 128, (30,) * 10), (8, 5, (4, 4, 4))],
        ids=["many-class", "grid-parallel", "criterion-05"],
    )
    def test_sweep_is_bit_identical_to_batched_reference(self, alpha, d, k, counts):
        for shuffle in (False, True):
            inputs, dictionary, codes, class_index = _instance(24 + shuffle, d, k, counts)
            if shuffle:
                order = RNG(25).permutation(inputs.shape[1])
                class_index = tuple(order[idx] for idx in class_index)
            got = update_representations(dictionary, inputs, codes, alpha, class_index)
            want = _batched_sweep(dictionary, inputs, codes, alpha, class_index)
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    @pytest.mark.parametrize("policy", [RidgePolicy(epsilon_scale=0.0), DEFAULT_RIDGE])
    def test_sweep_is_bit_identical_to_batched_reference_with_dead_atom(self, alpha, policy):
        inputs, dictionary, codes, class_index = _instance(26, d=9, k=5, counts=(1, 4, 3, 2, 4))
        dictionary[:, 1] = 0.0
        got = update_representations(dictionary, inputs, codes, alpha, class_index, policy)
        want = _batched_sweep(dictionary, inputs, codes, alpha, class_index, policy)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_sweep_rejects_finite_inputs_that_overflow(self, alpha):
        inputs, dictionary, codes, class_index = _instance(27)
        with np.errstate(over="ignore", invalid="ignore"):
            # the right-hand sides D^T x overflow; the Gram matrix does not
            with pytest.raises(ValueError, match="infs or NaNs"):
                update_representations(
                    dictionary, np.sign(inputs) * 1e308, codes, alpha, class_index
                )
            # the Gram matrix D^T D overflows
            with pytest.raises(ValueError, match="infs or NaNs"):
                update_representations(dictionary * 1e160, inputs, codes, alpha, class_index)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_sweep_and_objective_reject_bad_weight(self, bad):
        inputs, dictionary, codes, class_index = _instance(28)
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            update_representations(dictionary, inputs, codes, bad, class_index)
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            layer_objective(inputs, dictionary, codes, bad, class_index)

    def test_sweep_rejects_mismatched_shapes(self):
        inputs, dictionary, codes, class_index = _instance(30)
        with pytest.raises(ValueError, match="dictionary rows must match the input dimension"):
            update_representations(dictionary[1:], inputs, codes, 0.1, class_index)
        with pytest.raises(ValueError, match=r"codes shape must be \(n_atoms, n_samples\)"):
            update_representations(dictionary, inputs, codes[1:], 0.1, class_index)

    @pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
    def test_sweep_returns_c_contiguous_codes(self, alpha):
        # NumPy reduces axis 0 of an F-ordered array in another order, so
        # F-ordered codes would round column norms and scatter differently
        inputs, dictionary, codes, class_index = _instance(23, counts=(1, 4, 3, 4))
        got = update_representations(dictionary, inputs, codes, alpha, class_index)
        assert got.flags.c_contiguous

    def test_sweep_rejects_non_finite_input(self):
        inputs, dictionary, codes, class_index = _instance(18)
        for pos in range(3):
            args = [dictionary, inputs, codes]
            args[pos] = args[pos].copy()
            args[pos][0, 1] = np.nan
            with pytest.raises(ValueError, match="infs or NaNs"):
                update_representations(*args, 0.1, class_index)

    def test_sweep_rejects_class_index_that_is_not_a_partition(self):
        inputs, dictionary, codes, _ = _instance(19, counts=(3, 3))
        for bad in (
            (np.arange(3), np.array([2, 3, 4])),
            (np.arange(3), np.array([3, 4, 6])),
            (np.arange(3),),
            (np.arange(3), np.arange(3, 7)),
        ):
            with pytest.raises(ValueError, match="partition"):
                update_representations(dictionary, inputs, codes, 0.1, bad)

    def test_sweep_returns_new_matrix(self):
        inputs, dictionary, codes, class_index = _instance(9)
        before = codes.copy()
        update_representations(dictionary, inputs, codes, 0.2, class_index)
        assert np.array_equal(codes, before)

    def test_large_weight_collapses_classes(self):
        inputs, dictionary, codes, class_index = _instance(10)
        new = codes
        for _ in range(60):
            new = update_representations(dictionary, inputs, new, 50.0, class_index)
        for idx in class_index:
            block = new[:, idx]
            spread = np.max(np.abs(block - block.mean(axis=1, keepdims=True)))
            assert spread < 0.05


class TestGroupedClasses:
    """A grouping made once by ``_class_groups`` stands in for its class index."""

    @pytest.mark.parametrize("alpha", [0.0, 1e-4, 0.3])
    @pytest.mark.parametrize("counts", [(3,) * 7, (4, 2, 4, 2, 4, 5, 2, 2, 2), (9,), (1, 3, 1, 3, 1)])
    def test_sweep_and_objective_take_a_grouping_bit_identically(self, alpha, counts):
        inputs, dictionary, codes, class_index = _instance(30, d=12, k=7, counts=counts)
        order = RNG(31).permutation(inputs.shape[1])
        class_index = tuple(order[idx] for idx in class_index)
        groups = intraclass._class_groups(class_index, inputs.shape[1])
        args = (dictionary, inputs, codes, alpha)
        assert np.array_equal(
            update_representations(*args, groups), update_representations(*args, class_index)
        )
        assert (layer_objective(inputs, dictionary, codes, alpha, groups)
                == layer_objective(inputs, dictionary, codes, alpha, class_index))
        assert compactness_penalty(codes, groups) == compactness_penalty(codes, class_index)

    @pytest.mark.parametrize("alpha", [0.05, 0.3])
    def test_one_sweep_mixes_inverse_and_factored_groups(self, monkeypatch, alpha):
        # a near-dead atom leaves the unshifted singleton group below the
        # explicit-inverse floor; the coupling shift lifts the size-3 group over it
        inputs, dictionary, codes, class_index = _instance(35, d=12, k=7, counts=(1, 3, 1, 3, 1))
        dictionary[:, 2] *= 1e-6
        applied, solve = [], intraclass._solve_factored

        def recording(factor, inverse, rhs):
            applied.append(factor is None)
            return solve(factor, inverse, rhs)

        monkeypatch.setattr(intraclass, "_solve_factored", recording)
        got = update_representations(dictionary, inputs, codes, alpha, class_index)
        # the singletons' one position by their factor, the size-3 group's three by its inverse
        assert applied == [False, True, True, True]
        assert np.array_equal(got, _batched_sweep(dictionary, inputs, codes, alpha, class_index))


class TestLayerTraining:
    def test_objective_trace_never_increases(self):
        for seed in range(6):
            rng = RNG(100 + seed)
            counts = (4, 5, 3)
            inputs = rng.normal(size=(8, sum(counts)))
            init = random_dictionary_init(8, 5, seed=seed)
            _, _, trace = train_layer(
                inputs, 0.05, 5, 20, _class_index(counts), init
            )
            diffs = np.diff(trace)
            assert (diffs <= 1e-8 * np.maximum(1.0, np.abs(trace[:-1]))).all()

    def test_zero_weight_reduces_to_dense_training(self):
        rng = RNG(11)
        counts = (4, 4)
        inputs = rng.normal(size=(7, sum(counts)))
        init = random_dictionary_init(7, 4, seed=3)
        d_ic, z_ic, _ = train_layer(inputs, 0.0, 4, 8, _class_index(counts), init)
        d_plain, z_plain, _ = train_dense_layer(inputs, init, 8)
        assert np.max(np.abs(d_ic - d_plain)) < 1e-8
        assert np.max(np.abs(z_ic - z_plain)) < 1e-8

    def test_matches_reference_loop(self):
        for seed in range(4):
            rng = RNG(200 + seed)
            counts = (4, 1, 5, 3)
            inputs = rng.normal(size=(8, sum(counts)))
            init = random_dictionary_init(8, 5, seed=seed)
            args = (inputs, 0.05, 5, 30, _class_index(counts), init)
            got = train_layer(*args)
            want = _reference_train_layer(inputs, 0.05, 30, _class_index(counts), init)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_init_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="init_dict"):
            train_layer(
                np.zeros((5, 6)), 0.1, 3, 2, _class_index((3, 3)), np.zeros((5, 4))
            )

    def test_classes_are_grouped_once_per_layer(self, monkeypatch):
        grouped, group = [], intraclass._class_groups

        def recording(class_index, n_columns):
            groups = group(class_index, n_columns)
            grouped.append(groups is not class_index)
            return groups

        monkeypatch.setattr(intraclass, "_class_groups", recording)
        inputs, _, _, class_index = _instance(40, d=8, counts=(4, 1, 5, 3))
        train_layer(inputs, 0.05, 5, 3, class_index, random_dictionary_init(8, 5, seed=1))
        # the layer's own grouping, then three sweeps and three objectives reuse it
        assert grouped == [True] + [False] * 6

    def test_a_grouping_for_other_columns_is_rejected(self):
        groups = intraclass._class_groups(_class_index((4, 3)), 7)
        assert intraclass._class_groups(groups, 7) is groups
        for n_columns in (6, 8):
            with pytest.raises(ValueError, match="partition"):
                intraclass._class_groups(groups, n_columns)


class TestFullStack:
    def test_shapes_labels_and_traces(self):
        data = make_synthetic_clusters(3, 6, 10, 4.0, seed=1)
        cfg = DdlicConfig(
            depth=3, layer_sizes=(8, 6, 4), alphas=(0.01, 0.01, 0.01), iters_per_layer=4
        )
        model = train_ddlic(data, cfg)
        assert [d.shape for d in model.dictionaries] == [(10, 8), (8, 6), (6, 4)]
        assert [z.shape[0] for z in model.layer_reprs] == [8, 6, 4]
        assert model.train_repr.shape == (4, 18)
        assert model.labels.tolist() == data.original_labels.tolist()
        assert [len(t) for t in model.traces] == [4, 4, 4]

    def test_stack_matches_reference_loop(self):
        data = make_synthetic_clusters(3, 6, 10, 4.0, seed=4)
        cfg = DdlicConfig(depth=3, layer_sizes=(8, 6, 4), alphas=(0.0, 0.01, 0.1),
                          iters_per_layer=15, seed=2)
        model = train_ddlic(data, cfg)
        current = data.features
        for layer, (n_atoms, alpha) in enumerate(zip(cfg.layer_sizes, cfg.alphas), start=1):
            init = initial_dictionary(current, n_atoms, layer, cfg.init, cfg.seed)
            d, current, trace = _reference_train_layer(
                current, alpha, cfg.iters_per_layer, data.class_index, init
            )
            assert np.array_equal(model.dictionaries[layer - 1], d)
            assert np.array_equal(model.layer_reprs[layer - 1], current)
            assert np.array_equal(model.traces[layer - 1], trace)

    def test_deterministic_per_seed(self):
        data = make_synthetic_clusters(2, 5, 8, 4.0, seed=2)
        cfg = DdlicConfig(depth=2, layer_sizes=(6, 3), alphas=(0.01, 0.01),
                          iters_per_layer=3, seed=5)
        m1, m2 = train_ddlic(data, cfg), train_ddlic(data, cfg)
        for a, b in zip(m1.layer_reprs, m2.layer_reprs):
            assert np.array_equal(a, b)

    def test_compactness_weight_tightens_classes(self):
        data = make_synthetic_clusters(3, 8, 12, 5.0, seed=3)
        loose = DdlicConfig(depth=1, layer_sizes=(6,), alphas=(0.0,), iters_per_layer=12)
        tight = DdlicConfig(depth=1, layer_sizes=(6,), alphas=(0.5,), iters_per_layer=12)

        def within_over_total(codes):
            mu = codes.mean(axis=1, keepdims=True)
            total = np.sum((codes - mu) ** 2)
            within = sum(
                np.sum((codes[:, ix] - codes[:, ix].mean(axis=1, keepdims=True)) ** 2)
                for ix in data.class_index
            )
            return within / total

        z_loose = train_ddlic(data, loose).train_repr
        z_tight = train_ddlic(data, tight).train_repr
        assert within_over_total(z_tight) < within_over_total(z_loose)

    def test_single_sample_classes_warn_that_the_weights_have_no_effect(self):
        data = make_synthetic_clusters(6, 1, 10, 4.0, seed=3)
        cfg = DdlicConfig(depth=2, layer_sizes=(4, 3), alphas=(0.0, 0.5), iters_per_layer=3)
        with pytest.warns(RuntimeWarning) as caught:
            model = train_ddlic(data, cfg)
        assert [str(w.message) for w in caught] == [
            "every class has one training column, so the compactness weights have no effect"
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unweighted = train_ddlic(data, replace(cfg, alphas=(0.0, 0.0)))
            train_ddlic(make_synthetic_clusters(3, 2, 10, 4.0, seed=3), cfg)
        for got, want in zip(model.layer_reprs + model.traces,
                             unweighted.layer_reprs + unweighted.traces):
            assert np.array_equal(got, want)

    def test_a_layer_wider_than_its_input_warns_once_before_training(self):
        """Layers 16,40 on 3 classes x 12 samples, dim 64: the 40-atom layer
        codes a 16-dim input, and the ridge, not the data, sets its test codes."""
        data = make_synthetic_clusters(3, 12, 64, 6.0, seed=0)
        message = ("a layer is wider than its input, so epsilon_scale, not the data, "
                   "sets its ridge test codes")
        for sizes, init in [((16, 40), "qr"), ((16, 40, 8), "qr"), ((80, 8), "random")]:
            cfg = DdlicConfig(depth=len(sizes), layer_sizes=sizes, alphas=(1e-3,) * len(sizes),
                              iters_per_layer=2, init=init)
            with pytest.warns(RuntimeWarning) as caught:
                train_ddlic(data, cfg)
            assert [str(w.message) for w in caught] == [message]
        # the warning comes before any layer trains, so a layer that cannot train still warns
        with pytest.warns(RuntimeWarning, match="wider than its input"):
            with pytest.raises(ValueError, match="cannot build 80 orthonormal columns"):
                train_ddlic(data, DdlicConfig(depth=1, layer_sizes=(80,), alphas=(1e-3,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_ddlic(data, DdlicConfig(depth=3, layer_sizes=(64, 40, 40), alphas=(1e-3,) * 3,
                                          iters_per_layer=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DdlicConfig(depth=2, layer_sizes=(4, 3), alphas=(0.1,))
        with pytest.raises(ValueError):
            DdlicConfig(depth=1, layer_sizes=(4,), alphas=(-0.1,))
        with pytest.raises(ValueError):
            DdlicConfig(depth=1, layer_sizes=(4,), alphas=(0.1,), iters_per_layer=0)

    def test_model_chain_validation(self):
        rng = RNG(13)
        cfg = DdlicConfig(depth=1, layer_sizes=(3,), alphas=(0.1,))
        with pytest.raises(ValueError):
            DdlicModel(
                dictionaries=[rng.normal(size=(5, 3))],
                layer_reprs=[rng.normal(size=(4, 8))],
                config=cfg,
                traces=[np.zeros(2)],
            )

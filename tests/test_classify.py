"""Nearest-neighbor prediction, tie rules, accuracy sweeps, test-side coding."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepdict import classify
from deepdict.classify import (
    KnnConfig,
    _distance_blocks,
    _running_votes,
    code_layers,
    code_test_ddlic,
    evaluate_accuracy,
    knn_predict,
)
from deepdict.data import make_synthetic_clusters
from deepdict.intraclass import DdlicConfig, train_ddlic
from deepdict.kernels import ridge_code

RNG = np.random.default_rng


def oracle_predict(train_codes, train_labels, test_codes, k):
    """Slow reference: explicit sort, majority vote, documented tie rules."""
    out = np.empty(test_codes.shape[1], dtype=np.int64)
    for j in range(test_codes.shape[1]):
        dist = np.linalg.norm(train_codes - test_codes[:, j : j + 1], axis=0)
        order = np.argsort(dist, kind="stable")[:k]
        candidates = {}
        for i in order:
            lab = int(train_labels[i])
            cnt, tot = candidates.get(lab, (0, 0.0))
            candidates[lab] = (cnt + 1, tot + float(dist[i]))
        # most votes; then the smaller summed distance; then the smaller label
        best = min(candidates.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))
        out[j] = best[0]
    return out


class TestKnnPredict:
    def test_matches_oracle_on_random_sets(self):
        rng = RNG(0)
        for trial in range(6):
            n_train, n_test, dim = 40 + 10 * trial, 25, 4
            train = rng.normal(size=(dim, n_train))
            labels = rng.integers(0, 4, size=n_train)
            test = rng.normal(size=(dim, n_test))
            for k in (1, 3, 7):
                got = knn_predict(train, labels, test, k)
                want = oracle_predict(train, labels, test, k)
                assert np.array_equal(got, want), f"trial {trial}, k={k}"

    def test_matches_oracle_with_duplicate_points(self):
        rng = RNG(1)
        base = rng.normal(size=(3, 20))
        train = np.concatenate([base, base], axis=1)  # exact distance ties
        labels = np.concatenate([np.zeros(20, np.int64), np.ones(20, np.int64)])
        test = base + 1e-12
        for k in (2, 4, 6):
            got = knn_predict(train, labels, test, k)
            want = oracle_predict(train, labels, test, k)
            assert np.array_equal(got, want)

    def test_ties_straddling_the_largest_k_take_the_lowest_indices(self):
        # Around the origin: three rows at distance 1, six tied at distance 2
        # (+-2 e_i), five at distance 3. k = 5 takes the two lowest-index tied
        # rows, whichever rows a partition of the distances would pick.
        rng = RNG(21)
        near = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0]]).T
        tied = np.concatenate([2 * np.eye(3), -2 * np.eye(3)], axis=1)
        far = 3 * np.concatenate([np.eye(3), -np.eye(3)[:, :2]], axis=1)
        base = np.concatenate([near, tied, far], axis=1)
        base_labels = np.array([0, 0, 1, 1, 1, 0, 0, 0, 0, 2, 2, 2, 2, 2])
        test = np.zeros((3, 2))
        for trial in range(20):
            perm = rng.permutation(base.shape[1])
            train, labels = base[:, perm], base_labels[perm]
            for k in (4, 5, 6, 8):
                got = knn_predict(train, labels, test, k)
                assert np.array_equal(got, oracle_predict(train, labels, test, k)), (trial, k)
            rep = evaluate_accuracy(train, labels, test, np.array([1, 0]), KnnConfig(1, 5, "cv"))
            for k, acc in zip(rep.ks, rep.accuracies):
                assert acc == np.mean(oracle_predict(train, labels, test, k) == [1, 0])
            assert rep.selected_k == _oracle_loo_choice(train, labels, list(rep.ks))

    def test_vote_count_beats_distance(self):
        # two votes for 1 at moderate distance beat one very close vote for 0
        train = np.array([[0.0, 2.0, 2.1]])
        labels = np.array([0, 1, 1])
        test = np.array([[0.1]])
        assert knn_predict(train, labels, test, 3)[0] == 1

    def test_distance_breaks_count_ties(self):
        train = np.array([[0.0, 1.0, 10.0, 2.0]])
        labels = np.array([0, 0, 1, 1])
        test = np.array([[0.5]])
        # counts 2-2; class 0 sum 1.0, class 1 sum 11.0
        assert knn_predict(train, labels, test, 4)[0] == 0

    def test_smaller_label_breaks_full_ties(self):
        train = np.array([[-1.0, 1.0]])
        labels = np.array([7, 3])
        test = np.array([[0.0]])
        assert knn_predict(train, labels, test, 2)[0] == 3

    def test_distance_sums_add_nearest_first(self):
        # counts tie 8-8 at k=16, and added nearest first both labels'
        # distances sum to 2**53 + 8, so the smaller label wins. Summed
        # pairwise, label 1's [1]*7 + [2**53] would give 2**53 + 6 instead.
        train = np.array([[1.0] * 7 + [2.0**53] + [-1.0] * 6 + [-2.0, -(2.0**53)]])
        labels = np.array([1] * 8 + [0] * 8)
        test = np.zeros((1, 1))
        assert oracle_predict(train, labels, test, 16).tolist() == [0]
        assert knn_predict(train, labels, test, 16).tolist() == [0]
        rep = evaluate_accuracy(train, labels, test, np.array([0]), KnnConfig(16, 16))
        assert rep.accuracies.tolist() == [1.0]

    def test_k_larger_than_training_set_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            knn_predict(np.zeros((2, 3)), np.zeros(3, np.int64), np.zeros((2, 1)), 4)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            knn_predict(np.zeros((2, 3)), np.zeros(3, np.int64), np.zeros((2, 1)), 0)

    def test_original_label_values_preserved(self):
        train = np.array([[0.0, 5.0]])
        labels = np.array([42, -7])
        test = np.array([[0.2, 4.9]])
        assert knn_predict(train, labels, test, 1).tolist() == [42, -7]


class TestNeighborCounts:
    @pytest.mark.parametrize(
        "field, value",
        [("k_max", 5.0), ("k_max", float("nan")), ("k_min", True), ("k_max", np.float64(9)),
         ("k_min", "1")],
        ids=["float", "nan", "bool", "numpy-float", "text"],
    )
    def test_config_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            KnnConfig(**{field: value})

    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(k_min=0), "k_min must be >= 1"),
            (dict(k_min=5, k_max=4), "k_max must be >= k_min"),
            (dict(selection="median"), "unknown selection mode: 'median'"),
        ],
        ids=["k-min-zero", "k-max-below-k-min", "unknown-selection"],
    )
    def test_config_rejects_bad_range_or_selection(self, settings, message):
        with pytest.raises(ValueError, match=message):
            KnnConfig(**settings)

    @pytest.mark.parametrize(
        "k", [2.0, True, np.float64(2), np.bool_(True)],
        ids=["float", "bool", "numpy-float", "numpy-bool"],
    )
    def test_predict_rejects_non_integer_counts(self, k):
        train, labels = np.eye(3), np.array([0, 1, 1])
        with pytest.raises(ValueError, match="k must be an integer"):
            knn_predict(train, labels, np.zeros((3, 1)), k)

    def test_numpy_integers_are_counts(self):
        train, labels, test = np.eye(3), np.array([0, 1, 1]), np.zeros((3, 2))
        cfg = KnnConfig(np.int64(1), np.int32(3))
        assert evaluate_accuracy(train, labels, test, np.array([1, 1]), cfg).ks == (1, 2, 3)
        assert knn_predict(train, labels, test, np.int64(3)).tolist() == [1, 1]


class TestEvaluateAccuracy:
    def test_curve_matches_manual_loop(self):
        rng = RNG(2)
        train = rng.normal(size=(3, 30))
        labels = rng.integers(0, 3, size=30)
        test = rng.normal(size=(3, 15))
        targets = rng.integers(0, 3, size=15)
        rep = evaluate_accuracy(train, labels, test, targets, KnnConfig(1, 8))
        assert rep.ks == tuple(range(1, 9))
        for k, acc in zip(rep.ks, rep.accuracies):
            want = float(np.mean(knn_predict(train, labels, test, k) == targets))
            assert acc == pytest.approx(want)
        first_best = int(np.argmax(rep.accuracies))
        assert rep.selected_k == rep.ks[first_best]
        assert rep.selected_accuracy == rep.accuracies[first_best] == max(rep.accuracies)

    def test_neighbor_range_clipped_to_training_size(self):
        rng = RNG(3)
        train = rng.normal(size=(2, 5))
        labels = np.array([0, 0, 1, 1, 1])
        test = rng.normal(size=(2, 4))
        rep = evaluate_accuracy(train, labels, test, np.zeros(4, np.int64), KnnConfig(1, 30))
        assert rep.ks == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("selection", ["best", "cv"])
    def test_huge_neighbor_limit_costs_nothing_past_the_training_size(self, selection):
        rng = RNG(7)
        train = rng.normal(size=(3, 30))
        labels = rng.integers(0, 3, size=30)
        test = rng.normal(size=(3, 12))
        targets = rng.integers(0, 3, size=12)
        want = evaluate_accuracy(train, labels, test, targets, KnnConfig(1, 30, selection))
        started = time.perf_counter()
        got = evaluate_accuracy(train, labels, test, targets, KnnConfig(1, 10**8, selection))
        assert time.perf_counter() - started < 1.0
        assert got.ks == want.ks == tuple(range(1, 31))
        assert np.array_equal(got.accuracies, want.accuracies)
        assert (got.selected_k, got.selected_accuracy) == (want.selected_k, want.selected_accuracy)
        if selection == "best":  # the curve's first maximum
            first_best = int(np.argmax(got.accuracies))
            assert (got.selected_k, got.selected_accuracy) == (
                got.ks[first_best], got.accuracies[first_best]
            )

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty test"):
            evaluate_accuracy(
                np.zeros((2, 4)), np.zeros(4, np.int64), np.zeros((2, 0)), np.zeros(0, np.int64)
            )

    @pytest.mark.parametrize("n_test_labels", [3, 5])
    def test_test_label_count_must_match_test_columns(self, n_test_labels):
        with pytest.raises(ValueError, match="test_labels must have one entry per test column"):
            evaluate_accuracy(
                np.eye(2), np.array([0, 1]), np.zeros((2, 4)), np.zeros(n_test_labels, np.int64)
            )

    @pytest.mark.parametrize("n_labels", [7, 13])
    def test_train_label_count_must_match_training_columns(self, n_labels):
        rng = RNG(4)
        with pytest.raises(ValueError, match="one entry per training column"):
            evaluate_accuracy(
                rng.normal(size=(2, 10)),
                np.arange(n_labels) % 2,
                rng.normal(size=(2, 4)),
                np.zeros(4, np.int64),
            )

    @pytest.mark.parametrize("entry", ["knn_predict", "evaluate_accuracy"])
    @pytest.mark.parametrize(
        "train_rows, n_labels, bad_code, message",
        [
            (3, 10, None, "same dimension"),
            (2, 9, None, "one entry per training column"),
            (2, 10, ("train", np.nan), "must be finite"),
            (2, 10, ("test", np.inf), "must be finite"),
        ],
        ids=["dimension", "label-count", "nan-train-code", "inf-test-code"],
    )
    def test_both_entry_points_reject_unusable_inputs(
        self, entry, train_rows, n_labels, bad_code, message
    ):
        rng = RNG(5)
        codes = {"train": rng.normal(size=(train_rows, 10)), "test": rng.normal(size=(2, 4))}
        if bad_code is not None:
            which, value = bad_code
            codes[which][0, 1] = value
        labels = np.arange(n_labels) % 2
        with pytest.raises(ValueError, match=message):
            if entry == "knn_predict":
                knn_predict(codes["train"], labels, codes["test"], 3)
            else:
                evaluate_accuracy(codes["train"], labels, codes["test"], np.zeros(4, np.int64))

    def test_tiny_training_set_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            evaluate_accuracy(
                np.zeros((2, 3)),
                np.zeros(3, np.int64),
                np.ones((2, 2)),
                np.zeros(2, np.int64),
                KnnConfig(k_min=5, k_max=9),
            )

    def test_cross_validated_selection_matches_manual_loocv(self):
        rng = RNG(4)
        data = make_synthetic_clusters(3, 12, 4, 3.0, seed=5)
        train = data.features + rng.normal(scale=0.8, size=data.features.shape)
        labels = data.original_labels
        test = rng.normal(size=(4, 10))
        targets = rng.integers(0, 3, size=10)
        cfg = KnnConfig(1, 8, selection="cv")
        rep = evaluate_accuracy(train, labels, test, targets, cfg)

        # manual leave-one-out over the training set
        n = train.shape[1]
        scores = []
        for k in range(1, 9):
            hits = 0
            for i in range(n):
                keep = np.arange(n) != i
                pred = knn_predict(train[:, keep], labels[keep], train[:, i : i + 1], k)
                hits += int(pred[0] == labels[i])
            scores.append(hits / n)
        want_k = 1 + int(np.argmax(scores))
        assert rep.selected_k == want_k
        want_acc = float(
            np.mean(knn_predict(train, labels, test, want_k) == targets)
        )
        assert rep.selected_accuracy == pytest.approx(want_acc)
        # the same curve under selection="best" reports its first maximum
        best = evaluate_accuracy(train, labels, test, targets, KnnConfig(1, 8))
        assert np.array_equal(best.accuracies, rep.accuracies)
        first_best = int(np.argmax(rep.accuracies))
        assert (best.selected_k, best.selected_accuracy) == (
            rep.ks[first_best], max(rep.accuracies)
        )

    def test_default_selection_reports_curve_best(self):
        rng = RNG(6)
        train = rng.normal(size=(2, 20))
        labels = rng.integers(0, 2, size=20)
        test = rng.normal(size=(2, 9))
        targets = rng.integers(0, 2, size=9)
        rep = evaluate_accuracy(train, labels, test, targets, KnnConfig(1, 6))
        first_best = int(np.argmax(rep.accuracies))
        assert rep.selected_k == rep.ks[first_best]
        assert rep.selected_accuracy == rep.accuracies[first_best] == max(rep.accuracies)


def _oracle_loo_choice(train, labels, ks):
    """Leave-one-out by deleting each training column, voting with the oracle."""
    n = train.shape[1]
    valid = [k for k in ks if k <= n - 1]
    if not valid:
        return ks[0]
    scores = []
    for k in valid:
        hits = 0
        for i in range(n):
            keep = np.arange(n) != i
            pred = oracle_predict(train[:, keep], labels[keep], train[:, i : i + 1], k)
            hits += int(pred[0] == labels[i])
        scores.append(hits)
    return valid[int(np.argmax(scores))]


@st.composite
def _grid_knn_case(draw):
    """Small integer-grid codes drawn from a few points, so distances tie often."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-2, 2)
    pool = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=5))
    pick = st.sampled_from(pool)
    train = np.array(draw(st.lists(pick, min_size=2, max_size=18)), dtype=float).T
    test = np.array(draw(st.lists(pick, min_size=1, max_size=6)), dtype=float).T
    n_labels = draw(st.integers(2, 6))
    label = st.integers(0, n_labels - 1)
    labels = np.array(draw(st.lists(label, min_size=train.shape[1], max_size=train.shape[1])))
    targets = np.array(draw(st.lists(label, min_size=test.shape[1], max_size=test.shape[1])))
    return train, labels, test, targets, draw(st.integers(1, 20))


@settings(max_examples=60, deadline=None)
@given(case=_grid_knn_case(), selection=st.sampled_from(["best", "cv"]))
def test_accuracy_curve_matches_oracle_at_every_k(case, selection):
    train, labels, test, targets, k_max = case
    rep = evaluate_accuracy(train, labels, test, targets, KnnConfig(1, k_max, selection))
    assert rep.ks == tuple(range(1, min(k_max, train.shape[1]) + 1))
    for k, acc in zip(rep.ks, rep.accuracies):
        assert acc == np.mean(oracle_predict(train, labels, test, k) == targets), f"k={k}"
    if selection == "cv":
        assert rep.selected_k == _oracle_loo_choice(train, labels, list(rep.ks))
    else:
        assert rep.selected_k == rep.ks[int(np.argmax(rep.accuracies))]
    assert rep.selected_accuracy == rep.accuracies[rep.ks.index(rep.selected_k)]


def _train_major_distances(train, test):
    """Reference: ``sqrt(max(a + b - 2 A^T B, 0))``, one row per training column."""
    train_sq = np.sum(train * train, axis=0)
    test_sq = np.sum(test * test, axis=0)
    d2 = train_sq[:, None] + test_sq[None, :] - 2.0 * (train.T @ test)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def _train_major_accuracy(train, labels, test, targets, cfg):
    """Reference: the k sweep and leave-one-out choice over train-major distances.

    Each test column ranks the training rows by a full stable ``argsort`` of
    its column and votes rank by rank with the documented tie rule.
    """
    classes, ids = np.unique(labels, return_inverse=True)

    def curve(dist, ks, truth):
        order = np.argsort(dist, axis=0, kind="stable")[: max(ks)]
        cols = np.arange(dist.shape[1])
        counts = np.zeros((dist.shape[1], classes.size), dtype=np.int64)
        sums = np.zeros(counts.shape)
        hits = []
        for rank, nearest in enumerate(order, start=1):
            counts[cols, ids[nearest]] += 1
            sums[cols, ids[nearest]] += dist[nearest, cols]
            if rank in ks:
                top = counts == counts.max(axis=1, keepdims=True)
                won = classes[np.argmin(np.where(top, sums, np.inf), axis=1)]
                hits.append(np.mean(won == truth))
        return np.array(hits)

    ks = [k for k in range(cfg.k_min, cfg.k_max + 1) if k <= train.shape[1]]
    accuracies = curve(_train_major_distances(train, test), ks, targets)
    selected = ks[int(np.argmax(accuracies))]
    valid = [k for k in ks if k <= train.shape[1] - 1]
    if cfg.selection == "cv" and valid:
        loo = _train_major_distances(train, train)
        np.fill_diagonal(loo, np.inf)
        selected = valid[int(np.argmax(curve(loo, valid, labels)))]
    elif cfg.selection == "cv":
        selected = ks[0]
    return accuracies, selected


class TestTestMajorLayout:
    @pytest.mark.parametrize("shape", [(24, 1200, 1200), (5, 40, 17), (1, 3, 8), (30, 7, 1)])
    def test_distances_are_bit_identical_to_train_major_transposed(self, shape):
        dim, n_train, n_test = shape
        rng = RNG(31)
        train, test = rng.normal(size=(dim, n_train)), rng.normal(size=(dim, n_test))
        blocks = list(_distance_blocks(train, test))
        step = blocks[0][1].shape[0]
        assert [lo for lo, _ in blocks] == list(range(0, n_test, step))
        assert all(d.shape[1] == n_train and d.flags.c_contiguous for _, d in blocks)
        got = np.concatenate([d for _, d in blocks])
        assert np.array_equal(got, _train_major_distances(train, test).T)

    @pytest.mark.parametrize("selection", ["best", "cv"])
    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_integer_codes_give_the_reference_curve_and_k(self, selection, seed):
        rng = RNG(40 + seed)
        n_classes = 40 if seed < 2 else 5
        labels = rng.integers(0, n_classes, size=600) * 7 - 3
        train = rng.integers(-2, 3, size=(3, 600)).astype(float)
        test = rng.integers(-2, 3, size=(3, 250)).astype(float)
        targets = rng.integers(0, n_classes, size=250) * 7 - 3
        cfg = KnnConfig(1, 30, selection)
        rep = evaluate_accuracy(train, labels, test, targets, cfg)
        accuracies, selected = _train_major_accuracy(train, labels, test, targets, cfg)
        assert np.array_equal(rep.accuracies, accuracies)
        assert rep.selected_k == selected
        assert rep.selected_accuracy == accuracies[selected - 1]


def _set_block_rows(monkeypatch, n_train, rows):
    """Make every distance block hold ``rows`` query rows against ``n_train`` columns."""
    monkeypatch.setattr(classify, "_BLOCK_BYTES", 8 * n_train * rows)


def _tie_heavy_case(seed, n_train, n_test, n_classes=5):
    rng = RNG(seed)
    train = rng.integers(-2, 3, size=(2, n_train)).astype(float)
    test = rng.integers(-2, 3, size=(2, n_test)).astype(float)
    labels = rng.integers(0, n_classes, size=n_train) * 3 - 1
    targets = rng.integers(0, n_classes, size=n_test) * 3 - 1
    return train, labels, test, targets


class TestNeighborBlocks:
    BLOCK = 8

    @pytest.mark.parametrize("selection", ["best", "cv"])
    @pytest.mark.parametrize("n_test", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_query_counts_at_block_edges(self, monkeypatch, n_test, selection):
        n_train = 2 * self.BLOCK + 3  # leave-one-out queries span three blocks too
        _set_block_rows(monkeypatch, n_train, self.BLOCK)
        train, labels, test, targets = _tie_heavy_case(60 + n_test, n_train, n_test)
        cfg = KnnConfig(1, 12, selection)
        rep = evaluate_accuracy(train, labels, test, targets, cfg)
        accuracies, selected = _train_major_accuracy(train, labels, test, targets, cfg)
        assert np.array_equal(rep.accuracies, accuracies)
        assert rep.selected_k == selected
        for k in (1, 5, 12):
            assert np.array_equal(
                knn_predict(train, labels, test, k), oracle_predict(train, labels, test, k)
            )

    @pytest.mark.parametrize("selection", ["best", "cv"])
    @pytest.mark.parametrize("k_min, k_max", [(1, 11), (3, 11), (4, 40), (11, 11)])
    def test_neighbor_ranges_reaching_the_training_size(self, monkeypatch, k_min, k_max, selection):
        n_train = 11
        _set_block_rows(monkeypatch, n_train, 3)
        train, labels, test, targets = _tie_heavy_case(70 + k_min, n_train, 10)
        cfg = KnnConfig(k_min, k_max, selection)
        rep = evaluate_accuracy(train, labels, test, targets, cfg)
        accuracies, selected = _train_major_accuracy(train, labels, test, targets, cfg)
        assert rep.ks == tuple(range(k_min, n_train + 1))
        assert np.array_equal(rep.accuracies, accuracies)
        assert rep.selected_k == selected

    @pytest.mark.parametrize("block", [1, 4, 7])
    def test_leave_one_out_with_duplicate_training_columns(self, monkeypatch, block):
        # each point three times, under different labels: every column's
        # twins tie with it, and only its own distance may be masked
        rng = RNG(80 + block)
        base = rng.integers(-1, 2, size=(2, 7)).astype(float)
        train = np.concatenate([base, base, base], axis=1)
        labels = rng.integers(0, 3, size=train.shape[1])
        _set_block_rows(monkeypatch, train.shape[1], block)
        test, targets = base[:, :5] + 0.5, labels[:5]
        cfg = KnnConfig(1, 9, "cv")
        rep = evaluate_accuracy(train, labels, test, targets, cfg)
        accuracies, selected = _train_major_accuracy(train, labels, test, targets, cfg)
        assert np.array_equal(rep.accuracies, accuracies)
        assert rep.selected_k == selected == _oracle_loo_choice(train, labels, list(rep.ks))

    def test_cv_evaluation_keeps_one_product_matrix(self):
        # the parent layout kept three (n_train, n_test) matrices alive at once
        rng = RNG(90)
        n = 1200
        train, test = rng.normal(size=(24, n)), rng.normal(size=(24, n))
        labels, targets = rng.integers(0, 40, size=n), rng.integers(0, 40, size=n)
        tracemalloc.start()
        try:
            evaluate_accuracy(train, labels, test, targets, KnnConfig(1, 30, "cv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8


def _recount_votes(near_ids, near_dist, n_classes, ks):
    """Reference: rescan every class's votes and distance sum at each k."""
    rows = np.arange(near_ids.shape[0])
    counts = np.zeros((near_ids.shape[0], n_classes), dtype=np.int64)
    sums = np.zeros(counts.shape)
    winners = []
    for rank in range(1, max(ks) + 1):
        counts[rows, near_ids[:, rank - 1]] += 1
        sums[rows, near_ids[:, rank - 1]] += near_dist[:, rank - 1]
        if rank in ks:
            # argmin's first minimum is the smaller class id
            top = counts == counts.max(axis=1, keepdims=True)
            winners.append(np.argmin(np.where(top, sums, np.inf), axis=1))
    return np.array(winners)


@st.composite
def _vote_case(draw):
    """Neighbor class ids and nondecreasing distances from a few values, so keys tie often."""
    n_classes = draw(st.integers(1, 60))
    n_rows, k = draw(st.integers(1, 8)), draw(st.integers(1, 30))
    used = draw(st.lists(st.integers(0, n_classes - 1), min_size=1, max_size=4))
    ids = draw(st.lists(st.sampled_from(used), min_size=n_rows * k, max_size=n_rows * k))
    values = st.sampled_from([0.0, 0.5, 1.0, 3.0])
    dist = draw(st.lists(values, min_size=n_rows * k, max_size=n_rows * k))
    ks = sorted(draw(st.sets(st.integers(1, k), min_size=1)) | {k})
    near_dist = np.sort(np.array(dist).reshape(n_rows, k), axis=1)
    return np.array(ids, dtype=np.intp).reshape(n_rows, k), near_dist, n_classes, ks


@settings(max_examples=200, deadline=None)
@given(case=_vote_case())
def test_running_winner_matches_a_full_recount(case):
    near_ids, near_dist, n_classes, ks = case
    got = _running_votes(near_ids, near_dist, n_classes, ks)
    assert np.array_equal(got, _recount_votes(near_ids, near_dist, n_classes, ks))


class TestTestSideCoding:
    def test_layerwise_codes_solve_each_layer(self):
        data = make_synthetic_clusters(2, 8, 10, 4.0, seed=7)
        cfg = DdlicConfig(depth=2, layer_sizes=(6, 4), alphas=(0.05, 0.05),
                          iters_per_layer=5)
        model = train_ddlic(data, cfg)
        rng = RNG(8)
        test = rng.normal(size=(10, 6))
        per_layer = code_layers(model.dictionaries, test)
        want = ridge_code(model.dictionaries[0], test)
        assert np.allclose(per_layer[0], want)
        want2 = ridge_code(model.dictionaries[1], per_layer[0])
        assert np.allclose(per_layer[1], want2)
        last = code_test_ddlic(model, test)
        assert np.allclose(last, per_layer[-1])

    def test_row_mismatch_rejected(self):
        data = make_synthetic_clusters(2, 6, 8, 4.0, seed=9)
        cfg = DdlicConfig(depth=1, layer_sizes=(4,), alphas=(0.05,), iters_per_layer=3)
        model = train_ddlic(data, cfg)
        with pytest.raises(ValueError):
            code_test_ddlic(model, np.zeros((5, 3)))

    def test_no_dictionaries_rejected(self):
        with pytest.raises(ValueError, match="at least one dictionary is required"):
            code_layers([], np.zeros((5, 3)))

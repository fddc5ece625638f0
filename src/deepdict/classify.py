"""Test-time coding through a trained stack and nearest-neighbor evaluation.

Code matrices follow the column-major sample convention. Distances are
Euclidean; all tie-breaking is deterministic (smaller summed neighbor
distance first, then smaller label), so repeated evaluations of the same
inputs are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .kernels import DEFAULT_RIDGE, RidgePolicy, ridge_code

if TYPE_CHECKING:
    from .intraclass import DdlicModel

__all__ = [
    "KnnConfig",
    "KnnReport",
    "code_layers",
    "code_test_ddlic",
    "knn_predict",
    "evaluate_accuracy",
]


@dataclass(frozen=True)
class KnnConfig:
    """Neighbor-size sweep settings.

    ``selection="best"`` reports the sweep's best accuracy and its neighbor
    size; ``selection="cv"`` instead picks the neighbor size by leave-one-out
    validation on the training codes and reports the test accuracy at that
    size (the full curve is returned either way).
    """

    k_min: int = 1
    k_max: int = 30
    selection: str = "best"

    def __post_init__(self) -> None:
        if self.k_min < 1:
            raise ValueError("k_min must be >= 1")
        if self.k_max < self.k_min:
            raise ValueError("k_max must be >= k_min")
        if self.selection not in ("best", "cv"):
            raise ValueError(f"unknown selection mode: {self.selection!r}")


@dataclass
class KnnReport:
    """Accuracy-vs-neighbor-size curve plus the reported operating point.

    ``best_k``/``best_accuracy`` always describe the maximum of the stored
    curve; ``selected_k``/``selected_accuracy`` are what the experiment
    aggregates and may differ under cross-validated selection.
    """

    ks: tuple[int, ...]
    accuracies: np.ndarray
    best_k: int
    best_accuracy: float
    selected_k: int
    selected_accuracy: float


def code_layers(
    dictionaries: list[np.ndarray],
    test_features: np.ndarray,
    policy: RidgePolicy = DEFAULT_RIDGE,
) -> list[np.ndarray]:
    """Dense least-squares codes of the test samples after each layer."""
    if not dictionaries:
        raise ValueError("at least one dictionary is required")
    if test_features.shape[0] != dictionaries[0].shape[0]:
        raise ValueError(
            f"test features have {test_features.shape[0]} rows, "
            f"expected {dictionaries[0].shape[0]}"
        )
    out = []
    current = test_features
    for dictionary in dictionaries:
        current = ridge_code(dictionary, current, policy)
        out.append(current)
    return out


def code_test_ddlic(model: "DdlicModel", test_features: np.ndarray) -> np.ndarray:
    """Final-layer codes of test samples, coded layer by layer.

    Test coding solves one dense least-squares problem per layer with the
    model's ridge policy; the intra-class penalty applies only during
    training, never at test time.
    """
    return code_layers(model.dictionaries, test_features, model.config.ridge)[-1]


def _pairwise_euclidean(train_codes: np.ndarray, test_codes: np.ndarray) -> np.ndarray:
    """(n_test, n_train) Euclidean distances between columns, one row per test column.

    Entry ``[j, i]`` is ``sqrt(max((|a_i|^2 + |b_j|^2) - 2 * (A^T B)[i, j], 0))``
    from the product ``A^T B`` of the training codes ``A`` and the test
    codes ``B``, evaluated in place in one C-ordered buffer.
    """
    train_sq = np.sum(train_codes * train_codes, axis=0)
    test_sq = np.sum(test_codes * test_codes, axis=0)
    cross = train_codes.T @ test_codes
    cross *= 2.0
    dist = np.add.outer(test_sq, train_sq)
    dist -= cross.T
    np.maximum(dist, 0.0, out=dist)
    return np.sqrt(dist, out=dist)


def _check_knn_inputs(train_codes: np.ndarray, train_labels, test_codes: np.ndarray) -> np.ndarray:
    """Reject codes and labels the vote cannot use; return the labels as an array."""
    if train_codes.shape[0] != test_codes.shape[0]:
        raise ValueError("train and test codes must have the same dimension")
    labels = np.asarray(train_labels)
    if labels.shape != (train_codes.shape[1],):
        raise ValueError("train_labels must have one entry per training column")
    if not (np.isfinite(train_codes).all() and np.isfinite(test_codes).all()):
        raise ValueError("train and test codes must be finite")
    return labels


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` columns (k <= row length) of each row's stable ``argsort``.

    Partitions out ``k`` columns per row and stable-sorts only those, in
    index order, so equal distances rank by column index. The partition
    takes an arbitrary subset of the columns tied at the k-th distance; a
    row where it had a choice (more than ``k`` columns within that
    distance) is ranked in full instead.
    """
    cols = np.argpartition(dist, k - 1, axis=1)[:, :k]
    cols.sort(axis=1)
    ranks = np.argsort(np.take_along_axis(dist, cols, axis=1), axis=1, kind="stable")
    cols = np.take_along_axis(cols, ranks, axis=1)
    kth = np.take_along_axis(dist, cols[:, -1:], axis=1)
    choice = np.flatnonzero(np.count_nonzero(dist <= kth, axis=1) > k)
    cols[choice] = np.argsort(dist[choice], axis=1, kind="stable")[:, :k]
    return cols


def _sweep_votes(dist: np.ndarray, train_labels: np.ndarray, ks: list[int]) -> np.ndarray:
    """Winning label of every row's k nearest columns of ``dist``, one row per k in ``ks``.

    Each label's votes and distance sum accumulate rank by rank, nearest
    neighbor first; the winner has the most votes, then the smaller sum,
    then the smaller label.
    """
    nearest = _nearest(dist, max(ks))
    classes, class_ids = np.unique(train_labels, return_inverse=True)
    # rank-major copies: row r holds every test row's r-th neighbor
    near_ids = np.ascontiguousarray(class_ids[nearest].T)
    near_dist = np.ascontiguousarray(np.take_along_axis(dist, nearest, axis=1).T)
    rows = np.arange(dist.shape[0])
    counts = np.zeros((dist.shape[0], classes.size), dtype=np.int64)
    sums = np.zeros(counts.shape)
    winners = np.empty((len(ks), dist.shape[0]), dtype=np.int64)
    for rank, (ids, d) in enumerate(zip(near_ids, near_dist), start=1):
        counts[rows, ids] += 1
        sums[rows, ids] += d
        if rank in ks:
            # classes ascend, so argmin's first minimum is the smaller label
            top = counts == counts.max(axis=1, keepdims=True)
            winners[ks.index(rank)] = classes[np.argmin(np.where(top, sums, np.inf), axis=1)]
    return winners


def knn_predict(
    train_codes: np.ndarray,
    train_labels: np.ndarray,
    test_codes: np.ndarray,
    k: int,
) -> np.ndarray:
    """Majority vote over the k nearest training columns, per test column."""
    n_train = train_codes.shape[1]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n_train:
        raise ValueError(f"k={k} exceeds the {n_train} training samples")
    labels = _check_knn_inputs(train_codes, train_labels, test_codes)
    return _sweep_votes(_pairwise_euclidean(train_codes, test_codes), labels, [k])[0]


def _loocv_neighbor_choice(
    train_codes: np.ndarray, train_labels: np.ndarray, ks: list[int]
) -> int:
    """Leave-one-out accuracy over the training codes; smallest best k wins."""
    valid = [k for k in ks if k <= train_codes.shape[1] - 1]
    if not valid:
        return ks[0]
    dist = _pairwise_euclidean(train_codes, train_codes)
    np.fill_diagonal(dist, np.inf)
    accuracies = np.mean(_sweep_votes(dist, train_labels, valid) == train_labels, axis=1)
    return valid[int(np.argmax(accuracies))]  # first max: smallest such k


def evaluate_accuracy(
    train_codes: np.ndarray,
    train_labels: np.ndarray,
    test_codes: np.ndarray,
    test_labels: np.ndarray,
    cfg: KnnConfig = KnnConfig(),
) -> KnnReport:
    """Accuracy across the neighbor-size sweep plus the reported choice.

    Sweeps every k in the configured range that does not exceed the
    training-set size. Raises on an empty test set.
    """
    if test_codes.shape[1] == 0:
        raise ValueError("empty test set")
    n_train = train_codes.shape[1]
    labels = _check_knn_inputs(train_codes, train_labels, test_codes)
    targets = np.asarray(test_labels)
    if targets.shape != (test_codes.shape[1],):
        raise ValueError("test_labels must have one entry per test column")
    ks = list(range(cfg.k_min, min(cfg.k_max, n_train) + 1))
    if not ks:
        raise ValueError("no valid neighbor size: training set is too small")

    dist = _pairwise_euclidean(train_codes, test_codes)
    accuracies = np.mean(_sweep_votes(dist, labels, ks) == targets, axis=1)
    best_pos = int(np.argmax(accuracies))  # first max: smallest such k
    best_k = ks[best_pos]
    best_accuracy = float(accuracies[best_pos])
    if cfg.selection == "cv":
        selected_k = _loocv_neighbor_choice(train_codes, labels, ks)
        selected_accuracy = float(accuracies[ks.index(selected_k)])
    else:
        selected_k = best_k
        selected_accuracy = best_accuracy
    return KnnReport(
        ks=tuple(ks),
        accuracies=accuracies,
        best_k=best_k,
        best_accuracy=best_accuracy,
        selected_k=selected_k,
        selected_accuracy=selected_accuracy,
    )

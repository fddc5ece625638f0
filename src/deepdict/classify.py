"""Test-time coding through a trained stack and nearest-neighbor evaluation.

Code matrices follow the column-major sample convention. Distances are
Euclidean; all tie-breaking is deterministic (smaller summed neighbor
distance first, then smaller label), so repeated evaluations of the same
inputs are identical.
"""

from __future__ import annotations

from collections.abc import Iterator
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


def _check_count(name: str, value) -> None:
    """Reject a neighbor count that is not an integer; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        _check_count("k_min", self.k_min)
        _check_count("k_max", self.k_max)
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


# Row blocks of distances stay within this many bytes, so ranking neighbors
# adds little to the one (n_train, n_queries) product matrix.
_BLOCK_BYTES = 1 << 20


def _distance_blocks(
    train_codes: np.ndarray, query_codes: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Euclidean distances from query columns to training columns, a block of rows at a time.

    Yields ``(lo, dist)``: row ``j`` of the C-ordered ``dist`` holds query
    column ``lo + j``'s distances to every training column. Entry ``[j, i]``
    is ``sqrt(max((|a_i|^2 + |b|^2) - 2 * (A^T B)[i, lo + j], 0))``, from one
    product ``A^T B`` of the training codes ``A`` and the query codes ``B``.
    """
    train_sq = np.sum(train_codes * train_codes, axis=0)
    query_sq = np.sum(query_codes * query_codes, axis=0)
    cross = train_codes.T @ query_codes
    cross *= 2.0
    step = max(1, _BLOCK_BYTES // (8 * train_codes.shape[1]))
    for lo in range(0, query_codes.shape[1], step):
        dist = np.add.outer(query_sq[lo : lo + step], train_sq)
        dist -= cross[:, lo : lo + step].T
        np.maximum(dist, 0.0, out=dist)
        yield lo, np.sqrt(dist, out=dist)


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


def _rank_rows(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first ``k`` (k <= row length) stable-``argsort`` columns and their distances.

    Partitions out ``k`` columns per row and stable-sorts only those, in
    index order, so equal distances rank by column index. The partition
    takes an arbitrary subset of the columns tied at the k-th distance; a
    row where it had a choice (its (k+1)-th smallest distance, read from the
    same partition, equals its k-th) is ranked in full instead.
    """
    n_cols = dist.shape[1]
    part = np.argpartition(dist, min(k, n_cols - 1), axis=1)
    cols = part[:, :k]
    cols.sort(axis=1)
    ranks = np.argsort(np.take_along_axis(dist, cols, axis=1), axis=1, kind="stable")
    cols = np.take_along_axis(cols, ranks, axis=1)
    near = np.take_along_axis(dist, cols, axis=1)
    if k < n_cols:
        beyond = np.take_along_axis(dist, part[:, k : k + 1], axis=1)
        choice = np.flatnonzero(beyond[:, 0] <= near[:, -1])
        cols[choice] = np.argsort(dist[choice], axis=1, kind="stable")[:, :k]
        near[choice] = np.take_along_axis(dist[choice], cols[choice], axis=1)
    return cols, near


def _running_votes(
    near_ids: np.ndarray, near_dist: np.ndarray, n_classes: int, ks: list[int]
) -> np.ndarray:
    """Winning class id of each row's first k neighbors, one row per k in ``ks``.

    ``near_ids`` and ``near_dist`` hold each row's neighbors' class ids and
    distances, nearest first. Each class's votes and distance sum
    accumulate rank by rank; the winner has the most votes, then the
    smaller sum, then the smaller id. A vote changes only the key of the
    class it lands on, so the new winner is the old one or that class: one
    running winner per row replaces a scan over every class at each k.
    """
    n_rows = near_ids.shape[0]
    rows = np.arange(n_rows)
    counts = np.zeros((n_rows, n_classes), dtype=np.int64)
    sums = np.zeros(counts.shape)
    best = np.zeros(n_rows, dtype=np.int64)
    best_count = np.zeros(n_rows, dtype=np.int64)
    best_sum = np.zeros(n_rows)
    winners = np.empty((len(ks), n_rows), dtype=np.int64)
    # rank-major copies: row r holds every row's r-th neighbor
    rank_ids = np.ascontiguousarray(near_ids.T)
    rank_dist = np.ascontiguousarray(near_dist.T)
    for rank, (ids, d) in enumerate(zip(rank_ids, rank_dist), start=1):
        counts[rows, ids] += 1
        sums[rows, ids] += d
        count, total = counts[rows, ids], sums[rows, ids]
        won = (count > best_count) | (
            (count == best_count) & ((total < best_sum) | ((total == best_sum) & (ids < best)))
        )
        best[won], best_count[won], best_sum[won] = ids[won], count[won], total[won]
        if rank in ks:
            winners[ks.index(rank)] = best
    return winners


def _sweep_votes(
    train_codes: np.ndarray,
    train_labels: np.ndarray,
    query_codes: np.ndarray,
    ks: list[int],
    leave_one_out: bool = False,
) -> np.ndarray:
    """Winning label of every query's k nearest training columns, one row per k in ``ks``.

    Only each query's ``max(ks)`` nearest columns and their distances
    outlive a block of distance rows. With ``leave_one_out`` the queries
    are the training codes themselves and each column's own distance is
    masked.
    """
    k = max(ks)
    cols = np.empty((query_codes.shape[1], k), dtype=np.intp)
    near = np.empty(cols.shape)
    for lo, dist in _distance_blocks(train_codes, query_codes):
        rows = np.arange(lo, lo + dist.shape[0])
        if leave_one_out:
            dist[rows - lo, rows] = np.inf
        cols[rows], near[rows] = _rank_rows(dist, k)
    classes, class_ids = np.unique(train_labels, return_inverse=True)
    return classes[_running_votes(class_ids[cols], near, classes.size, ks)]


def knn_predict(
    train_codes: np.ndarray,
    train_labels: np.ndarray,
    test_codes: np.ndarray,
    k: int,
) -> np.ndarray:
    """Majority vote over the k nearest training columns, per test column."""
    _check_count("k", k)
    n_train = train_codes.shape[1]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n_train:
        raise ValueError(f"k={k} exceeds the {n_train} training samples")
    labels = _check_knn_inputs(train_codes, train_labels, test_codes)
    return _sweep_votes(train_codes, labels, test_codes, [k])[0]


def _loocv_neighbor_choice(
    train_codes: np.ndarray, train_labels: np.ndarray, ks: list[int]
) -> int:
    """Leave-one-out accuracy over the training codes; smallest best k wins."""
    valid = [k for k in ks if k <= train_codes.shape[1] - 1]
    if not valid:
        return ks[0]
    votes = _sweep_votes(train_codes, train_labels, train_codes, valid, leave_one_out=True)
    accuracies = np.mean(votes == train_labels, axis=1)
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

    accuracies = np.mean(_sweep_votes(train_codes, labels, test_codes, ks) == targets, axis=1)
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

"""Labeled sample matrices: loading, saving, splitting, and synthesis.

Samples are stored column-major throughout the package: ``features[:, j]``
is sample ``j``. Class labels are remapped internally to ``0..C-1``; the
original integer values are retained for reporting. Containers are
immutable after construction (arrays are marked read-only), so they can be
shared freely across threads and worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LabeledMatrix",
    "SplitSpec",
    "load_labeled_matrix",
    "save_labeled_matrix",
    "split_indices",
    "split_per_class",
    "take_columns",
    "make_synthetic_clusters",
]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LabeledMatrix:
    """Feature matrix (one sample per column) with integer class labels.

    Built from ``features`` and per-column integer ``original_labels``; the
    rest is derived. ``labels`` holds internal class ids ``0..C-1``;
    ``label_values[c]`` is the original integer label of class ``c``.
    ``class_index[c]`` lists the columns of class ``c`` in ascending order
    and the tuple partitions all columns.
    """

    features: np.ndarray
    original_labels: np.ndarray
    labels: np.ndarray = field(init=False)
    label_values: np.ndarray = field(init=False)
    class_index: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self) -> None:
        f = np.array(self.features, dtype=float)
        lab = np.asarray(self.original_labels)
        if lab.dtype == object or not np.issubdtype(lab.dtype, np.integer):
            raise ValueError("labels must be integers")
        if f.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        k0, n = f.shape
        if k0 < 1 or n < 1:
            raise ValueError("feature matrix must be non-empty")
        if not np.all(np.isfinite(f)):
            raise ValueError("features contain non-finite values")
        values, remapped = np.unique(lab, return_inverse=True)
        remapped = remapped.astype(np.int64).reshape(-1)
        if remapped.shape != (n,):
            raise ValueError("labels must have one entry per column")
        derived = {
            "features": f,
            "original_labels": lab.astype(np.int64).reshape(-1),
            "labels": remapped,
            "label_values": values.astype(np.int64),
        }
        for name, arr in derived.items():
            object.__setattr__(self, name, _freeze(arr))
        index = tuple(_freeze(np.flatnonzero(remapped == c)) for c in range(values.size))
        object.__setattr__(self, "class_index", index)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[0]

    @property
    def num_samples(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_index)


@dataclass(frozen=True)
class SplitSpec:
    """Per-class train/test split request.

    Exactly ``per_class_train_count`` columns of every class go to the
    training side; the rest go to the test side. The same
    (seed, replicate_index) pair always yields the same split.
    """

    per_class_train_count: int
    seed: int = 0
    replicate_index: int = 0

    def __post_init__(self) -> None:
        if self.per_class_train_count < 1:
            raise ValueError("per_class_train_count must be >= 1")
        if self.seed < 0 or self.replicate_index < 0:
            raise ValueError("seed and replicate_index must be non-negative")


def split_indices(data: LabeledMatrix, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Column indices of the train/test partition, grouped by class.

    Within each class the chosen columns keep their original relative order,
    so class blocks are contiguous in the returned index arrays.
    """
    h = spec.per_class_train_count
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, spec.replicate_index)))
    train_parts = []
    test_parts = []
    for c, idx in enumerate(data.class_index):
        if h >= idx.size:
            raise ValueError(
                f"class {int(data.label_values[c])} has {idx.size} samples; "
                f"cannot reserve {h} for training and leave a test remainder"
            )
        chosen = np.sort(rng.choice(idx.size, size=h, replace=False))
        train_parts.append(idx[chosen])
        test_parts.append(np.delete(idx, chosen))
    return np.concatenate(train_parts), np.concatenate(test_parts)


def take_columns(data: LabeledMatrix, cols: np.ndarray) -> LabeledMatrix:
    """New LabeledMatrix holding the given columns, in the given order."""
    return LabeledMatrix(data.features[:, cols], data.original_labels[cols])


def split_per_class(data: LabeledMatrix, spec: SplitSpec) -> tuple[LabeledMatrix, LabeledMatrix]:
    """Split into train/test with a fixed training count per class.

    Both sides store their class blocks contiguously (class 0 block, then
    class 1, ...). Deterministic in (data, spec).
    """
    train_cols, test_cols = split_indices(data, spec)
    return take_columns(data, train_cols), take_columns(data, test_cols)


def make_synthetic_clusters(
    n_classes: int,
    n_per_class: int,
    dim: int,
    separation: float,
    seed: int = 0,
) -> LabeledMatrix:
    """Isotropic Gaussian clusters with unit within-class standard deviation.

    Class means are drawn at random directions and rescaled so the smallest
    pairwise mean distance equals ``separation`` (all pairs are at least
    that far apart). ``separation=0`` gives fully overlapping clouds.
    """
    if n_classes < 1 or n_per_class < 1 or dim < 1:
        raise ValueError("n_classes, n_per_class and dim must be >= 1")
    if not 0 <= separation < math.inf:
        raise ValueError("separation must be finite and >= 0")
    rng = np.random.default_rng(seed)
    if n_classes == 1:
        means = np.zeros((dim, 1))
    else:
        means = rng.standard_normal((dim, n_classes))
        min_dist = min(
            float(np.linalg.norm(means[:, i] - means[:, j]))
            for i in range(n_classes)
            for j in range(i + 1, n_classes)
        )
        if min_dist == 0.0:
            raise RuntimeError("degenerate random means; try another seed")
        means *= separation / min_dist
    features = np.empty((dim, n_classes * n_per_class))
    labels = np.repeat(np.arange(n_classes), n_per_class)
    for c in range(n_classes):
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        features[:, block] = means[:, c:c + 1] + rng.standard_normal((dim, n_per_class))
    return LabeledMatrix(features, labels)


def _parse_float(field: str, path: str, lineno: int, col: int) -> float:
    try:
        value = float(field)
    except ValueError:
        raise ValueError(
            f"{path}:{lineno}: field {col} is not a number: {field!r}"
        ) from None
    if not np.isfinite(value):
        raise ValueError(f"{path}:{lineno}: field {col} is not finite: {field!r}")
    return value


_INT64 = np.iinfo(np.int64)


def _parse_label(field: str, path: str, lineno: int) -> int:
    try:
        value = int(field)
    except ValueError:
        raise ValueError(
            f"{path}:{lineno}: label {field!r} is not an integer"
        ) from None
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{path}:{lineno}: label {field!r} is out of range")
    return value


def _read_lines(path: str, split, parse_row, empty: str, min_fields: int = 1) -> list:
    # parse_row(fields, path, lineno) of each non-blank line, all as wide as the first
    rows = []
    width = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = split(line)
            if len(fields) < min_fields:
                raise ValueError(
                    f"{path}:{lineno}: expected at least one feature plus a label"
                )
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} fields, got {len(fields)}"
                )
            rows.append(parse_row(fields, path, lineno))
    if not rows:
        raise ValueError(f"{path}: {empty}")
    return rows


def _parse_floats(fields: list[str], path: str, lineno: int) -> list[float]:
    return [_parse_float(f, path, lineno, col) for col, f in enumerate(fields, start=1)]


def _read_dense_lines(path: str) -> tuple[np.ndarray, np.ndarray]:
    # One sample per row: comma-separated features, trailing integer label.
    rows = _read_lines(
        path, lambda line: line.split(","),
        lambda fields, path, lineno: (
            _parse_floats(fields[:-1], path, lineno), _parse_label(fields[-1], path, lineno)
        ),
        "no samples", min_fields=2,
    )
    features, labels = zip(*rows)
    return np.array(features, dtype=float).T, np.array(labels, dtype=np.int64)


def _read_matrix(path: str) -> np.ndarray:
    # Whitespace-separated matrix: rows are features, columns are samples.
    return np.array(_read_lines(path, str.split, _parse_floats, "empty matrix"), dtype=float)


def _read_labels(path: str) -> np.ndarray:
    labels = _read_lines(
        path, lambda line: [line],
        lambda fields, path, lineno: _parse_label(fields[0], path, lineno), "no labels",
    )
    return np.array(labels, dtype=np.int64)


# The bytes a file may hold for the one-conversion parse. On these,
# np.loadtxt reads every number as float()/int() do, and bytes.splitlines()
# breaks lines as a text-mode file does. NumPy 2.4 reads some other
# characters differently: it skips \x1c-\x1f around numbers, which int()
# and float() reject; it read the label "3\U0009c6ca" as 640696, and a scan
# of non-ASCII characters in a label field crashed the interpreter.
_FAST_BYTES = b"0123456789+-.eE, \t\r\n"


# Bytes per buffered read of a dense file. The default 8 KiB buffer reads
# a longer line (784 features take about 15 KiB) in pieces and joins them.
_READ_BUFFER = 1 << 16


def _dense_width(path: str) -> int:
    """The first line's field count, or 0 when the line parser must decide:
    a byte outside ``_FAST_BYTES``, no lines, or a label holding ``.``,
    ``e`` or ``E``. One pass that keeps no line."""
    width = 0
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        for physical in fh:
            for line in physical.splitlines():  # a bare \r ends a line too
                if line.translate(None, _FAST_BYTES):
                    return 0
                label = line[line.rfind(b",") + 1:]
                if b"." in label or b"e" in label or b"E" in label:
                    return 0
                width = width or line.count(b",") + 1
    return width


def _read_dense(path: str) -> tuple[np.ndarray, np.ndarray]:
    """One ``np.loadtxt`` conversion, or the line parser wherever NumPy
    might read the file differently or the file holds an error.

    Only inputs on which ``np.loadtxt`` cannot warn reach it, so no warning
    filter is needed: the first line holds a comma, so the input is not
    empty, and no label holds ``.``, ``e`` or ``E``, which older NumPy
    reads as an integer via a float with a DeprecationWarning. The file is
    read twice, in pieces, and its text is never held whole.
    """
    width = _dense_width(path)
    if width < 2:
        return _read_dense_lines(path)
    # width - 1 float features plus one int64 label, as the first line has
    dtype = [("f", float, (width - 1,)), ("y", np.int64)]
    try:
        # text mode ends lines where bytes.splitlines() does; the bytes are ASCII
        with open(path, encoding="ascii") as fh:
            rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return _read_dense_lines(path)
    if not np.isfinite(rows["f"]).all():
        return _read_dense_lines(path)
    # transposed C order, the layout the line parser returns
    return np.array(rows["f"]).T, np.array(rows["y"])


def load_labeled_matrix(
    path: str,
    format: str = "dense",
    labels_path: str | None = None,
    normalize: bool = False,
) -> LabeledMatrix:
    """Load samples from disk.

    ``format="dense"``: one sample per row, comma-separated features with a
    trailing integer label field (the matrix is transposed to column-major
    on load). ``format="pair"``: whitespace-separated matrix file with
    rows = features and columns = samples, plus a one-label-per-line file
    given as ``labels_path``.

    ``normalize=True`` rescales every sample column to unit L2 norm.
    """
    if format == "dense":
        feats, labels = _read_dense(path)
    elif format == "pair":
        if labels_path is None:
            raise ValueError("pair format requires labels_path")
        feats = _read_matrix(path)
        labels = _read_labels(labels_path)
        if labels.size != feats.shape[1]:
            raise ValueError(
                f"{labels_path}: {labels.size} labels for {feats.shape[1]} samples"
            )
    else:
        raise ValueError(f"unknown format: {format!r}")
    if normalize:
        norms = np.linalg.norm(feats, axis=0)
        if np.any(norms == 0):
            raise ValueError("cannot normalize zero columns to unit norm")
        feats = feats / norms
    return LabeledMatrix(feats, labels)


def save_labeled_matrix(
    data: LabeledMatrix,
    path: str,
    format: str = "dense",
    labels_path: str | None = None,
) -> None:
    """Write a LabeledMatrix to disk; the native formats round-trip bit-exactly."""
    # one row at a time as Python floats, so the matrix is never converted whole
    orig = data.original_labels
    if format == "dense":
        with open(path, "w") as fh:
            for row, label in zip(data.features.T, orig.tolist()):
                fh.write(f"{','.join(map(repr, row.tolist()))},{label}\n")
    elif format == "pair":
        if labels_path is None:
            raise ValueError("pair format requires labels_path")
        with open(path, "w") as fh:
            for row in data.features:
                fh.write(" ".join(map(repr, row.tolist())) + "\n")
        with open(labels_path, "w") as fh:
            fh.writelines(f"{int(v)}\n" for v in orig)
    else:
        raise ValueError(f"unknown format: {format!r}")

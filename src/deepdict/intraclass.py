"""Layer-wise dictionary learning with an intra-class compactness penalty.

Each layer minimizes the squared reconstruction error of its input plus a
pull-together penalty: ``alpha`` times the sum, over classes, of squared
distances between every ordered pair of same-class code columns. Both
update steps are exact minimizers (a closed-form dictionary solve, and
sequential per-column code solves), so the per-layer objective trace is
non-increasing. Layers are trained greedily and never revisited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baseline import alternate_layer, train_stack
from .data import LabeledMatrix
from .kernels import (
    DEFAULT_RIDGE,
    RidgePolicy,
    _check_stack_settings,
    _check_trained_stack,
    _require_finite,
    _ridged_factor,
    _solve_factored,
    solve_least_squares_dictionary,
)
# Not called here: bench/bench_trace.py wraps ridge_code in every module
# that imports it, and its list of traced names includes this one.
from .kernels import ridge_code  # noqa: F401

__all__ = [
    "DdlicConfig",
    "DdlicModel",
    "compactness_penalty",
    "layer_objective",
    "update_representations",
    "train_layer",
    "train_ddlic",
]

@dataclass(frozen=True)
class DdlicConfig:
    """Settings for the intra-class-constrained stack.

    ``alphas`` holds one non-negative compactness weight per layer and must
    have the same length as ``layer_sizes`` (= ``depth``). Every layer runs
    exactly ``iters_per_layer`` iterations.
    """

    depth: int = 3
    layer_sizes: tuple[int, ...] = (400, 200, 100)
    alphas: tuple[float, ...] = (1e-3, 1e-3, 1e-3)
    iters_per_layer: int = 20
    seed: int = 0
    init: str = "qr"
    ridge: RidgePolicy = DEFAULT_RIDGE

    def __post_init__(self) -> None:
        _check_stack_settings(self)
        if len(self.alphas) != self.depth:
            raise ValueError("alphas length must equal depth")
        if not all(0 <= a < math.inf for a in self.alphas):
            raise ValueError("alphas must be finite and >= 0")


@dataclass
class DdlicModel:
    """Trained stack: dictionaries, per-layer training codes, and traces."""

    dictionaries: list[np.ndarray]
    layer_reprs: list[np.ndarray]
    config: DdlicConfig
    traces: list[np.ndarray]
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_trained_stack(
            self.config, self.dictionaries, self.layer_reprs, self.traces, self.labels
        )

    @property
    def train_repr(self) -> np.ndarray:
        """Final-layer training codes."""
        return self.layer_reprs[-1]


def _class_groups(class_index, n_columns: int) -> list[np.ndarray]:
    """Check that ``class_index`` partitions the columns; group it by class size.

    Returns one ``(classes, size)`` array per distinct nonzero class size,
    whose rows are the member columns of each class of that size in order.
    """
    by_size: dict[int, list] = {}
    for ix in class_index:
        by_size.setdefault(len(ix), []).append(ix)
    groups = [np.array(members) for size, members in by_size.items() if size]
    covered = np.sort(np.concatenate(groups, axis=None)) if groups else np.empty(0, int)
    if covered.size != n_columns or (covered != np.arange(n_columns)).any():
        raise ValueError("class_index must partition the code columns")
    return groups


def compactness_penalty(codes: np.ndarray, class_index) -> float:
    """Sum over classes of squared distances between all ordered same-class pairs.

    Every unordered pair is counted twice (once per order), so a class of
    ``n`` columns with sum ``s`` adds ``2 * (n * sum of squared norms - |s|^2)``.
    Classes of one size are summed together, as the code sweep groups them.
    """
    total = 0.0
    for cols in _class_groups(class_index, codes.shape[1]):
        block = np.take(codes, cols, axis=1)  # (atoms, classes, size), C-contiguous
        sums = block.sum(axis=2)
        total += 2.0 * (cols.shape[1] * float(np.vdot(block, block)) - float(np.vdot(sums, sums)))
    return total


def layer_objective(
    inputs: np.ndarray,
    dictionary: np.ndarray,
    codes: np.ndarray,
    alpha: float,
    class_index,
) -> float:
    """Reconstruction error plus ``alpha`` times the intra-class spread."""
    if not 0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 0")
    resid = dictionary @ codes
    np.subtract(inputs, resid, out=resid)
    value = float(np.vdot(resid, resid))
    if alpha > 0:
        value += alpha * compactness_penalty(codes, class_index)
    return value


def column_gradient(
    dictionary: np.ndarray,
    inputs: np.ndarray,
    codes: np.ndarray,
    alpha: float,
    class_cols: np.ndarray,
    col: int,
) -> np.ndarray:
    """Gradient of the layer objective with respect to one code column.

    ``class_cols`` lists the columns of the class containing ``col``.
    """
    class_cols = np.asarray(class_cols)
    if col not in class_cols:
        raise ValueError("col must belong to class_cols")
    z = codes[:, col]
    recon = 2.0 * (dictionary.T @ (dictionary @ z - inputs[:, col]))
    siblings_sum = codes[:, class_cols].sum(axis=1) - z
    n_c = class_cols.size
    pull = 4.0 * alpha * ((n_c - 1) * z - siblings_sum)
    return recon + pull


def dictionary_gradient(
    inputs: np.ndarray,
    dictionary: np.ndarray,
    codes: np.ndarray,
) -> np.ndarray:
    """Gradient of the reconstruction term with respect to the dictionary."""
    return 2.0 * (dictionary @ codes - inputs) @ codes.T


# Exact dictionary refresh; the compactness term does not involve it.
update_dictionary = solve_least_squares_dictionary


def update_representations(
    dictionary: np.ndarray,
    inputs: np.ndarray,
    codes: np.ndarray,
    alpha: float,
    class_index,
    policy: RidgePolicy = DEFAULT_RIDGE,
) -> np.ndarray:
    """One sequential sweep of exact per-column code updates.

    Columns are visited class by class in index order, each update seeing
    the latest values of its class siblings, so the layer objective cannot
    increase across the sweep. Returns a new C-contiguous code matrix; the
    input is not modified.

    In a class of size ``n``, column ``j`` solves
    ``(D^T D + 2*alpha*(n-1) I) z_j = c_j + 2*alpha*(S_j + R_j)`` with
    ``c_j = D^T x_j``, ``S_j`` the sum of the class's already updated
    columns before ``j`` and ``R_j`` the sum of its old columns after ``j``.
    Classes do not interact, so all classes of one size share one factor
    (with ``gram_solver``'s ridge and pseudo-inverse fallback), and the
    sweep solves position ``j`` of every such class in one call, in place.
    The inputs are checked once on entry and the result once on exit, so
    an overflow raises ``ValueError``.
    Without coupling (``alpha == 0``, or singleton classes) there is one
    position, so a group's columns take one solve together.
    """
    if not 0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 0")
    if dictionary.shape[0] != inputs.shape[0]:
        raise ValueError("dictionary rows must match the input dimension")
    if codes.shape != (dictionary.shape[1], inputs.shape[1]):
        raise ValueError("codes shape must be (n_atoms, n_samples)")
    groups = _class_groups(class_index, inputs.shape[1])
    for name, array in (("dictionary", dictionary), ("inputs", inputs), ("codes", codes)):
        _require_finite(array, name)

    # Sample-row layout: row i of corr, old and out belongs to column i.
    gram = dictionary.T @ dictionary
    corr = inputs.T @ dictionary
    old = codes.T
    out = np.empty_like(corr)
    if alpha == 0 and groups:
        groups = [np.concatenate(groups, axis=None)[:, None]]
    for cols in groups:
        n_c = cols.shape[1]
        factor, pseudo = _ridged_factor(gram, policy, 2.0 * alpha * (n_c - 1))
        by_position = cols.T  # row j: column j of every class in the group
        rhs = corr[by_position]  # (n_c, classes, atoms)
        # R_{n_c-2} .. R_0: a running sum of the old columns from the last position back
        after = old[by_position[:0:-1]]
        for i in range(1, n_c - 1):
            after[i] += after[i - 1]
        after *= 2.0 * alpha
        rhs[:-1] += after[::-1]
        before = np.zeros_like(rhs[0])  # S_j
        scaled = np.empty_like(before)
        for j in range(n_c):
            rhs[j] += np.multiply(before, 2.0 * alpha, out=scaled)
            column_major = rhs[j].T  # F-contiguous: a factored solve overwrites it
            solved = _solve_factored(factor, pseudo, column_major)
            if solved is not column_major:
                rhs[j] = solved.T
            before += rhs[j]
        out[by_position] = rhs
    _require_finite(out, "updated codes")
    return np.ascontiguousarray(out.T)


def train_layer(
    inputs: np.ndarray,
    alpha: float,
    n_atoms: int,
    n_iters: int,
    class_index,
    init_dict: np.ndarray,
    policy: RidgePolicy = DEFAULT_RIDGE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternate dictionary and code updates for one layer.

    Runs ``baseline.alternate_layer`` with one full code sweep as the code
    step, so the returned trace holds the layer objective after each of the
    ``n_iters`` iterations and is non-increasing.
    """
    if init_dict.shape != (inputs.shape[0], n_atoms):
        raise ValueError(
            f"init_dict must have shape ({inputs.shape[0]}, {n_atoms}), got {init_dict.shape}"
        )
    return alternate_layer(
        inputs, init_dict, n_iters,
        lambda dictionary, codes: update_representations(
            dictionary, inputs, codes, alpha, class_index, policy
        ),
        lambda dictionary, codes: layer_objective(inputs, dictionary, codes, alpha, class_index),
        policy,
    )


def train_ddlic(train: LabeledMatrix, cfg: DdlicConfig = DdlicConfig()) -> DdlicModel:
    """Train the full intra-class-constrained stack greedily."""

    def train_one(layer, inputs, init):
        return train_layer(
            inputs, cfg.alphas[layer - 1], init.shape[1], cfg.iters_per_layer,
            train.class_index, init, cfg.ridge,
        )

    dictionaries, layer_reprs, traces = train_stack(train.features, cfg, train_one)
    return DdlicModel(
        dictionaries, layer_reprs, cfg, traces, labels=np.array(train.original_labels)
    )

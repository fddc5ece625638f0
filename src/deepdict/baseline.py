"""Greedy layer-wise dictionary stack with a sparse final layer.

Each layer factorizes the previous layer's codes under the identity
activation. Inner layers alternate a closed-form dictionary solve with
dense least-squares coding; the final layer replaces the coding step with
L1-penalized soft-thresholding. Layers are trained greedily in order and
never revisited. The alternating loop (``alternate_layer``) and the greedy
loop (``train_stack``) defined here train the label-aware stack too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .kernels import (
    DEFAULT_RIDGE,
    IstaConfig,
    RidgePolicy,
    _check_stack_settings,
    _check_trained_stack,
    _helper_thread,
    _paired,
    initial_dictionary,
    ista_sparse_code,
    ridge_code,
    solve_least_squares_dictionary,
    sparse_objective,
)

__all__ = [
    "TrainConfig",
    "DdlModel",
    "alternate_layer",
    "train_dense_layer",
    "train_sparse_layer",
    "train_stack",
    "train_ddl",
    "product_dictionary",
    "code_test_ddl",
]


@dataclass(frozen=True)
class TrainConfig:
    """Settings for the dense-then-sparse dictionary stack.

    ``depth`` must equal ``len(layer_sizes)``. ``l1_weight`` applies only to
    the final layer. ``init="qr"`` starts the first layer from an
    orthonormal basis of the training data (requires the first layer to be
    no wider than the input dimension) and deeper layers from seeded random
    atoms; ``init="random"`` uses random atoms everywhere.
    """

    depth: int = 3
    layer_sizes: tuple[int, ...] = (400, 200, 100)
    l1_weight: float = 0.1
    iters_per_layer: int = 20
    seed: int = 0
    init: str = "qr"
    ista: IstaConfig = field(default_factory=IstaConfig)
    ridge: RidgePolicy = DEFAULT_RIDGE

    def __post_init__(self) -> None:
        _check_stack_settings(self)
        if not 0 <= self.l1_weight < math.inf:
            raise ValueError("l1_weight must be finite and >= 0")


@dataclass
class DdlModel:
    """Trained stack: per-layer dictionaries plus the final training codes."""

    dictionaries: list[np.ndarray]
    train_repr: np.ndarray
    config: TrainConfig
    traces: list[np.ndarray]
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        codes = [None] * (len(self.dictionaries) - 1) + [self.train_repr]
        _check_trained_stack(self.config, self.dictionaries, codes, self.traces, self.labels)

    @property
    def l1_weight(self) -> float:
        return self.config.l1_weight


def alternate_layer(
    inputs: np.ndarray,
    init_dict: np.ndarray,
    n_iters: int,
    code_step: Callable[[np.ndarray, np.ndarray], np.ndarray],
    objective: Callable[[np.ndarray, np.ndarray], float],
    policy: RidgePolicy = DEFAULT_RIDGE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The alternating loop every layer of either stack trains with.

    Codes start as the least-squares codes against ``init_dict``. One
    iteration refreshes the dictionary exactly for the current codes, then
    replaces the codes by ``code_step(dictionary, codes)`` and records
    ``objective(dictionary, codes)``; when both steps minimize that
    objective, the trace is non-increasing. Returns (dictionary, codes,
    trace), the trace holding one value per iteration.

    Nothing later waits for an objective, so iteration t's objective and
    iteration t+1's refresh and code step form one ``kernels._paired``
    pair, gated on the objective's ``inputs.size * k`` multiply-adds: the
    helper runs the objective while this thread trains on; the last
    objective pairs with a step that returns the trained pair. The helper
    is published by ``kernels._helper_thread`` for the call (none in a pool
    worker), so ``code_step`` and the starting codes hand it more work
    through ``_paired``: the first of two large independent products in
    ``ridge_code`` and the ``ddlic`` sweep. Every product and solve runs
    whole on one thread, and the helper runs one call at a time, so an
    objective may reuse one scratch buffer and the results are
    bit-identical to a loop in sequence. An objective's exception is raised
    from this call unchanged, and wins over one its paired step raised.
    """
    if init_dict.shape[0] != inputs.shape[0]:
        raise ValueError("init_dict rows must match the input dimension")
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")

    def step(codes):
        dictionary = solve_least_squares_dictionary(inputs, codes, policy)
        return dictionary, code_step(dictionary, codes)

    values: list[float] = []
    with _helper_thread():
        dictionary, codes = step(ridge_code(init_dict, inputs, policy))
        for t in range(n_iters):
            trained = dictionary, codes
            value, (dictionary, codes) = _paired(
                partial(objective, *trained),
                (lambda: trained) if t == n_iters - 1 else partial(step, codes),
                inputs.size * init_dict.shape[1],
            )
            values.append(value)
    return dictionary, codes, np.asarray(values)


def train_dense_layer(
    inputs: np.ndarray,
    init_dict: np.ndarray,
    n_iters: int,
    policy: RidgePolicy = DEFAULT_RIDGE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One dense layer: alternate exact dictionary and least-squares code updates.

    The recorded reconstruction-error trace is non-increasing. Returns
    (dictionary, codes, trace).
    """
    resid = np.empty(inputs.shape)
    return alternate_layer(
        inputs, init_dict, n_iters,
        lambda dictionary, codes: ridge_code(dictionary, inputs, policy),
        lambda dictionary, codes: sparse_objective(dictionary, inputs, codes, 0.0, resid),
        policy,
    )


def train_sparse_layer(
    inputs: np.ndarray,
    init_dict: np.ndarray,
    n_iters: int,
    l1_weight: float,
    ista_cfg: IstaConfig = IstaConfig(),
    policy: RidgePolicy = DEFAULT_RIDGE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Final layer: closed-form dictionary solve alternated with sparse coding.

    The coding step is warm-started from the current codes, so the recorded
    penalized-objective trace is non-increasing. Returns
    (dictionary, codes, trace). Sparse codes that are all zero refresh to a
    zero dictionary, from which ISTA derives no step size; that refresh
    raises ``ValueError`` naming ``l1_weight``. With a fixed
    ``ista_cfg.step`` the layer trains on to zero codes and issues one
    ``RuntimeWarning`` (one fixed message) instead.
    """
    warned = False

    def code_step(dictionary, codes):
        nonlocal warned
        if not codes.any():
            if ista_cfg.step is None:
                raise ValueError(
                    f"every sparse code is zero at l1_weight={l1_weight!r}, "
                    "so the refreshed dictionary is zero"
                )
            if not warned:
                warned = True
                warnings.warn(
                    "every sparse code is zero, so the refreshed dictionary is zero "
                    "and the layer trains to zero codes",
                    RuntimeWarning,
                )
        return ista_sparse_code(dictionary, inputs, l1_weight, ista_cfg, warm_start=codes)

    resid = np.empty(inputs.shape)
    return alternate_layer(
        inputs, init_dict, n_iters, code_step,
        lambda dictionary, codes: sparse_objective(dictionary, inputs, codes, l1_weight, resid),
        policy,
    )


def train_stack(features: np.ndarray, cfg, train_one: Callable) -> tuple[list, list, list]:
    """The greedy layer-wise loop both stacks train with.

    Layer ``l`` (from 1) starts from ``initial_dictionary`` on the previous
    layer's codes (the features for layer 1) and is trained by
    ``train_one(l, inputs, init_dict)``, which returns (dictionary, codes,
    trace). Layers are never revisited. Returns the per-layer dictionaries,
    codes and traces. All-zero features raise ``ValueError`` before any
    layer trains.
    """
    if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
        raise ValueError("features must be a non-empty 2-D matrix")
    if not features.any():
        raise ValueError("features are all zero; no layer can learn from them")
    current = features
    dictionaries, layer_codes, traces = [], [], []
    for layer, n_atoms in enumerate(cfg.layer_sizes, start=1):
        init = initial_dictionary(current, n_atoms, layer, cfg.init, cfg.seed)
        dictionary, current, trace = train_one(layer, current, init)
        dictionaries.append(dictionary)
        layer_codes.append(current)
        traces.append(trace)
    return dictionaries, layer_codes, traces


def train_ddl(features: np.ndarray, cfg: TrainConfig = TrainConfig()) -> DdlModel:
    """Train the full stack greedily on a feature matrix (samples as columns).

    A ``ValueError`` from the final, sparse layer is re-raised with that
    layer's number in front of its message.
    """

    def train_one(layer, inputs, init):
        if layer < cfg.depth:
            return train_dense_layer(inputs, init, cfg.iters_per_layer, cfg.ridge)
        try:
            return train_sparse_layer(
                inputs, init, cfg.iters_per_layer, cfg.l1_weight, cfg.ista, cfg.ridge
            )
        except ValueError as err:
            raise ValueError(f"layer {layer}: {err}") from err

    dictionaries, layer_codes, traces = train_stack(features, cfg, train_one)
    return DdlModel(dictionaries, layer_codes[-1], cfg, traces)


def product_dictionary(dictionaries: list[np.ndarray]) -> np.ndarray:
    """Product of the per-layer dictionaries, mapping final codes to inputs."""
    if not dictionaries:
        raise ValueError("at least one dictionary is required")
    product = dictionaries[0]
    for d in dictionaries[1:]:
        product = product @ d
    return product


def code_test_ddl(model: DdlModel, test_features: np.ndarray) -> np.ndarray:
    """Sparse codes of test samples against the stack's product dictionary.

    Solves one penalized least-squares problem per test column with the
    model's training L1 weight and ISTA settings. An empty test matrix
    yields an empty code matrix.
    """
    product = product_dictionary(model.dictionaries)
    if test_features.shape[0] != product.shape[0]:
        raise ValueError(
            f"test features have {test_features.shape[0]} rows, expected {product.shape[0]}"
        )
    return ista_sparse_code(product, test_features, model.l1_weight, model.config.ista)

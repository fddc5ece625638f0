"""Directory serialization for trained models.

A model directory holds one plain-text matrix file per dictionary, the
stored training codes, an optional training-label file, and a JSON
metadata file. Matrices are written with 17 significant digits, so a
save/load round trip reproduces every float exactly.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import contextmanager

import numpy as np

from .baseline import DdlModel, TrainConfig
from .intraclass import DdlicConfig, DdlicModel
from .kernels import IstaConfig, RidgePolicy

__all__ = ["save_model", "load_model"]

_MATRIX_FMT = "%.17g"


def _write_matrix(path: str, matrix: np.ndarray) -> None:
    np.savetxt(path, matrix, fmt=_MATRIX_FMT)


@contextmanager
def _naming(path: str):
    # NumPy's and json's parse errors do not say which file they are about
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_array(path: str, dtype=float, ndmin: int = 2) -> np.ndarray:
    with open(path) as fh, _naming(path):
        # np.loadtxt only warns about a file without a data line
        if not any(line.strip() and not line.lstrip().startswith("#") for line in fh):
            raise ValueError("file holds no values")
        fh.seek(0)
        return np.loadtxt(fh, dtype=dtype, ndmin=ndmin)


def save_model(model, out_dir: str) -> None:
    """Serialize a trained model into a directory (created if missing)."""
    if not isinstance(model, (DdlicModel, DdlModel)):
        raise TypeError(f"cannot serialize object of type {type(model).__name__}")
    dataclasses.replace(model)  # re-runs the model's check before any file is written
    os.makedirs(out_dir, exist_ok=True)
    if isinstance(model, DdlicModel):
        cfg = model.config
        meta = {"kind": "ddlic", "alphas": [float(a) for a in cfg.alphas]}
        for i, codes in enumerate(model.layer_reprs, start=1):
            _write_matrix(os.path.join(out_dir, f"layer_repr_{i:02d}.txt"), codes)
    else:
        cfg = model.config
        meta = {
            "kind": "ddl",
            "l1_weight": float(cfg.l1_weight),
            "ista": dataclasses.asdict(cfg.ista),
        }
        _write_matrix(os.path.join(out_dir, "train_repr.txt"), model.train_repr)
    # settings and results both models share
    meta.update(
        depth=cfg.depth,
        layer_sizes=list(cfg.layer_sizes),
        iters_per_layer=cfg.iters_per_layer,
        seed=cfg.seed,
        init=cfg.init,
        ridge_epsilon_scale=cfg.ridge.epsilon_scale,
        traces=[[float(v) for v in t] for t in model.traces],
    )

    for i, dictionary in enumerate(model.dictionaries, start=1):
        _write_matrix(os.path.join(out_dir, f"dictionary_{i:02d}.txt"), dictionary)
    if model.labels is not None:
        np.savetxt(os.path.join(out_dir, "train_labels.txt"), model.labels, fmt="%d")
    with open(os.path.join(out_dir, "metadata.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(model_dir: str):
    """Load a model directory written by :func:`save_model`."""
    meta_path = os.path.join(model_dir, "metadata.json")
    if not os.path.isfile(meta_path):
        raise FileNotFoundError(f"{model_dir}: no metadata.json; not a model directory")
    with open(meta_path) as fh, _naming(meta_path):
        meta = json.load(fh)

    def field(key: str):
        if key not in meta:
            raise ValueError(f"{model_dir}: metadata.json has no key {key!r}")
        return meta[key]

    depth = int(field("depth"))
    dictionaries = [
        _read_array(os.path.join(model_dir, f"dictionary_{i:02d}.txt"))
        for i in range(1, depth + 1)
    ]
    labels_path = os.path.join(model_dir, "train_labels.txt")
    labels = None
    if os.path.isfile(labels_path):
        labels = _read_array(labels_path, np.int64, ndmin=1)
    traces = [np.asarray(t, dtype=float) for t in field("traces")]
    shared = dict(
        depth=depth,
        layer_sizes=tuple(int(k) for k in field("layer_sizes")),
        iters_per_layer=int(field("iters_per_layer")),
        seed=int(field("seed")),
        init=field("init"),
        ridge=RidgePolicy(epsilon_scale=float(field("ridge_epsilon_scale"))),
    )

    kind = field("kind")
    if kind == "ddlic":
        cfg = DdlicConfig(alphas=tuple(float(a) for a in field("alphas")), **shared)
        layer_reprs = [
            _read_array(os.path.join(model_dir, f"layer_repr_{i:02d}.txt"))
            for i in range(1, depth + 1)
        ]
        return DdlicModel(dictionaries, layer_reprs, cfg, traces, labels=labels)
    if kind == "ddl":
        cfg = TrainConfig(
            l1_weight=float(field("l1_weight")),
            ista=IstaConfig(**field("ista")),
            **shared,
        )
        train_repr = _read_array(os.path.join(model_dir, "train_repr.txt"))
        return DdlModel(dictionaries, train_repr, cfg, traces, labels=labels)
    raise ValueError(f"{model_dir}: unknown model kind {kind!r}")

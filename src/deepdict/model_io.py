"""Directory serialization for trained models.

A model directory holds one binary NumPy ``.npy`` file per matrix (each
dictionary, the stored training codes and the optional training labels)
and a JSON metadata file. A ``.npy`` file keeps every bit and the dtype, so
a save/load round trip reproduces each array exactly. Directories written
by earlier versions hold the same matrices as text files (``.txt``, 17
significant digits); they still load. One directory uses one format:
``dictionary_01.npy`` present means every matrix is read as ``.npy``.
Saving into a directory first removes the matrix files, in either format,
that an earlier save left there, and nothing else.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from contextlib import contextmanager

import numpy as np

from .baseline import DdlModel, TrainConfig
from .intraclass import DdlicConfig, DdlicModel
from .kernels import IstaConfig, RidgePolicy

__all__ = ["save_model", "load_model"]

# The matrix files save_model writes, in either format; a re-save removes them first.
_MODEL_FILE = re.compile(r"(dictionary_\d+|layer_repr_\d+|train_repr|train_labels)\.(npy|txt)")


@contextmanager
def _naming(path: str):
    # NumPy's and json's parse errors do not say which file they are about
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_array(path: str, dtype, ndmin: int) -> np.ndarray:
    with open(path) as fh, _naming(path):
        # np.loadtxt only warns about a file without a data line
        if not any(line.strip() and not line.lstrip().startswith("#") for line in fh):
            raise ValueError("file holds no values")
        fh.seek(0)
        return np.loadtxt(fh, dtype=dtype, ndmin=ndmin)


def _read_npy(path: str, dtype, ndim: int) -> np.ndarray:
    with open(path, "rb") as fh, _naming(path):
        # np.load would take any other file for a pickle or an .npz archive
        magic = fh.read(len(np.lib.format.MAGIC_PREFIX))
        if magic != np.lib.format.MAGIC_PREFIX:
            raise ValueError("not a .npy file" if magic else "file holds no values")
        fh.seek(0)
        array = np.load(fh, allow_pickle=False)
        if array.dtype != dtype or array.ndim != ndim:
            raise ValueError(
                f"holds a {array.ndim}-D {array.dtype} array; expected {ndim}-D {np.dtype(dtype)}"
            )
        return array


def _read_matrix(path: str, dtype=np.float64, ndim: int = 2) -> np.ndarray:
    """One model array from a ``.npy`` or an earlier version's text file."""
    read = _read_npy if path.endswith(".npy") else _read_array
    array = read(path, dtype, ndim)
    if not np.isfinite(array).all():
        raise ValueError(f"{path}: values must be finite")
    return array


def save_model(model, out_dir: str) -> None:
    """Serialize a trained model into a directory (created if missing)."""
    if not isinstance(model, (DdlicModel, DdlModel)):
        raise TypeError(f"cannot serialize object of type {type(model).__name__}")
    dataclasses.replace(model)  # re-runs the model's check before any file is written
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):  # an earlier save's matrices, in either format
        if _MODEL_FILE.fullmatch(name):
            os.remove(os.path.join(out_dir, name))

    def write(stem: str, array, dtype=np.float64) -> None:
        np.save(os.path.join(out_dir, stem + ".npy"), np.asarray(array, dtype=dtype))

    if isinstance(model, DdlicModel):
        cfg = model.config
        meta = {"kind": "ddlic", "alphas": [float(a) for a in cfg.alphas]}
        for i, codes in enumerate(model.layer_reprs, start=1):
            write(f"layer_repr_{i:02d}", codes)
    else:
        cfg = model.config
        meta = {
            "kind": "ddl",
            "l1_weight": float(cfg.l1_weight),
            "ista": dataclasses.asdict(cfg.ista),
        }
        write("train_repr", model.train_repr)
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
        write(f"dictionary_{i:02d}", dictionary)
    if model.labels is not None:
        write("train_labels", model.labels, np.int64)
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

    npy = os.path.isfile(os.path.join(model_dir, "dictionary_01.npy"))

    def path(stem: str) -> str:
        return os.path.join(model_dir, stem + (".npy" if npy else ".txt"))

    depth = int(field("depth"))
    dictionaries = [_read_matrix(path(f"dictionary_{i:02d}")) for i in range(1, depth + 1)]
    labels = None
    if os.path.isfile(path("train_labels")):
        labels = _read_matrix(path("train_labels"), np.int64, ndim=1)
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
        layer_reprs = [_read_matrix(path(f"layer_repr_{i:02d}")) for i in range(1, depth + 1)]
        return DdlicModel(dictionaries, layer_reprs, cfg, traces, labels=labels)
    if kind == "ddl":
        cfg = TrainConfig(
            l1_weight=float(field("l1_weight")),
            ista=IstaConfig(**field("ista")),
            **shared,
        )
        train_repr = _read_matrix(path("train_repr"))
        return DdlModel(dictionaries, train_repr, cfg, traces, labels=labels)
    raise ValueError(f"{model_dir}: unknown model kind {kind!r}")

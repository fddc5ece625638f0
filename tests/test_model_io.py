"""Model directory save/load round trips."""

import json
import re

import numpy as np
import pytest

from deepdict.baseline import TrainConfig, train_ddl
from deepdict.data import make_synthetic_clusters
from deepdict.intraclass import DdlicConfig, DdlicModel, train_ddlic
from deepdict.kernels import IstaConfig
from deepdict.model_io import load_model, save_model


def test_ddlic_round_trip_is_exact(tmp_path):
    data = make_synthetic_clusters(3, 5, 8, 4.0, seed=1)
    cfg = DdlicConfig(depth=2, layer_sizes=(6, 4), alphas=(0.01, 0.02),
                      iters_per_layer=3, seed=4)
    model = train_ddlic(data, cfg)
    save_model(model, str(tmp_path / "m"))
    back = load_model(str(tmp_path / "m"))
    assert isinstance(back, DdlicModel)
    for a, b in zip(model.dictionaries, back.dictionaries):
        assert np.array_equal(a, b)
    for a, b in zip(model.layer_reprs, back.layer_reprs):
        assert np.array_equal(a, b)
    assert back.labels.tolist() == model.labels.tolist()
    assert back.config.alphas == cfg.alphas
    assert back.config.seed == cfg.seed
    for a, b in zip(model.traces, back.traces):
        assert np.allclose(a, b, rtol=0, atol=0)


def test_ddl_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(7, 18))
    cfg = TrainConfig(depth=2, layer_sizes=(5, 3), l1_weight=0.3,
                      iters_per_layer=3, seed=1, ista=IstaConfig(max_iters=120))
    model = train_ddl(feats, cfg)
    model.labels = np.arange(18) % 3
    save_model(model, str(tmp_path / "m"))
    back = load_model(str(tmp_path / "m"))
    assert np.array_equal(back.train_repr, model.train_repr)
    assert back.config.l1_weight == 0.3
    assert back.config.ista.max_iters == 120
    assert back.labels.tolist() == model.labels.tolist()


def test_ddl_without_labels_loads_as_none(tmp_path):
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(6, 12))
    model = train_ddl(feats, TrainConfig(depth=1, layer_sizes=(4,), iters_per_layer=2))
    save_model(model, str(tmp_path / "m"))
    assert load_model(str(tmp_path / "m")).labels is None


def test_missing_directory_rejected(tmp_path):
    with pytest.raises((FileNotFoundError, ValueError)):
        load_model(str(tmp_path / "absent"))


def test_foreign_object_rejected(tmp_path):
    with pytest.raises(TypeError, match="cannot serialize"):
        save_model(object(), str(tmp_path / "m"))


def _saved_ddlic(tmp_path):
    data = make_synthetic_clusters(3, 5, 8, 4.0, seed=1)
    cfg = DdlicConfig(depth=2, layer_sizes=(6, 4), alphas=(0.01, 0.02), iters_per_layer=3)
    model_dir = tmp_path / "m"
    save_model(train_ddlic(data, cfg), str(model_dir))
    return model_dir


def test_fewer_traces_than_layers_rejected(tmp_path):
    model_dir = _saved_ddlic(tmp_path)
    meta_path = model_dir / "metadata.json"
    meta = json.loads(meta_path.read_text())
    meta["traces"] = meta["traces"][:1]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="trace per layer"):
        load_model(str(model_dir))


@pytest.mark.parametrize("n_labels", [14, 16])
def test_label_count_other_than_training_columns_rejected(tmp_path, n_labels):
    model_dir = _saved_ddlic(tmp_path)
    np.savetxt(model_dir / "train_labels.txt", np.arange(n_labels) % 3, fmt="%d")
    with pytest.raises(ValueError, match="training labels for 15 training columns"):
        load_model(str(model_dir))


def test_retired_metadata_key_ignored(tmp_path):
    # metadata.json files of older versions hold "stop_rel_tol", which load_model ignores
    model_dir = _saved_ddlic(tmp_path)
    meta_path = model_dir / "metadata.json"
    meta = json.loads(meta_path.read_text())
    meta["stop_rel_tol"] = None
    meta_path.write_text(json.dumps(meta))
    assert load_model(str(model_dir)).config.alphas == (0.01, 0.02)


def test_missing_metadata_key_named(tmp_path):
    model_dir = _saved_ddlic(tmp_path)
    meta_path = model_dir / "metadata.json"
    meta = json.loads(meta_path.read_text())
    del meta["alphas"]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="metadata.json has no key 'alphas'"):
        load_model(str(model_dir))


@pytest.mark.parametrize(
    "name, value", [("layer_repr_02.txt", "nan"), ("dictionary_01.txt", "inf")]
)
def test_non_finite_matrix_rejected(tmp_path, name, value):
    model_dir = _saved_ddlic(tmp_path)
    matrix = model_dir / name
    rows = matrix.read_text().splitlines()
    rows[0] = " ".join([value] + rows[0].split()[1:])
    matrix.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="must be finite"):
        load_model(str(model_dir))


def test_save_refuses_model_changed_after_construction(tmp_path):
    rng = np.random.default_rng(4)
    model = train_ddl(rng.normal(size=(6, 12)), TrainConfig(depth=1, layer_sizes=(4,),
                                                            iters_per_layer=2))
    model.labels = np.arange(9) % 3
    with pytest.raises(ValueError, match="9 training labels for 12 training columns"):
        save_model(model, str(tmp_path / "m"))
    assert not (tmp_path / "m" / "metadata.json").exists()


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("dictionary_01.txt", lambda text: "1 2 3 abc\n" + text),
        ("train_labels.txt", lambda text: "abc\n" + text),
        ("metadata.json", lambda text: text[: len(text) // 2]),  # truncated
    ],
    ids=["dictionary", "labels", "metadata"],
)
def test_unparsable_file_named(tmp_path, name, corrupt):
    model_dir = _saved_ddlic(tmp_path)
    path = model_dir / name
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_model(str(model_dir))

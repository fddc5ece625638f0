"""Model directory save/load round trips."""

import dataclasses
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


def _saved_ddlic(tmp_path, save=save_model):
    data = make_synthetic_clusters(3, 5, 8, 4.0, seed=1)
    cfg = DdlicConfig(depth=2, layer_sizes=(6, 4), alphas=(0.01, 0.02), iters_per_layer=3)
    model_dir = tmp_path / "m"
    save(train_ddlic(data, cfg), str(model_dir))
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
def test_label_count_other_than_training_columns_rejected(tmp_path, save_text_model, n_labels):
    model_dir = _saved_ddlic(tmp_path, save_text_model)
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
def test_non_finite_matrix_rejected(tmp_path, save_text_model, name, value):
    model_dir = _saved_ddlic(tmp_path, save_text_model)
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
def test_unparsable_file_named(tmp_path, save_text_model, name, corrupt):
    model_dir = _saved_ddlic(tmp_path, save_text_model)
    path = model_dir / name
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_model(str(model_dir))


def _trained(kind):
    if kind == "ddlic":
        data = make_synthetic_clusters(3, 5, 8, 4.0, seed=1)
        cfg = DdlicConfig(depth=2, layer_sizes=(6, 4), alphas=(0.01, 0.02), iters_per_layer=3)
        return train_ddlic(data, cfg)
    feats = np.random.default_rng(2).normal(size=(7, 18))
    cfg = TrainConfig(depth=2, layer_sizes=(5, 3), iters_per_layer=3,
                      ista=IstaConfig(max_iters=120))
    return dataclasses.replace(train_ddl(feats, cfg), labels=np.arange(18) % 3)


def _assert_same_model(model, back):
    assert type(back) is type(model)
    assert back.config == model.config
    codes = (lambda m: m.layer_reprs) if isinstance(model, DdlicModel) else (
        lambda m: [m.train_repr])
    for ours, theirs in [(model.dictionaries, back.dictionaries), (codes(model), codes(back)),
                         (model.traces, back.traces), ([model.labels], [back.labels])]:
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["ddlic", "ddl"])
def test_matrices_are_saved_as_npy_and_round_trip_bit_for_bit(tmp_path, kind):
    model = _trained(kind)
    save_model(model, str(tmp_path / "m"))
    codes = ["layer_repr_01", "layer_repr_02"] if kind == "ddlic" else ["train_repr"]
    stems = ["dictionary_01", "dictionary_02", *codes, "train_labels"]
    assert sorted(p.name for p in (tmp_path / "m").iterdir()) == sorted(
        [s + ".npy" for s in stems] + ["metadata.json"])
    for stem in stems:
        array = np.load(tmp_path / "m" / (stem + ".npy"), allow_pickle=False)
        assert (array.dtype, array.ndim) == ((np.int64, 1) if stem == "train_labels"
                                             else (np.float64, 2))
    _assert_same_model(model, load_model(str(tmp_path / "m")))


@pytest.mark.parametrize("kind", ["ddlic", "ddl"])
def test_text_directory_of_earlier_versions_loads_exactly(tmp_path, save_text_model, kind):
    model = _trained(kind)
    save_text_model(model, tmp_path / "m")
    assert not list((tmp_path / "m").glob("*.npy"))
    _assert_same_model(model, load_model(str(tmp_path / "m")))


def test_resave_without_labels_drops_the_old_labels(tmp_path):
    model = _trained("ddlic")
    save_model(model, str(tmp_path / "m"))
    save_model(dataclasses.replace(model, labels=None), str(tmp_path / "m"))
    assert load_model(str(tmp_path / "m")).labels is None


def test_resave_over_a_text_directory_removes_only_model_files(tmp_path, save_text_model):
    model_dir = tmp_path / "m"
    save_text_model(_trained("ddlic"), model_dir)
    keep = ["notes.txt", "dictionary.txt", "train_repr.csv", "report.csv"]
    for name in keep:
        (model_dir / name).write_text("kept\n")
    ddl = _trained("ddl")
    save_model(ddl, str(model_dir))
    names = sorted(p.name for p in model_dir.iterdir())
    assert names == sorted(keep + ["metadata.json", "dictionary_01.npy", "dictionary_02.npy",
                                   "train_repr.npy", "train_labels.npy"])
    _assert_same_model(ddl, load_model(str(model_dir)))


def test_npy_directory_ignores_text_files(tmp_path):
    # dictionary_01.npy makes every matrix .npy: a stray text label file is not read
    model = _trained("ddlic")
    save_model(dataclasses.replace(model, labels=None), str(tmp_path / "m"))
    np.savetxt(tmp_path / "m" / "train_labels.txt", model.labels, fmt="%d")
    assert load_model(str(tmp_path / "m")).labels is None


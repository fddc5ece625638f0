"""End-to-end command-line flows in temp directories."""

import argparse
import json
from dataclasses import replace

import numpy as np
import pytest

from deepdict import harness
from deepdict.cli import _build_parser, _gather_values, main
from deepdict.data import load_labeled_matrix
from deepdict.harness import CONFIG_KEYS
from deepdict.model_io import load_model


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    rc = main(
        [
            "synth", "--classes", "3", "--per-class", "10", "--dim", "8",
            "--separation", "5", "--seed", "1", "--out", str(path),
        ]
    )
    assert rc == 0
    return path


@pytest.fixture()
def model_dir(tmp_path, dataset):
    path = tmp_path / "model"
    rc = main(
        [
            "train", "--data", str(dataset), "--layer-sizes", "6,4",
            "--alphas", "0.001", "--iters", "2", "--out", str(path),
        ]
    )
    assert rc == 0
    return path


@pytest.fixture()
def text_model_dir(model_dir, save_text_model):
    """The trained model rewritten in the text format of earlier versions."""
    save_text_model(load_model(str(model_dir)), model_dir)
    return model_dir


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_unknown_command_exits_nonzero(capsys):
    assert main(["frobnicate"]) != 0


def test_synth_output_is_loadable_and_deterministic(tmp_path, dataset):
    data = load_labeled_matrix(str(dataset))
    assert data.features.shape == (8, 30)
    other = tmp_path / "again.csv"
    main(
        [
            "synth", "--classes", "3", "--per-class", "10", "--dim", "8",
            "--separation", "5", "--seed", "1", "--out", str(other),
        ]
    )
    assert other.read_bytes() == dataset.read_bytes()


def test_train_eval_round_trip(tmp_path, dataset, capsys):
    model_dir = tmp_path / "model"
    rc = main(
        [
            "train", "--data", str(dataset), "--method", "ddlic",
            "--layer-sizes", "6,4", "--alphas", "0.001", "--iters", "3",
            "--seed", "2", "--out", str(model_dir),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(
        [
            "eval", "--model", str(model_dir), "--data", str(dataset),
            "--knn-max", "4", "--out", str(tmp_path / "ev"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "selected k=" in out
    curve = (tmp_path / "ev" / "accuracy_curve.csv").read_text().splitlines()
    assert curve[0] == "k,accuracy"
    assert len(curve) == 5
    # training data scores well on itself
    assert float(curve[1].split(",")[1]) > 0.8


def test_train_ddl_model_keeps_labels_for_eval(tmp_path, dataset, capsys):
    model_dir = tmp_path / "model"
    rc = main(
        [
            "train", "--data", str(dataset), "--method", "ddl",
            "--layer-sizes", "6,4", "--l1-weight", "0.1", "--iters", "3",
            "--out", str(model_dir),
        ]
    )
    assert rc == 0
    rc = main(["eval", "--model", str(model_dir), "--data", str(dataset), "--knn-max", "3"])
    assert rc == 0
    assert "selected k=" in capsys.readouterr().out


def test_experiment_writes_reports(tmp_path, dataset, capsys):
    out = tmp_path / "exp"
    rc = main(
        [
            "experiment", "--data", str(dataset), "--layer-sizes", "6,4",
            "--alphas", "0.001", "--iters", "3", "--h", "5",
            "--replicates", "2", "--knn-max", "4", "--out", str(out),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "mean_accuracy:" in stdout
    report = (out / "report.csv").read_text().splitlines()
    assert len(report) == 3  # header + 2 replicates
    assert (out / "summary.txt").exists()
    assert (out / "resolved_config.txt").exists()


def test_csv_files_end_lines_with_newline_only(tmp_path, dataset, model_dir, capsys):
    # each output directory is nested and missing, so the writer creates it
    out = tmp_path / "new" / "dirs"
    common = ["--data", str(dataset), "--knn-max", "3"]
    fit = ["--layer-sizes", "6,4", "--iters", "2", "--h", "5", "--replicates", "2"]
    assert main(["eval", "--model", str(model_dir), *common, "--out", str(out / "ev")]) == 0
    assert main(["experiment", *common, *fit, "--out", str(out / "exp")]) == 0
    assert main(["grid", *common, *fit, "--alpha-grid", "0,0.01", "--out", str(out / "grid")]) == 0
    capsys.readouterr()
    for path, rows in [
        (out / "ev" / "accuracy_curve.csv", 4),
        (out / "exp" / "report.csv", 3),
        (out / "grid" / "grid.csv", 3),
    ]:
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n") and raw.count(b"\n") == rows


def test_experiment_honors_config_file_with_flag_override(tmp_path, dataset):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data={dataset}\nlayer_sizes=6,4\nalphas=0.001\niters=4\n"
        "h=5\nreplicates=2\nknn_max=4\n"
    )
    out = tmp_path / "exp"
    rc = main(
        ["experiment", "--config", str(cfg), "--iters", "2", "--out", str(out)]
    )
    assert rc == 0
    resolved = (out / "resolved_config.txt").read_text()
    assert "iters=2" in resolved.splitlines()


def test_grid_reports_best_cell(tmp_path, dataset, capsys):
    out = tmp_path / "grid"
    rc = main(
        [
            "grid", "--data", str(dataset), "--layer-sizes", "6,4",
            "--iters", "2", "--h", "5", "--replicates", "2",
            "--knn-max", "3", "--alpha-grid", "0.0001,0.01",
            "--out", str(out),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "best_alphas=" in stdout
    grid_lines = (out / "grid.csv").read_text().splitlines()
    assert grid_lines[0] == "alpha_1,alpha_2,mean_accuracy,std_accuracy,failed"
    assert len(grid_lines) == 3


@pytest.mark.parametrize("mode", ["shared", "full"])
def test_grid_output_is_the_same_with_one_or_two_workers(tmp_path, dataset, capsys, mode):
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"grid-{workers}"
        rc = main(
            [
                "grid", "--data", str(dataset), "--layer-sizes", "6,4",
                "--iters", "2", "--h", "5", "--replicates", "2",
                "--knn-max", "3", "--alpha-grid", "0.0001,0.01",
                "--grid-mode", mode, "--workers", workers, "--out", str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append((stdout, (out / "grid.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1].splitlines()) == (3 if mode == "shared" else 5)


def test_grid_fails_when_every_cell_fails(dataset, capsys):
    # 10 samples per class leave no test remainder after h = 20
    rc = main(
        [
            "grid", "--data", str(dataset), "--layer-sizes", "8,6", "--h", "20",
            "--replicates", "2", "--alpha-grid", "0.001,0.01",
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "best_alphas" not in captured.out
    assert captured.err.startswith("error: every grid cell failed; first replicate error: ")
    assert "ValueError: class 0 has 10 samples; cannot reserve 20" in captured.err
    assert captured.err.count("\n") == 1


def test_experiment_fails_when_every_replicate_fails(tmp_path, dataset, capsys):
    # 10 samples per class leave no test remainder after h = 10
    out = tmp_path / "out"
    rc = main(
        ["experiment", "--data", str(dataset), "--h", "10", "--replicates", "2", "--out", str(out)]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "mean_accuracy" not in captured.out
    assert captured.err.startswith("error: every replicate failed; first replicate error: ")
    assert "ValueError: class 0 has 10 samples; cannot reserve 10" in captured.err
    assert captured.err.count("\n") == 1
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(",1,ValueError: class 0 has 10 samples" in row for row in rows)
    assert "replicates: 2 (2 failed)" in (out / "summary.txt").read_text()


def test_ddl_experiment_with_all_zero_sparse_codes_fails(tmp_path, capsys):
    data = tmp_path / "wide.csv"
    assert main(["synth", "--classes", "3", "--per-class", "12", "--dim", "64",
                 "--separation", "6", "--seed", "0", "--out", str(data)]) == 0
    capsys.readouterr()
    rc = main(["experiment", "--data", str(data), "--method", "ddl", "--layer-sizes", "16,8",
               "--l1-weight", "1e3", "--h", "6", "--replicates", "2", "--knn-max", "5"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: every replicate failed; first replicate error: ValueError: layer 2: every "
        "sparse code is zero at l1_weight=1000.0, so the refreshed dictionary is zero\n"
    )


def test_experiment_checks_the_neighbor_range_before_training(dataset, capsys, monkeypatch):
    fitted = []
    real = harness.fit_model

    def recording_fit(cfg, train, seed):
        fitted.append(seed)
        return real(cfg, train, seed)

    monkeypatch.setattr(harness, "fit_model", recording_fit)
    # 3 classes with 5 training samples each: 15 < k_min
    rc = main(["experiment", "--data", str(dataset), "--layer-sizes", "6,4", "--h", "5",
               "--replicates", "2", "--knn-min", "40", "--knn-max", "50"])
    assert rc == 1
    assert fitted == []
    err = capsys.readouterr().err
    assert err == ("error: every replicate failed; first replicate error: "
                   "ValueError: no valid neighbor size: training set is too small\n")


def test_experiment_succeeds_when_some_replicate_runs(dataset, capsys, monkeypatch):
    real = harness._run_replicate

    def fail_first(cfg, data, r):
        result = real(cfg, data, r)
        return replace(result, failed=True, error="ValueError: stand-in") if r == 1 else result

    monkeypatch.setattr(harness, "_run_replicate", fail_first)
    rc = main(["experiment", "--data", str(dataset), "--layer-sizes", "6,4", "--iters", "2",
               "--h", "5", "--replicates", "2"])
    assert rc == 0
    assert "replicates: 2 (1 failed)" in capsys.readouterr().out


def test_export_writes_embeddings(tmp_path, dataset):
    model_dir = tmp_path / "model"
    main(
        [
            "train", "--data", str(dataset), "--layer-sizes", "6,4",
            "--alphas", "0.001", "--iters", "2", "--out", str(model_dir),
        ]
    )
    emb = tmp_path / "emb"
    rc = main(["export", "--model", str(model_dir), "--data", str(dataset), "--out", str(emb)])
    assert rc == 0
    mat = np.loadtxt(emb / "embedding_layer_02.csv", delimiter=",")
    assert mat.shape == (30, 4)


def test_missing_data_file_fails_with_diagnostic(tmp_path, capsys):
    rc = main(
        ["experiment", "--data", str(tmp_path / "absent.csv"), "--h", "3"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_eval_requires_data_flag(tmp_path, dataset, capsys):
    model_dir = tmp_path / "model"
    main(
        [
            "train", "--data", str(dataset), "--layer-sizes", "6,4",
            "--alphas", "0.001", "--iters", "2", "--out", str(model_dir),
        ]
    )
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_dir)])
    assert rc == 1
    assert "--data" in capsys.readouterr().err


def test_bad_config_key_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("layersizes=6,4\n")
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


def test_eval_bad_knn_setting_names_its_key(tmp_path, dataset, capsys):
    model_dir = tmp_path / "model"
    main(
        [
            "train", "--data", str(dataset), "--layer-sizes", "6,4",
            "--alphas", "0.001", "--iters", "2", "--out", str(model_dir),
        ]
    )
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_dir), "--data", str(dataset), "--knn-max", "abc"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "knn_max" in err


def test_eval_model_without_labels_fails_cleanly(model_dir, dataset, capsys):
    (model_dir / "train_labels.npy").unlink()
    rc = main(["eval", "--model", str(model_dir), "--data", str(dataset)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: model has no stored training labels; cannot classify\n"


def test_eval_model_missing_metadata_key_names_it(tmp_path, dataset, capsys):
    model_dir = tmp_path / "model"
    main(
        [
            "train", "--data", str(dataset), "--layer-sizes", "6,4",
            "--alphas", "0.001", "--iters", "2", "--out", str(model_dir),
        ]
    )
    meta_path = model_dir / "metadata.json"
    meta = json.loads(meta_path.read_text())
    del meta["traces"]
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_dir), "--data", str(dataset)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "'traces'" in err and "metadata.json" in err and str(model_dir) in err


@pytest.mark.parametrize("name", ["dictionary_01.txt", "train_labels.txt", "metadata.json"])
def test_eval_unparsable_model_file_names_it(text_model_dir, dataset, capsys, name):
    model_dir = text_model_dir
    path = model_dir / name
    path.write_text("abc\n" + path.read_text())
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_dir), "--data", str(dataset)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["train_labels.txt", "dictionary_01.txt", "layer_repr_02.txt"])
@pytest.mark.parametrize("content", ["", "\n \n"], ids=["empty", "blank"])
def test_eval_empty_model_file_names_it(text_model_dir, dataset, capsys, recwarn, name, content):
    model_dir = text_model_dir
    path = model_dir / name
    path.write_text(content)
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_dir), "--data", str(dataset)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: file holds no values\n"
    assert not recwarn.list


def test_eval_model_with_non_finite_codes_fails_cleanly(text_model_dir, dataset, capsys):
    model_dir = text_model_dir
    codes = model_dir / "layer_repr_02.txt"
    _, rest = codes.read_text().split(" ", 1)
    codes.write_text("nan " + rest)
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_dir), "--data", str(dataset)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "finite" in err


def _rewrite_npy(path, change):
    np.save(path, change(np.load(path)), allow_pickle=True)


def _with_nan(matrix):
    matrix[0, 0] = np.nan
    return matrix


def _write_npz(path):
    with open(path, "wb") as fh:
        np.savez(fh, a=np.ones(2))


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        ("dictionary_01.npy", lambda p: p.write_bytes(p.read_bytes()[:-8]), "Failed to read all"),
        ("dictionary_01.npy", lambda p: p.write_bytes(p.read_bytes()[:20]), "EOF: reading array"),
        ("train_labels.npy", lambda p: p.write_bytes(b""), "file holds no values"),
        ("dictionary_01.npy", _write_npz, "not a .npy file"),
        ("dictionary_01.npy", lambda p: p.write_text("1 2\n3 4\n"), "not a .npy file"),
        ("layer_repr_01.npy", lambda p: _rewrite_npy(p, lambda a: a.astype(object)),
         "Object arrays cannot be loaded"),
        ("dictionary_02.npy", lambda p: _rewrite_npy(p, lambda a: a.astype(np.float32)),
         "holds a 2-D float32 array; expected 2-D float64"),
        ("layer_repr_02.npy", lambda p: _rewrite_npy(p, lambda a: a.astype(complex)),
         "holds a 2-D complex128 array; expected 2-D float64"),
        ("layer_repr_02.npy", lambda p: _rewrite_npy(p, np.ravel),
         "holds a 1-D float64 array; expected 2-D float64"),
        ("train_labels.npy", lambda p: _rewrite_npy(p, lambda a: a[:, None]),
         "holds a 2-D int64 array; expected 1-D int64"),
        ("layer_repr_02.npy", lambda p: _rewrite_npy(p, _with_nan), "values must be finite"),
    ],
    ids=["truncated-data", "truncated-header", "empty", "npz", "text", "object", "float32",
         "complex", "1-D-matrix", "2-D-labels", "nan"],
)
def test_eval_corrupt_npy_model_file_names_it(model_dir, dataset, capsys, name, corrupt, message):
    path = model_dir / name
    corrupt(path)
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_dir), "--data", str(dataset)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--alphas", "nan,nan"], "alphas"),
        (["--alphas", "0.001,inf"], "alphas"),
        (["--method", "ddl", "--l1-weight", "nan"], "l1_weight"),
    ],
)
def test_experiment_rejects_non_finite_settings(tmp_path, dataset, capsys, flags, key):
    out = tmp_path / "out"
    rc = main(
        ["experiment", "--data", str(dataset), "--layer-sizes", "6,4", "--h", "5",
         "--replicates", "1", "--iters", "2", "--out", str(out)] + flags
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert key in err and "finite" in err
    assert not out.exists()


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = _build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# What each subcommand needs besides its config-key flags; none of it is a config key.
REQUIRED = {
    "train": ["--out", "m"],
    "eval": ["--model", "m"],
    "experiment": [],
    "grid": [],
    "export": ["--model", "m", "--out", "e"],
}


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_each_flag_reaches_its_config_key(command):
    parser = _subcommands()[command]
    actions = {flag: action for action in parser._actions for flag in action.option_strings}
    flagged = [key for key, (_, _, help_text) in CONFIG_KEYS.items() if help_text is not None]
    checked = set()
    for key in flagged:
        action = actions.get("--" + key.replace("_", "-"))
        if action is None:
            continue
        if action.nargs == 0:  # a switch
            argv, value = [action.option_strings[0]], "true"
        else:
            value = action.choices[-1] if action.choices else "7"
            argv = [action.option_strings[0], value]
        args = parser.parse_args(REQUIRED[command] + argv)
        assert _gather_values(args) == {key: value}, key
        checked.add(key)
    assert {"data", "format", "labels", "normalize"} <= checked


def test_grid_flags_are_every_config_key_but_synth_and_out():
    flags = {flag for action in _subcommands()["grid"]._actions for flag in action.option_strings}
    keys = {key for key in CONFIG_KEYS if not key.startswith("synth_")} - {"out"}
    assert flags - {"-h", "--help", "--config", "--out"} == {
        "--" + key.replace("_", "-") for key in keys
    }


@pytest.mark.parametrize(
    "command, flags, key, expected",
    [
        ("train", ["--layer-sizes", "6,,4"], "layer_sizes", "integers"),
        ("train", ["--layer-sizes", "6,4,"], "layer_sizes", "integers"),
        ("train", ["--layer-sizes", "6,4", "--alphas", "1e-3,,1e-2"], "alphas", "numbers"),
        ("grid", ["--layer-sizes", "6,4", "--alpha-grid", "1e-3,,1e-2"], "alpha_grid", "numbers"),
    ],
)
def test_empty_list_item_flag_fails_naming_its_key(
    tmp_path, dataset, capsys, command, flags, key, expected
):
    out = tmp_path / "out"
    common = ["--data", str(dataset), "--iters", "2", "--out", str(out)]
    if command == "grid":
        common += ["--h", "5", "--replicates", "1"]
    capsys.readouterr()
    assert main([command] + common + flags) == 1
    value = flags[-1]
    assert capsys.readouterr().err == (
        f"error: config key {key!r}: expected comma-separated {expected}, got {value!r}\n"
    )
    assert not out.exists()

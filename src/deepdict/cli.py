"""Command-line front end.

Subcommands: ``synth`` (generate clustered data), ``train`` (fit one model
on a whole file), ``eval`` (score a saved model on a test file),
``experiment`` (repeated random splits with aggregation), ``grid`` (scan
the compactness weight), ``export`` (dump per-layer embeddings).

Settings come from ``key=value`` config files, command-line flags, or both;
flags win. All failures exit nonzero with a single ``error: ...`` line.
"""

from __future__ import annotations

import argparse
import sys

from .classify import evaluate_accuracy
from .data import make_synthetic_clusters, save_labeled_matrix
from .harness import (
    _BOOL,
    CONFIG_KEYS,
    _aggregate_lines,
    _fmt,
    _require_a_replicate,
    _write_csv,
    build_experiment_config,
    code_test,
    export_embeddings,
    fit_model,
    grid_search_alpha,
    load_experiment_data,
    parse_config_file,
    run_experiment,
)
from .model_io import load_model, save_model


def _gather_values(args: argparse.Namespace) -> dict[str, str]:
    """Config-file values overlaid with any flags the user supplied."""
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key in CONFIG_KEYS:  # a flag's dest (--layer-sizes: layer_sizes) is its key
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _load_model_and_data(args: argparse.Namespace):
    """Config from the data (and KNN) flags, the saved model, and the dataset."""
    if args.data is None:
        raise ValueError("--data is required")
    cfg = build_experiment_config(_gather_values(args))
    return cfg, load_model(args.model), load_experiment_data(cfg)


# The config keys each command takes as flags, in the order its help lists them.
_DATA_KEYS = ("data", "format", "labels", "normalize")
_METHOD_KEYS = ("method", "depth", "layer_sizes", "alphas", "l1_weight", "iters", "init", "seed")
_KNN_KEYS = ("knn_min", "knn_max", "knn_selection")
_EXPERIMENT_KEYS = _DATA_KEYS + _METHOD_KEYS + _KNN_KEYS + ("h", "replicates", "workers")


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value settings file; flags override it")


def _add_flags(p: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    """One flag per config key (--layer-sizes sets layer_sizes), with its value as text."""
    for key in keys:
        _, kind, help_text = CONFIG_KEYS[key]
        flag = "--" + key.replace("_", "-")
        if kind is _BOOL:
            p.add_argument(flag, action="store_const", const="true", help=help_text)
        else:
            p.add_argument(flag, choices=kind.choices, help=help_text)


def _cmd_synth(args: argparse.Namespace) -> int:
    data = make_synthetic_clusters(
        args.classes, args.per_class, args.dim, args.separation, args.seed
    )
    save_labeled_matrix(data, args.out)
    print(
        f"wrote {data.num_samples} samples"
        f" ({data.num_classes} classes, dim {data.feature_dim}) to {args.out}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = build_experiment_config(_gather_values(args))
    data = load_experiment_data(cfg)
    model = fit_model(cfg, data, cfg.seed)
    save_model(model, args.model_dir)
    print(f"saved {cfg.method} model ({data.num_samples} samples) to {args.model_dir}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg, model, data = _load_model_and_data(args)
    if model.labels is None:
        raise ValueError("model has no stored training labels; cannot classify")
    test_codes = code_test(model, data.features)
    report = evaluate_accuracy(
        model.train_repr, model.labels, test_codes, data.original_labels, cfg.knn
    )
    for k, acc in zip(report.ks, report.accuracies):
        print(f"k={k} accuracy={_fmt(acc)}")
    print(f"selected k={report.selected_k} accuracy={report.selected_accuracy!r}")
    if args.curve_dir:
        curve = ([k, _fmt(acc)] for k, acc in zip(report.ks, report.accuracies))
        path = _write_csv(args.curve_dir, "accuracy_curve.csv", ["k", "accuracy"], curve)
        print(f"curve written to {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = build_experiment_config(_gather_values(args))
    report = run_experiment(cfg)  # writes the report files, failed replicates included
    _require_a_replicate([report], "replicate")
    print(f"method: {report.method}")
    print(*_aggregate_lines(report), sep="\n")
    if cfg.out_dir is not None:
        print(f"report written to {cfg.out_dir}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    cfg = build_experiment_config(_gather_values(args))
    best, rows = grid_search_alpha(cfg)
    for row in rows:
        alphas = ",".join(map(_fmt, row.alphas))
        print(
            f"alphas={alphas} mean_accuracy={row.mean_accuracy!r}"
            f" std_accuracy={row.std_accuracy!r} failed={row.n_failed}"
        )
    print("best_alphas=" + ",".join(map(_fmt, best)))
    if cfg.out_dir is not None:
        header = [f"alpha_{i}" for i in range(1, len(cfg.layer_sizes) + 1)]
        header += ["mean_accuracy", "std_accuracy", "failed"]
        table = (
            [*map(_fmt, row.alphas), _fmt(row.mean_accuracy), _fmt(row.std_accuracy), row.n_failed]
            for row in rows
        )
        path = _write_csv(cfg.out_dir, "grid.csv", header, table)
        print(f"grid written to {path}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    _, model, data = _load_model_and_data(args)
    paths = export_embeddings(model, data, args.export_dir)
    print(f"wrote {len(paths)} files to {args.export_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepdict",
        description="Deep dictionary learning: train, evaluate, and run experiments.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic clustered dataset")
    p.add_argument("--classes", type=int, required=True, help="number of clusters")
    p.add_argument("--per-class", type=int, required=True, help="samples per cluster")
    p.add_argument("--dim", type=int, required=True, help="feature dimension")
    p.add_argument("--separation", type=float, default=6.0,
                   help="smallest distance between cluster centers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output data file")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("train", help="train one model on a whole data file")
    _add_config_flag(p)
    _add_flags(p, _DATA_KEYS + _METHOD_KEYS)
    # Where train, eval and export write is not the config key ``out``.
    p.add_argument("--out", dest="model_dir", required=True, help="model directory to create")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="score a saved model on a test file")
    p.add_argument("--model", required=True, help="model directory")
    _add_flags(p, _DATA_KEYS + _KNN_KEYS)
    p.add_argument("--out", dest="curve_dir", help="directory for the accuracy curve CSV")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("experiment", help="repeated random splits with aggregation")
    _add_config_flag(p)
    _add_flags(p, _EXPERIMENT_KEYS)
    p.add_argument("--out", help="directory for report.csv and summary.txt")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("grid", help="scan compactness weights, report the best")
    _add_config_flag(p)
    _add_flags(p, _EXPERIMENT_KEYS + ("alpha_grid", "grid_mode"))
    p.add_argument("--out", help="directory for grid.csv")
    p.set_defaults(handler=_cmd_grid)

    p = sub.add_parser("export", help="dump per-layer embeddings of training data")
    p.add_argument("--model", required=True, help="model directory")
    _add_flags(p, _DATA_KEYS)
    p.add_argument("--out", dest="export_dir", required=True, help="output directory")
    p.set_defaults(handler=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return 2
    try:
        return handler(args)
    except Exception as exc:  # noqa: BLE001 - single diagnostic line, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands map one-to-one onto the library operations: ``gen-data``,
``train``, ``attribute``, ``ax-sweep``, ``gap-stats``, ``gax`` and
``toy-sweep``; only ``gen-data`` and ``train`` draw from a ``--seed``.
Flag defaults come from the fields of DatasetSpec, TrainConfig, GaxConfig.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import ax as ax_mod
from . import gax as gax_mod
from . import toy as toy_mod
from .attribution import METHODS, attribute, normalize, parse_method
from .data import SPLITS, DatasetSpec, gen_data, ingest_images, load_dataset
from .formats import export_heatmap, format_value, write_lines
from .gax import GaxConfig
from .models import MiniConvNet, predict_graph
from .training import TrainConfig, train


def _image_shape(text: str) -> tuple[int, int, int]:
    """argparse type: C,H,W integers >= 1, split by ',' or 'x'."""
    parts = text.replace("x", ",").split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected C,H,W, got {text!r}")
    dims = tuple(int(p) for p in parts)
    if min(dims) < 1:
        raise argparse.ArgumentTypeError(
            f"expected C,H,W entries >= 1, got {text!r}")
    return dims


_image_shape.__name__ = "C,H,W"     # argparse: "invalid C,H,W value: '3,a,8'"


def _csv_list(check):
    """argparse type: a comma-separated list whose entries pass ``check``."""
    def parse(text: str) -> list[str]:
        items = [part.strip() for part in text.split(",") if part.strip()]
        if not items:
            raise argparse.ArgumentTypeError("expected at least one entry")
        try:
            for item in items:
                check(item)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return items
    return parse


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return int(text)


def _check_out_dirs(args, *dests: str) -> None:
    """Fail before any work when an output file flag's path is a directory
    or its parent is not an existing directory."""
    for dest in dests:
        path = getattr(args, dest)
        if path is None:
            continue
        if Path(path).is_dir():
            raise ValueError(f"--{dest} {path}: is a directory")
        if not Path(path).parent.is_dir():
            raise ValueError(f"--{dest} {path}: {Path(path).parent} is not "
                             "a directory")


def _check_out_tree(out: str, tree) -> None:
    """Fail before any work when ``--out out`` needs the directory ``tree``
    made under a file: the nearest existing one of ``tree`` and its parents
    must be a directory."""
    tree = Path(tree)
    existing = next(p for p in (tree, *tree.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} is not a directory")


def _load_split(data_dir: str, split: str | None, model):
    """The split ``model`` explains; each label must be one of its classes."""
    root = Path(data_dir)
    if (root / "manifest.txt").exists():
        split = split or "test"
        loaded = getattr(load_dataset(root, splits=(split,)), split)
    elif split is not None:
        raise ValueError(f"--split {split}: {root} has no manifest.txt; a "
                         "raw class directory is a single split")
    else:
        loaded = ingest_images(root, model.input_shape)
    top = loaded.y.max(initial=0)
    if top >= model.num_classes:
        raise ValueError(f"--data {data_dir}: label {top} is out of range "
                         f"for a model of {model.num_classes} classes")
    return loaded


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaxkit",
        description="Confidence-optimization scoring and generative heatmaps.")
    sub = parser.add_subparsers(dest="command", required=True)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--model", required=True)
    inputs.add_argument("--data", required=True)
    inputs.add_argument("--split", default=None, choices=SPLITS,
                        help="split of a manifest dataset (default: test)")

    p = sub.add_parser("gen-data", help="generate a synthetic blob dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=DatasetSpec.class_count)
    p.add_argument("--train", type=int, default=DatasetSpec.train)
    p.add_argument("--val", type=int, default=DatasetSpec.val)
    p.add_argument("--test", type=int, default=DatasetSpec.test)
    p.add_argument("--shape", type=_image_shape,
                   default=DatasetSpec.image_shape, help="image shape C,H,W")
    p.add_argument("--seed", type=int, default=DatasetSpec.seed)

    p = sub.add_parser("train", help="train the small conv net on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="weight file to write")
    p.add_argument("--target-val-acc", type=float,
                   default=TrainConfig.target_val_accuracy)
    p.add_argument("--max-iterations", type=int,
                   default=TrainConfig.max_iterations)
    p.add_argument("--min-iterations", type=int,
                   default=TrainConfig.min_iterations)
    p.add_argument("--val-every", type=int, default=TrainConfig.val_every)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)

    p = sub.add_parser("attribute", parents=[inputs],
                       help="export one heatmap for one sample")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--method", default="saliency",
                   help=f"one of {', '.join(METHODS)}")
    p.add_argument("--target", type=int, default=None,
                   help="class index (defaults to the prediction)")
    p.add_argument("--abs", action="store_true",
                   help="absolute-value visualization variant")
    p.add_argument("--out", required=True, help="output stem (no extension)")

    p = sub.add_parser("ax-sweep", parents=[inputs],
                       help="compute CO scores over a split")
    p.add_argument("--methods", type=_csv_list(parse_method),
                   default=list(METHODS))
    p.add_argument("--variants", type=_csv_list(ax_mod.check_variant),
                   default=list(ax_mod.VARIANTS))
    p.add_argument("--out", required=True, help="scores CSV path")

    p = sub.add_parser("gap-stats", help="gap statistics from a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--method", default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--hist", default=None, help="histogram CSV to write")
    p.add_argument("--bins", type=_positive_int, default=40)
    p.add_argument("--out", default=None, help="stats text file to write")

    p = sub.add_parser("gax", parents=[inputs],
                       help="optimize confidence-maximizing heatmaps")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--target-co", type=float, default=GaxConfig.target_co)
    p.add_argument("--lr", type=float, default=GaxConfig.learning_rate)
    p.add_argument("--max-iterations", type=int,
                   default=GaxConfig.max_iterations)
    p.add_argument("--similarity-factor", type=float,
                   default=GaxConfig.similarity_factor)
    p.add_argument("--bias", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="trainable bias; defaults on when the split is "
                        "mostly dark (many zero pixels)")
    p.add_argument("--snapshot-every", type=int,
                   default=GaxConfig.snapshot_every)
    p.add_argument("--first-n", type=int, default=None,
                   help="optimize only the first N correct samples")

    p = sub.add_parser("toy-sweep", help="closed-form rotation sweep CSV")
    p.add_argument("--a1", type=float, default=0.95)
    p.add_argument("--a2", type=float, default=0.05)
    p.add_argument("--keta", type=float, default=1.2)
    p.add_argument("--out", required=True, help="sweep CSV path")
    return parser


def _cmd_gen_data(args) -> int:
    _check_out_tree(args.out, args.out)
    spec = DatasetSpec(class_count=args.classes, train=args.train,
                       val=args.val, test=args.test,
                       image_shape=tuple(args.shape), seed=args.seed)
    manifest = gen_data(spec, args.out)
    print(f"wrote dataset under {args.out} (manifest: {manifest})")
    return 0


def _cmd_train(args) -> int:
    _check_out_dirs(args, "out")
    cfg = TrainConfig(target_val_accuracy=args.target_val_acc,
                      max_iterations=args.max_iterations,
                      min_iterations=args.min_iterations,
                      val_every=args.val_every, batch_size=args.batch_size,
                      learning_rate=args.lr, seed=args.seed)
    ds = load_dataset(args.data)
    model = MiniConvNet(input_shape=ds.image_shape,
                        num_classes=ds.class_count, seed=cfg.seed)
    result = train(model, ds, cfg)
    model.save(args.out)
    m = result.metrics
    print(f"trained {result.iterations_run} iterations "
          f"(stop: {result.stop_reason}); val_acc={result.val_accuracy:.4f} "
          f"accuracy={m.accuracy:.4f} precision={m.precision:.4f} "
          f"recall={m.recall:.4f}; weights: {args.out}")
    return 0


def _cmd_attribute(args) -> int:
    _check_out_tree(args.out, Path(args.out).parent)
    model = MiniConvNet.load(args.model)
    split = _load_split(args.data, args.split, model)
    if not 0 <= args.index < len(split):
        raise ValueError(f"--index {args.index} out of range for a split "
                         f"of {len(split)} samples")
    pred, fp = predict_graph(model, split.images(args.index))
    target = pred if args.target is None else args.target
    heat = normalize(attribute(model, fp, target, args.method,
                               abs_values=args.abs))
    paths = export_heatmap(heat, args.out)
    print(f"sample {split.ids[args.index]}: method={args.method} "
          f"target={heat.target_class}; wrote {paths['raw']}")
    return 0


def _cmd_ax_sweep(args) -> int:
    _check_out_dirs(args, "out")
    model = MiniConvNet.load(args.model)
    split = _load_split(args.data, args.split, model)
    records, _ = ax_mod.ax_sweep(model, split, args.methods, args.variants)
    ax_mod.write_scores_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_gap_stats(args) -> int:
    _check_out_dirs(args, "out", "hist")
    records = ax_mod.read_scores_csv(args.scores)
    stats = ax_mod.gap_stats(records, method=args.method,
                             variant=args.variant)
    values = {}
    for group_name, summary in (("correct", stats.correct),
                                ("wrong", stats.wrong)):
        fields = {"count": 0} if summary is None else asdict(summary)
        values.update((f"{group_name}_{k}", v) for k, v in fields.items())
    if stats.separation is not None:
        values.update(separation=stats.separation, auroc=stats.auroc)
    lines = [f"{k}={format_value(v)}" for k, v in values.items()]
    if args.out:
        write_lines(args.out, lines)
    print(*lines, sep="\n")
    if args.hist:
        ax_mod.write_histogram_csv(
            ax_mod.select_records(records, args.method, args.variant),
            args.hist, bins=args.bins)
    return 0


def _cmd_gax(args) -> int:
    out = Path(args.out)
    if out.exists() and not (out.is_dir() and not any(out.iterdir())):
        raise ValueError(f"--out {args.out}: exists and is not an empty "
                         "directory")
    _check_out_tree(args.out, out)
    model = MiniConvNet.load(args.model)
    split = _load_split(args.data, args.split, model)
    use_bias = args.bias
    if use_bias is None:
        # dark datasets stall without the bias: w * 0 stays 0 under tanh
        zero_fraction = (float((split.pixels == 0).mean()) if len(split)
                         else 0.0)
        use_bias = zero_fraction > 0.3
    cfg = GaxConfig(target_co=args.target_co,
                    max_iterations=args.max_iterations,
                    learning_rate=args.lr,
                    similarity_factor=args.similarity_factor,
                    use_bias=use_bias, snapshot_every=args.snapshot_every)
    traces, _ = gax_mod.gax_sweep(model, split, cfg, out_dir=args.out,
                                  limit=args.first_n)
    converged = sum(t.converged for t in traces)
    print(f"{converged}/{len(traces)} runs reached co >= {cfg.target_co}; "
          f"outputs under {out}")
    return 0


def _cmd_toy_sweep(args) -> int:
    _check_out_dirs(args, "out")
    rows = toy_mod.rotation_sweep(args.a1, args.a2, args.keta)
    toy_mod.write_sweep_csv(rows, args.out)
    print(f"wrote {rows.shape[0]} rows to {args.out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "attribute": _cmd_attribute,
    "ax-sweep": _cmd_ax_sweep,
    "gap-stats": _cmd_gap_stats,
    "gax": _cmd_gax,
    "toy-sweep": _cmd_toy_sweep,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

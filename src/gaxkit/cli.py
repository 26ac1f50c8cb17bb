"""Command-line interface.

Subcommands map one-to-one onto the library operations: ``gen-data``,
``train``, ``attribute``, ``ax-sweep``, ``gap-stats``, ``gax`` and
``toy-sweep``.  A flat ``key=value`` config file can seed any flag
(``--config``); explicit command-line flags win over config values, which
win over built-in defaults.  Every run is reproducible from its seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import ax as ax_mod
from . import gax as gax_mod
from . import toy as toy_mod
from .attribution import METHODS, attribute, normalize
from .data import DatasetSpec, gen_data, ingest_images, load_dataset
from .formats import export_heatmap
from .gax import GaxConfig
from .models import MiniConvNet, predict
from .optim import Adam
from .training import StopRule, train


def _parse_config_value(raw: str):
    text = raw.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def load_config(path) -> dict:
    """Flat key=value file; '#' starts a comment line."""
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {line!r}")
        key, raw = line.split("=", maxsplit=1)
        values[key.strip().replace("-", "_")] = _parse_config_value(raw)
    return values


def _shape(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace("x", ",").split(","))


def _csv_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _load_split(data_dir: str, split: str, resize=None, stack=False):
    root = Path(data_dir)
    if (root / "manifest.txt").exists():
        ds = load_dataset(root)
        return getattr(ds, split)
    if resize is None:
        raise ValueError(
            f"{root} has no manifest.txt; pass --resize to ingest raw "
            "class directories")
    return ingest_images(root, resize, grayscale_stack=stack)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaxkit",
        description="Confidence-optimization scoring and generative heatmaps.")
    parser.add_argument("--config", help="key=value config file seeding flags")
    sub = parser.add_subparsers(dest="command", required=True)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--model", required=True)
    inputs.add_argument("--data", required=True)
    inputs.add_argument("--split", default="test")
    inputs.add_argument("--resize", type=_shape, default=None,
                        help="H,W for ingesting raw class directories")
    inputs.add_argument("--stack", action="store_true",
                        help="stack grayscale images to 3 channels on ingest")

    p = sub.add_parser("gen-data", help="generate a synthetic blob dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--train", type=int, default=400)
    p.add_argument("--val", type=int, default=100)
    p.add_argument("--test", type=int, default=250)
    p.add_argument("--shape", type=_shape, default=(3, 32, 32),
                   help="image shape C,H,W")

    p = sub.add_parser("train", help="train the small conv net on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="weight file to write")
    p.add_argument("--target-val-acc", type=float, default=0.99)
    p.add_argument("--max-iterations", type=int, default=20000)
    p.add_argument("--min-iterations", type=int, default=0)
    p.add_argument("--val-every", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--beta1", type=float, default=0.5)
    p.add_argument("--beta2", type=float, default=0.999)

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
    p.add_argument("--methods", type=_csv_list, default=list(METHODS))
    p.add_argument("--variants", type=_csv_list, default=["sum", "mul"])
    p.add_argument("--out", required=True, help="scores CSV path")

    p = sub.add_parser("gap-stats", help="gap statistics from a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--method", default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--hist", default=None, help="histogram CSV to write")
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--out", default=None, help="stats text file to write")

    p = sub.add_parser("gax", parents=[inputs],
                       help="optimize confidence-maximizing heatmaps")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--target-co", type=float, default=48.0)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.999)
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--similarity-factor", type=float, default=100.0)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--bias", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="trainable bias; defaults on when the split is "
                        "mostly dark (many zero pixels)")
    p.add_argument("--snapshot-every", type=int, default=10)
    p.add_argument("--first-n", type=int, default=None,
                   help="optimize only the first N correct samples")

    p = sub.add_parser("toy-sweep", help="closed-form rotation sweep CSV")
    p.add_argument("--a1", type=float, default=0.95)
    p.add_argument("--a2", type=float, default=0.05)
    p.add_argument("--keta", type=float, default=1.2)
    p.add_argument("--theta-min", type=float, default=-np.pi)
    p.add_argument("--theta-max", type=float, default=np.pi)
    p.add_argument("--points", type=int, default=97)
    p.add_argument("--out", required=True, help="sweep CSV path")

    for p in sub.choices.values():      # every subcommand takes a seed
        p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_gen_data(args) -> int:
    spec = DatasetSpec(class_count=args.classes, train=args.train,
                       val=args.val, test=args.test,
                       image_shape=tuple(args.shape), seed=args.seed)
    manifest = gen_data(spec, args.out)
    print(f"wrote dataset under {args.out} (manifest: {manifest})")
    return 0


def _cmd_train(args) -> int:
    ds = load_dataset(args.data)
    model = MiniConvNet(input_shape=ds.image_shape,
                        num_classes=ds.class_count, seed=args.seed)
    stop = StopRule(target_val_accuracy=args.target_val_acc,
                    max_iterations=args.max_iterations,
                    min_iterations=args.min_iterations,
                    val_every=args.val_every)
    opt = Adam(args.lr, args.beta1, args.beta2)
    result = train(model, ds, stop, optimizer=opt,
                   batch_size=args.batch_size, seed=args.seed)
    model.save(args.out)
    m = result.metrics
    print(f"trained {result.iterations_run} iterations "
          f"(stop: {result.stop_reason}); val_acc={result.val_accuracy:.4f} "
          f"accuracy={m.accuracy:.4f} precision={m.precision:.4f} "
          f"recall={m.recall:.4f}; weights: {args.out}")
    return 0


def _cmd_attribute(args) -> int:
    model = MiniConvNet.load(args.model)
    split = _load_split(args.data, args.split, args.resize, args.stack)
    x = split.x[args.index]
    target = predict(model, x)[0] if args.target is None else args.target
    heat = normalize(attribute(model, x, target, args.method,
                               abs_values=args.abs))
    paths = export_heatmap(heat, args.out)
    print(f"sample {split.ids[args.index]}: method={args.method} "
          f"target={heat.target_class}; wrote {paths['raw']}")
    return 0


def _cmd_ax_sweep(args) -> int:
    model = MiniConvNet.load(args.model)
    split = _load_split(args.data, args.split, args.resize, args.stack)
    records, errors = ax_mod.ax_sweep(model, split, args.methods,
                                      args.variants)
    ax_mod.write_scores_csv(records, args.out)
    if errors:
        log = Path(args.out).with_suffix(".errors.log")
        log.write_text("\n".join(f"{sid}: {msg}" for sid, msg in errors) + "\n",
                       encoding="utf-8")
        print(f"{len(errors)} sample failures logged to {log}",
              file=sys.stderr)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_gap_stats(args) -> int:
    records = ax_mod.read_scores_csv(args.scores)
    stats = ax_mod.gap_stats(records, method=args.method,
                             variant=args.variant)
    lines = []
    for group_name, summary in (("correct", stats.correct),
                                ("wrong", stats.wrong)):
        if summary is None:
            lines.append(f"{group_name}_count=0")
            continue
        lines.append(f"{group_name}_count={summary.count}")
        for field_name in ("min", "q1", "median", "q3", "max"):
            value = getattr(summary, field_name)
            lines.append(f"{group_name}_{field_name}={value:.9g}")
    if stats.separation is not None:
        lines.append(f"separation={stats.separation:.9g}")
        lines.append(f"auroc={stats.auroc:.9g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    if args.hist:
        ax_mod.write_histogram_csv(
            ax_mod.select_records(records, args.method, args.variant),
            args.hist, bins=args.bins)
    return 0


def _cmd_gax(args) -> int:
    model = MiniConvNet.load(args.model)
    split = _load_split(args.data, args.split, args.resize, args.stack)
    use_bias = args.bias
    if use_bias is None:
        # dark datasets stall without the bias: w * 0 stays 0 under tanh
        zero_fraction = float((split.x == 0.0).mean()) if len(split) else 0.0
        use_bias = zero_fraction > 0.3
    cfg = GaxConfig(target_co=args.target_co,
                    max_iterations=args.max_iterations,
                    learning_rate=args.lr, beta1=args.beta1, beta2=args.beta2,
                    similarity_factor=args.similarity_factor,
                    epsilon=args.epsilon, use_bias=use_bias,
                    snapshot_every=args.snapshot_every)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    traces, errors = gax_mod.gax_sweep(model, split, cfg, out_dir=out,
                                       limit=args.first_n)
    trace_paths = {}
    for trace in traces:
        rel = f"{trace.sample_id}.trace.csv"
        gax_mod.write_trace_csv(trace, out / rel)
        trace_paths[trace.sample_id] = rel       # run-relative, relocatable
    gax_mod.write_manifest(traces, out / "manifest.csv", trace_paths)
    if errors:
        (out / "errors.log").write_text(
            "\n".join(f"{sid}: {msg}" for sid, msg in errors) + "\n",
            encoding="utf-8")
    converged = sum(t.converged for t in traces)
    print(f"{converged}/{len(traces)} runs reached co >= {cfg.target_co}; "
          f"outputs under {out}")
    return 0


def _cmd_toy_sweep(args) -> int:
    thetas = np.linspace(args.theta_min, args.theta_max, args.points)
    rows = toy_mod.rotation_sweep(args.a1, args.a2, args.keta, thetas)
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


def _extract_config_path(argv) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                return None
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", maxsplit=1)[1]
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    config_path = _extract_config_path(argv)
    if config_path:
        try:
            parser.set_defaults(**load_config(config_path))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

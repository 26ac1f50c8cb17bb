#!/usr/bin/env python3
"""Run one fixed gaxkit CLI pipeline on two source trees and diff the results.

    python3 tools/pipeline_diff.py OLD_SRC NEW_SRC [--keep DIR]

``OLD_SRC`` and ``NEW_SRC`` are the ``src`` directories of two checkouts;
each tree's demos are read from the ``demos`` directory beside its ``src``.
Every step runs with that tree's ``src`` first on ``PYTHONPATH``, inside a
fresh working directory per tree, so both runs see the same relative paths.
Afterwards every file the pipeline wrote is compared byte for byte, as are
each step's exit status, stdout and stderr (with the tree's own paths
replaced by placeholders).  Each difference is named on stdout; the exit
status is 1 if there is any, 0 if there is none.

No golden digests are stored: BLAS builds sum differently from host to
host, so the tool always compares two trees on one machine.  Standard
library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

CLI = ("-m", "gaxkit.cli")
DEMOS = ("01_toy_rotation_sweep.py", "02_attribution_gallery.py",
         "03_gap_distribution.py", "04_gax_optimization.py")
ATTRIBUTE_METHODS = ("saliency", "input-x-gradient", "deconvolution",
                     "guided-backprop", "deeplift", "layer-gradcam",
                     "layer-gradcam:conv2")
# the six methods in reverse: methods that share a sample's graph would
# show any state they leak as a byte difference
REVERSED_METHODS = ("layer-gradcam,deeplift,guided-backprop,deconvolution,"
                    "input-x-gradient,saliency")
# Grad-CAM before the gradient methods, so Grad-CAM's standard sweep is the
# one saliency and input x gradient read; deeplift twice against the one
# zero-baseline graph of the sweep
GRADCAM_FIRST_METHODS = ("layer-gradcam:conv2,layer-gradcam,saliency,"
                         "deeplift,input-x-gradient,deeplift")


# The CLI writes float32 tensors and 9-digit text, which round a 1-ulp
# change in a float64 result away.  This step writes raw float64 bytes of
# what the workloads compute: heatmaps, CO scores (also of the methods in
# reverse, and of the gray model, whose conv2 output area of 6 * 6 is not a
# multiple of BLAS's 8-column tiles, so a batched forward that is not
# batch-invariant shows there), GAX traces and
# heatmaps (also with the bias and with no similarity penalty), and the
# parameter gradients of one training step at batch 32 and one at batch 3:
# conv2d's kernel gradient reads its window matrix in place at the first
# and copies it at the second.  The GAX runs' snapshots land under
# probe/gax.
PROBE = """
from pathlib import Path

import numpy as np

from gaxkit import (METHODS, GaxConfig, MiniConvNet, attribute, ax_sweep,
                    gax_run, load_dataset, predict)
from gaxkit.training import _cross_entropy

out = Path("probe")
out.mkdir()


def dump(name, values):
    (out / name).write_bytes(np.asarray(values, dtype=np.float64).tobytes())


model = MiniConvNet.load("rgb.gaxm")
ds = load_dataset("rgb")
for method in (*METHODS, "layer-gradcam:conv2"):
    dump("attribute_" + method.replace(":", "_"),
         [attribute(model, model.forward_graph(ds.test.x[i][None]), i % 2,
                    method).values for i in range(4)])
records, _ = ax_sweep(model, ds.test, METHODS)
dump("co_scores", [r.co_score for r in records])
records, _ = ax_sweep(model, ds.test, [*reversed(METHODS)])
dump("co_scores_reversed", [r.co_score for r in records])
records, _ = ax_sweep(MiniConvNet.load("gray.gaxm"), load_dataset("gray").test,
                      METHODS)
dump("co_scores_gray", [r.co_score for r in records])
correct = [i for i in range(len(ds.test))
           if predict(model, ds.test.x[i])[0] == ds.test.y[i]]
gax_runs = [(i, "", GaxConfig(target_co=5.0, max_iterations=30))
            for i in correct[:2]]
# with the bias the gradient also flows to b; a zero factor is where a
# signed zero would show in the penalty's gradient
gax_runs += [(correct[0], "_bias", GaxConfig(target_co=5.0, max_iterations=30,
                                             use_bias=True)),
             (correct[1], "_nosim", GaxConfig(target_co=5.0, max_iterations=30,
                                              similarity_factor=0.0))]
for i, tag, cfg in gax_runs:
    x = ds.test.x[i]
    trace, heat = gax_run(model, x, ds.test.y[i], cfg,
                          fx=predict(model, x)[1],
                          sample_id=f"{ds.test.ids[i]}{tag}",
                          out_dir=out / "gax")
    dump(f"gax_{i}{tag}_trace", trace.iterations)
    dump(f"gax_{i}{tag}_heatmap", heat.values)
for batch, tag in ((32, ""), (3, "_batch3")):
    idx = np.random.default_rng(0).integers(0, len(ds.train), batch)
    fp = model.forward_graph(ds.train.x[idx])
    # seeded with d mean cross-entropy / d scores, as training seeds it
    seed = _cross_entropy(fp.scores.data, ds.train.y[idx])[1]
    fp.scores.backward(seed, wrt=list(fp.params.values()))
    for name, leaf in fp.params.items():
        dump(f"grad{tag}_{name}", leaf.grad)
"""

# inputs the CLI must reject with one line: a weight file whose head has
# one class, one whose conv1 has 16 output channels (conv2 takes all 16, so
# the entries agree with each other), one with an entry the model does not
# read, a copy of rgb whose manifest lists one test sample twice, so two
# test samples share one sample id, and a directory where train is told to
# write its weight file; also a copy of rgb with one truncated train image,
# which stops train but not a command that reads the test split
BAD_INPUTS = """
import shutil
from pathlib import Path

import numpy as np

from gaxkit.formats import read_gaxm, write_gaxm

named = read_gaxm("rgb.gaxm")
named["fc.w"], named["fc.b"] = named["fc.w"][:1], named["fc.b"][:1]
write_gaxm("one_class.gaxm", named)
named = read_gaxm("rgb.gaxm")
for name, axis in (("conv1.w", 0), ("conv1.b", 0), ("conv2.w", 1)):
    named[name] = np.repeat(named[name], 2, axis=axis)
write_gaxm("conv16.gaxm", named)
named = read_gaxm("rgb.gaxm")
named["bogus"] = np.zeros(5)
write_gaxm("bogus.gaxm", named)
shutil.copytree("rgb", "dup_ids")
manifest = Path("dup_ids/manifest.txt")
lines = manifest.read_text().splitlines()
lines.append(next(line for line in lines if line.startswith("sample,test,")))
manifest.write_text("\\n".join(lines) + "\\n")
Path("model_dir").mkdir()
shutil.copytree("rgb", "bad_train")
train_image = sorted(Path("bad_train/train").rglob("*.ppm"))[0]
train_image.write_bytes(train_image.read_bytes()[:20])
"""


def _cli(name: str, *args: str) -> tuple[str, tuple[str, ...]]:
    return name, (*CLI, *args)


def pipeline() -> list[tuple[str, tuple[str, ...]]]:
    """The fixed pipeline: (step name, python arguments) in run order."""
    steps = [
        _cli("gen-data rgb", "gen-data", "--out", "rgb", "--train", "60",
             "--val", "20", "--test", "16", "--shape", "3,16,16",
             "--seed", "5"),
        _cli("gen-data gray", "gen-data", "--out", "gray", "--train", "40",
             "--val", "10", "--test", "10", "--shape", "1,12,12",
             "--seed", "6"),
        _cli("gen-data defaults", "gen-data", "--out", "defaults"),
        _cli("train defaults", "train", "--data", "rgb", "--out", "rgb.gaxm",
             "--max-iterations", "40"),
        _cli("train batch 3", "train", "--data", "rgb", "--out", "b3.gaxm",
             "--batch-size", "3", "--max-iterations", "40", "--val-every",
             "10", "--min-iterations", "10", "--target-val-acc", "0.9"),
        _cli("train gray", "train", "--data", "gray", "--out", "gray.gaxm",
             "--max-iterations", "30"),
        ("float64 probe", ("-c", PROBE)),
        _cli("ax-sweep all methods", "ax-sweep", "--model", "rgb.gaxm",
             "--data", "rgb", "--out", "scores.csv"),
        _cli("ax-sweep gradcam layers", "ax-sweep", "--model", "rgb.gaxm",
             "--data", "rgb", "--split", "val", "--methods",
             "layer-gradcam:conv2,layer-gradcam:pool1", "--out",
             "gradcam.csv"),
        _cli("ax-sweep reversed methods", "ax-sweep", "--model", "rgb.gaxm",
             "--data", "rgb", "--methods", REVERSED_METHODS, "--out",
             "reversed.csv"),
        _cli("ax-sweep gradcam first", "ax-sweep", "--model", "rgb.gaxm",
             "--data", "rgb", "--methods", GRADCAM_FIRST_METHODS, "--out",
             "gradcam_first.csv"),
        _cli("ax-sweep gray gradcam first", "ax-sweep", "--model",
             "gray.gaxm", "--data", "gray", "--methods",
             GRADCAM_FIRST_METHODS, "--out", "gray_gradcam_first.csv"),
        # raw class directories, read at the model's input shape: gray
        # 12x12 as is, and resized to 16x16 and repeated to 3 channels
        _cli("ax-sweep raw", "ax-sweep", "--model", "gray.gaxm", "--data",
             "gray/test", "--methods", "saliency,deeplift", "--out",
             "raw.csv"),
        _cli("ax-sweep raw stack", "ax-sweep", "--model", "rgb.gaxm",
             "--data", "gray/test", "--methods",
             "guided-backprop,layer-gradcam", "--variants", "mul", "--out",
             "stack.csv"),
        _cli("gap-stats", "gap-stats", "--scores", "scores.csv"),
        _cli("gap-stats filtered", "gap-stats", "--scores", "scores.csv",
             "--method", "saliency", "--variant", "sum", "--hist",
             "hist.csv", "--bins", "7", "--out", "stats.txt"),
        _cli("gax no bias", "gax", "--model", "rgb.gaxm", "--data", "rgb",
             "--no-bias", "--target-co", "5", "--first-n", "3",
             "--max-iterations", "200", "--out", "gax_nobias"),
        _cli("gax bias", "gax", "--model", "rgb.gaxm", "--data", "rgb",
             "--bias", "--snapshot-every", "7", "--first-n", "3",
             "--max-iterations", "40", "--out", "gax_bias"),
        _cli("gax huge similarity", "gax", "--model", "rgb.gaxm", "--data",
             "rgb", "--similarity-factor", "1e308", "--first-n", "2",
             "--max-iterations", "20", "--out", "gax_huge"),
    ]
    for i, method in enumerate(ATTRIBUTE_METHODS):
        stem = method.replace(":", "_")
        steps.append(_cli(f"attribute {method}", "attribute", "--model",
                          "rgb.gaxm", "--data", "rgb", "--index", str(i),
                          "--method", method, "--out", f"attr/{stem}"))
        steps.append(_cli(f"attribute {method} target abs", "attribute",
                          "--model", "rgb.gaxm", "--data", "rgb", "--index",
                          str(i), "--method", method, "--target", "1",
                          "--abs", "--out", f"attr/{stem}_t1_abs"))
    steps += [
        _cli("toy-sweep", "toy-sweep", "--out", "toy.csv"),
        _cli("toy-sweep tilted", "toy-sweep", "--a1", "0.7", "--a2", "0.3",
             "--keta", "2.5", "--out", "toy_tilted.csv"),
        # known error cases: one line on stderr, no traceback
        ("write bad inputs", ("-c", BAD_INPUTS)),
        _cli("error one-class model", "gax", "--model", "one_class.gaxm",
             "--data", "rgb", "--first-n", "2", "--max-iterations", "5",
             "--out", "gax_one_class"),
        _cli("error conv1 channels", "ax-sweep", "--model", "conv16.gaxm",
             "--data", "rgb", "--methods", "saliency", "--out",
             "conv16.csv"),
        _cli("error unknown model entry", "ax-sweep", "--model",
             "bogus.gaxm", "--data", "rgb", "--methods", "saliency", "--out",
             "bogus.csv"),
        # a 3-class split for the 2-class rgb model
        _cli("gen-data three classes", "gen-data", "--out", "three",
             "--classes", "3", "--train", "3", "--val", "3", "--test", "6",
             "--shape", "3,16,16", "--seed", "7"),
        _cli("error label beyond the model ax-sweep", "ax-sweep", "--model",
             "rgb.gaxm", "--data", "three", "--methods", "saliency",
             "--out", "three.csv"),
        _cli("error label beyond the model gax", "gax", "--model",
             "rgb.gaxm", "--data", "three", "--max-iterations", "5",
             "--out", "gax_three"),
        # a Grad-CAM layer the model lacks, and one that is not spatial:
        # the first sample's error stops the sweep
        _cli("error unknown gradcam layer", "ax-sweep", "--model",
             "rgb.gaxm", "--data", "rgb", "--methods",
             "saliency,layer-gradcam:nope", "--out", "gradcam_nope.csv"),
        _cli("error gradcam layer not spatial", "ax-sweep", "--model",
             "rgb.gaxm", "--data", "rgb", "--methods", "layer-gradcam:fc",
             "--out", "gradcam_fc.csv"),
        _cli("error duplicate sample id", "ax-sweep", "--model", "rgb.gaxm",
             "--data", "dup_ids", "--methods", "saliency", "--out",
             "dup_ids.csv"),
        _cli("error unknown method", "attribute", "--model", "rgb.gaxm",
             "--data", "rgb", "--method", "nope", "--out", "attr/bad"),
        _cli("error index", "attribute", "--model", "rgb.gaxm", "--data",
             "rgb", "--index", "999", "--out", "attr/bad"),
        _cli("error missing model", "ax-sweep", "--model", "missing.gaxm",
             "--data", "rgb", "--out", "bad.csv"),
        _cli("error model shape", "ax-sweep", "--model", "gray.gaxm",
             "--data", "rgb", "--out", "bad.csv"),
        _cli("error raw channels", "ax-sweep", "--model", "gray.gaxm",
             "--data", "rgb/test", "--out", "bad.csv"),
        _cli("error raw split", "ax-sweep", "--model", "rgb.gaxm", "--data",
             "gray/test", "--split", "train", "--out", "bad.csv"),
        _cli("error snapshot every", "gax", "--model", "rgb.gaxm", "--data",
             "rgb", "--snapshot-every", "0", "--out", "gax_bad"),
        _cli("error shape count", "gen-data", "--out", "bad", "--shape",
             "8,8"),
        _cli("error bins", "gap-stats", "--scores", "scores.csv", "--bins",
             "0"),
        _cli("error scores file", "gap-stats", "--scores", "missing.csv"),
        _cli("error missing out directory", "toy-sweep", "--out",
             "missing/t.csv"),
        _cli("error out is a directory", "train", "--data", "rgb", "--out",
             "model_dir", "--max-iterations", "5"),
        _cli("error bad train image", "train", "--data", "bad_train",
             "--out", "bad_train.gaxm", "--max-iterations", "5"),
        _cli("attribute beside a bad train image", "attribute", "--model",
             "rgb.gaxm", "--data", "bad_train", "--out", "attr/bad_train"),
    ]
    steps += [(f"demo {name}", ("{demos}/" + name,)) for name in DEMOS]
    return steps


def run_tree(src: Path, workdir: Path, steps) -> dict[str, tuple]:
    """Run ``steps`` with ``src`` on PYTHONPATH inside ``workdir``; returns
    step name -> (exit status, stdout, stderr) with the tree's paths
    replaced by placeholders."""
    src = src.resolve()
    demos = src.parent / "demos"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    workdir.mkdir(parents=True, exist_ok=True)
    results = {}
    for name, args in steps:
        args = [a.replace("{demos}", str(demos)) for a in args]
        proc = subprocess.run([sys.executable, *args], cwd=workdir, env=env,
                              capture_output=True, text=True)
        results[name] = tuple(
            [proc.returncode] + [text.replace(str(demos), "<demos>")
                                 .replace(str(src), "<src>")
                                 .replace(str(workdir.resolve()), "<run>")
                                 for text in (proc.stdout, proc.stderr)])
    return results


def _files(root: Path) -> dict[str, Path]:
    return {p.relative_to(root).as_posix(): p
            for p in root.rglob("*") if p.is_file()}


def compare(old_dir: Path, new_dir: Path, old_results, new_results
            ) -> list[str]:
    """Every difference between two runs, one line each."""
    diffs = []
    for name in old_results.keys() | new_results.keys():
        old, new = old_results.get(name), new_results.get(name)
        if old is None or new is None:
            diffs.append(f"step only in {'old' if new is None else 'new'}: "
                         f"{name}")
            continue
        for label, a, b in zip(("exit status", "stdout", "stderr"), old, new):
            if a != b:
                diffs.append(f"{label} differs: {name}")
    old_files, new_files = _files(old_dir), _files(new_dir)
    for rel in sorted(old_files.keys() | new_files.keys()):
        if rel not in new_files:
            diffs.append(f"file only in old: {rel}")
        elif rel not in old_files:
            diffs.append(f"file only in new: {rel}")
        elif old_files[rel].read_bytes() != new_files[rel].read_bytes():
            diffs.append(f"file differs: {rel}")
    return sorted(diffs)


def main(argv=None, steps=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a fixed CLI pipeline on two gaxkit source trees "
                    "and report every difference in their outputs.")
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--keep", type=Path, default=None,
                        help="run under this directory and keep the outputs")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not src.is_dir():
            parser.error(f"not a directory: {src}")
    steps = pipeline() if steps is None else steps

    with tempfile.TemporaryDirectory(prefix="pipeline_diff_") as tmp:
        base = args.keep if args.keep is not None else Path(tmp)
        if args.keep is not None and base.exists() and any(base.iterdir()):
            parser.error(f"--keep directory is not empty: {base}")
        old_dir, new_dir = base / "old", base / "new"
        start = time.perf_counter()
        # one worker per tree: the two runs share no files
        with ThreadPoolExecutor(max_workers=2) as pool:
            old = pool.submit(run_tree, args.old_src, old_dir, steps)
            new = pool.submit(run_tree, args.new_src, new_dir, steps)
            old_results, new_results = old.result(), new.result()
        diffs = compare(old_dir, new_dir, old_results, new_results)
        files = len(_files(new_dir))
    elapsed = time.perf_counter() - start
    for line in diffs:
        print(line)
    print(f"{len(steps)} steps, {files} files compared in {elapsed:.1f} s: "
          f"{len(diffs) or 'no'} difference{'' if len(diffs) == 1 else 's'}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

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
# heatmaps (also with the bias, with no similarity penalty and on a
# 3-class model, where a CO formula other than ``ScoreConstants.apply``'s
# would differ from it in the last bits), the graph-free ``scores`` of one
# 32-row train chunk of each model (the gray one runs its conv2 one sample
# at a time), and the
# parameter gradients and conv1/conv2 activations of one training step at
# batch 32 and one at batch 3: conv2d's kernel gradient reads its window
# matrix in place at the first and copies it at the second, and a change in
# how a conv layer adds its bias shows in the activations.  It also writes
# the float images of ``make_blobs``' test split and of both training
# batches, so a change in how pixels become floats shows.  The GAX runs'
# snapshots land under probe/gax.
PROBE = """
from pathlib import Path

import numpy as np

from gaxkit import (METHODS, DatasetSpec, GaxConfig, MiniConvNet, attribute,
                    ax_sweep, gax_run, load_dataset, make_blobs, predict)
from gaxkit.training import _cross_entropy

out = Path("probe")
out.mkdir()


def dump(name, values):
    (out / name).write_bytes(np.asarray(values, dtype=np.float64).tobytes())


model = MiniConvNet.load("rgb.gaxm")
ds = load_dataset("rgb")
dump("images_blobs_test", make_blobs(DatasetSpec(
    class_count=3, train=0, val=0, test=12, image_shape=(3, 16, 16),
    seed=9)).test.images(slice(None)))
dump("scores_train_chunk", model.scores(ds.train.images(slice(32))))
dump("scores_train_chunk_gray", MiniConvNet.load("gray.gaxm").scores(
    load_dataset("gray", ["train"]).train.images(slice(32))))
for method in (*METHODS, "layer-gradcam:conv2"):
    dump("attribute_" + method.replace(":", "_"),
         [attribute(model, model.forward_graph(ds.test.images(i)[None]),
                    i % 2, method).values for i in range(4)])
records, _ = ax_sweep(model, ds.test, METHODS)
dump("co_scores", [r.co_score for r in records])
records, _ = ax_sweep(model, ds.test, [*reversed(METHODS)])
dump("co_scores_reversed", [r.co_score for r in records])
records, _ = ax_sweep(MiniConvNet.load("gray.gaxm"), load_dataset("gray").test,
                      METHODS)
dump("co_scores_gray", [r.co_score for r in records])
correct = [i for i in range(len(ds.test))
           if predict(model, ds.test.images(i))[0] == ds.test.y[i]]
gax_runs = [(i, "", GaxConfig(target_co=5.0, max_iterations=30))
            for i in correct[:2]]
# with the bias the gradient also flows to b; a zero factor is where a
# signed zero would show in the penalty's gradient
gax_runs += [(correct[0], "_bias", GaxConfig(target_co=5.0, max_iterations=30,
                                             use_bias=True)),
             (correct[1], "_nosim", GaxConfig(target_co=5.0, max_iterations=30,
                                              similarity_factor=0.0))]
for i, tag, cfg in gax_runs:
    x = ds.test.images(i)
    trace, heat = gax_run(model, x, ds.test.y[i], cfg,
                          fx=predict(model, x)[1],
                          sample_id=f"{ds.test.ids[i]}{tag}",
                          out_dir=out / "gax")
    dump(f"gax_{i}{tag}_trace", trace.iterations)
    dump(f"gax_{i}{tag}_heatmap", heat.values)
model3 = MiniConvNet.load("rgb3.gaxm")
test3 = load_dataset("rgb3", ["test"]).test
for i in range(len(test3)):
    x = test3.images(i)
    pred, fx = predict(model3, x)
    if pred == test3.y[i]:
        trace, heat = gax_run(model3, x, pred, GaxConfig(target_co=5.0,
                                                         max_iterations=30),
                              fx=fx, sample_id=f"{test3.ids[i]}_three",
                              out_dir=out / "gax")
        dump(f"gax_{i}_three_trace", trace.iterations)
        dump(f"gax_{i}_three_heatmap", heat.values)
        break
for batch, tag in ((32, ""), (3, "_batch3")):
    idx = np.random.default_rng(0).integers(0, len(ds.train), batch)
    inputs = ds.train.images(idx)
    dump(f"images{tag}_train_batch", inputs)
    fp = model.forward_graph(inputs)
    # seeded with d mean cross-entropy / d scores, as training seeds it
    seed = _cross_entropy(fp.scores.data, ds.train.y[idx])[1]
    fp.scores.backward(seed, wrt=list(fp.params.values()))
    for name, leaf in fp.params.items():
        dump(f"grad{tag}_{name}", leaf.grad)
    for name in ("conv1", "conv2"):
        dump(f"act{tag}_{name}", fp.activations[name].data)
"""

# inputs the CLI must reject with one line: a weight file whose head has
# one class, one whose conv1 has 16 output channels (conv2 takes all 16, so
# the entries agree with each other), one with an entry the model does not
# read, one whose first entry name is not UTF-8, a copy of rgb whose
# manifest lists one test sample twice, so two test samples share one
# sample id, and a directory where train is told to write its weight file;
# also a copy of rgb with one truncated train image, which stops train but
# not a command that reads the test split; and copies of rgb with test
# images renamed: the first to ...ppm, whose sample id '..' would put its GAX
# snapshots beside the output directory, the first to manifest.csv.ppm,
# whose snapshot directory would be the run's manifest, and the first to the
# second's id plus .trace.csv, whose snapshot directory would be the
# second's trace file
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
raw = Path("rgb.gaxm").read_bytes()
Path("non_utf8.gaxm").write_bytes(raw.replace(b"conv1.w", b"\\xffonv1.w",
                                             1))
shutil.copytree("rgb", "dup_ids")
manifest = Path("dup_ids/manifest.txt")
lines = manifest.read_text().splitlines()
lines.append(next(line for line in lines if line.startswith("sample,test,")))
manifest.write_text("\\n".join(lines) + "\\n")
Path("model_dir").mkdir()
shutil.copytree("rgb", "bad_train")
train_image = sorted(Path("bad_train/train").rglob("*.ppm"))[0]
train_image.write_bytes(train_image.read_bytes()[:20])


def rename_test_image(copy, name):
    shutil.copytree("rgb", copy)
    manifest = Path(copy, "manifest.txt")
    text = manifest.read_text()
    rel = next(line for line in text.splitlines()
               if line.startswith("sample,test,")).split(",")[3]
    renamed = Path(rel).with_name(name).as_posix()
    Path(copy, rel).rename(Path(copy, renamed))
    manifest.write_text(text.replace(rel, renamed))


rename_test_image("bad_id", "...ppm")
rename_test_image("id_manifest", "manifest.csv.ppm")
rename_test_image("id_trace", "test_00001.trace.csv.ppm")
"""


# inputs that reach the CLI's rarely taken branches: raw_odd, a copy of the
# gray test split with an all-zero image (sorted first, so its map is all
# +-0 and normalizes as a zero map), a subdirectory in a class folder, a
# truncated image (skipped with a warning) and an image whose PNM header
# holds a comment; blank.csv, the scores CSV with an empty line;
# one.csv, its header and one record (a histogram of equal scores); and
# gray_blank, a copy of gray whose manifest holds an empty line and a line
# of only whitespace
ODD_INPUTS = """
import shutil
from pathlib import Path

import numpy as np

from gaxkit.formats import write_pgm

shutil.copytree("gray/test", "raw_odd")
write_pgm("raw_odd/class_0/000_black.pgm", np.zeros((12, 12), np.uint8))
Path("raw_odd/class_0/notes").mkdir()
image = sorted(Path("raw_odd/class_1").glob("*.pgm"))[0]
Path("raw_odd/class_1/broken.pgm").write_bytes(image.read_bytes()[:20])
raw = image.read_bytes()
image.write_bytes(raw.replace(b"P5\\n", b"P5\\n# comment\\n", 1))
lines = Path("scores.csv").read_text().splitlines()
Path("one.csv").write_text("\\n".join(lines[:2]) + "\\n")
lines.insert(3, "")
Path("blank.csv").write_text("\\n".join(lines) + "\\n")
shutil.copytree("gray", "gray_blank")
manifest = Path("gray_blank/manifest.txt")
lines = manifest.read_text().splitlines()
lines[3:3] = ["", " \\t "]
manifest.write_text("\\n".join(lines) + "\\n")
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
        _cli("gen-data rgb3", "gen-data", "--out", "rgb3", "--classes", "3",
             "--train", "60", "--val", "20", "--test", "16", "--shape",
             "3,16,16", "--seed", "8"),
        _cli("train defaults", "train", "--data", "rgb", "--out", "rgb.gaxm",
             "--max-iterations", "40"),
        _cli("train batch 3", "train", "--data", "rgb", "--out", "b3.gaxm",
             "--batch-size", "3", "--max-iterations", "40", "--val-every",
             "10", "--min-iterations", "10", "--target-val-acc", "0.9"),
        _cli("train gray", "train", "--data", "gray", "--out", "gray.gaxm",
             "--max-iterations", "30"),
        _cli("train rgb3", "train", "--data", "rgb3", "--out", "rgb3.gaxm",
             "--max-iterations", "60"),
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
        _cli("gax three classes", "gax", "--model", "rgb3.gaxm", "--data",
             "rgb3", "--target-co", "5", "--first-n", "3",
             "--max-iterations", "100", "--out", "gax_three_classes"),
        # the one-plane model: each snapshot renders a single <stem>.ppm
        _cli("gax gray", "gax", "--model", "gray.gaxm", "--data", "gray",
             "--target-co", "5", "--first-n", "2", "--max-iterations", "20",
             "--out", "gax_gray"),
        _cli("attribute gray", "attribute", "--model", "gray.gaxm", "--data",
             "gray", "--index", "1", "--method", "input-x-gradient", "--out",
             "attr/gray"),
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
        _cli("error non-utf-8 entry name", "ax-sweep", "--model",
             "non_utf8.gaxm", "--data", "rgb", "--methods", "saliency",
             "--out", "non_utf8.csv"),
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
        _cli("error zero lr", "train", "--data", "rgb", "--out", "lr0.gaxm",
             "--lr", "0", "--max-iterations", "20"),
        _cli("error negative lr gax", "gax", "--model", "rgb.gaxm", "--data",
             "rgb", "--lr=-0.1", "--first-n", "1", "--max-iterations", "20",
             "--out", "gax_negative_lr"),
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
        _cli("error sample id .. gax", "gax", "--model", "rgb.gaxm",
             "--data", "bad_id", "--first-n", "2", "--max-iterations", "5",
             "--out", "bad_id/run"),
        _cli("error sample id manifest.csv gax", "gax", "--model",
             "rgb.gaxm", "--data", "id_manifest", "--max-iterations", "5",
             "--out", "id_manifest/run"),
        _cli("error sample id of a trace gax", "gax", "--model", "rgb.gaxm",
             "--data", "id_trace", "--max-iterations", "5", "--out",
             "id_trace/run"),
        _cli("error sample id .. ax-sweep", "ax-sweep", "--model",
             "rgb.gaxm", "--data", "bad_id", "--methods", "saliency",
             "--out", "bad_id.csv"),
        # the same command as "gax no bias": its --out now holds a run
        _cli("error gax into a run directory", "gax", "--model", "rgb.gaxm",
             "--data", "rgb", "--no-bias", "--target-co", "5", "--first-n",
             "3", "--max-iterations", "200", "--out", "gax_nobias"),
        _cli("error scores header", "gap-stats", "--scores",
             "rgb/manifest.txt"),
        # an output whose directory would have to be made under a file
        _cli("error gax out under a file", "gax", "--model", "rgb.gaxm",
             "--data", "rgb", "--max-iterations", "5", "--out",
             "rgb.gaxm/run"),
        _cli("error gen-data out under a file", "gen-data", "--out",
             "rgb.gaxm/d"),
        _cli("error gen-data out is a file", "gen-data", "--out", "rgb.gaxm"),
        _cli("error attribute out under a file", "attribute", "--model",
             "rgb.gaxm", "--data", "rgb", "--out", "rgb.gaxm/x"),
    ]
    steps += [(f"demo {name}", ("{demos}/" + name,)) for name in DEMOS]
    # the skip warning names data.py's line, which an edit above it moves
    quiet = ("-W", "ignore::UserWarning", *CLI)
    steps += [
        # demo 03 flips labels, so both groups are present
        _cli("gap-stats demo 03 scores", "gap-stats", "--scores",
             "gap_scores.csv", "--method", "saliency", "--variant", "sum",
             "--hist", "gap_hist.csv", "--out", "gap_stats.txt"),
        ("write odd inputs", ("-c", ODD_INPUTS)),
        ("ax-sweep odd raw inputs", (*quiet, "ax-sweep", "--model",
                                     "gray.gaxm", "--data", "raw_odd",
                                     "--methods", "saliency,input-x-gradient",
                                     "--out", "odd.csv")),
        ("attribute an all-zero image", (*quiet, "attribute", "--model",
                                         "gray.gaxm", "--data", "raw_odd",
                                         "--index", "0", "--method",
                                         "input-x-gradient", "--out",
                                         "attr/zero")),
        _cli("gap-stats blank line", "gap-stats", "--scores", "blank.csv"),
        _cli("gap-stats one record", "gap-stats", "--scores", "one.csv",
             "--hist", "one_hist.csv"),
        _cli("ax-sweep blank manifest lines", "ax-sweep", "--model",
             "gray.gaxm", "--data", "gray_blank", "--methods", "saliency",
             "--out", "gray_blank.csv"),
        # splits with no samples: a set without a test split, and one with
        # only a test split, whose empty train split stops train
        _cli("gen-data no test split", "gen-data", "--out", "no_test",
             "--train", "40", "--val", "10", "--test", "0", "--shape",
             "3,16,16", "--seed", "3"),
        _cli("gen-data test split only", "gen-data", "--out", "test_only",
             "--train", "0", "--val", "0", "--test", "6", "--shape",
             "3,16,16", "--seed", "4"),
        _cli("train no test split", "train", "--data", "no_test", "--out",
             "no_test.gaxm", "--max-iterations", "20"),
        _cli("ax-sweep empty split", "ax-sweep", "--model", "no_test.gaxm",
             "--data", "no_test", "--split", "test", "--out", "empty.csv"),
        _cli("gax empty split", "gax", "--model", "no_test.gaxm", "--data",
             "no_test", "--split", "test", "--max-iterations", "5", "--out",
             "gax_empty"),
        _cli("ax-sweep test split only", "ax-sweep", "--model",
             "no_test.gaxm", "--data", "test_only", "--methods", "saliency",
             "--out", "test_only.csv"),
        _cli("error train on a test split only", "train", "--data",
             "test_only", "--out", "test_only.gaxm", "--max-iterations", "5"),
        # one step from its init, the model misclassifies half of rgb's
        # test split, so the sweep skips samples between its runs
        _cli("train one iteration", "train", "--data", "rgb", "--out",
             "one_iteration.gaxm", "--max-iterations", "1"),
        _cli("gax skips misclassified samples", "gax", "--model",
             "one_iteration.gaxm", "--data", "rgb", "--first-n", "4",
             "--max-iterations", "20", "--out", "gax_skip"),
        # an odd batch of 3x30x30 images: conv2's N*H*W, 31 * 15 * 15, is
        # no multiple of 8, so its input gradient takes the transposed
        # product, and pool2 routes an odd 15x15 extent of an input stored
        # in (C, N, H, W) order
        _cli("gen-data 30x30", "gen-data", "--out", "rgb30", "--train",
             "62", "--val", "10", "--test", "8", "--shape", "3,30,30",
             "--seed", "9"),
        _cli("train 30x30 batch 31", "train", "--data", "rgb30", "--out",
             "rgb30.gaxm", "--batch-size", "31", "--max-iterations", "20"),
        _cli("ax-sweep 30x30", "ax-sweep", "--model", "rgb30.gaxm",
             "--data", "rgb30", "--out", "rgb30.csv"),
        _cli("gax 30x30", "gax", "--model", "rgb30.gaxm", "--data", "rgb30",
             "--first-n", "2", "--max-iterations", "20", "--out",
             "gax_rgb30"),
    ]
    # planes at the edge of conv2d's input-gradient sum: at 1x4x4 conv2
    # runs on 2x2 planes, smaller than its kernel, so a shift that lands in
    # the padding wraps across rows and samples; 3x5x7 is odd and not
    # square, so pool1 drops a row and a column
    for shape, tag in (("1,4,4", "1x4x4"), ("3,5,7", "3x5x7")):
        steps += [
            _cli(f"gen-data {tag}", "gen-data", "--out", f"d{tag}",
                 "--train", "42", "--val", "7", "--test", "8", "--shape",
                 shape, "--seed", "11"),
            _cli(f"train {tag} batch 7", "train", "--data", f"d{tag}",
                 "--out", f"d{tag}.gaxm", "--batch-size", "7",
                 "--max-iterations", "80"),
            _cli(f"ax-sweep {tag}", "ax-sweep", "--model", f"d{tag}.gaxm",
                 "--data", f"d{tag}", "--out", f"d{tag}.csv"),
            _cli(f"gax {tag}", "gax", "--model", f"d{tag}.gaxm", "--data",
                 f"d{tag}", "--first-n", "3", "--max-iterations", "20",
                 "--out", f"gax_d{tag}"),
        ]
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

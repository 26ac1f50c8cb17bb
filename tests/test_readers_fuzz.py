"""Every reader is total: random byte edits of a valid file either still
load or fail with one ValueError or OSError that names the file.

Each reader gets a few hundred trials from a fixed seed.  A trial writes
1-4 random byte edits of a valid file (overwrite, insert or delete), then
reads it with every warning recorded: a trial that loads or raises one of
those errors with the path in its message passes, and any other exception
or any warning fails the test.  The one warning allowed is the documented
one of ``ingest_images``, which skips an unreadable image with a warning
that names it.
"""

import random
import warnings

import numpy as np
import pytest

from gaxkit import DatasetSpec, MiniConvNet, gen_data, load_dataset
from gaxkit.ax import ScoreRecord, read_scores_csv, write_scores_csv
from gaxkit.data import ingest_images
from gaxkit.formats import (read_gaxh, read_pnm, write_gaxh, write_pgm,
                            write_ppm)

TRIALS = 300
SHAPE = (3, 4, 4)


def _mutate(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        pos = rng.randrange(len(out) + 1)
        edit = rng.random()
        if edit < 0.7 and pos < len(out):
            out[pos] = rng.randrange(256)
        elif edit < 0.85:
            out.insert(pos, rng.randrange(256))
        elif pos < len(out):
            del out[pos]
    return bytes(out)


def _fuzz(seed, target, read, named, allowed=lambda w: False):
    """Run TRIALS mutations of ``target`` through ``read()``; ``named`` is
    the path every error message must contain.  Returns the number of
    trials that loaded and that raised."""
    rng = random.Random(seed)
    original = target.read_bytes()
    outcomes = {"loaded": 0, "raised": 0}
    for trial in range(TRIALS):
        target.write_bytes(_mutate(rng, original))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                read()
                outcomes["loaded"] += 1
            except (ValueError, OSError) as exc:
                assert str(named) in str(exc), (trial, exc)
                outcomes["raised"] += 1
        stray = [w for w in caught if not allowed(w)]
        assert not stray, (trial, [str(w.message) for w in stray])
    target.write_bytes(original)
    return outcomes


def test_read_pnm_fuzz(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "image.ppm"
    write_ppm(path, rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8))
    outcomes = _fuzz(1, path, lambda: read_pnm(path), path)
    assert outcomes["loaded"] and outcomes["raised"]


def test_read_gaxh_fuzz(tmp_path):
    path = tmp_path / "map.gaxh"
    write_gaxh(path, np.random.default_rng(2).normal(size=SHAPE))
    outcomes = _fuzz(2, path, lambda: read_gaxh(path), path)
    assert outcomes["loaded"] and outcomes["raised"]


def test_model_load_fuzz(tmp_path):
    path = tmp_path / "model.gaxm"
    MiniConvNet(input_shape=SHAPE, seed=3).save(path)
    outcomes = _fuzz(3, path, lambda: MiniConvNet.load(path), path)
    assert outcomes["loaded"] and outcomes["raised"]


@pytest.mark.parametrize("target", ["manifest.txt",
                                    "test/class_1/test_00001.ppm"])
def test_load_dataset_fuzz(tmp_path, target):
    # nearly every edit of a manifest breaks a line, and most edits of an
    # image fall in its raster, which still loads
    root = tmp_path / "data"
    gen_data(DatasetSpec(class_count=2, train=2, val=1, test=2,
                         image_shape=SHAPE, seed=4), root)
    outcomes = _fuzz(4, root / target, lambda: load_dataset(root), root)
    assert outcomes["raised"]
    assert outcomes["loaded"] or target == "manifest.txt"


def test_read_scores_csv_fuzz(tmp_path):
    path = tmp_path / "scores.csv"
    write_scores_csv([ScoreRecord(f"s{i}", "saliency", variant, 0.25 * i,
                                  i % 2, 1) for i in range(3)
                      for variant in ("sum", "mul")], path)
    outcomes = _fuzz(5, path, lambda: read_scores_csv(path), path)
    assert outcomes["loaded"] and outcomes["raised"]


@pytest.mark.parametrize("seed", [6, 7])
def test_ingest_images_fuzz(tmp_path, seed):
    # two gray images per class; each trial edits the first image of
    # class_1, and the class keeps its second one when that is skipped
    rng = np.random.default_rng(seed)
    for label in range(2):
        for i in range(2):
            (tmp_path / f"class_{label}").mkdir(exist_ok=True)
            write_pgm(tmp_path / f"class_{label}" / f"{i}.pgm",
                      rng.integers(0, 256, size=(5, 4), dtype=np.uint8))
    target = tmp_path / "class_1" / "0.pgm"

    def skipped(w):
        return (issubclass(w.category, UserWarning)
                and str(w.message).startswith(f"skipping {target}:"))

    outcomes = _fuzz(seed, target, lambda: ingest_images(tmp_path, SHAPE),
                     target, skipped)
    assert outcomes["loaded"]

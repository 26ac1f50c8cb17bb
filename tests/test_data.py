"""Synthetic data generation, disk layout, and image ingestion."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gaxkit import data as data_mod
from gaxkit import formats
from gaxkit.data import (Dataset, DatasetSpec, Split, gen_data, ingest_images,
                         load_dataset, make_blobs, write_dataset)


def _files_under(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(class_count=1)
        with pytest.raises(ValueError):
            DatasetSpec(train=-1)
        with pytest.raises(TypeError):
            DatasetSpec(kind="bogus")


class TestSplit:
    """A split holds uint8 pixels, checked when it is made, and converts
    only the rows a caller reads."""

    def _parts(self, n=3):
        pixels = np.random.default_rng(0).integers(0, 256, size=(n, 3, 4, 4),
                                                   dtype=np.uint8)
        return pixels, np.zeros(n, dtype=np.int64), [f"s{i}" for i in range(n)]

    def test_images_convert_the_rows_asked_for(self):
        pixels, y, ids = self._parts()
        split = Split(pixels, y, ids)
        assert split.images(1).shape == (3, 4, 4)
        assert split.images([2, 0]).dtype == np.float64
        assert split.images([2, 0]).tobytes() == np.stack(
            [split.images(2), split.images(0)]).tobytes()
        assert split.images(slice(None)).max() <= 1.0

    def test_float_pixels_rejected(self):
        # float images, one of them outside [0, 1], never make a split
        pixels, y, ids = self._parts()
        images = pixels / 255.0
        images[-1, 0, 0, 0] = 1.5
        with pytest.raises(ValueError, match=r"^Split\.pixels must be an "
                           r"\(N, C, H, W\) uint8 array, got 4-D float64$"):
            Split(images, y, ids)

    def test_three_dimensional_pixels_rejected(self):
        pixels, y, ids = self._parts()
        with pytest.raises(ValueError, match=r"^Split\.pixels .* got 3-D "
                           "uint8$"):
            Split(pixels[0], y, ids)

    @pytest.mark.parametrize("field", ["y", "ids"])
    def test_length_mismatch_names_the_field(self, field):
        parts = dict(zip(("pixels", "y", "ids"), self._parts()))
        parts[field] = parts[field][:2]
        with pytest.raises(ValueError, match=rf"^Split\.{field} has 2 "
                           "entries for 3 images$"):
            Split(**parts)


class TestBlobs:
    def test_values_in_unit_interval(self):
        ds = make_blobs(DatasetSpec(train=20, val=10, test=10, seed=1))
        for split in (ds.train, ds.val, ds.test):
            assert split.pixels.dtype == np.uint8
            images = split.images(slice(None))
            assert images.min() >= 0.0 and images.max() <= 1.0

    def test_images_are_the_quantized_floats(self, monkeypatch):
        # each image is the float image drawn for it, on the uint8 grid
        drawn = []
        quantize = data_mod._quantize
        monkeypatch.setattr(data_mod, "_quantize",
                            lambda x: drawn.append(x) or quantize(x))
        ds = make_blobs(DatasetSpec(train=3, val=2, test=4, seed=3))
        images = [split.images(i) for split in (ds.train, ds.val, ds.test)
                  for i in range(len(split))]
        assert len(images) == len(drawn) == 9
        for image, x in zip(images, drawn):
            expected = np.rint(np.clip(x, 0.0, 1.0) * 255.0) / 255.0
            assert image.tobytes() == expected.tobytes()

    def test_deterministic_per_seed(self):
        spec = DatasetSpec(train=10, val=5, test=5, seed=7)
        a, b = make_blobs(spec), make_blobs(spec)
        np.testing.assert_array_equal(a.train.pixels, b.train.pixels)
        np.testing.assert_array_equal(a.train.y, b.train.y)

    def test_linear_probe_learns_blobs(self):
        from gaxkit import TrainConfig, train
        from oracle_models import LinearModel
        spec = DatasetSpec(class_count=2, train=120, val=60, test=60,
                           image_shape=(3, 16, 16), seed=3)
        ds = make_blobs(spec)
        probe = LinearModel(
            np.random.default_rng(0).normal(0.0, 0.01, size=(2, 3 * 16 * 16)),
            input_shape=(3, 16, 16))
        result = train(probe, ds, TrainConfig(max_iterations=300, seed=0))
        assert result.val_accuracy > 0.9

    def test_balanced_labels(self):
        ds = make_blobs(DatasetSpec(class_count=4, train=40, val=8, test=8,
                                    seed=2))
        counts = np.bincount(ds.train.y, minlength=4)
        np.testing.assert_array_equal(counts, [10, 10, 10, 10])

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_an_empty_split_draws_nothing(self, seed):
        # so a split after an empty one is the split it would be first
        late = make_blobs(DatasetSpec(train=0, val=0, test=5, seed=seed))
        first = make_blobs(DatasetSpec(train=5, val=0, test=0, seed=seed))
        assert late.test.pixels.tobytes() == first.train.pixels.tobytes()
        assert late.test.y.tobytes() == first.train.y.tobytes()
        for split in (late.train, late.val, first.val, first.test):
            assert split.pixels.shape == (0, 3, 32, 32)
            assert split.pixels.dtype == np.uint8
            assert split.y.dtype == np.int64 and split.ids == []


class TestDiskRoundTrip:
    def test_gen_data_byte_identical_across_runs(self, tmp_path):
        spec = DatasetSpec(class_count=2, train=10, val=4, test=4,
                           image_shape=(3, 8, 8), seed=7)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        gen_data(spec, out1)
        gen_data(spec, out2)
        files1, files2 = _files_under(out1), _files_under(out2)
        assert files1 == files2 and files1
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_load_matches_memory(self, tmp_path):
        spec = DatasetSpec(class_count=3, train=9, val=3, test=3,
                           image_shape=(3, 8, 8), seed=5)
        ds = make_blobs(spec)
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        np.testing.assert_array_equal(loaded.train.pixels, ds.train.pixels)
        np.testing.assert_array_equal(loaded.train.y, ds.train.y)
        assert loaded.train.ids == ds.train.ids
        assert loaded.class_count == 3

    @pytest.mark.parametrize("shape", [(3, 5, 4), (1, 4, 6)])
    def test_images_are_the_files_scaled(self, tmp_path, shape):
        ds = make_blobs(DatasetSpec(train=3, val=1, test=2, image_shape=shape,
                                    seed=4))
        manifest = write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        rels = {}
        for line in manifest.read_text().splitlines():
            if line.startswith("sample,"):
                _, name, _, rel = line.split(",")
                rels.setdefault(name, []).append(rel)
        for name, paths in rels.items():
            split = getattr(loaded, name)
            for i, rel in enumerate(paths):
                img = formats.read_pnm(tmp_path / rel)
                chans = img[None] if img.ndim == 2 else np.moveaxis(img, 2, 0)
                assert split.images(i).tobytes() == (chans / 255.0).tobytes()

    def test_load_holds_one_byte_per_pixel(self, tmp_path):
        spec = DatasetSpec(train=64, val=16, test=16, image_shape=(3, 32, 32),
                           seed=8)
        gen_data(spec, tmp_path)
        pixel_bytes = (64 + 16 + 16) * 3 * 32 * 32
        tracemalloc.start()
        try:
            ds = load_dataset(tmp_path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds.train) == 64
        # ids, labels, paths and the manifest's lines come on top of the
        # pixels; float64 images would take eight times the pixels' bytes
        assert held <= 1.25 * pixel_bytes
        assert peak <= 1.5 * pixel_bytes

    def test_single_channel_uses_pgm(self, tmp_path):
        spec = DatasetSpec(train=2, val=0, test=0, image_shape=(1, 6, 6),
                           seed=0)
        gen_data(spec, tmp_path)
        assert list(tmp_path.glob("train/class_*/*.pgm"))

    def test_only_the_asked_splits_are_read(self, tmp_path):
        spec = DatasetSpec(train=6, val=2, test=3, image_shape=(1, 4, 4),
                           seed=2)
        ds = make_blobs(spec)
        write_dataset(ds, tmp_path)
        # a train image that does not parse stops only a load that reads it
        (bad,) = [p for p in tmp_path.glob("train/class_*/*.pgm")
                  if p.stem == ds.train.ids[0]]
        bad.write_bytes(b"P5\n")
        loaded = load_dataset(tmp_path, splits=("test",))
        assert loaded.train is None and loaded.val is None
        np.testing.assert_array_equal(loaded.test.pixels, ds.test.pixels)
        assert loaded.test.ids == ds.test.ids
        with pytest.raises(ValueError, match=str(bad)):
            load_dataset(tmp_path)
        # the manifest is still checked whole: a bad train line stops it
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text() + "sample,train,7,x.pgm\n")
        with pytest.raises(ValueError, match="label 7 is out of range"):
            load_dataset(tmp_path, splits=("test",))

    def test_zero_samples_gives_valid_manifest(self, tmp_path):
        spec = DatasetSpec(train=0, val=0, test=0, seed=0)
        gen_data(spec, tmp_path)
        loaded = load_dataset(tmp_path)
        assert len(loaded.train) == 0
        assert (tmp_path / "train" / "class_0").is_dir()
        assert (tmp_path / "test" / "class_1").is_dir()

    def test_an_empty_split_loads_as_a_zero_size_split(self, tmp_path):
        gen_data(DatasetSpec(train=2, val=0, test=1, image_shape=(1, 4, 5),
                             seed=0), tmp_path)
        val = load_dataset(tmp_path).val
        assert val.pixels.shape == (0, 1, 4, 5)
        assert val.pixels.dtype == np.uint8
        assert val.y.shape == (0,) and val.y.dtype == np.int64
        assert val.ids == []


class TestManifestErrors:
    """A malformed manifest line names manifest.txt, the line and the field."""

    @pytest.mark.parametrize("line,message", [
        ("sample,bogus,0,x.ppm", "unknown split 'bogus'"),
        ("sample,test", "expected sample,<split>,<label>,<path>, got 2 fields"),
        ("sample,test,-1,x.ppm", "label '-1' is not a class index"),
        ("seed 3", "expected <key>=<value> or sample,<split>,<label>,<path>, "
                   "got 'seed 3'"),
        ("image_shape=3x32", "image_shape '3x32' is not <C>x<H>x<W>"),
        ("image_shape=3x32xa", "image_shape 'a' is not an integer"),
        ("class_count=two", "class_count 'two' is not an integer"),
        ("sample,train,5,x.pgm", "label 5 is out of range for class_count 2"),
        ("class_count=1", "class_count '1' is below 2"),
        ("image_shape=3x-8x8", "image_shape '3x-8x8' has a dimension below 1"),
        ("sed=7", "unknown key 'sed'; expected class_count, image_shape or "
                  "seed"),
        # a valid value for a key the header already gave
        ("class_count=5", "repeated key 'class_count'"),
        ("image_shape=1x4x4", "repeated key 'image_shape'"),
        ("seed=4", "repeated key 'seed'"),
    ], ids=["split", "short-line", "label", "no-equals", "shape-dims",
            "shape-int", "class-count", "label-range", "class-count-range",
            "shape-range", "unknown-key", "repeated-class-count",
            "repeated-image-shape", "repeated-seed"])
    def test_bad_line_named(self, tmp_path, line, message):
        gen_data(DatasetSpec(train=2, val=0, test=0, image_shape=(1, 4, 4),
                             seed=0), tmp_path)
        manifest = tmp_path / "manifest.txt"
        lines = manifest.read_text().splitlines() + [line]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_dataset(tmp_path)
        assert str(info.value).startswith(
            f"{manifest} line {len(lines)}: {message}")

    @pytest.mark.parametrize("key", ["image_shape", "class_count"])
    def test_missing_header_named(self, tmp_path, key):
        gen_data(DatasetSpec(train=2, val=0, test=0, image_shape=(1, 4, 4),
                             seed=0), tmp_path)
        manifest = tmp_path / "manifest.txt"
        lines = [line for line in manifest.read_text().splitlines()
                 if not line.startswith(key + "=")]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_dataset(tmp_path)
        assert str(info.value) == f"{manifest}: no {key}= line"

    def test_class_count_after_the_samples_bounds_their_labels(self, tmp_path):
        gen_data(DatasetSpec(class_count=3, train=3, val=0, test=0,
                             image_shape=(1, 4, 4), seed=0), tmp_path)
        manifest = tmp_path / "manifest.txt"
        lines = manifest.read_text().splitlines()
        moved = [line for line in lines if not line.startswith("class_count=")]
        manifest.write_text("\n".join(moved + ["class_count=3"]) + "\n")
        assert load_dataset(tmp_path).class_count == 3
        manifest.write_text("\n".join(moved + ["class_count=2"]) + "\n")
        with pytest.raises(ValueError) as info:
            load_dataset(tmp_path)
        label_line = next(i for i, line in enumerate(moved, 1)
                          if line.startswith("sample,train,2,"))
        assert str(info.value) == (f"{manifest} line {label_line}: label 2 is "
                                   "out of range for class_count 2")

    def test_image_of_another_size_named(self, tmp_path):
        gen_data(DatasetSpec(train=1, val=0, test=0, image_shape=(1, 4, 4),
                             seed=0), tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(
            "image_shape=1x4x4", "image_shape=1x8x8"))
        (image,) = tmp_path.glob("train/class_*/*.pgm")
        with pytest.raises(ValueError) as info:
            load_dataset(tmp_path)
        assert str(info.value) == (f"{image}: image is 1x4x4, but {manifest} "
                                   "gives image_shape 1x8x8")

    def test_sample_id_with_comma_rejected(self, tmp_path):
        gen_data(DatasetSpec(train=1, val=0, test=0, image_shape=(1, 4, 4),
                             seed=0), tmp_path)
        manifest = tmp_path / "manifest.txt"
        (src,) = tmp_path.glob("train/class_*/*.pgm")
        src.rename(src.with_name("a,b.pgm"))
        text = manifest.read_text().replace(src.name, "a,b.pgm")
        manifest.write_text(text)
        with pytest.raises(ValueError, match="'a,b' contains a comma"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name,sid", [("...ppm", ".."), ("..ppm", ".")],
                             ids=["dot-dot", "dot"])
    def test_sample_id_that_is_not_a_path_part_rejected(self, tmp_path, name,
                                                        sid):
        # gax writes a sample's snapshots under <out>/<sample id>
        gen_data(DatasetSpec(train=0, val=0, test=1, image_shape=(3, 4, 4),
                             seed=0), tmp_path)
        manifest = tmp_path / "manifest.txt"
        (src,) = tmp_path.glob("test/class_*/*.ppm")
        bad = src.with_name(name)
        src.rename(bad)
        manifest.write_text(manifest.read_text().replace(src.name, name))
        with pytest.raises(ValueError) as info:
            load_dataset(tmp_path)
        assert str(info.value) == (
            f"{bad}: sample id {sid!r} has an empty, '.' or '..' path part, "
            "which cannot name its GAX outputs")


    def test_duplicate_sample_id_in_a_split_named(self, tmp_path):
        # gax and ax-sweep key their outputs by sample id, per split
        gen_data(DatasetSpec(train=2, val=0, test=2, image_shape=(1, 4, 4),
                             seed=0), tmp_path)
        manifest = tmp_path / "manifest.txt"
        lines = manifest.read_text().splitlines()
        first = next(i for i, line in enumerate(lines, 1)
                     if line.startswith("sample,test,"))
        rel = lines[first - 1].split(",")[3]
        name = Path(rel).name
        other = tmp_path / "test" / "other"
        other.mkdir()
        (other / name).write_bytes((tmp_path / rel).read_bytes())
        # one id in two splits is fine
        lines.append(f"sample,val,0,test/other/{name}")
        manifest.write_text("\n".join(lines) + "\n")
        assert load_dataset(tmp_path).val.ids == [Path(rel).stem]
        lines.append(f"sample,test,0,test/other/{name}")
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_dataset(tmp_path)
        assert str(info.value) == (
            f"{manifest} line {len(lines)}: sample id {Path(rel).stem!r} is "
            f"already the id of line {first} in split 'test'")
        # checked from the manifest alone, also when test is not read
        with pytest.raises(ValueError, match="is already the id of line"):
            load_dataset(tmp_path, splits=("train",))

    def test_an_id_fault_is_reported_at_its_line(self, tmp_path):
        # the manifest is read in one pass: a repeated id stops it before a
        # later line is read
        gen_data(DatasetSpec(train=2, val=0, test=0, image_shape=(1, 4, 4),
                             seed=0), tmp_path)
        manifest = tmp_path / "manifest.txt"
        lines = manifest.read_text().splitlines()
        first = next(i for i, line in enumerate(lines, 1)
                     if line.startswith("sample,train,"))
        lines += [lines[first - 1], "sed=7"]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_dataset(tmp_path)
        assert str(info.value).startswith(
            f"{manifest} line {len(lines) - 1}: sample id ")


class TestIngest:
    def _write_class_dirs(self, root, shapes, *, color=False):
        rng = np.random.default_rng(0)
        for ci, shape in enumerate(shapes):
            d = root / f"class_{ci}"
            d.mkdir(parents=True)
            for i in range(2):
                if color:
                    img = rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
                    formats.write_ppm(d / f"s{i}.ppm", img)
                else:
                    img = rng.integers(0, 256, size=shape, dtype=np.uint8)
                    formats.write_pgm(d / f"s{i}.pgm", img)

    def test_grayscale_stack_replicates_channels(self, tmp_path):
        self._write_class_dirs(tmp_path, [(8, 8), (8, 8)])
        split = ingest_images(tmp_path, (3, 8, 8))
        assert split.pixels.shape == (4, 3, 8, 8)
        np.testing.assert_array_equal(split.pixels[:, 0], split.pixels[:, 1])
        np.testing.assert_array_equal(split.pixels[:, 0], split.pixels[:, 2])

    def test_images_are_the_files_scaled(self, tmp_path):
        self._write_class_dirs(tmp_path, [(5, 6), (5, 6)], color=True)
        split = ingest_images(tmp_path, (3, 5, 6))
        assert split.pixels.dtype == np.uint8
        for i, sid in enumerate(split.ids):
            img = formats.read_pnm(tmp_path / f"{sid}.ppm")
            assert split.images(i).tobytes() == \
                (np.moveaxis(img, 2, 0) / 255.0).tobytes()

    def test_same_size_resize_only_rescales(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        d = tmp_path / "class_a"
        d.mkdir()
        formats.write_ppm(d / "x.ppm", img)
        split = ingest_images(tmp_path, (3, 6, 6))
        np.testing.assert_array_equal(split.images(0),
                                      np.moveaxis(img, 2, 0) / 255.0)

    def test_mixed_sizes_resized_to_target(self, tmp_path):
        self._write_class_dirs(tmp_path, [(5, 7), (12, 4)], color=True)
        split = ingest_images(tmp_path, (3, 8, 8))
        assert split.pixels.shape == (4, 3, 8, 8)
        images = split.images(slice(None))
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_corrupt_file_skipped_with_warning(self, tmp_path):
        self._write_class_dirs(tmp_path, [(4, 4), (4, 4)])
        bad = tmp_path / "class_0" / "bad.pgm"
        bad.write_bytes(b"not an image")
        with pytest.warns(UserWarning) as record:
            split = ingest_images(tmp_path, (1, 4, 4))
        assert len(split) == 4
        assert [str(w.message) for w in record] == [
            f"skipping {bad}: unsupported PNM magic b'not'"]

    def test_zero_size_image_skipped_with_warning(self, tmp_path):
        self._write_class_dirs(tmp_path, [(4, 4), (4, 4)])
        bad = tmp_path / "class_0" / "empty.pgm"
        bad.write_bytes(b"P5\n0 4\n255\n")
        with pytest.warns(UserWarning) as record:
            split = ingest_images(tmp_path, (1, 8, 8))
        assert len(split) == 4
        assert [str(w.message) for w in record] == [
            f"skipping {bad}: width 0 is below 1"]

    @pytest.mark.parametrize("name", ["img,x.pgm", "img\nx.pgm"],
                             ids=["comma", "line-break"])
    def test_sample_id_the_csvs_cannot_hold_rejected(self, tmp_path, name):
        self._write_class_dirs(tmp_path, [(4, 4)])
        bad = tmp_path / "class_0" / name
        (tmp_path / "class_0" / "s0.pgm").rename(bad)
        with pytest.raises(ValueError) as info:
            ingest_images(tmp_path, (1, 4, 4))
        assert str(info.value).startswith(f"{bad}: sample id ")
        assert "comma or a line break" in str(info.value)

    @pytest.mark.parametrize("name,sid", [("...ppm", "class_0/.."),
                                          ("..ppm", "class_0/.")],
                             ids=["dot-dot", "dot"])
    def test_sample_id_that_is_not_a_path_part_rejected(self, tmp_path, name,
                                                        sid):
        self._write_class_dirs(tmp_path, [(4, 4)], color=True)
        bad = tmp_path / "class_0" / name
        (tmp_path / "class_0" / "s0.ppm").rename(bad)
        with pytest.raises(ValueError) as info:
            ingest_images(tmp_path, (3, 4, 4))
        assert str(info.value) == (
            f"{bad}: sample id {sid!r} has an empty, '.' or '..' path part, "
            "which cannot name its GAX outputs")

    def test_two_files_with_one_id_named(self, tmp_path):
        self._write_class_dirs(tmp_path, [(4, 4)])
        pgm = tmp_path / "class_0" / "s0.pgm"
        ppm = pgm.with_suffix(".ppm")
        formats.write_ppm(ppm, np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(ValueError) as info:
            ingest_images(tmp_path, (3, 4, 4))
        assert str(info.value) == \
            f"{pgm} and {ppm} both give sample id 'class_0/s0'"

    def test_empty_class_folder_is_error(self, tmp_path):
        self._write_class_dirs(tmp_path, [(4, 4)])
        (tmp_path / "class_empty").mkdir()
        with pytest.raises(ValueError, match="empty class"):
            ingest_images(tmp_path, (1, 4, 4))

    def test_class_names_follow_directory_order(self, tmp_path):
        self._write_class_dirs(tmp_path, [(4, 4), (4, 4)])
        split = ingest_images(tmp_path, (1, 4, 4))
        assert split.ids == ["class_0/s0", "class_0/s1",
                             "class_1/s0", "class_1/s1"]
        np.testing.assert_array_equal(split.y, [0, 0, 1, 1])

    def test_gray_and_color_images_meet_at_three_channels(self, tmp_path):
        self._write_class_dirs(tmp_path, [(4, 4)])
        rgb = np.random.default_rng(1).integers(0, 256, size=(4, 4, 3),
                                                dtype=np.uint8)
        (tmp_path / "class_1").mkdir()
        formats.write_ppm(tmp_path / "class_1" / "c.ppm", rgb)
        split = ingest_images(tmp_path, (3, 4, 4))
        assert split.ids == ["class_0/s0", "class_0/s1", "class_1/c"]
        np.testing.assert_array_equal(split.images(2),
                                      np.moveaxis(rgb, 2, 0) / 255.0)
        np.testing.assert_array_equal(split.pixels[0, 0], split.pixels[0, 2])

    @pytest.mark.parametrize("color, shape", [(True, (1, 4, 4)),
                                              (False, (2, 4, 4))],
                             ids=["color-into-one", "gray-into-two"])
    def test_channel_count_the_shape_cannot_take_named(self, tmp_path, color,
                                                       shape):
        self._write_class_dirs(tmp_path, [(4, 4)], color=color)
        first = tmp_path / "class_0" / ("s0.ppm" if color else "s0.pgm")
        with pytest.raises(ValueError) as info:
            ingest_images(tmp_path, shape)
        assert str(info.value) == \
            f"{first}: {3 if color else 1} channels, expected {shape[0]}"

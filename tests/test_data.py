"""Synthetic data generation, disk layout, and image ingestion."""

import numpy as np
import pytest

from gaxkit import formats
from gaxkit.data import (Dataset, DatasetSpec, gen_data, ingest_images,
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


class TestBlobs:
    def test_values_in_unit_interval(self):
        ds = make_blobs(DatasetSpec(train=20, val=10, test=10, seed=1))
        for split in (ds.train, ds.val, ds.test):
            assert split.x.min() >= 0.0 and split.x.max() <= 1.0

    def test_deterministic_per_seed(self):
        spec = DatasetSpec(train=10, val=5, test=5, seed=7)
        a, b = make_blobs(spec), make_blobs(spec)
        np.testing.assert_array_equal(a.train.x, b.train.x)
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
        result = train(probe, ds,
                       TrainConfig(target_val_accuracy=None,
                                   max_iterations=300, seed=0))
        assert result.val_accuracy > 0.9

    def test_balanced_labels(self):
        ds = make_blobs(DatasetSpec(class_count=4, train=40, val=8, test=8,
                                    seed=2))
        counts = np.bincount(ds.train.y, minlength=4)
        np.testing.assert_array_equal(counts, [10, 10, 10, 10])


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
        np.testing.assert_array_equal(loaded.train.x, ds.train.x)
        np.testing.assert_array_equal(loaded.train.y, ds.train.y)
        assert loaded.train.ids == ds.train.ids
        assert loaded.class_count == 3

    def test_single_channel_uses_pgm(self, tmp_path):
        spec = DatasetSpec(train=2, val=0, test=0, image_shape=(1, 6, 6),
                           seed=0)
        gen_data(spec, tmp_path)
        assert list(tmp_path.glob("train/class_*/*.pgm"))

    def test_zero_samples_gives_valid_manifest(self, tmp_path):
        spec = DatasetSpec(train=0, val=0, test=0, seed=0)
        gen_data(spec, tmp_path)
        loaded = load_dataset(tmp_path)
        assert len(loaded.train) == 0
        assert (tmp_path / "train" / "class_0").is_dir()
        assert (tmp_path / "test" / "class_1").is_dir()


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
    ], ids=["split", "short-line", "label", "no-equals", "shape-dims",
            "shape-int", "class-count", "label-range", "class-count-range",
            "shape-range"])
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
        split = ingest_images(tmp_path, (8, 8), grayscale_stack=True)
        assert split.x.shape == (4, 3, 8, 8)
        np.testing.assert_array_equal(split.x[:, 0], split.x[:, 1])
        np.testing.assert_array_equal(split.x[:, 0], split.x[:, 2])

    def test_same_size_resize_only_rescales(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        d = tmp_path / "class_a"
        d.mkdir()
        formats.write_ppm(d / "x.ppm", img)
        split = ingest_images(tmp_path, (6, 6))
        np.testing.assert_array_equal(split.x[0],
                                      np.moveaxis(img, 2, 0) / 255.0)

    def test_mixed_sizes_resized_to_target(self, tmp_path):
        self._write_class_dirs(tmp_path, [(5, 7), (12, 4)], color=True)
        split = ingest_images(tmp_path, (8, 8))
        assert split.x.shape == (4, 3, 8, 8)
        assert split.x.min() >= 0.0 and split.x.max() <= 1.0

    def test_corrupt_file_skipped_with_warning(self, tmp_path):
        self._write_class_dirs(tmp_path, [(4, 4), (4, 4)])
        bad = tmp_path / "class_0" / "bad.pgm"
        bad.write_bytes(b"not an image")
        with pytest.warns(UserWarning) as record:
            split = ingest_images(tmp_path, (4, 4))
        assert len(split) == 4
        assert [str(w.message) for w in record] == [
            f"skipping {bad}: unsupported PNM magic b'not'"]

    def test_zero_size_image_skipped_with_warning(self, tmp_path):
        self._write_class_dirs(tmp_path, [(4, 4), (4, 4)])
        bad = tmp_path / "class_0" / "empty.pgm"
        bad.write_bytes(b"P5\n0 4\n255\n")
        with pytest.warns(UserWarning) as record:
            split = ingest_images(tmp_path, (8, 8))
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
            ingest_images(tmp_path, (4, 4))
        assert str(info.value).startswith(f"{bad}: sample id ")
        assert "comma or a line break" in str(info.value)

    def test_empty_class_folder_is_error(self, tmp_path):
        self._write_class_dirs(tmp_path, [(4, 4)])
        (tmp_path / "class_empty").mkdir()
        with pytest.raises(ValueError, match="empty class"):
            ingest_images(tmp_path, (4, 4))

    def test_class_names_follow_directory_order(self, tmp_path):
        self._write_class_dirs(tmp_path, [(4, 4), (4, 4)])
        split = ingest_images(tmp_path, (4, 4))
        assert split.class_names == ["class_0", "class_1"]
        np.testing.assert_array_equal(np.unique(split.y), [0, 1])

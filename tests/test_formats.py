"""Round-trips and byte layouts for every file format."""

import re

import numpy as np
import pytest

from gaxkit.attribution import Heatmap
from gaxkit import formats
from gaxkit.models import MiniConvNet


class TestPnm:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(7, 5), dtype=np.uint8)
        p = tmp_path / "a.pgm"
        formats.write_pgm(p, img)
        np.testing.assert_array_equal(formats.read_pnm(p), img)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
        p = tmp_path / "a.ppm"
        formats.write_ppm(p, img)
        np.testing.assert_array_equal(formats.read_pnm(p), img)

    def test_reader_skips_comments(self, tmp_path):
        p = tmp_path / "c.pgm"
        raster = bytes(range(6))
        p.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + raster)
        img = formats.read_pnm(p)
        assert img.shape == (2, 3)
        assert img.tobytes() == raster

    def test_truncated_raster_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\nshort")
        with pytest.raises(ValueError, match="truncated"):
            formats.read_pnm(p)

    def test_unknown_magic_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(ValueError, match="magic"):
            formats.read_pnm(p)

    @pytest.mark.parametrize("raw,message", [
        (b"", "truncated PNM header"),
        (b"P5\n4 4\n", "truncated PNM header"),
        (b"P5\n3x 4\n255\n", "width '3x' is not an integer"),
        (b"P6\n4 4\n65535\n", "only maxval 255 supported, got 65535"),
        (b"P5\n4 4\n255\nshort", "truncated raster"),
        (b"P5\n0 4\n255\n", "width 0 is below 1"),
        (b"P6\n4 0\n255\n", "height 0 is below 1"),
        (b"P5\n-2 4\n255\n", "width -2 is below 1"),
    ], ids=["empty", "no-maxval", "width", "maxval", "raster", "zero-width",
            "zero-height", "negative-width"])
    def test_bad_file_named(self, tmp_path, raw, message):
        p = tmp_path / "bad.pgm"
        p.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            formats.read_pnm(p)
        assert str(info.value) == f"{p}: {message}"


class TestRawTensor:
    def test_heatmap_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(3, 5, 4)).astype(np.float32)
        p = tmp_path / "h.gaxh"
        formats.write_gaxh(p, values)
        got = formats.read_gaxh(p)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, values.astype(np.float64))

    def test_heatmap_magic(self, tmp_path):
        p = tmp_path / "h.gaxh"
        formats.write_gaxh(p, np.zeros((2, 2)))
        assert p.read_bytes()[:4] == b"GAXH"
        with pytest.raises(ValueError):
            formats.read_gaxm(p)

    def test_weights_round_trip_preserves_order(self, tmp_path):
        rng = np.random.default_rng(3)
        named = {
            "conv1.w": rng.normal(size=(4, 2, 3, 3)).astype(np.float32),
            "conv1.b": rng.normal(size=4).astype(np.float32),
            "meta": np.array([3.0, 8.0, 8.0], dtype=np.float32),
        }
        p = tmp_path / "w.gaxm"
        formats.write_gaxm(p, named)
        got = formats.read_gaxm(p)
        assert list(got) == list(named)
        for k in named:
            np.testing.assert_array_equal(got[k], named[k].astype(np.float64))

    def test_weights_magic_and_version(self, tmp_path):
        p = tmp_path / "w.gaxm"
        formats.write_gaxm(p, {"a": np.zeros(1)})
        raw = p.read_bytes()
        assert raw[:4] == b"GAXM"
        assert int.from_bytes(raw[4:6], "little") == 1


def _array_fields(pos, label, arr):
    """(offset, field) of one packed array's rank, dims and values."""
    return [(pos, f"{label} rank"), (pos + 4, f"{label} dims"),
            (pos + 4 + 4 * arr.ndim, f"{label} values")]


class TestTruncation:
    """A file cut anywhere fails with a ValueError naming the file, the
    field being read and its byte offset."""

    @staticmethod
    def _assert_every_cut_named(path, fields, read):
        raw = path.read_bytes()
        cut = path.with_name("cut" + path.suffix)
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            offset, field = max(f for f in fields if f[0] <= n)
            with pytest.raises(ValueError) as info:
                read(cut)
            msg = str(info.value)
            assert msg.startswith(f"{cut} is truncated: {field} needs "), msg
            assert msg.endswith(f" at byte {offset}, {n - offset} left"), msg

    def test_every_cut_of_a_saved_model(self, tmp_path):
        path = tmp_path / "net.gaxm"
        MiniConvNet(input_shape=(1, 4, 4), channels=(2, 2), seed=0).save(path)
        fields, pos = [(0, "magic"), (4, "version"), (6, "entry count")], 10
        for i, (name, arr) in enumerate(formats.read_gaxm(path).items()):
            fields += [(pos, f"entry {i} name length"),
                       (pos + 4, f"entry {i} name")]
            pos += 4 + len(name.encode("utf-8"))
            fields += _array_fields(pos, repr(name), arr)
            pos += 4 + 4 * arr.ndim + 4 * arr.size
        assert pos == path.stat().st_size
        self._assert_every_cut_named(path, fields, formats.read_gaxm)

    def test_every_cut_of_a_saved_heatmap(self, tmp_path):
        path = tmp_path / "h.gaxh"
        values = np.arange(6.0).reshape(2, 3)
        formats.write_gaxh(path, values)
        fields = [(0, "magic"), (4, "version"),
                  *_array_fields(6, "heatmap", values)]
        self._assert_every_cut_named(path, fields, formats.read_gaxh)


# both files end with a (2, 3) array: rank, two dims, six values
def _weights_file(path):
    formats.write_gaxm(path, {"a": np.arange(3.0),
                              "b": np.arange(6.0).reshape(2, 3)})
    return formats.read_gaxm, "weight"


def _heatmap_file(path):
    formats.write_gaxh(path, np.arange(6.0).reshape(2, 3))
    return formats.read_gaxh, "heatmap"


@pytest.mark.parametrize("make", [_weights_file, _heatmap_file],
                         ids=["gaxm", "gaxh"])
class TestCorruption:
    """A corrupt weight or heatmap file fails with one ValueError that
    starts with the file name."""

    @staticmethod
    def _error(path, read, raw) -> str:
        path.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            read(path)
        return str(info.value)

    def test_bad_magic(self, tmp_path, make):
        path = tmp_path / "f.bin"
        read, kind = make(path)
        raw = b"GAXX" + path.read_bytes()[4:]
        assert self._error(path, read, raw) == f"{path} is not a {kind} file"

    def test_bad_version(self, tmp_path, make):
        path = tmp_path / "f.bin"
        read, kind = make(path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (2).to_bytes(2, "little")
        assert self._error(path, read, bytes(raw)) == \
            f"{path}: unsupported {kind} format version 2"

    @pytest.mark.parametrize("extra", [b"\0", b"GAXH" * 5])
    def test_trailing_bytes(self, tmp_path, make, extra):
        path = tmp_path / "f.bin"
        read, _ = make(path)
        raw = path.read_bytes() + extra
        assert self._error(path, read, raw) == \
            f"{path}: {len(extra)} trailing bytes"

    @pytest.mark.parametrize("field", ["rank", "dims"])
    def test_huge_rank_or_dims(self, tmp_path, make, field):
        # the last array's rank (or its first dim) set to 2**32 - 1: the
        # reader must report the missing bytes, not try to allocate them
        path = tmp_path / "f.bin"
        read, _ = make(path)
        raw = bytearray(path.read_bytes())
        rank_at = len(raw) - (4 + 4 * 2 + 4 * 6)
        assert int.from_bytes(raw[rank_at: rank_at + 4], "little") == 2
        at = rank_at if field == "rank" else rank_at + 4
        raw[at: at + 4] = b"\xff" * 4
        msg = self._error(path, read, bytes(raw))
        assert msg.startswith(f"{path} is truncated: "), msg


class TestHeatmapRendering:
    def test_zero_map_renders_white(self, tmp_path):
        rgb = formats.heatmap_to_rgb(np.zeros((3, 3)))
        assert (rgb == 255).all()

    def test_colormap_endpoints(self):
        rgb = formats.heatmap_to_rgb(np.array([[1.0, -1.0, 0.0]]))
        np.testing.assert_array_equal(rgb[0, 0], [255, 0, 0])    # pure red
        np.testing.assert_array_equal(rgb[0, 1], [0, 0, 255])    # pure blue
        np.testing.assert_array_equal(rgb[0, 2], [255, 255, 255])

    def test_export_writes_all_files(self, tmp_path):
        values = np.zeros((3, 4, 4))
        values[0, 0, 0] = 1.0
        h = Heatmap(values, "saliency", 1, normalized=True)
        out = formats.export_heatmap(h, tmp_path / "sample")
        assert out["raw"].exists()
        assert len(out["images"]) == 3
        np.testing.assert_array_equal(formats.read_gaxh(out["raw"]), values)
        sidecar = out["sidecar"].read_text()
        assert "method=saliency" in sidecar
        assert "abs_max=1" in sidecar
        # channel 0 has the positive peak -> pure red at (0, 0)
        img = formats.read_pnm(out["images"][0])
        np.testing.assert_array_equal(img[0, 0], [255, 0, 0])

    def test_export_zero_map(self, tmp_path):
        h = Heatmap(np.zeros((2, 2)), "saliency", 0)
        out = formats.export_heatmap(h, tmp_path / "zero")
        img = formats.read_pnm(out["images"][0])
        assert (img == 255).all()
        assert "abs_max=0" in out["sidecar"].read_text()


@pytest.mark.parametrize("name,write", [
    ("a.csv", lambda p: formats.write_lines(p, ["new", "lines"])),
    ("a.pgm", lambda p: formats.write_pgm(p, np.zeros((4, 4), np.uint8))),
    ("a.gaxh", lambda p: formats.write_gaxh(p, np.zeros((2, 3)))),
    ("a.gaxm", lambda p: formats.write_gaxm(p, {"w": np.zeros(3)})),
], ids=["lines", "pnm", "gaxh", "gaxm"])
def test_write_cut_midway_keeps_the_old_file(tmp_path, monkeypatch, name,
                                             write):
    path = tmp_path / name
    path.write_bytes(b"old contents")
    real = formats.Path.write_bytes

    def cut(self, data):
        real(self, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(formats.Path, "write_bytes", cut)
    # the error names the path written, not the temporary file
    with pytest.raises(OSError, match=f"^{re.escape(str(path))}: disk full$"):
        write(path)
    monkeypatch.undo()
    assert path.read_bytes() == b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == [name]
    write(path)
    assert path.read_bytes() != b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == [name]

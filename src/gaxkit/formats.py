"""Dependency-free file formats: PGM/PPM images, raw heatmaps, model weights,
the text writers every CSV, manifest, sidecar and log goes through, and
the UTF-8 line reader for the manifests and scores CSVs read back.

Binary layouts (all integers little-endian):

* Weight file (``.gaxm``): magic ``GAXM``, version u16, entry count u32,
  then per entry: name length u32 + UTF-8 name, rank u32, dims u32 each,
  float32 values in row-major order.
* Heatmap file (``.gaxh``): magic ``GAXH``, version u16, rank u32, dims
  u32 each, float32 values in row-major order.
* Images: binary PGM (``P5``) and PPM (``P6``) with maxval 255.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from pathlib import Path

import numpy as np

WEIGHTS_MAGIC = b"GAXM"
HEATMAP_MAGIC = b"GAXH"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# text

def format_value(v) -> str:
    """One text field: ``true``/``false``, a float to 9 significant digits
    (``np.float64`` included), anything else as ``str``."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def parse_number(text, kind, where, field: str):
    """``kind(text)`` for ``kind`` int or float; a bad value raises one
    ValueError naming ``where`` (file and line) and ``field``."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: {field} {text!r} is not {noun}") from None


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; a byte that is not UTF-8 raises one
    ValueError naming the file and its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the text before the byte decodes; "x" stands in for the byte
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ValueError(f"{path} line {line}: byte 0x{data[exc.start]:02x} "
                         "is not UTF-8") from None


def _write_atomic(path, payload: bytes) -> None:
    """Write ``payload`` to a temporary file beside ``path``, then move it
    into place: a write that fails midway leaves any old file intact.  An
    ``OSError`` names ``path``, not the temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException as exc:
        # under a path that is not a directory the unlink fails as well
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(f"{path}: {exc.strerror or exc}") from exc
        raise


def write_lines(path, lines) -> None:
    """Write ``lines`` as UTF-8, each one ended by a LF."""
    _write_atomic(path, "".join(f"{line}\n" for line in lines)
                  .encode("utf-8"))


def write_rows(path, header: str, rows) -> None:
    """A CSV: the header line, then each row's formatted fields joined by
    commas."""
    write_lines(path, [header, *(",".join(map(format_value, row))
                                 for row in rows)])


# ---------------------------------------------------------------------------
# PGM / PPM

def write_pgm(path, gray: np.ndarray) -> None:
    """Write a (H, W) uint8 array as binary PGM."""
    a = np.asarray(gray)
    if a.ndim != 2:
        raise ValueError(f"write_pgm: expected (H, W), got {a.shape}")
    _write_pnm(path, b"P5", a)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write a (H, W, 3) uint8 array as binary PPM."""
    a = np.asarray(rgb)
    if a.ndim != 3 or a.shape[2] != 3:
        raise ValueError(f"write_ppm: expected (H, W, 3), got {a.shape}")
    _write_pnm(path, b"P6", a)


def _write_pnm(path, magic: bytes, a: np.ndarray) -> None:
    h, w = a.shape[:2]
    _write_atomic(path, magic + f"\n{w} {h}\n255\n".encode("ascii")
                  + a.astype(np.uint8).tobytes())


def _read_pnm_token(data: bytes, pos: int, path) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines between header fields
    while pos < len(data):
        c = data[pos: pos + 1]
        if c == b"#":
            while pos < len(data) and data[pos: pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos: pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError(f"{path}: truncated PNM header")
    return data[start:pos], pos


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM or PPM; returns uint8 (H, W) or (H, W, 3)."""
    data = Path(path).read_bytes()
    magic, pos = _read_pnm_token(data, 0, path)
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"{path}: unsupported PNM magic {magic!r}")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _read_pnm_token(data, pos, path)
        fields.append(parse_number(tok.decode("latin-1"), int, path, name))
        if name != "maxval" and fields[-1] < 1:
            raise ValueError(f"{path}: {name} {fields[-1]} is below 1")
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    channels = 1 if magic == b"P5" else 3
    need = w * h * channels
    raster = data[pos: pos + need]
    if len(raster) != need:
        raise ValueError(f"{path}: truncated raster")
    a = np.frombuffer(raster, dtype=np.uint8)
    return a.reshape(h, w) if channels == 1 else a.reshape(h, w, 3)


# ---------------------------------------------------------------------------
# raw tensors and weights

def _pack_array(arr: np.ndarray) -> bytes:
    a = np.ascontiguousarray(arr, dtype="<f4")
    parts = [struct.pack("<I", a.ndim)]
    parts += [struct.pack("<I", d) for d in a.shape]
    parts.append(a.tobytes())
    return b"".join(parts)


def _take(data: bytes, pos: int, size: int, path, field: str):
    """The ``size`` bytes at ``pos`` and the offset after them; a short file
    raises ValueError naming the file, the offset and the field."""
    if pos + size > len(data):
        raise ValueError(f"{path} is truncated: {field} needs {size} bytes "
                         f"at byte {pos}, {len(data) - pos} left")
    return data[pos: pos + size], pos + size


def _unpack_array(data: bytes, pos: int, path, label: str):
    raw, pos = _take(data, pos, 4, path, f"{label} rank")
    (rank,) = struct.unpack("<I", raw)
    raw, pos = _take(data, pos, 4 * rank, path, f"{label} dims")
    shape = struct.unpack(f"<{rank}I", raw)
    raw, pos = _take(data, pos, 4 * math.prod(shape), path, f"{label} values")
    a = np.frombuffer(raw, dtype="<f4")
    # a signalling NaN becomes a quiet one; the caller judges non-finite
    # values, so the cast raises no warning
    with np.errstate(invalid="ignore"):
        return a.reshape(shape).astype(np.float64), pos


def _read_header(path, magic: bytes, kind: str) -> tuple[bytes, int]:
    """File bytes and the offset after a checked magic and version."""
    data = Path(path).read_bytes()
    raw, pos = _take(data, 0, 4, path, "magic")
    if raw != magic:
        raise ValueError(f"{path} is not a {kind} file")
    raw, pos = _take(data, pos, 2, path, "version")
    (version,) = struct.unpack("<H", raw)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported {kind} format version {version}")
    return data, pos


def _check_end(data: bytes, pos: int, path) -> None:
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")


def write_gaxh(path, values: np.ndarray) -> None:
    """Write a raw heatmap tensor (float32 storage)."""
    payload = HEATMAP_MAGIC + struct.pack("<H", FORMAT_VERSION)
    payload += _pack_array(np.asarray(values))
    _write_atomic(path, payload)


def read_gaxh(path) -> np.ndarray:
    data, pos = _read_header(path, HEATMAP_MAGIC, "heatmap")
    arr, pos = _unpack_array(data, pos, path, "heatmap")
    _check_end(data, pos, path)
    return arr


def write_gaxm(path, named: dict[str, np.ndarray]) -> None:
    """Write named weight arrays (float32 storage), preserving order."""
    parts = [WEIGHTS_MAGIC, struct.pack("<H", FORMAT_VERSION),
             struct.pack("<I", len(named))]
    for name, arr in named.items():
        nb = name.encode("utf-8")
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(_pack_array(np.asarray(arr)))
    _write_atomic(path, b"".join(parts))


def read_gaxm(path) -> dict[str, np.ndarray]:
    data, pos = _read_header(path, WEIGHTS_MAGIC, "weight")
    raw, pos = _take(data, pos, 4, path, "entry count")
    (count,) = struct.unpack("<I", raw)
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        raw, pos = _take(data, pos, 4, path, f"entry {i} name length")
        (nlen,) = struct.unpack("<I", raw)
        raw, pos = _take(data, pos, nlen, path, f"entry {i} name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: entry {i} name {raw!r} is not "
                             "UTF-8") from None
        if name in out:
            raise ValueError(f"{path}: entry {name!r} is repeated")
        out[name], pos = _unpack_array(data, pos, path, repr(name))
    _check_end(data, pos, path)
    return out


# ---------------------------------------------------------------------------
# heatmap visualization

def heatmap_to_rgb(values: np.ndarray, abs_max: float) -> np.ndarray:
    """Diverging color map: positive red, negative blue, zero white.

    ``values`` is a ``(C, H, W)`` stack; the result is its shape plus a
    last axis of 3, uint8, and each plane renders as it would in a stack of
    its own.  The ramp is scaled by ``abs_max``, so values of that magnitude
    or beyond render as pure red/blue; a zero ``abs_max`` renders all white.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 3:
        raise ValueError("heatmap_to_rgb: expected (C, H, W) values, got "
                         f"shape {v.shape}")
    rgb = np.full(v.shape + (3,), 255, dtype=np.uint8)
    if abs_max == 0.0:
        return rgb
    ramp = np.rint(255.0 * (1.0 - np.clip(np.abs(v) / abs_max, 0.0, 1.0)))
    ramp = ramp.astype(np.uint8)
    pos = v > 0
    neg = v < 0
    # masked copies: a boolean-index assignment per channel is 5x slower
    np.copyto(rgb[..., 0], ramp, where=neg)
    np.copyto(rgb[..., 1], ramp, where=pos | neg)
    np.copyto(rgb[..., 2], ramp, where=pos)
    return rgb


def export_heatmap(heatmap, stem) -> dict[str, object]:
    """Write a (C, H, W) heatmap as raw tensor + per-channel PPMs + sidecar.

    ``stem`` is a path without extension; produces ``<stem>.gaxh``,
    ``<stem>.ch<i>.ppm`` (one per channel; a single ``<stem>.ppm`` for a
    one-channel map) and ``<stem>.txt``, and returns their paths.  Another
    shape raises before a directory or file is made.
    """
    values = np.asarray(heatmap.values, dtype=np.float64)
    abs_max = float(np.abs(values).max())
    planes = heatmap_to_rgb(values, abs_max)
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    raw_path = stem.with_name(stem.name + ".gaxh")
    write_gaxh(raw_path, values)
    image_paths = []
    for i, rgb in enumerate(planes):
        suffix = ".ppm" if len(planes) == 1 else f".ch{i}.ppm"
        p = stem.with_name(stem.name + suffix)
        write_ppm(p, rgb)
        image_paths.append(p)

    sidecar = stem.with_name(stem.name + ".txt")
    fields = {"method": heatmap.method, "target_class": heatmap.target_class,
              "normalized": heatmap.normalized, "abs_max": abs_max,
              "shape": "x".join(str(d) for d in values.shape)}
    write_lines(sidecar, (f"{k}={format_value(v)}" for k, v in fields.items()))
    return {"raw": raw_path, "images": image_paths, "sidecar": sidecar}

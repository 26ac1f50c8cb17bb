"""Dataset generation and ingestion.

The synthetic generator places a class-dependent intensity blob on a noisy
background; the signal location separates the classes, so a linear probe
already learns them.  A split holds its pixels as uint8, as the image files
on disk do, so in-memory data and files written to disk carry identical
values; ``Split.images`` scales the rows a caller reads to float64 in
[0, 1], and is the one place the 255 scale appears.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .formats import (parse_number, read_lines, read_pnm, write_lines,
                      write_pgm, write_ppm)

SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class DatasetSpec:
    class_count: int = 2
    train: int = 400
    val: int = 100
    test: int = 250
    image_shape: tuple[int, int, int] = (3, 32, 32)
    seed: int = 0

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if min(self.train, self.val, self.test) < 0:
            raise ValueError("split sizes must be non-negative")
        if len(self.image_shape) != 3 or min(self.image_shape) < 1:
            raise ValueError(f"bad image shape {self.image_shape}")


@dataclass
class Split:
    pixels: np.ndarray             # (N, C, H, W) uint8
    y: np.ndarray                  # (N,) int64
    ids: list[str]

    def __post_init__(self):
        if self.pixels.dtype != np.uint8 or self.pixels.ndim != 4:
            raise ValueError("Split.pixels must be an (N, C, H, W) uint8 "
                             f"array, got {self.pixels.ndim}-D "
                             f"{self.pixels.dtype}")
        for name in ("y", "ids"):
            if len(getattr(self, name)) != len(self.pixels):
                raise ValueError(
                    f"Split.{name} has {len(getattr(self, name))} entries "
                    f"for {len(self.pixels)} images")

    def __len__(self) -> int:
        return len(self.y)

    def images(self, index) -> np.ndarray:
        """The images ``pixels[index]`` selects, as float64 in [0, 1]."""
        return self.pixels[index] / 255.0


@dataclass
class Dataset:
    train: Split | None            # None: a split ``load_dataset`` skipped
    val: Split | None
    test: Split | None
    class_count: int
    image_shape: tuple[int, int, int]
    seed: int


def _quantize(x: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(x, 0.0, 1.0) * 255.0).astype(np.uint8)


def make_blobs(spec: DatasetSpec, *, blob_amplitude: float = 0.75,
               noise_scale: float = 0.25) -> Dataset:
    """Generate the class-conditional blob dataset described by ``spec``."""
    rng = np.random.default_rng(spec.seed)
    c, h, w = spec.image_shape
    sigma = 0.18 * min(h, w)
    radius = 0.28 * min(h, w)
    angles = 2.0 * np.pi * np.arange(spec.class_count) / spec.class_count
    centers = np.stack([h / 2.0 + radius * np.sin(angles),
                        w / 2.0 + radius * np.cos(angles)], axis=1)
    rows, cols = np.mgrid[0:h, 0:w]
    channel_gain = np.linspace(1.0, 0.8, c)[:, None, None]

    splits = {}
    for split_name, count in (("train", spec.train), ("val", spec.val),
                              ("test", spec.test)):
        labels = rng.permutation(np.arange(count) % spec.class_count)
        pixels = np.empty((count, c, h, w), dtype=np.uint8)
        for i, label in enumerate(labels):
            cy, cx = centers[label]
            cy += rng.uniform(-2, 2)
            cx += rng.uniform(-2, 2)
            amp = blob_amplitude * rng.uniform(0.85, 1.15)
            blob = amp * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2)
                                / (2.0 * sigma * sigma))
            noise = rng.uniform(0.0, noise_scale, size=(c, h, w))
            pixels[i] = _quantize(blob[None] * channel_gain + noise)
        splits[split_name] = Split(
            pixels, labels.astype(np.int64),
            [f"{split_name}_{i:05d}" for i in range(count)])
    return Dataset(splits["train"], splits["val"], splits["test"],
                   spec.class_count, spec.image_shape, spec.seed)


def write_dataset(ds: Dataset, out_dir) -> Path:
    """Write one image file per sample under per-class split directories.

    3-channel images become PPM, 1-channel PGM.  Returns the manifest path.
    """
    out = Path(out_dir)
    c, h, w = ds.image_shape
    if c not in (1, 3):
        raise ValueError(f"cannot write {c}-channel images; image_shape "
                         "needs 1 (PGM) or 3 (PPM) channels")
    ext, write = ("ppm", write_ppm) if c == 3 else ("pgm", write_pgm)
    lines = [
        f"class_count={ds.class_count}",
        f"image_shape={c}x{h}x{w}",
        f"seed={ds.seed}",
    ]
    for split_name in SPLITS:
        split = getattr(ds, split_name)
        for label in range(ds.class_count):
            (out / split_name / f"class_{label}").mkdir(parents=True,
                                                        exist_ok=True)
        for i, sid in enumerate(split.ids):
            label = int(split.y[i])
            img = split.pixels[i]
            rel = f"{split_name}/class_{label}/{sid}.{ext}"
            write(out / rel, np.moveaxis(img, 0, 2) if c == 3 else img[0])
            lines.append(f"sample,{split_name},{label},{rel}")
    manifest = out / "manifest.txt"
    write_lines(manifest, lines)
    return manifest


def load_dataset(root, splits=SPLITS) -> Dataset:
    """Load a dataset previously written by :func:`write_dataset`.

    The whole manifest is parsed and checked in one pass (header, fields
    and sample ids, each at its line; labels after the pass), but images
    are read only for the splits named in ``splits``; every other split of
    the result is ``None``.
    """
    root = Path(root)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.txt under {root}")
    header: dict[str, str] = {}
    # split -> sample id -> (label, image path, manifest line number)
    samples = {s: {} for s in SPLITS}
    for lineno, line in enumerate(read_lines(manifest), 1):
        if not line.strip():
            continue
        where = f"{manifest} line {lineno}"
        if line.startswith("sample,"):
            parts = line.split(",", maxsplit=3)
            if len(parts) != 4:
                raise ValueError(f"{where}: expected sample,<split>,<label>,"
                                 f"<path>, got {len(parts)} fields")
            _, split_name, label, rel = parts
            if split_name not in samples:
                raise ValueError(f"{where}: unknown split {split_name!r}; "
                                 f"expected one of {SPLITS}")
            if not label.isdecimal():
                raise ValueError(f"{where}: label {label!r} is not a "
                                 "class index")
            # the id is the file name's stem: no image is read to check it
            path = root / rel
            sid = _sample_id(path.stem, path)
            entries = samples[split_name]
            if sid in entries:
                raise ValueError(
                    f"{where}: sample id {sid!r} is already the id of line "
                    f"{entries[sid][2]} in split {split_name!r}")
            entries[sid] = (int(label), rel, lineno)
        else:
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{where}: expected <key>=<value> or "
                                 f"sample,<split>,<label>,<path>, got {line!r}")
            if key == "image_shape":
                dims = value.split("x")
                if len(dims) != 3:
                    raise ValueError(f"{where}: image_shape {value!r} is not "
                                     "<C>x<H>x<W>")
                parsed = tuple(parse_number(d, int, where, key) for d in dims)
                if min(parsed) < 1:
                    raise ValueError(f"{where}: image_shape {value!r} has a "
                                     "dimension below 1")
            elif key in ("class_count", "seed"):
                parsed = parse_number(value, int, where, key)
                if key == "class_count" and parsed < 2:
                    raise ValueError(f"{where}: class_count {value!r} is "
                                     "below 2")
            else:
                raise ValueError(f"{where}: unknown key {key!r}; expected "
                                 "class_count, image_shape or seed")
            if key in header:
                raise ValueError(f"{where}: repeated key {key!r}")
            header[key] = parsed
    for key in ("image_shape", "class_count"):
        if key not in header:
            raise ValueError(f"{manifest}: no {key}= line")
    # a class_count= line may follow the sample lines; the first line whose
    # label is out of range is reported
    out_of_range = [(lineno, label) for entries in samples.values()
                    for label, _, lineno in entries.values()
                    if label >= header["class_count"]]
    if out_of_range:
        lineno, label = min(out_of_range)
        raise ValueError(f"{manifest} line {lineno}: label {label} is out of "
                         f"range for class_count {header['class_count']}")
    shape = header["image_shape"]
    c, h, w = shape

    def load_split(name: str) -> Split | None:
        if name not in splits:
            return None
        entries = samples[name]
        pixels = np.empty((len(entries), c, h, w), dtype=np.uint8)
        y = np.empty(len(entries), dtype=np.int64)
        for i, (label, rel, _) in enumerate(entries.values()):
            path = root / rel
            img = read_pnm(path)
            arr = img[None] if img.ndim == 2 else np.moveaxis(img, 2, 0)
            if arr.shape != shape:
                raise ValueError(
                    f"{path}: image is {'x'.join(map(str, arr.shape))}, but "
                    f"{manifest} gives image_shape {c}x{h}x{w}")
            pixels[i] = arr
            y[i] = label
        return Split(pixels, y, list(entries))

    return Dataset(load_split("train"), load_split("val"), load_split("test"),
                   header["class_count"], shape, header.get("seed", 0))


def gen_data(spec: DatasetSpec, out_dir) -> Path:
    """Generate and persist a synthetic dataset; returns the manifest path."""
    return write_dataset(make_blobs(spec), out_dir)


def _sample_id(sid: str, source) -> str:
    """``sid`` if the CSV outputs can hold it (no comma, no line break) and
    GAX can write under it: no ``/``-separated part is empty, ``.`` or
    ``..``."""
    if "," in sid or sid.splitlines() != [sid]:
        raise ValueError(f"{source}: sample id {sid!r} contains a comma or a "
                         "line break, which the CSV outputs cannot hold")
    if any(part in ("", ".", "..") for part in sid.split("/")):
        raise ValueError(f"{source}: sample id {sid!r} has an empty, '.' or "
                         "'..' path part, which cannot name its GAX outputs")
    return sid


def nearest_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour resize over the first two axes."""
    h, w = img.shape[:2]
    ri = np.minimum((np.arange(out_h) * h) // out_h, h - 1)
    ci = np.minimum((np.arange(out_w) * w) // out_w, w - 1)
    return img[ri][:, ci]


def ingest_images(directory, image_shape: tuple[int, int, int]) -> Split:
    """Read a directory of per-class PGM/PPM folders into one labeled split
    of ``image_shape`` (C, H, W) images.

    Images are nearest-neighbor resized to H x W, a 1-channel image is
    repeated to 3 channels when C is 3; pixels stay uint8.
    Any other channel count than C is an error naming the file.  Unreadable
    files are skipped with a warning; an empty class folder is an error.
    """
    root = Path(directory)
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise ValueError(f"no class subdirectories under {root}")
    c, out_h, out_w = image_shape
    images, labels = [], []
    files_of = {}               # sample id -> file that gave it
    for label, cdir in enumerate(class_dirs):
        loaded = 0
        for f in sorted(cdir.iterdir()):
            if not f.is_file():
                continue
            try:
                img = read_pnm(f)
            except ValueError as exc:   # the message names the file
                warnings.warn(f"skipping {exc}")
                continue
            sid = _sample_id(f"{cdir.name}/{f.stem}", f)
            if sid in files_of:
                raise ValueError(f"{files_of[sid]} and {f} both give sample "
                                 f"id {sid!r}")
            files_of[sid] = f
            depth = 1 if img.ndim == 2 else img.shape[2]
            if depth != c and (depth, c) != (1, 3):
                raise ValueError(f"{f}: {depth} channels, expected {c}")
            img = nearest_resize(img, out_h, out_w)
            chans = img[None] if img.ndim == 2 else np.moveaxis(img, 2, 0)
            images.append(np.repeat(chans, c // depth, axis=0))
            labels.append(label)
            loaded += 1
        if loaded == 0:
            raise ValueError(f"empty class folder: {cdir}")
    return Split(np.stack(images), np.asarray(labels, dtype=np.int64),
                 list(files_of))

"""The classifier every workload explains: a small convolutional net for
desk-scale experiments.

A model exposes:

* ``input_shape`` / ``num_classes``
* ``forward_graph(x)`` building an autodiff graph over a batch and
  returning a :class:`ForwardPass` (raw scores, named layer activations,
  parameter leaves)
* ``scores(x)`` the plain-array forward

Raw scores are never squashed: the last layer is linear so that score
differences stay informative at any magnitude.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .formats import read_gaxm, write_gaxm


class ForwardPass(NamedTuple):
    scores: Tensor
    activations: dict[str, Tensor]
    params: dict[str, Tensor]


def snap32(a: np.ndarray) -> np.ndarray:
    """Quantize to the float32 grid while keeping float64 compute dtype.

    Parameters live on this grid so that weight files (float32 storage)
    round-trip to bit-identical forward passes.
    """
    return np.asarray(a, dtype=np.float64).astype(np.float32).astype(np.float64)


class MiniConvNet:
    """Two conv-relu-pool blocks plus a fully connected raw-score head.

    Layer names are unique ("conv1", "pool1", "conv2", "pool2", "fc") so
    that activation-based attribution can address them.
    """

    def __init__(self, input_shape=(3, 32, 32), num_classes: int = 2,
                 channels=(8, 16), kernel: int = 3, seed: int = 0,
                 params: dict[str, np.ndarray] | None = None):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.num_classes = int(num_classes)
        self.channels = tuple(int(c) for c in channels)
        self.kernel = int(kernel)
        cin, h, w = self.input_shape
        c1, c2 = self.channels
        k = self.kernel
        # the convs pad by k // 2 to keep H and W, and two 2x2 pools follow
        if min(h, w) < 4:
            raise ShapeError(f"input_shape {self.input_shape}: H and W must "
                             "be at least 4")
        if k % 2 == 0:
            raise ShapeError(f"kernel {k} must be odd")
        self.feature_dim = c2 * (h // 4) * (w // 4)
        shapes = {
            "conv1.w": (c1, cin, k, k), "conv1.b": (c1,),
            "conv2.w": (c2, c1, k, k), "conv2.b": (c2,),
            "fc.w": (self.num_classes, self.feature_dim),
            "fc.b": (self.num_classes,),
        }
        if params is None:
            # He init for the weights (fan-in: every axis after the first),
            # zeros for the biases
            rng = np.random.default_rng(seed)
            params = {
                name: rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[1:])),
                                 size=shape) if name.endswith(".w")
                else np.zeros(shape)
                for name, shape in shapes.items()}
        self.params = {name: snap32(v) for name, v in params.items()}
        for name, shape in shapes.items():
            if self.params[name].shape != shape:
                raise ShapeError(
                    f"parameter {name!r} has shape {self.params[name].shape}, "
                    f"expected {shape}")

    def forward_graph(self, x) -> ForwardPass:
        t = x if isinstance(x, Tensor) else Tensor(x)
        if t.shape[1:] != self.input_shape:
            raise ShapeError(
                "MiniConvNet: expected batch of shape (N, "
                f"{', '.join(map(str, self.input_shape))}), got {t.shape}")
        leaves = {name: Tensor(arr) for name, arr in self.params.items()}
        pad = self.kernel // 2
        conv1 = ad.bias_add(ad.conv2d(t, leaves["conv1.w"], pad=pad),
                            leaves["conv1.b"])
        pool1 = ad.max_pool2d(ad.relu(conv1), 2)
        conv2 = ad.bias_add(ad.conv2d(pool1, leaves["conv2.w"], pad=pad),
                            leaves["conv2.b"])
        pool2 = ad.max_pool2d(ad.relu(conv2), 2)
        flat = ad.flatten(pool2)
        scores = ad.bias_add(ad.matmul(flat, ad.transpose2d(leaves["fc.w"])),
                             leaves["fc.b"])
        acts = {"conv1": conv1, "pool1": pool1, "conv2": conv2,
                "pool2": pool2, "fc": scores}
        return ForwardPass(scores, acts, leaves)

    def scores(self, x) -> np.ndarray:
        return self.forward_graph(x).scores.data

    def save(self, path) -> None:
        named = dict(self.params)
        named["input_shape"] = np.asarray(self.input_shape, dtype=np.float64)
        named["kernel"] = np.asarray([self.kernel], dtype=np.float64)
        write_gaxm(path, named)

    @classmethod
    def load(cls, path) -> "MiniConvNet":
        named = read_gaxm(path)
        for name in ("input_shape", "kernel", "conv1.w", "conv1.b", "conv2.w",
                     "conv2.b", "fc.w", "fc.b"):
            if name not in named:
                raise ValueError(f"{path}: no {name!r} entry")
        for name, arr in named.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: entry {name!r} holds a non-finite "
                                 "value")
        input_shape = _positive_ints(path, named, "input_shape", 3)
        (kernel,) = _positive_ints(path, named, "kernel", 1)
        channels = (named["conv1.w"].shape[0], named["conv2.w"].shape[0])
        try:
            return cls(input_shape=input_shape,
                       num_classes=named["fc.b"].shape[0],
                       channels=channels, kernel=kernel, params=named)
        except ShapeError as exc:
            raise ShapeError(f"{path}: {exc}") from None


def _positive_ints(path, named, name: str, count: int) -> tuple[int, ...]:
    """Pop entry ``name`` of a weight file, which must hold ``count``
    positive integers."""
    arr = named.pop(name)
    if arr.shape != (count,) or not (arr >= 1).all() or (arr % 1).any():
        noun = "integer" if count == 1 else "integers"
        raise ValueError(f"{path}: entry {name!r} must hold {count} positive "
                         f"{noun}, got {arr.tolist()}")
    return tuple(int(v) for v in arr)


def predict_graph(model, x) -> tuple[int, tuple[Tensor, ForwardPass]]:
    """Argmax class and forward graph ``(leaf, fp)`` of one sample.

    Ties pick the lowest index; the raw scores are ``fp.scores.data[0]``.
    ``attribute(..., graph=(leaf, fp))`` sweeps this graph, so one forward
    pass serves the prediction and every heatmap of the sample.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != tuple(model.input_shape):
        raise ShapeError(
            f"predict: sample shape {x.shape} != model input {model.input_shape}")
    leaf = Tensor(x[None])
    fp = model.forward_graph(leaf)
    return int(np.argmax(fp.scores.data[0])), (leaf, fp)


def predict(model, x) -> tuple[int, np.ndarray]:
    """Raw scores and argmax class for one sample; ties pick the lowest index."""
    pred, (_, fp) = predict_graph(model, x)
    return pred, fp.scores.data[0]

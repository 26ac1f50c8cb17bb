"""Classifier models: an exact 2D classifier, a linear probe, and a small
convolutional net for desk-scale experiments.

Every model exposes the same surface:

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


ACTIVATIONS = ("identity", "sigmoid", "tanh", "leaky-relu")


def snap32(a: np.ndarray) -> np.ndarray:
    """Quantize to the float32 grid while keeping float64 compute dtype.

    Parameters live on this grid so that weight files (float32 storage)
    round-trip to bit-identical forward passes.
    """
    return np.asarray(a, dtype=np.float64).astype(np.float32).astype(np.float64)


def _apply_activation(t: Tensor, sigma: str, slope: float) -> Tensor:
    if sigma == "identity":
        return t
    if sigma == "sigmoid":
        return ad.sigmoid(t)
    if sigma == "tanh":
        return ad.tanh(t)
    if sigma == "leaky-relu":
        return ad.leaky_relu(t, slope)
    raise ValueError(f"unknown activation {sigma!r}; expected one of {ACTIVATIONS}")


def _as_batch(x, input_shape: tuple[int, ...], who: str) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(x)
    if t.shape[1:] != input_shape:
        raise ShapeError(
            f"{who}: expected batch of shape (N, {', '.join(map(str, input_shape))}), "
            f"got {t.shape}")
    return t


class PerfectClassifier2D:
    """A 2-class classifier that inverts a known mixing matrix exactly.

    Given an invertible 2x2 ``W``, the forward pass is
    ``sigma(W^-1 x)`` applied elementwise; for any strictly increasing
    ``sigma``, the argmax over outputs recovers the true coefficients'
    ordering, so the classifier is perfect by construction.
    """

    input_shape = (2,)
    num_classes = 2

    def __init__(self, W, sigma: str = "identity", slope: float = 0.01):
        W = np.asarray(W, dtype=np.float64)
        if W.shape != (2, 2):
            raise ShapeError(f"W must be 2x2, got {W.shape}")
        det = W[0, 0] * W[1, 1] - W[0, 1] * W[1, 0]
        if abs(det) <= 1e-12:
            raise ValueError(f"singular W (det={det:.3e})")
        if sigma not in ACTIVATIONS:
            raise ValueError(f"unknown activation {sigma!r}")
        self.W = W
        self.W_inv = np.linalg.inv(W)
        self.sigma = sigma
        self.slope = float(slope)

    def forward_graph(self, x) -> ForwardPass:
        t = _as_batch(x, self.input_shape, "PerfectClassifier2D")
        pre = ad.matmul(t, Tensor(self.W_inv.T))
        out = _apply_activation(pre, self.sigma, self.slope)
        return ForwardPass(out, {"linear": pre, "output": out}, {})

    def scores(self, x) -> np.ndarray:
        return self.forward_graph(x).scores.data


class LinearModel:
    """Raw-score linear classifier ``f(x) = M x + b`` (inputs flattened)."""

    def __init__(self, M, b=None, input_shape: tuple[int, ...] | None = None):
        M = snap32(M)
        if M.ndim != 2:
            raise ShapeError(f"M must be 2D, got {M.shape}")
        self.params = {
            "M": M,
            "b": snap32(b) if b is not None else np.zeros(M.shape[0]),
        }
        self.input_shape = tuple(input_shape) if input_shape else (M.shape[1],)
        if int(np.prod(self.input_shape)) != M.shape[1]:
            raise ShapeError(
                f"input shape {self.input_shape} incompatible with M {M.shape}")
        self.num_classes = M.shape[0]

    def forward_graph(self, x) -> ForwardPass:
        t = _as_batch(x, self.input_shape, "LinearModel")
        leaves = {name: Tensor(arr) for name, arr in self.params.items()}
        flat = ad.flatten(t) if len(self.input_shape) > 1 else t
        scores = ad.bias_add(ad.matmul(flat, ad.transpose2d(leaves["M"])),
                             leaves["b"])
        return ForwardPass(scores, {"fc": scores}, leaves)

    def scores(self, x) -> np.ndarray:
        return self.forward_graph(x).scores.data



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
        t = _as_batch(x, self.input_shape, "MiniConvNet")
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
        input_shape = tuple(int(v) for v in named.pop("input_shape"))
        kernel = int(named.pop("kernel")[0])
        channels = (named["conv1.w"].shape[0], named["conv2.w"].shape[0])
        return cls(input_shape=input_shape,
                   num_classes=named["fc.b"].shape[0],
                   channels=channels, kernel=kernel, params=named)


def predict(model, x) -> tuple[int, np.ndarray]:
    """Raw scores and argmax class for one sample; ties pick the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != tuple(model.input_shape):
        raise ShapeError(
            f"predict: sample shape {x.shape} != model input {model.input_shape}")
    raw = model.scores(x[None])[0]
    return int(np.argmax(raw)), raw

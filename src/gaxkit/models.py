"""The classifier every workload explains: a small convolutional net for
desk-scale experiments.

A model exposes:

* ``input_shape`` / ``num_classes``
* ``forward_graph(x)`` building an autodiff graph over a batch array and
  returning a :class:`ForwardPass`, the one handle every sweep takes (the
  input leaf it builds from ``x``, raw scores, named layer activations,
  parameter leaves, and an empty record of attribution sweeps)
* ``scores(x)`` the raw scores of a batch, computed by the same ops but
  keeping no graph: each op's output enters the next op as a fresh leaf,
  so every temporary is freed before the next op runs.  ``scores(x)[i]``
  equals ``scores(x[i:i+1])[0]`` (and ``forward_graph``'s scores at N=1)
  byte for byte at every N: ``fc`` runs one row at a time, and a conv runs
  on the whole batch only when its output area per sample is a multiple
  of 8, else one sample at a time, since BLAS tiles the columns of its
  product in blocks of 8

Raw scores are never squashed: the last layer is linear so that score
differences stay informative at any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .formats import read_gaxm, write_gaxm


@dataclass(frozen=True)
class ForwardPass:
    """One forward graph: input leaf, raw scores, named layer activations,
    parameter leaves, and ``sweeps``, a fresh dict per graph in which
    attribution records the gradients of a sweep it reads more than once."""
    input: Tensor
    scores: Tensor
    activations: dict[str, Tensor]
    params: dict[str, Tensor]
    sweeps: dict = field(default_factory=dict, repr=False)


def snap32(a: np.ndarray) -> np.ndarray:
    """Quantize to the float32 grid while keeping float64 compute dtype.

    Parameters live on this grid so that weight files (float32 storage)
    round-trip to bit-identical forward passes.
    """
    return np.asarray(a, dtype=np.float64).astype(np.float32).astype(np.float64)


CHANNELS = (8, 16)      # output channels of conv1 and conv2
KERNEL = 3              # both convs' kernel size; ad.conv2d keeps H and W


class MiniConvNet:
    """Two conv-relu-pool blocks plus a fully connected raw-score head.

    The convs have ``CHANNELS`` output channels and ``KERNEL`` x ``KERNEL``
    kernels; a weight file of any other geometry does not load.

    Layer names are unique ("conv1", "pool1", "conv2", "pool2", "fc") so
    that activation-based attribution can address them.
    """

    def __init__(self, input_shape=(3, 32, 32), num_classes: int = 2,
                 seed: int = 0, params: dict[str, np.ndarray] | None = None):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.num_classes = int(num_classes)
        cin, h, w = self.input_shape
        (c1, c2), k = CHANNELS, KERNEL
        # the convs keep H and W, and two 2x2 pools follow
        if min(h, w) < 4:
            raise ShapeError(f"input_shape {self.input_shape}: H and W must "
                             "be at least 4")
        shapes = {
            "conv1.w": (c1, cin, k, k), "conv1.b": (c1,),
            "conv2.w": (c2, c1, k, k), "conv2.b": (c2,),
            "fc.w": (self.num_classes, c2 * (h // 4) * (w // 4)),
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

    def _check_batch(self, shape) -> None:
        if shape[1:] != self.input_shape:
            raise ShapeError(
                "MiniConvNet: expected batch of shape (N, "
                f"{', '.join(map(str, self.input_shape))}), got {shape}")

    def _steps(self, leaves):
        """The forward as ``(layer name or None, op, split)`` steps; each op
        maps one tensor to the next.  ``split(a)`` is true when the op must
        run one sample of the batch ``a`` at a time to give each sample the
        bytes it gets alone; ``forward_graph`` ignores it."""
        def conv(name):
            return partial(ad.conv2d, k=leaves[name + ".w"],
                           b=leaves[name + ".b"])

        fc = partial(ad.matmul, w=leaves["fc.w"])
        return (("conv1", conv("conv1"), _area_not_8),
                (None, ad.relu, None),
                ("pool1", ad.max_pool2d, None),
                ("conv2", conv("conv2"), _area_not_8),
                (None, ad.relu, None),
                ("pool2", ad.max_pool2d, None),
                (None, ad.flatten, None),
                (None, fc, lambda a: True),
                ("fc", partial(ad.bias_add, b=leaves["fc.b"]), None))

    def forward_graph(self, x) -> ForwardPass:
        t = leaf = Tensor(x)
        self._check_batch(t.shape)
        leaves = {name: Tensor(arr) for name, arr in self.params.items()}
        acts = {}
        for name, op, _ in self._steps(leaves):
            t = op(t)
            if name is not None:
                acts[name] = t
        return ForwardPass(leaf, t, acts, leaves)

    def scores(self, x) -> np.ndarray:
        """Raw scores of a batch; see the module docstring."""
        a = np.asarray(x, dtype=np.float64)
        self._check_batch(a.shape)
        leaves = {name: Tensor(arr) for name, arr in self.params.items()}
        for _, op, split in self._steps(leaves):
            if split is not None and len(a) > 1 and split(a):
                a = np.concatenate([op(Tensor(a[i: i + 1])).data
                                    for i in range(len(a))])
            else:
                a = op(Tensor(a)).data
        return a

    def save(self, path) -> None:
        named = dict(self.params)
        named["input_shape"] = np.asarray(self.input_shape, dtype=np.float64)
        named["kernel"] = np.asarray([KERNEL], dtype=np.float64)
        write_gaxm(path, named)

    @classmethod
    def load(cls, path) -> "MiniConvNet":
        named = read_gaxm(path)
        entries = ("input_shape", "kernel", "conv1.w", "conv1.b", "conv2.w",
                   "conv2.b", "fc.w", "fc.b")
        for name in entries:
            if name not in named:
                raise ValueError(f"{path}: no {name!r} entry")
        for name, arr in named.items():
            if name not in entries:
                raise ValueError(f"{path}: unknown entry {name!r}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: entry {name!r} holds a non-finite "
                                 "value")
        input_shape = _positive_ints(path, named, "input_shape")
        kernel = named.pop("kernel")
        if kernel.tolist() != [KERNEL]:
            raise ValueError(f"{path}: entry 'kernel' must hold {KERNEL}, got "
                             f"{kernel.tolist()}")
        num_classes = named["fc.b"].shape[0]
        if num_classes < 2:
            raise ValueError(f"{path}: entry 'fc.b' must hold at least 2 "
                             f"class biases, got {num_classes}")
        try:
            return cls(input_shape=input_shape, num_classes=num_classes,
                       params=named)
        except ShapeError as exc:
            raise ShapeError(f"{path}: {exc}") from None


def _area_not_8(a) -> bool:
    """Whether a same-padded conv's output area per sample (the input's)
    is not a multiple of 8, BLAS's column tile."""
    return a.shape[2] * a.shape[3] % 8 != 0


def _positive_ints(path, named, name: str) -> tuple[int, ...]:
    """Pop entry ``name`` of a weight file, which must hold 3 positive
    integers."""
    arr = named.pop(name)
    if arr.shape != (3,) or not (arr >= 1).all() or (arr % 1).any():
        raise ValueError(f"{path}: entry {name!r} must hold 3 positive "
                         f"integers, got {arr.tolist()}")
    return tuple(int(v) for v in arr)


def _sample(model, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != tuple(model.input_shape):
        raise ShapeError(
            f"predict: sample shape {x.shape} != model input {model.input_shape}")
    return x


def predict_graph(model, x) -> tuple[int, ForwardPass]:
    """Argmax class and forward graph of one sample.

    Ties pick the lowest index; the raw scores are ``fp.scores.data[0]``.
    ``attribute(model, fp, ...)`` sweeps this graph, so one forward pass
    serves the prediction and every heatmap of the sample.
    """
    fp = model.forward_graph(_sample(model, x)[None])
    return int(np.argmax(fp.scores.data[0])), fp


def predict(model, x) -> tuple[int, np.ndarray]:
    """Argmax class and raw scores of one sample, from ``model.scores``
    (no graph); ties pick the lowest index."""
    raw = model.scores(_sample(model, x)[None])[0]
    return int(np.argmax(raw)), raw

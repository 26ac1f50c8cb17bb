"""Oracle classifiers whose outputs the tests know in closed form.

``LinearModel`` is built from the engine's ops and keeps its weights in
``params``, so ``attribute``, ``gax_run`` and ``train`` take it like the
conv net.  ``SingleRelu`` is one rectifier over the engine's ops, with no
parameter leaves, for the DeepLIFT identities.  ``LeakyReluToy`` has only
the numpy ``scores`` that ``co_score`` reads.
"""

import numpy as np

from gaxkit import autodiff as ad
from gaxkit.autodiff import Tensor
from gaxkit.models import ForwardPass, snap32


class LinearModel:
    """Raw scores ``f(x) = M x + b`` of the flattened input; ``M`` is
    snapped to the float32 grid and ``b`` starts at zero."""

    def __init__(self, M, input_shape=None):
        M = snap32(M)
        self.params = {"M": M, "b": np.zeros(M.shape[0])}
        self.input_shape = tuple(input_shape or (M.shape[1],))
        self.num_classes = M.shape[0]

    def forward_graph(self, x) -> ForwardPass:
        leaf = Tensor(x)
        leaves = {name: Tensor(arr) for name, arr in self.params.items()}
        scores = ad.bias_add(ad.matmul(ad.flatten(leaf), leaves["M"]),
                             leaves["b"])
        return ForwardPass(leaf, scores, {"fc": scores}, leaves)

    def scores(self, x) -> np.ndarray:
        return self.forward_graph(x).scores.data


class SingleRelu:
    """Raw scores ``f(x) = [relu(m . x), 0]`` of a 1-D input, for a
    ``(1, F)`` weight ``m``: two classes and one rectifier."""

    num_classes = 2

    def __init__(self, m):
        self.m = np.asarray(m, dtype=np.float64)
        self.input_shape = (self.m.shape[1],)

    def forward_graph(self, x) -> ForwardPass:
        leaf = Tensor(x)
        z = ad.relu(ad.matmul(leaf, Tensor(self.m)))
        pad = ad.matmul(z, Tensor(np.array([[1.0], [0.0]])))
        return ForwardPass(leaf, pad, {"fc": pad}, {})

    def scores(self, x) -> np.ndarray:
        return self.forward_graph(x).scores.data


class LeakyReluToy:
    """Two classes over 2-D inputs, ``f(x) = leaky_relu(x)`` (slope 0.01):
    with ``h = x`` and ``a1 > a2 > 0`` the CO score of ``x = (a1, a2)`` is
    exactly ``a1 - a2``."""

    input_shape = (2,)
    num_classes = 2

    def scores(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 0, x, 0.01 * x)

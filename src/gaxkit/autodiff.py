"""Dense float64 tensors with reverse-mode automatic differentiation.

A small define-by-run engine: every operation returns a new :class:`Tensor`
that remembers its parents and how to push gradients back to them.  The
graph is rebuilt on every forward pass, which keeps repeated re-evaluation
(as in iterative heatmap optimization) trivially correct.

Rectifier nodes honor a backward *rule* so attribution methods can reroute
gradients without touching the forward pass:

* ``standard``     - true gradients everywhere.
* ``deconv-relu``  - rectifiers propagate ``relu(upstream)``, ignoring the
  sign of their forward input.
* ``guided-relu``  - rectifiers propagate upstream masked by both
  forward-positive and upstream-positive.

Only plain ``relu`` nodes are affected by the overrides; every other op
(including ``leaky_relu``) always uses its standard gradient.

:meth:`Tensor.backward` and :func:`rescale_multipliers` (DeepLIFT's rescale
rule) share one reverse sweep, and both fill ``grad`` on every graph node.
Their finite-difference checker lives with the tests (``tests/gradcheck.py``).
Attribution explains one class by seeding either sweep with a one-hot row.
"""

from __future__ import annotations

import numpy as np

RULE_STANDARD = "standard"
RULE_DECONV = "deconv-relu"
RULE_GUIDED = "guided-relu"
BACKWARD_RULES = (RULE_STANDARD, RULE_DECONV, RULE_GUIDED)


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation.

    ``parents`` and ``_vjp`` describe how this node was produced; leaves
    have neither.  ``grad``, shaped like ``data``, is filled in on every node
    reachable from the root by :meth:`backward` or :func:`rescale_multipliers`.
    """

    __slots__ = ("data", "grad", "op", "parents", "_vjp")

    def __init__(self, data, parents=(), op="leaf", vjp=None):
        self.data = _arr(data)
        self.grad: np.ndarray | None = None
        self.op = op
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self._vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"

    def backward(self, seed=None, rule: str = RULE_STANDARD) -> None:
        """Populate ``grad`` on every node reachable from this root.

        ``seed`` must match the root shape; it defaults to ones for scalar
        roots.  Gradients from multiple uses of a node accumulate.
        """
        if rule not in BACKWARD_RULES:
            raise ValueError(f"unknown backward rule: {rule!r}")
        if seed is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a seed requires a scalar root")
            seed = np.ones_like(self.data)
        _backprop(self, _topo(self), seed,
                  lambda node: node._vjp(node.grad, rule))


def _backprop(root: Tensor, order: list[Tensor], seed, pull) -> None:
    """Zero ``grad`` over ``order`` (``_topo(root)``), seed the root, then add
    ``pull(node)`` (one gradient per parent) into the parents in reverse."""
    seed_arr = _arr(seed)
    if seed_arr.shape != root.data.shape:
        raise ShapeError(
            f"backward seed shape {seed_arr.shape} does not match "
            f"root shape {root.data.shape}")
    for node in order:
        node.grad = np.zeros_like(node.data)
    root.grad = seed_arr.copy()
    for node in reversed(order):
        if node._vjp is None:
            continue
        for parent, pg in zip(node.parents, pull(node)):
            parent.grad += pg


def _topo(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering of the graph rooted at ``root``."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return Tensor(a.data + b.data, (a, b), "add", lambda g, r: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return Tensor(a.data - b.data, (a, b), "sub", lambda g, r: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return Tensor(ad * bd, (a, b), "mul", lambda g, r: (g * bd, g * ad))


def shift(a: Tensor, c: float) -> Tensor:
    """Add a python scalar elementwise."""
    return Tensor(a.data + float(c), (a,), "shift", lambda g, r: (g,))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar elementwise."""
    c = float(c)
    return Tensor(a.data * c, (a,), "scale", lambda g, r: (g * c,))


def square(a: Tensor) -> Tensor:
    ad = a.data
    return Tensor(ad * ad, (a,), "square", lambda g, r: (2.0 * ad * g,))


def reciprocal(a: Tensor) -> Tensor:
    if np.any(a.data == 0.0):
        raise ValueError("reciprocal: zero operand")
    out = 1.0 / a.data
    return Tensor(out, (a,), "reciprocal", lambda g, r: (-g * out * out,))


# ---------------------------------------------------------------------------
# activations

def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g, rule):
        if rule == RULE_DECONV:
            return (np.maximum(g, 0.0),)
        if rule == RULE_GUIDED:
            return (g * (mask & (g > 0)),)
        return (g * mask,)

    return Tensor(np.maximum(a.data, 0.0), (a,), "relu", vjp)


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    slope = float(slope)
    factor = np.where(a.data > 0, 1.0, slope)
    return Tensor(np.where(a.data > 0, a.data, slope * a.data), (a,),
                  "leaky-relu", lambda g, r: (g * factor,))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return Tensor(out, (a,), "sigmoid", lambda g, r: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return Tensor(out, (a,), "tanh", lambda g, r: (g * (1.0 - out * out),))


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2D operands."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: {ad.shape} @ {bd.shape}")
    return Tensor(ad @ bd, (a, b), "matmul", lambda g, r: (g @ bd.T, ad.T @ g))


def transpose2d(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose2d: expected 2D, got {a.shape}")
    return Tensor(a.data.T, (a,), "transpose2d", lambda g, r: (g.T,))


def flatten(a: Tensor) -> Tensor:
    """Collapse all axes after the first (the batch axis stays put)."""
    if a.data.ndim < 1:
        raise ShapeError("flatten: needs at least one axis")
    shape = a.shape
    out = a.data.reshape(shape[0], -1)
    return Tensor(out, (a,), "flatten", lambda g, r: (g.reshape(shape),))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-channel bias to a (N, C) or (N, C, H, W) tensor."""
    if b.data.ndim != 1:
        raise ShapeError(f"bias_add: bias must be 1D, got {b.shape}")
    if x.data.ndim not in (2, 4):
        raise ShapeError(f"bias_add: expected 2D or 4D input, got {x.shape}")
    if x.shape[1] != b.shape[0]:
        raise ShapeError(f"bias_add: {x.shape} with bias {b.shape}")
    rest = tuple(range(2, x.data.ndim))
    return Tensor(x.data + b.data.reshape((1, -1) + (1,) * len(rest)), (x, b),
                  "bias-add", lambda g, r: (g, g.sum(axis=(0, *rest))))


# ---------------------------------------------------------------------------
# convolution and pooling

def _out_size(n: int, k: int, stride: int, pad: int, op: str) -> int:
    span = n + 2 * pad - k
    if span < 0:
        raise ShapeError(f"{op}: window {k} exceeds padded extent {n + 2 * pad}")
    return span // stride + 1


def _window_view(xp: np.ndarray, kh: int, kw: int,
                 oh: int, ow: int) -> np.ndarray:
    """Gather (N, C, kh, kw, oh, ow) stride-1 windows from padded input."""
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i: i + oh, j: j + ow]
    return cols


def conv2d(x: Tensor, k: Tensor, pad: int = 0) -> Tensor:
    """Stride-1 cross-correlation of (N, C_in, H, W) with kernel
    (C_out, C_in, KH, KW)."""
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeError(f"conv2d: input {x.shape}, kernel {k.shape}")
    if x.shape[1] != k.shape[1]:
        raise ShapeError(
            f"conv2d: input channels {x.shape[1]} != kernel channels {k.shape[1]}")
    if pad < 0:
        raise ValueError("conv2d: pad must be >= 0")
    n, _, h, w = x.shape
    cout, cin, kh, kw = k.shape
    oh = _out_size(h, kh, 1, pad, "conv2d")
    ow = _out_size(w, kw, 1, pad, "conv2d")
    if pad:
        xp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad))
        xp[:, :, pad: pad + h, pad: pad + w] = x.data
    else:
        xp = x.data
    cols = _window_view(xp, kh, kw, oh, ow)
    # One GEMM per product over depth = cin*kh*kw, with the operand order and
    # output layout of the einsum formulation kept in tests/test_conv_parity.py,
    # so results match it bit for bit without einsum's per-call planning.
    depth = cin * kh * kw
    kmat = k.data.reshape(cout, depth)
    out = (kmat @ cols.transpose(1, 2, 3, 0, 4, 5).reshape(depth, -1)
           ).reshape(cout, n, oh, ow).transpose(1, 0, 2, 3)

    def vjp(g, rule):
        gk = (g.transpose(1, 0, 2, 3).reshape(cout, -1)
              @ cols.transpose(0, 4, 5, 1, 2, 3).reshape(-1, depth)
              ).reshape(k.shape)
        dcols = (g.transpose(0, 2, 3, 1).reshape(-1, cout) @ kmat
                 ).reshape(n, oh, ow, cin, kh, kw).transpose(0, 3, 4, 5, 1, 2)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i: i + oh, j: j + ow] += dcols[:, :, i, j]
        gx = gxp[:, :, pad: pad + h, pad: pad + w] if pad else gxp
        return (gx, gk)

    return Tensor(out, (x, k), "conv2d", vjp)


def max_pool2d(x: Tensor, size: int = 2) -> Tensor:
    """Non-overlapping max pooling (stride = size); ties route the gradient
    to the first maximum in scan order."""
    if x.data.ndim != 4:
        raise ShapeError(f"max_pool2d: expected 4D input, got {x.shape}")
    n, c, h, w = x.shape
    oh = _out_size(h, size, size, 0, "max_pool2d")
    ow = _out_size(w, size, size, 0, "max_pool2d")
    windows = np.empty((n, c, oh, ow, size * size), dtype=np.float64)
    for i in range(size):
        for j in range(size):
            windows[..., i * size + j] = x.data[:, :, i: i + size * oh: size,
                                                j: j + size * ow: size]
    # argmax over the row-major window = first maximal element in scan order
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def vjp(g, rule):
        gx = np.zeros_like(x.data)
        ni, ci, ohi, owi = np.indices(idx.shape)
        hi = ohi * size + idx // size
        wi = owi * size + idx % size
        np.add.at(gx, (ni, ci, hi, wi), g)
        return (gx,)

    return Tensor(out, (x,), "max-pool", vjp)


# ---------------------------------------------------------------------------
# reductions

def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    return Tensor(a.data.mean(), (a,), "mean",
                  lambda g, r: (np.full_like(a.data, float(g) / n),))


def weighted_sum(a: Tensor, weights: np.ndarray) -> Tensor:
    """Fixed-weight contraction to a scalar: sum(weights * a)."""
    w = _arr(weights)
    if w.shape != a.shape:
        raise ShapeError(f"weighted_sum: weights {w.shape} vs input {a.shape}")
    return Tensor((w * a.data).sum(), (a,), "weighted-sum",
                  lambda g, r: (float(g) * w,))


def cross_entropy(scores: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of raw (N, C) scores against integer labels."""
    if scores.data.ndim != 2:
        raise ShapeError(f"cross_entropy: expected 2D scores, got {scores.shape}")
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (scores.shape[0],):
        raise ShapeError(
            f"cross_entropy: labels {y.shape} vs scores {scores.shape}")
    z = scores.data
    n = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    loss = (lse - z[np.arange(n), y]).mean()

    def vjp(g, rule):
        p = np.exp(z - zmax)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), y] -= 1.0
        return (float(g) * p / n,)

    return Tensor(loss, (scores,), "cross-entropy", vjp)


# ---------------------------------------------------------------------------
# contribution backward pass (rescale rule)

_RESCALE_OPS = ("relu", "leaky-relu", "sigmoid", "tanh")
_NEAR_ZERO = 1e-9


def rescale_multipliers(root: Tensor, baseline_root: Tensor, seed) -> None:
    """Backward pass computing rescale-rule contribution multipliers.

    Requires two structurally identical graphs: one evaluated at the input
    of interest, one at the baseline.  Elementwise nonlinearities propagate
    the finite-difference ratio (out - out_baseline) / (in - in_baseline),
    falling back to the local derivative where the input difference is
    within ``_NEAR_ZERO``; all other ops propagate like standard gradients.

    Like :meth:`Tensor.backward`, fills ``grad`` on every node of the main
    graph with that node's accumulated multiplier.
    """
    order = _topo(root)
    order_b = _topo(baseline_root)
    if len(order) != len(order_b) or any(
            a.op != b.op or a.shape != b.shape for a, b in zip(order, order_b)):
        raise ValueError("baseline graph structure differs from the main graph")
    twin = {id(a): b for a, b in zip(order, order_b)}

    def pull(node):
        if node.op not in _RESCALE_OPS:
            return node._vjp(node.grad, RULE_STANDARD)
        node_b = twin[id(node)]
        din = node.parents[0].data - node_b.parents[0].data
        dout = node.data - node_b.data
        small = np.abs(din) < _NEAR_ZERO
        local = node._vjp(np.ones_like(node.data), RULE_STANDARD)[0]
        return (node.grad * np.where(small, local,
                                     dout / np.where(small, 1.0, din)),)

    _backprop(root, order, seed, pull)

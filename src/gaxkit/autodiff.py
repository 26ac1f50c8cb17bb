"""Dense float64 tensors with reverse-mode automatic differentiation.

A small define-by-run engine: every operation returns a new :class:`Tensor`
that remembers its parents and how to push gradients back to them.  The
graph is rebuilt on every forward pass, which keeps repeated re-evaluation
(as in iterative heatmap optimization) trivially correct.

The ops are the ones the model and training build graphs from: ``relu``,
``matmul``, ``transpose2d``, ``flatten``, ``bias_add``, ``conv2d``,
``max_pool2d`` and ``cross_entropy``.  GAX computes its loss head in numpy
and sweeps only the model's graph, with ``wrt`` set to the input leaf.

Rectifier nodes honor a backward *rule* so attribution methods can reroute
gradients without touching the forward pass:

* ``standard``     - true gradients everywhere.
* ``deconv-relu``  - rectifiers propagate ``relu(upstream)``, ignoring the
  sign of their forward input.
* ``guided-relu``  - rectifiers propagate upstream masked by both
  forward-positive and upstream-positive.

Only ``relu`` nodes are affected by the overrides; every other op always
uses its standard gradient.

:meth:`Tensor.backward` and :func:`rescale_multipliers` (DeepLIFT's rescale
rule) share one reverse sweep.  Both take ``wrt``, the tensors whose ``grad``
the caller reads: only the nodes on a path from a ``wrt`` tensor to the root
get a ``grad`` (every other node's is ``None``), and a vjp skips the parent
gradients no such node takes.  Their finite-difference checker lives with the
tests (``tests/gradcheck.py``).  Attribution explains one class by seeding
either sweep with a one-hot row.

A graph may be swept any number of times, with any rule and ``wrt``, also
after a sweep that raised: a sweep resets every ``grad`` of the graph, stores
each node's first contribution as a new array and writes no forward array.
Each sweep so gives the bytes a fresh graph would, and never writes into the
``grad`` arrays an earlier sweep left.
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
    have neither.  ``grad``, shaped like ``data``, is set by a sweep (see the
    module docstring).  ``_needs_grad`` is False only during a sweep, on the
    nodes it gives no ``grad``; a vjp skips those parents' gradients.
    """

    __slots__ = ("data", "grad", "op", "parents", "_vjp", "_needs_grad")

    def __init__(self, data, parents=(), op="leaf", vjp=None):
        self.data = _arr(data)
        self.grad: np.ndarray | None = None
        self.op = op
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self._vjp = vjp
        self._needs_grad = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"

    def backward(self, seed=None, rule: str = RULE_STANDARD, *, wrt) -> None:
        """Set ``grad`` on each tensor of ``wrt``, which must be part of this
        root's graph, and on the nodes between them; others get ``None``.

        ``seed`` must match the root shape; it defaults to ones for scalar
        roots.  Gradients from multiple uses of a node accumulate.
        """
        if rule not in BACKWARD_RULES:
            raise ValueError(f"unknown backward rule: {rule!r}")
        if seed is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a seed requires a scalar root")
            seed = np.ones_like(self.data)
        _backprop(self, _topo(self), seed, wrt,
                  lambda node: node._vjp(node.grad, rule))


def _backprop(root: Tensor, order: list[Tensor], seed, wrt, pull) -> None:
    """Mark the nodes of ``order`` (``_topo(root)``) on a path from a
    ``wrt`` tensor to ``root``, seed the root, then add ``pull(node)`` (one
    gradient per parent) into the marked parents in reverse.  A first
    contribution is stored as ``pg + 0.0`` (the bytes of ``0.0 + pg``) so no
    ``grad`` aliases a vjp output and later ones add in place."""
    seed_arr = _arr(seed)
    if seed_arr.shape != root.data.shape:
        raise ShapeError(
            f"backward seed shape {seed_arr.shape} does not match "
            f"root shape {root.data.shape}")
    wanted = {id(t) for t in wrt}
    feeding = []        # the nodes with a parent that needs a gradient
    try:
        for node in order:
            node.grad = None
            feeds = any(p._needs_grad for p in node.parents)
            node._needs_grad = feeds or id(node) in wanted
            wanted.discard(id(node))
            if feeds:
                feeding.append(node)
        if wanted or not root._needs_grad:
            raise ValueError("backward: wrt must name tensors of the graph")
        root.grad = seed_arr.copy()
        for node in reversed(feeding):
            for parent, pg in zip(node.parents, pull(node)):
                if not parent._needs_grad:
                    continue
                if parent.grad is None:
                    parent.grad = pg + 0.0
                else:
                    parent.grad += pg
    finally:
        for node in order:
            node._needs_grad = True


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


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2D operands."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: {ad.shape} @ {bd.shape}")
    return Tensor(ad @ bd, (a, b), "matmul", lambda g, r: (
        g @ bd.T if a._needs_grad else None,
        ad.T @ g if b._needs_grad else None))


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
                  "bias-add", lambda g, r: (
                      g, g.sum(axis=(0, *rest)) if b._needs_grad else None))


# ---------------------------------------------------------------------------
# convolution and pooling

def _out_size(n: int, k: int, stride: int, pad: int, op: str) -> int:
    span = n + 2 * pad - k
    if span < 0:
        raise ShapeError(f"{op}: window {k} exceeds padded extent {n + 2 * pad}")
    return span // stride + 1


# OpenBLAS multiplies products of at most this many multiply-adds (M*N*K)
# with its small-matrix kernel, which sums a transposed operand in another
# order than a contiguous one.
_SMALL_GEMM = 1_000_000


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
    xp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad: pad + h, pad: pad + w] = x.data
    # The windows are gathered once, laid out (C, kh, kw, N, oh, ow): the
    # operand every GEMM reads.  Results match the einsum reference in
    # tests/test_conv_parity.py bit for bit.
    cols = np.empty((cin, kh, kw, n, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp.transpose(1, 0, 2, 3)[:, :, i: i + oh, j: j + ow]
    cols = cols.reshape(cin * kh * kw, n * oh * ow)
    kmat = k.data.reshape(cout, -1)
    out = (kmat @ cols).reshape(cout, n, oh, ow).transpose(1, 0, 2, 3)

    def vjp(g, rule):
        gmat = g.transpose(1, 0, 2, 3).reshape(cout, -1)
        gx = gk = None
        small = cout * cols.size <= _SMALL_GEMM     # M*N*K of both GEMMs
        if k._needs_grad:
            # A view of cols.T matches the einsum except for a small product
            # at N > 1, where only a C-contiguous copy does.  Over N = 1..40
            # on ten 3x3 conv shapes the view equalled the copy in 224 of 224
            # products above the cutoff and differed in 176 of 176 below it.
            ct = np.ascontiguousarray(cols.T) if n > 1 and small else cols.T
            gk = (gmat @ ct).reshape(k.shape)
        if x._needs_grad:
            # Above the cutoff kmat.T @ gmat differs from the einsum when
            # N*oh*ow is not a multiple of 8, and the transposed product
            # matches it (355 and 0 of 1920 cases: h = 4..19, N = 1..40,
            # convs 1->8, 3->8, 8->16).  Only there: the scatter then reads
            # dcols strided, 1.8 ms slower for conv2 at N=32.
            if small or gmat.shape[1] % 8 == 0:
                dmat = kmat.T @ gmat
            else:
                dmat = (gmat.T @ kmat).T
            dcols = dmat.reshape(cin, kh, kw, n, oh, ow)
            gxp = np.zeros_like(xp)
            gxt = gxp.transpose(1, 0, 2, 3)
            for i in range(kh):
                for j in range(kw):
                    gxt[:, :, i: i + oh, j: j + ow] += dcols[:, i, j]
            gx = gxp[:, :, pad: pad + h, pad: pad + w]
        return (gx, gk)

    return Tensor(out, (x, k), "conv2d", vjp)


def max_pool2d(x: Tensor, size: int = 2) -> Tensor:
    """Non-overlapping max pooling (stride = size); ties route the gradient
    to the first maximum in scan order, and a NaN counts as the maximum."""
    if x.data.ndim != 4:
        raise ShapeError(f"max_pool2d: expected 4D input, got {x.shape}")
    oh = _out_size(x.shape[2], size, size, 0, "max_pool2d")
    ow = _out_size(x.shape[3], size, size, 0, "max_pool2d")
    cells = [np.s_[:, :, i: size * oh: size, j: size * ow: size]
             for i in range(size) for j in range(size)]
    # np.maximum keeps the first NaN but may keep either of -0.0 and 0.0, so
    # an input with a sign bit set takes the first maximum by comparison
    signed = np.signbit(x.data).any()
    out = x.data[cells[0]].copy()
    for cell in cells[1:]:
        v = x.data[cell]
        if signed:
            out = np.where(~(v <= out) & (out == out), v, out)
        else:
            np.maximum(out, v, out=out)

    def vjp(g, rule):
        g0 = g + 0.0
        gx = np.zeros_like(x.data)
        claimed = np.zeros(out.shape, dtype=bool)
        for cell in cells:
            v = x.data[cell].copy()
            hit = ((v == out) | (v != v)) & ~claimed
            gx[cell] = np.where(hit, g0, 0.0)
            claimed |= hit
        return (gx,)

    return Tensor(out, (x,), "max-pool", vjp)


# ---------------------------------------------------------------------------
# loss

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

_NEAR_ZERO = 1e-9


def rescale_multipliers(root: Tensor, baseline_root: Tensor, seed, *,
                        wrt) -> None:
    """Backward pass computing rescale-rule contribution multipliers.

    Requires two structurally identical graphs: one evaluated at the input
    of interest, one at the baseline.  ``relu`` nodes propagate the
    finite-difference ratio (out - out_baseline) / (in - in_baseline),
    falling back to the local derivative where the input difference is
    within ``_NEAR_ZERO``; all other ops propagate like standard gradients.

    Like :meth:`Tensor.backward`, sets ``grad`` on each ``wrt`` tensor of
    the main graph, and on the nodes between, to its accumulated multiplier.
    """
    order = _topo(root)
    order_b = _topo(baseline_root)
    if len(order) != len(order_b) or any(
            a.op != b.op or a.shape != b.shape for a, b in zip(order, order_b)):
        raise ValueError("baseline graph structure differs from the main graph")
    twin = {id(a): b for a, b in zip(order, order_b)}

    def pull(node):
        if node.op != "relu":
            return node._vjp(node.grad, RULE_STANDARD)
        node_b = twin[id(node)]
        din = node.parents[0].data - node_b.parents[0].data
        dout = node.data - node_b.data
        small = np.abs(din) < _NEAR_ZERO
        local = node._vjp(np.ones_like(node.data), RULE_STANDARD)[0]
        return (node.grad * np.where(small, local,
                                     dout / np.where(small, 1.0, din)),)

    _backprop(root, order, seed, wrt, pull)

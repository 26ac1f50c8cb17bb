"""Dense float64 tensors with reverse-mode automatic differentiation.

A small define-by-run engine: every operation returns a new :class:`Tensor`
that remembers its parents and how to push gradients back to them.  The
graph is rebuilt on every forward pass, which keeps repeated re-evaluation
(as in iterative heatmap optimization) trivially correct.

The ops are the ones the model builds its graph from: ``relu``, ``matmul``,
``flatten``, ``bias_add`` (the fc head's bias), ``conv2d`` and
``max_pool2d``.  ``conv2d`` adds its layer's bias itself, in place on its
product, so a conv layer is one node; ``matmul`` takes the fc weight as
stored, (C, F), and computes ``x @ w.T``, so the fc head is ``flatten``,
``matmul`` and ``bias_add``.
Every sweep starts at the model's raw scores with a seed the caller gives:
attribution's one-hot row, or a loss gradient that training or GAX computes
in numpy.

Rectifier (``relu``) nodes honor a backward *rule* so attribution methods
can reroute gradients without touching the forward pass; every other op
uses its standard gradient.  A ``relu`` node keeps no mask: its vjp reads
the gate from its input's forward array when it runs.  The rules:

* ``standard``     - true gradients everywhere.
* ``deconv-relu``  - rectifiers propagate ``relu(upstream)``, ignoring the
  sign of their forward input.
* ``guided-relu``  - rectifiers propagate upstream masked by both
  forward-positive and upstream-positive.

:meth:`Tensor.backward` and :func:`rescale_multipliers` (DeepLIFT's rescale
rule) share one reverse sweep.  Both take ``wrt``, the tensors whose ``grad``
the caller reads, and only those keep a ``grad`` after the sweep; every other
node's is ``None``.  The sweep computes gradients only on the nodes on a path
from a ``wrt`` tensor to the root, a vjp skips the parent gradients no such
node takes, and each intermediate gradient is dropped as soon as its node's
vjp has pulled it.  Their finite-difference checker lives with the tests
(``tests/gradcheck.py``).

A graph may be swept any number of times, with any rule and ``wrt``, also
after a sweep that raised: a sweep resets every ``grad`` of the graph and
writes no forward array.  A vjp never keeps an array it returns, so the
sweep owns each one with no base that is not the pulled node's own ``grad``
and adopts it, in place, as a parent's first contribution; it copies any
other (a view, or the ``g`` the fc head's ``bias_add`` passes through).
Either way the ``grad`` holds the bytes of ``0.0 + pg`` and shares memory
with no other ``grad`` and no forward array.  Each sweep so gives the bytes
a fresh graph would, and never writes into the ``grad`` arrays an earlier
sweep left, so a caller may keep those arrays (attribution records one
sweep per rule and reads them again).  A ``max_pool2d`` node computes, in
its first vjp, one flat index per window into its input gradient's buffer,
and every sweep scatters the gradient through it; the index depends on the
forward arrays alone.
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

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"

    def backward(self, seed, rule: str = RULE_STANDARD, *, wrt) -> None:
        """Set ``grad`` on each tensor of ``wrt``, which must be part of this
        root's graph; every other node's is ``None``.

        ``seed`` must match the root shape.  Gradients from multiple uses of
        a node accumulate.
        """
        if rule not in BACKWARD_RULES:
            raise ValueError(f"unknown backward rule: {rule!r}")
        _backprop(self, _topo(self), seed, wrt,
                  lambda node: node._vjp(node.grad, rule))


def _backprop(root: Tensor, order: list[Tensor], seed, wrt, pull) -> None:
    """Mark the nodes of ``order`` (``_topo(root)``) on a path from a
    ``wrt`` tensor to ``root``, seed the root, then add ``pull(node)`` (one
    gradient per parent) into the marked parents in reverse.  A first
    contribution becomes ``0.0 + pg``, in place when the sweep owns ``pg``
    (see the module docstring); later ones add in place.  A node not in
    ``wrt`` drops its ``grad`` once its own pull has read it, so at most the
    gradients still to be pulled are alive."""
    seed_arr = _arr(seed)
    if seed_arr.shape != root.data.shape:
        raise ShapeError(
            f"backward seed shape {seed_arr.shape} does not match "
            f"root shape {root.data.shape}")
    keep = {id(t) for t in wrt}
    wanted = set(keep)
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
                    if pg.base is None and pg is not node.grad:
                        parent.grad = np.add(pg, 0.0, out=pg)
                    else:
                        parent.grad = pg + 0.0
                else:
                    parent.grad += pg
            if id(node) not in keep:
                node.grad = None
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
    def vjp(g, rule):
        if rule == RULE_DECONV:
            return (np.maximum(g, 0.0),)
        if rule == RULE_GUIDED:
            return (g * ((a.data > 0) & (g > 0)),)
        return (g * (a.data > 0),)

    return Tensor(np.maximum(a.data, 0.0), (a,), "relu", vjp)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(x: Tensor, w: Tensor) -> Tensor:
    """The dense product ``x @ w.T`` of an (N, F) input and a (C, F)
    weight, the layout a weight file stores: the output is (N, C)."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise ShapeError(f"matmul: input {xd.shape}, weight {wd.shape}")
    return Tensor(xd @ wd.T, (x, w), "matmul", lambda g, r: (
        g @ wd if x._needs_grad else None,
        (xd.T @ g).T if w._needs_grad else None))


def flatten(a: Tensor) -> Tensor:
    """Collapse all axes after the first (the batch axis stays put)."""
    if a.data.ndim < 1:
        raise ShapeError("flatten: needs at least one axis")
    shape = a.shape
    out = a.data.reshape(shape[0], -1)
    return Tensor(out, (a,), "flatten", lambda g, r: (g.reshape(shape),))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-column bias to an (N, C) tensor: the fc head's bias (a
    conv layer adds its own, see :func:`conv2d`)."""
    if b.data.ndim != 1 or x.data.ndim != 2 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"bias_add: expected an (N, C) input and a (C,) "
                         f"bias, got {x.shape} and {b.shape}")
    return Tensor(x.data + b.data, (x, b), "bias-add", lambda g, r: (
        g, g.sum(axis=0) if b._needs_grad else None))


# ---------------------------------------------------------------------------
# convolution and pooling

# OpenBLAS multiplies products of at most this many multiply-adds (M*N*K)
# with its small-matrix kernel, which sums a transposed operand in another
# order than a contiguous one.
_SMALL_GEMM = 1_000_000


def conv2d(x: Tensor, k: Tensor, b: Tensor) -> Tensor:
    """Stride-1 cross-correlation of (N, C_in, H, W), zero-padded by K // 2,
    with an odd square kernel (C_out, C_in, K, K), plus a per-output-channel
    bias (C_out,): the output is H x W."""
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeError(f"conv2d: input {x.shape}, kernel {k.shape}")
    if x.shape[1] != k.shape[1]:
        raise ShapeError(
            f"conv2d: input channels {x.shape[1]} != kernel channels {k.shape[1]}")
    n, _, h, w = x.shape
    cout, cin, kh, kw = k.shape
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d: kernel {k.shape} is not odd and square")
    if b.shape != (cout,):
        raise ShapeError(f"conv2d: bias {b.shape} for kernel {k.shape}")
    pad = kh // 2
    xp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad: pad + h, pad: pad + w] = x.data
    # The windows are gathered once, laid out (C, kh, kw, N, H, W): the
    # operand every GEMM reads.  A strided view of xp has that layout, so
    # one C-order copy gathers every shift.  The ndarray constructor checks
    # the view stays inside xp's buffer and costs 1 us where as_strided
    # costs 6.  Results match the einsum reference in
    # tests/test_conv_parity.py bit for bit.
    sn, sc, sh, sw = xp.strides
    cols = np.ndarray((cin, kh, kw, n, h, w), xp.dtype, xp, 0,
                      (sc, sh, sw, sn, sh, sw)).copy()
    cols = cols.reshape(cin * kh * kw, n * h * w)
    kmat = k.data.reshape(cout, -1)
    # the bias goes onto the contiguous GEMM product in place, so the layer
    # makes no 4-D copy; the output is a transposed view of the product
    prod = kmat @ cols
    prod += b.data[:, None]
    out = prod.reshape(cout, n, h, w).transpose(1, 0, 2, 3)

    def vjp(g, rule):
        gmat = g.transpose(1, 0, 2, 3).reshape(cout, -1)
        gx = gk = None
        gb = g.sum(axis=(0, 2, 3)) if b._needs_grad else None
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
            # N*H*W is not a multiple of 8, and the transposed product
            # matches it (355 and 0 of 1920 cases: h = 4..19, N = 1..40,
            # convs 1->8, 3->8, 8->16).  Only there: the scatter then reads
            # dcols strided, 1.8 ms slower for conv2 at N=32.
            if small or gmat.shape[1] % 8 == 0:
                dmat = kmat.T @ gmat
            else:
                dmat = (gmat.T @ kmat).T
            dcols = dmat.reshape(cin, kh, kw, n, h, w)
            gxp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad))
            gxt = gxp.transpose(1, 0, 2, 3)
            for i in range(kh):
                for j in range(kw):
                    gxt[:, :, i: i + h, j: j + w] += dcols[:, i, j]
            gx = gxp[:, :, pad: pad + h, pad: pad + w]
        return (gx, gk, gb)

    return Tensor(out, (x, k, b), "conv2d", vjp)


def max_pool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties route the gradient to the first
    maximum in scan order, and a NaN counts as the maximum."""
    if x.data.ndim != 4 or min(x.shape[2:]) < 2:
        raise ShapeError("max_pool2d: expected a 4D input with H and W of "
                         f"at least 2, got {x.shape}")
    oh, ow = x.shape[2] // 2, x.shape[3] // 2
    cells = [np.s_[:, :, i: 2 * oh: 2, j: 2 * ow: 2]
             for i in range(2) for j in range(2)]
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

    routes = None   # one flat index into gx per window, built by the first vjp

    def vjp(g, rule):
        nonlocal routes
        # zeros_like lays gx out densely in x's memory order, (C, N, H, W)
        # for a batched relu output, so ravel("K") is a view of its buffer
        gx = np.zeros_like(x.data)
        flat = gx.ravel("K")
        if routes is None:
            if flat.base is not gx:
                raise RuntimeError("max_pool2d: gx has no flat view")
            # each window's out is one of its cells, or NaN when one is a
            # NaN, so the fourth cell takes every window the others leave.
            # The first cell's hits are the first claimed; a later cell hits
            # where it matches and is not yet claimed (hit > claimed)
            nan = np.isnan(out).any()
            masks = []
            claimed = None
            for cell in cells[:-1]:
                v = x.data[cell]
                hit = v == out
                if nan:
                    hit |= v != v
                if claimed is None:
                    claimed = hit
                else:
                    hit = np.greater(hit, claimed)
                    claimed = claimed | hit
                masks.append(hit)
            last = ~claimed
            # a window's top-left cell in gx's element strides, one row down
            # where cell 2 or 3 won and one column right where 1 or 3 did
            sn, sc, sy, sx = (s // gx.itemsize for s in gx.strides)
            n, c = x.shape[:2]
            index = (np.arange(n)[:, None, None, None] * sn
                     + np.arange(c)[:, None, None] * sc
                     + np.arange(oh)[:, None] * (2 * sy)
                     + np.arange(ow) * (2 * sx))
            index += (masks[2] | last) * sy
            index += (masks[1] | last) * sx
            routes = index
        flat[routes] = g + 0.0      # a routed -0.0 adds into a zero: 0.0
        return (gx,)

    return Tensor(out, (x,), "max-pool", vjp)


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
    the main graph to its accumulated multiplier; every other node's is
    ``None``.
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

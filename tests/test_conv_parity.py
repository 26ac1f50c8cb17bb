"""conv2d against its einsum formulation, the reference for its GEMMs.

``reference_conv2d`` (``tests/references.py``) is an np.pad, a window array
of its own and three ``np.einsum`` contractions.  The GEMM version must
reproduce it byte for byte on the shapes the models use, at every batch
size: BLAS sums a product differently depending on the memory layout of its
operands.  Which layout matches depends on the size of the product, not on
N alone: OpenBLAS's small-matrix kernel (M*N*K <= 1e6) sums a transposed
view in another order than a contiguous copy, and above that size the two
agree.  The sweep covers the model's default convs and those of the smaller
gen-data shapes, whose products cross that size within N = 1..33.

The input gradient sums its window gradients back over whole planes
(``autodiff._col2im``), with the cells that target padding zeroed first.
It must give the bytes of the loop of strided adds in ``tests/references.py``
on the very same window gradients, also where they hold signed zeros, NaN
and infinities, on planes smaller than the kernel and on the transposed
product's strided layout.
"""

import tracemalloc

import numpy as np
import pytest

from gaxkit import autodiff as ad
from gaxkit.autodiff import RULE_STANDARD, Tensor
from references import reference_col2im, reference_conv2d


def _case(rng, n, cin, h, w, cout, k):
    """conv2d and the reference at same padding, pad k // 2, with the bias
    added to the reference's output and summed from its upstream gradient."""
    # relu-like zeros in x and g exercise the sign of zero in the sums
    x = np.maximum(rng.normal(size=(n, cin, h, w)), 0.0)
    kernel = rng.normal(size=(cout, cin, k, k))
    g = np.maximum(rng.normal(size=(n, cout, h, w)), 0.0)
    bias = rng.normal(size=cout)
    t = ad.conv2d(Tensor(x), Tensor(kernel), Tensor(bias))
    gx, gk, gb = t._vjp(g, RULE_STANDARD)
    out, ref_gx, ref_gk = reference_conv2d(x, kernel, g, k // 2)
    return ((t.data, gx, gk, gb),
            (out + bias[None, :, None, None], ref_gx, ref_gk,
             g.sum(axis=(0, 2, 3))))


# MiniConvNet's conv1 and conv2 as (cin, h, w, cout, k), pad k // 2: the
# default input (3, 32, 32), then gen-data --shape 3,16,16 and 1,12,12.
# The last conv at odd N >= 25 is where the input gradient needs the
# transposed product.  A weight file fixes every count but conv1's input
# channels, so conv1 also runs at C = 2 and 4.
MODEL_CONVS = [(3, 32, 32, 8, 3), (8, 16, 16, 16, 3),
               (3, 16, 16, 8, 3), (8, 8, 8, 16, 3),
               (1, 12, 12, 8, 3), (8, 6, 6, 16, 3),
               (2, 16, 16, 8, 3), (4, 9, 9, 8, 3)]


@pytest.mark.parametrize("n", range(1, 34))
@pytest.mark.parametrize("cin,h,w,cout,k", MODEL_CONVS)
def test_model_convs_are_byte_equal(n, cin, h, w, cout, k):
    rng = np.random.default_rng(n * 100 + cin)
    got, want = _case(rng, n, cin, h, w, cout, k)
    for name, a, b in zip(("output", "gx", "gk", "gb"), got, want):
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_pad_kernel_sweep_matches():
    # every odd kernel at its same padding, inputs smaller than it included
    rng = np.random.default_rng(0)
    for k in (1, 3, 5) * 3:
        n, cin, cout = (int(v) for v in rng.integers(1, 4, size=3))
        h, w = (1 + int(v) for v in rng.integers(0, 6, size=2))
        got, want = _case(rng, n, cin, h, w, cout, k)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


def test_kernel_gradient_copies_no_window_matrix():
    # conv1 at N=32: its window matrix is 27 x 32768 doubles (7.1 MB), far
    # above the small-matrix size, so gk reads it in place
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(32, 3, 32, 32)))
    t = ad.conv2d(x, Tensor(rng.normal(size=(8, 3, 3, 3))),
                  Tensor(rng.normal(size=8)))
    x._needs_grad = False
    g = rng.normal(size=t.shape)
    cols_bytes = 27 * 32 * 32 * 32 * 8
    tracemalloc.start()
    try:
        gx, gk, gb = t._vjp(g, RULE_STANDARD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gx is None and gk.shape == (8, 3, 3, 3) and gb.shape == (8,)
    assert peak < cols_bytes


def _special(rng, shape, order="C"):
    """Normal values with about a fifth of the cells replaced by -0.0,
    +0.0, NaN, +inf or -inf."""
    a = rng.normal(size=shape)
    picks = rng.integers(0, 25, size=shape)
    for code, value in enumerate((-0.0, 0.0, np.nan, np.inf, -np.inf)):
        a[picks == code] = value
    return np.asarray(a, order=order)


def _col2im_cases():
    # K = 1, 3 and 5 on planes down to 1 x 1, where a zeroed cell's shift
    # wraps across rows and planes and into both margins, at N = 1, 2, 31
    for k in (1, 3, 5):
        for h, w in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 5), (2, 7), (4, 4),
                     (5, 3), (6, 6)):
            for n in (1, 2, 31):
                yield k, h, w, n


@pytest.mark.parametrize("order", ["C", "F"])
def test_col2im_is_the_loop_byte_for_byte(order):
    # the (C*K*K, N*H*W) product is C-ordered, or F-ordered where conv2d
    # takes the transposed product, and dcols is its 6-D view
    rng = np.random.default_rng(37)
    for k, h, w, n in _col2im_cases():
        cin = int(rng.integers(1, 4))
        dmat = _special(rng, (cin * k * k, n * h * w), order)
        work = dmat.copy(order="K")
        dcols = work.reshape(cin, k, k, n, h, w)
        assert np.shares_memory(dcols, work)
        with np.errstate(invalid="ignore"):     # inf + -inf
            want = reference_col2im(
                dmat.reshape(dcols.shape).transpose(3, 0, 1, 2, 4, 5), k // 2)
            got = ad._col2im(dcols)
        assert got.shape == want.shape == (n, cin, h, w)
        assert got.tobytes() == want.tobytes(), (k, h, w, n, order)


@pytest.mark.parametrize("n,cin,h,w,cout,k,transposed", [
    (1, 3, 32, 32, 8, 3, False), (1, 8, 16, 16, 16, 3, False),
    (2, 2, 5, 7, 4, 5, False), (3, 1, 2, 2, 3, 3, False),
    (2, 3, 1, 4, 2, 1, False),
    # conv2 of the 3x30x30 model at batch 31: N*H*W is no multiple of 8
    # above the small-product size, so dmat is F-ordered
    (31, 8, 15, 15, 16, 3, True)])
def test_vjp_input_gradient_is_the_loop_on_its_own_windows(
        monkeypatch, n, cin, h, w, cout, k, transposed):
    # an upstream gradient with signed zeros, NaN and infinities; the vjp's
    # own window gradients, copied before _col2im zeroes any, run through
    # the loop must give gx's bytes
    rng = np.random.default_rng(n * 10 + k)
    t = ad.conv2d(Tensor(rng.normal(size=(n, cin, h, w))),
                  Tensor(rng.normal(size=(cout, cin, k, k))),
                  Tensor(rng.normal(size=cout)))
    seen = []
    col2im = ad._col2im

    def record(dcols):
        seen.append((dcols.copy(), not dcols.flags.c_contiguous))
        return col2im(dcols)

    monkeypatch.setattr(ad, "_col2im", record)
    with np.errstate(invalid="ignore"):         # inf + -inf
        gx, _, _ = t._vjp(_special(rng, t.shape), RULE_STANDARD)
        ((dcols, strided),) = seen
        want = reference_col2im(dcols.transpose(3, 0, 1, 2, 4, 5), k // 2)
    assert strided == transposed
    assert not np.isfinite(dcols).all()
    assert gx.tobytes() == want.tobytes()


def test_input_gradient_allocates_no_padded_buffer():
    # conv2 of a 1x8x8 input at N=32, 4x4 planes: a padded (N, C, 6, 6) sum
    # would be 73,728 bytes, the flat planes and margins are 32,848.  gx
    # keeps the buffer it was summed in alive.  A small ufunc buffer keeps
    # numpy's iteration buffer out of the peak, which is then the upstream
    # gradient's (C_out, N*H*W) copy, the window gradients and that buffer
    rng = np.random.default_rng(5)
    n, cin, h, w, cout = 32, 8, 4, 4, 16
    k, b = Tensor(rng.normal(size=(cout, cin, 3, 3))), Tensor(np.zeros(cout))
    t = ad.conv2d(Tensor(rng.normal(size=(n, cin, h, w))), k, b)
    k._needs_grad = b._needs_grad = False
    g = rng.normal(size=t.shape)
    padded = n * cin * (h + 2) * (w + 2) * 8
    gmat, dmat = cout * n * h * w * 8, cin * 9 * n * h * w * 8
    bufsize = np.setbufsize(256)
    tracemalloc.start()
    try:
        gx, gk, gb = t._vjp(g, RULE_STANDARD)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert gk is None and gb is None
    assert n * cin * h * w * 8 <= kept < padded
    assert peak < gmat + dmat + padded

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
"""

import tracemalloc

import numpy as np
import pytest

from gaxkit import autodiff as ad
from gaxkit.autodiff import RULE_STANDARD, Tensor
from references import reference_conv2d


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

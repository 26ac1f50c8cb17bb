"""max_pool2d against its window-stack formulation.

``reference_max_pool2d`` (``tests/references.py``) stacks every 2x2 window,
takes the argmax and scatters the upstream gradient to it.  The strided
version must reproduce its output and input gradient byte for byte,
including ties, signed zeros and NaN windows.
"""

import numpy as np
import pytest

from gaxkit import autodiff as ad
from gaxkit.autodiff import RULE_STANDARD, Tensor
from references import reference_max_pool2d


def assert_byte_equal(x, g):
    t = ad.max_pool2d(Tensor(x))
    (gx,) = t._vjp(g, RULE_STANDARD)
    want_out, want_gx = reference_max_pool2d(x, g)
    for name, a, b in (("output", t.data, want_out), ("gx", gx, want_gx)):
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _relu_case(rng, n, c, h, w):
    # relu zeros make ties inside a window; g holds zeros of both signs
    x = np.maximum(rng.normal(size=(n, c, h, w)), 0.0)
    g = rng.normal(size=(n, c, h // 2, w // 2))
    g[rng.random(g.shape) < 0.2] = 0.0
    g[rng.random(g.shape) < 0.2] = -0.0
    return x, g


# MiniConvNet's default pool1 and pool2 inputs: (c, h, w)
MODEL_POOLS = [(8, 32, 32), (16, 16, 16)]


@pytest.mark.parametrize("n", [1, 2, 3, 32])
@pytest.mark.parametrize("c,h,w", MODEL_POOLS)
def test_model_pools_are_byte_equal(n, c, h, w):
    x, g = _relu_case(np.random.default_rng(n * 100 + c), n, c, h, w)
    assert_byte_equal(x, g)


def test_odd_extent_leaves_the_remainder_at_zero():
    x, g = _relu_case(np.random.default_rng(2), 3, 2, 5, 7)
    assert_byte_equal(x, g)


def test_ties_go_to_the_first_maximum():
    x = np.zeros((1, 1, 4, 4))
    x[0, 0, 2:, 2:] = [[1.0, 1.0], [1.0, 0.5]]
    x[0, 0, :2, 2:] = [[0.0, 3.0], [3.0, 3.0]]
    g = np.arange(1.0, 5.0).reshape(1, 1, 2, 2)
    assert_byte_equal(x, g)
    (gx,) = ad.max_pool2d(Tensor(x))._vjp(g, RULE_STANDARD)
    assert gx[0, 0, 0, 0] == 1.0 and gx[0, 0, 0, 3] == 2.0
    assert gx[0, 0, 2, 0] == 3.0 and gx[0, 0, 2, 2] == 4.0
    assert np.count_nonzero(gx) == 4


def test_signed_zeros_in_input_and_gradient():
    x = np.array([[[[-0.0, 0.0, 0.0, -0.0], [0.0, -0.0, -0.0, -0.0]]]])
    for gv in (0.0, -0.0, -2.0):
        g = np.full((1, 1, 1, 2), gv)
        assert_byte_equal(x, g)
        assert_byte_equal(-x, g)


@pytest.mark.parametrize("nan_at", [[(0, 1)], [(1, 0), (1, 1)],
                                    [(0, 0), (1, 1)]])
def test_nan_windows_route_to_the_first_nan(nan_at):
    rng = np.random.default_rng(len(nan_at))
    x, g = _relu_case(rng, 2, 3, 6, 6)
    for i, j in nan_at:
        x[1, 2, 2 + i, 4 + j] = np.nan
    assert_byte_equal(x, g)
    t = ad.max_pool2d(Tensor(x))
    assert np.isnan(t.data[1, 2, 1, 2])
    assert np.isnan(t.data).sum() == 1


def test_signed_input_with_ties_and_nans():
    # small integers tie often; -0.0, 0.0 and NaNs of both signs mix in
    rng = np.random.default_rng(12)
    x = rng.integers(-2, 3, size=(4, 3, 7, 9)).astype(np.float64)
    x[rng.random(x.shape) < 0.2] = -0.0
    x[rng.random(x.shape) < 0.03] = np.nan
    x[rng.random(x.shape) < 0.03] = -np.nan
    g = rng.normal(size=(4, 3, 3, 4))
    g[rng.random(g.shape) < 0.2] = -0.0
    assert_byte_equal(x, g)
    assert_byte_equal(np.abs(x), g)


def _mixed_case(rng):
    """Ties, NaNs of both signs and zeros of both signs, and an upstream
    gradient with signed zeros."""
    x = rng.integers(-2, 3, size=(3, 2, 7, 9)).astype(np.float64)
    x[rng.random(x.shape) < 0.2] = -0.0
    x[rng.random(x.shape) < 0.05] = np.nan
    x[rng.random(x.shape) < 0.05] = -np.nan
    return x, lambda: _signed_zero_g(rng, (3, 2, 3, 4))


def _signed_zero_g(rng, shape):
    g = rng.normal(size=shape)
    g[rng.random(shape) < 0.2] = 0.0
    g[rng.random(shape) < 0.2] = -0.0
    return g


@pytest.mark.parametrize("signed", [True, False])
def test_repeat_sweeps_reuse_the_routing(signed):
    # the first vjp turns the routing masks into routes, later ones reuse them
    x, draw = _mixed_case(np.random.default_rng(22))
    if not signed:
        x = np.abs(x)
    t = ad.max_pool2d(Tensor(x))
    for _ in range(3):
        g = draw()
        (gx,) = t._vjp(g, RULE_STANDARD)
        assert gx.tobytes() == reference_max_pool2d(x, g)[1].tobytes()


def test_a_vjp_that_raises_leaves_later_sweeps_correct():
    x, draw = _mixed_case(np.random.default_rng(30))
    t = ad.max_pool2d(Tensor(x))
    with pytest.raises(ValueError):
        t._vjp(np.ones((3, 2, 3, 5)), RULE_STANDARD)    # (3, 2, 3, 4) wanted
    for _ in range(2):
        g = draw()
        (gx,) = t._vjp(g, RULE_STANDARD)
        assert gx.tobytes() == reference_max_pool2d(x, g)[1].tobytes()


# one window's four cells in scan order; the first vjp builds the routing
# masks, testing for NaN only when the output holds one, and gives the
# fourth cell every window the first three leave
WINDOWS = {
    "only-maximum-in-the-fourth-cell": [[1.0, 2.0], [3.0, 4.0]],
    "four-way-tie": [[2.0, 2.0], [2.0, 2.0]],
    "signed-zero-tie": [[-1.0, -0.0], [0.0, -2.0]],
    "nan-only-in-the-fourth-cell": [[1.0, 2.0], [3.0, np.nan]],
}


@pytest.mark.parametrize("nan_elsewhere", [False, True])
@pytest.mark.parametrize("case", WINDOWS)
def test_window_cases_on_first_and_repeat_sweeps(case, nan_elsewhere):
    rng = np.random.default_rng(40)
    x, _ = _relu_case(rng, 2, 2, 4, 6)
    x[1, 1, 2:, 2:4] = WINDOWS[case]
    if nan_elsewhere:       # another window's NaN selects the NaN test
        x[0, 0, 0, 5] = np.nan
    t = ad.max_pool2d(Tensor(x))
    for _ in range(2):
        g = _signed_zero_g(rng, (2, 2, 2, 3))
        want_out, want_gx = reference_max_pool2d(x, g)
        (gx,) = t._vjp(g, RULE_STANDARD)
        assert t.data.tobytes() == want_out.tobytes()
        assert gx.tobytes() == want_gx.tobytes()


def _channel_major(x):
    """``x`` stored in (C, N, H, W) memory order, as a batched relu output
    of a conv layer is."""
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


@pytest.mark.parametrize("n", [2, 31])
@pytest.mark.parametrize("c,h,w", [(8, 32, 32), (16, 15, 15), (3, 5, 7)])
def test_channel_major_inputs_are_byte_equal(n, c, h, w):
    x, g = _relu_case(np.random.default_rng(n * 10 + h), n, c, h, w)
    x = _channel_major(x)
    assert not x.flags.c_contiguous
    assert_byte_equal(x, g)
    (gx,) = ad.max_pool2d(Tensor(x))._vjp(g, RULE_STANDARD)
    assert gx.strides == x.strides


@pytest.mark.parametrize("order", [np.ascontiguousarray, _channel_major])
def test_one_node_swept_three_times_gives_fresh_equal_gradients(order):
    x, g = _relu_case(np.random.default_rng(50), 2, 3, 15, 15)
    t = ad.max_pool2d(Tensor(order(x)))
    grads = [t._vjp(g, RULE_STANDARD)[0] for _ in range(3)]
    assert grads[0].tobytes() == reference_max_pool2d(x, g)[1].tobytes()
    for i, gx in enumerate(grads[1:], 1):
        assert gx.tobytes() == grads[0].tobytes()
        assert not any(np.shares_memory(gx, grads[j]) for j in range(i))

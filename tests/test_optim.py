"""Adam update semantics."""

import numpy as np
import pytest

from gaxkit.autodiff import ShapeError
from gaxkit.optim import Adam


def test_zero_gradient_leaves_params_unchanged():
    opt = Adam(learning_rate=0.1)
    params = {"p": np.array([1.5, -2.0, 0.0])}
    for _ in range(25):
        params = opt.step(params, {"p": np.zeros(3)})
    np.testing.assert_array_equal(params["p"], [1.5, -2.0, 0.0])


def test_first_step_moves_by_lr_against_gradient_sign():
    # bias correction makes the very first update -lr * sign(g), up to eps
    opt = Adam(learning_rate=0.1, beta1=0.9)
    params = opt.step({"p": np.array([0.0])}, {"p": np.array([1.0])})
    assert params["p"][0] == pytest.approx(-0.1, abs=1e-7)


def test_constant_gradient_decreases_monotonically():
    opt = Adam(learning_rate=0.05)
    params = {"p": np.array([3.0])}
    values = [params["p"][0]]
    for _ in range(200):
        params = opt.step(params, {"p": np.array([0.7])})
        values.append(params["p"][0])
    diffs = np.diff(values)
    assert np.all(diffs < 0)


def test_shape_mismatch_rejected():
    opt = Adam(learning_rate=0.1)
    with pytest.raises(ShapeError):
        opt.step({"p": np.zeros(3)}, {"p": np.zeros(4)})


def test_moments_track_parameter_shapes():
    opt = Adam(learning_rate=0.01)
    params = {"a": np.zeros((2, 3)), "b": np.zeros(5)}
    grads = {"a": np.ones((2, 3)), "b": np.ones(5)}
    opt.step(params, grads)
    assert opt._m["a"].shape == (2, 3)
    assert opt._v["b"].shape == (5,)
    assert opt.step_count == 1

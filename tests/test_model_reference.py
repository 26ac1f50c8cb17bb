"""A training step of MiniConvNet against a numpy composition of the op
references.

The reference builds the model's forward pass and its backward pass by
hand from ``reference_conv2d``, ``reference_max_pool2d`` and numpy relu,
fc and bias sums, sharing no code with the engine; only the loss head's
gradient (numpy in training too) seeds both.  The engine's six parameter
gradients must equal the reference's byte for byte, so a change to how a
sweep stores or routes gradients is judged against a formulation of its
own, not only against the engine's previous version.
"""

import numpy as np
import pytest

from gaxkit.models import KERNEL, MiniConvNet
from gaxkit.training import _cross_entropy
from references import reference_conv2d, reference_max_pool2d

PAD = KERNEL // 2


def _model(shape, seed):
    model = MiniConvNet(input_shape=shape, num_classes=2, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name in ("conv1.b", "conv2.b", "fc.b"):     # zero at init
        model.params[name] = rng.normal(0.0, 0.1, model.params[name].shape)
    return model


def _bias(z, b):
    return z + b.reshape((1, -1) + (1,) * (z.ndim - 2))


def reference_step(params, x, y):
    """Raw scores and the six parameter gradients of one training step."""
    p = params
    z1 = _bias(reference_conv2d(x, p["conv1.w"], pad=PAD)[0], p["conv1.b"])
    a1 = np.maximum(z1, 0.0)
    q1 = reference_max_pool2d(a1)[0]
    z2 = _bias(reference_conv2d(q1, p["conv2.w"], pad=PAD)[0], p["conv2.b"])
    a2 = np.maximum(z2, 0.0)
    q2 = reference_max_pool2d(a2)[0]
    flat = q2.reshape(len(x), -1)
    scores = flat @ p["fc.w"].T + p["fc.b"]

    dz = _cross_entropy(scores, y)[1]
    grads = {"fc.b": dz.sum(axis=0), "fc.w": (flat.T @ dz).T}
    dq2 = (dz @ p["fc.w"]).reshape(q2.shape)
    dz2 = reference_max_pool2d(a2, dq2)[1] * (z2 > 0)
    grads["conv2.b"] = dz2.sum(axis=(0, 2, 3))
    _, dq1, grads["conv2.w"] = reference_conv2d(q1, p["conv2.w"], dz2, PAD)
    dz1 = reference_max_pool2d(a1, dq1)[1] * (z1 > 0)
    grads["conv1.b"] = dz1.sum(axis=(0, 2, 3))
    grads["conv1.w"] = reference_conv2d(x, p["conv1.w"], dz1, PAD)[2]
    return scores, grads


@pytest.mark.parametrize("shape,n", [((3, 32, 32), 3), ((3, 32, 32), 32),
                                     ((1, 24, 24), 32)],
                         ids=["3x32x32-n3", "3x32x32-n32", "1x24x24-n32"])
def test_train_step_gradients_equal_the_reference(shape, n):
    model = _model(shape, seed=n + shape[0])
    rng = np.random.default_rng(n + 100)
    x = rng.uniform(0.0, 1.0, size=(n, *shape))
    y = np.arange(n) % 2

    fp = model.forward_graph(x)
    dz = _cross_entropy(fp.scores.data, y)[1]
    fp.scores.backward(dz, wrt=fp.params.values())
    scores, want = reference_step(model.params, x, y)

    assert fp.scores.data.tobytes() == scores.tobytes()
    assert set(want) == set(fp.params)
    for name, leaf in fp.params.items():
        assert leaf.grad.shape == want[name].shape, name
        assert leaf.grad.tobytes() == want[name].tobytes(), name

"""MiniConvNet's training step and gradient heatmaps against a numpy
composition of the op references.

The reference builds the model's forward pass and its backward pass by
hand from ``reference_conv2d``, ``reference_max_pool2d`` and numpy relu,
fc and bias sums, sharing no code with the engine; the three rectifier
rules are written out here.  A training step is seeded by the loss head's
gradient (numpy in training too), a heatmap by a one-hot row.  The engine's
six parameter gradients, and the heatmaps of the four gradient methods and
of Grad-CAM at ``conv1`` and ``conv2`` read off one graph, must equal the
reference's byte for byte, so a change to how a sweep stores, routes or
shares gradients is judged against a formulation of its own, not only
against the engine's previous version.
"""

import numpy as np
import pytest

from gaxkit.attribution import attribute
from gaxkit.models import KERNEL, MiniConvNet
from gaxkit.training import _cross_entropy
from references import reference_conv2d, reference_max_pool2d

PAD = KERNEL // 2

# relu's backward per rule: upstream g, forward input z
RELU_BACKWARD = {
    "standard": lambda g, z: g * (z > 0),
    "deconv": lambda g, z: np.maximum(g, 0.0),
    "guided": lambda g, z: g * ((z > 0) & (g > 0)),
}


def _model(shape, seed, num_classes=2):
    model = MiniConvNet(input_shape=shape, num_classes=num_classes,
                        seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name in ("conv1.b", "conv2.b", "fc.b"):     # zero at init
        model.params[name] = rng.normal(0.0, 0.1, model.params[name].shape)
    return model


def _bias(z, b):
    return z + b.reshape((1, -1) + (1,) * (z.ndim - 2))


def reference_forward(params, x):
    """Raw scores, and the arrays the backward pass reads by name."""
    p = params
    z1 = _bias(reference_conv2d(x, p["conv1.w"], pad=PAD)[0], p["conv1.b"])
    a1 = np.maximum(z1, 0.0)
    q1 = reference_max_pool2d(a1)[0]
    z2 = _bias(reference_conv2d(q1, p["conv2.w"], pad=PAD)[0], p["conv2.b"])
    a2 = np.maximum(z2, 0.0)
    q2 = reference_max_pool2d(a2)[0]
    flat = q2.reshape(len(x), -1)
    scores = flat @ p["fc.w"].T + p["fc.b"]
    return scores, {"x": x, "z1": z1, "a1": a1, "q1": q1, "z2": z2, "a2": a2,
                    "q2": q2, "flat": flat}


def reference_backward(params, fwd, dz, rule="standard"):
    """For score gradient ``dz``, the gradients of the six parameters, of
    the input (``"input"``) and of the pre-rectifier conv outputs
    (``"conv1"``, ``"conv2"``), with relu's backward under ``rule``."""
    p, relu = params, RELU_BACKWARD[rule]
    grads = {"fc.b": dz.sum(axis=0), "fc.w": (fwd["flat"].T @ dz).T}
    dq2 = (dz @ p["fc.w"]).reshape(fwd["q2"].shape)
    grads["conv2"] = dz2 = relu(reference_max_pool2d(fwd["a2"], dq2)[1],
                                fwd["z2"])
    grads["conv2.b"] = dz2.sum(axis=(0, 2, 3))
    _, dq1, grads["conv2.w"] = reference_conv2d(fwd["q1"], p["conv2.w"], dz2,
                                                PAD)
    grads["conv1"] = dz1 = relu(reference_max_pool2d(fwd["a1"], dq1)[1],
                                fwd["z1"])
    grads["conv1.b"] = dz1.sum(axis=(0, 2, 3))
    _, grads["input"], grads["conv1.w"] = reference_conv2d(
        fwd["x"], p["conv1.w"], dz1, PAD)
    return grads


def reference_gradcam(z, dz, shape):
    """Grad-CAM of one sample's layer output ``z`` (1, K, h, w) with
    gradient ``dz``, upsampled nearest to ``shape`` (C, H, W)."""
    weights = dz.mean(axis=(2, 3))
    cam = np.maximum((weights[:, :, None, None] * z).sum(axis=1), 0.0)[0]
    _, h, w = shape
    rows = np.arange(h) * cam.shape[0] // h
    cols = np.arange(w) * cam.shape[1] // w
    return np.broadcast_to(cam[rows][:, cols], shape)


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
    scores, fwd = reference_forward(model.params, x)
    want = reference_backward(model.params, fwd, dz)

    assert fp.scores.data.tobytes() == scores.tobytes()
    assert set(fp.params) == {k for k in want if "." in k}
    for name, leaf in fp.params.items():
        assert leaf.grad.shape == want[name].shape, name
        assert leaf.grad.tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("shape", [(3, 32, 32), (1, 24, 24), (3, 12, 20),
                                   (2, 8, 8)],
                         ids=["3x32x32", "1x24x24", "3x12x20", "2x8x8"])
def test_gradient_heatmaps_equal_the_reference(shape):
    classes = 3
    model = _model(shape, seed=shape[1] + shape[2], num_classes=classes)
    x = np.random.default_rng(shape[0]).uniform(0.0, 1.0, size=(1, *shape))
    scores, fwd = reference_forward(model.params, x)
    # every method at every target reads one graph, as ax-sweep reads it
    fp = model.forward_graph(x)
    assert fp.scores.data.tobytes() == scores.tobytes()
    for target in range(classes):
        seed = np.zeros((1, classes))
        seed[0, target] = 1.0
        std, deconv, guided = (reference_backward(model.params, fwd, seed,
                                                  rule)
                               for rule in ("standard", "deconv", "guided"))
        want = {
            "saliency": std["input"][0],
            "input-x-gradient": x[0] * std["input"][0],
            "deconvolution": deconv["input"][0],
            "guided-backprop": guided["input"][0],
            "layer-gradcam:conv1": reference_gradcam(fwd["z1"], std["conv1"],
                                                     shape),
            "layer-gradcam:conv2": reference_gradcam(fwd["z2"], std["conv2"],
                                                     shape),
        }
        for method, values in want.items():
            got = attribute(model, fp, target, method).values
            assert got.shape == shape, method
            assert got.tobytes() == values.tobytes(), (target, method)

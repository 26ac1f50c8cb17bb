"""MiniConvNet's scores, training step, heatmaps and GAX gradient against
a numpy composition of the op references.

The reference builds the model's forward pass and its backward pass by
hand from ``reference_conv2d``, ``reference_max_pool2d`` and numpy relu,
fc and bias sums, sharing no code with the engine; the three rectifier
rules and DeepLIFT's rescale rule are written out here, and so is GAX's
numpy head.  A training step is seeded by the loss head's gradient (numpy
in training too), a heatmap by a one-hot row, a GAX step by d loss /
d scores.  The engine's graph-free ``scores``, its six parameter
gradients, the heatmaps of the four gradient methods, of DeepLIFT and of
Grad-CAM at ``conv1`` and ``conv2`` read off one graph, and the gradient
of ``gax._objective`` with and without the bias must equal the
reference's byte for byte, so a change to how an op computes, or a sweep
stores, routes or shares gradients, is judged against a formulation of its
own, not only against the engine's previous version.
"""

import numpy as np
import pytest

from gaxkit.attribution import attribute
from gaxkit.ax import ScoreConstants
from gaxkit.gax import EPSILON, GaxConfig, _objective
from gaxkit.models import KERNEL, MiniConvNet
from gaxkit.training import _cross_entropy
from references import reference_conv2d, reference_max_pool2d

PAD = KERNEL // 2
NEAR_ZERO = 1e-9    # the rescale rule takes the local slope below this |din|
GEOMETRIES = pytest.mark.parametrize(
    "shape", [(3, 32, 32), (1, 24, 24), (3, 12, 20), (2, 8, 8)],
    ids=["3x32x32", "1x24x24", "3x12x20", "2x8x8"])

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


def reference_backward(params, fwd, dz, rule="standard", base=None):
    """For score gradient ``dz``, the gradients of the six parameters, of
    the input (``"input"``) and of the pre-rectifier conv outputs
    (``"conv1"``, ``"conv2"``), with relu's backward under ``rule``:
    a key of ``RELU_BACKWARD``, or ``"rescale"``, DeepLIFT's rescale rule
    against the baseline's ``reference_forward`` arrays ``base``."""
    p = params

    def relu(g, layer):
        z = fwd["z" + layer]
        if rule != "rescale":
            return RELU_BACKWARD[rule](g, z)
        din = z - base["z" + layer]
        dout = fwd["a" + layer] - base["a" + layer]
        small = np.abs(din) < NEAR_ZERO
        return g * np.where(small, z > 0, dout / np.where(small, 1.0, din))

    grads = {"fc.b": dz.sum(axis=0), "fc.w": (fwd["flat"].T @ dz).T}
    dq2 = (dz @ p["fc.w"]).reshape(fwd["q2"].shape)
    grads["conv2"] = dz2 = relu(reference_max_pool2d(fwd["a2"], dq2)[1], "2")
    grads["conv2.b"] = dz2.sum(axis=(0, 2, 3))
    _, dq1, grads["conv2.w"] = reference_conv2d(fwd["q1"], p["conv2.w"], dz2,
                                                PAD)
    grads["conv1"] = dz1 = relu(reference_max_pool2d(fwd["a1"], dq1)[1], "1")
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


def _one_hot(classes, target):
    seed = np.zeros((1, classes))
    seed[0, target] = 1.0
    return seed


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


@GEOMETRIES
def test_gradient_heatmaps_equal_the_reference(shape):
    classes = 3
    model = _model(shape, seed=shape[1] + shape[2], num_classes=classes)
    x = np.random.default_rng(shape[0]).uniform(0.0, 1.0, size=(1, *shape))
    scores, fwd = reference_forward(model.params, x)
    # every method at every target reads one graph, as ax-sweep reads it
    fp = model.forward_graph(x)
    assert fp.scores.data.tobytes() == scores.tobytes()
    for target in range(classes):
        seed = _one_hot(classes, target)
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


@GEOMETRIES
def test_graph_free_scores_equal_the_reference(shape):
    # ``scores`` gives each row of a batch the bytes it gets alone (its fc
    # runs one row at a time), so its reference is the forward of each row
    model = _model(shape, seed=shape[1] + shape[2], num_classes=3)
    x = np.random.default_rng(shape[0]).uniform(0.0, 1.0, size=(32, *shape))
    want = np.concatenate([reference_forward(model.params, x[i: i + 1])[0]
                           for i in range(len(x))])
    got = model.scores(x)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@GEOMETRIES
def test_deeplift_heatmaps_equal_the_reference(shape):
    classes = 3
    model = _model(shape, seed=shape[1] + shape[2], num_classes=classes)
    x = np.random.default_rng(shape[0]).uniform(0.0, 1.0, size=(1, *shape))
    baseline = np.zeros_like(x)
    _, fwd = reference_forward(model.params, x)
    _, base = reference_forward(model.params, baseline)
    fp = model.forward_graph(x)
    for target in range(classes):
        mult = reference_backward(model.params, fwd, _one_hot(classes, target),
                                  "rescale", base)["input"]
        want = (x[0] - baseline[0]) * mult[0]
        got = attribute(model, fp, target, "deeplift").values
        assert got.shape == shape
        assert got.tobytes() == want.tobytes(), target


def reference_gax_objective(params, x, gax, fx, truth, similarity_factor):
    """GAX's loss, CO score and gradient by parameter name at ``gax``
    (``w`` and, with the bias, ``b``) for one sample ``x`` with raw scores
    ``fx``; the model part is ``reference_forward``/``reference_backward``
    seeded with d loss / d scores."""
    classes = len(fx)
    kappa = np.full(classes, -1.0)
    kappa[truth] = classes - 1.0
    pre = gax["w"] * x
    if "b" in gax:
        pre = pre + gax["b"]
    h = np.tanh(pre)
    scores, fwd = reference_forward(params, (x + h)[None])
    diff = scores[0] - fx
    co = float(kappa @ (diff - diff[truth])) / (classes - 1.0)
    dev = h - x + EPSILON
    inv = 1.0 / (x + EPSILON)
    recip = 1.0 / (dev * dev * inv).mean()
    loss = recip * similarity_factor - co
    dz = -(1.0 / (classes - 1.0)) * kappa[None]
    dx = reference_backward(params, fwd, dz)["input"][0]
    gh = 2.0 * dev * (-similarity_factor * recip * recip / dev.size * inv)
    gh += dx
    gpre = gh * (1.0 - h * h)
    grads = {"w": gpre * x}
    if "b" in gax:
        grads["b"] = gpre
    return float(loss), co, grads


@GEOMETRIES
@pytest.mark.parametrize("use_bias", [False, True], ids=["no-bias", "bias"])
def test_gax_gradient_equals_the_reference(shape, use_bias):
    classes = 3
    model = _model(shape, seed=shape[1] + shape[2], num_classes=classes)
    rng = np.random.default_rng(shape[0] + 10)
    x = rng.uniform(0.0, 1.0, size=shape)
    fx = reference_forward(model.params, x[None])[0][0]
    cfg = GaxConfig()
    gax = {"w": rng.uniform(0.5, 1.5, size=shape)}
    if use_bias:
        gax["b"] = rng.uniform(-0.1, 0.1, size=shape)
    for truth in range(classes):
        loss, co, _, gradient = _objective(model, x, fx,
                                           ScoreConstants(classes, truth),
                                           cfg)(gax)
        want_loss, want_co, want = reference_gax_objective(
            model.params, x, gax, fx, truth, cfg.similarity_factor)
        assert (loss, co) == (want_loss, want_co), truth
        got = gradient()
        assert set(got) == set(want)
        for name, values in want.items():
            assert got[name].tobytes() == values.tobytes(), (truth, name)

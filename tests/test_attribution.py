"""Attribution method semantics against closed-form oracles."""

import numpy as np
import pytest

from gaxkit import (Heatmap, LinearModel, MiniConvNet, PerfectClassifier2D,
                    attribute, attribute_at_predicted, normalize)
from gaxkit.attribution import parse_method
from gaxkit.autodiff import ShapeError
from gaxkit.toy import rotation


@pytest.fixture(scope="module")
def linear_model():
    rng = np.random.default_rng(17)
    return LinearModel(rng.normal(size=(3, 5)))


@pytest.fixture(scope="module")
def conv_model():
    return MiniConvNet(input_shape=(3, 16, 16), num_classes=2, seed=23)


class TestLinearOracles:
    def test_saliency_is_weight_row(self, linear_model):
        rng = np.random.default_rng(0)
        m = linear_model.params["M"]
        for j in range(3):
            for _ in range(3):
                x = rng.normal(size=5)
                h = attribute(linear_model, x, j, "saliency")
                np.testing.assert_allclose(h.values, m[j], atol=1e-12)

    def test_input_x_gradient_is_x_times_row(self, linear_model):
        rng = np.random.default_rng(1)
        x = rng.normal(size=5)
        m = linear_model.params["M"]
        h = attribute(linear_model, x, 2, "input-x-gradient")
        np.testing.assert_allclose(h.values, x * m[2], atol=1e-12)

    def test_rectifier_rules_collapse_on_linear_models(self, linear_model):
        # no rectifiers -> deconvolution == guided backprop == saliency
        x = np.random.default_rng(2).normal(size=5)
        sal = attribute(linear_model, x, 1, "saliency").values
        dec = attribute(linear_model, x, 1, "deconvolution").values
        gui = attribute(linear_model, x, 1, "guided-backprop").values
        np.testing.assert_array_equal(sal, dec)
        np.testing.assert_array_equal(sal, gui)

    def test_deeplift_equals_ixg_on_single_linear_region(self):
        # relu(m . x) with m . x > 0 and a zero baseline stays in one linear
        # region, where rescale contributions reduce to gradient * input
        rng = np.random.default_rng(3)
        m = rng.uniform(0.2, 1.0, size=(1, 4))
        model = _single_relu_model(m)
        x = rng.uniform(0.5, 1.5, size=4)
        assert float((m @ x)[0]) > 0
        dl = attribute(model, x, 0, "deeplift").values
        ixg = attribute(model, x, 0, "input-x-gradient").values
        np.testing.assert_allclose(dl, ixg, atol=1e-12)


def _single_relu_model(m):
    """f(x) = [relu(m . x), 0]: a tiny 2-class net with one rectifier."""
    from gaxkit import autodiff as ad
    from gaxkit.autodiff import Tensor
    from gaxkit.models import ForwardPass

    class SingleRelu:
        input_shape = (m.shape[1],)
        num_classes = 2

        def forward_graph(self, x):
            t = x if isinstance(x, Tensor) else Tensor(x)
            z = ad.relu(ad.matmul(t, Tensor(np.asarray(m).T)))
            pad = ad.matmul(z, Tensor(np.array([[1.0, 0.0]])))
            return ForwardPass(pad, {"fc": pad}, {})

        def scores(self, x):
            return self.forward_graph(x).scores.data

    return SingleRelu()


class TestNormalize:
    def test_divides_by_peak_magnitude(self):
        h = normalize(Heatmap(np.array([2.0, -4.0]), "saliency", 0))
        np.testing.assert_array_equal(h.values, [0.5, -1.0])
        assert h.normalized

    def test_zero_map_unchanged(self):
        h = normalize(Heatmap(np.zeros(3), "saliency", 0))
        np.testing.assert_array_equal(h.values, np.zeros(3))
        assert h.normalized

    def test_small_uniform_values_scale_up(self):
        h = normalize(Heatmap(np.array([0.1, 0.1]), "saliency", 0))
        np.testing.assert_allclose(h.values, [1.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        h = Heatmap(rng.normal(size=(3, 4, 4)), "saliency", 1)
        once = normalize(h)
        twice = normalize(once)
        np.testing.assert_array_equal(once.values, twice.values)


class TestAtPredicted:
    def test_toy_identity_saliency_direction(self):
        # with identity mixing, the class-1 score only sees the first pixel
        model = PerfectClassifier2D(np.eye(2), sigma="sigmoid")
        h = attribute_at_predicted(model, np.array([1.0, 0.0]), "saliency")
        assert h.target_class == 0
        assert h.values[0] > 0 and h.values[1] == 0.0

    def test_toy_symmetric_input_targets_class_two(self):
        model = PerfectClassifier2D(np.eye(2), sigma="sigmoid")
        h = attribute_at_predicted(model, np.array([0.0, 1.0]), "saliency")
        assert h.target_class == 1

    def test_normalized_peak_is_one(self, conv_model):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(3, 16, 16))
        for method in ("saliency", "deeplift", "guided-backprop"):
            h = attribute_at_predicted(conv_model, x, method)
            assert np.abs(h.values).max() == pytest.approx(1.0)
            assert h.normalized


class TestGradCam:
    def test_nonnegative_and_channel_constant(self, conv_model):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(3, 16, 16))
        h = attribute(conv_model, x, 1, "layer-gradcam")
        assert h.values.shape == x.shape
        assert (h.values >= 0).all()
        np.testing.assert_array_equal(h.values[0], h.values[1])
        np.testing.assert_array_equal(h.values[0], h.values[2])

    def test_layer_selection_spelling(self, conv_model):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, size=(3, 16, 16))
        h1 = attribute(conv_model, x, 0, "layer-gradcam:conv2")
        assert h1.method == "layer-gradcam:conv2"
        with pytest.raises(KeyError, match="unknown layer"):
            attribute(conv_model, x, 0, "layer-gradcam:conv9")

    def test_upsampling_covers_input(self, conv_model):
        # pool2 activations are 4x4; the heatmap still matches input size
        x = np.random.default_rng(9).uniform(0, 1, size=(3, 16, 16))
        h = attribute(conv_model, x, 0, "layer-gradcam:pool2")
        assert h.values.shape == (3, 16, 16)


class TestInvariantsOnRandomNets:
    def test_ixg_equals_x_times_saliency(self, conv_model):
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = rng.uniform(0, 1, size=(3, 16, 16))
            sal = attribute(conv_model, x, 1, "saliency").values
            ixg = attribute(conv_model, x, 1, "input-x-gradient").values
            np.testing.assert_allclose(ixg, x * sal, atol=1e-14)

    def test_abs_option(self, conv_model):
        x = np.random.default_rng(11).uniform(0, 1, size=(3, 16, 16))
        signed = attribute(conv_model, x, 0, "saliency").values
        unsigned = attribute(conv_model, x, 0, "saliency",
                             abs_values=True).values
        np.testing.assert_array_equal(unsigned, np.abs(signed))

    def test_deeplift_custom_baseline(self, conv_model):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, size=(3, 16, 16))
        h0 = attribute(conv_model, x, 0, "deeplift")
        hb = attribute(conv_model, x, 0, "deeplift",
                       deeplift_baseline=np.full_like(x, 0.5))
        assert not np.array_equal(h0.values, hb.values)

    def test_deeplift_completeness(self, conv_model):
        # rescale contributions sum to the score difference vs the baseline
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, size=(3, 16, 16))
        target = 1
        h = attribute(conv_model, x, target, "deeplift")
        fx = conv_model.scores(x[None])[0, target]
        f0 = conv_model.scores(np.zeros_like(x)[None])[0, target]
        assert h.values.sum() == pytest.approx(fx - f0, rel=1e-6)

    @pytest.mark.parametrize("sigma", ["sigmoid", "tanh", "leaky-relu"])
    def test_deeplift_rescale_on_smooth_activations(self, sigma):
        # the toy classifier's only nonlinearity is not a relu, so every
        # rescale step takes the difference ratio or the near-zero fallback
        rng = np.random.default_rng(14)
        for theta in np.linspace(-3.0, 3.0, 7):
            model = PerfectClassifier2D(rotation(theta), sigma=sigma,
                                        slope=0.2)
            base = rng.normal(size=2)
            fb = model.scores(base[None])[0]
            for target in (0, 1):
                # a step along the other class's column of W leaves the
                # target's pre-activation at the baseline's value
                level = base + 0.7 * model.W[:, 1 - target]
                for x in (3.0 * rng.normal(size=2), level, base):
                    h = attribute(model, x, target, "deeplift",
                                  deeplift_baseline=base).values
                    fx = model.scores(x[None])[0]
                    assert abs(h.sum() - (fx[target] - fb[target])) <= 1e-12
                # near-zero fallback: the local derivative at the baseline
                h = attribute(model, level, target, "deeplift",
                              deeplift_baseline=base).values
                pre = (model.W_inv @ base)[target]
                local = {"sigmoid": fb[target] * (1.0 - fb[target]),
                         "tanh": 1.0 - fb[target] ** 2,
                         "leaky-relu": 1.0 if pre > 0 else 0.2}[sigma]
                np.testing.assert_allclose(
                    h, (level - base) * local * model.W_inv[target],
                    rtol=1e-12, atol=1e-15)


class TestValidation:
    def test_unknown_method(self, linear_model):
        with pytest.raises(ValueError, match="unknown method"):
            attribute(linear_model, np.zeros(5), 0, "lime")

    def test_target_out_of_range(self, linear_model):
        with pytest.raises(ValueError, match="out of range"):
            attribute(linear_model, np.zeros(5), 7, "saliency")

    def test_input_shape_checked(self, linear_model):
        with pytest.raises(ShapeError):
            attribute(linear_model, np.zeros(6), 0, "saliency")

    def test_parse_method(self):
        assert parse_method("layer-gradcam:pool1") == ("layer-gradcam", "pool1")
        assert parse_method("saliency") == ("saliency", None)
        with pytest.raises(ValueError):
            parse_method("saliency:conv1")

"""Attribution method semantics against closed-form oracles."""

import numpy as np
import pytest

from gaxkit import (METHODS, Heatmap, MiniConvNet, attribute,
                    attribute_at_predicted, normalize)
from gaxkit.attribution import parse_method
from gaxkit.autodiff import ShapeError, Tensor
from gaxkit.models import predict_graph
from oracle_models import LinearModel


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
        # with identity weights, the class-1 score only sees the first pixel
        model = LinearModel(np.eye(2))
        h = attribute_at_predicted(model, np.array([1.0, 0.0]), "saliency")
        assert h.target_class == 0
        assert h.values[0] > 0 and h.values[1] == 0.0

    def test_toy_symmetric_input_targets_class_two(self):
        model = LinearModel(np.eye(2))
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
        with pytest.raises(ValueError, match="unknown layer"):
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

    def test_deeplift_rescale_on_relu(self):
        # f = [relu(m . x), 0]: the rescale step at the relu takes the
        # difference ratio, or the local derivative where m . x equals the
        # baseline's m . base (the near-zero fallback)
        rng = np.random.default_rng(14)
        trials = 0
        while trials < 20:
            m = rng.uniform(0.2, 1.0, size=(1, 2)) * rng.choice([-1.0, 1.0],
                                                                size=(1, 2))
            w = m[0]
            base = rng.normal(size=2)
            zb = float(w @ base)
            if abs(zb) < 0.1:
                continue
            trials += 1
            model = _single_relu_model(m)
            # the input and the baseline on opposite sides of the kink
            z = -np.sign(zb) * rng.uniform(0.5, 2.0)
            x = base + (z - zb) / (w @ w) * w
            z = float(w @ x)
            ratio = (max(z, 0.0) - max(zb, 0.0)) / (z - zb)
            assert 0.0 < ratio < 1.0
            h = attribute(model, x, 0, "deeplift",
                          deeplift_baseline=base).values
            np.testing.assert_allclose(h, (x - base) * w * ratio,
                                       rtol=1e-12, atol=1e-15)
            assert abs(h.sum() - (max(z, 0.0) - max(zb, 0.0))) <= 1e-12
            # a step orthogonal to m keeps the pre-activation at the
            # baseline's: the multiplier is relu's derivative there
            level = base + rng.uniform(0.5, 2.0) * np.array([w[1], -w[0]])
            assert abs(w @ level - zb) < 1e-9
            h = attribute(model, level, 0, "deeplift",
                          deeplift_baseline=base).values
            np.testing.assert_allclose(h, (level - base) * w * (zb > 0),
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


def _x16(seed):
    return np.random.default_rng(seed).uniform(0, 1, size=(3, 16, 16))


# every heatmap kind one graph serves, as (method, keyword arguments)
SHARED_CASES = [*((m, {}) for m in (*METHODS, "layer-gradcam:conv2")),
                ("saliency", {"abs_values": True}),
                ("deeplift", {"deeplift_baseline": _x16(30)})]
# methods that raise on a graph after checking the request
FAILING_CASES = [("layer-gradcam:nope", {}),
                 ("deeplift", {"deeplift_baseline": np.zeros((3, 8, 8))})]


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSharedGraph:
    @pytest.mark.parametrize("order", ["forward", "reverse", "after-failure"])
    def test_heatmaps_match_fresh_graphs(self, conv_model, order):
        x = _x16(31)
        fresh = [attribute(conv_model, x, 1, m, **kw).values
                 for m, kw in SHARED_CASES]
        leaf = Tensor(x[None])
        graph = (leaf, conv_model.forward_graph(leaf))
        cases = list(enumerate(SHARED_CASES))
        if order == "reverse":
            cases.reverse()
        shared = {}
        for i, (method, kw) in cases:
            if order == "after-failure":
                for bad, bad_kw in FAILING_CASES:
                    with pytest.raises(ValueError):
                        attribute(conv_model, x, 1, bad, graph=graph, **bad_kw)
            shared[i] = attribute(conv_model, x, 1, method, graph=graph,
                                  **kw).values
        # compared after every sweep ran: no sweep wrote an earlier heatmap
        for i, want in enumerate(fresh):
            assert _same_bytes(shared[i], want), SHARED_CASES[i]

    def test_at_predicted_matches_a_fresh_graph(self, conv_model):
        x = _x16(32)
        pred, _ = predict_graph(conv_model, x)
        for method in METHODS:
            want = normalize(attribute(conv_model, x, pred, method))
            got = attribute_at_predicted(conv_model, x, method)
            assert got.target_class == pred
            assert _same_bytes(got.values, want.values)

    def test_graph_of_another_shape_rejected(self, conv_model):
        x = _x16(33)
        leaf = Tensor(np.stack([x, x]))
        with pytest.raises(ShapeError, match="graph input shape"):
            attribute(conv_model, x, 0, "saliency",
                      graph=(leaf, conv_model.forward_graph(leaf)))

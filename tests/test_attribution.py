"""Attribution method semantics against closed-form oracles."""

import numpy as np
import pytest

from gaxkit import METHODS, Heatmap, MiniConvNet, attribute, normalize
from gaxkit.attribution import parse_method
from gaxkit.autodiff import ShapeError
from gaxkit.models import predict_graph
from oracle_models import LinearModel, SingleRelu


def _fp(model, x):
    """The one-row forward graph ``attribute`` explains ``x`` through."""
    return model.forward_graph(np.asarray(x, dtype=np.float64)[None])


def _at_predicted(model, x, method):
    """The normalized heatmap of the predicted class, explained through
    the prediction's own graph."""
    pred, fp = predict_graph(model, x)
    return normalize(attribute(model, fp, pred, method))


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
                h = attribute(linear_model, _fp(linear_model, x), j,
                              "saliency")
                np.testing.assert_allclose(h.values, m[j], atol=1e-12)

    def test_input_x_gradient_is_x_times_row(self, linear_model):
        rng = np.random.default_rng(1)
        x = rng.normal(size=5)
        m = linear_model.params["M"]
        h = attribute(linear_model, _fp(linear_model, x), 2,
                      "input-x-gradient")
        np.testing.assert_allclose(h.values, x * m[2], atol=1e-12)

    def test_rectifier_rules_collapse_on_linear_models(self, linear_model):
        # no rectifiers -> deconvolution == guided backprop == saliency
        x = np.random.default_rng(2).normal(size=5)
        sal, dec, gui = (
            attribute(linear_model, _fp(linear_model, x), 1, m).values
            for m in ("saliency", "deconvolution", "guided-backprop"))
        np.testing.assert_array_equal(sal, dec)
        np.testing.assert_array_equal(sal, gui)

    def test_deeplift_equals_ixg_on_single_linear_region(self):
        # relu(m . x) with m . x > 0 and a zero baseline stays in one linear
        # region, where rescale contributions reduce to gradient * input
        rng = np.random.default_rng(3)
        m = rng.uniform(0.2, 1.0, size=(1, 4))
        model = SingleRelu(m)
        x = rng.uniform(0.5, 1.5, size=4)
        assert float((m @ x)[0]) > 0
        dl = attribute(model, _fp(model, x), 0, "deeplift").values
        ixg = attribute(model, _fp(model, x), 0, "input-x-gradient").values
        np.testing.assert_allclose(dl, ixg, atol=1e-12)


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
        h = _at_predicted(model, np.array([1.0, 0.0]), "saliency")
        assert h.target_class == 0
        assert h.values[0] > 0 and h.values[1] == 0.0

    def test_toy_symmetric_input_targets_class_two(self):
        model = LinearModel(np.eye(2))
        h = _at_predicted(model, np.array([0.0, 1.0]), "saliency")
        assert h.target_class == 1

    def test_normalized_peak_is_one(self, conv_model):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(3, 16, 16))
        for method in ("saliency", "deeplift", "guided-backprop"):
            h = _at_predicted(conv_model, x, method)
            assert np.abs(h.values).max() == pytest.approx(1.0)
            assert h.normalized


class TestGradCam:
    def test_nonnegative_and_channel_constant(self, conv_model):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(3, 16, 16))
        h = attribute(conv_model, _fp(conv_model, x), 1, "layer-gradcam")
        assert h.values.shape == x.shape
        assert (h.values >= 0).all()
        np.testing.assert_array_equal(h.values[0], h.values[1])
        np.testing.assert_array_equal(h.values[0], h.values[2])

    def test_layer_selection_spelling(self, conv_model):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, size=(3, 16, 16))
        fp = _fp(conv_model, x)
        h1 = attribute(conv_model, fp, 0, "layer-gradcam:conv2")
        assert h1.method == "layer-gradcam:conv2"
        with pytest.raises(ValueError, match="unknown layer"):
            attribute(conv_model, fp, 0, "layer-gradcam:conv9")

    def test_upsampling_covers_input(self, conv_model):
        # pool2 activations are 4x4; the heatmap still matches input size
        x = np.random.default_rng(9).uniform(0, 1, size=(3, 16, 16))
        h = attribute(conv_model, _fp(conv_model, x), 0,
                      "layer-gradcam:pool2")
        assert h.values.shape == (3, 16, 16)


class TestInvariantsOnRandomNets:
    def test_ixg_equals_x_times_saliency(self, conv_model):
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = rng.uniform(0, 1, size=(3, 16, 16))
            sal = attribute(conv_model, _fp(conv_model, x), 1,
                            "saliency").values
            ixg = attribute(conv_model, _fp(conv_model, x), 1,
                            "input-x-gradient").values
            np.testing.assert_allclose(ixg, x * sal, atol=1e-14)

    def test_abs_option(self, conv_model):
        x = np.random.default_rng(11).uniform(0, 1, size=(3, 16, 16))
        signed = attribute(conv_model, _fp(conv_model, x), 0,
                           "saliency").values
        unsigned = attribute(conv_model, _fp(conv_model, x), 0, "saliency",
                             abs_values=True).values
        np.testing.assert_array_equal(unsigned, np.abs(signed))

    def test_deeplift_custom_baseline(self, conv_model):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, size=(3, 16, 16))
        h0 = attribute(conv_model, _fp(conv_model, x), 0, "deeplift")
        hb = attribute(conv_model, _fp(conv_model, x), 0, "deeplift",
                       deeplift_baseline=_fp(conv_model, np.full_like(x, 0.5)))
        assert not np.array_equal(h0.values, hb.values)

    def test_deeplift_completeness(self, conv_model):
        # rescale contributions sum to the score difference vs the baseline
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, size=(3, 16, 16))
        target = 1
        h = attribute(conv_model, _fp(conv_model, x), target, "deeplift")
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
            model = SingleRelu(m)
            # the input and the baseline on opposite sides of the kink
            z = -np.sign(zb) * rng.uniform(0.5, 2.0)
            x = base + (z - zb) / (w @ w) * w
            z = float(w @ x)
            ratio = (max(z, 0.0) - max(zb, 0.0)) / (z - zb)
            assert 0.0 < ratio < 1.0
            h = attribute(model, _fp(model, x), 0, "deeplift",
                          deeplift_baseline=_fp(model, base)).values
            np.testing.assert_allclose(h, (x - base) * w * ratio,
                                       rtol=1e-12, atol=1e-15)
            assert abs(h.sum() - (max(z, 0.0) - max(zb, 0.0))) <= 1e-12
            # a step orthogonal to m keeps the pre-activation at the
            # baseline's: the multiplier is relu's derivative there
            level = base + rng.uniform(0.5, 2.0) * np.array([w[1], -w[0]])
            assert abs(w @ level - zb) < 1e-9
            h = attribute(model, _fp(model, level), 0, "deeplift",
                          deeplift_baseline=_fp(model, base)).values
            np.testing.assert_allclose(h, (level - base) * w * (zb > 0),
                                       rtol=1e-12, atol=1e-15)


class TestValidation:
    def test_unknown_method(self, linear_model):
        with pytest.raises(ValueError, match="unknown method"):
            attribute(linear_model, _fp(linear_model, np.zeros(5)), 0,
                      "lime")

    def test_target_out_of_range(self, linear_model):
        with pytest.raises(ValueError, match="out of range"):
            attribute(linear_model, _fp(linear_model, np.zeros(5)), 7,
                      "saliency")

    def test_input_shape_checked(self, linear_model):
        # the graph's builder checks the sample's shape
        with pytest.raises(ShapeError, match="sample shape"):
            predict_graph(linear_model, np.zeros(6))

    def test_parse_method(self):
        assert parse_method("layer-gradcam:pool1") == ("layer-gradcam", "pool1")
        assert parse_method("saliency") == ("saliency", None)
        with pytest.raises(ValueError):
            parse_method("saliency:conv1")


def _x16(seed):
    return np.random.default_rng(seed).uniform(0, 1, size=(3, 16, 16))


def _shared_cases(model):
    """Every heatmap kind one graph serves, as (method, keyword arguments),
    with a fresh baseline graph."""
    return [*((m, {}) for m in (*METHODS, "layer-gradcam:conv2")),
            ("saliency", {"abs_values": True}),
            ("guided-backprop", {"abs_values": True}),
            ("deeplift", {"deeplift_baseline": _fp(model, _x16(30))})]


# methods that raise on a graph after checking the request: an unknown
# layer, and a baseline graph of another input shape
FAILING_CASES = [
    ("layer-gradcam:nope", {}),
    ("deeplift", {"deeplift_baseline": _fp(
        MiniConvNet(input_shape=(3, 8, 8), seed=1), np.zeros((3, 8, 8)))})]


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSharedGraph:
    @pytest.mark.parametrize("order", ["forward", "reverse", "after-failure"])
    def test_heatmaps_match_fresh_graphs(self, conv_model, order):
        x = _x16(31)
        fresh = [attribute(conv_model, _fp(conv_model, x), 1, m, **kw)
                 for m, kw in _shared_cases(conv_model)]
        graph = _fp(conv_model, x)
        cases = list(enumerate(_shared_cases(conv_model)))
        if order == "reverse":
            cases.reverse()
        shared = {}
        for i, (method, kw) in cases:
            if order == "after-failure":
                for bad, bad_kw in FAILING_CASES:
                    with pytest.raises(ValueError):
                        attribute(conv_model, graph, 1, bad, **bad_kw)
            shared[i] = attribute(conv_model, graph, 1, method, **kw).values
        # compared after every sweep ran: no sweep wrote an earlier heatmap
        for i, want in enumerate(fresh):
            assert _same_bytes(shared[i], want.values), (i, want.method)

    def test_at_predicted_matches_a_fresh_graph(self, conv_model):
        # every method read off the prediction's one graph, as demo 02 and
        # ax-sweep read them
        x = _x16(32)
        pred, fp = predict_graph(conv_model, x)
        for method in METHODS:
            want = attribute(conv_model, _fp(conv_model, x), pred, method)
            got = attribute(conv_model, fp, pred, method)
            assert got.target_class == pred
            assert _same_bytes(got.values, want.values)

    @pytest.mark.parametrize("requests", [
        # Grad-CAM sweeps first and records; the gradient methods read it
        [(1, "layer-gradcam", {}), (1, "saliency", {}),
         (1, "input-x-gradient", {})],
        # one record per target
        [(0, "saliency", {}), (1, "saliency", {}),
         (0, "input-x-gradient", {}), (1, "layer-gradcam", {}),
         (0, "layer-gradcam", {}), (1, "input-x-gradient", {})],
        [(1, "saliency", {"abs_values": True}), (1, "input-x-gradient", {}),
         (1, "saliency", {})],
        [(0, "saliency", {}), (0, "layer-gradcam:pool1", {}),
         (0, "layer-gradcam:conv2", {})],
    ], ids=["gradcam-first", "both-targets", "abs-first", "layers-after"])
    def test_standard_sweep_record_matches_fresh_graphs(self, conv_model,
                                                        requests):
        x = _x16(34)
        graph = predict_graph(conv_model, x)[1]
        got = [attribute(conv_model, graph, t, m, **kw).values
               for t, m, kw in requests]
        for (t, m, kw), values in zip(requests, got):
            want = attribute(conv_model, _fp(conv_model, x), t, m,
                             **kw).values
            assert _same_bytes(values, want), (t, m, kw)

    def test_editing_a_heatmap_leaves_the_record_intact(self, conv_model):
        x = _x16(35)
        graph = predict_graph(conv_model, x)[1]
        for method in ("saliency", "deconvolution"):
            attribute(conv_model, graph, 1, method).values[...] = np.nan
        for method in ("input-x-gradient", "saliency", "layer-gradcam",
                       "deconvolution"):
            got = attribute(conv_model, graph, 1, method).values
            want = attribute(conv_model, _fp(conv_model, x), 1, method).values
            assert _same_bytes(got, want), method

    def test_deeplift_baseline_graph_matches_its_array(self, conv_model):
        x, base = _x16(36), _x16(37)
        base_graph = predict_graph(conv_model, base)[1]
        for _ in range(2):      # the baseline graph serves many calls
            got = attribute(conv_model, _fp(conv_model, x), 1, "deeplift",
                            deeplift_baseline=base_graph).values
            want = attribute(conv_model, _fp(conv_model, x), 1, "deeplift",
                             deeplift_baseline=_fp(conv_model, base)).values
            assert _same_bytes(got, want)
        with pytest.raises(ShapeError, match="baseline graph input shape"):
            attribute(conv_model, _fp(conv_model, x), 1, "deeplift",
                      deeplift_baseline=conv_model.forward_graph(
                          np.stack([base, base])))

    def test_graph_of_another_shape_rejected(self, conv_model):
        x = _x16(33)
        with pytest.raises(ShapeError, match="graph input shape"):
            attribute(conv_model, conv_model.forward_graph(np.stack([x, x])),
                      0, "saliency")

"""Model semantics: the exact 2D classifier, prediction, serialization."""

import numpy as np
import pytest

from gaxkit.autodiff import ShapeError
from gaxkit.formats import read_gaxm, write_gaxm
from gaxkit.models import (LinearModel, MiniConvNet, PerfectClassifier2D,
                           predict)
from gaxkit.toy import rotation


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


class TestPerfectClassifier:
    def test_identity_transform(self):
        model = PerfectClassifier2D(np.eye(2))
        out = model.scores(np.array([[0.95, 0.05]]))[0]
        np.testing.assert_array_equal(out, [0.95, 0.05])

    def test_quarter_turn_swaps_roles(self):
        # with a quarter-turn mixing, the canonical unit vectors swap class
        model = PerfectClassifier2D(rotation(np.pi / 2))
        cls_e2, scores = predict(model, np.array([0.0, 1.0]))
        assert cls_e2 == 0 and scores[0] == pytest.approx(1.0)
        x = model.W @ np.array([0.0, 1.0])          # = (-1, 0)
        np.testing.assert_allclose(x, [-1.0, 0.0], atol=1e-15)
        cls_x, scores = predict(model, x)
        assert cls_x == 1
        np.testing.assert_allclose(scores, [0.0, 1.0], atol=1e-15)

    def test_rotation_with_sigmoid(self):
        model = PerfectClassifier2D(rotation(0.3), sigma="sigmoid")
        x = model.W @ np.array([0.7, 0.3])
        out = model.scores(x[None])[0]
        np.testing.assert_allclose(out, [_sigmoid(0.7), _sigmoid(0.3)],
                                   rtol=1e-12)

    def test_singular_w_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            PerfectClassifier2D(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_perfect_for_any_mixing_and_monotone_activation(self):
        # argmax of the output recovers argmax of the coefficients
        rng = np.random.default_rng(31)
        trials = 0
        while trials < 1000:
            w = rng.uniform(-2, 2, size=(2, 2))
            if abs(np.linalg.det(w)) < 1e-3:
                continue
            a = rng.uniform(-3, 3, size=2)
            if abs(a[0] - a[1]) < 1e-9:
                continue
            sigma = rng.choice(["identity", "sigmoid", "tanh", "leaky-relu"])
            model = PerfectClassifier2D(w, sigma=str(sigma))
            cls, _ = predict(model, w @ a)
            assert cls == int(np.argmax(a))
            trials += 1


class TestPredict:
    def test_argmax_of_raw_scores(self):
        model = LinearModel(np.eye(2))
        assert predict(model, np.array([0.1, 0.5]))[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        model = LinearModel(np.eye(2))
        assert predict(model, np.array([3.0, 3.0]))[0] == 0

    def test_clear_winner(self):
        model = LinearModel(np.eye(2))
        assert predict(model, np.array([1.0, 0.0]))[0] == 0

    def test_shape_mismatch(self):
        model = LinearModel(np.eye(2))
        with pytest.raises(ShapeError):
            predict(model, np.zeros(3))


class TestSerialization:
    def test_conv_net_round_trip_bit_identical(self, tmp_path):
        model = MiniConvNet(input_shape=(3, 16, 16), num_classes=3, seed=5)
        path = tmp_path / "net.gaxm"
        model.save(path)
        loaded = MiniConvNet.load(path)
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(4, 3, 16, 16))
        np.testing.assert_array_equal(model.scores(x), loaded.scores(x))

    def test_round_trip_after_parameter_mutation(self, tmp_path):
        from gaxkit.models import snap32
        model = MiniConvNet(input_shape=(1, 8, 8), num_classes=2, seed=1)
        rng = np.random.default_rng(2)
        # simulate training: arbitrary float64 updates snapped to storage grid
        for name in model.params:
            model.params[name] = snap32(
                model.params[name] + rng.normal(0, 0.1,
                                                model.params[name].shape))
        path = tmp_path / "net.gaxm"
        model.save(path)
        loaded = MiniConvNet.load(path)
        x = rng.uniform(0, 1, size=(2, 1, 8, 8))
        np.testing.assert_array_equal(model.scores(x), loaded.scores(x))


class TestLoadChecks:
    """A weight file that cannot make a working model fails on load with a
    message naming the file and the entry."""

    @pytest.fixture
    def named(self, tmp_path):
        path = tmp_path / "net.gaxm"
        MiniConvNet(input_shape=(1, 8, 8), seed=0).save(path)
        return path, read_gaxm(path)

    def test_missing_entry(self, named):
        path, entries = named
        del entries["input_shape"]
        write_gaxm(path, entries)
        with pytest.raises(ValueError) as info:
            MiniConvNet.load(path)
        assert str(info.value) == f"{path}: no 'input_shape' entry"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_value(self, named, value):
        path, entries = named
        entries["fc.w"][1, 3] = value
        write_gaxm(path, entries)
        with pytest.raises(ValueError) as info:
            MiniConvNet.load(path)
        assert str(info.value) == \
            f"{path}: entry 'fc.w' holds a non-finite value"


class TestMiniConvNet:
    def test_layer_names_unique(self):
        model = MiniConvNet(input_shape=(3, 16, 16))
        names = list(model.forward_graph(np.zeros((1, 3, 16, 16))).activations)
        assert names == ["conv1", "pool1", "conv2", "pool2", "fc"]

    def test_raw_output_head(self):
        # scores are unbounded raw values, not probabilities
        model = MiniConvNet(input_shape=(1, 8, 8), num_classes=4, seed=3)
        for name in ("fc.w", "fc.b"):
            model.params[name] = model.params[name] + 100.0
        out = model.scores(np.zeros((1, 1, 8, 8)))
        assert out.max() > 1.0

    def test_activations_exposed(self):
        model = MiniConvNet(input_shape=(3, 8, 8), num_classes=2)
        fp = model.forward_graph(np.zeros((1, 3, 8, 8)))
        assert fp.activations["conv1"].shape == (1, 8, 8, 8)
        assert fp.activations["pool2"].shape == (1, 16, 2, 2)
        assert fp.scores.shape == (1, 2)

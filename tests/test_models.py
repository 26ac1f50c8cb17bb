"""Model semantics: prediction, serialization, the conv net's geometry."""

import numpy as np
import pytest

from gaxkit.autodiff import ShapeError
from gaxkit.formats import read_gaxm, write_gaxm
from gaxkit.models import MiniConvNet, predict
from oracle_models import LinearModel


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

    def test_even_kernel(self, named):
        # the entries agree, but convs padded by kernel // 2 would not keep
        # H and W
        path, entries = named
        entries["kernel"] = np.array([2.0])
        for name in ("conv1.w", "conv2.w"):
            entries[name] = entries[name][:, :, :2, :2]
        write_gaxm(path, entries)
        with pytest.raises(ShapeError) as info:
            MiniConvNet.load(path)
        assert str(info.value) == f"{path}: kernel 2 must be odd"


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

    @pytest.mark.parametrize("shape", [(3, 3, 3), (1, 8, 3), (1, 2, 16)])
    def test_input_below_the_pools_extent_rejected(self, shape):
        with pytest.raises(ShapeError) as info:
            MiniConvNet(input_shape=shape)
        assert str(info.value) == \
            f"input_shape {shape}: H and W must be at least 4"

    @pytest.mark.parametrize("kernel", [2, 4])
    def test_even_kernel_rejected(self, kernel):
        with pytest.raises(ShapeError) as info:
            MiniConvNet(input_shape=(3, 8, 8), kernel=kernel)
        assert str(info.value) == f"kernel {kernel} must be odd"

    @pytest.mark.parametrize("shape,kernel", [((1, 4, 4), 3), ((1, 5, 7), 1),
                                              ((2, 9, 6), 5)])
    def test_smallest_and_odd_geometries_run(self, shape, kernel):
        model = MiniConvNet(input_shape=shape, kernel=kernel)
        assert model.scores(np.zeros((2, *shape))).shape == (2, 2)

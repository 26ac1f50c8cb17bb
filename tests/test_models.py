"""Model semantics: prediction, serialization, the conv net's geometry."""

import numpy as np
import pytest

from gaxkit.autodiff import ShapeError, _topo
from gaxkit.formats import read_gaxm, write_gaxm
from gaxkit.data import Split
from gaxkit.models import MiniConvNet, predict
from gaxkit.training import _EVAL_CHUNK, _batched_scores, evaluate
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

    def test_unknown_entry(self, named):
        path, entries = named
        entries["bogus"] = np.zeros(5)
        write_gaxm(path, entries)
        with pytest.raises(ValueError) as info:
            MiniConvNet.load(path)
        assert str(info.value) == f"{path}: unknown entry 'bogus'"

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

    def test_signalling_nan_fails_without_a_warning(self, named):
        # float32 bits 0x7f800001: the cast to float64 would warn, and the
        # tests turn a RuntimeWarning into an error
        path, _ = named
        raw = bytearray(path.read_bytes())
        at = raw.index(b"conv1.w") + len(b"conv1.w") + 4 + 4 * 4
        raw[at: at + 4] = (0x7F800001).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError) as info:
            MiniConvNet.load(path)
        assert str(info.value) == \
            f"{path}: entry 'conv1.w' holds a non-finite value"

    def test_one_class_head(self, named):
        path, entries = named
        entries["fc.w"], entries["fc.b"] = entries["fc.w"][:1], \
            entries["fc.b"][:1]
        write_gaxm(path, entries)
        with pytest.raises(ValueError) as info:
            MiniConvNet.load(path)
        assert str(info.value) == \
            f"{path}: entry 'fc.b' must hold at least 2 class biases, got 1"

    def test_even_kernel(self, named):
        # the entries agree with each other, but not with the one geometry
        path, entries = named
        entries["kernel"] = np.array([2.0])
        for name in ("conv1.w", "conv2.w"):
            entries[name] = entries[name][:, :, :2, :2]
        write_gaxm(path, entries)
        with pytest.raises(ValueError) as info:
            MiniConvNet.load(path)
        assert str(info.value) == \
            f"{path}: entry 'kernel' must hold 3, got [2.0]"


class TestMiniConvNet:
    def test_layer_names_unique(self):
        model = MiniConvNet(input_shape=(3, 16, 16))
        names = list(model.forward_graph(np.zeros((1, 3, 16, 16))).activations)
        assert names == ["conv1", "pool1", "conv2", "pool2", "fc"]

    def test_forward_graph_is_nine_op_nodes(self):
        # each conv adds its own bias, and matmul takes fc.w as stored
        model = MiniConvNet(input_shape=(3, 16, 16))
        fp = model.forward_graph(np.zeros((2, 3, 16, 16)))
        ops = [node.op for node in _topo(fp.scores) if node.op != "leaf"]
        assert ops == ["conv2d", "relu", "max-pool", "conv2d", "relu",
                       "max-pool", "flatten", "matmul", "bias-add"]

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

    @pytest.mark.parametrize("shape,n", [((1, 4, 4), 3), ((1, 5, 7), 1),
                                         ((2, 9, 6), 5)])
    def test_smallest_and_odd_geometries_run(self, shape, n):
        model = MiniConvNet(input_shape=shape)
        assert model.scores(np.zeros((n, *shape))).shape == (n, 2)


# the reference model's input, the pipeline's gen-data shapes, and a shape
# whose conv2 output area (14 * 14) is not a multiple of 8
BATCH_SHAPES = [(3, 32, 32), (3, 16, 16), (1, 12, 12), (3, 28, 28)]


class TestGraphFreeScores:
    """``scores`` keeps no graph and gives each sample the bytes it gets
    alone, at every batch size."""

    @pytest.mark.parametrize("shape", BATCH_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    def test_batch_invariant(self, shape):
        model = MiniConvNet(input_shape=shape, seed=1)
        x = np.random.default_rng(2).uniform(
            0, 1, size=(max(33, _EVAL_CHUNK), *shape))
        alone = [model.scores(x[i: i + 1])[0].tobytes()
                 for i in range(len(x))]
        for n in [*range(1, 34), _EVAL_CHUNK]:
            out = model.scores(x[:n])
            assert out.shape == (n, 2)
            assert [row.tobytes() for row in out] == alone[:n], n

    @pytest.mark.parametrize("shape", BATCH_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    def test_equals_forward_graph_at_one_sample(self, shape):
        model = MiniConvNet(input_shape=shape, num_classes=3, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(4):
            x = rng.uniform(0, 1, size=(1, *shape))
            assert (model.scores(x).tobytes()
                    == model.forward_graph(x).scores.data.tobytes())

    def test_shape_checked(self):
        model = MiniConvNet(input_shape=(1, 8, 8))
        with pytest.raises(ShapeError, match="expected batch of shape"):
            model.scores(np.zeros((2, 1, 8, 9)))

    def test_evaluate_argmax_equals_predict(self):
        # evaluate scores in chunks of _EVAL_CHUNK; predict one sample
        shape = (3, 28, 28)
        model = MiniConvNet(input_shape=shape, seed=5)
        rng = np.random.default_rng(6)
        n = _EVAL_CHUNK + 6
        pixels = rng.integers(0, 256, size=(n, *shape), dtype=np.uint8)
        y = rng.integers(0, 2, size=n)
        split = Split(pixels, y, [f"s{i}" for i in range(n)])
        preds = [predict(model, split.images(i)) for i in range(n)]
        batched = _batched_scores(model, split)
        for (pred, raw), row in zip(preds, batched):
            assert row.tobytes() == raw.tobytes()
            assert int(np.argmax(row)) == pred
        assert evaluate(model, split).accuracy == \
            np.mean([pred == t for (pred, _), t in zip(preds, y)])

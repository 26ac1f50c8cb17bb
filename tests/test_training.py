"""Training loop behavior: stop rules, metrics, loss trend, the
deliberately-undertrained protocol."""

import weakref

import numpy as np
import pytest

from gaxkit import (DatasetSpec, MiniConvNet, TrainConfig, evaluate,
                    make_blobs, train, training)
from gaxkit.training import _cross_entropy
from gradcheck import max_relative_error, numeric_gradient


@pytest.fixture(scope="module")
def small_ds():
    spec = DatasetSpec(class_count=2, train=160, val=60, test=60,
                       image_shape=(3, 16, 16), seed=13)
    return make_blobs(spec)


def test_cross_entropy_gradient_matches_finite_differences():
    """The loss head's gradient against central differences of its loss,
    100 seeded (4, 3) trials, at the acceptance tolerance 1e-5."""
    rng = np.random.default_rng(10005)
    worst = 0.0
    for _ in range(100):
        z = rng.uniform(-2.0, 2.0, size=(4, 3))
        y = rng.integers(0, 3, size=4)
        _, dz = _cross_entropy(z, y)
        numeric = numeric_gradient(lambda a: _cross_entropy(a, y)[0], [z], 0)
        worst = max(worst, max_relative_error(dz, numeric))
    assert worst < 1e-5, f"max relative error {worst:.3e}"


def test_cross_entropy_at_equal_scores():
    # equal raw scores: loss log(C), gradient (softmax - one_hot) / N
    loss, dz = _cross_entropy(np.zeros((2, 3)), np.array([0, 2]))
    assert loss == pytest.approx(np.log(3.0), rel=1e-15)
    np.testing.assert_allclose(
        dz, [[-1 / 3, 1 / 6, 1 / 6], [1 / 6, 1 / 6, -1 / 3]], rtol=1e-15)


@pytest.mark.parametrize("kwargs", [{"val_every": 0}, {"val_every": -5},
                                    {"max_iterations": -1},
                                    {"min_iterations": -1},
                                    {"batch_size": 0},
                                    {"target_val_accuracy": float("nan")}])
def test_stop_rule_rejects_bad_counts(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        TrainConfig(**kwargs)


def test_separable_data_reaches_target(small_ds):
    model = MiniConvNet(input_shape=(3, 16, 16), num_classes=2, seed=1)
    result = train(model, small_ds,
                   TrainConfig(target_val_accuracy=0.99, max_iterations=1200,
                               val_every=50, seed=2))
    assert result.val_accuracy >= 0.99
    assert result.stop_reason == "target-accuracy"
    assert result.val_accuracy == evaluate(model, small_ds.val).accuracy


def test_zero_iterations_is_a_no_op(small_ds):
    model = MiniConvNet(input_shape=(3, 16, 16), num_classes=2, seed=4)
    before = {k: v.copy() for k, v in model.params.items()}
    initial = evaluate(model, small_ds.test)
    result = train(model, small_ds,
                   TrainConfig(target_val_accuracy=0.99, max_iterations=0,
                               seed=0))
    for k in before:
        np.testing.assert_array_equal(model.params[k], before[k])
    assert result.metrics == initial
    assert result.iterations_run == 0


def test_undertrained_sub_variant_lands_in_band():
    # weak signal + frequent validation checks: training stops early with
    # validation accuracy in [0.8, 1.0), the undertrained comparison model
    spec = DatasetSpec(class_count=2, train=300, val=120, test=100,
                       image_shape=(3, 32, 32), seed=21)
    hard = make_blobs(spec, blob_amplitude=0.2, noise_scale=0.8)
    model = MiniConvNet(input_shape=(3, 32, 32), num_classes=2, seed=2)
    result = train(model, hard,
                   TrainConfig(target_val_accuracy=0.8, max_iterations=2000,
                               min_iterations=10, val_every=10, seed=5))
    assert 0.8 <= result.val_accuracy < 1.0
    assert np.isfinite([result.metrics.accuracy, result.metrics.precision,
                        result.metrics.recall]).all()


def test_loss_trend_decreases(small_ds):
    # the mean cross-entropy over the whole train split, not one batch's
    model = MiniConvNet(input_shape=(3, 16, 16), num_classes=2, seed=6)
    split = small_ds.train

    def train_loss():
        scores = model.scores(split.images(slice(None)))
        return _cross_entropy(scores, split.y)[0]

    before = train_loss()
    train(model, small_ds, TrainConfig(max_iterations=500, seed=7))
    assert train_loss() < 0.5 * before


def _track_graphs(model, monkeypatch):
    """Patch ``model.forward_graph`` to assert that the previous graph is
    gone; returns the list holding a weakref to the last graph.  A Tensor
    takes no weakref (it has __slots__), so the ref tracks an array only
    the graph holds: conv1's activation."""
    build = model.forward_graph
    previous = []

    def forward_graph(x):
        assert all(ref() is None for ref in previous), \
            "the previous graph is alive while the next one is built"
        fp = build(x)
        previous[:] = [weakref.ref(fp.activations["conv1"].data)]
        return fp

    monkeypatch.setattr(model, "forward_graph", forward_graph)
    return previous


def test_train_holds_one_graph_at_a_time(small_ds, monkeypatch):
    model = MiniConvNet(input_shape=(3, 16, 16), num_classes=2, seed=3)
    previous = _track_graphs(model, monkeypatch)
    result = train(model, small_ds, TrainConfig(max_iterations=5, seed=1))
    assert result.iterations_run == 5 and len(previous) == 1


def test_train_evaluates_after_the_graph_goes(small_ds, monkeypatch):
    # checks at iterations 2 and 4, then validation and test after the loop
    model = MiniConvNet(input_shape=(3, 16, 16), num_classes=2, seed=3)
    previous = _track_graphs(model, monkeypatch)
    calls = []

    def evaluate_without_a_graph(model, split):
        assert previous and previous[0]() is None, \
            "a training graph is alive while evaluating"
        calls.append(split)
        return evaluate(model, split)

    monkeypatch.setattr(training, "evaluate", evaluate_without_a_graph)
    result = train(model, small_ds,
                   TrainConfig(target_val_accuracy=2.0, max_iterations=5,
                               val_every=2, seed=1))
    assert result.iterations_run == 5
    assert [split is small_ds.val for split in calls] == [True] * 3 + [False]


def test_empty_training_split_rejected(small_ds):
    empty = make_blobs(DatasetSpec(train=0, val=4, test=4,
                                   image_shape=(3, 16, 16), seed=0))
    model = MiniConvNet(input_shape=(3, 16, 16), num_classes=2)
    with pytest.raises(ValueError, match="empty"):
        train(model, empty, TrainConfig(max_iterations=5))


def test_nonfinite_loss_aborts_with_diagnostic(small_ds):
    model = MiniConvNet(input_shape=(3, 16, 16), num_classes=2, seed=8)
    # a huge learning rate overflows the float32 grid on the first update
    with pytest.raises(ValueError, match="non-finite parameter 'conv1.w' "
                       "after the update at iteration 1"):
        train(model, small_ds,
              TrainConfig(max_iterations=200, learning_rate=1e150, seed=1))


def test_min_iterations_respected(small_ds):
    model = MiniConvNet(input_shape=(3, 16, 16), num_classes=2, seed=9)
    result = train(model, small_ds,
                   TrainConfig(target_val_accuracy=0.5, max_iterations=400,
                               min_iterations=300, val_every=50, seed=3))
    # even though the target is trivial, no stop before min_iterations
    assert result.iterations_run >= 300


def test_metrics_on_all_correct(small_ds):
    model = MiniConvNet(input_shape=(3, 16, 16), num_classes=2, seed=1)
    train(model, small_ds,
          TrainConfig(target_val_accuracy=0.99, max_iterations=1200,
                      val_every=50, seed=2))
    m = evaluate(model, small_ds.test)
    if m.accuracy == 1.0:
        assert m.precision == 1.0 and m.recall == 1.0
    assert 0.0 <= m.precision <= 1.0 and 0.0 <= m.recall <= 1.0

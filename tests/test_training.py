"""Training loop behavior: stop rules, metrics, loss trend, the
deliberately-undertrained protocol."""

import numpy as np
import pytest

from gaxkit import (DatasetSpec, MiniConvNet, TrainConfig, evaluate,
                    make_blobs, train)


@pytest.fixture(scope="module")
def small_ds():
    spec = DatasetSpec(class_count=2, train=160, val=60, test=60,
                       image_shape=(3, 16, 16), seed=13)
    return make_blobs(spec)


@pytest.mark.parametrize("kwargs", [{"val_every": 0}, {"val_every": -5},
                                    {"max_iterations": -1},
                                    {"min_iterations": -1},
                                    {"batch_size": 0}])
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
    assert result.val_accuracy == result.val_history[-1][1]


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
    model = MiniConvNet(input_shape=(3, 16, 16), num_classes=2, seed=6)
    result = train(model, small_ds,
                   TrainConfig(target_val_accuracy=None, max_iterations=500,
                               seed=7))
    losses = result.loss_history
    assert len(losses) == 500
    # trend over the full 500-iteration window, not strict monotonicity
    early = losses[:100].mean()
    late = losses[-100:].mean()
    assert late < early
    t = np.arange(len(losses))
    slope = np.polyfit(t, losses, 1)[0]
    assert slope < 0


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
              TrainConfig(target_val_accuracy=None, max_iterations=200,
                          learning_rate=1e150, seed=1))


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

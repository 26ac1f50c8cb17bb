"""Training loop and evaluation metrics for the desk-scale classifiers.

Training minimizes cross-entropy on raw scores with Adam.  The loss and
its gradient with respect to the scores are numpy; that gradient seeds the
sweep of the model's graph.  One frozen ``TrainConfig`` holds the stop rule,
batch size, learning rate and seed.  Samples are drawn uniformly at random
each iteration; validation accuracy is checked at a fixed cadence and the
run stops once the target is reached (after a configurable minimum number
of iterations) or at the iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import snap32
from .optim import Adam


@dataclass(frozen=True)
class TrainConfig:
    target_val_accuracy: float = 0.99
    max_iterations: int = 20000
    min_iterations: int = 0
    val_every: int = 100
    batch_size: int = 32
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.val_every < 1:
            raise ValueError(f"val_every must be >= 1, got {self.val_every}")
        if self.max_iterations < 0 or self.min_iterations < 0:
            raise ValueError(
                "max_iterations and min_iterations must be >= 0, got "
                f"{self.max_iterations} and {self.min_iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0, got "
                             f"{self.learning_rate}")
        if self.target_val_accuracy != self.target_val_accuracy:   # NaN
            raise ValueError("target_val_accuracy must not be NaN")


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float


@dataclass
class TrainResult:
    metrics: Metrics
    val_accuracy: float
    iterations_run: int
    stop_reason: str


# samples per ``scores`` call in evaluate, each chunk converted to float64
# on its own: the default training batch, so an evaluation inside ``train``
# fits in the heap the dropped graph held; as ``scores`` is batch-invariant,
# each sample scores as ``predict`` scores it
_EVAL_CHUNK = TrainConfig.batch_size
BETA1 = 0.5             # Adam's first-moment decay for training


def _batched_scores(model, split) -> np.ndarray:
    outs = [model.scores(split.images(slice(i, i + _EVAL_CHUNK)))
            for i in range(0, len(split), _EVAL_CHUNK)]
    return np.concatenate(outs, axis=0)


def _cross_entropy(z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of raw (N, C) scores ``z`` against integer labels
    ``y``, and its gradient with respect to ``z``."""
    n = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    loss = (lse - z[np.arange(n), y]).mean()
    p = np.exp(z - zmax)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(n), y] -= 1.0
    return float(loss), p / n


def evaluate(model, split) -> Metrics:
    """Accuracy plus precision/recall on a labeled split.

    Binary problems report precision/recall of class 1; with more classes
    both are macro-averaged.  Empty denominators count as zero.
    """
    if len(split.y) == 0:
        raise ValueError("evaluate: empty split")
    pred = _batched_scores(model, split).argmax(axis=1)
    y = split.y
    acc = float((pred == y).mean())
    c = model.num_classes
    classes = [1] if c == 2 else list(range(c))
    precisions, recalls = [], []
    for k in classes:
        tp = float(((pred == k) & (y == k)).sum())
        fp = float(((pred == k) & (y != k)).sum())
        fn = float(((pred != k) & (y == k)).sum())
        precisions.append(tp / (tp + fp) if tp + fp > 0 else 0.0)
        recalls.append(tp / (tp + fn) if tp + fn > 0 else 0.0)
    return Metrics(acc, float(np.mean(precisions)), float(np.mean(recalls)))


def train(model, dataset, cfg: TrainConfig) -> TrainResult:
    """Fit ``model`` in place on ``dataset.train``; returns run metrics.

    Both splits must be non-empty.  ``val_accuracy`` is the validation
    accuracy after the last update; metrics are taken on the test split
    (the validation split when the test split is empty).  Model parameters
    stay on the float32 grid (see ``snap32``) so a trained model serializes
    losslessly.
    """
    train_split = dataset.train
    if len(train_split.y) == 0:
        raise ValueError("train: empty training split")
    if len(dataset.val.y) == 0:
        raise ValueError("train: empty validation split")
    opt = Adam(cfg.learning_rate, BETA1)
    rng = np.random.default_rng(cfg.seed)
    n = len(train_split.y)
    checked_at = None      # the iteration of the last validation check
    stop_reason = "max-iterations"
    iterations_run = 0

    for it in range(1, cfg.max_iterations + 1):
        idx = rng.integers(0, n, size=cfg.batch_size)
        batch = train_split.images(idx)
        # Only one graph is alive at a time: the previous one goes after the
        # batch is drawn and before the next one is built, so the next graph
        # reuses the heap the previous one held.  Dropping it any earlier
        # lets the allocator hand that heap back to the system, and the next
        # graph faults it in again.  Evaluation runs after the graph goes too,
        # in batch-sized chunks, so it reuses that heap instead of mapping
        # fresh pages on top of a live graph.
        fp = None
        fp = model.forward_graph(batch)
        loss_val, dz = _cross_entropy(fp.scores.data, train_split.y[idx])
        if not np.isfinite(loss_val):
            raise ValueError(f"non-finite loss at iteration {it}")
        fp.scores.backward(dz, wrt=fp.params.values())
        grads = {name: leaf.grad for name, leaf in fp.params.items()}
        for name, arr in opt.step(model.params, grads).items():
            with np.errstate(over="ignore"):    # an overflow is the inf below
                arr = snap32(arr)
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite parameter {name!r} after the "
                                 f"update at iteration {it}")
            model.params[name] = arr
        iterations_run = it
        if it % cfg.val_every == 0 and it >= cfg.min_iterations:
            fp = None
            val_acc = evaluate(model, dataset.val).accuracy
            checked_at = it
            if val_acc >= cfg.target_val_accuracy:
                stop_reason = "target-accuracy"
                break

    fp = None
    held_out = dataset.test if len(dataset.test.y) else dataset.val
    if checked_at != iterations_run:    # not checked after the last update
        val_acc = evaluate(model, dataset.val).accuracy
    return TrainResult(
        metrics=evaluate(model, held_out),
        val_accuracy=val_acc,
        iterations_run=iterations_run,
        stop_reason=stop_reason if iterations_run else "no-iterations",
    )

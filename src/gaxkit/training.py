"""Training loop and evaluation metrics for the desk-scale classifiers.

Training minimizes cross-entropy on raw scores with Adam.  One frozen
``TrainConfig`` holds the stop rule, batch size, learning rate and seed.
Samples are drawn uniformly at random each iteration; validation accuracy
is checked at a fixed cadence and the run stops once the target is
reached (after a configurable minimum number of iterations) or at the
iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .models import snap32
from .optim import Adam


@dataclass(frozen=True)
class TrainConfig:
    target_val_accuracy: float | None = 0.99
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
        if not np.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")


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
    loss_history: np.ndarray
    val_history: list[tuple[int, float]] = field(default_factory=list)


_EVAL_CHUNK = 64        # samples per forward pass in evaluate
BETA1 = 0.5             # Adam's first-moment decay for training


def _batched_scores(model, x: np.ndarray) -> np.ndarray:
    outs = [model.scores(x[i: i + _EVAL_CHUNK])
            for i in range(0, len(x), _EVAL_CHUNK)]
    return np.concatenate(outs, axis=0)


def evaluate(model, split) -> Metrics:
    """Accuracy plus precision/recall on a labeled split.

    Binary problems report precision/recall of class 1; with more classes
    both are macro-averaged.  Empty denominators count as zero.
    """
    if len(split.y) == 0:
        raise ValueError("evaluate: empty split")
    pred = _batched_scores(model, split.x).argmax(axis=1)
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

    Metrics are taken on the test split (the validation split when the
    test split is empty).  Model parameters stay on the float32 grid (see
    ``snap32``) so a trained model serializes losslessly.
    """
    train_split = dataset.train
    if len(train_split.y) == 0:
        raise ValueError("train: empty training split")
    if cfg.target_val_accuracy is not None and len(dataset.val.y) == 0:
        raise ValueError("train: empty validation split with a stop target set")
    opt = Adam(cfg.learning_rate, BETA1)
    rng = np.random.default_rng(cfg.seed)
    n = len(train_split.y)
    losses: list[float] = []
    val_history: list[tuple[int, float]] = []
    stop_reason = "max-iterations"
    iterations_run = 0

    for it in range(1, cfg.max_iterations + 1):
        idx = rng.integers(0, n, size=cfg.batch_size)
        fp = model.forward_graph(train_split.x[idx])
        loss = ad.cross_entropy(fp.scores, train_split.y[idx])
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise ValueError(f"non-finite loss at iteration {it}")
        loss.backward()
        grads = {name: leaf.grad for name, leaf in fp.params.items()}
        for name, arr in opt.step(model.params, grads).items():
            with np.errstate(over="ignore"):    # an overflow is the inf below
                arr = snap32(arr)
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite parameter {name!r} after the "
                                 f"update at iteration {it}")
            model.params[name] = arr
        losses.append(loss_val)
        iterations_run = it
        if (cfg.target_val_accuracy is not None
                and it % cfg.val_every == 0 and it >= cfg.min_iterations):
            acc = evaluate(model, dataset.val).accuracy
            val_history.append((it, acc))
            if acc >= cfg.target_val_accuracy:
                stop_reason = "target-accuracy"
                break

    held_out = dataset.test if len(dataset.test.y) else dataset.val
    if val_history and val_history[-1][0] == iterations_run:
        final_val = val_history[-1][1]   # checked after the last update
    else:
        final_val = (evaluate(model, dataset.val).accuracy
                     if len(dataset.val.y) else float("nan"))
    return TrainResult(
        metrics=evaluate(model, held_out),
        val_accuracy=final_val,
        iterations_run=iterations_run,
        stop_reason=stop_reason if iterations_run else "no-iterations",
        loss_history=np.asarray(losses),
        val_history=val_history,
    )

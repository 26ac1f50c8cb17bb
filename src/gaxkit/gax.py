"""Generative augmentative explanation: optimize a heatmap for CO score.

The heatmap is parameterized as ``h = tanh(w * x + b)`` (bias optional),
which bounds it to [-1, 1].  Adam descends on

    loss = -co + l_s / mean((h - x + eps)^2 / (x + eps))

where the second term penalizes heatmaps indistinguishable from the input
itself; it stays positive because inputs are required to lie in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .attribution import Heatmap
from .autodiff import Tensor
from .ax import ScoreConstants
from .models import predict
from .optim import Adam
from .formats import export_heatmap


W_INIT, BIAS_INIT = 1.0, 0.01      # h starts at tanh(x) or tanh(x + 0.01)


@dataclass(frozen=True)
class GaxConfig:
    target_co: float = 48.0
    max_iterations: int = 500
    learning_rate: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    similarity_factor: float = 100.0
    epsilon: float = 1e-4
    use_bias: bool = False
    snapshot_every: int = 10

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.similarity_factor < 0:
            raise ValueError("similarity_factor must be non-negative")
        if not np.isfinite(self.target_co):
            raise ValueError("target_co must be finite")
        if self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}")


@dataclass
class GaxTrace:
    sample_id: str
    iterations: list[tuple[int, float, float]]   # (step, loss, co)
    snapshots: list[tuple[int, str]] = field(default_factory=list)
    converged: bool = False
    final_co: float = float("nan")
    error: str | None = None


def _check_unit_interval(x: np.ndarray) -> None:
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError(
            "inputs must be [0, 1]-normalized (the similarity term's "
            f"positivity requires it); got range [{x.min():.4g}, {x.max():.4g}]")


def _loss_graph(model, x: np.ndarray, w: Tensor, b: Tensor | None,
                fx: np.ndarray, constants: ScoreConstants, cfg: GaxConfig):
    """Build the loss graph for one sample; returns (loss, co, h) tensors."""
    xc = Tensor(x[None])
    pre = ad.mul(w, xc)
    if b is not None:
        pre = ad.add(pre, b)
    h = ad.tanh(pre)
    scores = model.forward_graph(ad.add(xc, h)).scores
    diff = ad.sub(scores, Tensor(fx))
    co = ad.scale(ad.weighted_sum(diff, constants.int_weights()[None]),
                  1.0 / (constants.num_classes - 1.0))
    # mean of (h - x + eps)^2 / (x + eps); the denominator is constant
    dev = ad.shift(ad.sub(h, xc), cfg.epsilon)
    ratio = ad.mul(ad.square(dev), Tensor(1.0 / (x[None] + cfg.epsilon)))
    similarity = ad.scale(ad.reciprocal(ad.mean_all(ratio)),
                          cfg.similarity_factor)
    loss = ad.sub(similarity, co)
    return loss, co, h


def gax_run(model, x, groundtruth: int, cfg: GaxConfig, *,
            sample_id: str = "sample", out_dir=None) -> tuple[GaxTrace, Heatmap]:
    """Optimize one sample's heatmap until the CO target or iteration cap.

    The sample must be correctly classified.  A trace records every
    iteration; snapshots of the evolving heatmap are written under
    ``out_dir`` at the configured cadence and at convergence.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_unit_interval(x)
    pred, raw = predict(model, x)
    if pred != int(groundtruth):
        raise ValueError(f"misclassified sample: model predicts {pred} for "
                         f"a sample labeled {groundtruth}")
    constants = ScoreConstants(model.num_classes, int(groundtruth))
    fx = raw[None]
    params = {"w": np.full(x.shape, W_INIT)}
    if cfg.use_bias:
        params["b"] = np.full(x.shape, BIAS_INIT)
    opt = Adam(cfg.learning_rate, cfg.beta1, cfg.beta2)
    trace = GaxTrace(sample_id, [])
    heat = Heatmap(np.tanh(params["w"] * x + params.get("b", 0.0)),
                   "gax", int(groundtruth))

    for step in range(cfg.max_iterations + 1):
        leaves = {name: Tensor(p[None]) for name, p in params.items()}
        loss, co, h = _loss_graph(model, x, leaves["w"], leaves.get("b"), fx,
                                  constants, cfg)
        loss_val, co_val = float(loss.data), float(co.data)
        if not np.isfinite(loss_val):
            trace.error = f"non-finite loss at step {step}"
            break
        trace.iterations.append((step, loss_val, co_val))
        heat = Heatmap(h.data[0].copy(), "gax", int(groundtruth))
        converged = co_val >= cfg.target_co
        if out_dir is not None and (step % cfg.snapshot_every == 0
                                    or converged):
            rel = f"{sample_id}/step_{step:06d}"
            export_heatmap(heat, Path(out_dir) / rel)
            # reference is relative to out_dir so sweep outputs stay relocatable
            trace.snapshots.append((step, f"{rel}.gaxh"))
        if converged:
            trace.converged = True
            break
        if step == cfg.max_iterations:
            break
        loss.backward()
        params = opt.step(params, {name: t.grad[0]
                                   for name, t in leaves.items()})

    if trace.iterations:
        trace.final_co = trace.iterations[-1][2]
    return trace, heat


def gax_sweep(model, split, cfg: GaxConfig, *, out_dir=None,
              limit: int | None = None
              ) -> tuple[list[GaxTrace], list[tuple[str, str]]]:
    """Run GAX over the correctly-classified samples of a split.

    Misclassified samples are excluded (not errors).  Other per-sample
    failures are logged and skipped; a run stopped by a non-finite loss
    keeps its trace and is logged too.  Returns (traces, errors).
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    traces: list[GaxTrace] = []
    errors: list[tuple[str, str]] = []
    order = np.argsort(np.asarray(split.ids))
    taken = 0
    for i in order:
        if limit is not None and taken >= limit:
            break
        sid = split.ids[i]
        x = split.x[i]
        truth = int(split.y[i])
        pred, _ = predict(model, x)
        if pred != truth:
            continue
        taken += 1
        try:
            trace, _ = gax_run(model, x, truth, cfg, sample_id=sid,
                               out_dir=out_dir)
        except (ValueError, KeyError) as exc:  # data errors; bugs propagate
            errors.append((sid, str(exc)))
            continue
        traces.append(trace)
        if trace.error is not None:
            errors.append((sid, trace.error))
    return traces, errors


# ---------------------------------------------------------------------------
# trace export

TRACE_HEADER = "step,loss,co_score"


def write_trace_csv(trace: GaxTrace, path) -> None:
    lines = [TRACE_HEADER]
    for step, loss, co in trace.iterations:
        lines.append(f"{step},{loss:.9g},{co:.9g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_manifest(traces, path, trace_paths: dict[str, str]) -> None:
    """One line per run: id, convergence, final score, trace and snapshots."""
    lines = ["sample_id,converged,final_co,steps,trace_path,snapshots"]
    for t in traces:
        ref = trace_paths.get(t.sample_id, "")
        flag = "true" if t.converged else "false"
        snaps = ";".join(p for _, p in t.snapshots)
        lines.append(f"{t.sample_id},{flag},{t.final_co:.9g},"
                     f"{len(t.iterations)},{ref},{snaps}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

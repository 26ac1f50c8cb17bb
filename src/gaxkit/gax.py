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
from .formats import export_heatmap, write_lines, write_rows


W_INIT, BIAS_INIT = 1.0, 0.01      # h starts at tanh(x) or tanh(x + 0.01)
EPSILON = 1e-4      # the penalty's eps: finite where h == x or x == 0


@dataclass(frozen=True)
class GaxConfig:
    target_co: float = 48.0
    max_iterations: int = 500
    learning_rate: float = 0.1
    similarity_factor: float = 100.0
    use_bias: bool = False
    snapshot_every: int = 10

    def __post_init__(self):
        if not np.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")
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
    dev = ad.shift(ad.sub(h, xc), EPSILON)
    ratio = ad.mul(ad.square(dev), Tensor(1.0 / (x[None] + EPSILON)))
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
    opt = Adam(cfg.learning_rate)
    trace = GaxTrace(sample_id, [])
    heat = Heatmap(np.tanh(params["w"] * x + params.get("b", 0.0)),
                   "gax", int(groundtruth))

    # an overflow or NaN surfaces as the non-finite loss checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.max_iterations + 1):
            leaves = {name: Tensor(p[None]) for name, p in params.items()}
            loss, co, h = _loss_graph(model, x, leaves["w"], leaves.get("b"),
                                      fx, constants, cfg)
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
                # relative to out_dir so sweep outputs stay relocatable
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

    With ``out_dir`` set, the run directory holds each run's snapshots,
    ``<id>.trace.csv``, ``manifest.csv`` and, if any run failed,
    ``errors.log``; invalid inputs raise before anything is written.
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
        except ValueError as exc:  # data errors; bugs propagate
            errors.append((sid, str(exc)))
            continue
        traces.append(trace)
        if trace.error is not None:
            errors.append((sid, trace.error))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for trace in traces:
            write_trace_csv(trace, out / f"{trace.sample_id}.trace.csv")
        write_manifest(traces, out / "manifest.csv")
        if errors:
            write_lines(out / "errors.log",
                        (f"{sid}: {msg}" for sid, msg in errors))
    return traces, errors


# ---------------------------------------------------------------------------
# trace export

TRACE_HEADER = "step,loss,co_score"


def write_trace_csv(trace: GaxTrace, path) -> None:
    write_rows(path, TRACE_HEADER, trace.iterations)


def write_manifest(traces, path) -> None:
    """One line per run: id, convergence, final score, trace and snapshots;
    the trace is ``<id>.trace.csv`` next to the manifest."""
    write_rows(path, "sample_id,converged,final_co,steps,trace_path,snapshots",
               ((t.sample_id, t.converged, t.final_co, len(t.iterations),
                 f"{t.sample_id}.trace.csv", ";".join(p for _, p in t.snapshots))
                for t in traces))

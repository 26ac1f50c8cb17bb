"""Generative augmentative explanation: optimize a heatmap for CO score.

The heatmap is parameterized as ``h = tanh(w * x + b)`` (bias optional),
which bounds it to [-1, 1].  Adam descends on

    loss = -co + l_s / mean((h - x + eps)^2 / (x + eps))

where ``co`` is ``ScoreConstants.apply`` of f(x + h) - f(x), the CO score
``co_score`` gives ``h`` under the sum variant, and the second term
penalizes heatmaps indistinguishable from the input itself; it stays
positive because inputs are required to lie in [0, 1].

Only the model runs through the autodiff engine: each step builds its graph
from the input ``x + h`` and sweeps it once with ``wrt`` set to the graph's
input leaf.  ``h``, the CO score, the penalty and their gradients are numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attribution import Heatmap
from .autodiff import ShapeError
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
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0, got "
                             f"{self.learning_rate}")
        if not 0 <= self.similarity_factor < np.inf:
            raise ValueError("similarity_factor must be finite and >= 0, got "
                             f"{self.similarity_factor}")
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


def _objective(model, x: np.ndarray, fx: np.ndarray,
               constants: ScoreConstants, cfg: GaxConfig):
    """The loss of one sample's run: ``x`` with raw scores ``fx``, shaped
    ``(C,)``.  Computes the run's constants once, the penalty's
    ``1 / (x + eps)`` and the sweep's seed d loss / d scores, and returns
    ``loss_at(params)`` for ``params`` ``w`` and, with the bias, ``b``,
    each shaped like ``x``.

    ``loss_at`` returns ``(loss, co, h, gradient)``: two floats, the
    heatmap, and a function that returns the loss gradient by parameter
    name.  Only the model runs as an autodiff graph, from the input
    ``x + h``; the head is numpy.  ``gradient`` seeds the scores with
    d loss / d scores and adds d penalty / dh to the input leaf's gradient,
    as d(x + h) / dh is the identity.
    """
    inv = 1.0 / (x + EPSILON)
    # d co / d scores is kappa / (C - 1): it sums to zero, so centering
    # drops out
    c = 1.0 / (constants.num_classes - 1.0)
    seed = -c * constants.int_weights()[None]

    def loss_at(params: dict[str, np.ndarray]):
        pre = params["w"] * x
        if "b" in params:
            pre = pre + params["b"]
        h = np.tanh(pre)
        fp = model.forward_graph((x + h)[None])
        co = constants.apply(fp.scores.data[0] - fx)
        # the penalty's denominator mean((h - x + eps)^2 / (x + eps)), as a
        # sum over the size: np.mean's own arithmetic, without its overhead
        dev = h - x + EPSILON
        # a zero mean (every h == x - eps) makes the loss infinite
        recip = 1.0 / ((dev * dev * inv).sum() / dev.size)
        loss = recip * cfg.similarity_factor - co

        def gradient() -> dict[str, np.ndarray]:
            fp.scores.backward(seed, wrt=[fp.input])
            ratio_grad = -cfg.similarity_factor * recip * recip / dev.size
            gh = 2.0 * dev * (ratio_grad * inv)
            gh += fp.input.grad[0]
            gpre = gh * (1.0 - h * h)
            grads = {"w": gpre * x}
            if "b" in params:
                grads["b"] = gpre
            return grads

        return float(loss), co, h, gradient

    return loss_at


def gax_run(model, x, groundtruth: int, cfg: GaxConfig, *, fx, sample_id: str,
            out_dir) -> tuple[GaxTrace, Heatmap]:
    """Optimize one sample's heatmap until the CO target or iteration cap.

    ``fx`` is the model's raw scores for ``x`` (``predict`` returns them),
    shaped ``(num_classes,)``; the sample must be correctly classified by
    them.  A trace records every iteration; snapshots of the evolving
    heatmap are written under ``out_dir/sample_id`` at the configured
    cadence and at convergence.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_unit_interval(x)
    fx = np.asarray(fx, dtype=np.float64)
    if fx.shape != (model.num_classes,):
        raise ShapeError(f"fx shape {fx.shape} != ({model.num_classes},)")
    pred = int(fx.argmax())
    if pred != int(groundtruth):
        raise ValueError(f"misclassified sample: model predicts {pred} for "
                         f"a sample labeled {groundtruth}")
    constants = ScoreConstants(model.num_classes, int(groundtruth))
    params = {"w": np.full(x.shape, W_INIT)}
    if cfg.use_bias:
        params["b"] = np.full(x.shape, BIAS_INIT)
    opt = Adam(cfg.learning_rate)
    loss_at = _objective(model, x, fx, constants, cfg)
    trace = GaxTrace(sample_id, [])
    heat = Heatmap(np.tanh(params["w"] * x + params.get("b", 0.0)),
                   "gax", int(groundtruth))

    # an overflow, a zero penalty mean or a NaN surfaces as the non-finite
    # loss checked below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for step in range(cfg.max_iterations + 1):
            loss_val, co_val, h, gradient = loss_at(params)
            if not np.isfinite(loss_val):
                trace.error = f"non-finite loss at step {step}"
                break
            trace.iterations.append((step, loss_val, co_val))
            heat = Heatmap(h, "gax", int(groundtruth))
            converged = co_val >= cfg.target_co
            if step % cfg.snapshot_every == 0 or converged:
                rel = f"{sample_id}/step_{step:06d}"
                export_heatmap(heat, Path(out_dir) / rel)
                # relative to out_dir so sweep outputs stay relocatable
                trace.snapshots.append((step, f"{rel}.gaxh"))
            if converged:
                trace.converged = True
                break
            if step == cfg.max_iterations:
                break
            params = opt.step(params, gradient())

    if trace.iterations:
        trace.final_co = trace.iterations[-1][2]
    return trace, heat


def _check_run_paths(ids) -> None:
    """Raise, naming the sample, if a sample's snapshot directory or one of
    its parents would be a file the run writes: ``manifest.csv``,
    ``errors.log`` or a sample's ``<id>.trace.csv``."""
    files = {"manifest.csv", "errors.log",
             *(f"{sid}.trace.csv" for sid in ids)}
    for sid in ids:
        parts = sid.split("/")
        for k in range(1, len(parts) + 1):
            path = "/".join(parts[:k])
            if path in files:
                raise ValueError(f"sample id {sid!r}: its GAX snapshots need "
                                 f"a directory {path!r}, where the run "
                                 "writes a file")


def gax_sweep(model, split, cfg: GaxConfig, *, out_dir,
              limit: int | None = None
              ) -> tuple[list[GaxTrace], list[tuple[str, str]]]:
    """Run GAX over the correctly-classified samples of a split.

    Samples run in split order, misclassified ones are skipped (not
    errors) and ``limit`` caps the runs.  Returns (traces, errors): a run
    stopped by a non-finite loss keeps its trace and is the one error,
    ``(sample id, "non-finite loss at step k")``.  Nothing is caught.

    The run directory ``out_dir`` holds each run's snapshots under
    ``<id>/``, ``<id>.trace.csv``, ``manifest.csv`` and, if any run stopped
    on a non-finite loss, ``errors.log``.  Invalid inputs raise before
    anything is written; among them a sample ID whose snapshot directory,
    or one of its parents, would be one of those files.  A split's pixels
    are uint8, so its images lie in [0, 1].
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    _check_run_paths(split.ids)
    traces: list[GaxTrace] = []
    for i, sid in enumerate(split.ids):
        if limit is not None and len(traces) >= limit:
            break
        x = split.images(i)
        truth = int(split.y[i])
        pred, fx = predict(model, x)
        if pred != truth:
            continue
        traces.append(gax_run(model, x, truth, cfg, fx=fx, sample_id=sid,
                              out_dir=out_dir)[0])
    errors = [(t.sample_id, t.error) for t in traces if t.error is not None]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        # a raw sample id is <class dir>/<stem>
        path = out / f"{trace.sample_id}.trace.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_trace_csv(trace, path)
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

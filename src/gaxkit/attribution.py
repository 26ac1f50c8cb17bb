"""Heatmap attribution methods.

Six methods, each mapping (model, one sample's forward graph, target class)
to a heatmap shaped like the sample:

* ``saliency``          - signed raw-score gradient w.r.t. the input.
* ``input-x-gradient``  - input times the signed gradient.
* ``deconvolution``     - gradient under the deconv rectifier rule.
* ``guided-backprop``   - gradient under the guided rectifier rule.
* ``deeplift``          - rescale-rule contributions against a baseline
  (all-zeros by default).
* ``layer-gradcam``     - rectified channel-weighted activations of a named
  layer, upsampled to the input size and replicated across channels.
  Select the layer with ``layer-gradcam:<name>`` (default ``conv1``).

Saliency keeps the gradient sign because the augmentation process adds the
heatmap to the input, so sign carries the confidence-increasing direction;
``abs_values=True`` restores the classical visualization variant.

Methods that share a sample's forward graph share its work.  The four
gradient methods and Grad-CAM read one recorded sweep per (graph, rule,
target): the first to need one sweeps with ``wrt`` set to the input and
every named activation, and records those gradients in the graph's
``ForwardPass.sweeps`` under ``(rule, target)``; the others read the
record.  The record lives and dies with its graph, and no later sweep
writes its arrays (see :mod:`gaxkit.autodiff`).  Heatmaps are fresh arrays,
so editing one leaves the record intact.  DeepLIFT takes its baseline as a
:class:`~gaxkit.models.ForwardPass` too, which a sweep over many inputs
builds once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import (RULE_DECONV, RULE_GUIDED, RULE_STANDARD, ShapeError,
                       Tensor)
from .data import nearest_resize
# ``predict`` stays bound here unused: bench/test_bench.py checks that the
# tracer wraps this binding
from .models import ForwardPass, predict  # noqa: F401

# these two gradient methods differ from saliency only in the rectifier's
# backward rule
_RECTIFIER_RULES = {"deconvolution": RULE_DECONV,
                    "guided-backprop": RULE_GUIDED}
METHODS = ("saliency", "input-x-gradient", *_RECTIFIER_RULES, "deeplift",
           "layer-gradcam")

DEFAULT_GRADCAM_LAYER = "conv1"


@dataclass(frozen=True)
class Heatmap:
    """Per-pixel attribution with provenance; shaped like its input."""
    values: np.ndarray
    method: str
    target_class: int
    normalized: bool = False


def parse_method(method: str) -> tuple[str, str | None]:
    """Split a method tag into (kind, gradcam layer or None)."""
    kind, _, layer = method.partition(":")
    if kind not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if layer and kind != "layer-gradcam":
        raise ValueError(f"only layer-gradcam accepts a layer suffix: {method!r}")
    return kind, (layer or None)


def normalize(h: Heatmap) -> Heatmap:
    """Scale so the global peak magnitude is one; zero maps pass through."""
    peak = float(np.abs(h.values).max(initial=0.0))
    if peak == 0.0:
        return replace(h, normalized=True)
    return replace(h, values=h.values / peak, normalized=True)


def _check_target(model, target: int) -> int:
    target = int(target)
    if not 0 <= target < model.num_classes:
        raise ValueError(
            f"target {target} out of range for {model.num_classes} classes")
    return target


def _gradcam_layer(fp, layer: str) -> Tensor:
    """The activation Grad-CAM reads, checked to be a spatial layer."""
    if layer not in fp.activations:
        raise ValueError(
            f"unknown layer {layer!r}; model layers: {sorted(fp.activations)}")
    act = fp.activations[layer]
    if act.data.ndim != 4:
        raise ValueError(f"layer {layer!r} is not spatial (shape {act.shape})")
    return act


def attribute(model, fp: ForwardPass, target: int, method: str, *,
              abs_values: bool = False,
              deeplift_baseline: ForwardPass | None = None) -> Heatmap:
    """Compute one heatmap of the sample ``fp`` explains, with respect to
    class ``target``.

    ``fp`` is the one-row forward graph of the sample (``predict_graph``
    returns it), and the heatmap is shaped like ``fp.input.data[0]``.  Any
    number of methods may read one graph (see the module docstring).

    ``deeplift_baseline`` is the one-row forward graph of DeepLIFT's
    baseline (all zeros when ``None``), so a caller explaining many inputs
    against one baseline builds its graph once.
    """
    kind, layer = parse_method(method)
    target = _check_target(model, target)
    leaf = fp.input
    if leaf.shape[0] != 1:
        raise ShapeError(f"graph input shape {leaf.shape} is not one sample")
    x = leaf.data[0]

    seed = np.zeros(fp.scores.shape)        # explains class ``target``
    seed[0, target] = 1.0
    if kind == "deeplift":
        base = model.forward_graph(np.zeros_like(leaf.data)) \
            if deeplift_baseline is None else deeplift_baseline
        if base.input.shape != leaf.shape:
            raise ShapeError("baseline graph input shape "
                             f"{base.input.shape} != {leaf.shape}")
        ad.rescale_multipliers(fp.scores, base.scores, seed, wrt=[leaf])
        values = (x - base.input.data[0]) * leaf.grad[0]
    elif kind == "layer-gradcam":
        layer = layer or DEFAULT_GRADCAM_LAYER
        act = _gradcam_layer(fp, layer)
        _, layer_grads = _sweep(fp, seed, RULE_STANDARD, target)
        weights = layer_grads[layer].mean(axis=(2, 3))  # (1, K) spatial mean
        cam = np.maximum((weights[:, :, None, None] * act.data).sum(axis=1),
                         0.0)
        plane = nearest_resize(cam[0], x.shape[1], x.shape[2])
        values = np.broadcast_to(plane, x.shape).copy()
    else:
        rule = _RECTIFIER_RULES.get(kind, RULE_STANDARD)
        input_grad, _ = _sweep(fp, seed, rule, target)
        # a copy: the heatmap must not alias the record a later method reads
        values = x * input_grad[0] if kind == "input-x-gradient" else \
            input_grad[0].copy()

    if abs_values:
        values = np.abs(values)
    return Heatmap(values=values, method=method, target_class=target)


def _sweep(fp, seed, rule, target):
    """``(input grad, {layer: grad})`` under ``rule`` for class ``target``:
    swept and recorded in ``fp.sweeps`` on the first call for this graph,
    rule and target, read from the record after that."""
    key = (rule, target)
    if key not in fp.sweeps:
        fp.scores.backward(seed, rule,
                           wrt=[fp.input, *fp.activations.values()])
        fp.sweeps[key] = (fp.input.grad, {name: act.grad for name, act
                                          in fp.activations.items()})
    return fp.sweeps[key]

"""Heatmap attribution methods.

Six methods, each mapping (model, input, target class) to a heatmap shaped
like the input:

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
from .models import ForwardPass, predict, predict_graph  # noqa: F401

# the plain-gradient methods differ only in the rectifier's backward rule
_GRADIENT_RULES = {"saliency": RULE_STANDARD, "input-x-gradient": RULE_STANDARD,
                   "deconvolution": RULE_DECONV, "guided-backprop": RULE_GUIDED}
METHODS = (*_GRADIENT_RULES, "deeplift", "layer-gradcam")

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


def attribute(model, x, target: int, method: str, *,
              abs_values: bool = False,
              deeplift_baseline: np.ndarray | None = None,
              graph: tuple[Tensor, ForwardPass] | None = None) -> Heatmap:
    """Compute one heatmap for ``x`` with respect to class ``target``.

    ``graph`` is ``(leaf, fp)``, the input leaf of ``x[None]`` and its
    forward pass, when the caller already built them (``predict_graph``
    returns them); otherwise they are built here.  Any number of methods
    may sweep one graph (see :mod:`gaxkit.autodiff`).
    """
    kind, layer = parse_method(method)
    target = _check_target(model, target)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != tuple(model.input_shape):
        raise ShapeError(
            f"input shape {x.shape} != model input {model.input_shape}")
    if graph is None:
        leaf = Tensor(x[None])
        graph = leaf, model.forward_graph(leaf)
    leaf, fp = graph
    if leaf.shape != (1, *x.shape):
        raise ShapeError(f"graph input shape {leaf.shape} != {(1, *x.shape)}")

    seed = np.zeros(fp.scores.shape)        # explains class ``target``
    seed[0, target] = 1.0
    if kind in _GRADIENT_RULES:
        fp.scores.backward(seed, _GRADIENT_RULES[kind], wrt=[leaf])
        values = leaf.grad[0]
        if kind == "input-x-gradient":
            values = x * values
    elif kind == "deeplift":
        base = np.zeros_like(x) if deeplift_baseline is None else \
            np.asarray(deeplift_baseline, dtype=np.float64)
        if base.shape != x.shape:
            raise ShapeError(
                f"baseline shape {base.shape} != input shape {x.shape}")
        ad.rescale_multipliers(
            fp.scores, model.forward_graph(Tensor(base[None])).scores, seed,
            wrt=[leaf])
        values = (x - base) * leaf.grad[0]
    else:
        act = _gradcam_layer(fp, layer or DEFAULT_GRADCAM_LAYER)
        fp.scores.backward(seed, RULE_STANDARD, wrt=[act])
        weights = act.grad.mean(axis=(2, 3))       # (1, K) spatially averaged
        cam = np.maximum((weights[:, :, None, None] * act.data).sum(axis=1),
                         0.0)
        plane = nearest_resize(cam[0], x.shape[1], x.shape[2])
        values = np.broadcast_to(plane, x.shape).copy()

    if abs_values:
        values = np.abs(values)
    return Heatmap(values=values, method=method, target_class=target)


def attribute_at_predicted(model, x, method: str) -> Heatmap:
    """Heatmap for the model's own prediction, normalized to peak one."""
    pred, graph = predict_graph(model, x)
    return normalize(attribute(model, x, pred, method, graph=graph))

"""Augmentative explanation scoring.

The CO (confidence optimization) score measures how much combining an
input with its heatmap shifts the model's raw outputs toward the
groundtruth class:

    co = kappa . [f(g(x, h)) - f(x)]

with g either elementwise sum or product, and kappa the score constants:
+1 at the groundtruth class and -1/(C-1) elsewhere.  Since kappa sums to
zero, any uniform shift of the raw outputs leaves the score unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attribution import Heatmap, attribute, normalize
from .autodiff import ShapeError
from .formats import format_value, parse_number, read_lines, write_rows
# ``predict`` stays bound here unused: bench/test_bench.py checks that the
# tracer wraps this binding
from .models import predict, predict_graph  # noqa: F401

VARIANTS = ("sum", "mul")


@dataclass(frozen=True)
class ScoreConstants:
    """Score weight vector for one groundtruth class.

    Holds the integer core ((C-1) at the groundtruth, -1 elsewhere) and
    divides by C-1 on application, so the zero-sum property is exact in
    floating point for every class count.
    """
    num_classes: int
    groundtruth: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if not 0 <= self.groundtruth < self.num_classes:
            raise ValueError(
                f"groundtruth {self.groundtruth} out of range "
                f"for {self.num_classes} classes")

    def int_weights(self) -> np.ndarray:
        w = np.full(self.num_classes, -1.0)
        w[self.groundtruth] = self.num_classes - 1.0
        return w

    def apply(self, diff: np.ndarray) -> float:
        diff = np.asarray(diff, dtype=np.float64)
        if diff.shape != (self.num_classes,):
            raise ShapeError(
                f"score diff shape {diff.shape} != ({self.num_classes},)")
        # kappa sums to zero, so kappa . diff == kappa . (diff - diff[truth]);
        # centering first makes uniform output shifts cancel exactly
        centered = diff - diff[self.groundtruth]
        return float(self.int_weights() @ centered) / (self.num_classes - 1.0)


@dataclass(frozen=True)
class ScoreRecord:
    sample_id: str
    method: str
    variant: str
    co_score: float
    predicted: int
    groundtruth: int

    @property
    def correct(self) -> bool:
        return self.predicted == self.groundtruth


@dataclass(frozen=True)
class GroupSummary:
    count: int
    min: float
    q1: float
    median: float
    q3: float
    max: float


@dataclass(frozen=True)
class GapStats:
    correct: GroupSummary | None
    wrong: GroupSummary | None
    separation: float | None      # min over correct - max over wrong
    auroc: float | None           # co-score as a ranking of correctness


def check_variant(variant: str) -> None:
    """Raise ``ValueError`` unless ``variant`` is one of ``VARIANTS``."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected {VARIANTS}")


def co_score(model, x, heatmaps: list[Heatmap], groundtruth: int,
             variants, *, fx) -> np.ndarray:
    """CO scores of one sample against its groundtruth, shape
    ``(len(heatmaps), len(variants))``: entry ``[j, k]`` combines ``x`` with
    ``heatmaps[j]`` under ``variants[k]``.

    ``fx`` is the model's raw-score vector f(x), shape (C,), as ``predict``
    returns it.  Every combined input goes through one ``model.scores``
    call; a batch-invariant ``scores`` (``MiniConvNet``'s) gives each entry
    the bytes a call on that combined input alone gives.
    """
    for variant in variants:
        check_variant(variant)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != tuple(model.input_shape):
        raise ShapeError(f"input shape {x.shape} != model input "
                         f"{model.input_shape}")
    for h in heatmaps:
        if h.values.shape != x.shape:
            raise ShapeError(
                f"heatmap shape {h.values.shape} != input shape {x.shape}")
    constants = ScoreConstants(model.num_classes, int(groundtruth))
    combined = [x + h.values if variant == "sum" else x * h.values
                for h in heatmaps for variant in variants]
    if np.shape(fx) != (model.num_classes,):
        raise ShapeError(f"fx shape {np.shape(fx)} != ({model.num_classes},)")
    rows = model.scores(np.stack(combined)) if combined else []
    return np.reshape([constants.apply(row - fx) for row in rows],
                      (len(heatmaps), len(variants)))


def ax_sweep(model, split, methods, variants=("sum", "mul")
             ) -> tuple[list[ScoreRecord], list]:
    """Score every (sample, method, variant) combination of a split.

    Heatmaps target the predicted class and enter the score normalized.
    Each sample's one forward graph gives the class, f(x) and every
    method's heatmap (the gradient methods and Grad-CAM read one recorded
    sweep of it per rule), and one ``co_score`` call scores all of them
    under every variant.  DeepLIFT's zero baseline gets one graph per call,
    built only when ``methods`` include ``deeplift``.  Returns
    ``(records, [])``, records sorted for deterministic export; the second
    element is always empty and stays only for the benchmark's callers,
    which unpack a pair.  Nothing is caught: a method that cannot explain
    the model (a Grad-CAM layer it lacks or that is not spatial) raises at
    the first sample, and so does a split that does not fit the model.
    """
    records: list[ScoreRecord] = []
    # DeepLIFT's zero baseline has the same graph for every sample
    baseline = predict_graph(model, np.zeros(model.input_shape))[1] \
        if "deeplift" in methods else None
    for i, sid in enumerate(split.ids):
        x = split.images(i)
        truth = int(split.y[i])
        pred, graph = predict_graph(model, x)
        heats = [normalize(attribute(model, graph, pred, method,
                                     deeplift_baseline=baseline))
                 for method in methods]
        scores = co_score(model, x, heats, truth, variants,
                          fx=graph.scores.data[0])
        records += [ScoreRecord(sid, h.method, variant, float(score), pred,
                                truth)
                    for h, row in zip(heats, scores)
                    for variant, score in zip(variants, row)]
    records.sort(key=lambda r: (r.sample_id, r.method, r.variant))
    return records, []


def _summary(scores: np.ndarray) -> GroupSummary:
    q = np.quantile(scores, [0.0, 0.25, 0.5, 0.75, 1.0], method="linear")
    return GroupSummary(len(scores), *map(float, q))


def _auroc(positive: np.ndarray, negative: np.ndarray) -> float:
    """Rank-based AUROC (ties get half credit via average ranks)."""
    scores = np.concatenate([positive, negative])
    _, group, counts = np.unique(scores, return_inverse=True,
                                 return_counts=True)
    # a group of tied scores holds 1-based ranks cumsum - counts + 1 .. cumsum
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    n_pos, n_neg = len(positive), len(negative)
    r_pos = ranks[:n_pos].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def select_records(records, method: str | None = None,
                   variant: str | None = None) -> list[ScoreRecord]:
    """Records of one method and one variant; ``None`` matches any."""
    return [r for r in records
            if (method is None or r.method == method)
            and (variant is None or r.variant == variant)]


def gap_stats(records, method: str | None = None,
              variant: str | None = None) -> GapStats:
    """Distribution summary of CO scores split by prediction correctness.

    With only one group present the comparison fields stay ``None``.
    """
    selected = select_records(records, method, variant)
    if not selected:
        raise ValueError("gap_stats: no records match the filter")
    for r in selected:
        if not np.isfinite(r.co_score):
            raise ValueError(f"gap_stats: sample {r.sample_id} method "
                             f"{r.method} variant {r.variant} has a "
                             f"non-finite co_score {r.co_score}")
    correct = np.array([r.co_score for r in selected if r.correct])
    wrong = np.array([r.co_score for r in selected if not r.correct])
    summary_c = _summary(correct) if len(correct) else None
    summary_w = _summary(wrong) if len(wrong) else None
    if len(correct) and len(wrong):
        separation = float(correct.min() - wrong.max())
        auroc = _auroc(correct, wrong)
    else:
        separation = auroc = None
    return GapStats(summary_c, summary_w, separation, auroc)


# ---------------------------------------------------------------------------
# CSV interfaces

SCORES_HEADER = "sample_id,method,variant,co_score,pred,truth,correct"


def write_scores_csv(records, path) -> None:
    write_rows(path, SCORES_HEADER,
               ((r.sample_id, r.method, r.variant, r.co_score, r.predicted,
                 r.groundtruth, r.correct) for r in records))


def read_scores_csv(path) -> list[ScoreRecord]:
    lines = read_lines(path)
    if not lines or lines[0] != SCORES_HEADER:
        raise ValueError(f"{path} is not a scores CSV")
    records = []
    width = SCORES_HEADER.count(",") + 1
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        where = f"{path} line {lineno}"
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"{where}: expected {width} fields, "
                             f"got {len(fields)}")
        sid, method, variant, score, pred, truth, correct = fields
        record = ScoreRecord(
            sid, method, variant, parse_number(score, float, where, "co_score"),
            parse_number(pred, int, where, "pred"),
            parse_number(truth, int, where, "truth"))
        if correct not in ("true", "false"):
            raise ValueError(f"{where}: correct {correct!r} is not true or "
                             "false")
        if correct != format_value(record.correct):
            raise ValueError(f"{where}: correct {correct!r} contradicts pred "
                             f"{pred} and truth {truth}")
        records.append(record)
    return records


def write_histogram_csv(records, path, bins: int) -> None:
    """Shared-bin histogram of CO scores for the correct and wrong groups."""
    if bins < 1:
        raise ValueError(f"write_histogram_csv: bins must be >= 1, got {bins}")
    if not records:
        raise ValueError("write_histogram_csv: no records")
    scores = np.array([r.co_score for r in records])
    lo, hi = float(scores.min()), float(scores.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    correct = np.array([r.co_score for r in records if r.correct])
    wrong = np.array([r.co_score for r in records if not r.correct])
    count_c, _ = np.histogram(correct, bins=edges)
    count_w, _ = np.histogram(wrong, bins=edges)
    write_rows(path, "bin_lo,bin_hi,count_correct,count_wrong",
               zip(edges[:-1], edges[1:], count_c, count_w))

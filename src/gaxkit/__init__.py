"""gaxkit: confidence-optimization scoring and generative heatmaps for
small image classifiers.

The package measures how much a heatmap improves a classifier's raw-score
confidence (the CO score of the AX process), collects correct-vs-wrong
score-gap statistics, and optimizes confidence-maximizing heatmaps by
gradient descent (GAX), with an exactly solvable 2D toy model for
verification.
"""

from .attribution import Heatmap, METHODS, attribute, normalize
from .autodiff import (BACKWARD_RULES, RULE_DECONV, RULE_GUIDED,
                       RULE_STANDARD, ShapeError, Tensor)
from .ax import (GapStats, ScoreConstants, ScoreRecord, ax_sweep, co_score,
                 gap_stats, read_scores_csv, write_histogram_csv,
                 write_scores_csv)
from .data import (Dataset, DatasetSpec, Split, gen_data, ingest_images,
                   load_dataset, make_blobs, write_dataset)
from .gax import (GaxConfig, GaxTrace, gax_run, gax_sweep, write_manifest,
                  write_trace_csv)
from .models import MiniConvNet, predict, predict_graph
from .optim import Adam
from .toy import (ToyInstance, closed_form_heatmap, delta, delta_gradient,
                  rotation_sweep, write_sweep_csv)
from .training import Metrics, TrainConfig, TrainResult, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Adam", "BACKWARD_RULES", "Dataset", "DatasetSpec", "GapStats",
    "GaxConfig", "GaxTrace", "Heatmap", "METHODS", "Metrics", "MiniConvNet",
    "RULE_DECONV", "RULE_GUIDED", "RULE_STANDARD", "ScoreConstants",
    "ScoreRecord", "ShapeError", "Split", "Tensor", "ToyInstance",
    "TrainConfig", "TrainResult", "attribute", "ax_sweep",
    "closed_form_heatmap", "co_score", "delta", "delta_gradient", "evaluate",
    "gap_stats", "gax_run", "gax_sweep", "gen_data", "ingest_images",
    "load_dataset", "make_blobs", "normalize", "predict", "predict_graph",
    "read_scores_csv", "rotation_sweep", "train", "write_dataset",
    "write_histogram_csv", "write_manifest", "write_scores_csv",
    "write_sweep_csv", "write_trace_csv",
]

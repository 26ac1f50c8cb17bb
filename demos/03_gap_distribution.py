#!/usr/bin/env python3
"""The correct-vs-wrong CO score gap.

Sweeps the AX process (x + h with normalized heatmaps) over a test split
whose labels carry some injected noise, then summarizes the CO score
distributions of correctly and wrongly predicted samples.  Heatmaps target
the *predicted* class, so a wrong prediction pushes confidence toward the
wrong output and its CO score (measured against the groundtruth) drops;
the two groups separate without any dedicated training.

Writes gap_scores.csv and gap_histogram.csv.
"""

import numpy as np

from gaxkit import (DatasetSpec, MiniConvNet, TrainConfig, ax_sweep, gap_stats,
                    make_blobs, train, write_histogram_csv, write_scores_csv)
from gaxkit.ax import select_records
from gaxkit.data import Split

spec = DatasetSpec(class_count=2, train=400, val=120, test=250,
                   image_shape=(3, 32, 32), seed=11)
ds = make_blobs(spec)
model = MiniConvNet(input_shape=spec.image_shape, num_classes=2, seed=7)
result = train(model, ds, TrainConfig(target_val_accuracy=0.98,
                                      max_iterations=1500, min_iterations=100,
                                      val_every=50, seed=3))
print(f"trained to validation accuracy {result.val_accuracy:.3f}")

# flip a few labels so the "wrong prediction" group is populated
rng = np.random.default_rng(99)
labels = ds.test.y.copy()
flipped = rng.choice(len(labels), size=15, replace=False)
labels[flipped] = 1 - labels[flipped]
noisy_split = Split(ds.test.pixels, labels, ds.test.ids)

records, _ = ax_sweep(model, noisy_split,
                      ["saliency", "input-x-gradient", "deeplift"], ["sum"])
print(f"swept {len(records)} (sample, method, variant) combinations")
write_scores_csv(records, "gap_scores.csv")

for method in ("saliency", "input-x-gradient", "deeplift"):
    stats = gap_stats(records, method, "sum")
    print(f"\n{method} [sum]:")
    print(f"  correct: n={stats.correct.count:3d} "
          f"median={stats.correct.median:8.3f}")
    print(f"  wrong:   n={stats.wrong.count:3d} "
          f"median={stats.wrong.median:8.3f}")
    print(f"  separation={stats.separation:.3f}  auroc={stats.auroc:.3f}")

write_histogram_csv(select_records(records, "saliency", "sum"),
                    "gap_histogram.csv", bins=40)
print("\nwrote gap_scores.csv and gap_histogram.csv")

#!/usr/bin/env python3
"""All six attribution methods on one trained desk-scale classifier.

Trains the small conv net on synthetic blobs, picks one test sample, and
exports a heatmap per method (raw tensor + red/blue PPM per channel), each
explaining the predicted class through the sample's one forward graph.
Outputs land under attribution_gallery/.
"""

from pathlib import Path

from gaxkit import (METHODS, DatasetSpec, MiniConvNet, TrainConfig,
                    attribute, make_blobs, normalize, predict_graph, train)
from gaxkit.formats import export_heatmap, write_ppm
import numpy as np

OUT = Path("attribution_gallery")

spec = DatasetSpec(class_count=2, train=300, val=100, test=50,
                   image_shape=(3, 32, 32), seed=11)
ds = make_blobs(spec)
model = MiniConvNet(input_shape=spec.image_shape, num_classes=2, seed=7)
result = train(model, ds, TrainConfig(target_val_accuracy=0.98,
                                      max_iterations=1500, min_iterations=100,
                                      val_every=50, seed=3))
print(f"trained to validation accuracy {result.val_accuracy:.3f} "
      f"in {result.iterations_run} iterations")

x = ds.test.x[0]
pred, fp = predict_graph(model, x)
raw = fp.scores.data[0]
print(f"sample {ds.test.ids[0]}: groundtruth {ds.test.y[0]}, "
      f"predicted {pred}, raw scores {np.round(raw, 3)}\n")

OUT.mkdir(exist_ok=True)
write_ppm(OUT / "input.ppm",
          np.moveaxis(np.rint(x * 255).astype(np.uint8), 0, 2))

for method in METHODS:
    heat = normalize(attribute(model, fp, pred, method))
    paths = export_heatmap(heat, OUT / method.replace(":", "_"))
    peak = np.abs(heat.values).max()
    print(f"{method:>18}: peak |h| = {peak:.3f} "
          f"-> {paths['images'][0].name} (+{len(paths['images']) - 1} more)")

print(f"\nheatmaps written under {OUT}/ "
      "(red = increase the pixel, blue = decrease it)")

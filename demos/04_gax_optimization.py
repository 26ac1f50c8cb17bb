#!/usr/bin/env python3
"""Generative AX: optimize heatmaps until a target CO score.

For a few correctly classified samples, Adam tunes the weights of
h = tanh(w * x) to maximize the CO score while the similarity penalty
keeps h visually distinct from x.  Per-iteration traces and heatmap
snapshots land under gax_runs/.
"""

from gaxkit import (DatasetSpec, GaxConfig, MiniConvNet, TrainConfig,
                    gax_sweep, make_blobs, train)

OUT = "gax_runs"

spec = DatasetSpec(class_count=2, train=400, val=120, test=60,
                   image_shape=(3, 32, 32), seed=11)
ds = make_blobs(spec)
model = MiniConvNet(input_shape=spec.image_shape, num_classes=2, seed=7)
result = train(model, ds, TrainConfig(target_val_accuracy=0.98,
                                      max_iterations=1500, min_iterations=100,
                                      val_every=50, seed=3))
print(f"trained to validation accuracy {result.val_accuracy:.3f}\n")

cfg = GaxConfig(target_co=5.0, max_iterations=500, snapshot_every=10)
print(f"optimizing until co >= {cfg.target_co} "
      f"(lr {cfg.learning_rate}, similarity factor {cfg.similarity_factor})")
traces, errors = gax_sweep(model, ds.test, cfg, out_dir=OUT, limit=8)

for trace in traces:
    first = trace.iterations[0][2]
    mark = "converged" if trace.converged else "hit the iteration cap"
    print(f"  {trace.sample_id}: co {first:7.3f} -> {trace.final_co:7.3f} "
          f"in {len(trace.iterations) - 1:3d} steps ({mark})")

print(f"\n{sum(t.converged for t in traces)}/{len(traces)} runs converged; "
      f"traces, snapshots and manifest under {OUT}/")
print("snapshot PPMs visualize the heatmap evolving: step_000000 is "
      "tanh(x) itself, later steps drift toward confidence-optimal patterns")

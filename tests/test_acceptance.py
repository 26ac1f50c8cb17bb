"""Acceptance suite: one test per criterion, each at its stated tolerance.

The conftest reporter prints a PASS/FAIL line per criterion after the run:

    python3 -m pytest tests/test_acceptance.py
"""

import time

import numpy as np
import pytest

from gaxkit import (DatasetSpec, GaxConfig, Heatmap, MiniConvNet, TrainConfig,
                    attribute, ax_sweep, co_score, gap_stats, gax_sweep,
                    make_blobs, predict, train)
from gaxkit.ax import ScoreConstants
from gaxkit.cli import main as cli_main
from gaxkit.data import Split
from gaxkit.formats import (read_gaxh, read_gaxm, read_pnm, write_gaxh,
                            write_gaxm, write_pgm, write_ppm)
from gaxkit.gax import _objective
from gradcheck import (check_gradients, max_relative_error,
                              numeric_gradient)
from gaxkit.toy import ToyInstance, closed_form_heatmap, delta_gradient, \
    sample_vector
from gaxkit.training import evaluate

from helpers_grad import op_cases
from oracle_models import LeakyReluToy, LinearModel, SingleRelu


def test_c01_toy_closed_form_equals_numeric_ascent():
    """1000 random draws: the closed-form heatmap matches k explicit
    gradient-ascent steps to 1e-10 (the objective is linear in w)."""
    rng = np.random.default_rng(10001)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(-np.pi, np.pi)
        a1, a2 = rng.uniform(-2.0, 2.0, size=2)
        k = int(rng.integers(0, 50))
        eta = rng.uniform(0.0, 0.5)
        inst = ToyInstance(theta, a1, a2, k_eta=k * eta)
        closed = closed_form_heatmap(inst)
        w = np.ones(2)
        for _ in range(k):
            w = w + eta * delta_gradient(inst)
        numeric = w * sample_vector(inst)
        worst = max(worst, float(np.abs(closed - numeric).max()))
    elapsed = time.time() - start
    assert worst < 1e-10, f"worst deviation {worst:.3e}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_c02_toy_co_identity_exact():
    """leaky-relu + identity mixing + h = x with a1 > a2 > 0: the CO score
    is exactly the coefficient gap a1 - a2 (64-bit, 1e-12)."""
    rng = np.random.default_rng(10002)
    model = LeakyReluToy()
    for _ in range(200):
        a2 = rng.uniform(1e-3, 1.5)
        a1 = a2 + rng.uniform(1e-3, 1.5)
        x = np.array([a1, a2])
        score = co_score(model, x, [Heatmap(x, "identity", 0)], 0, ["sum"],
                         fx=model.scores(x[None])[0])[0, 0]
        assert abs(score - (a1 - a2)) < 1e-12


def test_c03_zero_co_invariants():
    """h = 0 scores exactly zero; adding a constant to every raw output
    leaves the score unchanged to 1e-12."""
    model = MiniConvNet(input_shape=(3, 8, 8), num_classes=3, seed=77)
    rng = np.random.default_rng(10003)

    class Shifted:
        def __init__(self, inner, c):
            self.inner, self.c = inner, c
            self.input_shape = inner.input_shape
            self.num_classes = inner.num_classes

        def scores(self, x):
            return self.inner.scores(x) + self.c

    for _ in range(20):
        x = rng.uniform(0, 1, size=(3, 8, 8))
        truth = int(rng.integers(0, 3))
        fx = model.scores(x[None])[0]
        zero = co_score(model, x, [Heatmap(np.zeros_like(x), "m", truth)],
                        truth, ["sum"], fx=fx)[0, 0]
        assert zero == 0.0
        h = Heatmap(rng.normal(0, 0.3, size=(3, 8, 8)), "m", truth)
        base = co_score(model, x, [h], truth, ["sum"], fx=fx)[0, 0]
        for c in (1.0, -2.5, 750.0):
            shifted_model = Shifted(model, c)
            shifted = co_score(shifted_model, x, [h], truth, ["sum"],
                               fx=shifted_model.scores(x[None])[0])[0, 0]
            assert abs(shifted - base) < 1e-12


def test_c04_gradient_fidelity():
    """Every autodiff op and the full GAX loss match central finite
    differences with relative error < 1e-5 (100 trials, fixed seed)."""
    start = time.time()
    rng = np.random.default_rng(10004)
    for name, make in op_cases():
        worst = 0.0
        for _ in range(100):
            arrays, build = make(rng)
            worst = max(worst, max(check_gradients(build, arrays)))
        assert worst < 1e-5, f"{name}: {worst:.3e}"

    # the composite loss: score difference plus inverse-mean similarity term
    model = MiniConvNet(input_shape=(1, 4, 4), num_classes=2, seed=4)
    cfg = GaxConfig(similarity_factor=25.0)
    constants = ScoreConstants(2, 0)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(0.1, 0.9, size=(1, 4, 4))
        fx = model.scores(x[None])[0]
        w0 = rng.uniform(0.5, 1.5, size=(1, 4, 4))
        b0 = rng.uniform(-0.1, 0.1, size=(1, 4, 4))
        loss_at = _objective(model, x, fx, constants, cfg)
        grads = loss_at({"w": w0, "b": b0})[3]()

        def f(w_arr, b_arr):
            return loss_at({"w": w_arr, "b": b_arr})[0]

        worst = max(worst,
                    max_relative_error(grads["w"],
                                       numeric_gradient(f, [w0, b0], 0)),
                    max_relative_error(grads["b"],
                                       numeric_gradient(f, [w0, b0], 1)))
    elapsed = time.time() - start
    assert worst < 1e-5, f"gax loss gradient error {worst:.3e}"
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"


def test_c05_attribution_oracles():
    """Linear-model closed forms and the single-linear-region DeepLIFT
    identity, all to 1e-9."""
    rng = np.random.default_rng(10005)
    for _ in range(10):
        m = rng.normal(size=(3, 6))
        model = LinearModel(m)
        m_snapped = model.params["M"]
        x = rng.normal(size=6)
        fp = model.forward_graph(x[None])
        for j in range(3):
            sal = attribute(model, fp, j, "saliency").values
            assert np.abs(sal - m_snapped[j]).max() < 1e-9
            ixg = attribute(model, fp, j, "input-x-gradient").values
            assert np.abs(ixg - x * m_snapped[j]).max() < 1e-9
            dec = attribute(model, fp, j, "deconvolution").values
            gui = attribute(model, fp, j, "guided-backprop").values
            assert np.abs(dec - sal).max() < 1e-9
            assert np.abs(gui - sal).max() < 1e-9

    # single rectifier kept in its positive linear region, zero baseline
    for _ in range(10):
        weights = rng.uniform(0.2, 1.0, size=(1, 5))
        model = SingleRelu(weights)
        x = rng.uniform(0.5, 1.5, size=5)
        fp = model.forward_graph(x[None])
        dl = attribute(model, fp, 0, "deeplift").values
        ixg = attribute(model, fp, 0, "input-x-gradient").values
        assert np.abs(dl - ixg).max() < 1e-9


def test_c06_gap_distribution_property(trained_model, main_dataset):
    """Trained net, saliency/sum over 250 test samples with injected label
    noise: CO score separates correct from wrong predictions."""
    start = time.time()
    # label noise: flip 15 groundtruth labels so the wrong group is populated
    rng = np.random.default_rng(99)
    y = main_dataset.test.y.copy()
    flip = rng.choice(len(y), size=15, replace=False)
    y[flip] = 1 - y[flip]
    noisy = Split(main_dataset.test.pixels, y, main_dataset.test.ids)
    assert len(noisy) >= 200

    records, errors = ax_sweep(trained_model, noisy, ["saliency"], ["sum"])
    assert not errors
    wrong = [r for r in records if not r.correct]
    assert len(wrong) >= 10
    stats = gap_stats(records, "saliency", "sum")
    assert stats.auroc > 0.7, f"auroc {stats.auroc:.3f}"
    assert stats.correct.median > stats.wrong.median
    elapsed = time.time() - start
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10 min"


def test_c07_gax_convergence_property(trained_model, main_dataset, tmp_path):
    """Target CO of 5 on the trained net: at least 90% of 100 correctly
    classified samples converge within 500 iterations; every emitted
    heatmap stays in [-1, 1]; converged traces end at or above the target."""
    start = time.time()
    cfg = GaxConfig(target_co=5.0, max_iterations=500)
    traces, errors = gax_sweep(trained_model, main_dataset.test, cfg,
                               limit=100, out_dir=tmp_path)
    assert not errors
    assert len(traces) == 100
    converged = [t for t in traces if t.converged]
    assert len(converged) >= 90, f"only {len(converged)}/100 converged"
    for trace in converged:
        assert trace.final_co >= 5.0
    emitted = sorted(tmp_path.rglob("*.gaxh"))
    assert len(emitted) >= 100
    for path in emitted:
        values = read_gaxh(path)
        assert np.abs(values).max() <= 1.0, f"{path} leaves [-1, 1]"
    elapsed = time.time() - start
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10 min"


def test_c08_training_protocol_parity(trained_model, main_dataset):
    """Both a high-target and a deliberately undertrained model complete
    their pipelines and report accuracy/precision/recall; the undertrained
    model's gap statistics compute without error."""
    high_metrics = evaluate(trained_model, main_dataset.test)
    assert np.isfinite([high_metrics.accuracy, high_metrics.precision,
                        high_metrics.recall]).all()

    hard_spec = DatasetSpec(class_count=2, train=300, val=120, test=120,
                            image_shape=(3, 32, 32), seed=21)
    hard = make_blobs(hard_spec, blob_amplitude=0.2, noise_scale=0.8)
    sub = MiniConvNet(input_shape=(3, 32, 32), num_classes=2, seed=2)
    result = train(sub, hard,
                   TrainConfig(target_val_accuracy=0.8, max_iterations=2000,
                               min_iterations=10, val_every=10, seed=5))
    assert result.val_accuracy >= 0.8
    m = result.metrics
    assert np.isfinite([m.accuracy, m.precision, m.recall]).all()

    records, _ = ax_sweep(sub, hard.test, ["saliency"], ["sum"])
    stats = gap_stats(records, "saliency", "sum")
    assert stats.correct is not None
    assert stats.wrong is not None        # the weak model errs on its own
    assert stats.auroc is not None


def test_c09_subcommand_determinism(tmp_path):
    """Identical config + seed => byte-identical outputs, across the whole
    generate / train / sweep / stats / gax / toy pipeline."""
    outputs = []
    for run in ("r1", "r2"):
        root = tmp_path / run
        data, model = root / "data", root / "model.gaxm"
        scores, hist = root / "scores.csv", root / "hist.csv"
        stats, sweep = root / "stats.txt", root / "sweep.csv"
        gax_dir = root / "gax"
        assert cli_main(["gen-data", "--out", str(data), "--classes", "2",
                         "--train", "48", "--val", "16", "--test", "16",
                         "--shape", "3,8,8", "--seed", "5"]) == 0
        assert cli_main(["train", "--data", str(data), "--out", str(model),
                         "--target-val-acc", "0.9", "--max-iterations", "300",
                         "--val-every", "25", "--seed", "2"]) == 0
        assert cli_main(["ax-sweep", "--model", str(model), "--data",
                         str(data), "--methods", "saliency,deeplift",
                         "--variants", "sum,mul", "--out", str(scores)]) == 0
        assert cli_main(["gap-stats", "--scores", str(scores), "--method",
                         "saliency", "--variant", "sum", "--hist", str(hist),
                         "--out", str(stats)]) == 0
        assert cli_main(["gax", "--model", str(model), "--data", str(data),
                         "--target-co", "3", "--lr", "0.1", "--first-n", "3",
                         "--max-iterations", "40", "--out", str(gax_dir)]) == 0
        assert cli_main(["toy-sweep", "--a1", "0.95", "--a2", "0.05",
                         "--keta", "1.2", "--out", str(sweep)]) == 0
        collected = {}
        for p in sorted(root.rglob("*")):
            if p.is_file():
                collected[str(p.relative_to(root))] = p.read_bytes()
        outputs.append(collected)
    assert outputs[0].keys() == outputs[1].keys()
    for rel in outputs[0]:
        assert outputs[0][rel] == outputs[1][rel], f"{rel} differs"


def test_c10_format_round_trips(tmp_path):
    """GAXM, GAXH, PGM and PPM: write -> read -> equality on randomized
    payloads, 100 trials each."""
    rng = np.random.default_rng(10010)
    for i in range(100):
        shape = tuple(int(d) for d in rng.integers(1, 6, size=3))
        values = rng.normal(size=shape).astype(np.float32)
        p = tmp_path / "t.gaxh"
        write_gaxh(p, values)
        np.testing.assert_array_equal(read_gaxh(p), values.astype(np.float64))

    for i in range(100):
        named = {}
        for j in range(int(rng.integers(1, 5))):
            rank = int(rng.integers(1, 4))
            shape = tuple(int(d) for d in rng.integers(1, 5, size=rank))
            named[f"layer{j}.w"] = rng.normal(size=shape).astype(np.float32)
        p = tmp_path / "t.gaxm"
        write_gaxm(p, named)
        got = read_gaxm(p)
        assert list(got) == list(named)
        for k in named:
            np.testing.assert_array_equal(got[k],
                                          named[k].astype(np.float64))

    for i in range(100):
        h, w = (int(d) for d in rng.integers(1, 24, size=2))
        gray = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        p = tmp_path / "t.pgm"
        write_pgm(p, gray)
        np.testing.assert_array_equal(read_pnm(p), gray)

    for i in range(100):
        h, w = (int(d) for d in rng.integers(1, 24, size=2))
        rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        p = tmp_path / "t.ppm"
        write_ppm(p, rgb)
        np.testing.assert_array_equal(read_pnm(p), rgb)

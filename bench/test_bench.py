"""Tests of the benchmark itself: tracer arithmetic and patching, the
output checks, and a smoke run of every workload at tiny sizes."""

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def span(name, parent, start, end, value=None, phase="timed"):
    return [name, parent, start, end, value, phase]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),       # overlaps b: together they cover 1..6
        span("b", 0, 3.0, 6.0),
        span("c", 0, 8.0, 12.0),      # clipped to the parent: covers 8..10
        span("a1", 1, 2.0, 3.0),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_layer_metrics_fall_back_to_the_phase_that_calls_a_module():
    spans = [
        span("autodiff.backward", -1, 0.0, 0.004),
        span("autodiff.conv2d.vjp", 0, 0.001, 0.003),
        span("optim.adam_step", -1, 0.0, 0.002, phase="check"),
    ]
    m = tracer.layer_metrics(spans)
    assert abs(m["autodiff.backward.self_ms"] - 2.0) < 1e-9
    assert m["autodiff.nodes_per_backward"] == 1
    assert abs(m["optim.adam_step_ms"] - 2.0) < 1e-9
    assert m["gax.step_ms"] is None


def test_tracer_wraps_every_binding_and_restores_them():
    import gaxkit.ax
    import gaxkit.attribution
    import gaxkit.models
    from gaxkit.autodiff import Tensor

    before = (gaxkit.ax.predict, gaxkit.attribution.predict,
              gaxkit.models.predict, vars(Tensor)["backward"])
    t = tracer.Tracer()
    t.install()
    try:
        assert gaxkit.ax.predict is not before[0]
        assert gaxkit.attribution.predict is not before[1]
        assert vars(Tensor)["backward"] is not before[3]
    finally:
        t.uninstall()
    after = (gaxkit.ax.predict, gaxkit.attribution.predict,
             gaxkit.models.predict, vars(Tensor)["backward"])
    assert all(a is b for a, b in zip(before, after))


REFERENCE = [["s0", "saliency", "sum", 12.5, 1, 1],
             ["s0", "saliency", "mul", -0.25, 1, 1]]


def test_co_check_counts_a_perturbed_score_as_failed():
    same = [list(r) for r in REFERENCE]
    assert checks.compare_co(REFERENCE, same) == 0
    within = [list(r) for r in REFERENCE]
    within[0][3] *= 1 + 1e-14
    assert checks.compare_co(REFERENCE, within) == 0
    perturbed = [list(r) for r in REFERENCE]
    perturbed[0][3] *= 1 + 1e-9
    assert checks.compare_co(REFERENCE, perturbed) == 1
    assert checks.compare_co(REFERENCE, same[:1]) == 1


GAX_REFERENCE = [["s0", True, 1, 5.5, [5.5]],
                 ["s1", False, 3, 4.0, [2.0, 3.0, 4.0]]]


def test_gax_check_counts_a_perturbed_trace_as_failed():
    same = [[*r[:4], list(r[4])] for r in GAX_REFERENCE]
    assert checks.compare_gax(GAX_REFERENCE, same) == 0
    perturbed = [[*r[:4], list(r[4])] for r in GAX_REFERENCE]
    perturbed[1][4][1] *= 1 + 1e-9           # one step's CO score
    assert checks.compare_gax(GAX_REFERENCE, perturbed) == 1
    perturbed = [[*r[:4], list(r[4])] for r in GAX_REFERENCE]
    perturbed[1][3] += 1e-9                  # final CO score
    assert checks.compare_gax(GAX_REFERENCE, perturbed) == 1
    shorter = [[*r[:4], list(r[4])] for r in GAX_REFERENCE]
    shorter[1][2], shorter[1][4] = 2, shorter[1][4][:2]
    assert checks.compare_gax(GAX_REFERENCE, shorter) == 1
    assert checks.compare_gax(GAX_REFERENCE, same[1:]) == 1


def test_weight_check_counts_perturbed_weights_as_failed(tmp_path):
    reference = BENCH / "reference" / "model.gaxm"
    count = len(checks.read_gaxm(reference))
    copy = tmp_path / "same.gaxm"
    copy.write_bytes(reference.read_bytes())
    assert checks.compare_weights(reference, copy) == (count, 0)
    # the last four bytes are the last weight of the last tensor
    data = bytearray(reference.read_bytes())
    (last,) = struct.unpack("<f", data[-4:])
    data[-4:] = struct.pack("<f", last + 1e-3)
    perturbed = tmp_path / "perturbed.gaxm"
    perturbed.write_bytes(bytes(data))
    assert checks.compare_weights(reference, perturbed) == (count, 1)
    assert checks.compare_weights(reference, tmp_path / "none.gaxm") == (
        count, count)


def test_scores_csv_check_counts_bad_and_missing_records(tmp_path):
    labels = {"s0": 1}
    lines = [checks.SCORES_HEADER]
    for m in checks.METHODS:
        for v in checks.VARIANTS:
            lines.append(f"s0,{m},{v},1.5,1,1,true")
    path = tmp_path / "scores.csv"
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_scores_csv(path, labels, 2) == (12, 0)
    lines[1] = lines[1].replace("1.5", "nan")
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_scores_csv(path, labels, 2) == (12, 2)


def results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


def test_smoke_run_of_every_workload():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "all",
             "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
             "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        found = results(proc.stdout)
        assert len(found) == len(SPEC["workloads"])
        names = {m["name"] for m in SPEC[section]}
        for result in found:
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == names
            if section == "per_layer":
                # a 5-step GAX cap on a barely trained model may converge
                # nothing; every other per-layer value is measured, never 0
                assert all(m["value"] != 0 for name, m in
                           result["metrics"].items()
                           if name != "gax.converged_fraction")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gax", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not results(proc.stdout)

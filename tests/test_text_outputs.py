"""Exact bytes of every text file and text stream gaxkit writes.

README's "File formats": UTF-8, one LF after every line, floats to 9
significant digits, booleans as ``true``/``false``.  The inputs are the
edge cases of that format: -0.0, 1e-10, 1e20, 3.0, nan, both booleans and
integer counts.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import gaxkit
from gaxkit import (DatasetSpec, GaxTrace, Heatmap, MiniConvNet, ScoreRecord,
                    gen_data, write_histogram_csv, write_manifest,
                    write_scores_csv, write_sweep_csv, write_trace_csv)
from gaxkit.cli import main
from gaxkit.formats import export_heatmap

NAN = float("nan")

RECORDS = [
    ScoreRecord("s0", "saliency", "sum", -0.0, 1, 1),
    ScoreRecord("s1", "deeplift", "mul", 1e-10, 0, 1),
    ScoreRecord("s2", "layer-gradcam:conv2", "sum", 1e20, 1, 1),
    ScoreRecord("s3", "saliency", "mul", 3.0, 0, 0),
    ScoreRecord("s4", "saliency", "sum", NAN, 1, 0),
]


def test_scores_csv(tmp_path):
    path = tmp_path / "scores.csv"
    write_scores_csv(RECORDS, path)
    assert path.read_bytes() == (
        b"sample_id,method,variant,co_score,pred,truth,correct\n"
        b"s0,saliency,sum,-0,1,1,true\n"
        b"s1,deeplift,mul,1e-10,0,1,false\n"
        b"s2,layer-gradcam:conv2,sum,1e+20,1,1,true\n"
        b"s3,saliency,mul,3,0,0,true\n"
        b"s4,saliency,sum,nan,1,0,false\n")


@pytest.mark.parametrize("scores,bins,expected", [
    ([-0.0, 1e-10, 3.0, 3.0], 3,
     b"bin_lo,bin_hi,count_correct,count_wrong\n"
     b"0,1,1,1\n"
     b"1,2,0,0\n"
     b"2,3,1,1\n"),
    ([1e20, 1e20], 2,
     b"bin_lo,bin_hi,count_correct,count_wrong\n"
     b"1e+20,1e+20,0,0\n"
     b"1e+20,1e+20,1,1\n"),
], ids=["spread", "one-value"])
def test_histogram_csv(tmp_path, scores, bins, expected):
    records = [ScoreRecord(f"s{i}", "saliency", "sum", s, i % 2, 0)
               for i, s in enumerate(scores)]
    path = tmp_path / "hist.csv"
    write_histogram_csv(records, path, bins=bins)
    assert path.read_bytes() == expected


def test_trace_csv(tmp_path):
    trace = GaxTrace("s0", [(0, -0.0, 1e-10), (1, 1e20, 3.0), (2, NAN, NAN)])
    path = tmp_path / "s0.trace.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == (b"step,loss,co_score\n"
                                 b"0,-0,1e-10\n"
                                 b"1,1e+20,3\n"
                                 b"2,nan,nan\n")


def test_gax_manifest(tmp_path):
    traces = [
        GaxTrace("a", [(0, 1.0, -0.0)], [(0, "a/step_000000.gaxh")],
                 converged=True, final_co=-0.0),
        GaxTrace("b", [(0, 1.0, 3.0), (1, 1.0, 1e20)],
                 [(0, "b/step_000000.gaxh"), (1, "b/step_000001.gaxh")],
                 final_co=1e20),
        GaxTrace("c", [], error="non-finite loss at step 0"),
    ]
    path = tmp_path / "manifest.csv"
    write_manifest(traces, path)
    assert path.read_bytes() == (
        b"sample_id,converged,final_co,steps,trace_path,snapshots\n"
        b"a,true,-0,1,a.trace.csv,a/step_000000.gaxh\n"
        b"b,false,1e+20,2,b.trace.csv,b/step_000000.gaxh;b/step_000001.gaxh\n"
        b"c,false,nan,0,c.trace.csv,\n")


def test_toy_sweep_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(np.array([[-0.0, 1e-10, 1e20, 3.0, NAN],
                              [3.0, -0.0, 1e-10, 1e20, 1.0]]), path)
    assert path.read_bytes() == (b"theta,x1,x2,h1,h2\n"
                                 b"-0,1e-10,1e+20,3,nan\n"
                                 b"3,-0,1e-10,1e+20,1\n")


@pytest.mark.parametrize("values,normalized,expected", [
    ([[-0.0, 1e-10], [1e20, 3.0]], True,
     b"method=deeplift\ntarget_class=1\nnormalized=true\nabs_max=1e+20\n"
     b"shape=2x2\n"),
    (np.zeros((3, 2, 2)), False,
     b"method=deeplift\ntarget_class=1\nnormalized=false\nabs_max=0\n"
     b"shape=3x2x2\n"),
], ids=["2d", "3d-zero"])
def test_heatmap_sidecar(tmp_path, values, normalized, expected):
    heat = Heatmap(np.asarray(values), "deeplift", 1, normalized=normalized)
    paths = export_heatmap(heat, tmp_path / "h")
    assert paths["sidecar"].read_bytes() == expected


GAP_STATS_BOTH = (
    "correct_count=3\n"
    "correct_min=1e-10\n"
    "correct_q1=1.5\n"
    "correct_median=3\n"
    "correct_q3=5e+19\n"
    "correct_max=1e+20\n"
    "wrong_count=1\n"
    "wrong_min=-0\n"
    "wrong_q1=-0\n"
    "wrong_median=-0\n"
    "wrong_q3=-0\n"
    "wrong_max=-0\n"
    "separation=1e-10\n"
    "auroc=1\n")
GAP_STATS_CORRECT_ONLY = (
    "correct_count=2\n"
    "correct_min=3\n"
    "correct_q1=3\n"
    "correct_median=3\n"
    "correct_q3=3\n"
    "correct_max=3\n"
    "wrong_count=0\n")


@pytest.mark.parametrize("method,expected", [
    (None, GAP_STATS_BOTH), ("saliency", GAP_STATS_CORRECT_ONLY)],
    ids=["both-groups", "correct-only"])
def test_gap_stats_stdout_and_out(tmp_path, capsys, method, expected):
    records = [
        ScoreRecord("s0", "saliency", "sum", 3.0, 1, 1),
        ScoreRecord("s1", "saliency", "mul", 3.0, 0, 0),
        ScoreRecord("s2", "deeplift", "sum", 1e-10, 1, 1),
        ScoreRecord("s3", "deeplift", "sum", -0.0, 0, 1),
    ]
    if method is None:
        records[1] = ScoreRecord("s1", "deeplift", "mul", 1e20, 0, 0)
    scores, out = tmp_path / "scores.csv", tmp_path / "stats.txt"
    write_scores_csv(records, scores)
    argv = ["gap-stats", "--scores", str(scores), "--out", str(out)]
    assert main(argv + (["--method", method] if method else [])) == 0
    assert capsys.readouterr() == (expected, "")
    assert out.read_bytes() == expected.encode("utf-8")


def test_dataset_manifest(tmp_path):
    gen_data(DatasetSpec(class_count=2, train=2, val=1, test=1,
                         image_shape=(1, 4, 4), seed=0), tmp_path)
    assert (tmp_path / "manifest.txt").read_bytes() == (
        b"class_count=2\n"
        b"image_shape=1x4x4\n"
        b"seed=0\n"
        b"sample,train,0,train/class_0/train_00000.pgm\n"
        b"sample,train,1,train/class_1/train_00001.pgm\n"
        b"sample,val,0,val/class_0/val_00000.pgm\n"
        b"sample,test,0,test/class_0/test_00000.pgm\n")


@pytest.fixture
def tiny_files(tmp_path):
    """One 1x4x4 test image of class 0 and a model that predicts class 0."""
    data, model_path = tmp_path / "data", tmp_path / "m.gaxm"
    gen_data(DatasetSpec(class_count=2, train=0, val=0, test=1,
                         image_shape=(1, 4, 4), seed=0), data)
    model = MiniConvNet(input_shape=(1, 4, 4), seed=0)
    model.params["fc.w"][:] = 0.0
    model.params["fc.b"] = np.array([1.0, 0.0])
    model.save(model_path)
    return data, model_path


def test_ax_sweep_errors_log(tiny_files, tmp_path, capsys):
    # ax-sweep writes no errors log: a method that fails a sample is the
    # command's one error line, and neither the CSV nor a log is written
    data, model = tiny_files
    out = tmp_path / "s.csv"
    assert main(["ax-sweep", "--model", str(model), "--data", str(data),
                 "--methods", "layer-gradcam:fc", "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: layer 'fc' is not spatial (shape (1, 2))\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "m.gaxm"]


def test_gax_run_directory(tiny_files, tmp_path, capsys):
    # a similarity factor this large overflows the loss at step 0
    data, model = tiny_files
    out = tmp_path / "g"
    assert main(["gax", "--model", str(model), "--data", str(data),
                 "--similarity-factor", "1e308", "--out", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        "errors.log": b"test_00000: non-finite loss at step 0\n",
        "manifest.csv": (
            b"sample_id,converged,final_co,steps,trace_path,snapshots\n"
            b"test_00000,false,nan,0,test_00000.trace.csv,\n"),
        "test_00000.trace.csv": b"step,loss,co_score\n",
    }
    assert capsys.readouterr() == (
        f"0/1 runs reached co >= 48.0; outputs under {out}\n", "")


def test_only_formats_opens_files():
    """Every file gaxkit writes goes through ``formats``, so no other module
    calls ``open``, ``write_text`` or ``write_bytes``."""
    found = []
    for path in sorted(Path(gaxkit.__file__).parent.glob("*.py")):
        if path.name == "formats.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                if name in ("open", "write_text", "write_bytes"):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found

"""CLI surface: flags, determinism, error contract."""

from pathlib import Path

import numpy as np
import pytest

from gaxkit.cli import main
from gaxkit.formats import read_gaxh
from gaxkit.models import MiniConvNet


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A generated dataset plus a briefly trained model, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    model = root / "model.gaxm"
    assert main(["gen-data", "--out", str(data), "--classes", "2",
                 "--train", "48", "--val", "16", "--test", "16",
                 "--shape", "3,8,8", "--seed", "5"]) == 0
    assert main(["train", "--data", str(data), "--out", str(model),
                 "--target-val-acc", "0.9", "--max-iterations", "300",
                 "--val-every", "25", "--seed", "2"]) == 0
    return data, model


def test_no_arguments_prints_usage_nonzero(capsys):
    code = main([])
    assert code != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_rejected(capsys):
    assert main(["toy-sweep", "--bogus", "1"]) != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_required_path(capsys):
    assert main(["train", "--data", "/nonexistent/x"]) != 0


def test_runtime_error_is_one_line(tmp_path, capsys):
    code = main(["ax-sweep", "--model", str(tmp_path / "none.gaxm"),
                 "--data", str(tmp_path), "--out", str(tmp_path / "s.csv")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ")
    assert "\n" not in err


def test_toy_sweep_flags(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["toy-sweep", "--a1", "0.95", "--a2", "0.05",
                 "--keta", "1.2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,x1,x2,h1,h2"
    assert len(lines) == 98


def test_toy_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["toy-sweep", "--a1", "0.7", "--a2", "0.2", "--keta", "1.2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flag, value, message", [
    ("--keta", "nan", "k_eta must be finite, got nan"),
    ("--a2", "inf", "a2 must be finite, got inf"),
])
def test_toy_sweep_non_finite_is_one_line(tmp_path, capsys, flag, value,
                                          message):
    out = tmp_path / "sweep.csv"
    assert main(["toy-sweep", flag, value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_gen_data_deterministic(tmp_path):
    args = ["gen-data", "--classes", "2", "--train", "6", "--val", "2",
            "--test", "2", "--shape", "1,6,6", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "d1")]) == 0
    assert main(args + ["--out", str(tmp_path / "d2")]) == 0
    files1 = sorted(p.relative_to(tmp_path / "d1")
                    for p in (tmp_path / "d1").rglob("*") if p.is_file())
    for rel in files1:
        assert (tmp_path / "d1" / rel).read_bytes() == \
            (tmp_path / "d2" / rel).read_bytes()


def test_ax_sweep_deterministic_csv(tiny_run, tmp_path):
    data, model = tiny_run
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        code = main(["ax-sweep", "--model", str(model), "--data", str(data),
                     "--methods", "saliency,input-x-gradient",
                     "--variants", "sum", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header == "sample_id,method,variant,co_score,pred,truth,correct"


def test_gap_stats_from_csv(tiny_run, tmp_path, capsys):
    data, model = tiny_run
    scores = tmp_path / "scores.csv"
    main(["ax-sweep", "--model", str(model), "--data", str(data),
          "--methods", "saliency", "--variants", "sum",
          "--out", str(scores)])
    capsys.readouterr()  # drop the sweep's own output
    hist = tmp_path / "hist.csv"
    stats_out = tmp_path / "stats.txt"
    code = main(["gap-stats", "--scores", str(scores), "--method", "saliency",
                 "--variant", "sum", "--hist", str(hist), "--bins", "10",
                 "--out", str(stats_out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "correct_count=" in text
    assert stats_out.read_text() == text
    assert hist.read_text().splitlines()[0] == \
        "bin_lo,bin_hi,count_correct,count_wrong"


def test_attribute_exports_heatmap(tiny_run, tmp_path):
    data, model = tiny_run
    stem = tmp_path / "heat"
    code = main(["attribute", "--model", str(model), "--data", str(data),
                 "--split", "test", "--index", "1", "--method", "deeplift",
                 "--out", str(stem)])
    assert code == 0
    values = read_gaxh(str(stem) + ".gaxh")
    assert values.shape == (3, 8, 8)
    assert np.abs(values).max() <= 1.0 + 1e-12


def test_attribute_reads_only_its_split(tmp_path, monkeypatch):
    import gaxkit.data as data_mod

    data, model = tmp_path / "data", tmp_path / "m.gaxm"
    assert main(["gen-data", "--out", str(data), "--train", "200",
                 "--val", "50", "--test", "20", "--shape", "3,8,8"]) == 0
    MiniConvNet(input_shape=(3, 8, 8)).save(model)
    real_read_pnm, read = data_mod.read_pnm, []

    def counting_read_pnm(path):
        read.append(Path(path))
        return real_read_pnm(path)

    monkeypatch.setattr(data_mod, "read_pnm", counting_read_pnm)
    assert main(["attribute", "--model", str(model), "--data", str(data),
                 "--index", "0", "--out", str(tmp_path / "heat")]) == 0
    assert len(read) == 20
    assert all(p.relative_to(data).parts[0] == "test" for p in read)


@pytest.mark.parametrize("index", ["16", "99", "-1"])
def test_attribute_index_out_of_range_is_one_line(tiny_run, tmp_path, capsys,
                                                  index):
    data, model = tiny_run
    code = main(["attribute", "--model", str(model), "--data", str(data),
                 "--split", "test", "--index", index, "--method", "saliency",
                 "--out", str(tmp_path / "heat")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err == (f"error: --index {index} out of range for a split "
                   "of 16 samples")
    assert not list(tmp_path.iterdir())


def test_train_val_every_zero_is_one_line(tiny_run, tmp_path, capsys):
    data, _ = tiny_run
    out = tmp_path / "m.gaxm"
    code = main(["train", "--data", str(data), "--out", str(out),
                 "--val-every", "0", "--max-iterations", "5"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: val_every must be >= 1")
    assert "\n" not in err
    assert not out.exists()


def test_gax_subcommand_paper_style_flags(tiny_run, tmp_path):
    data, model = tiny_run
    out = tmp_path / "gaxout"
    code = main(["gax", "--model", str(model), "--data", str(data),
                 "--target-co", "48", "--lr", "0.1", "--first-n", "2",
                 "--max-iterations", "40", "--out", str(out)])
    assert code == 0
    manifest = (out / "manifest.csv").read_text().splitlines()
    assert manifest[0] == \
        "sample_id,converged,final_co,steps,trace_path,snapshots"
    assert len(manifest) == 3
    # snapshot refs are relative to the output directory
    first_snap = manifest[1].split(",")[5].split(";")[0]
    assert (out / first_snap).exists()
    traces = list(out.glob("*.trace.csv"))
    assert len(traces) == 2


def test_gax_logs_nonfinite_runs(tiny_run, tmp_path, capsys):
    # a similarity factor this large overflows the loss at step 0
    data, model = tiny_run
    out = tmp_path / "g"
    assert main(["gax", "--model", str(model), "--data", str(data),
                 "--similarity-factor", "1e308",
                 "--max-iterations", "3", "--out", str(out)]) == 0
    runs = (out / "manifest.csv").read_text().splitlines()[1:]
    log = (out / "errors.log").read_text().splitlines()
    assert runs and len(log) == len(runs)
    assert all(line.endswith(": non-finite loss at step 0") for line in log)
    assert capsys.readouterr().out == (
        f"0/{len(runs)} runs reached co >= 48.0; outputs under {out}\n")


def test_gax_walks_the_split_in_manifest_order(tiny_run, tmp_path):
    # with the test lines reversed, --first-n 1 optimizes the last sample
    # the generator wrote that the model classifies correctly
    import shutil
    from gaxkit.data import load_dataset
    from gaxkit.models import predict

    data, model_path = tiny_run
    reversed_data = tmp_path / "reversed"
    shutil.copytree(data, reversed_data)
    manifest = reversed_data / "manifest.txt"
    lines = manifest.read_text().splitlines()
    test = [line for line in lines if line.startswith("sample,test,")]
    manifest.write_text("\n".join(
        [line for line in lines if line not in test] + test[::-1]) + "\n")
    split = load_dataset(reversed_data, splits=("test",)).test
    model = MiniConvNet.load(model_path)
    correct = [sid for sid, x, y in zip(split.ids, split.x, split.y)
               if predict(model, x)[0] == y]
    assert len(correct) > 1 and correct[0] == max(correct)
    out = tmp_path / "g"
    assert main(["gax", "--model", str(model_path), "--data",
                 str(reversed_data), "--first-n", "1", "--max-iterations",
                 "1", "--out", str(out)]) == 0
    runs = (out / "manifest.csv").read_text().splitlines()[1:]
    assert [run.split(",")[0] for run in runs] == [correct[0]]


def test_gax_bias_defaults_on_for_dark_split(tiny_run, tmp_path, capsys,
                                             monkeypatch):
    # mostly-zero pixels trigger the automatic bias unless overridden
    import gaxkit.cli as cli_mod
    from gaxkit.data import load_dataset

    data, model = tiny_run
    dark = load_dataset(data).test
    dark.x[:] = 0.0
    dark.x[:, :, :2, :2] = 0.5
    seen = {}
    real_sweep = cli_mod.gax_mod.gax_sweep

    def spy(model_, split_, cfg, **kwargs):
        seen["use_bias"] = cfg.use_bias
        return real_sweep(model_, split_, cfg, **kwargs)

    monkeypatch.setattr(cli_mod.gax_mod, "gax_sweep", spy)
    monkeypatch.setattr(cli_mod, "_load_split",
                        lambda *a, **k: dark)
    assert main(["gax", "--model", str(model), "--data", str(data),
                 "--target-co", "1", "--first-n", "1",
                 "--max-iterations", "5", "--out", str(tmp_path / "g")]) == 0
    assert seen["use_bias"] is True
    assert main(["gax", "--model", str(model), "--data", str(data),
                 "--target-co", "1", "--first-n", "1", "--no-bias",
                 "--max-iterations", "5", "--out", str(tmp_path / "g2")]) == 0
    assert seen["use_bias"] is False


def test_ax_sweep_shape_mismatch_is_one_line(tiny_run, tmp_path, capsys):
    data, _ = tiny_run
    other = MiniConvNet(input_shape=(3, 16, 16), num_classes=2, seed=10)
    model = tmp_path / "m16.gaxm"
    other.save(model)
    out = tmp_path / "s.csv"
    assert main(["ax-sweep", "--model", str(model), "--data", str(data),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: predict: sample shape (3, 8, 8) != "
                            "model input (3, 16, 16)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m16.gaxm"]


def test_ax_sweep_ingests_raw_class_directories(tiny_run, tmp_path):
    from gaxkit.formats import write_pgm
    rng = np.random.default_rng(3)
    raw = tmp_path / "raw"
    for c in ("healthy", "sick"):
        (raw / c).mkdir(parents=True)
        for i in range(2):
            write_pgm(raw / c / f"{i}.pgm",
                      rng.integers(0, 256, size=(10, 12), dtype=np.uint8))
    _, model = tiny_run
    out = tmp_path / "scores.csv"
    code = main(["ax-sweep", "--model", str(model), "--data", str(raw),
                 "--methods", "saliency", "--variants", "sum",
                 "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 5


@pytest.mark.parametrize("command", ["attribute", "ax-sweep", "gax"])
@pytest.mark.parametrize("flag", [["--resize", "8,8"], ["--stack"]],
                         ids=["resize", "stack"])
def test_ingest_flags_are_gone(tiny_run, tmp_path, capsys, command, flag):
    # the model's input shape fixes how a raw class directory is read
    data, model = tiny_run
    assert main([command, "--model", str(model), "--data", str(data), *flag,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["attribute", "ax-sweep", "gax"])
def test_split_of_a_raw_directory_is_one_line(tiny_run, tmp_path, capsys,
                                              command):
    data, model = tiny_run
    raw = data / "test"
    assert main([command, "--model", str(model), "--data", str(raw),
                 "--split", "test", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: --split test: {raw} has no manifest.txt; a raw class "
        "directory is a single split\n")
    assert not list(tmp_path.iterdir())


def test_gax_on_a_raw_directory_writes_nested_traces(tiny_run, tmp_path):
    # raw sample ids are <class dir>/<stem>; a run that stops before its
    # first snapshot leaves no <class dir> for its trace to land in
    data, model = tiny_run
    out = tmp_path / "g"
    assert main(["gax", "--model", str(model), "--data", str(data / "test"),
                 "--similarity-factor", "1e308", "--first-n", "2",
                 "--out", str(out)]) == 0
    runs = [line.split(",")
            for line in (out / "manifest.csv").read_text().splitlines()[1:]]
    assert [run[0].split("/")[0] for run in runs] == ["class_0", "class_0"]
    assert all((out / run[4]).read_text() == "step,loss,co_score\n"
               for run in runs)
    assert len((out / "errors.log").read_text().splitlines()) == 2


def test_config_flag_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a1=0.7\n")
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(cfg), "toy-sweep", "--out", str(out)]) != 0
    assert "usage" in capsys.readouterr().err.lower()
    assert not out.exists()


@pytest.mark.parametrize("flag, value, bad", [
    ("--methods", "saliency,bogus", "unknown method 'bogus'"),
    ("--methods", "saliency:conv1", "only layer-gradcam accepts a layer"),
    ("--variants", "sum,bogus", "unknown variant 'bogus'"),
])
def test_ax_sweep_rejects_unknown_entries_up_front(tiny_run, tmp_path, capsys,
                                                   flag, value, bad):
    data, model = tiny_run
    out = tmp_path / "s.csv"
    code = main(["ax-sweep", "--model", str(model), "--data", str(data),
                 flag, value, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage" in err.lower()
    assert f"argument {flag}: {bad}" in err
    assert not out.exists()


@pytest.mark.parametrize("layer, message", [
    ("nope", "unknown layer 'nope'; model layers: ['conv1', 'conv2', 'fc', "
             "'pool1', 'pool2']"),
    ("fc", "layer 'fc' is not spatial (shape (1, 2))"),
], ids=["nope", "fc"])
def test_ax_sweep_bad_gradcam_layer_is_one_line(tiny_run, tmp_path, capsys,
                                                layer, message):
    # the first sample's error stops the sweep; attribute prints the same
    data, model = tiny_run
    out = tmp_path / "s.csv"
    code = main(["ax-sweep", "--model", str(model), "--data", str(data),
                 "--methods", f"saliency,layer-gradcam:{layer}",
                 "--variants", "sum", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not list(tmp_path.iterdir())
    assert main(["attribute", "--model", str(model), "--data", str(data),
                 "--method", f"layer-gradcam:{layer}", "--out",
                 str(tmp_path / "h")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["attribute", "ax-sweep", "gax"])
def test_unknown_split_rejected(tiny_run, tmp_path, capsys, command):
    data, model = tiny_run
    code = main([command, "--model", str(model), "--data", str(data),
                 "--split", "bogus", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "argument --split: invalid choice: 'bogus'" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("first_n", ["0", "-1"])
def test_gax_first_n_below_one_is_one_line(tiny_run, tmp_path, capsys,
                                           first_n):
    data, model = tiny_run
    code = main(["gax", "--model", str(model), "--data", str(data),
                 "--first-n", first_n, "--out", str(tmp_path / "g")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: limit must be at least 1, got {first_n}"


def test_gax_input_errors_leave_no_output_directory(tiny_run, tmp_path,
                                                    capsys):
    data, model = tiny_run
    out = tmp_path / "g"
    assert main(["gax", "--model", str(model), "--data", str(data),
                 "--first-n", "0", "--out", str(out)]) == 1
    assert not out.exists()
    gray = tmp_path / "gray"
    assert main(["gen-data", "--out", str(gray), "--train", "0", "--val",
                 "0", "--test", "2", "--shape", "1,8,8"]) == 0
    assert main(["gax", "--model", str(model), "--data", str(gray),
                 "--out", str(out)]) == 1
    assert "predict: sample shape" in capsys.readouterr().err
    assert not out.exists()


def test_gax_snapshot_every_zero_names_the_field(tiny_run, tmp_path, capsys):
    data, model = tiny_run
    assert main(["gax", "--model", str(model), "--data", str(data),
                 "--snapshot-every", "0", "--out", str(tmp_path / "g")]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "error: snapshot_every must be >= 1, got 0"
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("argv,message", [
    (["gen-data", "--shape", "8,8"], "--shape: expected C,H,W, got '8,8'"),
    (["gen-data", "--shape", "3,8,8,8"], "--shape: expected C,H,W, got"),
    (["gen-data", "--shape", "3,a,8"], "--shape: invalid C,H,W value: '3,a,8'"),
    (["gen-data", "--shape", "3,0,8"],
     "--shape: expected C,H,W entries >= 1, got '3,0,8'"),
], ids=["shape-two", "shape-four", "shape-not-int", "shape-zero"])
def test_shape_flags_need_their_value_count(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert f"argument {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_gen_data_unwritable_channel_count_writes_nothing(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "d"), "--train", "2",
                 "--val", "0", "--test", "0", "--shape", "2,8,8"]) == 1
    assert "cannot write 2-channel images" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_below_the_pools_extent_is_one_line(tmp_path, capsys):
    # checked before the weights are drawn: no numpy warning comes first
    data, out = tmp_path / "d", tmp_path / "m.gaxm"
    assert main(["gen-data", "--out", str(data), "--train", "4", "--val",
                 "2", "--test", "2", "--shape", "3,3,3"]) == 0
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: input_shape (3, 3, 3): H and W must be at least 4\n"
    assert not out.exists()


# each output file flag, with inputs that do not exist either: the output's
# directory is checked before any work
BAD_OUTPUT_ARGV = [
    ["toy-sweep", "--out", "{bad}/t.csv"],
    ["train", "--data", "{none}", "--max-iterations", "1", "--out",
     "{bad}/m.gaxm"],
    ["ax-sweep", "--model", "{none}", "--data", "{none}", "--methods",
     "saliency", "--out", "{bad}/s.csv"],
    ["gap-stats", "--scores", "{none}", "--out", "{bad}/s.txt"],
    ["gap-stats", "--scores", "{none}", "--out", "{ok}/s.txt", "--hist",
     "{bad}/h.csv"],
]
BAD_OUTPUT_IDS = ["toy-sweep", "train", "ax-sweep", "gap-stats-out",
                  "gap-stats-hist"]


def _bad_output_run(tmp_path, capsys, argv, bad, make_dir=False):
    """Run ``argv`` with ``{bad}`` in its output path; ``make_dir`` makes
    that output path a directory."""
    names = {"bad": bad, "none": tmp_path / "none", "ok": tmp_path}
    argv = [arg.format(**names) for arg in argv]
    if make_dir:
        Path(argv[-1]).mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    reason = "is a directory" if make_dir else f"{bad} is not a directory"
    assert capsys.readouterr().err == f"error: {argv[-2]} {argv[-1]}: " \
        f"{reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", BAD_OUTPUT_ARGV, ids=BAD_OUTPUT_IDS)
def test_write_into_a_missing_directory_names_the_path(tmp_path, capsys,
                                                       argv):
    _bad_output_run(tmp_path, capsys, argv, tmp_path / "missing")


@pytest.mark.parametrize("argv", BAD_OUTPUT_ARGV, ids=BAD_OUTPUT_IDS)
def test_write_under_a_file_names_the_path(tmp_path, capsys, argv):
    bad = tmp_path / "file"
    bad.write_text("")
    _bad_output_run(tmp_path, capsys, argv, bad)


@pytest.mark.parametrize("argv", BAD_OUTPUT_ARGV, ids=BAD_OUTPUT_IDS)
def test_write_to_a_directory_names_the_path(tmp_path, capsys, argv):
    # fails before any work, not after it when the write does
    _bad_output_run(tmp_path, capsys, argv, tmp_path, make_dir=True)


@pytest.mark.parametrize("size", [8, 200])
def test_truncated_model_is_one_line(tiny_run, tmp_path, capsys, size):
    data, model = tiny_run
    cut = tmp_path / "cut.gaxm"
    cut.write_bytes(model.read_bytes()[:size])
    assert main(["ax-sweep", "--model", str(cut), "--data", str(data),
                 "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {cut} is truncated: ")
    assert "\n" not in err


@pytest.mark.parametrize("entry,edit,message", [
    ("input_shape", None, "no 'input_shape' entry"),
    ("fc.w", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 0,
                                np.nan, a),
     "entry 'fc.w' holds a non-finite value"),
    ("input_shape", lambda a: a[:2],
     "entry 'input_shape' must hold 3 positive integers, got [3.0, 8.0]"),
    ("input_shape", lambda a: a + [0.0, 0.5, 0.0],
     "entry 'input_shape' must hold 3 positive integers, got [3.0, 8.5, 8.0]"),
    ("kernel", lambda a: np.repeat(a, 2),
     "entry 'kernel' must hold 3, got [3.0, 3.0]"),
    ("fc.w", lambda a: a[:, :10],
     "parameter 'fc.w' has shape (2, 10), expected (2, 64)"),
    ("kernel", lambda a: a - 1, "entry 'kernel' must hold 3, got [2.0]"),
    ("kernel", lambda a: a + 2, "entry 'kernel' must hold 3, got [5.0]"),
    ("conv1.w", lambda a: np.repeat(a, 2, axis=0),
     "parameter 'conv1.w' has shape (16, 3, 3, 3), expected (8, 3, 3, 3)"),
    ("input_shape", lambda a: a - [0.0, 5.0, 0.0],
     "input_shape (3, 3, 8): H and W must be at least 4"),
], ids=["input_shape", "fc.w", "shape-two-values", "shape-fraction",
        "kernel-two-values", "cut-fc-w", "even-kernel", "kernel-five",
        "conv1-channels", "small-input"])
def test_unusable_model_is_one_line(tiny_run, tmp_path, capsys, entry, edit,
                                    message):
    from gaxkit.formats import read_gaxm, write_gaxm

    data, model = tiny_run
    named = read_gaxm(model)
    if edit is None:
        del named[entry]
    else:
        named[entry] = edit(named[entry])
    bad = tmp_path / "bad.gaxm"
    write_gaxm(bad, named)
    out = tmp_path / "s.csv"
    assert main(["ax-sweep", "--model", str(bad), "--data", str(data),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["attribute", "ax-sweep", "gax"])
def test_one_class_model_is_one_line(tiny_run, tmp_path, capsys, command):
    # a one-class head loads as a working net, but no CO score exists for it
    from gaxkit.formats import read_gaxm, write_gaxm

    data, model = tiny_run
    named = read_gaxm(model)
    named["fc.w"], named["fc.b"] = named["fc.w"][:1], named["fc.b"][:1]
    bad = tmp_path / "one.gaxm"
    write_gaxm(bad, named)
    out = tmp_path / "out"
    assert main([command, "--model", str(bad), "--data", str(data),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: entry 'fc.b' must hold at least 2 class biases, "
        "got 1\n")
    assert sorted(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("command", ["attribute", "ax-sweep", "gax"])
def test_label_beyond_the_model_classes_is_one_line(tiny_run, tmp_path,
                                                    capsys, command):
    # a 3-class split and a 2-class model: fails before any work
    _, model = tiny_run
    data = tmp_path / "three"
    assert main(["gen-data", "--out", str(data), "--classes", "3",
                 "--train", "3", "--val", "3", "--test", "6",
                 "--shape", "3,8,8"]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--model", str(model), "--data", str(data),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --data {data}: label 2 is out of range for a model of 2 "
        "classes\n")
    assert sorted(tmp_path.iterdir()) == [data]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_nonfinite_loss_is_one_line(tiny_run, tmp_path, capsys):
    # the first update leaves the float32 grid; no numpy warning comes first
    data, _ = tiny_run
    out = tmp_path / "m.gaxm"
    assert main(["train", "--data", str(data), "--out", str(out),
                 "--lr", "1e300", "--max-iterations", "50"]) == 1
    assert capsys.readouterr().err == ("error: non-finite parameter 'conv1.w' "
                                       "after the update at iteration 1\n")
    assert not out.exists()


@pytest.mark.parametrize("lr", ["inf", "nan"])
@pytest.mark.parametrize("command", ["train", "gax"])
def test_nonfinite_learning_rate_is_one_line(tiny_run, tmp_path, capsys,
                                             command, lr):
    data, model = tiny_run
    argv = [command, "--data", str(data), "--lr", lr,
            "--out", str(tmp_path / "o")]
    if command == "gax":
        argv += ["--model", str(model)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: learning_rate must be finite\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag, value, message", [
    ("gax", "--similarity-factor", "nan",
     "similarity_factor must be finite and >= 0, got nan"),
    ("gax", "--similarity-factor", "inf",
     "similarity_factor must be finite and >= 0, got inf"),
    ("gax", "--similarity-factor", "-1",
     "similarity_factor must be finite and >= 0, got -1.0"),
    ("train", "--target-val-acc", "nan",
     "target_val_accuracy must not be NaN"),
], ids=["gax-sf-nan", "gax-sf-inf", "gax-sf-negative", "train-target-nan"])
def test_nan_or_negative_setting_is_one_line(tiny_run, tmp_path, capsys,
                                             command, flag, value, message):
    data, model = tiny_run
    argv = [command, "--data", str(data), flag, value,
            "--out", str(tmp_path / "o")]
    if command == "gax":
        argv += ["--model", str(model)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag, value, message", [
    ("ax-sweep", "--methods", ",", "expected at least one entry"),
    ("ax-sweep", "--variants", " , ", "expected at least one entry"),
    ("gap-stats", "--bins", "0", "expected an integer >= 1, got '0'"),
    ("gap-stats", "--bins", "-3", "expected an integer >= 1, got '-3'"),
], ids=["methods", "variants", "bins-zero", "bins-negative"])
def test_empty_list_or_bins_below_one_is_a_usage_error(
        tiny_run, tmp_path, capsys, command, flag, value, message):
    data, model = tiny_run
    scores = tmp_path / "scores.csv"
    assert main(["ax-sweep", "--model", str(model), "--data", str(data),
                 "--methods", "saliency", "--out", str(scores)]) == 0
    capsys.readouterr()
    inputs = {"ax-sweep": ["--model", str(model), "--data", str(data)],
              "gap-stats": ["--scores", str(scores),
                            "--hist", str(tmp_path / "h.csv")]}[command]
    assert main([command, *inputs, flag, value,
                 "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: {message}\n" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["scores.csv"]


def _tree(root):
    return {p.relative_to(root): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def default_data(tmp_path_factory):
    """A dataset written by ``gen-data`` with every default."""
    data = tmp_path_factory.mktemp("defaults") / "data"
    assert main(["gen-data", "--out", str(data)]) == 0
    return data


def test_gen_data_defaults_are_dataset_spec_defaults(default_data, tmp_path):
    from gaxkit import DatasetSpec, gen_data
    gen_data(DatasetSpec(), tmp_path / "data")
    assert _tree(tmp_path / "data") == _tree(default_data)


def test_train_defaults_are_train_config_defaults(default_data, tmp_path):
    from gaxkit import TrainConfig, load_dataset, train
    cli_out, lib_out = tmp_path / "cli.gaxm", tmp_path / "lib.gaxm"
    assert main(["train", "--data", str(default_data), "--out", str(cli_out),
                 "--max-iterations", "30"]) == 0
    ds = load_dataset(default_data)
    model = MiniConvNet(input_shape=ds.image_shape,
                        num_classes=ds.class_count)
    train(model, ds, TrainConfig(max_iterations=30))
    model.save(lib_out)
    assert cli_out.read_bytes() == lib_out.read_bytes()


def test_gax_defaults_are_gax_config_defaults(tiny_run, tmp_path):
    from gaxkit import GaxConfig, gax_sweep, load_dataset
    data, model = tiny_run
    assert main(["gax", "--model", str(model), "--data", str(data),
                 "--no-bias", "--max-iterations", "5",
                 "--out", str(tmp_path / "cli")]) == 0
    gax_sweep(MiniConvNet.load(model), load_dataset(data).test,
              GaxConfig(max_iterations=5), out_dir=tmp_path / "lib")
    assert _tree(tmp_path / "lib") == _tree(tmp_path / "cli")


def test_gax_bias_is_gax_config_use_bias(tiny_run, tmp_path):
    from gaxkit import GaxConfig, gax_sweep, load_dataset
    data, model = tiny_run
    assert main(["gax", "--model", str(model), "--data", str(data),
                 "--bias", "--max-iterations", "5",
                 "--out", str(tmp_path / "cli")]) == 0
    gax_sweep(MiniConvNet.load(model), load_dataset(data).test,
              GaxConfig(use_bias=True, max_iterations=5),
              out_dir=tmp_path / "lib")
    assert _tree(tmp_path / "lib") == _tree(tmp_path / "cli")
    # the bias changes the outputs, so the flag is not compared vacuously
    no_bias = tmp_path / "no-bias"
    gax_sweep(MiniConvNet.load(model), load_dataset(data).test,
              GaxConfig(use_bias=False, max_iterations=5), out_dir=no_bias)
    assert _tree(no_bias) != _tree(tmp_path / "cli")


def test_attribute_target_and_abs_are_attribute_arguments(tiny_run, tmp_path):
    from gaxkit import attribute, load_dataset, normalize, predict
    from gaxkit.formats import export_heatmap
    data, model = tiny_run
    net, split = MiniConvNet.load(model), load_dataset(data).test
    # a sample predicted as class 0, so --target 1 is not the default
    index = next(i for i, x in enumerate(split.x) if predict(net, x)[0] == 0)
    assert main(["attribute", "--model", str(model), "--data", str(data),
                 "--index", str(index), "--target", "1", "--abs",
                 "--method", "guided-backprop",
                 "--out", str(tmp_path / "cli" / "heat")]) == 0
    fp = net.forward_graph(split.x[index][None])
    heat = attribute(net, fp, 1, "guided-backprop", abs_values=True)
    # the signed map has negative entries, so --abs changes the bytes
    assert (attribute(net, fp, 1, "guided-backprop").values < 0).any()
    export_heatmap(normalize(heat), tmp_path / "lib" / "heat")
    assert _tree(tmp_path / "lib") == _tree(tmp_path / "cli")


def test_every_option_is_read_by_its_command():
    """A flag that its ``_cmd_*`` function never reads as ``args.<dest>``
    is dead: it parses and changes nothing."""
    import argparse
    import ast
    import inspect

    import gaxkit.cli as cli_mod

    sub = next(a for a in cli_mod.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, parser in sub.choices.items():
        func = cli_mod._COMMANDS[command]
        tree = ast.parse(inspect.getsource(func))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        unread += [f"{command} {action.option_strings[0]}"
                   for action in parser._actions
                   if action.dest != "help" and action.dest not in read]
    assert not unread

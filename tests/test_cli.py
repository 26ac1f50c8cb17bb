"""CLI surface: flags, config precedence, determinism, error contract."""

import numpy as np
import pytest

from gaxkit.cli import load_config, main
from gaxkit.formats import read_gaxh


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
                     "--variants", "sum", "--out", str(out), "--seed", "3"])
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gax_logs_nonfinite_runs(tiny_run, tmp_path, capsys):
    from gaxkit.models import MiniConvNet

    data, model_path = tiny_run
    model = MiniConvNet.load(model_path)
    model.params["fc.b"] = np.array([np.inf, 0.0])
    bad = tmp_path / "inf.gaxm"
    model.save(bad)
    out = tmp_path / "g"
    assert main(["gax", "--model", str(bad), "--data", str(data),
                 "--max-iterations", "3", "--out", str(out)]) == 0
    runs = (out / "manifest.csv").read_text().splitlines()[1:]
    log = (out / "errors.log").read_text().splitlines()
    assert runs and len(log) == len(runs)
    assert all(line.endswith(": non-finite loss at step 0") for line in log)
    assert capsys.readouterr().out == (
        f"0/{len(runs)} runs reached co >= 48.0; outputs under {out}\n")


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
                 "--resize", "8,8", "--stack", "--methods", "saliency",
                 "--variants", "sum", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 5


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a1=0.7\nketa=2.0\npoints=5\n")
    out1 = tmp_path / "c1.csv"
    # config seeds a1/keta/points; the explicit flag overrides points
    assert main(["--config", str(cfg), "toy-sweep", "--points", "3",
                 "--out", str(out1)]) == 0
    lines = out1.read_text().splitlines()
    assert len(lines) == 4
    # config-provided a1 took effect (default would be 0.95)
    first_theta_row = lines[1].split(",")
    assert first_theta_row[0] == f"{-np.pi:.9g}"


def test_load_config_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nlr=0.5\nbias=true\nname=plain\nmax-iterations=7\n")
    values = load_config(cfg)
    assert values == {"lr": 0.5, "bias": True, "name": "plain",
                      "max_iterations": 7}
    bad = tmp_path / "bad.cfg"
    bad.write_text("oops\n")
    with pytest.raises(ValueError):
        load_config(bad)

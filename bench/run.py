"""gaxkit benchmark: three workloads through ``gaxkit.cli.main``.

    python3 bench/run.py --workload ax-sweep --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the program is used from ``src/`` as is.
Each run is one fresh process.  Set-up runs the ``gaxkit`` command in
child processes, as a user would, so the peak resident set of this process
covers the timed phase.  The timed phase calls ``gaxkit.cli.main``
in-process, repeating the workload's command until ``--seconds`` is used
up (at least twice, so repeated outputs can be compared byte for byte).
Every output is checked, and a fixed reference case is compared with the
values recorded in ``bench/reference/``.

``--trace 1`` sets up once with the tracer installed, runs the command once
to warm up, then untraced, traced and untraced again, and reports the
per-layer metrics plus the tracing overhead.  ``--workload all`` runs
every workload in turn, each in its own process.  The last line of
standard output is the result as JSON.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# one BLAS thread, set before numpy loads, so BLAS threads do not compete
# with other load on a small machine; the setting is part of every result
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
from numpy.lib.stride_tricks import sliding_window_view  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"
WORKLOADS = ("ax-sweep", "gax", "train")

# The model being explained is the same on every seed: data seed 11 and
# model/training seed 7.  A model trained on the seed's own data changes
# GAX work per heatmap by up to 100x between seeds (mean steps from 1 to
# 120 on seeds 3-8), which would measure the model, not the code.
MODEL_DATA_SEED = 11
MODEL_SEED = 7
TARGET_CO = 5.0
IMAGE_SHAPE = (3, 32, 32)
# The reference case: four test images from the model's data seed, scored
# by every method, and GAX on each of them.  Two reach the CO target at
# step 0; with a 270-step cap one reaches it at step 250 and one stops at
# the cap, so the Adam steps on the input are compared too.
PROBE_TEST = 4
PROBE_GAX_CAP = 270
# train workload: 20 iterations at batch 32 on the model's data seed
PROBE_TRAIN_DATA = (64, 8, 0)
PROBE_TRAIN_ITERATIONS = 20


@dataclass(frozen=True)
class Sizes:
    model_data: tuple[int, int, int]       # train, val, test
    model_train: tuple[str, ...]           # train flags for the explained model
    ax_test: int
    gax_test: int
    gax_iterations: int
    train_data: tuple[int, int, int]
    train_iterations: int
    setup_reps: int


FULL = Sizes(model_data=(400, 120, 250),
             model_train=("--target-val-acc", "0.98", "--min-iterations", "100",
                          "--val-every", "50", "--max-iterations", "1500"),
             ax_test=50, gax_test=8, gax_iterations=500,
             train_data=(400, 120, 250), train_iterations=100, setup_reps=3)
# seconds-long variant for the benchmark's own tests
SMOKE = Sizes(model_data=(32, 8, 4),
              model_train=("--max-iterations", "3", "--val-every", "100"),
              ax_test=2, gax_test=2, gax_iterations=5,
              train_data=(32, 8, 4), train_iterations=2, setup_reps=2)

# Machine-speed calibration.  On a shared host the same command ran from
# 1.5 s to 2.9 s within minutes, with user CPU time moving alike, so the
# CPU itself was slower, not descheduled.  A fixed numpy kernel shaped like
# the workload's work is timed before and after every command; the median
# rate is scaled by reference speed over the median measured speed.  The
# reference speeds are the kernels' median steps per second on a 2-core
# Intel Xeon at 2.0 GHz, so on such a machine items_per_s is the plain rate.
CALIBRATION_SECONDS = 0.25
ITEM = {"ax-sweep": "CO scores", "gax": "GAX optimization steps",
        "train": "training iterations"}


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# workload commands

def _gen(out: Path, splits, seed: int) -> list[str]:
    train, val, test = splits
    return ["gen-data", "--out", str(out), "--train", str(train),
            "--val", str(val), "--test", str(test), "--seed", str(seed)]


def setup_commands(workload: str, seed: int, sizes: Sizes, d: Path):
    if workload == "train":
        return [_gen(d / "data", sizes.train_data, seed)]
    test = sizes.ax_test if workload == "ax-sweep" else sizes.gax_test
    return [_gen(d / "model-data", sizes.model_data, MODEL_DATA_SEED),
            ["train", "--data", str(d / "model-data"),
             "--out", str(d / "model.gaxm"), *sizes.model_train,
             "--seed", str(MODEL_SEED)],
            _gen(d / "data", (0, 0, test), seed)]


def timed_command(workload: str, sizes: Sizes, d: Path, out: Path):
    if workload == "ax-sweep":
        return ["ax-sweep", "--model", str(d / "model.gaxm"),
                "--data", str(d / "data"), "--out", str(out)]
    if workload == "gax":
        return ["gax", "--model", str(d / "model.gaxm"), "--data",
                str(d / "data"), "--target-co", str(TARGET_CO), "--no-bias",
                "--max-iterations", str(sizes.gax_iterations), "--out", str(out)]
    return ["train", "--data", str(d / "data"), "--out", str(out),
            "--max-iterations", str(sizes.train_iterations),
            "--batch-size", "32", "--seed", str(MODEL_SEED)]


def output_path(workload: str, d: Path, i: int) -> Path:
    suffix = {"ax-sweep": ".csv", "gax": "", "train": ".gaxm"}[workload]
    return d / f"out-{i}{suffix}"


# ---------------------------------------------------------------------------
# running the program

def run_cli(argv, tracer=None) -> tuple[int, str]:
    """``gaxkit.cli.main`` in-process; returns (exit code, stdout + stderr)."""
    from gaxkit.cli import main as cli_main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        if tracer is None:
            code = cli_main(argv)
        else:
            code = tracer.call("cli.main", cli_main, argv)
    return code, buf.getvalue()


def setup_in_children(commands) -> float:
    """Run set-up commands as ``gaxkit`` processes; returns wall seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    start = time.perf_counter()
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "gaxkit.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            raise SetupError(f"{argv[0]} failed: {proc.stderr.strip()}")
    return time.perf_counter() - start


def setup_in_process(commands, tracer) -> None:
    for argv in commands:
        code, text = run_cli(argv, tracer)
        if code != 0:
            raise SetupError(f"{argv[0]} failed: {text.strip()}")


def check_output(workload: str, d: Path, out: Path, code: int,
                 text: str, sizes: Sizes) -> tuple[int, int, int]:
    """(items attempted, items failed, work done) for one timed invocation.

    Work is what throughput counts: CO scores, training iterations, or for
    GAX optimization steps, whose cost does not depend on the seed, where
    the heatmaps' step counts do.
    """
    if workload == "ax-sweep":
        labels, classes = checks.read_labels(d / "data")
        attempted, failed = checks.check_scores_csv(out, labels, classes)
        work = attempted
    elif workload == "gax":
        attempted, failed = checks.check_gax_dir(out, TARGET_CO, IMAGE_SHAPE)
        work = checks.gax_steps(out)
    else:
        match = re.search(r"trained (\d+) iterations", text)
        attempted = work = sizes.train_iterations
        ok = (match is not None and int(match.group(1)) == attempted
              and checks.check_weights(out))
        failed = 0 if ok else attempted
    return attempted, attempted if code != 0 else failed, work


def n1_kernel():
    """One conv-like step at N=1: window gather, einsum, rectifier."""
    rng = np.random.default_rng(0)
    x = rng.random((1, 8, 34, 34))
    k = rng.random((16, 8, 3, 3))
    cols = np.empty((1, 8, 3, 3, 32, 32))

    def step():
        for i in range(3):
            for j in range(3):
                cols[:, :, i, j] = x[:, :, i: i + 32, j: j + 32]
        np.maximum(np.einsum("ncijhw,ocij->nohw", cols, k, optimize=True), 0.0)

    return step


def train_kernel(batch: int = 32):
    """A training step's convolutions at N=32: both conv-relu layers of the
    model's shape, a 2x2 max-pool, and the second layer's gradients."""
    rng = np.random.default_rng(0)
    x = rng.random((batch, 3, 34, 34))
    k1, k2 = rng.random((8, 3, 3, 3)), rng.random((16, 8, 3, 3))

    def step():
        c1 = sliding_window_view(x, (3, 3), axis=(2, 3))
        a = np.maximum(np.einsum("nchwij,ocij->nohw", c1, k1, optimize=True), 0.0)
        p = np.pad(a.reshape(batch, 8, 16, 2, 16, 2).max(axis=(3, 5)),
                   ((0, 0), (0, 0), (1, 1), (1, 1)))
        c2 = sliding_window_view(p, (3, 3), axis=(2, 3))
        g = np.maximum(np.einsum("nchwij,ocij->nohw", c2, k2, optimize=True), 0.0)
        np.einsum("nchwij,nohw->ocij", c2, g, optimize=True)
        np.einsum("ocij,nohw->nchwij", k2, g, optimize=True)
        np.einsum("nchwij,nohw->ocij", c1, a, optimize=True)

    return step


# workload -> (calibration kernel, reference speed in steps per second).
# A conv kernel at N=32 alone tracked train poorly: correlation 0.57 with
# 10-iteration chunks of training, against 0.68 for train_kernel.
CALIBRATION = {"ax-sweep": (n1_kernel, 3000.0), "gax": (n1_kernel, 3000.0),
               "train": (train_kernel, 37.0)}


def machine_speed(step) -> float:
    """Kernel steps per second over CALIBRATION_SECONDS."""
    n, start = 0, time.perf_counter()
    while True:
        step()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed >= CALIBRATION_SECONDS:
            return n / elapsed


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


# ---------------------------------------------------------------------------
# the reference case

def probe(d: Path, tracer=None):
    """Run the reference case with the reference model; returns (CO rows,
    GAX runs, GAX errors, (heatmaps, bad heatmaps)).  Scores and GAX traces
    come from the library at full precision: the CSVs keep 9 digits."""
    from gaxkit.ax import ax_sweep
    from gaxkit.data import load_dataset
    from gaxkit.gax import GaxConfig, gax_sweep
    from gaxkit.models import MiniConvNet

    data, gax_out = d / "probe-data", d / "probe-gax"
    code, text = run_cli(_gen(data, (0, 0, PROBE_TEST), MODEL_DATA_SEED), tracer)
    if code != 0:
        raise SetupError(f"reference case: gen-data failed: {text.strip()}")
    model = MiniConvNet.load(REFERENCE / "model.gaxm")
    split = load_dataset(data).test
    records, _ = ax_sweep(model, split, checks.METHODS, checks.VARIANTS)
    rows = [[r.sample_id, r.method, r.variant, r.co_score, r.predicted,
             r.groundtruth] for r in records]
    cfg = GaxConfig(target_co=TARGET_CO, max_iterations=PROBE_GAX_CAP,
                    use_bias=False)
    traces, errors = gax_sweep(model, split, cfg, out_dir=gax_out)
    runs = [[t.sample_id, t.converged, len(t.iterations), t.final_co,
             [co for _, _, co in t.iterations]] for t in traces]
    heatmaps = list(gax_out.rglob("*.gaxh"))
    bad = sum(not checks.heatmap_ok(p, IMAGE_SHAPE) for p in heatmaps)
    return rows, runs, errors, (len(heatmaps), bad)


def train_probe(d: Path, tracer=None) -> Path:
    """Train briefly from the fixed init on the model's data seed; returns
    the weight file."""
    data, out = d / "probe-train-data", d / "probe-train.gaxm"
    for argv in (_gen(data, PROBE_TRAIN_DATA, MODEL_DATA_SEED),
                 ["train", "--data", str(data), "--out", str(out),
                  "--max-iterations", str(PROBE_TRAIN_ITERATIONS),
                  "--batch-size", "32", "--seed", str(MODEL_SEED)]):
        code, text = run_cli(argv, tracer)
        if code != 0:
            raise SetupError(f"reference case: {argv[0]} failed: {text.strip()}")
    return out


def reference_check(workload: str, sizes: Sizes, d: Path,
                    tracer=None) -> tuple[int, int]:
    """Compare the reference case, and the weights the workload trains (the
    explained model set up in ``d``, or the training probe on ``train``),
    with the recorded reference.  The smoke sizes train another model."""
    ref = json.loads((REFERENCE / "reference.json").read_text(encoding="utf-8"))
    rows, runs, errors, (heatmaps, bad) = probe(d, tracer)
    attempted = len(ref["co"]) + len(ref["gax"]) + len(errors) + heatmaps
    failed = (checks.compare_co(ref["co"], rows)
              + checks.compare_gax(ref["gax"], runs) + len(errors) + bad)
    if workload == "train":
        weights = checks.compare_weights(REFERENCE / "train-probe.gaxm",
                                         train_probe(d, tracer))
    elif sizes is FULL:
        weights = checks.compare_weights(REFERENCE / "model.gaxm",
                                         d / "model.gaxm")
    else:
        weights = (0, 0)
    return attempted + weights[0], failed + weights[1]


def record_reference() -> int:
    """Train the explained model and record the reference case from it."""
    d = WORK / f"record-p{os.getpid()}"
    try:
        setup_in_children(setup_commands("gax", 0, FULL, d))
        REFERENCE.mkdir(exist_ok=True)
        shutil.copyfile(d / "model.gaxm", REFERENCE / "model.gaxm")
        shutil.copyfile(train_probe(d), REFERENCE / "train-probe.gaxm")
        rows, runs, errors, (_, bad) = probe(d)
        if errors or bad:
            raise SetupError("reference case fails its own output check")
        table = {key: "[\n  " + ",\n  ".join(map(json.dumps, value)) + "\n ]"
                 for key, value in (("co", rows), ("gax", runs))}
        (REFERENCE / "reference.json").write_text(
            '{\n "co": %(co)s,\n "gax": %(gax)s\n}\n' % table,
            encoding="utf-8")
    finally:
        remove(d)
    print(f"recorded {len(rows)} CO scores, {len(runs)} GAX runs and the "
          f"training probe under {REFERENCE}")
    return 0


# ---------------------------------------------------------------------------
# runs

def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "commit": git_commit(), "seed": seed}


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def timed_invocation(workload, sizes, d, i, tally, first, tracer=None):
    """Run the workload's command once; returns (work done, wall seconds,
    output path)."""
    out = output_path(workload, d, i)
    argv = timed_command(workload, sizes, d, out)
    start = time.perf_counter()
    code, text = run_cli(argv, tracer)
    wall = time.perf_counter() - start
    attempted, failed, work = check_output(workload, d, out, code, text, sizes)
    if code == 0 and first is not None and checks.digest(out) != first:
        failed = attempted                  # repeated run, different bytes
    tally.add(attempted, failed)
    return work, wall, out


def measure(workload: str, seed: int, seconds: float, sizes: Sizes,
            d: Path) -> tuple[dict, Counter]:
    tally = Counter()
    setups = []
    for rep in range(sizes.setup_reps):
        setups.append(setup_in_children(
            setup_commands(workload, seed, sizes, d / f"setup-{rep}")))
    # every repetition must write byte-identical datasets and weights
    base = d / "setup-0"
    digests = [checks.digest(d / f"setup-{rep}")
               for rep in range(sizes.setup_reps)]
    for rep in range(1, sizes.setup_reps):
        tally.add(1, int(digests[rep] != digests[0]))
        remove(d / f"setup-{rep}")

    make_kernel, reference_speed = CALIBRATION[workload]
    kernel = make_kernel()
    kernel()                            # first call allocates
    speeds = [machine_speed(kernel)]
    rates, walls, first = [], [], None

    def room_for_another() -> bool:
        spent = sum(walls) + CALIBRATION_SECONDS * len(speeds)
        return spent + statistics.mean(walls) + CALIBRATION_SECONDS <= seconds

    while len(walls) < 2 or room_for_another():
        work, wall, out = timed_invocation(workload, sizes, base, len(walls),
                                           tally, first)
        speeds.append(machine_speed(kernel))
        rates.append(work / wall)
        walls.append(wall)
        if first is None:
            first = checks.digest(out)
        else:
            remove(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.add(*reference_check(workload, sizes, base))
    rate = statistics.median(rates)
    metrics = {"items_per_s": rate * reference_speed / statistics.median(speeds),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_rss_mb}
    print(f"{workload}: timed runs {[round(w, 3) for w in walls]} s, "
          f"plain rate {rate:.6g}/s; calibration "
          f"{[round(v, 1) for v in speeds]}/s against {reference_speed:g}; "
          f"set-ups {[round(s, 3) for s in setups]} s")
    return metrics, tally


def measure_traced(workload: str, seed: int, sizes: Sizes, d: Path,
                   spans_path: Path) -> tuple[dict, Counter]:
    tally = Counter()
    tracer = tracing.Tracer()
    with tracer.installed("setup"):
        setup_in_process(setup_commands(workload, seed, sizes, d), tracer)
    # a warm-up run, then the traced run between two untraced ones, so a
    # drift in machine speed shifts both sides of the overhead alike
    _, _, out = timed_invocation(workload, sizes, d, 0, tally, None)
    first = checks.digest(out)
    _, before, _ = timed_invocation(workload, sizes, d, 1, tally, first)
    with tracer.installed("timed"):
        _, traced, _ = timed_invocation(workload, sizes, d, 2, tally, first,
                                        tracer)
    _, after, _ = timed_invocation(workload, sizes, d, 3, tally, first)
    with tracer.installed("check"):
        tally.add(*reference_check(workload, sizes, d, tracer))
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans)
    # a metric no phase exercised is a broken probe, not a measured 0
    missing = [name for name, value in metrics.items() if value is None]
    tally.add(len(missing), len(missing))
    if missing:
        print(f"{workload}: no phase exercised {', '.join(missing)}")
    metrics = {name: value or 0 for name, value in metrics.items()}
    untraced = (before + after) / 2
    metrics["trace.overhead_s"] = traced - untraced
    print(f"{workload}: untraced {before:.3f} and {after:.3f} s, traced "
          f"{traced:.3f} s; {len(tracer.spans)} spans written to {spans_path}")
    return metrics, tally


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import gaxkit.cli  # noqa: F401  (import time stays out of timed runs)
    sizes = SMOKE if args.smoke else FULL
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}{'-smoke' if args.smoke else ''}"
    d = WORK / f"{tag}-p{os.getpid()}"
    try:
        if args.trace:
            metrics, tally = measure_traced(args.workload, args.seed, sizes, d,
                                            WORK / f"spans-{tag}.jsonl")
            units = metric_units("per_layer")
        else:
            metrics, tally = measure(args.workload, args.seed, args.seconds,
                                     sizes, d)
            units = metric_units("end_to_end")
    finally:
        remove(d)
    print("environment " + json.dumps(environment(args.seed)))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  throughput counts {ITEM[args.workload]}; failed_fraction "
          f"{tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} checked items)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                workload, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv + (["--smoke"] if args.smoke else []),
                                 timeout=900).returncode
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes that run in seconds (for tests)")
    p.add_argument("--record-reference", action="store_true",
                   help="retrain the explained model and record the "
                        "reference case under bench/reference/")
    args = p.parse_args(argv)
    if not args.record_reference and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gaxkit" / "__init__.py").is_file():
        print(f"error: no gaxkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        sys.path.insert(0, str(SRC))
        return record_reference()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

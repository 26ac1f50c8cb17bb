"""Output checks for the benchmark.

The files the program writes are read back with the benchmark's own
parsers, so a defect in gaxkit's readers cannot hide a defect in its
writers.  Every check returns ``(attempted, failed)`` item counts; a
mismatch always counts as failed items and never passes silently.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

SCORES_HEADER = "sample_id,method,variant,co_score,pred,truth,correct"
MANIFEST_HEADER = "sample_id,converged,final_co,steps,trace_path,snapshots"
TRACE_HEADER = "step,loss,co_score"
METHODS = ("saliency", "input-x-gradient", "deconvolution", "guided-backprop",
           "deeplift", "layer-gradcam")
VARIANTS = ("sum", "mul")

# ROADMAP tolerance: CO scores match the reference to 1e-12, relative to
# the score's magnitude (absolute below 1, where cancellation dominates)
CO_TOLERANCE = 1e-12
# trained weights are stored as float32; 1e-6 is a few float32 steps at
# the weights' magnitude, far below what a wrong gradient or update moves
WEIGHT_TOLERANCE = 1e-6


def close(got: float, want: float, tolerance: float) -> bool:
    return abs(got - want) <= tolerance * max(1.0, abs(want))


def _read_tensor(data: bytes, pos: int) -> tuple[np.ndarray, int]:
    (rank,) = struct.unpack_from("<I", data, pos)
    dims = struct.unpack_from(f"<{rank}I", data, pos + 4)
    pos += 4 + 4 * rank
    count = math.prod(dims)
    values = np.frombuffer(data, dtype="<f4", count=count, offset=pos)
    return values.reshape(dims), pos + 4 * count


def read_gaxh(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != b"GAXH":
        raise ValueError(f"{path}: bad heatmap magic")
    values, end = _read_tensor(data, 6)
    if end != len(data):
        raise ValueError(f"{path}: {len(data) - end} trailing bytes")
    return values


def read_gaxm(path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if data[:4] != b"GAXM":
        raise ValueError(f"{path}: bad weight-file magic")
    (count,) = struct.unpack_from("<I", data, 6)
    pos, out = 10, {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", data, pos)
        name = data[pos + 4: pos + 4 + nlen].decode("utf-8")
        out[name], pos = _read_tensor(data, pos + 4 + nlen)
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    return out


def digest(path) -> str:
    """sha256 of a file, or of every file under a directory with its
    relative name."""
    path = Path(path)
    h = hashlib.sha256()
    if path.is_file():
        h.update(path.read_bytes())
        return h.hexdigest()
    for p in sorted(q for q in path.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(path)).encode("utf-8") + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def read_labels(data_dir, split: str = "test") -> tuple[dict[str, int], int]:
    """Sample id -> label for one split of a generated dataset, plus the
    class count, read from its manifest."""
    labels, classes = {}, 0
    for line in (Path(data_dir) / "manifest.txt").read_text(
            encoding="utf-8").splitlines():
        if line.startswith("class_count="):
            classes = int(line.split("=", 1)[1])
        elif line.startswith(f"sample,{split},"):
            _, _, label, rel = line.split(",", 3)
            labels[Path(rel).stem] = int(label)
    return labels, classes


def check_scores_csv(path, labels: dict[str, int], classes: int,
                     methods=METHODS, variants=VARIANTS) -> tuple[int, int]:
    """Every (sample, method, variant) record present once and well formed."""
    expected = {(sid, m, v) for sid in labels for m in methods for v in variants}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError:
        return len(expected), len(expected)
    if not lines or lines[0] != SCORES_HEADER:
        return len(expected), len(expected)
    seen, good, extra = set(), set(), 0
    for line in lines[1:]:
        fields = line.split(",")
        key = tuple(fields[:3])
        if len(fields) != 7 or key not in expected or key in seen:
            extra += 1
            continue
        seen.add(key)
        _, _, _, co, pred, truth, flag = fields
        try:
            if (math.isfinite(float(co)) and int(truth) == labels[key[0]]
                    and 0 <= int(pred) < classes
                    and flag == ("true" if pred == truth else "false")):
                good.add(key)
        except ValueError:
            pass
    return len(expected), min(len(expected), len(expected - good) + extra)


def read_manifest(out_dir) -> dict[str, list[str]]:
    lines = (Path(out_dir) / "manifest.csv").read_text(
        encoding="utf-8").splitlines()
    if not lines or lines[0] != MANIFEST_HEADER:
        raise ValueError(f"{out_dir}: bad GAX manifest header")
    return {line.split(",", 1)[0]: line.split(",") for line in lines[1:]}


def gax_steps(out_dir) -> int:
    """Optimization steps over every run in a GAX manifest (0 if unreadable)."""
    try:
        return sum(int(f[3]) for f in read_manifest(out_dir).values())
    except (OSError, ValueError, IndexError):
        return 0


def heatmap_ok(path, shape) -> bool:
    try:
        values = read_gaxh(path)
    except (OSError, ValueError, struct.error):
        return False
    return (values.shape == tuple(shape) and bool(np.isfinite(values).all())
            and float(np.abs(values).max()) <= 1.0)


def check_gax_dir(out_dir, target_co: float, shape) -> tuple[int, int]:
    """Manifest rows consistent with their traces and snapshots; every
    emitted heatmap finite, shaped like the input and inside [-1, 1]."""
    out = Path(out_dir)
    errors_log = out / "errors.log"
    logged = (len(errors_log.read_text(encoding="utf-8").splitlines())
              if errors_log.exists() else 0)
    try:
        rows = read_manifest(out)
    except (OSError, ValueError):
        return logged + 1, logged + 1
    failed = logged
    for sid, fields in rows.items():
        try:
            _, converged, final_co, steps, trace_rel, snaps = fields
            trace = (out / trace_rel).read_text(encoding="utf-8").splitlines()
            ok = (converged in ("true", "false")
                  and trace[0] == TRACE_HEADER
                  and len(trace) - 1 == int(steps) >= 1
                  and (converged == "false" or float(final_co) >= target_co)
                  and bool(snaps)
                  and all((out / s).is_file() for s in snaps.split(";")))
        except (OSError, ValueError, IndexError):
            ok = False
        failed += not ok
    failed += sum(not heatmap_ok(p, shape) for p in out.rglob("*.gaxh"))
    attempted = len(rows) + logged
    return attempted, min(attempted, failed)


def check_weights(path) -> bool:
    try:
        named = read_gaxm(path)
    except (OSError, ValueError, struct.error):
        return False
    return bool(named) and all(np.isfinite(a).all() for a in named.values())


def compare_weights(reference_path, path,
                    tolerance: float = WEIGHT_TOLERANCE) -> tuple[int, int]:
    """Reference weight tensors not reproduced by the weight file ``path``:
    missing, another shape, or any weight off by more than ``tolerance``."""
    reference = read_gaxm(reference_path)
    try:
        got = read_gaxm(path)
    except (OSError, ValueError, struct.error):
        return len(reference), len(reference)
    failed = 0
    for name, want in reference.items():
        have = got.get(name)
        failed += (have is None or have.shape != want.shape
                   or not np.all(np.abs(have.astype(np.float64) - want)
                                 <= tolerance * np.maximum(1.0, np.abs(want))))
    return len(reference), failed


def compare_co(reference, rows, tolerance: float = CO_TOLERANCE) -> int:
    """Reference CO rows ``(sample, method, variant, co, pred, truth)`` not
    reproduced by ``rows``: missing, another prediction, or a score off by
    more than ``tolerance`` relative."""
    got = {tuple(r[:3]): r for r in rows}
    failed = 0
    for sid, method, variant, co, pred, truth in reference:
        row = got.get((sid, method, variant))
        failed += (row is None or row[4] != pred or row[5] != truth
                   or not close(row[3], co, tolerance))
    return failed


def compare_gax(reference, runs, tolerance: float = CO_TOLERANCE) -> int:
    """Reference GAX runs ``(sample, converged, steps, final_co, co per
    step)`` not reproduced by ``runs``: missing, another converged flag or
    step count, or a final or per-step CO score off by more than
    ``tolerance`` relative."""
    got = {r[0]: r for r in runs}
    failed = 0
    for sid, converged, steps, final_co, trace in reference:
        run = got.get(sid)
        failed += (run is None or run[1] != converged or run[2] != steps
                   or len(run[4]) != len(trace)
                   or not close(run[3], final_co, tolerance)
                   or not all(close(a, b, tolerance)
                              for a, b in zip(run[4], trace)))
    return failed

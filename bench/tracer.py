"""Span tracer that instruments gaxkit from the outside.

The tracer wraps every public function of the traced modules at every
binding where it is looked up: gaxkit modules import each other with
``from .x import y``, so ``gaxkit.ax.predict`` and
``gaxkit.attribution.predict`` are separate bindings of one function and
both are replaced.  Three methods are patched on their classes:
``Tensor.backward``, ``Adam.step`` and ``MiniConvNet.forward_graph``.
Autodiff ops get one more hook: the vector-Jacobian product of the node an
op returns is wrapped, so backward time is attributed to the op that built
the node.  Nothing under ``src/`` changes; ``uninstall`` restores every
binding.

Spans live in memory as ``[name, parent, start, end, value, phase]`` lists
(``parent`` is an index into the span list, -1 for a root) and are written
out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import pkgutil
import statistics
import time
from collections import defaultdict

TRACED_MODULES = ("autodiff", "models", "attribution", "ax", "gax", "optim",
                  "training", "formats", "data")
OP_ROWS = ("conv2d", "max_pool2d", "relu", "bias_add", "matmul", "other")
METHODS = ("saliency", "input-x-gradient", "deconvolution", "guided-backprop",
           "deeplift", "layer-gradcam")
WRITERS = ("formats.write_pgm", "formats.write_ppm", "formats.write_gaxh",
           "formats.write_gaxm", "formats.export_heatmap")
EVAL_PASSES = ("training.accuracy", "training.evaluate")

NAME, PARENT, START, END, VALUE, PHASE = range(6)


def _conv_flops(args, kwargs, out):
    kernel = args[1] if len(args) > 1 else kwargs["k"]
    _, cin, kh, kw = kernel.data.shape
    return 2 * out.data.size * cin * kh * kw


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _export_bytes(args, kwargs, result):
    paths = [result["raw"], result["sidecar"], *result["images"]]
    return sum(os.path.getsize(p) for p in paths)


def _attribute_method(args, kwargs, result):
    return args[3] if len(args) > 3 else kwargs["method"]


# span name -> function (args, kwargs, result) giving the span's value;
# the value is taken after the span ends, so measuring costs no span time
MEASURES = {
    "autodiff.conv2d": _conv_flops,
    "models.forward": lambda a, k, out: out.scores.data.shape[0],
    "attribution.attribute": _attribute_method,
    "ax.ax_sweep": lambda a, k, result: len(result[0]),
    "gax.gax_run": lambda a, k, result: [len(result[0].iterations),
                                         bool(result[0].converged)],
    "training.train": lambda a, k, result: result.iterations_run,
    "formats.write_pgm": _file_bytes,
    "formats.write_ppm": _file_bytes,
    "formats.write_gaxh": _file_bytes,
    "formats.write_gaxm": _file_bytes,
    "formats.export_heatmap": _export_bytes,
}


class Tracer:
    """Collects spans while installed; install and uninstall may repeat."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, None,
                           self.phase])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        measure = MEASURES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if measure is not None:
                tracer.spans[idx][VALUE] = measure(args, kwargs, result)
            return result

        return traced

    def _wrap_op(self, fn, name: str):
        measure = MEASURES.get(name)
        vjp_name = name + ".vjp"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if measure is not None:
                tracer.spans[idx][VALUE] = measure(args, kwargs, out)
            vjp = out._vjp
            if vjp is not None:
                def timed_vjp(g, rule):
                    j = tracer.begin(vjp_name)
                    try:
                        return vjp(g, rule)
                    finally:
                        tracer.end(j)
                out._vjp = timed_vjp
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import gaxkit
        from gaxkit.autodiff import Tensor
        from gaxkit.models import MiniConvNet
        from gaxkit.optim import Adam

        namespaces = [gaxkit] + [
            importlib.import_module(f"gaxkit.{info.name}")
            for info in pkgutil.iter_modules(gaxkit.__path__)]
        wrapped = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"gaxkit.{short}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                is_op = short == "autodiff" and attr != "rescale_multipliers"
                wrapped[obj] = (self._wrap_op if is_op else self._wrap)(obj, name)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(ns, attr, wrapped[obj])
        for cls, attr, name in ((Tensor, "backward", "autodiff.backward"),
                                (Adam, "step", "optim.adam_step"),
                                (MiniConvNet, "forward_graph", "models.forward")):
            self._patch(cls, attr, self._wrap(vars(cls)[attr], name))

    @contextlib.contextmanager
    def installed(self, phase: str):
        """Trace the calls made inside the block, labelled with ``phase``."""
        self.phase = phase
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        intervals = sorted((max(spans[c][START], start), min(spans[c][END], end))
                           for c in children.get(i, ()))
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _median_ms(durations):
    return _ms(statistics.median(durations)) if durations else None


def _op_row(span_name: str) -> str:
    op = span_name.split(".")[1]
    return op if op in OP_ROWS else "other"


def phase_metrics(spans, selfs, phase: str) -> dict[str, float | None]:
    """Per-layer metrics over the spans of one phase (None: not exercised)."""
    idx_by_name = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PHASE] == phase:
            idx_by_name[span[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def durations(*names):
        return [dur(i) for n in names for i in idx_by_name.get(n, ())]

    def has_ancestor(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    m: dict[str, float | None] = {}

    # autodiff op table
    fwd, bwd = defaultdict(list), defaultdict(list)
    for name, indices in idx_by_name.items():
        if not name.startswith("autodiff.") or name.split(".")[1] in (
                "backward", "rescale_multipliers"):
            continue
        target = bwd if name.endswith(".vjp") else fwd
        target[_op_row(name)].extend(dur(i) for i in indices)
    for row in OP_ROWS:
        m[f"autodiff.{row}.fwd_ms"] = _median_ms(fwd[row])
        m[f"autodiff.{row}.bwd_ms"] = _median_ms(bwd[row])
    for op in ("conv2d", "max_pool2d"):
        n = len(idx_by_name.get(f"autodiff.{op}", ()))
        m[f"autodiff.{op}.calls"] = n if n else None
    conv = idx_by_name.get("autodiff.conv2d", ())
    conv_time = sum(dur(i) for i in conv)
    m["autodiff.conv2d.fwd_gflops"] = (
        sum(spans[i][VALUE] for i in conv) / conv_time / 1e9
        if conv_time > 0 else None)

    backward = idx_by_name.get("autodiff.backward", ())
    m["autodiff.backward_ms"] = _median_ms(durations("autodiff.backward"))
    m["autodiff.backward.self_ms"] = _median_ms([selfs[i] for i in backward])
    forward = idx_by_name.get("models.forward", ())
    m["autodiff.graph_overhead_ms"] = (
        _ms(sum(selfs[i] for i in backward) + sum(selfs[i] for i in forward))
        / len(backward) if backward else None)
    vjp_children = defaultdict(int)
    for name, indices in idx_by_name.items():
        if name.endswith(".vjp"):
            for i in indices:
                vjp_children[spans[i][PARENT]] += 1
    m["autodiff.nodes_per_backward"] = (
        statistics.median(vjp_children[i] for i in backward)
        if backward else None)

    m["models.forward_ms"] = _median_ms(durations("models.forward"))
    m["models.forward_calls"] = len(forward) if forward else None

    methods = defaultdict(list)
    for i in idx_by_name.get("attribution.attribute", ()):
        methods[spans[i][VALUE]].append(dur(i))
    for method in METHODS:
        m[f"attribution.{method}.ms"] = _median_ms(methods[method])

    m["ax.co_score_ms"] = _median_ms(durations("ax.co_score"))
    scores = sum(spans[i][VALUE] for i in idx_by_name.get("ax.ax_sweep", ()))
    rows = sum(spans[i][VALUE] for i in forward
               if has_ancestor(i, "ax.ax_sweep"))
    m["ax.forward_rows_per_score"] = rows / scores if scores else None

    runs = idx_by_name.get("gax.gax_run", ())
    snapshot = defaultdict(float)
    for i in idx_by_name.get("formats.export_heatmap", ()):
        snapshot[spans[i][PARENT]] += dur(i)
    steps = sum(spans[i][VALUE][0] for i in runs)
    m["gax.step_ms"] = (_ms(sum(dur(i) - snapshot[i] for i in runs)) / steps
                        if steps else None)
    m["gax.snapshot_ms"] = (_ms(sum(snapshot[i] for i in runs)) / len(runs)
                            if runs else None)
    m["gax.steps_per_heatmap"] = steps / len(runs) if runs else None
    m["gax.converged_fraction"] = (
        sum(spans[i][VALUE][1] for i in runs) / len(runs) if runs else None)

    m["optim.adam_step_ms"] = _median_ms(durations("optim.adam_step"))

    trains = idx_by_name.get("training.train", ())
    evals = [i for n in EVAL_PASSES for i in idx_by_name.get(n, ())]
    eval_time = defaultdict(float)
    for i in evals:
        eval_time[spans[i][PARENT]] += dur(i)
    iterations = sum(spans[i][VALUE] for i in trains)
    m["training.iter_ms"] = (
        _ms(sum(dur(i) - eval_time[i] for i in trains)) / iterations
        if iterations else None)
    m["training.eval_ms"] = _median_ms(durations(*EVAL_PASSES))
    m["training.eval_passes"] = len(evals) if evals else None

    m["formats.export_heatmap_ms"] = _median_ms(
        durations("formats.export_heatmap"))
    written = [spans[i][VALUE] for n in WRITERS for i in idx_by_name.get(n, ())
               if spans[i][PARENT] < 0
               or spans[spans[i][PARENT]][NAME] not in WRITERS]
    m["formats.bytes_written"] = sum(written) if written else None
    m["formats.read_pnm_ms"] = _median_ms(durations("formats.read_pnm"))
    m["formats.gaxm_io_ms"] = _median_ms(
        durations("formats.read_gaxm", "formats.write_gaxm"))

    m["data.gen_data_ms"] = _median_ms(durations("data.gen_data"))
    m["data.load_dataset_ms"] = _median_ms(durations("data.load_dataset"))
    m["cli.self_ms"] = _median_ms(
        [selfs[i] for i in idx_by_name.get("cli.main", ())])
    return m


def layer_metrics(spans, phases=("timed", "setup", "check")
                  ) -> dict[str, float | None]:
    """Per-layer metrics, each taken from the first phase that exercises it.

    The timed phase comes first; a module the timed workload never calls
    (Grad-CAM on the train workload, say) is measured where the run does
    call it: the model's training in set-up, or the reference check.  A
    metric no phase exercises is None.
    """
    selfs = self_times(spans)
    per_phase = [phase_metrics(spans, selfs, p) for p in phases]
    return {name: next((pm[name] for pm in per_phase if pm[name] is not None),
                       None)
            for name in per_phase[0]}

"""Span tracing around hsimvt's public functions, installed from outside.

The tracer replaces module and class attributes with thin wrappers that
record one span (name, start, end, parent) per call, and restores the
originals on exit. Nothing under ``src/`` is edited. Spans stay in memory
until the run ends.

Backward work is charged to the op that recorded it: every adjoint closure
passed to ``GradGraph.record`` is wrapped in a ``<span>.bwd`` span named
after the span open when the closure was recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict

import numpy as np

# Op groups reported one by one; every other public op is "other".
OP_GROUPS = ("conv3d", "conv2d", "matmul", "affine", "softmax_rows", "box_mean")
MODEL_FNS = ("sed_forward", "tokenize", "assemble_tokens", "multi_head",
             "feature_and_classify", "forward")
MB = 1e6


def self_times(starts, ends, parents):
    """Duration of each span minus the durations of its direct children."""
    out = [e - s for s, e in zip(starts, ends)]
    for s, e, p in zip(starts, ends, parents):
        if p >= 0:
            out[p] -= e - s
    return out


def conv3d_flops(x_shape, k_shape):
    """Computed multiply-add flops of one conv3d forward (2 per MAC)."""
    n, h, w, c = x_shape if len(x_shape) == 4 else (1,) + tuple(x_shape)
    nk, k1, k2, k3 = k_shape
    return 2 * n * h * w * c * nk * k1 * k2 * k3


def conv2d_flops(x_shape, k_shape):
    """Computed multiply-add flops of one conv2d forward (2 per MAC)."""
    n, h, w, _ = x_shape if len(x_shape) == 4 else (1,) + tuple(x_shape)
    nk, kh, kw, cin = k_shape
    return 2 * n * h * w * nk * kh * kw * cin


def im2col_bytes(op, x, k_shape):
    """Computed size of the im2col matrix one conv forward builds."""
    shape = x.shape if len(x.shape) == 4 else (1,) + tuple(x.shape)
    n, h, w, c = shape
    if op == "conv3d":
        return n * h * w * c * int(np.prod(k_shape[1:])) * x.dtype.itemsize
    return n * h * w * int(np.prod(k_shape[1:])) * x.dtype.itemsize


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.name_ids = {}
        self.name_list = []
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack = []
        self.counters = defaultdict(float)
        self.tape_lens = []
        self._saved = []
        self.excluded = []   # (innermost open span or -1, seconds not spent in it)

    def open(self, name):
        i = len(self.names)
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = self.name_ids[name] = len(self.name_list)
            self.name_list.append(name)
        self.names.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i):
        self.ends[i] = self.clock()
        self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args)``/``after(args, out)`` count work."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(args, out)
            return out

        return traced

    def patch(self, owner, attr, name, before=None, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def install(self):
        """Wrap every public function the per-layer metrics name.

        Functions are patched where their callers look them up: module
        globals such as ``training.forward`` are separate bindings of the
        same function and each gets its own wrapper.
        """
        (cli, data, experiments, gradcheck, hsz, metrics, model, mpca, ops, tensor,
         training) = (importlib.import_module(f"hsimvt.{name}") for name in (
            "cli", "data", "experiments", "gradcheck", "hsz", "metrics", "model",
            "mpca", "ops", "tensor", "training"))
        count = self.counters

        for op_name, fn in vars(ops).items():
            if (inspect.isfunction(fn) and fn.__module__ == ops.__name__
                    and not op_name.startswith("_")):
                before = None
                if op_name in ("conv3d", "conv2d"):
                    before = self._conv_counter(op_name)
                self.patch(ops, op_name, f"ops.{op_name}", before=before)

        for fn_name in MODEL_FNS:
            self.patch(model, fn_name, f"model.{fn_name}")
        self.patch(training, "forward", "model.forward")
        self.patch(metrics, "forward", "model.forward")
        for owner in (model, cli):
            self.patch(owner, "load_params", "model.load_params")
        self.patch(model.ModelParams, "copy", "training.snapshot_copy")

        for fn_name in ("train", "adam_step", "cross_entropy"):
            self.patch(training, fn_name, f"training.{fn_name}")

        def count_px(args):
            count["metrics.predict_coords.px"] += len(args[2])

        for owner in (metrics, training, cli):
            self.patch(owner, "predict_coords", "metrics.predict_coords", before=count_px)
        for owner in (metrics, cli):
            self.patch(owner, "evaluate", "metrics.evaluate")

        def count_gather(args, out):
            count["data.gather.bytes"] += out.nbytes

        self.patch(data.PatchSource, "gather", "data.gather", after=count_gather)
        for owner in (data, experiments):
            self.patch(owner, "mmnorm", "data.mmnorm")

        def count_views(args, out):
            count["mpca.views.bytes"] += sum(r.nbytes for r in out[1])

        self.patch(mpca, "build_views", "mpca.build_views", after=count_views)
        self.patch(mpca, "fit_pca", "mpca.fit_pca")
        self.patch(mpca, "transform_view", "mpca.transform_view")

        def count_read(args, out):
            count["hsz.read.bytes"] += len(out[1])

        def count_write(args):
            count["hsz.write.bytes"] += len(args[3])

        self.patch(hsz, "read_framed", "hsz.read", after=count_read)
        self.patch(hsz, "write_framed", "hsz.write", before=count_write)
        for fn_name in ("read_cube_raster", "read_label_raster"):
            self.patch(hsz, fn_name, "hsz.read")
        for fn_name in ("write_cube_raster", "write_label_raster"):
            self.patch(hsz, fn_name, "hsz.write")

        for fn_name in ("render_class_map", "write_ppm"):
            self.patch(cli, fn_name, "render")
        self.patch(cli, "cmd_preprocess", "cli.preprocess")
        self.patch(cli, "cmd_map", "cli.map")
        self.patch(gradcheck, "check_gradients", "gradcheck.check_gradients")

        tracer = self

        def count_tape(args):
            tracer.tape_lens.append(len(args[0]))

        self.patch(tensor.GradGraph, "backward", "tensor.backward", before=count_tape)
        record = tensor.GradGraph.__dict__["record"]
        self._saved.append((tensor.GradGraph, "record", record))

        def traced_record(graph, backward_fn):
            owner = tracer.name_list[tracer.names[tracer.stack[-1]]] if tracer.stack else "tensor"
            record(graph, tracer.wrap(owner + ".bwd", backward_fn))

        tensor.GradGraph.record = traced_record

    def _conv_counter(self, op):
        flops = conv3d_flops if op == "conv3d" else conv2d_flops
        count = self.counters

        def before(args):
            x, kernels = args[0].data, args[1].data
            count[f"ops.{op}.flops"] += flops(x.shape, kernels.shape)
            count[f"ops.{op}.im2col_bytes"] += im2col_bytes(op, x, kernels.shape)

        return before

    def exclude(self, seconds):
        """Charge ``seconds`` that just passed to no span: the benchmark's own
        work, run while spans were open, leaves their self times alone."""
        self.excluded.append((self.stack[-1] if self.stack else -1, seconds))

    def mark(self):
        """Position to pass to :meth:`layer_metrics` for spans recorded after now."""
        return len(self.names), dict(self.counters), len(self.tape_lens)

    def layer_metrics(self, since):
        """Per-layer metrics over the spans and counts recorded after ``since``."""
        first, counters_then, tape_first = since
        parents = [p - first if p >= first else -1 for p in self.parents[first:]]
        selfs = self_times(self.starts[first:], self.ends[first:], parents)
        for span, seconds in self.excluded:
            if span >= first:
                selfs[span - first] -= seconds
        self_s = defaultdict(float)
        calls = defaultdict(int)
        names = self.name_list
        for name_id, t in zip(self.names[first:], selfs):
            self_s[names[name_id]] += t
            calls[names[name_id]] += 1
        counted = {k: v - counters_then.get(k, 0.0) for k, v in self.counters.items()}
        tapes = self.tape_lens[tape_first:]
        return per_layer_values(self_s, calls, counted, tapes, len(selfs))


def unit_of(name):
    """Unit of a per-layer metric, read off its name."""
    if name.startswith("trace.overhead."):
        return "fraction"
    for suffix, unit in (("ms", "ms"), ("mb", "MB"), ("gflop_per_s", "GFLOP/s"),
                         ("gflop", "GFLOP"), (".px", "px")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_values(self_s, calls, counted, tapes, n_spans):
    """Turn self times (s), span counts and counters into the named metrics."""
    ms = {name: 1e3 * t for name, t in self_s.items()}
    out = {}
    for group in OP_GROUPS + ("other",):
        out[f"ops.{group}.fwd_ms"] = out[f"ops.{group}.bwd_ms"] = 0.0
        out[f"ops.{group}.calls"] = 0
    for name, value in ms.items():
        if name.startswith("ops."):
            op, _, backward = name[4:].partition(".")
            group = op if op in OP_GROUPS else "other"
            out[f"ops.{group}.{'bwd' if backward else 'fwd'}_ms"] += value
            if not backward:
                out[f"ops.{group}.calls"] += calls[name]
    for op in ("conv3d", "conv2d"):
        gflop = counted.get(f"ops.{op}.flops", 0.0) / 1e9
        fwd_s = self_s.get(f"ops.{op}", 0.0)
        out[f"ops.{op}.gflop"] = gflop
        out[f"ops.{op}.gflop_per_s"] = gflop / fwd_s if fwd_s > 0 else 0.0
        out[f"ops.{op}.im2col_mb"] = counted.get(f"ops.{op}.im2col_bytes", 0.0) / MB
    out["tensor.backward.ms"] = ms.get("tensor.backward", 0.0)
    out["tensor.tape_len"] = float(np.median(tapes)) if tapes else 0.0
    out["training.train.ms"] = ms.get("training.train", 0.0)
    out["training.adam_step.ms"] = ms.get("training.adam_step", 0.0)
    out["training.cross_entropy.ms"] = (ms.get("training.cross_entropy", 0.0)
                                        + ms.get("training.cross_entropy.bwd", 0.0))
    out["training.snapshot_copies"] = calls.get("training.snapshot_copy", 0)
    for fn_name in MODEL_FNS + ("load_params",):
        out[f"model.{fn_name}.ms"] = ms.get(f"model.{fn_name}", 0.0)
    out["gradcheck.fd_loop.ms"] = ms.get("gradcheck.check_gradients", 0.0)
    out["gradcheck.model_fn.calls"] = calls.get("gradcheck.model_fn", 0)
    for fn_name in ("build_views", "fit_pca", "transform_view"):
        out[f"mpca.{fn_name}.ms"] = ms.get(f"mpca.{fn_name}", 0.0)
    out["mpca.views_mb"] = counted.get("mpca.views.bytes", 0.0) / MB
    out["data.mmnorm.ms"] = ms.get("data.mmnorm", 0.0)
    out["data.gather.ms"] = ms.get("data.gather", 0.0)
    out["data.gather.mb"] = counted.get("data.gather.bytes", 0.0) / MB
    for way in ("read", "write"):
        out[f"hsz.{way}.ms"] = ms.get(f"hsz.{way}", 0.0)
        out[f"hsz.{way}.mb"] = counted.get(f"hsz.{way}.bytes", 0.0) / MB
    out["metrics.predict_coords.ms"] = ms.get("metrics.predict_coords", 0.0)
    out["metrics.predict_coords.px"] = counted.get("metrics.predict_coords.px", 0.0)
    out["render.ms"] = ms.get("render", 0.0)
    out["cli.preprocess.ms"] = ms.get("cli.preprocess", 0.0)
    out["cli.map.ms"] = ms.get("cli.map", 0.0)
    out["trace.spans"] = n_spans
    return out


def write_spans(tracer, path):
    """Dump every recorded span as JSON: a name table and one row per span."""
    rows = list(zip(tracer.names, tracer.starts, tracer.ends, tracer.parents))
    with open(path, "w") as f:
        json.dump({"names": tracer.name_list,
                   "columns": ["name", "start_s", "end_s", "parent"],
                   "spans": rows}, f)

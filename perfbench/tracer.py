"""Span tracer for snnkit, installed from outside the package.

``Tracer.installed()`` wraps the public functions of every snnkit module
listed in ``TARGETS`` and rebinds every module-level name that refers to
one of them, including the copies made by ``from .x import y``. Each call
records a span (name, start, end, parent) in memory; ``layer_metrics`` turns
the spans of one pipeline into the per-layer metrics the benchmark reports.

Self time is a span's duration minus the time covered by its direct child
spans. Computed counts (bytes, FLOPs, input activity) are taken at the same
boundaries by hooks; a hook runs in its own ``trace.hook`` span, so its cost
is kept out of every layer's self time and shows only in the overhead.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from snnkit.network import Conv
from snnkit.pipeline import Experiment

# Wrapped functions, by snnkit module. Spans are named "<module>.<function>".
TARGETS = {
    "numerics": (
        "im2col",
        "col2im",
        "conv_from_cols",
        "conv2d",
        "conv2d_input_grad",
        "conv2d_weight_grad",
        "avgpool2d",
        "avgpool2d_input_grad",
    ),
    "neuron": ("lif_step", "single_spike_step", "output_step", "surrogate_grad"),
    "encoding": ("encode_hybrid", "encode_direct", "encode_poisson_rate"),
    "network": ("forward", "evaluate"),
    "training": ("train_snn", "backward", "bptt_hidden_grads", "output_layer_grads", "hybrid_loss", "optimizer_step"),
    "ann": (
        "ann_train",
        "ann_forward",
        "ann_backward",
        "ann_accuracy",
        "softmax_cross_entropy",
        "calibrate_thresholds",
        "convert",
    ),
    "data": ("read_idx_images", "read_idx_labels", "read_cifar_binary", "normalize_dataset"),
    "metrics": ("energy", "flops", "spike_activity"),
    "modelio": ("save_params", "load_params"),
    "pipeline": ("load_experiment_dataset", "emit_report"),
}
# Phase methods of pipeline.Experiment, traced as "pipeline.<method>".
PHASE_METHODS = ("train_ann", "calibrate", "convert", "train_snn", "eval", "profile", "run_all")

HOOK_SPAN = "trace.hook"

# Per-layer metrics the traced run reports: (name, unit). Every entry is
# filled by ``layer_metrics`` except the trace.* run-level entries, which the
# benchmark adds from its untraced and traced pipelines.
PER_LAYER = (
    ("numerics.avgpool2d.calls", "count"),
    ("numerics.avgpool2d.self_s", "s"),
    ("numerics.avgpool2d_input_grad.self_s", "s"),
    ("numerics.avgpool2d.train_snn_self_s", "s"),
    ("numerics.avgpool2d_input_grad.train_snn_self_s", "s"),
    ("numerics.im2col.calls", "count"),
    ("numerics.im2col.snn_epoch_calls", "count"),
    ("numerics.im2col.self_s", "s"),
    ("numerics.im2col.bytes", "B-computed"),
    ("numerics.col2im.self_s", "s"),
    ("numerics.conv2d_input_grad.self_s", "s"),
    ("numerics.conv_from_cols.self_s", "s"),
    ("numerics.conv_from_cols.flops", "flop-computed"),
    ("numerics.conv2d_weight_grad.self_s", "s"),
    ("numerics.conv2d_weight_grad.flops", "flop-computed"),
    ("numerics.conv2d.calls", "count"),
    ("numerics.conv2d.self_s", "s"),
    ("neuron.single_spike_step.calls", "count"),
    ("neuron.single_spike_step.self_s", "s"),
    ("neuron.lif_step.calls", "count"),
    ("neuron.lif_step.self_s", "s"),
    ("neuron.output_step.self_s", "s"),
    ("neuron.surrogate_grad.self_s", "s"),
    ("encoding.encode.self_s", "s"),
    ("encoding.input_bytes", "B-computed"),
    ("network.forward.calls", "count"),
    ("network.forward.self_s", "s"),
    ("network.trace_bytes", "B-computed"),
    ("network.input_activity.conv1", "ratio"),
    ("network.input_activity.conv2", "ratio"),
    ("training.forward_s", "s"),
    ("training.bptt_hidden_grads.self_s", "s"),
    ("training.output_layer_grads.self_s", "s"),
    ("training.hybrid_loss.self_s", "s"),
    ("training.optimizer_step.self_s", "s"),
    ("training.epoch_eval_s", "s"),
    ("training.steps", "count"),
    ("ann.ann_forward.self_s", "s"),
    ("ann.ann_backward.self_s", "s"),
    ("ann.calibrate_thresholds.self_s", "s"),
    ("ann.calibrate.conv2d_calls", "count"),
    ("ann.calibrate.lif_step_calls", "count"),
    ("data.read.self_s", "s"),
    ("data.normalize_dataset.self_s", "s"),
    ("metrics.energy.self_s", "s"),
    ("modelio.save_params.self_s", "s"),
    ("modelio.load_params.self_s", "s"),
    ("pipeline.train_ann.self_s", "s"),
    ("pipeline.calibrate.self_s", "s"),
    ("pipeline.convert.self_s", "s"),
    ("pipeline.train_snn.self_s", "s"),
    ("pipeline.eval.self_s", "s"),
    ("pipeline.profile.self_s", "s"),
    ("pipeline.emit_report.self_s", "s"),
    ("trace.train_snn_s", "s"),
    ("trace.pipeline_s", "s"),
    ("trace.untraced_pipeline_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Counts that depend only on the workload's shapes and sizes, never on the
# seed or the clock. Later changes may name them as claims.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER if unit in ("count", "B-computed", "flop-computed"))

# Layer metric -> the spans whose self time it sums.
_SELF_GROUPS = {
    "encoding.encode.self_s": ("encoding.encode_hybrid", "encoding.encode_direct", "encoding.encode_poisson_rate"),
    "data.read.self_s": ("data.read_idx_images", "data.read_idx_labels", "data.read_cifar_binary"),
}

# Counts the hooks take, reported as they are.
_COMPUTED = (
    "numerics.im2col.bytes",
    "numerics.conv_from_cols.flops",
    "numerics.conv2d_weight_grad.flops",
    "encoding.input_bytes",
    "network.trace_bytes",
)

# Spans whose descendants layer_metrics tells apart.
_MARKERS = ("ann.calibrate_thresholds", "training.train_snn", "network.evaluate")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def conv_inputs(spec) -> dict:
    """Map each conv layer's per-sample input shape to its name (conv1, conv2, ...)."""
    shapes = [tuple(spec.input_shape)] + [tuple(s) for s in spec.feature_shapes()]
    convs = [i for i, layer in enumerate(spec.layers) if isinstance(layer, Conv)]
    return {shapes[i]: f"conv{k + 1}" for k, i in enumerate(convs)}


def trace_nbytes(trace) -> int:
    """Bytes of the distinct arrays a TemporalTrace holds (views count at their size)."""
    groups = (trace.layer_inputs, trace.membranes, trace.norm_potentials, trace.reset_gates, trace.hidden_spikes)
    arrays = [a for group in groups for per in group for a in per]
    arrays += list(trace.output_membranes) + [m for m in trace.dropout_masks if m is not None]
    unique = {id(a): a for a in arrays}
    return sum(a.nbytes for a in unique.values())


# -- hooks: computed counts taken at span boundaries ---------------------------


def _hook_im2col(tracer, idx, args, kwargs, result):
    tracer.add("numerics.im2col.bytes", result.nbytes)
    # Input activity of the configured encoder: convert's direct-coded
    # fidelity pass is left out.
    if tracer.parent_name(idx) == "network.forward" and not tracer.within(idx, "pipeline.convert"):
        x = _arg(args, kwargs, 0, "x")
        layer = tracer.conv_inputs.get(tuple(x.shape[1:]))
        if layer is not None:
            tracer.add(f"nonzero.{layer}", int(np.count_nonzero(result)))
            tracer.add(f"size.{layer}", result.size)


def _hook_conv_from_cols(tracer, idx, args, kwargs, result):
    weights = _arg(args, kwargs, 0, "weights")
    b, k, l = _arg(args, kwargs, 1, "cols").shape
    tracer.add("numerics.conv_from_cols.flops", 2 * b * weights.shape[0] * k * l)


def _hook_conv2d_weight_grad(tracer, idx, args, kwargs, result):
    dout = _arg(args, kwargs, 0, "dout")
    b, co, ho, wo = dout.shape
    tracer.add("numerics.conv2d_weight_grad.flops", 2 * b * co * ho * wo * result[0].size)


def _hook_encode(tracer, idx, args, kwargs, result):
    image = np.asarray(_arg(args, kwargs, 0, "image"))
    extra = sum(
        a.nbytes for a in (result.analog_frame, result.spikes) if a is not None and not np.may_share_memory(a, image)
    )
    tracer.peak("encoding.input_bytes", extra)


def _hook_forward(tracer, idx, args, kwargs, result):
    trace = result[1]
    if trace is not None:
        tracer.peak("network.trace_bytes", trace_nbytes(trace))


_HOOKS = {
    "numerics.im2col": _hook_im2col,
    "numerics.conv_from_cols": _hook_conv_from_cols,
    "numerics.conv2d_weight_grad": _hook_conv2d_weight_grad,
    "encoding.encode_hybrid": _hook_encode,
    "encoding.encode_direct": _hook_encode,
    "encoding.encode_poisson_rate": _hook_encode,
    "network.forward": _hook_forward,
}


class Tracer:
    """In-memory span recorder for one process; ``reset`` starts a new pipeline."""

    def __init__(self, conv_inputs: dict | None = None):
        self.conv_inputs = dict(conv_inputs or {})
        self._ids = {}
        self.names = []
        self.reset()

    def reset(self):
        self.span_name = []   # index into self.names
        self.parent = []      # span index, -1 for a root span
        self.start = []
        self.end = []
        self.counts = {}
        self._stack = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def parent_name(self, idx: int):
        p = self.parent[idx]
        return self.names[self.span_name[p]] if p >= 0 else None

    def within(self, idx: int, name: str) -> bool:
        """Whether span ``idx`` runs inside a span called ``name``."""
        nid = self._ids.get(name)
        p = self.parent[idx]
        while p >= 0:
            if self.span_name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def _open(self, nid: int, parent: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(parent)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def wrap(self, name: str, fn, hook=None):
        nid = self._intern(name)
        hook_id = self._intern(HOOK_SPAN)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = tracer._open(nid, parent)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if hook is not None:
                h = tracer._open(hook_id, parent)
                try:
                    hook(tracer, idx, args, kwargs, result)
                finally:
                    tracer.end[h] = time.perf_counter()
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target and rebind each snnkit module name that refers to one."""
        wrappers = {}
        for mod_name, funcs in TARGETS.items():
            mod = importlib.import_module(f"snnkit.{mod_name}")
            for func in funcs:
                orig = getattr(mod, func)
                name = f"{mod_name}.{func}"
                wrappers[id(orig)] = (orig, self.wrap(name, orig, _HOOKS.get(name)))
        undo = []
        for mod in snnkit_modules():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    undo.append((mod, attr, value))
        for method in PHASE_METHODS:
            orig = vars(Experiment)[method]
            setattr(Experiment, method, self.wrap(f"pipeline.{method}", orig))
            undo.append((Experiment, method, orig))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- aggregation -----------------------------------------------------------

    def layer_metrics(self, snn_epochs: int) -> dict:
        """Per-layer metrics of the spans recorded since the last ``reset``."""
        n = len(self.span_name)
        names = [self.names[i] for i in self.span_name]
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        hooks_below = [0.0] * n
        for i in range(n - 1, -1, -1):  # children always have larger indices
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                hooks_below[p] += dur[i] if names[i] == HOOK_SPAN else hooks_below[i]
        marker_bit = {m: 1 << k for k, m in enumerate(_MARKERS)}
        under = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                under[i] = under[p] | marker_bit.get(names[p], 0)

        calls, self_s, snn_self_s = {}, {}, {}
        snn_bit = marker_bit["training.train_snn"]
        for i, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            if under[i] & snn_bit:
                snn_self_s[name] = snn_self_s.get(name, 0.0) + dur[i] - child[i]

        def inclusive(name, parent):
            """Time in ``name`` spans called directly from ``parent``, hooks excluded."""
            spans = [i for i in range(n) if names[i] == name and self.parent_name(i) == parent]
            return sum(dur[i] - hooks_below[i] for i in spans)

        def count_under(name, marker, outside=None):
            bit = marker_bit[marker]
            skip = marker_bit[outside] if outside else 0
            return sum(1 for i in range(n) if names[i] == name and under[i] & bit and not under[i] & skip)

        out = {}
        for metric, unit in PER_LAYER:
            if metric.startswith("trace."):
                continue
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(base, 0)
            elif field == "self_s":
                group = _SELF_GROUPS.get(metric, (base,))
                out[metric] = sum(self_s.get(g, 0.0) for g in group)
            elif field == "train_snn_self_s":
                out[metric] = snn_self_s.get(base, 0.0)
        snn_im2col = count_under("numerics.im2col", "training.train_snn", outside="network.evaluate")
        out["numerics.im2col.snn_epoch_calls"] = snn_im2col // max(snn_epochs, 1)
        out["training.forward_s"] = inclusive("network.forward", "training.train_snn")
        out["training.epoch_eval_s"] = inclusive("network.evaluate", "training.train_snn")
        out["training.steps"] = count_under("training.optimizer_step", "training.train_snn")
        out["ann.calibrate.conv2d_calls"] = count_under("numerics.conv2d", "ann.calibrate_thresholds")
        out["ann.calibrate.lif_step_calls"] = count_under("neuron.lif_step", "ann.calibrate_thresholds")
        for key in _COMPUTED:
            out[key] = int(self.counts.get(key, 0))
        for layer in ("conv1", "conv2"):
            size = self.counts.get(f"size.{layer}", 0)
            out[f"network.input_activity.{layer}"] = self.counts.get(f"nonzero.{layer}", 0) / size if size else 0.0
        return out

    def dump(self) -> dict:
        """Spans of the current pipeline in a compact, JSON-ready form."""
        return {
            "names": list(self.names),
            "name": list(self.span_name),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
        }


def snnkit_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items()) if name == "snnkit" or name.startswith("snnkit.")]


def median_metrics(samples: list) -> dict:
    """Median of each per-layer metric over several traced pipelines; exact counts as they are."""
    return {
        key: samples[0][key] if key in EXACT_COUNTS else statistics.median(s[key] for s in samples)
        for key in samples[0]
    }

"""Feedforward spiking-network assembly and the T-timestep forward pass.

A network is an ordered stack of descriptors (conv / avgpool / fully
connected / dropout). Conv and fully-connected descriptors are "weighted"
layers backed by spiking neurons; the final fully-connected layer is the
leak-free output accumulator. The spec compiles the stack once into stages,
one per weighted layer with its pool/dropout descriptors in front. The
per-stage ops here are the only code that knows a layer's kind: ANN
training, calibration, the forward pass and BPTT are loops over the stages.

The forward pass runs the chosen encoder's per-timestep inputs for a batch
of samples through the stack, recording the temporal trace needed by
backpropagation-through-time in train mode, or lightweight activity counters
in infer mode. The conv stages run block by block over the samples, each
cache-sized block through all T steps (``conv_blocks``, whose blocks BPTT
walks too); the fc stages then run step by step on the whole batch. A pass
that keeps no trace updates each layer's neuron state in place after the
first step.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numerics
from .encoding import SpikeInputSequence
from .errors import ConfigurationError, ContractViolation, require, require_count
from .neuron import (
    NeuronState,
    OutputState,
    lif_fire,
    lif_gate,
    lif_step,
    norm_potential,
    output_step,
    single_spike_fire,
    single_spike_gate,
    single_spike_step,
)

SINGLE_SPIKE = "single_spike"
MULTI_SPIKE = "multi_spike"
TRAIN = "train"
INFER = "infer"


@dataclass(frozen=True)
class Conv:
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        for name in ("out_channels", "kernel", "stride"):
            require_count(f"conv.{name}", getattr(self, name))
        require_count("conv.padding", self.padding, 0)


@dataclass(frozen=True)
class AvgPool:
    window: int

    def __post_init__(self):
        require_count("avgpool.window", self.window)


@dataclass(frozen=True)
class FullyConnected:
    units: int

    def __post_init__(self):
        require_count("fc.units", self.units)


@dataclass(frozen=True)
class Dropout:
    rate: float

    def __post_init__(self):
        real = isinstance(self.rate, numbers.Real) and not isinstance(self.rate, bool)
        require("dropout.rate", self.rate, real and 0.0 <= self.rate < 1.0, "in [0, 1)")


_KIND = {Conv: "conv", AvgPool: "avgpool", FullyConnected: "fc", Dropout: "dropout"}


@dataclass(frozen=True)
class Stage:
    """One weighted layer with the pool/dropout descriptors in front of it.

    ``pre`` pairs each of those descriptors with its index in ``spec.layers``.
    Shapes are per sample: ``operand_shape`` is what the weights read (after
    ``pre``), ``out_shape`` is the layer's output.
    """

    layer: Conv | FullyConnected
    pre: tuple
    operand_shape: tuple
    out_shape: tuple
    weight_shape: tuple
    name: str


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer descriptors plus input shape, class count, and T."""

    layers: tuple
    input_shape: tuple
    num_classes: int
    total_timesteps: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        require_count("network.num_classes", self.num_classes)
        require_count("network.total_timesteps", self.total_timesteps)
        for extent in self.input_shape:
            require_count("network.input_shape entry", extent)
        if not self.layers or not isinstance(self.layers[-1], FullyConnected):
            raise ConfigurationError("the last descriptor must be fully connected")
        if self.layers[-1].units != self.num_classes:
            raise ConfigurationError(
                f"output layer has {self.layers[-1].units} units but num_classes is {self.num_classes}"
            )
        self.stages  # compiling the stages validates conv/pool arithmetic up front

    def feature_shapes(self) -> list:
        """Shape of the feature map after each descriptor."""
        shape = self.input_shape
        shapes = []
        for layer in self.layers:
            if isinstance(layer, Conv):
                if len(shape) != 3:
                    raise ConfigurationError(f"conv needs a (C,H,W) input, got {shape}")
                ho = numerics.conv_output_extent(shape[1], layer.kernel, layer.stride, layer.padding)
                wo = numerics.conv_output_extent(shape[2], layer.kernel, layer.stride, layer.padding)
                shape = (layer.out_channels, ho, wo)
            elif isinstance(layer, AvgPool):
                if len(shape) != 3:
                    raise ConfigurationError(f"avgpool needs a (C,H,W) input, got {shape}")
                if shape[1] % layer.window or shape[2] % layer.window:
                    raise ConfigurationError(
                        f"pool window {layer.window} does not divide feature map {shape[1:]}"
                    )
                shape = (shape[0], shape[1] // layer.window, shape[2] // layer.window)
            elif isinstance(layer, FullyConnected):
                shape = (layer.units,)
            shapes.append(shape)
        return shapes

    @cached_property
    def stages(self) -> tuple:
        """The weighted layers in network order, compiled once into Stage records."""
        shapes = [self.input_shape] + self.feature_shapes()
        stages, pre, counts = [], [], {"conv": 0, "fc": 0}
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, (Conv, FullyConnected)):
                pre.append((i, layer))
                continue
            operand = shapes[i]
            if isinstance(layer, Conv):
                weight_shape = (layer.out_channels, operand[0], layer.kernel, layer.kernel)
            else:
                weight_shape = (layer.units, math.prod(operand))
            kind = _KIND[type(layer)]
            counts[kind] += 1
            stages.append(Stage(layer, tuple(pre), operand, shapes[i + 1], weight_shape, f"{kind}{counts[kind]}"))
            pre = []
        return tuple(stages)

    def weight_shapes(self) -> list:
        """Kernel / matrix shape for each weighted layer, in network order."""
        return [s.weight_shape for s in self.stages]

    def neuron_counts(self) -> list:
        """Neuron count of each weighted layer's output."""
        return [math.prod(s.out_shape) for s in self.stages]

    def layer_names(self) -> list:
        return [s.name for s in self.stages]

    def to_dict(self) -> dict:
        out = []
        for layer in self.layers:
            d = {"type": _KIND[type(layer)]}
            d.update(vars(layer))
            out.append(d)
        return {
            "layers": out,
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "total_timesteps": self.total_timesteps,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        ctor = {"conv": Conv, "avgpool": AvgPool, "fc": FullyConnected, "dropout": Dropout}
        layers = []
        for entry in d["layers"]:
            entry = dict(entry)
            kind = entry.pop("type")
            if kind not in ctor:
                raise ConfigurationError(f"unknown layer type {kind!r}")
            layers.append(ctor[kind](**entry))
        return cls(**{**d, "layers": layers})


@dataclass
class TemporalTrace:
    """What backpropagation through time reads from a traced forward pass.

    Indexing: hidden weighted layers are 0..H-1 in network order; the output
    layer's membranes are kept separately. Each record over time is one
    time-major (T, B, ...) array, indexed [t-1] for step t. Direct coding
    feeds the first layer the same frame at every step, so that layer's input
    is one (B, ...) frame viewed at stride 0 over T. Of a hidden layer's
    state only the membrane is stored per step: ``norm_potentials``,
    ``reset_gates`` and ``hidden_spikes`` are derived from the membranes on
    access, through the step rule's own expressions, so they equal what the
    pass computed bit for bit. Only a train-mode pass records a trace, so it
    carries the dropout masks that pass applied, which BPTT reads.
    """

    spec: "NetworkSpec"
    neuron_model: str
    thresholds: list          # [hidden_idx] threshold the pass ran with
    layer_inputs: list        # [weighted_idx] (T, B) + operand_shape: input fed to that layer's weights
    membranes: list           # [hidden_idx] (T, B) + out_shape: membrane after the step
    output_membranes: np.ndarray  # (T, B, classes): output accumulator after the step
    dropout_masks: list       # per descriptor index, None when absent

    def rules(self):
        """The (gate, fire) pair of the neuron model the pass ran."""
        if self.neuron_model == SINGLE_SPIKE:
            return single_spike_gate, single_spike_fire
        return lif_gate, lif_fire

    def settled(self, h: int, t: int, rows: slice = slice(None)):
        """Hidden layer h's (membrane, norm potential) after step t over ``rows``; t = 0 is the reset state."""
        u = self.membranes[h][t - 1, rows] if t else np.zeros_like(self.membranes[h][0, rows])
        return u, norm_potential(u, self.thresholds[h])

    @property
    def norm_potentials(self) -> list:
        """[hidden_idx][t-1] membrane / threshold - 1 after the step."""
        return [[self.settled(h, t)[1] for t in range(1, len(m) + 1)] for h, m in enumerate(self.membranes)]

    @property
    def reset_gates(self) -> list:
        """[hidden_idx][t-1] reset gate used at that step (bool)."""
        gate, _ = self.rules()
        return [
            [gate(*self.settled(h, t - 1), self.thresholds[h]) for t in range(1, len(m) + 1)]
            for h, m in enumerate(self.membranes)
        ]

    @property
    def hidden_spikes(self) -> list:
        """[hidden_idx][t-1] spikes of that step, replayed through the has-spiked recurrence."""
        _, fire = self.rules()
        out = []
        for h, layer in enumerate(self.membranes):
            has_spiked = np.zeros(layer[0].shape, dtype=bool)
            out.append([])
            for t, u in enumerate(layer, 1):
                spikes = fire(*self.settled(h, t), self.thresholds[h], has_spiked)
                has_spiked = has_spiked | spikes
                out[h].append(spikes.astype(u.dtype))
        return out


@dataclass
class ActivityCounters:
    """Spike and accumulate-event tallies collected during infer-mode forwards.

    ``accumulate_events[l]`` counts weight accumulations actually triggered at
    weighted layer l: one per nonzero input element read, times that layer's
    per-read fan-out (output channels for conv, output units for fc). The
    reads are counted on the operand itself (``unfolded_nonzeros``), never on
    its im2col columns. The first layer's analog steps are not counted: the
    energy model charges the analog frame as one dense MAC pass.
    """

    spec: NetworkSpec
    samples: int = 0
    output_spikes: list = field(init=False)        # per hidden weighted layer
    accumulate_events: list = field(init=False)    # per weighted layer
    per_neuron_spikes: list | None = None

    def __post_init__(self):
        self.output_spikes = [0] * (len(self.spec.stages) - 1)
        self.accumulate_events = [0] * len(self.spec.stages)

    def track_per_neuron(self):
        self.per_neuron_spikes = [np.zeros((0,) + s.out_shape, dtype=np.int32) for s in self.spec.stages[:-1]]
        return self

    def add_samples(self, batch: int):
        """Count ``batch`` more samples; returns their zeroed per-neuron tally rows, or None if untracked.

        Each call appends the rows to every tally. A pass over an eval set makes
        one call per ``evaluate`` batch, so the copies stay few.
        """
        self.samples += batch
        if self.per_neuron_spikes is None:
            return None
        self.per_neuron_spikes = [
            np.concatenate([tally, np.zeros((batch,) + tally.shape[1:], dtype=np.int32)])
            for tally in self.per_neuron_spikes
        ]
        return [tally[len(tally) - batch :] for tally in self.per_neuron_spikes]


def check_params(spec: NetworkSpec, params: list):
    expected = spec.weight_shapes()
    got = [p.weights.shape for p in params]
    if got != expected:
        raise ConfigurationError(f"weight shapes {got} do not match the network's {expected}")


def sample_dropout_masks(spec: NetworkSpec, batch: int, rng, dtype):
    """One mask per dropout descriptor (None elsewhere), drawn in network order.

    The spiking forward pass holds each mask fixed across all T timesteps.
    """
    masks = [None] * len(spec.layers)
    feature = spec.feature_shapes()
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Dropout) and layer.rate > 0.0:
            if rng is None:
                raise ConfigurationError("training with dropout needs an RNG")
            shape = (batch,) + (feature[i - 1] if i else spec.input_shape)
            masks[i] = (rng.random(shape) >= layer.rate).astype(dtype)
    return masks


# -- per-stage ops ------------------------------------------------------------


def apply_pre(stage: Stage, x, masks):
    """Run the stage's pool/dropout descriptors; ``masks`` is None outside training."""
    for i, layer in stage.pre:
        if isinstance(layer, AvgPool):
            x = numerics.avgpool2d(x, layer.window)
        elif masks is not None and masks[i] is not None:
            x = x * masks[i] / (1.0 - layer.rate)
    return x


def pre_adjoint(stage: Stage, d, masks):
    """Carry an adjoint of the stage's operand input back through ``apply_pre``."""
    for i, layer in reversed(stage.pre):
        if isinstance(layer, AvgPool):
            d = numerics.avgpool2d_input_grad(d, layer.window)
        elif masks is not None and masks[i] is not None:
            d = d * masks[i] / (1.0 - layer.rate)
    return d


def unfold(stage: Stage, x):
    """What the weights read: im2col columns for a conv, the flattened input for an fc layer."""
    layer = stage.layer
    if isinstance(layer, Conv):
        return numerics.im2col(x, layer.kernel, layer.stride, layer.padding)
    return x.reshape(len(x), -1)


@functools.cache
def _column_counts(stage: Stage) -> np.ndarray:
    """How many im2col columns each position of a conv stage's (H, W) operand map appears in, flattened."""
    layer, (_, h, w) = stage.layer, stage.operand_shape
    ones = np.ones((1, layer.kernel**2, math.prod(stage.out_shape[1:])), dtype=np.int64)
    counts = numerics.col2im(ones, (1, 1, h, w), layer.kernel, layer.stride, layer.padding).ravel()
    counts.flags.writeable = False  # shared by every caller through the cache
    return counts


def unfolded_nonzeros(stage: Stage, x) -> int:
    """``np.count_nonzero(unfold(stage, x))``, counted on ``x`` without unfolding it.

    A conv's columns copy each input entry once per column it appears in, a fixed (H, W) map of
    counts, and read zeros from the padding; an fc layer's operand is only flattened.
    """
    if isinstance(stage.layer, Conv):
        counts = _column_counts(stage)
        return int((x != 0).reshape(-1, counts.size).sum(0) @ counts)
    return int(np.count_nonzero(x))


def current(stage: Stage, weights, unfolded):
    """Synaptic current from the stage's unfolded operand."""
    if isinstance(stage.layer, Conv):
        return numerics.conv_from_cols(weights, unfolded, stage.out_shape[1:])
    return unfolded @ weights.T


def input_current(stage: Stage, weights, x):
    """Synaptic current straight from the operand input; a conv's columns are not kept."""
    layer = stage.layer
    if isinstance(layer, Conv):
        return numerics.conv2d(x, weights, layer.stride, layer.padding)
    return current(stage, weights, unfold(stage, x))


def weight_grad(stage: Stage, d_out, unfolded):
    """Weight gradient summed over the batch, from the output adjoint and the unfolded operand."""
    if isinstance(stage.layer, Conv):
        return numerics.conv2d_weight_grad(d_out, unfolded).reshape(stage.weight_shape)
    return d_out.T @ unfolded


def input_adjoint(stage: Stage, weights, d_out):
    """Adjoint of the stage's operand input, shaped like that input."""
    layer = stage.layer
    shape = (len(d_out),) + stage.operand_shape
    if isinstance(layer, Conv):
        return numerics.conv2d_input_grad(d_out, weights, shape, layer.stride, layer.padding)
    return (d_out.reshape(len(d_out), -1) @ weights).reshape(shape)


# -- the T-timestep pass ------------------------------------------------------

# Bytes of im2col columns that one block of samples may hold in the conv prefix of
# ``forward`` and of BPTT: the largest conv stage's columns for a block fit in a core's L2 cache.
BUDGET = 2 << 20


def conv_blocks(spec: NetworkSpec, batch: int, dtype):
    """The number of conv stages and the blocks of sample rows they run in.

    The conv stages are always a prefix of the stack, since an fc layer flattens. A block holds
    as many samples as the largest conv stage's im2col columns fit in ``BUDGET``, and at least one.
    """
    stages = spec.stages
    split = next(i for i, s in enumerate(stages) if isinstance(s.layer, FullyConnected))
    if not split:
        return 0, []
    itemsize = np.dtype(dtype).itemsize
    col_bytes = max(math.prod(s.weight_shape[1:]) * math.prod(s.out_shape[1:]) * itemsize for s in stages[:split])
    block = max(1, BUDGET // col_bytes)
    return split, [slice(lo, min(lo + block, batch)) for lo in range(0, batch, block)]


def forward(
    spec: NetworkSpec,
    params: list,
    encoded: SpikeInputSequence,
    mode: str = INFER,
    rng=None,
    neuron_model: str = SINGLE_SPIKE,
    counters: ActivityCounters | None = None,
):
    """Run the full T-timestep pass for a batch of samples.

    The encoded arrays carry a leading batch axis in front of
    spec.input_shape; one sample is a batch of one. Returns (OutputState,
    TemporalTrace), and the trace is None unless ``mode`` is TRAIN.

    The conv stages, always a prefix of the stack since an fc layer flattens,
    run block-major: one block of samples goes through all T steps, with its
    own neuron states and held analog-frame current, before the next block
    starts, so its states, currents and columns stay in cache. Each block
    writes its rows of the first fc stage's operand (and of the trace) into
    time-major (T, B, ...) arrays, and the fc tail then runs time-major on
    the whole batch. This gives the bits of a time-major pass over the whole
    batch: a conv current is a per-sample batched matmul, pooling, dropout
    and neuron steps are elementwise, counters are integer sums, and the fc
    GEMMs keep their row count.

    ``counters`` count each step's accumulate events on the operand before it
    is unfolded (``unfolded_nonzeros``), and hidden spikes on an integer view.
    """
    check_params(spec, params)
    if encoded.total_timesteps != spec.total_timesteps:
        raise ConfigurationError(
            f"encoded input has T={encoded.total_timesteps}, spec expects {spec.total_timesteps}"
        )
    pixel_shape = tuple(encoded.pixel_shape)
    if len(pixel_shape) != len(spec.input_shape) + 1 or pixel_shape[1:] != spec.input_shape:
        raise ConfigurationError(f"input shape {pixel_shape} is not a batch of the spec's {spec.input_shape}")
    batch = pixel_shape[0]
    if batch == 0:
        raise ContractViolation("forward needs at least one sample")

    train = mode == TRAIN
    dtype = params[0].weights.dtype
    masks = sample_dropout_masks(spec, batch, rng, dtype) if train else [None] * len(spec.layers)

    stages = spec.stages
    n_hidden = len(stages) - 1
    total_t = spec.total_timesteps
    step = single_spike_step if neuron_model == SINGLE_SPIKE else lif_step
    analog_steps = encoded.analog_steps
    repeats = len(analog_steps) == total_t  # direct coding: the first layer reads one frame at every step
    split, blocks = conv_blocks(spec, batch, dtype)

    def over_time(shape, repeated=False):
        """A (T, batch) + shape array; a repeated one is a single frame viewed at stride 0 over T."""
        if not repeated:
            return np.empty((total_t, batch) + shape, dtype=dtype)
        frame = np.empty((batch,) + shape, dtype=dtype)
        return np.lib.stride_tricks.as_strided(frame, (total_t,) + frame.shape, (0,) + frame.strides)

    trace = None
    if train:
        trace = TemporalTrace(
            spec=spec,
            neuron_model=neuron_model,
            thresholds=[p.threshold for p in params[:n_hidden]],
            layer_inputs=[over_time(s.operand_shape, i == 0 and repeats) for i, s in enumerate(stages)],
            membranes=[over_time(s.out_shape) for s in stages[:n_hidden]],
            output_membranes=over_time((spec.num_classes,)),
            dropout_masks=masks,
        )
        operands = trace.layer_inputs[split]
    else:
        operands = over_time(stages[split].operand_shape) if split else None
    # operands[t - 1] is the first fc stage's operand at step t, written block by block by the conv prefix
    tallies = None if counters is None else counters.add_samples(batch)

    def run(first, last, rows):
        """Stages first..last-1 over the samples in ``rows``, all T steps; returns the output state, if reached."""
        n = rows.stop - rows.start
        states = {i: NeuronState.zeros((n,) + stages[i].out_shape, dtype=dtype) for i in range(first, min(last, n_hidden))}
        out_state = OutputState.zeros((n, spec.num_classes), dtype=dtype)
        rows_masks = [None if m is None else m[rows] for m in masks]
        for t in range(1, total_t + 1):
            for i in range(first, last):
                stage, p = stages[i], params[i]
                if i == 0 and repeats and t > 1:
                    drive = held  # the frame repeats, and the trace's stride-0 frame already holds it
                else:
                    if i == 0:
                        x = np.asarray(encoded.input_at(t)[rows], dtype=dtype)
                    if i == first and i:
                        x = operands[t - 1]  # pooled and masked by the conv prefix, and traced there
                    else:
                        x = apply_pre(stage, x, rows_masks)
                        if train:
                            trace.layer_inputs[i][t - 1, rows] = x
                    if counters is not None and (i or t not in analog_steps):
                        counters.accumulate_events[i] += unfolded_nonzeros(stage, x) * p.weights.shape[0]
                    drive = current(stage, p.weights, unfold(stage, x))
                    if i == 0 and repeats:
                        held = drive

                if i == n_hidden:
                    out_state = output_step(out_state, p, drive, t, total_t)
                    if train:
                        trace.output_membranes[t - 1] = out_state.membrane
                    continue
                # A trace keeps every step's membrane, so a traced pass writes it into the trace and
                # overwrites the rest of the state. An untraced pass overwrites the whole state, but only
                # from step 2 on: allocated while step 1's currents are live, the state sits above each
                # step's temporaries in the heap, so freeing them does not hand the heap top back to
                # the OS to be faulted in again at the next step.
                state = states[i]
                if train:
                    out = NeuronState(trace.membranes[i][t - 1, rows], state.norm_potential, state.has_spiked)
                else:
                    out = state if t > 1 else None
                states[i], spikes = step(state, p, drive, out=out)
                if counters is not None:
                    # spikes are 0.0 or 1.0: their integer view is nonzero where they are, and counts faster
                    counters.output_spikes[i] += int(np.count_nonzero(spikes.view(f"i{spikes.itemsize}")))
                    if tallies is not None:
                        tallies[i][rows] += spikes.astype(np.int32)
                x = spikes
            if last < len(stages):
                operands[t - 1, rows] = apply_pre(stages[last], x, rows_masks)
        return out_state

    for rows in blocks:
        run(0, split, rows)
    return run(split, len(stages), slice(0, batch)), trace


def readout_scores(output_state: OutputState) -> np.ndarray:
    """Combined decision score per class: final membrane minus spike time.

    This is the log of the product of the two loss softmaxes up to a shared
    constant, so argmax of it is the loss-consistent prediction.
    """
    return output_state.membrane - output_state.spike_time.astype(np.float64)


def predict(output_state: OutputState) -> np.ndarray:
    """Class decision with deterministic lowest-index tie-breaking."""
    return np.argmax(readout_scores(output_state), axis=-1)


def evaluate(
    spec: NetworkSpec,
    params: list,
    images: np.ndarray,
    labels: np.ndarray,
    encode,
    neuron_model: str = SINGLE_SPIKE,
    counters: ActivityCounters | None = None,
) -> float:
    """Infer-mode accuracy (percent) over a labelled image set, 128 images per forward pass.

    ``encode`` maps an image batch to a SpikeInputSequence; activity counters
    are filled in when supplied.
    """
    if len(images) == 0:
        raise ContractViolation("evaluate needs at least one sample")
    hits = 0
    batch = 128
    for s in range(0, len(images), batch):
        encoded = encode(images[s : s + batch])
        out, _ = forward(spec, params, encoded, mode=INFER, neuron_model=neuron_model, counters=counters)
        hits += int((predict(out) == labels[s : s + batch]).sum())
    return 100.0 * hits / len(images)

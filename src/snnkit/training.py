"""Spike-timing-dependent training: hybrid loss, BPTT gradients, optimizer.

The loss couples two softmaxes, one over the output layer's accumulated
membrane and one over the negated spike times. Weight updates for the output
layer follow the exact membrane path; the output threshold is trained
through a boxcar approximation of the spike-time derivative; hidden-layer
weights, thresholds, and leaks are trained with the triangular surrogate,
applied per timestep, while the membrane adjoint carried backward in time
(through the leak term) drives the propagation into lower layers. The gate
booleans (reset and spike history) are constants during backprop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import network
from .errors import ContractViolation, TrainingError, require, require_count
from .network import SINGLE_SPIKE, TRAIN, NetworkSpec, TemporalTrace, evaluate, forward
from .neuron import LayerParams, OutputState, surrogate_grad


@dataclass
class TrainConfig:
    lr: float = 1e-4
    lr_decay: float = 0.1
    lr_decay_every: int = 10
    surrogate_gain: float = 0.3
    spike_time_band: float = 0.2
    epochs: int = 20
    batch_size: int = 32
    threshold_floor: float = 1e-3
    # Relative step sizes for the shared per-layer threshold and leak. Their
    # gradients are sums over every neuron in a layer, so they move orders of
    # magnitude faster than individual weights at the same rate; scaling them
    # down keeps the joint optimization stable when the weight rate is raised.
    threshold_lr_scale: float = 1.0
    leak_lr_scale: float = 1.0
    # Return the parameters from the best-evaluating epoch instead of the last.
    keep_best: bool = False

    def __post_init__(self):
        for name in ("epochs", "batch_size", "lr_decay_every"):
            require_count(f"snn_train.{name}", getattr(self, name))
        for name in ("lr", "surrogate_gain", "spike_time_band", "threshold_floor"):
            require(f"snn_train.{name}", getattr(self, name), getattr(self, name) > 0, "positive")
        for name in ("threshold_lr_scale", "leak_lr_scale"):
            require(f"snn_train.{name}", getattr(self, name), getattr(self, name) >= 0, "non-negative")
        require("snn_train.lr_decay", self.lr_decay, 0 < self.lr_decay <= 1, "in (0, 1]")


@dataclass
class HybridLossResult:
    """Loss value with both softmaxes and their one-hot-residual gradients."""

    loss: float
    u_softmax: np.ndarray
    t_softmax: np.ndarray
    grad_u: np.ndarray
    grad_t: np.ndarray
    per_sample: np.ndarray


@dataclass
class GradientSet:
    """Per-weighted-layer gradients, batch-averaged."""

    weight: list
    threshold: list
    leak: list


def _log_softmax(v: np.ndarray) -> np.ndarray:
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def hybrid_loss(output: OutputState, label_onehot: np.ndarray) -> HybridLossResult:
    """Cross entropy over the product of membrane and spike-time softmaxes."""
    if np.any(output.spike_time < 1):
        raise ContractViolation("output spike times are not fully populated; run all T steps first")
    y = np.asarray(label_onehot, dtype=np.float64)
    u = np.asarray(output.membrane, dtype=np.float64)
    t = np.asarray(output.spike_time, dtype=np.float64)
    log_u = _log_softmax(u)
    log_t = _log_softmax(-t)
    per_sample = -(y * (log_u + log_t)).sum(axis=-1)
    u_soft = np.exp(log_u)
    t_soft = np.exp(log_t)
    return HybridLossResult(
        loss=float(per_sample.mean()),
        u_softmax=u_soft,
        t_softmax=t_soft,
        grad_u=u_soft - y,
        grad_t=t_soft - y,
        per_sample=per_sample,
    )


def _heaviside(x: np.ndarray) -> np.ndarray:
    return (x > 0).astype(np.float64)


def spike_time_threshold_grad(output_membranes: np.ndarray, threshold: float, band: float, total_timesteps: int) -> np.ndarray:
    """Boxcar approximation of d(spike time)/d(threshold) for the output layer.

    ``output_membranes`` is the trace's (T, B, classes) array, indexed [t-1]
    for step t. Sums t * (H(a) * (|b| < band) - H(b) * (|a| < band)) over
    t = 1..T-1 with a = U^t - V and b = V - U^{t-1}, plus T * (|V - U^T| < band)
    for the forced-fire step.
    """
    if len(output_membranes) != total_timesteps:
        raise ContractViolation("need one recorded output membrane per timestep")
    v = float(threshold)
    u_prev = np.zeros_like(np.asarray(output_membranes[0], dtype=np.float64))
    acc = np.zeros_like(u_prev)
    for t in range(1, total_timesteps):
        u_t = np.asarray(output_membranes[t - 1], dtype=np.float64)
        a = u_t - v
        b = v - u_prev
        acc += t * (_heaviside(a) * (np.abs(b) < band) - _heaviside(b) * (np.abs(a) < band))
        u_prev = u_t
    c = v - np.asarray(output_membranes[-1], dtype=np.float64)
    acc += total_timesteps * (np.abs(c) < band)
    return acc


def _loss_batch(trace: TemporalTrace, loss: HybridLossResult) -> int:
    """The number of samples the loss covers, which must be the trace's."""
    batch = len(loss.grad_u)
    traced = trace.output_membranes.shape[1]
    if batch != traced:
        raise ContractViolation(f"the loss covers {batch} samples but the trace {traced}")
    return batch


def output_layer_grads(trace: TemporalTrace, loss: HybridLossResult, params: list, band: float):
    """Exact-path weight gradient and boxcar threshold gradient for the output layer."""
    batch = _loss_batch(trace, loss)
    last = len(params) - 1
    stage = trace.spec.stages[last]
    x_sum = sum(network.unfold(stage, x) for x in trace.layer_inputs[last])
    d_weights = network.weight_grad(stage, loss.grad_u, x_sum) / batch
    dtdv = spike_time_threshold_grad(trace.output_membranes, params[last].threshold, band, trace.spec.total_timesteps)
    d_threshold = float((loss.grad_t * dtdv).sum() / batch)
    return d_weights.astype(params[last].weights.dtype), d_threshold


def _sweep(
    trace: TemporalTrace, params: list, config: TrainConfig, grads: GradientSet, layers, rows: slice, upper: list, buffers
):
    """BPTT over the hidden ``layers``, top down, for the samples in ``rows``, steps T..1.

    ``upper[t-1]`` is the adjoint of the operand input of the layer above the
    first one at step t, over ``rows``. Each layer's weight, threshold and
    leak terms are added into ``grads`` as batch sums; returns the last
    layer's per-step input adjoints. A conv layer's columns go into the
    column buffer in ``buffers`` when that is not None.
    """
    stages = trace.spec.stages
    total_t = trace.spec.total_timesteps
    masks = network.mask_rows(trace.dropout_masks, rows)
    gate_of, _ = trace.rules()
    for h in layers:
        stage, above, p = stages[h], stages[h + 1], params[h]
        v = float(p.threshold)
        # the membrane adjoint of the step after the one swept; nothing reads the first layer's input
        # adjoint, and so neither its membrane adjoint
        d_membrane = np.zeros((rows.stop - rows.start,) + stage.out_shape, dtype=p.weights.dtype) if h else None
        input_deltas = [None] * total_t
        inputs = trace.layer_inputs[h]
        cols = None  # kept over the steps only while the input repeats: a stride-0 frame (direct coding)
        u_t, z_t = trace.settled(h, total_t, rows)

        for t in range(total_t, 0, -1):
            d_spikes = network.pre_adjoint(above, upper[t - 1], masks)
            d_z = d_spikes * surrogate_grad(z_t, config.surrogate_gain)
            d_zv = d_z / v

            u_prev, z_prev = trace.settled(h, t - 1, rows)  # the state step t started from
            gate = gate_of(u_prev, z_prev, trace.thresholds[h]).astype(d_z.dtype)

            if cols is None:
                cols = network.unfold(stage, inputs[t - 1, rows], buffers)
            grads.weight[h] += network.weight_grad(stage, d_zv, cols)
            if inputs.strides[0]:
                cols = None
            if h:
                d_membrane = d_zv + p.leak * d_membrane
                input_deltas[t - 1] = network.input_adjoint(stage, p.weights, d_membrane)

            grads.threshold[h] += float((d_z * (-v * gate - u_t)).sum() / (v * v))
            grads.leak[h] += float((d_z * u_prev).sum() / v)
            u_t, z_t = u_prev, z_prev
        upper = input_deltas
    return upper


def bptt_hidden_grads(
    trace: TemporalTrace, params: list, loss: HybridLossResult, config: TrainConfig, buffers=None
) -> GradientSet:
    """Hidden-layer gradients via backpropagation through time.

    For each hidden layer the per-timestep adjoint of the spike output is
    converted through the surrogate into a z-adjoint; parameter gradients
    use that local z-adjoint, while the membrane adjoint (z-adjoint / V plus
    the leak-carried future term) is what flows down to the layer below.

    The walk mirrors ``forward`` in reverse: one sweep runs the fc stages on
    the whole batch, then one sweep per sample block of the conv prefix
    (``network.conv_blocks``) runs that block through every conv stage and
    steps T..1 before the next block starts. With one block the sums are
    those of a whole-batch pass, bit for bit. With several, a conv stage's
    gradients are summed block after block, which changes their rounding.
    ``buffers`` (a ``network.Buffers``) holds the column buffer the conv stages share.
    """
    batch = _loss_batch(trace, loss)
    n_hidden = len(params) - 1
    split, blocks = network.conv_blocks(trace.spec, batch, params[0].weights.dtype)
    sums = GradientSet([np.zeros_like(p.weights) for p in params[:n_hidden]], [0.0] * n_hidden, [0.0] * n_hidden)

    # Adjoint of the output layer's operand input: the output accumulator makes it the same at every step.
    grad_u = loss.grad_u.astype(params[-1].weights.dtype, copy=False)
    upper = [network.input_adjoint(trace.spec.stages[-1], params[-1].weights, grad_u)] * trace.spec.total_timesteps
    upper = _sweep(trace, params, config, sums, range(n_hidden - 1, split - 1, -1), slice(0, batch), upper, buffers)
    for rows in blocks:
        _sweep(trace, params, config, sums, range(split - 1, -1, -1), rows, [d[rows] for d in upper], buffers)
    for g in sums.weight:
        g /= batch
    return GradientSet(sums.weight, [g / batch for g in sums.threshold], [g / batch for g in sums.leak])


def backward(trace: TemporalTrace, params: list, loss: HybridLossResult, config: TrainConfig, buffers=None) -> GradientSet:
    """Full gradient set: hidden layers via BPTT plus the output layer paths; ``buffers`` as in ``bptt_hidden_grads``."""
    hidden = bptt_hidden_grads(trace, params, loss, config, buffers)
    d_w_out, d_v_out = output_layer_grads(trace, loss, params, config.spike_time_band)
    return GradientSet(
        weight=hidden.weight + [d_w_out],
        threshold=hidden.threshold + [d_v_out],
        leak=hidden.leak + [0.0],  # output accumulator has no leak
    )


def lr_at(config: TrainConfig, epoch: int) -> float:
    return config.lr * config.lr_decay ** (epoch // config.lr_decay_every)


def optimizer_step(params: list, grads: GradientSet, config: TrainConfig, epoch: int) -> list:
    """One SGD update of weights, thresholds, and leaks.

    Thresholds are floored at ``threshold_floor``; hidden leaks are clamped to [0, 1].
    """
    for g in grads.weight:
        if not np.all(np.isfinite(g)):
            raise TrainingError("non-finite weight gradient")
    if not all(math.isfinite(g) for g in grads.threshold + grads.leak):
        raise TrainingError("non-finite threshold or leak gradient")

    lr = lr_at(config, epoch)
    out = []
    last = len(params) - 1
    for i, p in enumerate(params):
        w = (p.weights - lr * grads.weight[i]).astype(p.weights.dtype, copy=False)
        v = max(p.threshold - lr * config.threshold_lr_scale * grads.threshold[i], config.threshold_floor)
        if i == last:
            leak = p.leak
        else:
            leak = p.leak - lr * config.leak_lr_scale * grads.leak[i]
            leak = min(max(leak, 0.0), 1.0)
        out.append(LayerParams(weights=w, threshold=float(v), leak=float(leak)))
    return out


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return np.eye(num_classes, dtype=np.float64)[np.asarray(labels)]


def train_snn(
    spec: NetworkSpec,
    params: list,
    images: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    encode,
    rng: np.random.Generator,
    neuron_model: str = SINGLE_SPIKE,
    score=None,
):
    """Fine-tune converted parameters with the hybrid loss over T timesteps.

    ``encode`` maps an image batch to a SpikeInputSequence. After each epoch
    ``score(params, count)`` gives a tuple led by the test accuracy, counting
    activity only after the last. History keeps the mean train losses, the
    scored accuracies, and the returned (last or best) epoch's ``"score"``.

    The batches of an epoch share one ``network.Buffers``: each forward pass
    writes its trace and its conv stages' im2col columns into the arrays the
    previous batch used, and BPTT unfolds into the same column buffer, so the
    heap does not shrink and regrow (and fault its pages in again) between
    batches. The buffers are dropped before the epoch is scored. The given
    ``params`` are not kept once the first step has replaced them, nor is a
    batch's gradient set once its step is taken.
    """
    params = list(params)
    n = len(images)
    history = {"loss": [], "accuracy": [], "score": None}
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        buffers = network.Buffers()
        for s in range(0, n, config.batch_size):
            idx = order[s : s + config.batch_size]
            encoded = encode(images[idx])
            out, trace = forward(spec, params, encoded, mode=TRAIN, rng=rng, neuron_model=neuron_model, buffers=buffers)
            loss = hybrid_loss(out, one_hot(labels[idx], spec.num_classes))
            if not math.isfinite(loss.loss):
                raise TrainingError(f"SNN training diverged at epoch {epoch}: loss={loss.loss}")
            grads = backward(trace, params, loss, config, buffers)
            del trace  # its records view ``buffers``: the epoch's end frees both
            params = optimizer_step(params, grads, config, epoch)
            del grads  # not kept through the next batch's forward pass
            losses.append(loss.loss)
        del buffers  # the scoring pass runs without this epoch's training buffers
        history["loss"].append(float(np.mean(losses)))
        if score is not None:
            scored = score(params, epoch == config.epochs - 1)
            history["accuracy"].append(scored[0])
            if not (config.keep_best and history["score"] and scored[0] <= history["score"][0]):
                history["score"], best = scored, params
    return (best if history["score"] else params), history

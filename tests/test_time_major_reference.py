"""Bit-exact guard for the layer-stack executor.

``reference_forward`` and ``reference_backward`` are a compact copy of the
time-major walk as it stood before the stage table: every timestep runs the
whole descriptor list (pool, dropout, conv, fc) in order, and BPTT carries
the per-timestep adjoints back through the descriptors between weighted
layers. The two hidden-neuron rules are kept as they were before they read
their reset from the state alone: the multi-spike rule takes the previous
spikes as an argument, and the single-spike rule freezes a fired neuron in
infer mode. ``network.forward`` and ``training.backward`` must reproduce
them bit for bit: membranes, spike times, activity counters, dropout masks,
and threshold and leak gradients, also when the conv prefix runs in blocks
of fewer samples than the batch. BPTT walks those blocks too and sums a conv
stage's gradients block after block, so with several blocks a conv stage's
threshold and leak gradients must agree to ``TERMS_RTOL`` of the sum of the
absolute values of their terms; the fc stages' keep their bits. The
reference sums each weight gradient with per-step einsums;
``network.weight_grad`` sums in another order through BLAS, so weight
gradients must agree to ``WEIGHT_GRAD_RTOL`` of the layer's largest gradient
entry, with dtype and shape equal.
"""

import math

import numpy as np
import pytest

from snnkit import network, numerics, training
from snnkit.encoding import DIRECT, HYBRID, IntensityRange, encode_direct, encode_hybrid
from snnkit.network import (
    INFER,
    MULTI_SPIKE,
    SINGLE_SPIKE,
    TRAIN,
    ActivityCounters,
    AvgPool,
    Conv,
    Dropout,
    FullyConnected,
    NetworkSpec,
)
from snnkit.neuron import LayerParams, NeuronState, OutputState, output_step, surrogate_grad

T = 5
BATCH = 32
WEIGHT_GRAD_RTOL = 1e-6
TERMS_RTOL = 1e-6


def reference_lif_step(state, params, current, prev_spikes):
    v = params.threshold
    u = params.leak * state.membrane + current - v * np.asarray(prev_spikes, dtype=state.membrane.dtype)
    spikes = u > v
    return NeuronState(u, u / v - 1.0, state.has_spiked | spikes), spikes.astype(u.dtype)


def reference_single_spike_step(state, params, current, mode):
    v = params.threshold
    gate = state.norm_potential > 0
    u = params.leak * state.membrane + current - v * gate.astype(state.membrane.dtype)
    z = u / v - 1.0
    spikes = (z > 0) & ~state.has_spiked
    if mode == INFER:
        u = np.where(state.has_spiked, state.membrane, u)
        z = np.where(state.has_spiked, state.norm_potential, z)
    return NeuronState(u, z, state.has_spiked | spikes), spikes.astype(u.dtype)


def reference_forward(spec, params, encoded, mode, rng, neuron_model, counters=None):
    """Time-major forward pass over the descriptor list; returns (output state, record)."""
    batch = encoded.pixel_shape[0]
    dtype = params[0].weights.dtype
    feature = [tuple(spec.input_shape)] + spec.feature_shapes()
    widx = [i for i, l in enumerate(spec.layers) if isinstance(l, (Conv, FullyConnected))]
    masks = [None] * len(spec.layers)
    if mode == TRAIN:
        for i, layer in enumerate(spec.layers):
            if isinstance(layer, Dropout) and layer.rate > 0.0:
                masks[i] = (rng.random((batch,) + feature[i]) >= layer.rate).astype(dtype)
    hidden = [NeuronState.zeros((batch,) + feature[i + 1], dtype=dtype) for i in widx[:-1]]
    prev = [np.zeros_like(s.membrane) for s in hidden]
    out = OutputState.zeros((batch, spec.num_classes), dtype=dtype)
    rec = {k: [[] for _ in widx] for k in ("inputs", "membranes", "z", "gates", "spikes")}
    rec["out"], rec["masks"] = [], masks
    if counters is not None:
        counters.samples += batch
        for h in range(len(hidden)):
            counters.per_neuron_spikes[h] = np.zeros((batch,) + feature[widx[h] + 1], np.int32)
    for t in range(1, spec.total_timesteps + 1):
        x = np.asarray(encoded.input_at(t), dtype=dtype)
        w = 0
        for li, layer in enumerate(spec.layers):
            if isinstance(layer, AvgPool):
                x = numerics.avgpool2d(x, layer.window)
                continue
            if isinstance(layer, Dropout):
                if masks[li] is not None:
                    x = x * masks[li] / (1.0 - layer.rate)
                continue
            if isinstance(layer, Conv):
                cols = numerics.im2col(x, layer.kernel, layer.stride, layer.padding)
                current = numerics.conv_from_cols(params[w].weights, cols, feature[li + 1][1:])
                events = int(np.count_nonzero(cols)) * layer.out_channels
            else:
                flat = x.reshape(batch, -1)
                current = flat @ params[w].weights.T
                events = int(np.count_nonzero(flat)) * layer.units
            if counters is not None:
                if w == 0 and encoded.mode in (HYBRID, DIRECT):
                    if t > 1 and encoded.mode == HYBRID:
                        counters.accumulate_events[0] += events
                else:
                    counters.accumulate_events[w] += events
            rec["inputs"][w].append(x)
            if w == len(widx) - 1:
                out = output_step(out, params[w], current, t, spec.total_timesteps)
                rec["out"].append(out.membrane)
                continue
            if neuron_model == SINGLE_SPIKE:
                rec["gates"][w].append(hidden[w].norm_potential > 0)
                hidden[w], spikes = reference_single_spike_step(hidden[w], params[w], current, mode)
            else:
                rec["gates"][w].append(prev[w] > 0)
                hidden[w], spikes = reference_lif_step(hidden[w], params[w], current, prev[w])
                prev[w] = spikes
            rec["membranes"][w].append(hidden[w].membrane)
            rec["z"][w].append(hidden[w].norm_potential)
            rec["spikes"][w].append(spikes)
            if counters is not None:
                counters.output_spikes[w] += int(np.count_nonzero(spikes))
                counters.per_neuron_spikes[w] += spikes.astype(np.int32)
            x = spikes
            w += 1
    return out, rec


def reference_backward(spec, params, rec, loss, config):
    """Hidden-layer BPTT and the output-layer paths.

    Returns (weights, thresholds, leaks, scales): ``scales`` holds, per hidden
    layer, the batch-averaged sums of the absolute values of the threshold
    and of the leak terms, the sizes that ``TERMS_RTOL`` is relative to.
    """
    widx = [i for i, l in enumerate(spec.layers) if isinstance(l, (Conv, FullyConnected))]
    total_t = spec.total_timesteps
    batch = loss.grad_u.shape[0]
    grad_u = loss.grad_u.astype(params[-1].weights.dtype)
    upper = [(grad_u @ params[-1].weights).reshape(rec["inputs"][-1][0].shape)] * total_t
    upper_li = widx[-1]
    d_ws, d_vs, d_leaks, scales = [], [], [], []
    for h in range(len(widx) - 2, -1, -1):
        for li in range(upper_li - 1, widx[h], -1):
            layer = spec.layers[li]
            if isinstance(layer, Dropout) and rec["masks"][li] is not None:
                upper = [d * rec["masks"][li] / (1.0 - layer.rate) for d in upper]
            elif isinstance(layer, AvgPool):
                upper = [numerics.avgpool2d_input_grad(d, layer.window) for d in upper]
        layer, p = spec.layers[widx[h]], params[h]
        v = float(p.threshold)
        d_w, d_v, d_leak, scale_v, scale_leak = np.zeros_like(p.weights), 0.0, 0.0, 0.0, 0.0
        d_next = np.zeros_like(rec["membranes"][h][0])
        below = [None] * total_t
        for t in range(total_t, 0, -1):
            d_z = upper[t - 1] * surrogate_grad(rec["z"][h][t - 1], config.surrogate_gain)
            d_m = d_z / v + p.leak * d_next
            x = rec["inputs"][h][t - 1]
            u = rec["membranes"][h][t - 1]
            u_prev = rec["membranes"][h][t - 2] if t > 1 else np.zeros_like(u)
            if isinstance(layer, Conv):
                cols = numerics.im2col(x, layer.kernel, layer.stride, layer.padding)
                d_out = (d_z / v).reshape(batch, layer.out_channels, -1)
                d_w += np.einsum("bol,bil->oi", d_out, cols).reshape(p.weights.shape)
                below[t - 1] = numerics.conv2d_input_grad(d_m, p.weights, x.shape, layer.stride, layer.padding)
            else:
                d_w += np.einsum("bo,bf->of", (d_z / v).reshape(batch, -1), x.reshape(batch, -1))
                below[t - 1] = (d_m.reshape(batch, -1) @ p.weights).reshape(x.shape)
            gate = rec["gates"][h][t - 1].astype(d_z.dtype)
            d_v += float((d_z * (-v * gate - u)).sum() / (v * v))
            d_leak += float((d_z * u_prev).sum() / v)
            scale_v += float(np.abs(d_z * (-v * gate - u)).sum() / (v * v))
            scale_leak += float(np.abs(d_z * u_prev).sum() / v)
            d_next = d_m
        d_ws.insert(0, d_w / batch)
        d_vs.insert(0, d_v / batch)
        d_leaks.insert(0, d_leak / batch)
        scales.insert(0, (scale_v / batch, scale_leak / batch))
        upper, upper_li = below, widx[h]
    x_sum = np.zeros_like(rec["inputs"][-1][0].reshape(batch, -1))
    for x in rec["inputs"][-1]:
        x_sum += x.reshape(batch, -1)
    d_ws.append((np.einsum("bn,bf->nf", loss.grad_u, x_sum) / batch).astype(params[-1].weights.dtype))
    dtdv = training.spike_time_threshold_grad(rec["out"], params[-1].threshold, config.spike_time_band, total_t)
    d_vs.append(float((loss.grad_t * dtdv).sum() / batch))
    return d_ws, d_vs, d_leaks + [0.0], scales


def stack_spec():
    """Padding, stride 2, pooling, and dropout in front of a conv and both fc layers.

    The dropout scaling makes the fc inputs non-binary, so a weight gradient
    that sums in another order shows up in the low bits.
    """
    return NetworkSpec(
        layers=(
            Conv(4, 3, padding=1),
            AvgPool(2),
            Dropout(0.25),
            Conv(6, 2, stride=2),
            Dropout(0.3),
            FullyConnected(12),
            Dropout(0.2),
            FullyConnected(3),
        ),
        input_shape=(2, 8, 8),
        num_classes=3,
        total_timesteps=T,
    )


def setup(encoding):
    rng = np.random.default_rng(17)
    spec = stack_spec()
    thresholds = (0.6, 0.5, 0.5, 0.8)
    params = [
        LayerParams(rng.normal(0.15, 0.6, s).astype(np.float32), v, 0.9)
        for s, v in zip(spec.weight_shapes(), thresholds)
    ]
    images = rng.random((BATCH,) + spec.input_shape).astype(np.float32)
    encoded = encode_hybrid(images, IntensityRange(0.0, 1.0), T) if encoding == HYBRID else encode_direct(images, T)
    labels = training.one_hot(rng.integers(0, 3, BATCH), 3)
    return spec, params, encoded, labels


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


CASES = [(e, m) for e in (HYBRID, DIRECT) for m in (SINGLE_SPIKE, MULTI_SPIKE)]


def check_train(encoding, neuron_model, blocked):
    """A traced pass and its gradients against the reference; ``blocked`` when BPTT's conv prefix runs in blocks."""
    spec, params, encoded, labels = setup(encoding)
    config = training.TrainConfig()
    ref_out, rec = reference_forward(spec, params, encoded, TRAIN, np.random.default_rng(3), neuron_model)
    out, trace = network.forward(spec, params, encoded, mode=TRAIN, rng=np.random.default_rng(3), neuron_model=neuron_model)

    assert same(out.membrane, ref_out.membrane) and same(out.spike_time, ref_out.spike_time)
    assert all(a is None and b is None or same(a, b) for a, b in zip(trace.dropout_masks, rec["masks"]))
    assert sum(m is not None for m in trace.dropout_masks) == 3
    for got, want in (
        (trace.layer_inputs, rec["inputs"]),
        (trace.membranes, rec["membranes"]),
        (trace.norm_potentials, rec["z"]),
        (trace.reset_gates, rec["gates"]),
        (trace.hidden_spikes, rec["spikes"]),
        ([trace.output_membranes], [rec["out"]]),
    ):
        for g_layer, w_layer in zip(got, want):
            assert len(g_layer) == len(w_layer) == T
            assert all(same(g, w) for g, w in zip(g_layer, w_layer))
    assert any(s.any() for layer in rec["spikes"] for s in layer), "the case must exercise spiking"

    loss = training.hybrid_loss(out, labels)
    grads = training.backward(trace, params, loss, config)
    d_ws, d_vs, d_leaks, scales = reference_backward(spec, params, rec, loss, config)
    for g, w in zip(grads.weight, d_ws):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.abs(g - w).max() <= WEIGHT_GRAD_RTOL * np.abs(w).max()
    split = network.conv_blocks(spec, BATCH, params[0].weights.dtype)[0] if blocked else 0
    for got, want, scale in ((grads.threshold, d_vs, [s for s, _ in scales]), (grads.leak, d_leaks, [s for _, s in scales])):
        assert all(abs(g - w) <= TERMS_RTOL * s for g, w, s in zip(got[:split], want[:split], scale))
        assert got[split:] == want[split:]
    assert all(g.any() for g in grads.weight), "every layer must receive a gradient"


@pytest.mark.parametrize("encoding,neuron_model", CASES)
def test_train_forward_and_backward_match_reference(encoding, neuron_model):
    check_train(encoding, neuron_model, blocked=False)


@pytest.mark.parametrize("encoding,neuron_model", CASES)
def test_infer_counters_match_reference(encoding, neuron_model):
    spec, params, encoded, _ = setup(encoding)
    ref = ActivityCounters(spec).track_per_neuron()
    ref_out, _ = reference_forward(spec, params, encoded, INFER, None, neuron_model, counters=ref)
    got = ActivityCounters(spec).track_per_neuron()
    out, _ = network.forward(spec, params, encoded, mode=INFER, neuron_model=neuron_model, counters=got)

    assert same(out.membrane, ref_out.membrane) and same(out.spike_time, ref_out.spike_time)
    assert got.samples == ref.samples == BATCH
    assert got.output_spikes == ref.output_spikes and sum(ref.output_spikes) > 0
    assert got.accumulate_events == ref.accumulate_events
    assert all(same(g, w) for g, w in zip(got.per_neuron_spikes, ref.per_neuron_spikes))


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("encoding,neuron_model", CASES)
def test_blocked_conv_prefix_matches_reference(monkeypatch, block, encoding, neuron_model):
    """The conv prefix runs ``block`` samples at a time (3 leaves a short last block of BATCH)."""
    per_sample = max(
        math.prod(s.weight_shape[1:]) * math.prod(s.out_shape[1:]) * 4 for s in stack_spec().stages if isinstance(s.layer, Conv)
    )
    monkeypatch.setattr(network, "BUDGET", block * per_sample)
    check_train(encoding, neuron_model, blocked=True)
    test_infer_counters_match_reference(encoding, neuron_model)

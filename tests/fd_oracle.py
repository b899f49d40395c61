"""The finite-difference gradient oracle the BPTT tests check ``training.backward`` against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from snnkit.encoding import SpikeInputSequence
from snnkit.errors import ConfigurationError
from snnkit.network import SINGLE_SPIKE, TRAIN, NetworkSpec, TemporalTrace, forward
from snnkit.neuron import LayerParams, OutputState
from snnkit.training import TrainConfig, backward, hybrid_loss


@dataclass
class FdProbe:
    """One finite-difference comparison against the analytic gradient."""

    analytic: float
    numeric: float
    rel_error: float
    boundary: bool
    component: str
    index: object


def _float64_params(params: list) -> list:
    return [LayerParams(p.weights.astype(np.float64), p.threshold, p.leak) for p in params]


def _float64_encoded(encoded):
    return SpikeInputSequence(
        mode=encoded.mode,
        total_timesteps=encoded.total_timesteps,
        analog_frame=None if encoded.analog_frame is None else encoded.analog_frame.astype(np.float64),
        spikes=None if encoded.spikes is None else encoded.spikes.astype(np.float64),
    )


def _spike_signature(out: OutputState, trace: TemporalTrace):
    spikes = tuple(arr.tobytes() for layer in trace.hidden_spikes for arr in layer)
    return spikes, out.spike_time.tobytes()


def _perturbed(params: list, component: str, index, delta: float) -> list:
    out = [LayerParams(p.weights.copy(), p.threshold, p.leak) for p in params]
    if component == "weight":
        layer, flat = index
        out[layer].weights.flat[flat] += delta
    elif component == "threshold":
        out[index] = LayerParams(out[index].weights, out[index].threshold + delta, out[index].leak)
    elif component == "leak":
        out[index] = LayerParams(out[index].weights, out[index].threshold, out[index].leak + delta)
    else:
        raise ConfigurationError(f"unknown component {component!r}")
    return out


def finite_difference_check(
    spec: NetworkSpec,
    params: list,
    encoded,
    label_onehot: np.ndarray,
    component: str,
    index,
    eps: float = 1e-4,
    config: TrainConfig | None = None,
    neuron_model: str = SINGLE_SPIKE,
) -> FdProbe:
    """Central-difference probe of one parameter against the analytic gradient.

    The run is repeated at theta +/- eps; if any spike (hidden trains or
    output spike times) differs from the base run the probe is flagged as a
    boundary probe, since the loss is then comparing across a discrete jump.
    Everything runs in float64 so the difference quotient is clean.
    """
    cfg = config or TrainConfig()
    base_params = _float64_params(params)
    enc = _float64_encoded(encoded)

    def run(ps):
        out, trace = forward(
            spec, ps, enc, mode=TRAIN, rng=np.random.default_rng(0), neuron_model=neuron_model
        )
        return hybrid_loss(out, label_onehot), _spike_signature(out, trace), trace

    loss0, sig0, trace0 = run(base_params)
    grads = backward(trace0, base_params, loss0, cfg)
    if component == "weight":
        layer, flat = index
        analytic = float(grads.weight[layer].flat[flat])
    elif component == "threshold":
        analytic = float(grads.threshold[index])
    else:
        analytic = float(grads.leak[index])

    loss_hi, sig_hi, _ = run(_perturbed(base_params, component, index, +eps))
    loss_lo, sig_lo, _ = run(_perturbed(base_params, component, index, -eps))
    boundary = sig_hi != sig0 or sig_lo != sig0

    numeric = (loss_hi.per_sample.sum() - loss_lo.per_sample.sum()) / (2.0 * eps)
    numeric /= loss0.per_sample.size  # match the batch-mean convention of the analytic side
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
    return FdProbe(analytic, float(numeric), float(rel), boundary, component, index)

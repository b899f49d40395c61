"""Spiking-neuron state updates.

Three step rules live here: the standard multi-spike LIF with soft reset
(used as the conversion baseline), the single-spike LIF for hidden layers,
and the leak-free output accumulator that records first-crossing spike
times. The triangular surrogate used in place of the spike derivative is
also defined here. Each hidden rule maps (state, params, current) to the
next state and its spikes; its reset gate is read from the state alone, so
the caller keeps no spike history. All step functions are shape-agnostic,
so a leading batch axis passes straight through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass
class LayerParams:
    """One layer's weights plus its shared firing threshold and leak."""

    weights: np.ndarray
    threshold: float
    leak: float

    def __post_init__(self):
        if not self.threshold > 0:
            raise ConfigurationError(f"threshold must be positive, got {self.threshold}")
        if not 0.0 <= self.leak <= 1.0:
            raise ConfigurationError(f"leak must lie in [0,1], got {self.leak}")


@dataclass
class NeuronState:
    """Membrane state of one hidden layer.

    ``norm_potential`` is membrane / threshold - 1, the quantity whose sign
    drives spiking; ``has_spiked`` is the once-per-sample history gate.
    """

    membrane: np.ndarray
    norm_potential: np.ndarray
    has_spiked: np.ndarray

    @classmethod
    def zeros(cls, shape, dtype=np.float32) -> "NeuronState":
        return cls(
            membrane=np.zeros(shape, dtype=dtype),
            norm_potential=np.full(shape, -1.0, dtype=dtype),
            has_spiked=np.zeros(shape, dtype=bool),
        )


@dataclass
class OutputState:
    """Leak-free accumulator for the output layer with per-neuron spike times.

    ``spike_time`` holds 0 until the neuron first crosses threshold from
    below; any neuron still silent at the final step is forced to fire there,
    so after a full run every spike time lies in [1, T].
    """

    membrane: np.ndarray
    spike_time: np.ndarray

    @classmethod
    def zeros(cls, shape, dtype=np.float32) -> "OutputState":
        return cls(
            membrane=np.zeros(shape, dtype=dtype),
            spike_time=np.zeros(shape, dtype=np.int64),
        )


def lif_gate(state: NeuronState, params: LayerParams):
    """Soft-reset gate of ``lif_step``: the previous step's spikes, read from the membrane."""
    return state.membrane > params.threshold


def lif_step(state: NeuronState, params: LayerParams, input_current):
    """Standard LIF update with soft reset; multiple spikes allowed.

    membrane <- leak * membrane + current - threshold * gate, and a spike
    fires wherever the new membrane strictly exceeds the threshold. The gate
    is that same test on the previous membrane, i.e. the previous spikes.
    """
    v = params.threshold
    u = params.leak * state.membrane + input_current - v * lif_gate(state, params).astype(state.membrane.dtype)
    spikes = u > v
    new = NeuronState(
        membrane=u,
        norm_potential=u / v - 1.0,
        has_spiked=state.has_spiked | spikes,
    )
    return new, spikes.astype(u.dtype)


def single_spike_gate(state: NeuronState, params: LayerParams):
    """Reset gate of ``single_spike_step``: the previous norm_potential is positive."""
    return state.norm_potential > 0


def single_spike_step(state: NeuronState, params: LayerParams, input_current):
    """Single-spike LIF update.

    The ``has_spiked`` gate lets each neuron fire at most once per sample.
    The membrane recursion keeps running after the spike, in training and
    inference alike, so BPTT sees a live membrane; the reset gate may stay
    active over several steps.
    """
    v = params.threshold
    gate = single_spike_gate(state, params)
    u = params.leak * state.membrane + input_current - v * gate.astype(state.membrane.dtype)
    z = u / v - 1.0
    spikes = (z > 0) & ~state.has_spiked
    new = NeuronState(membrane=u, norm_potential=z, has_spiked=state.has_spiked | spikes)
    return new, spikes.astype(u.dtype)


def output_step(state: OutputState, params: LayerParams, input_current, t: int, total_timesteps: int) -> OutputState:
    """Accumulate input without leak; record the first upward threshold crossing.

    At t == total_timesteps any neuron without a recorded spike time is
    forced to fire, so the loss always sees a valid time.
    """
    v = params.threshold
    u = state.membrane + input_current
    crossed = (u >= v) & (state.membrane < v) & (state.spike_time == 0)
    spike_time = np.where(crossed, t, state.spike_time)
    if t == total_timesteps:
        spike_time = np.where(spike_time == 0, t, spike_time)
    return OutputState(membrane=u, spike_time=spike_time)


def surrogate_grad(norm_potential, gain: float):
    """Triangular stand-in for the spike derivative: gain * max(0, 1 - |z|)."""
    if not gain > 0:
        raise ConfigurationError(f"surrogate gain must be positive, got {gain}")
    z = np.asarray(norm_potential)
    return gain * np.maximum(0.0, 1.0 - np.abs(z))

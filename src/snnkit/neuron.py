"""Spiking-neuron state updates.

Three step rules live here: the standard multi-spike LIF with soft reset
(used as the conversion baseline), the single-spike LIF for hidden layers,
and the leak-free output accumulator that records first-crossing spike
times. The triangular surrogate used in place of the spike derivative is
also defined here. Each hidden rule maps (state, params, current) to the
next state and its spikes; its reset gate is read from the previous
membrane and norm potential alone, so the caller keeps no spike history, and
the next state may overwrite the previous one in place. All step functions
are shape-agnostic, so a leading batch axis passes straight through.
"""

from __future__ import annotations

import math
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
        if not 0 < self.threshold < math.inf:
            raise ConfigurationError(f"threshold must be positive and finite, got {self.threshold}")
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


def norm_potential(membrane, threshold, out=None):
    """membrane / threshold - 1, written into ``out`` when given."""
    z = np.divide(membrane, threshold, out=out)
    return np.subtract(z, 1.0, out=out)


def lif_gate(membrane, norm_potential, threshold):
    """Soft-reset gate of ``lif_step``: the previous step's spikes, read from the membrane."""
    return membrane > threshold


def lif_fire(membrane, norm_potential, threshold, has_spiked):
    """Spikes of ``lif_step``: wherever the new membrane strictly exceeds the threshold."""
    return membrane > threshold


def single_spike_gate(membrane, norm_potential, threshold):
    """Reset gate of ``single_spike_step``: the previous norm_potential is positive."""
    return norm_potential > 0


def single_spike_fire(membrane, norm_potential, threshold, has_spiked):
    """Spikes of ``single_spike_step``: a positive norm potential in a neuron yet to fire."""
    return (norm_potential > 0) & ~has_spiked


def _step(gate, fire, state: NeuronState, params: LayerParams, input_current, out: NeuronState | None):
    """membrane <- leak * membrane + current - threshold * gate; ``fire`` picks the spikes.

    The new membrane, norm potential and has-spiked are written into ``out``
    when given (it may be ``state`` itself), else into fresh arrays. The gate
    and the spikes are taken before ``state`` is overwritten.
    """
    v = params.threshold
    reset = gate(state.membrane, state.norm_potential, v).astype(state.membrane.dtype)
    reset *= v
    dst = None if out is None else out.membrane
    u = np.add(np.multiply(params.leak, state.membrane, out=dst), input_current, out=dst)
    u = np.subtract(u, reset, out=dst)
    z = norm_potential(u, v, None if out is None else out.norm_potential)
    spikes = fire(u, z, v, state.has_spiked)
    has_spiked = np.bitwise_or(state.has_spiked, spikes, out=None if out is None else out.has_spiked)
    return NeuronState(membrane=u, norm_potential=z, has_spiked=has_spiked), spikes.astype(u.dtype)


def lif_step(state: NeuronState, params: LayerParams, input_current, out: NeuronState | None = None):
    """Standard LIF update with soft reset; multiple spikes allowed.

    membrane <- leak * membrane + current - threshold * gate, and a spike
    fires wherever the new membrane strictly exceeds the threshold. The gate
    is that same test on the previous membrane, i.e. the previous spikes.
    The new state goes into ``out`` when given, which may be ``state``.
    """
    return _step(lif_gate, lif_fire, state, params, input_current, out)


def single_spike_step(state: NeuronState, params: LayerParams, input_current, out: NeuronState | None = None):
    """Single-spike LIF update.

    The ``has_spiked`` gate lets each neuron fire at most once per sample.
    The membrane recursion keeps running after the spike, in training and
    inference alike, so BPTT sees a live membrane; the reset gate may stay
    active over several steps. The new state goes into ``out`` when given,
    which may be ``state``.
    """
    return _step(single_spike_gate, single_spike_fire, state, params, input_current, out)


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

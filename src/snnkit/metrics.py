"""Spiking-activity, FLOPs, and compute-energy accounting.

Dense per-layer FLOP counts follow the usual closed forms (k^2*Ho*Wo*Co*Ci
for convolutions, fi*fo for fully-connected layers). The spiking FLOP count
of a layer multiplies its dense count by the measured activity of the
layer's *input* drive, because accumulations fire when presynaptic spikes
arrive. Energy charges every dense ANN operation as a MAC; the spiking side
charges the first layer's analog pass as MACs and everything spike-driven
as accumulates. Hardware energy constants are data so other technology
nodes can be swapped in from a JSON file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .encoding import ANALOG_INPUT, ENCODERS
from .errors import ConfigurationError, ContractViolation
from .network import ActivityCounters, NetworkSpec

# 45 nm CMOS estimates at 0.9 V: 32-bit multiply 3.1 pJ + add 0.1 pJ per MAC,
# add-only 0.1 pJ per AC.
DEFAULT_ENERGY_COSTS = {"e_mac_pj": 3.2, "e_ac_pj": 0.1}


@dataclass(frozen=True)
class EnergyCosts:
    e_mac_pj: float = DEFAULT_ENERGY_COSTS["e_mac_pj"]
    e_ac_pj: float = DEFAULT_ENERGY_COSTS["e_ac_pj"]

    @classmethod
    def from_json(cls, path) -> "EnergyCosts":
        with open(path) as fh:
            data = json.load(fh)
        return cls(float(data["e_mac_pj"]), float(data["e_ac_pj"]))


@dataclass
class LayerEnergy:
    """Per-layer accounting row: input-drive activity and both FLOP columns."""

    name: str
    zeta: float
    f_ann: int
    f_snn: float


@dataclass
class EnergyReport:
    layers: list
    spike_activity: list          # per hidden spiking layer, spikes per neuron over T
    e_ann_pj: float
    e_snn_pj: float
    ratio: float
    e_mac_pj: float
    e_ac_pj: float
    encoding: str
    total_timesteps: int
    samples: int

    def layer_energy_pj(self) -> list:
        """(E_ANN, E_SNN) of each layer; the first layer's E_SNN includes its analog MAC pass."""
        out = []
        for i, row in enumerate(self.layers):
            e_snn = row.f_snn * self.e_ac_pj
            if i == 0 and self.encoding in ANALOG_INPUT:
                e_snn += row.f_ann * self.e_mac_pj
            out.append((row.f_ann * self.e_mac_pj, e_snn))
        return out

    def to_dict(self) -> dict:
        return {
            "layers": [vars(l) for l in self.layers],
            "spike_activity": list(self.spike_activity),
            "e_ann_pj": self.e_ann_pj,
            "e_snn_pj": self.e_snn_pj,
            "ratio": self.ratio,
            "e_mac_pj": self.e_mac_pj,
            "e_ac_pj": self.e_ac_pj,
            "encoding": self.encoding,
            "total_timesteps": self.total_timesteps,
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EnergyReport":
        return cls(
            layers=[LayerEnergy(**l) for l in d["layers"]],
            spike_activity=list(d["spike_activity"]),
            e_ann_pj=d["e_ann_pj"],
            e_snn_pj=d["e_snn_pj"],
            ratio=d["ratio"],
            e_mac_pj=d["e_mac_pj"],
            e_ac_pj=d["e_ac_pj"],
            encoding=d["encoding"],
            total_timesteps=d["total_timesteps"],
            samples=d["samples"],
        )


def energy_ratio(e_ann_pj: float, e_snn_pj: float) -> float:
    """E_ANN / E_SNN, infinite when the spiking side spends nothing."""
    return float(e_ann_pj / e_snn_pj) if e_snn_pj else float("inf")


def spike_activity(spike_counts, neuron_counts, sample_count: int) -> list:
    """Average spikes per neuron over the full T-step run, per layer."""
    if sample_count <= 0:
        raise ContractViolation("spike activity needs at least one evaluated sample")
    if len(spike_counts) != len(neuron_counts):
        raise ContractViolation("one spike counter per layer is required")
    return [float(c) / (n * sample_count) for c, n in zip(spike_counts, neuron_counts)]


def flops(spec: NetworkSpec, input_activity=None):
    """Dense FLOPs per weighted layer, and spiking FLOPs when activity is given.

    A layer's dense count is its weight count times its output positions.
    """
    f_ann = [math.prod(s.weight_shape) * math.prod(s.out_shape[1:]) for s in spec.stages]
    if input_activity is None:
        return f_ann
    if len(input_activity) != len(f_ann):
        raise ConfigurationError("one input-activity value per weighted layer is required")
    return f_ann, [f * z for f, z in zip(f_ann, input_activity)]


def energy(
    spec: NetworkSpec,
    counters: ActivityCounters,
    encoding_mode: str,
    costs: EnergyCosts = EnergyCosts(),
) -> EnergyReport:
    """Compute-energy report from infer-mode activity counters."""
    if counters.samples <= 0:
        raise ContractViolation("energy accounting needs at least one evaluated sample")
    if encoding_mode not in ENCODERS:
        raise ConfigurationError(f"unknown encoding mode {encoding_mode!r}")
    f_ann = flops(spec)
    s = counters.samples
    f_snn = [ev / s for ev in counters.accumulate_events]
    zetas = [fs / fa for fs, fa in zip(f_snn, f_ann)]

    e_ann = sum(f_ann) * costs.e_mac_pj
    analog_mac = f_ann[0] * costs.e_mac_pj if encoding_mode in ANALOG_INPUT else 0.0
    e_snn = analog_mac + sum(f_snn) * costs.e_ac_pj

    names = spec.layer_names()
    rows = [LayerEnergy(n, z, fa, fs) for n, z, fa, fs in zip(names, zetas, f_ann, f_snn)]
    activity = spike_activity(counters.output_spikes, spec.neuron_counts()[:-1], s)
    return EnergyReport(
        layers=rows,
        spike_activity=activity,
        e_ann_pj=float(e_ann),
        e_snn_pj=float(e_snn),
        ratio=energy_ratio(e_ann, e_snn),
        e_mac_pj=costs.e_mac_pj,
        e_ac_pj=costs.e_ac_pj,
        encoding=encoding_mode,
        total_timesteps=spec.total_timesteps,
        samples=s,
    )

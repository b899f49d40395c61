"""Spiking-activity, FLOPs, and compute-energy accounting.

Dense per-layer FLOP counts follow the usual closed forms (k^2*Ho*Wo*Co*Ci
for convolutions, fi*fo for fully-connected layers). The spiking FLOP count
of a layer multiplies its dense count by the measured activity of the
layer's *input* drive, because accumulations fire when presynaptic spikes
arrive. Energy charges every dense ANN operation as a MAC; the spiking side
charges the first layer's analog pass as MACs and everything spike-driven
as accumulates, at the per-operation energies of an ``EnergyCosts`` record.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .encoding import ANALOG_INPUT, ENCODERS
from .errors import ConfigurationError, ContractViolation
from .network import ActivityCounters, NetworkSpec


@dataclass(frozen=True)
class EnergyCosts:
    # 45 nm CMOS estimates at 0.9 V: 32-bit multiply 3.1 pJ + add 0.1 pJ per MAC,
    # add-only 0.1 pJ per AC.
    e_mac_pj: float = 3.2
    e_ac_pj: float = 0.1


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
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EnergyReport":
        return cls(**{**d, "layers": [LayerEnergy(**row) for row in d["layers"]]})


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


def flops(spec: NetworkSpec) -> list:
    """Dense FLOPs per weighted layer: its weight count times its output positions."""
    return [math.prod(s.weight_shape) * math.prod(s.out_shape[1:]) for s in spec.stages]


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

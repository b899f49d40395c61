import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snnkit import numerics
from snnkit.encoding import DIRECT, HYBRID, RATE, IntensityRange, encode_direct, encode_hybrid
from snnkit.errors import ConfigurationError, ContractViolation
from snnkit.metrics import EnergyCosts, EnergyReport, energy, flops, spike_activity
from snnkit.network import (
    ActivityCounters,
    AvgPool,
    Conv,
    FullyConnected,
    TRAIN,
    NetworkSpec,
    forward,
)
from snnkit.neuron import LayerParams

UNIT = IntensityRange(0.0, 1.0)


def count_events_bruteforce(spec, trace, encoding_mode):
    """Independent accumulate-event tally from recorded per-layer inputs.

    Walks every output position and kernel tap in plain loops; an event is a
    read of a nonzero real input element, fanned out over the output
    channels. For hybrid inputs the first layer's t=1 analog pass is excluded
    (it is charged as the dense MAC pass); for direct inputs the first layer
    accumulates nothing beyond that single pass.
    """
    widx = [i for i, l in enumerate(spec.layers) if isinstance(l, (Conv, FullyConnected))]
    events = [0] * len(widx)
    for w_i, li in enumerate(widx):
        layer = spec.layers[li]
        for t, x in enumerate(trace.layer_inputs[w_i], start=1):
            if w_i == 0:
                if encoding_mode == DIRECT:
                    continue
                if encoding_mode == HYBRID and t == 1:
                    continue
            batch = x.shape[0]
            if isinstance(layer, FullyConnected):
                events[w_i] += int(np.count_nonzero(x)) * layer.units
                continue
            k, s, p = layer.kernel, layer.stride, layer.padding
            _, ci, h, w = x.shape
            ho = (h + 2 * p - k) // s + 1
            wo = (w + 2 * p - k) // s + 1
            for b in range(batch):
                reads = 0
                for y in range(ho):
                    for xx in range(wo):
                        for c in range(ci):
                            for dy in range(k):
                                for dx in range(k):
                                    yy = y * s + dy - p
                                    xs = xx * s + dx - p
                                    if 0 <= yy < h and 0 <= xs < w and x[b, c, yy, xs] != 0:
                                        reads += 1
                events[w_i] += reads * layer.out_channels
    return events


class TestSpikeActivity:
    def test_no_spikes(self):
        assert spike_activity([0, 0], [10, 4], 3) == [0.0, 0.0]

    def test_single_spike_per_neuron_is_unity(self):
        assert spike_activity([30], [10], 3) == [1.0]

    def test_hand_counting_example(self):
        got = spike_activity([4], [3], 2)
        assert got[0] == pytest.approx(4 / 6)

    def test_zero_samples_rejected(self):
        with pytest.raises(ContractViolation):
            spike_activity([1], [1], 0)


class TestFlops:
    def spec(self):
        return NetworkSpec(
            layers=(Conv(16, 3, padding=1), AvgPool(2), FullyConnected(10)),
            input_shape=(3, 8, 8),
            num_classes=10,
            total_timesteps=4,
        )

    def test_conv_formula(self):
        # k^2 * Ho * Wo * Co * Ci = 9 * 64 * 16 * 3
        assert flops(self.spec())[0] == 27_648

    def test_fc_formula(self):
        spec = NetworkSpec(
            layers=(FullyConnected(10),), input_shape=(100,), num_classes=10, total_timesteps=1
        )
        assert flops(spec) == [1000]


class TestEnergy:
    def toy(self, encoding_mode, threshold=0.6):
        rng = numerics.make_rng(0)
        spec = NetworkSpec(
            layers=(Conv(4, 3), AvgPool(2), FullyConnected(5)),
            input_shape=(1, 8, 8),
            num_classes=5,
            total_timesteps=4,
        )
        params = [LayerParams(rng.normal(0, 0.7, s).astype(np.float32), threshold, 1.0) for s in spec.weight_shapes()]
        images = rng.random((16, 1, 8, 8)).astype(np.float32)
        if encoding_mode == HYBRID:
            enc = encode_hybrid(images, UNIT, 4)
        else:
            enc = encode_direct(images, 4)
        counters = ActivityCounters(spec)
        _, trace = forward(spec, params, enc, mode=TRAIN, counters=counters)  # no dropout: the infer pass, traced
        return spec, counters, trace

    def test_mac_to_ac_ratio_is_32(self):
        costs = EnergyCosts()
        assert costs.e_mac_pj / costs.e_ac_pj == pytest.approx(32.0)

    def test_zero_activity_energy_is_first_layer_macs(self):
        spec, counters, _ = self.toy(DIRECT, threshold=1e6)
        report = energy(spec, counters, DIRECT)
        f_ann = flops(spec)
        # a huge threshold silences the hidden layer entirely
        assert report.e_snn_pj == pytest.approx(f_ann[0] * report.e_mac_pj)
        assert report.e_ann_pj == pytest.approx(sum(f_ann) * report.e_mac_pj)

    @pytest.mark.parametrize("mode", [HYBRID, DIRECT])
    def test_closed_form_matches_bruteforce_event_count(self, mode):
        spec, counters, trace = self.toy(mode)
        report = energy(spec, counters, mode)
        oracle = count_events_bruteforce(spec, trace, mode)
        for row, events in zip(report.layers, oracle):
            assert row.f_snn * counters.samples == pytest.approx(events, rel=1e-9), row.name
            assert row.f_snn == pytest.approx(row.f_ann * row.zeta, rel=1e-6)

    def test_single_spike_keeps_snn_flops_below_dense(self):
        # Bound per layer: the first layer sees one raster spike per pixel,
        # so its read activity stays at or below one; a layer fed through a
        # pooling window can see a pooled position go nonzero at up to
        # window^2 distinct timesteps, which loosens its bound accordingly.
        spec, counters, _ = self.toy(HYBRID)
        report = energy(spec, counters, HYBRID)
        assert report.layers[0].f_snn <= report.layers[0].f_ann + 1e-9
        assert report.layers[1].f_snn <= 4 * report.layers[1].f_ann + 1e-9
        for zeta in report.spike_activity:
            assert zeta <= 1.0 + 1e-9

    @pytest.mark.parametrize("mode", [HYBRID, DIRECT, RATE])
    def test_layer_energies_sum_to_totals(self, mode):
        spec, counters, _ = self.toy(DIRECT)
        report = energy(spec, counters, mode)
        per_layer = report.layer_energy_pj()
        assert sum(e for e, _ in per_layer) == pytest.approx(report.e_ann_pj, rel=1e-12)
        assert sum(e for _, e in per_layer) == pytest.approx(report.e_snn_pj, rel=1e-12)
        analog = report.layers[0].f_ann * report.e_mac_pj if mode != RATE else 0.0
        assert per_layer[0][1] == pytest.approx(analog + report.layers[0].f_snn * report.e_ac_pj, rel=1e-12)

    def test_report_round_trip(self):
        spec, counters, _ = self.toy(HYBRID)
        report = energy(spec, counters, HYBRID)
        again = EnergyReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert again == report

    def test_unknown_encoding_rejected(self):
        spec, counters, _ = self.toy(DIRECT)
        with pytest.raises(ConfigurationError):
            energy(spec, counters, "phase")

    def test_zero_samples_rejected(self):
        spec, counters, _ = self.toy(DIRECT)
        counters.samples = 0
        with pytest.raises(ContractViolation):
            energy(spec, counters, DIRECT)


# The desk spec and a padded, wider CIFAR-shaped stack.
BOUND_SPECS = (
    NetworkSpec(
        layers=(Conv(8, 5), AvgPool(2), Conv(16, 3), AvgPool(2), FullyConnected(64), FullyConnected(10)),
        input_shape=(1, 28, 28),
        num_classes=10,
        total_timesteps=5,
    ),
    NetworkSpec(
        layers=(Conv(32, 3, padding=1), AvgPool(2), Conv(64, 3, padding=1), AvgPool(2), FullyConnected(10)),
        input_shape=(3, 32, 32),
        num_classes=10,
        total_timesteps=5,
    ),
)


class TestEnergyBound:
    """With analog input E_SNN holds the first layer's dense MAC pass, so the ratio is at most sum(f) / f[0]."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(BOUND_SPECS), st.sampled_from([HYBRID, DIRECT]), st.integers(1, 10**4), st.data())
    def test_ratio_never_exceeds_the_flops_bound(self, spec, mode, samples, data):
        counters = ActivityCounters(spec)
        counters.samples = samples
        layers = len(spec.stages)
        counters.accumulate_events = data.draw(st.lists(st.integers(0, 10**13), min_size=layers, max_size=layers))
        counters.output_spikes = data.draw(st.lists(st.integers(0, 10**9), min_size=layers - 1, max_size=layers - 1))
        f = flops(spec)
        assert energy(spec, counters, mode).ratio <= sum(f) / f[0] * (1 + 1e-12)

"""Acceptance suite: one test per criterion, each printing a PASS line.

The desk-scale artifacts (trained ANN, calibrated thresholds, converted and
fine-tuned spiking models, and the multi-spike direct-encoding baseline) are
provided by session fixtures in conftest.py and shared across criteria.
"""

import dataclasses

import numpy as np

from snnkit import ann, data, numerics, pipeline, training
from snnkit.ann import AnnTrainConfig, CalibrationConfig
from snnkit.config import DatasetConfig, ExperimentConfig
from snnkit.encoding import HYBRID, IntensityRange, compute_firing_time, encode_direct, encode_hybrid
from snnkit.metrics import EnergyCosts, energy, flops, spike_activity
from snnkit.network import (
    MULTI_SPIKE,
    TRAIN,
    ActivityCounters,
    Dropout,
    FullyConnected,
    NetworkSpec,
    evaluate,
    forward,
)
from snnkit.neuron import LayerParams
from snnkit.training import TrainConfig, finite_difference_check, hybrid_loss, one_hot, spike_time_threshold_grad

from test_metrics import count_events_bruteforce


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {n:2d}] {status}: {detail}")
    assert ok, f"criterion {n}: {detail}"


class TestCriterion1Encoding:
    def test_hybrid_encoding_invariants(self):
        rng = numerics.make_rng(0)
        total = 100_000
        checked = 0
        for t in (2, 3, 5, 8):
            n = total // 4
            intensities = rng.random(n).astype(np.float32)
            unit = IntensityRange(0.0, 1.0)
            seq = encode_hybrid(intensities, unit, t)
            per_pixel = seq.spikes.sum(axis=0)
            assert (per_pixel == 1).all(), f"T={t}: a pixel spiked != once"
            assert not seq.spikes[0].any(), f"T={t}: spike in the analog step"
            order = np.argsort(-intensities)
            times = np.argmax(seq.spikes[:, order], axis=0) + 1
            assert (np.diff(times) >= 0).all(), f"T={t}: firing time not monotone"
            assert compute_firing_time(1.0, unit, t) == 2
            assert compute_firing_time(0.0, unit, t) == t
            checked += n
        report(1, checked == total, f"one spike per pixel in [2,T], monotone times, boundaries exact over {checked} intensities, T in {{2,3,5,8}}")


def _toy_setup(seed, t=5, hidden=8, inputs=6, classes=4):
    rng = numerics.make_rng(seed)
    spec = NetworkSpec(
        layers=(FullyConnected(hidden), FullyConnected(classes)),
        input_shape=(inputs,),
        num_classes=classes,
        total_timesteps=t,
    )
    params = [
        LayerParams(rng.normal(0, 0.9, s).astype(np.float32), 1.0, 1.0)
        for s in spec.weight_shapes()
    ]
    images = rng.random((1, inputs)).astype(np.float32)
    enc = encode_hybrid(images, IntensityRange(0.0, 1.0), t)
    label = one_hot(np.array([int(rng.integers(0, classes))]), classes)
    return spec, params, enc, label


class TestCriterion2ExactGradientOracle:
    def test_output_layer_paths_match_finite_differences(self):
        probes = 0
        worst = 0.0
        for seed in range(6):
            spec, params, enc, label = _toy_setup(seed)
            for flat in range(params[1].weights.size):
                probe = finite_difference_check(spec, params, enc, label, "weight", (1, flat), eps=1e-4)
                if probe.boundary:
                    continue
                assert probe.rel_error < 1e-4, (seed, flat, probe)
                worst = max(worst, probe.rel_error)
                probes += 1
        # direct probes of dL/dU via the loss itself, spike times frozen
        rng = numerics.make_rng(99)
        for _ in range(40):
            n = 5
            u = rng.normal(size=(1, n))
            t = rng.integers(1, 6, size=(1, n))
            y = one_hot(np.array([int(rng.integers(0, n))]), n)
            from snnkit.neuron import OutputState

            res = hybrid_loss(OutputState(membrane=u, spike_time=t), y)
            i = int(rng.integers(0, n))
            eps = 1e-6
            up, um = u.copy(), u.copy()
            up[0, i] += eps
            um[0, i] -= eps
            numeric = (
                hybrid_loss(OutputState(membrane=up, spike_time=t), y).loss
                - hybrid_loss(OutputState(membrane=um, spike_time=t), y).loss
            ) / (2 * eps)
            rel = abs(numeric - res.grad_u[0, i]) / max(abs(numeric), abs(res.grad_u[0, i]), 1e-8)
            assert rel < 1e-4
            worst = max(worst, rel)
            probes += 1
        report(2, probes >= 100, f"{probes} non-boundary exact-path probes, worst relative error {worst:.2e} < 1e-4")


class TestCriterion3SurrogateGradientOracle:
    def test_hidden_weight_sign_agreement(self):
        # Probes follow the hidden-layer protocol: a perturbation large enough
        # to move spikes makes the quotient measure the true discrete loss
        # change, and the surrogate analytic gradient must point the same way
        # on the probes where anything moved.
        seeds = numerics.make_rng(7)
        agree = 0
        informative = []
        flat_probes = 0
        attempts = 0
        while len(informative) < 100 and attempts < 4000:
            attempts += 1
            spec, params, enc, label = _toy_setup(int(seeds.integers(0, 100_000)))
            flat = int(seeds.integers(0, params[0].weights.size))
            probe = finite_difference_check(spec, params, enc, label, "weight", (0, flat), eps=0.12)
            if abs(probe.numeric) > 1e-3:
                informative.append(probe)
                agree += probe.analytic * probe.numeric > 0
            else:
                flat_probes += 1
        fraction = agree / len(informative)
        rel_errors = np.array([p.rel_error for p in informative])
        print(
            f"\n[criterion  3] distribution: {len(informative)} informative probes,"
            f" {flat_probes} flat, rel-error quartiles "
            f"{np.percentile(rel_errors, [25, 50, 75]).round(3)}"
        )
        report(3, fraction >= 0.70 and len(informative) >= 100,
               f"sign agreement {agree}/{len(informative)} = {fraction:.1%} (>= 70% required)")


class TestCriterion4SingleSpikeInvariant:
    def test_full_test_set_inference(self, desk_spec, desk_finetuned, desk_dataset, desk_encode_hybrid):
        counters = ActivityCounters(desk_spec).track_per_neuron()
        evaluate(
            desk_spec,
            desk_finetuned["params"],
            desk_dataset.test_images,
            desk_dataset.test_labels,
            desk_encode_hybrid,
            counters=counters,
        )
        max_spikes = max(int(a.max()) for a in counters.per_neuron_spikes)
        zetas = spike_activity(counters.output_spikes, desk_spec.neuron_counts()[:-1], counters.samples)
        ok = max_spikes == 1 and all(z <= 1.0 for z in zetas)
        report(4, ok, f"max spikes per hidden neuron per sample = {max_spikes}, per-layer activity {[round(z, 3) for z in zetas]} all <= 1")


class TestCriterion5ConversionFidelity:
    def test_ann_and_converted_accuracy(self, desk_spec, desk_ann, desk_thresholds, desk_dataset, desk_calibration_config):
        ann_acc = desk_ann["accuracy"]
        unscaled = ann.convert(
            desk_ann["weights"],
            desk_thresholds,
            CalibrationConfig(**{**vars(desk_calibration_config), "scaling": 1.0}),
        )
        spec100 = NetworkSpec(desk_spec.layers, desk_spec.input_shape, desk_spec.num_classes, 100)
        converted_acc = evaluate(
            spec100,
            unscaled,
            desk_dataset.test_images,
            desk_dataset.test_labels,
            lambda x: encode_direct(x, 100),
            neuron_model=MULTI_SPIKE,
        )
        ok = ann_acc >= 97.0 and converted_acc >= ann_acc - 2.0
        report(5, ok, f"ANN {ann_acc:.2f}% (>= 97), converted standard-LIF direct T=100 {converted_acc:.2f}% (within 2 points)")


class TestCriterion6FineTuning:
    def test_recovery_within_20_epochs(self, desk_ann, desk_finetuned):
        ann_acc = desk_ann["accuracy"]
        ft_acc = desk_finetuned["accuracy"]
        epochs = len(desk_finetuned["history"]["accuracy"])
        ok = ft_acc >= ann_acc - 2.0 and epochs <= 20
        report(6, ok, f"fine-tuned hybrid T=5 reaches {ft_acc:.2f}% vs ANN {ann_acc:.2f}% within {epochs} epochs (band: 2 points)")


class TestCriterion7SparsityDirection:
    def test_hybrid_single_spike_is_sparser(self, desk_spec, desk_finetuned, desk_baseline, desk_dataset, desk_encode_hybrid):
        t = desk_spec.total_timesteps
        counters_h = ActivityCounters(desk_spec)
        evaluate(desk_spec, desk_finetuned["params"], desk_dataset.test_images, desk_dataset.test_labels,
                 desk_encode_hybrid, counters=counters_h)
        counters_d = ActivityCounters(desk_spec)
        evaluate(desk_spec, desk_baseline["params"], desk_dataset.test_images, desk_dataset.test_labels,
                 lambda x: encode_direct(x, t), neuron_model=MULTI_SPIKE, counters=counters_d)
        hidden_counts = desk_spec.neuron_counts()[:-1]
        zeta_h = spike_activity(counters_h.output_spikes, hidden_counts, counters_h.samples)
        zeta_d = spike_activity(counters_d.output_spikes, hidden_counts, counters_d.samples)
        acc_h, acc_d = desk_finetuned["accuracy"], desk_baseline["accuracy"]
        ratio = float(np.mean(zeta_h) / np.mean(zeta_d))
        iso = abs(acc_h - acc_d) <= 2.0
        ok = iso and ratio <= 0.75
        report(
            7,
            ok,
            f"mean hidden activity {np.mean(zeta_h):.3f} (hybrid single-spike) vs {np.mean(zeta_d):.3f} "
            f"(direct multi-spike): ratio {ratio:.3f} <= 0.75 at iso-accuracy ({acc_h:.1f}% vs {acc_d:.1f}%)",
        )


class TestCriterion8EnergyModel:
    def test_energy_consistency(self, desk_spec, desk_finetuned, desk_dataset, desk_encode_hybrid):
        costs = EnergyCosts()
        ratio_exact = costs.e_mac_pj / costs.e_ac_pj
        assert ratio_exact == 32.0

        sample = desk_dataset.test_images[:16]
        enc = desk_encode_hybrid(sample)
        counters = ActivityCounters(desk_spec)
        # Inference skips dropout, so a train pass of the stack without it is the infer pass, traced.
        no_dropout = dataclasses.replace(desk_spec, layers=[l for l in desk_spec.layers if not isinstance(l, Dropout)])
        _, trace = forward(no_dropout, desk_finetuned["params"], enc, mode=TRAIN, counters=counters)
        rep = energy(desk_spec, counters, HYBRID, costs)
        oracle = count_events_bruteforce(desk_spec, trace, HYBRID)
        for row, events in zip(rep.layers, oracle):
            closed = row.f_snn * counters.samples
            assert abs(closed - events) <= 0.01 * max(events, 1), (row.name, closed, events)

        f_ann = flops(desk_spec)
        downstream_ac = sum(r.f_snn for r in rep.layers[1:]) * costs.e_ac_pj
        downstream_mac = sum(f_ann[1:]) * costs.e_mac_pj
        ok = rep.e_snn_pj < rep.e_ann_pj and downstream_ac < downstream_mac
        report(
            8,
            ok,
            f"closed-form event FLOPs match brute-force tally within 1%; E_MAC/E_AC = 32 exactly; "
            f"E_SNN {rep.e_snn_pj:.3e} pJ < E_ANN {rep.e_ann_pj:.3e} pJ (measured ratio {rep.ratio:.1f}x)",
        )


class TestCriterion9SpikeTimeThresholdGradient:
    def test_hand_constructed_trajectories(self):
        # worked example: membranes [0.9, 1.05], V=1, T=2, band 0.2
        # t=1: H(-0.1)(|1.0|<0.2) - H(1.0)(|-0.1|<0.2) = -1; forced term: +2
        got = spike_time_threshold_grad([np.array([[0.9]]), np.array([[1.05]])], 1.0, 0.2, 2)
        assert got[0, 0] == 1.0

        # all terms outside the band vanish
        got = spike_time_threshold_grad(
            [np.array([[0.3]]), np.array([[0.5]]), np.array([[0.6]])], 1.0, 0.2, 3
        )
        assert got[0, 0] == 0.0

        # crossing exactly inside the band at t=2 of 3:
        # t=1: a=-0.9<0, b=1-0 (not <band) -> 0
        # t=2: a=1.1-1=0.1>0 with |b|=|1-0.1|=0.9 (not < band) -> 0;
        #      H(b)=H(0.9)=1 with |a|=0.1<band -> -2
        # final: c=1-1.15=-0.15, |c|<band -> +3; total = 1
        got = spike_time_threshold_grad(
            [np.array([[0.1]]), np.array([[1.1]]), np.array([[1.15]])], 1.0, 0.2, 3
        )
        assert got[0, 0] == 1.0

        # two neurons at once, term-by-term
        membranes = [np.array([[0.9, 0.3]]), np.array([[1.05, 0.5]])]
        got = spike_time_threshold_grad(membranes, 1.0, 0.2, 2)
        np.testing.assert_array_equal(got, [[1.0, 0.0]])
        report(9, True, "boxcar spike-time/threshold gradient matches term-by-term hand evaluation on constructed trajectories")


class TestCriterion10Determinism:
    def test_identical_config_and_seed_reproduce(self, tmp_path):
        paths = data.write_synthetic_idx(tmp_path / "ds", 200, 80, seed=3)
        reports = []
        for name in ("run1", "run2"):
            cfg = ExperimentConfig(
                dataset=DatasetConfig(format="idx", **paths),
                network=NetworkSpec(
                    layers=(FullyConnected(20), FullyConnected(10)),
                    input_shape=(1, 28, 28),
                    num_classes=10,
                    total_timesteps=3,
                ),
                calibration=CalibrationConfig(num_images=32, calib_timesteps=8),
                ann_train=AnnTrainConfig(epochs=3, batch_size=32),
                snn_train=TrainConfig(lr=1e-3, epochs=2, batch_size=32),
                seed=21,
                out_dir=str(tmp_path / name),
            )
            reports.append(pipeline.run_experiment(cfg).to_dict())
        for rep in reports:
            rep.pop("wall_clock_s")
            rep["config"].pop("out_dir")
        same = reports[0] == reports[1]
        zetas = [r["energy"]["spike_activity"] for r in reports]
        report(10, same, f"two runs reproduce identical accuracies, activities {zetas[0]}, and reports")

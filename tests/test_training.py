import math

import numpy as np
import pytest

from snnkit import numerics, training
from snnkit.encoding import IntensityRange, encode_hybrid
from snnkit.errors import ConfigurationError, ContractViolation, TrainingError
from snnkit.network import FullyConnected, NetworkSpec, TRAIN, forward
from snnkit.neuron import LayerParams, OutputState
from snnkit.training import (
    GradientSet,
    TrainConfig,
    backward,
    bptt_hidden_grads,
    finite_difference_check,
    hybrid_loss,
    lr_at,
    one_hot,
    optimizer_step,
    output_layer_grads,
    spike_time_threshold_grad,
    train_snn,
)

UNIT = IntensityRange(0.0, 1.0)


def toy_spec(t=5, hidden=6, inputs=4, classes=3):
    return NetworkSpec(
        layers=(FullyConnected(hidden), FullyConnected(classes)),
        input_shape=(inputs,),
        num_classes=classes,
        total_timesteps=t,
    )


def toy_params(spec, rng, scale=0.9):
    return [
        LayerParams(rng.normal(0, scale, s).astype(np.float32), 1.0, 1.0)
        for s in spec.weight_shapes()
    ]


class TestHybridLoss:
    def test_worked_example(self):
        out = OutputState(membrane=np.array([0.0, 0.0]), spike_time=np.array([2, 2]))
        res = hybrid_loss(out, np.array([1.0, 0.0]))
        np.testing.assert_allclose(res.u_softmax, [0.5, 0.5])
        np.testing.assert_allclose(res.t_softmax, [0.5, 0.5])
        assert res.loss == pytest.approx(-math.log(0.25), abs=1e-9)
        np.testing.assert_allclose(res.grad_u, [-0.5, 0.5])

    def test_perfect_prediction_limit(self):
        out = OutputState(
            membrane=np.array([50.0, 0.0, 0.0]), spike_time=np.array([1, 30, 30])
        )
        res = hybrid_loss(out, np.array([1.0, 0.0, 0.0]))
        assert res.loss < 1e-9

    def test_softmax_invariants(self):
        rng = numerics.make_rng(0)
        out = OutputState(
            membrane=rng.normal(size=(7, 5)).astype(np.float32),
            spike_time=rng.integers(1, 6, size=(7, 5)),
        )
        res = hybrid_loss(out, one_hot(rng.integers(0, 5, size=7), 5))
        np.testing.assert_allclose(res.u_softmax.sum(axis=-1), 1.0, atol=1e-9)
        np.testing.assert_allclose(res.t_softmax.sum(axis=-1), 1.0, atol=1e-9)
        np.testing.assert_allclose(res.grad_u.sum(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(res.grad_t.sum(axis=-1), 0.0, atol=1e-7)

    def test_loss_strictly_positive_for_multiclass(self):
        rng = numerics.make_rng(1)
        for _ in range(20):
            out = OutputState(
                membrane=rng.normal(0, 3, size=4).astype(np.float32),
                spike_time=rng.integers(1, 8, size=4),
            )
            res = hybrid_loss(out, one_hot(int(rng.integers(0, 4)), 4))
            assert res.loss > 0.0

    def test_unpopulated_spike_times_rejected(self):
        out = OutputState(membrane=np.zeros(3), spike_time=np.array([1, 0, 2]))
        with pytest.raises(ContractViolation):
            hybrid_loss(out, np.array([1.0, 0.0, 0.0]))


class TestSpikeTimeThresholdGrad:
    def test_worked_two_step_example(self):
        # membranes [0.9, 1.05], V=1, T=2, band 0.2:
        # t=1 term: H(-0.1)*(|1|<.2) - H(1)*(|-0.1|<.2) = -1
        # final term: |1-1.05| < .2 contributes +2, so the total is +1
        membranes = [np.array([[0.9]]), np.array([[1.05]])]
        got = spike_time_threshold_grad(membranes, 1.0, 0.2, 2)
        np.testing.assert_allclose(got, [[1.0]])

    def test_all_boxcars_vanish(self):
        membranes = [np.array([[0.1]]), np.array([[0.2]]), np.array([[0.3]])]
        got = spike_time_threshold_grad(membranes, 1.0, 0.2, 3)
        np.testing.assert_allclose(got, [[0.0]])

    def test_forced_fire_term_only(self):
        membranes = [np.array([[0.0]]), np.array([[0.95]])]
        got = spike_time_threshold_grad(membranes, 1.0, 0.2, 2)
        np.testing.assert_allclose(got, [[2.0]])

    def test_wrong_length_rejected(self):
        with pytest.raises(ContractViolation):
            spike_time_threshold_grad([np.zeros((1, 1))], 1.0, 0.2, 5)


class TestOutputLayerGrads:
    def _run(self, rng, image=None):
        spec = toy_spec()
        params = toy_params(spec, rng)
        image = rng.random(4).astype(np.float32) if image is None else image
        enc = encode_hybrid(image, UNIT, 5)
        out, trace = forward(spec, params, enc, mode=TRAIN, rng=rng)
        loss = hybrid_loss(out, one_hot(np.array([1]), 3))
        return spec, params, trace, loss

    def test_zero_presynaptic_drive_gives_zero_weight_grad(self):
        spec = toy_spec()
        params = [LayerParams(np.zeros(s, np.float32), 1.0, 1.0) for s in spec.weight_shapes()]
        enc = encode_hybrid(np.random.default_rng(0).random(4).astype(np.float32), UNIT, 5)
        out, trace = forward(spec, params, enc, mode=TRAIN, rng=numerics.make_rng(0))
        loss = hybrid_loss(out, one_hot(np.array([0]), 3))
        d_w, _ = output_layer_grads(trace, loss, params, 0.2)
        assert not d_w.any()

    def test_rank_one_structure_per_sample(self):
        rng = numerics.make_rng(3)
        spec, params, trace, loss = self._run(rng)
        d_w, _ = output_layer_grads(trace, loss, params, 0.2)
        assert np.linalg.matrix_rank(np.asarray(d_w, dtype=np.float64), tol=1e-9) <= 1

    def test_matches_manual_outer_product(self):
        rng = numerics.make_rng(4)
        spec, params, trace, loss = self._run(rng)
        x_sum = sum(x.reshape(1, -1) for x in trace.layer_inputs[1])
        manual = np.outer(loss.grad_u.ravel(), x_sum.ravel())
        d_w, _ = output_layer_grads(trace, loss, params, 0.2)
        np.testing.assert_allclose(d_w, manual, atol=1e-6)


class TestHiddenGrads:
    def test_zero_when_surrogate_support_empty(self):
        # zero input keeps membranes at zero, so z = -1 everywhere and the
        # triangular surrogate vanishes
        spec = toy_spec()
        rng = numerics.make_rng(5)
        params = toy_params(spec, rng)
        enc = encode_hybrid(np.zeros(4, np.float32), IntensityRange(-1.0, 1.0), 5)
        out, trace = forward(spec, params, enc, mode=TRAIN, rng=rng)
        # widen: zero image encodes spikes at t=5 (min intensity), overwrite them
        trace.layer_inputs[0] = np.zeros((5, 1, 4), np.float32)
        trace.membranes[0] = np.zeros((5, 1, 6), np.float32)
        loss = hybrid_loss(out, one_hot(np.array([0]), 3))
        grads = bptt_hidden_grads(trace, params, loss, TrainConfig())
        assert not grads.weight[0].any()
        assert grads.threshold[0] == 0.0
        assert grads.leak[0] == 0.0

    def test_leak_grad_zero_when_previous_membrane_zero(self):
        spec = toy_spec(t=2)
        rng = numerics.make_rng(6)
        params = toy_params(spec, rng)
        enc = encode_hybrid(rng.random(4).astype(np.float32), UNIT, 2)
        out, trace = forward(spec, params, enc, mode=TRAIN, rng=rng)
        # force recorded previous membranes to zero: only the t=1 term uses
        # U^0 = 0, so zeroing U^1 kills the t=2 term as well
        trace.membranes[0][0] = np.zeros_like(trace.membranes[0][0])
        loss = hybrid_loss(out, one_hot(np.array([2]), 3))
        grads = bptt_hidden_grads(trace, params, loss, TrainConfig())
        assert grads.leak[0] == pytest.approx(0.0, abs=1e-12)

    def test_infer_trace_rejected(self):
        spec = toy_spec()
        rng = numerics.make_rng(7)
        params = toy_params(spec, rng)
        enc = encode_hybrid(rng.random(4).astype(np.float32), UNIT, 5)
        out, trace = forward(spec, params, enc, mode="infer", with_trace=True)
        loss = hybrid_loss(out, one_hot(np.array([0]), 3))
        with pytest.raises(ContractViolation):
            bptt_hidden_grads(trace, params, loss, TrainConfig())


class TestOptimizer:
    def _grads(self, params, weight=0.0, threshold=0.0, leak=0.0):
        return GradientSet(
            weight=[np.full_like(p.weights, weight) for p in params],
            threshold=[threshold] * len(params),
            leak=[leak] * len(params),
        )

    def test_zero_gradients_leave_params_unchanged(self):
        spec = toy_spec()
        params = toy_params(spec, numerics.make_rng(8))
        out = optimizer_step(params, self._grads(params), TrainConfig(), 0)
        for a, b in zip(out, params):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.threshold == b.threshold
            assert a.leak == b.leak

    def test_sgd_arithmetic(self):
        params = [LayerParams(np.array([[1.0]], np.float32), 1.0, 1.0)]
        grads = GradientSet(weight=[np.array([[0.5]], np.float32)], threshold=[0.0], leak=[0.0])
        out = optimizer_step(params, grads, TrainConfig(lr=0.1), 0)
        assert out[0].weights[0, 0] == pytest.approx(0.95)

    def test_leak_clamped_to_zero(self):
        params = [
            LayerParams(np.zeros((2, 2), np.float32), 1.0, 0.05),
            LayerParams(np.zeros((2, 2), np.float32), 1.0, 1.0),
        ]
        grads = GradientSet(weight=[np.zeros((2, 2), np.float32)] * 2, threshold=[0.0, 0.0], leak=[1.0, 0.0])
        out = optimizer_step(params, grads, TrainConfig(lr=0.1), 0)
        assert out[0].leak == 0.0

    def test_threshold_floor(self):
        params = [LayerParams(np.zeros((1, 1), np.float32), 0.01, 1.0)]
        grads = GradientSet(weight=[np.zeros((1, 1), np.float32)], threshold=[10.0], leak=[0.0])
        out = optimizer_step(params, grads, TrainConfig(lr=0.1), 0)
        assert out[0].threshold == pytest.approx(1e-3)

    def test_output_leak_is_not_trained(self):
        spec = toy_spec()
        params = toy_params(spec, numerics.make_rng(9))
        grads = self._grads(params, leak=5.0)
        out = optimizer_step(params, grads, TrainConfig(lr=0.1), 0)
        assert out[-1].leak == params[-1].leak

    def test_nan_gradient_raises(self):
        params = [LayerParams(np.zeros((1, 1), np.float32), 1.0, 1.0)]
        grads = GradientSet(weight=[np.array([[np.nan]], np.float32)], threshold=[0.0], leak=[0.0])
        with pytest.raises(TrainingError):
            optimizer_step(params, grads, TrainConfig(), 0)

    def test_lr_decay_schedule(self):
        cfg = TrainConfig(lr=1e-4, lr_decay=0.1, lr_decay_every=10)
        assert lr_at(cfg, 0) == pytest.approx(1e-4)
        assert lr_at(cfg, 9) == pytest.approx(1e-4)
        assert lr_at(cfg, 10) == pytest.approx(1e-5)
        assert lr_at(cfg, 25) == pytest.approx(1e-6)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(surrogate_gain=-1.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(spike_time_band=0.0)


class TestFiniteDifference:
    def test_output_weight_path_is_exact(self):
        rng = numerics.make_rng(10)
        spec = toy_spec()
        params = toy_params(spec, rng)
        enc = encode_hybrid(rng.random(4).astype(np.float32), UNIT, 5)
        label = one_hot(np.array([1]), 3)
        clean = 0
        for flat in range(params[1].weights.size):
            probe = finite_difference_check(spec, params, enc, label, "weight", (1, flat), eps=1e-4)
            if probe.boundary:
                continue
            assert probe.rel_error < 1e-4, (flat, probe)
            clean += 1
        assert clean >= 10

    def test_boundary_probe_is_flagged(self):
        rng = numerics.make_rng(11)
        spec = toy_spec()
        params = toy_params(spec, rng)
        enc = encode_hybrid(rng.random(4).astype(np.float32), UNIT, 5)
        label = one_hot(np.array([0]), 3)
        flags = [
            finite_difference_check(spec, params, enc, label, "weight", (0, flat), eps=0.8).boundary
            for flat in range(params[0].weights.size)
        ]
        assert any(flags)

    def test_loss_gradient_wrt_final_membrane(self):
        # grad_u is the exact derivative of the loss at fixed spike times
        rng = numerics.make_rng(12)
        u = rng.normal(size=5).astype(np.float64)
        t = rng.integers(1, 6, size=5)
        y = one_hot(np.array([2]), 5)[0]
        res = hybrid_loss(OutputState(membrane=u, spike_time=t), y)
        eps = 1e-6
        for i in range(5):
            up, um = u.copy(), u.copy()
            up[i] += eps
            um[i] -= eps
            lp = hybrid_loss(OutputState(membrane=up, spike_time=t), y).loss
            lm = hybrid_loss(OutputState(membrane=um, spike_time=t), y).loss
            numeric = (lp - lm) / (2 * eps)
            assert abs(numeric - res.grad_u[i]) < 1e-8


class TestTrainStep:
    def test_single_step_rarely_increases_batch_loss(self):
        rng = numerics.make_rng(13)
        spec = toy_spec(t=5, hidden=10, inputs=6, classes=3)
        cfg = TrainConfig(lr=1e-3)
        improved = 0
        trials = 25
        for trial in range(trials):
            params = toy_params(spec, rng, scale=0.8)
            images = rng.random((16, 6)).astype(np.float32)
            labels = rng.integers(0, 3, size=16)
            enc = encode_hybrid(images, UNIT, 5)
            y = one_hot(labels, 3)
            out, trace = forward(spec, params, enc, mode=TRAIN, rng=numerics.make_rng(trial))
            loss0 = hybrid_loss(out, y)
            grads = backward(trace, params, loss0, cfg)
            stepped = optimizer_step(params, grads, cfg, 0)
            out1, _ = forward(spec, stepped, enc, mode=TRAIN, rng=numerics.make_rng(trial))
            loss1 = hybrid_loss(out1, y)
            improved += loss1.loss <= loss0.loss + 1e-9
        assert improved >= 0.8 * trials

    def test_train_snn_is_deterministic(self):
        spec = toy_spec(t=4, hidden=5, inputs=4, classes=3)
        rng = numerics.make_rng(14)
        images = rng.random((60, 4)).astype(np.float32)
        labels = rng.integers(0, 3, size=60)
        encode = lambda x: encode_hybrid(x, UNIT, 4)
        runs = []
        for _ in range(2):
            params = toy_params(spec, numerics.make_rng(15))
            cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=16)
            trained, hist = train_snn(spec, params, images, labels, cfg, encode, numerics.make_rng(16))
            runs.append((trained, hist))
        for a, b in zip(runs[0][0], runs[1][0]):
            assert a.weights.tobytes() == b.weights.tobytes()
        assert runs[0][1]["loss"] == runs[1][1]["loss"]

    def test_keep_best_returns_best_epoch(self):
        spec = toy_spec(t=4, hidden=5, inputs=4, classes=3)
        rng = numerics.make_rng(17)
        images = rng.random((40, 4)).astype(np.float32)
        labels = rng.integers(0, 3, size=40)
        encode = lambda x: encode_hybrid(x, UNIT, 4)
        params = toy_params(spec, numerics.make_rng(18))
        cfg = TrainConfig(lr=5e-2, epochs=4, batch_size=8, keep_best=True)
        trained, hist = train_snn(
            spec, params, images, labels, cfg, encode, numerics.make_rng(19), eval_set=(images, labels)
        )
        from snnkit.network import evaluate

        final_acc = evaluate(spec, trained, images, labels, encode)
        assert final_acc == pytest.approx(max(hist["accuracy"]))

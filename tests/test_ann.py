import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snnkit import ann, numerics
from snnkit.ann import (
    AnnParams,
    CalibrationConfig,
    ann_accuracy,
    ann_backward,
    ann_forward,
    ann_train,
    calibrate_thresholds,
    convert,
    default_lr_schedule,
    init_ann,
    percentile_nearest_rank,
    softmax_cross_entropy,
)
from snnkit.errors import CalibrationError, ConfigurationError, TrainingError
from snnkit.network import AvgPool, Conv, Dropout, FullyConnected, NetworkSpec


def tiny_spec():
    return NetworkSpec(
        layers=(Conv(3, 3), AvgPool(2), FullyConnected(6), FullyConnected(4)),
        input_shape=(1, 6, 6),
        num_classes=4,
        total_timesteps=2,
    )


def strided_dropout_spec():
    """A stride-2, padding-1 conv, and dropout in front of both fc layers."""
    return NetworkSpec(
        layers=(
            Conv(4, 3, stride=2, padding=1),
            AvgPool(2),
            Dropout(0.3),
            FullyConnected(6),
            Dropout(0.25),
            FullyConnected(4),
        ),
        input_shape=(1, 7, 7),
        num_classes=4,
        total_timesteps=2,
    )


def finite_difference_checks(spec):
    """Central differences against ann_backward on random weight entries; returns how many were compared."""
    rng = numerics.make_rng(1)
    weights = [w.astype(np.float64) for w in init_ann(spec, rng).weights]
    x = rng.normal(size=(3,) + spec.input_shape)
    labels = np.array([0, 2, 3])

    def forward(ws):
        # train mode with a fixed RNG: the same dropout masks on every call
        return ann_forward(spec, ws, x, train=True, rng=numerics.make_rng(4))

    def loss_at(ws):
        return softmax_cross_entropy(forward(ws)[0], labels)[0]

    logits, cache = forward(weights)
    masks = [m for m in cache[0] if m is not None]
    assert len(masks) == sum(isinstance(l, Dropout) for l in spec.layers)
    assert all(0 < m.mean() < 1 for m in masks)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    grads = ann_backward(spec, weights, cache, dlogits)
    eps = 1e-5
    rng_p = numerics.make_rng(2)
    checked = 0
    for layer in range(len(weights)):
        for _ in range(12):
            flat = int(rng_p.integers(0, weights[layer].size))
            wp = [w.copy() for w in weights]
            wm = [w.copy() for w in weights]
            wp[layer].flat[flat] += eps
            wm[layer].flat[flat] -= eps
            numeric = (loss_at(wp) - loss_at(wm)) / (2 * eps)
            analytic = grads[layer].flat[flat]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            if denom < 1e-7:
                continue  # ReLU-dead or dropped entry, both effectively zero
            assert abs(analytic - numeric) / denom < 1e-4
            checked += 1
    return checked


class TestAnnTraining:
    def test_separable_two_class_problem(self):
        rng = numerics.make_rng(0)
        spec = NetworkSpec(
            layers=(FullyConnected(2),), input_shape=(2,), num_classes=2, total_timesteps=1
        )
        n = 80
        labels = np.arange(n) % 2
        images = rng.normal(0, 0.2, size=(n, 2)).astype(np.float32)
        images[:, 0] += np.where(labels == 0, 1.0, -1.0)
        params, _ = ann_train(spec, images, labels, epochs=50, rng=rng, batch_size=16)
        assert ann_accuracy(spec, params, images, labels) == 100.0

    def test_gradients_match_finite_differences(self):
        # the second spec runs the dropout adjoint, a stride and padding
        for spec in (tiny_spec(), strided_dropout_spec()):
            assert finite_difference_checks(spec) >= 20


    def test_divergence_raises_training_error(self):
        rng = numerics.make_rng(3)
        spec = NetworkSpec(
            layers=(FullyConnected(8), FullyConnected(2)), input_shape=(4,), num_classes=2, total_timesteps=1
        )
        images = rng.normal(size=(64, 4)).astype(np.float32) * 100
        labels = (np.arange(64) % 2).astype(np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError):
                ann_train(spec, images, labels, epochs=30, rng=rng, lr_schedule=lambda e: 1e6)

    def test_lr_schedule_decays_at_marks(self):
        lr = default_lr_schedule(20, base_lr=0.01)
        assert lr(0) == pytest.approx(0.01)
        assert lr(11) == pytest.approx(0.01)
        assert lr(12) == pytest.approx(0.001)
        assert lr(16) == pytest.approx(0.01 * 0.1 * 0.1)
        assert lr(18) == pytest.approx(0.01 * 0.1**3)

    def test_no_bias_anywhere(self):
        params = init_ann(tiny_spec(), numerics.make_rng(0))
        # one tensor per weighted layer and nothing else
        assert len(params.weights) == 3


class TestPercentile:
    def test_full_percentile_is_max(self):
        values = np.array([3.0, 1.0, 2.0])
        assert percentile_nearest_rank(values, 100.0) == 3.0

    def test_even_grid(self):
        values = np.linspace(0.001, 1.0, 1000)
        got = percentile_nearest_rank(values, 99.7)
        assert abs(got - 0.997) <= 0.001

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=60), st.integers(0, 2**31))
    def test_permutation_invariant(self, values, seed):
        arr = np.array(values)
        p = 99.7
        shuffled = np.random.default_rng(seed).permutation(arr)
        assert percentile_nearest_rank(arr, p) == percentile_nearest_rank(shuffled, p)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=40))
    def test_monotone_in_rank(self, values):
        arr = np.array(values)
        assert percentile_nearest_rank(arr, 50.0) <= percentile_nearest_rank(arr, 100.0)

    def test_streaming_collector_matches_direct(self):
        rng = numerics.make_rng(5)
        values = rng.normal(size=50_000).astype(np.float32)
        collector = ann._TopCollector(values.size, 99.7)
        for chunk in np.array_split(values, 37):
            collector.add(chunk)
        assert collector.result() == pytest.approx(percentile_nearest_rank(values, 99.7))


class TestCalibration:
    def test_percentile_100_reduces_to_max_rule(self):
        rng = numerics.make_rng(6)
        spec = tiny_spec()
        params = AnnParams(weights=init_ann(spec, rng).weights)
        images = rng.random((8, 1, 6, 6)).astype(np.float32)
        cfg_max = CalibrationConfig(percentile=100.0, num_images=8, calib_timesteps=4)
        got = calibrate_thresholds(params, spec, images, cfg_max)
        # layer 1 sees the same analog current every timestep: its threshold
        # must equal the maximum input current anywhere
        from snnkit.numerics import conv2d

        currents = conv2d(images, params.weights[0])
        assert got[0] == pytest.approx(float(currents.max()), rel=1e-6)

    def test_zero_first_layer_is_a_calibration_error(self):
        rng = numerics.make_rng(7)
        spec = tiny_spec()
        weights = init_ann(spec, rng).weights
        weights[0] = np.zeros_like(weights[0])
        images = rng.random((4, 1, 6, 6)).astype(np.float32)
        with pytest.raises(CalibrationError):
            calibrate_thresholds(AnnParams(weights=weights), spec, images, CalibrationConfig(num_images=4, calib_timesteps=3))

    def test_reproducible_for_same_inputs(self):
        rng = numerics.make_rng(9)
        spec = tiny_spec()
        params = AnnParams(weights=init_ann(spec, rng).weights)
        images = rng.random((6, 1, 6, 6)).astype(np.float32)
        cfg = CalibrationConfig(num_images=6, calib_timesteps=5)
        assert calibrate_thresholds(params, spec, images, cfg) == calibrate_thresholds(params, spec, images, cfg)


class TestConvert:
    def _thresholds(self):
        return [2.5, 1.0]

    def _params(self):
        rng = numerics.make_rng(10)
        return AnnParams(weights=[rng.normal(size=(3, 4)).astype(np.float32), rng.normal(size=(2, 3)).astype(np.float32)])

    def test_identity_scaling(self):
        out = convert(self._params(), self._thresholds(), CalibrationConfig(scaling=1.0))
        assert out[0].threshold == pytest.approx(2.5)

    def test_default_scaling_arithmetic(self):
        out = convert(self._params(), self._thresholds(), CalibrationConfig(scaling=0.4))
        assert out[0].threshold == pytest.approx(1.0)

    def test_weights_copied_bit_exactly_and_leak_unity(self):
        params = self._params()
        out = convert(params, self._thresholds(), CalibrationConfig())
        for p, w in zip(out, params.weights):
            assert p.weights.tobytes() == w.tobytes()
            assert p.weights is not w
            assert p.leak == 1.0

    def test_threshold_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            convert(self._params(), [1.0], CalibrationConfig())

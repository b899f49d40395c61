import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from snnkit import ann, numerics
from snnkit.ann import (
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


class UnfilteredCollector(ann._TopCollector):
    """The collector without its skip of incoming values at or below the kept minimum."""

    def add(self, chunk):
        chunk = np.asarray(chunk, dtype=np.float32).ravel()
        self.seen += chunk.size
        merged = np.concatenate([self._top, chunk])
        if merged.size > self.keep:
            merged = np.partition(merged, merged.size - self.keep)[-self.keep :]
        self._top = merged


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
    weights = [w.astype(np.float64) for w in init_ann(spec, rng)]
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
        weights, _ = ann_train(spec, images, labels, epochs=50, rng=rng, batch_size=16)
        assert ann_accuracy(spec, weights, images, labels) == 100.0

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
        weights = init_ann(tiny_spec(), numerics.make_rng(0))
        # one tensor per weighted layer and nothing else
        assert len(weights) == 3


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

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0]), max_size=12), min_size=1, max_size=10),
        st.sampled_from([0.0, 50.0, 90.0, 99.7, 100.0]),
    )
    def test_skipping_values_below_the_kept_minimum_changes_nothing(self, chunks, p):
        # few distinct values, so ties with the kept minimum are common
        chunks = [np.array(c, dtype=np.float32) for c in chunks]
        values = np.concatenate(chunks)
        assume(values.size)
        filtered, unfiltered = ann._TopCollector(values.size, p), UnfilteredCollector(values.size, p)
        for chunk in chunks:
            filtered.add(chunk)
            unfiltered.add(chunk)
            assert np.array_equal(np.sort(filtered._top), np.sort(unfiltered._top))
        assert filtered.result() == unfiltered.result() == percentile_nearest_rank(values, p)

    def test_nan_after_the_collector_is_full_is_kept(self):
        collector = ann._TopCollector(10, 90.0)  # keeps the top 2
        collector.add(np.arange(8, dtype=np.float32))
        collector.add(np.array([np.nan, 0.5], dtype=np.float32))
        assert np.isnan(collector.result())

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0, np.nan]), max_size=12), min_size=1, max_size=10),
        st.integers(1, 6),
        st.sampled_from([0.0, 50.0, 90.0, 99.7, 100.0]),
    )
    def test_repeated_values_are_collected_once(self, chunks, repeats, p):
        # a chunk added once with ``repeats`` = s stands for s copies of it
        chunks = [np.array(c, dtype=np.float32) for c in chunks]
        values = np.concatenate(chunks)
        assume(values.size)
        once, plain = ann._TopCollector(values.size * repeats, p, repeats), ann._TopCollector(values.size * repeats, p)
        for chunk in chunks:
            once.add(chunk)
            for _ in range(repeats):
                plain.add(chunk)
        got, want = once.result(), plain.result()
        if np.isnan(values).any():  # NaN always enters the kept values, so it ends in a CalibrationError
            assert np.isnan(got) and np.isnan(want)
        else:
            assert got == want == percentile_nearest_rank(np.tile(values, repeats), p)

    def test_small_chunks_merge_once_per_kept_count(self, monkeypatch):
        # values wait and merge in m at a time, however small the chunks they come in
        merges, merge = [], ann._TopCollector._merge

        def counted(collector):
            merges.append(collector._waiting_n)
            merge(collector)

        monkeypatch.setattr(ann._TopCollector, "_merge", counted)
        values = numerics.make_rng(8).normal(size=100_000).astype(np.float32)
        collector = ann._TopCollector(values.size, 99.0)  # keeps the top 1,001
        for chunk in np.array_split(values, 2_000):
            collector.add(chunk)
        assert collector.result() == percentile_nearest_rank(values, 99.0)
        assert len(merges) <= 2 * values.size // collector.keep

    def test_nan_current_is_a_calibration_error(self):
        spec = NetworkSpec(layers=(FullyConnected(5), FullyConnected(3)), input_shape=(4,), num_classes=3, total_timesteps=2)
        weights = init_ann(spec, numerics.make_rng(4))
        images = numerics.make_rng(5).random((6, 4)).astype(np.float32)
        images[2, 1] = np.nan
        with pytest.raises(CalibrationError, match="layer 0"):
            calibrate_thresholds(weights, spec, images, CalibrationConfig(num_images=6, calib_timesteps=3))


class TestCalibration:
    def test_percentile_100_reduces_to_max_rule(self):
        rng = numerics.make_rng(6)
        spec = tiny_spec()
        weights = init_ann(spec, rng)
        images = rng.random((8, 1, 6, 6)).astype(np.float32)
        cfg_max = CalibrationConfig(percentile=100.0, num_images=8, calib_timesteps=4)
        got = calibrate_thresholds(weights, spec, images, cfg_max)
        # layer 1 sees the same analog current every timestep: its threshold
        # must equal the maximum input current anywhere
        from snnkit.numerics import conv2d

        currents = conv2d(images, weights[0])
        assert got[0] == pytest.approx(float(currents.max()), rel=1e-6)

    def test_zero_first_layer_is_a_calibration_error(self):
        rng = numerics.make_rng(7)
        spec = tiny_spec()
        weights = init_ann(spec, rng)
        weights[0] = np.zeros_like(weights[0])
        images = rng.random((4, 1, 6, 6)).astype(np.float32)
        with pytest.raises(CalibrationError):
            calibrate_thresholds(weights, spec, images, CalibrationConfig(num_images=4, calib_timesteps=3))

    def test_reproducible_for_same_inputs(self):
        rng = numerics.make_rng(9)
        spec = tiny_spec()
        weights = init_ann(spec, rng)
        images = rng.random((6, 1, 6, 6)).astype(np.float32)
        cfg = CalibrationConfig(num_images=6, calib_timesteps=5)
        assert calibrate_thresholds(weights, spec, images, cfg) == calibrate_thresholds(weights, spec, images, cfg)


class TestConvert:
    def _thresholds(self):
        return [2.5, 1.0]

    def _weights(self):
        rng = numerics.make_rng(10)
        return [rng.normal(size=(3, 4)).astype(np.float32), rng.normal(size=(2, 3)).astype(np.float32)]

    def test_identity_scaling(self):
        out = convert(self._weights(), self._thresholds(), CalibrationConfig(scaling=1.0))
        assert out[0].threshold == pytest.approx(2.5)

    def test_default_scaling_arithmetic(self):
        out = convert(self._weights(), self._thresholds(), CalibrationConfig(scaling=0.4))
        assert out[0].threshold == pytest.approx(1.0)

    def test_weights_copied_bit_exactly_and_leak_unity(self):
        weights = self._weights()
        out = convert(weights, self._thresholds(), CalibrationConfig())
        for p, w in zip(out, weights):
            assert p.weights.tobytes() == w.tobytes()
            assert p.weights is not w
            assert p.leak == 1.0

    def test_threshold_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            convert(self._weights(), [1.0], CalibrationConfig())

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from snnkit import network, numerics, training
from snnkit.encoding import IntensityRange, encode_direct, encode_hybrid, encode_poisson_rate
from snnkit.errors import ConfigurationError, ContractViolation
from snnkit.network import (
    INFER,
    MULTI_SPIKE,
    SINGLE_SPIKE,
    TRAIN,
    ActivityCounters,
    AvgPool,
    Conv,
    Dropout,
    FullyConnected,
    NetworkSpec,
    forward,
    predict,
    readout_scores,
)
from snnkit.neuron import LayerParams

UNIT = IntensityRange(0.0, 1.0)


def fc_spec(t=4, hidden=3, inputs=4, classes=2):
    return NetworkSpec(
        layers=(FullyConnected(hidden), FullyConnected(classes)),
        input_shape=(inputs,),
        num_classes=classes,
        total_timesteps=t,
    )


def fc_params(spec, rng, scale=0.8, threshold=1.0, leak=1.0):
    return [
        LayerParams(rng.normal(0, scale, s).astype(np.float32), threshold, leak)
        for s in spec.weight_shapes()
    ]


class TestSpecValidation:
    def test_last_layer_must_be_fc_with_class_count(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(layers=(FullyConnected(3), Conv(1, 3)), input_shape=(4,), num_classes=3, total_timesteps=2)
        with pytest.raises(ConfigurationError):
            NetworkSpec(layers=(FullyConnected(3),), input_shape=(4,), num_classes=5, total_timesteps=2)

    def test_pool_divisibility_checked(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(
                layers=(Conv(2, 3), AvgPool(2), FullyConnected(2)),
                input_shape=(1, 5, 5),
                num_classes=2,
                total_timesteps=2,
            )

    def test_dropout_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(
                layers=(Dropout(1.0), FullyConnected(2)),
                input_shape=(4,),
                num_classes=2,
                total_timesteps=2,
            )

    def test_round_trip_serialization(self):
        spec = NetworkSpec(
            layers=(Conv(4, 3, stride=1, padding=1), AvgPool(2), Dropout(0.2), FullyConnected(5)),
            input_shape=(1, 8, 8),
            num_classes=5,
            total_timesteps=6,
        )
        again = NetworkSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_weight_shapes(self):
        spec = NetworkSpec(
            layers=(Conv(4, 3), AvgPool(2), FullyConnected(5)),
            input_shape=(2, 6, 6),
            num_classes=5,
            total_timesteps=2,
        )
        assert spec.weight_shapes() == [(4, 2, 3, 3), (5, 4 * 2 * 2)]
        assert spec.neuron_counts() == [4 * 4 * 4, 5]


class TestForward:
    def test_zero_weights_forced_fire(self):
        spec = fc_spec()
        params = [LayerParams(np.zeros(s, np.float32), 1.0, 1.0) for s in spec.weight_shapes()]
        enc = encode_hybrid(np.array([[0.2, 0.9, 0.5, 0.1]], np.float32), UNIT, 4)
        out, trace = forward(spec, params, enc, mode=TRAIN, rng=numerics.make_rng(0))
        assert (out.membrane == 0).all()
        assert (out.spike_time == 4).all()
        for t in range(4):
            assert not trace.hidden_spikes[0][t].any()

    def test_hybrid_input_schedule(self):
        rng = numerics.make_rng(1)
        spec = fc_spec(t=5)
        params = fc_params(spec, rng)
        image = np.full((1, 4), 1.0, dtype=np.float32)
        enc = encode_hybrid(image, UNIT, 5)
        out, trace = forward(spec, params, enc, mode=TRAIN, rng=rng)
        np.testing.assert_array_equal(trace.layer_inputs[0][0], image)  # t=1 analog frame
        np.testing.assert_array_equal(trace.layer_inputs[0][1], np.ones((1, 4)))  # raster at t=2
        for t in range(2, 5):
            assert not trace.layer_inputs[0][t].any()

    def test_matches_independent_simulator(self):
        """Step-by-step scalar re-simulation of a 2-layer net."""
        rng = numerics.make_rng(7)
        spec = fc_spec(t=5, hidden=4, inputs=3, classes=2)
        params = fc_params(spec, rng, scale=1.0)
        image = rng.random((1, 3)).astype(np.float32)
        enc = encode_hybrid(image, UNIT, 5)
        out, trace = forward(spec, params, enc, mode=TRAIN, rng=rng)

        w1 = params[0].weights.astype(np.float64)
        w2 = params[1].weights.astype(np.float64)
        v1, l1 = params[0].threshold, params[0].leak
        v2 = params[1].threshold
        u1 = np.zeros(4)
        z1 = np.full(4, -1.0)
        fired = np.zeros(4, bool)
        out_u = np.zeros(2)
        spike_t = np.zeros(2, int)
        for t in range(1, 6):
            x = np.asarray(enc.input_at(t)[0], dtype=np.float64)
            cur1 = np.array([sum(w1[j, i] * x[i] for i in range(3)) for j in range(4)])
            gate = z1 > 0
            u1 = l1 * u1 + cur1 - v1 * gate
            z1 = u1 / v1 - 1.0
            spikes = (z1 > 0) & ~fired
            fired |= spikes
            cur2 = np.array([sum(w2[k, j] * spikes[j] for j in range(4)) for k in range(2)])
            prev_u = out_u.copy()
            out_u = out_u + cur2
            for k in range(2):
                if spike_t[k] == 0 and out_u[k] >= v2 and prev_u[k] < v2:
                    spike_t[k] = t
            np.testing.assert_allclose(trace.membranes[0][t - 1][0], u1, atol=1e-5)
            np.testing.assert_array_equal(trace.hidden_spikes[0][t - 1][0], spikes.astype(np.float32))
        spike_t[spike_t == 0] = 5
        np.testing.assert_array_equal(out.spike_time[0], spike_t)
        np.testing.assert_allclose(out.membrane[0], out_u, atol=1e-5)

    def test_train_and_infer_emit_identical_spikes(self):
        rng = numerics.make_rng(3)
        spec = fc_spec(t=6, hidden=8, inputs=5, classes=3)
        params = fc_params(spec, rng)
        enc = encode_hybrid(rng.random((1, 5)).astype(np.float32), UNIT, 6)
        out_train, _ = forward(spec, params, enc, mode=TRAIN, rng=rng)
        out_infer, _ = forward(spec, params, enc, mode=INFER)
        np.testing.assert_array_equal(out_train.spike_time, out_infer.spike_time)
        np.testing.assert_allclose(out_train.membrane, out_infer.membrane, atol=1e-6)

    def test_reset_replay_determinism(self):
        rng = numerics.make_rng(9)
        spec = fc_spec(t=4)
        params = fc_params(spec, rng)
        enc = encode_hybrid(rng.random((1, 4)).astype(np.float32), UNIT, 4)
        runs = []
        for _ in range(2):
            out, trace = forward(spec, params, enc, mode=TRAIN, rng=numerics.make_rng(5))
            runs.append((out, trace))
        a, b = runs
        assert a[0].membrane.tobytes() == b[0].membrane.tobytes()
        assert a[0].spike_time.tobytes() == b[0].spike_time.tobytes()
        for t in range(4):
            assert a[1].membranes[0][t].tobytes() == b[1].membranes[0][t].tobytes()

    def test_single_spike_bound(self):
        rng = numerics.make_rng(11)
        spec = fc_spec(t=8, hidden=16, inputs=6, classes=4)
        params = fc_params(spec, rng, scale=1.5)
        counters = ActivityCounters(spec).track_per_neuron()
        enc = encode_hybrid(rng.random((10, 6)).astype(np.float32), UNIT, 8)
        forward(spec, params, enc, mode=INFER, counters=counters)
        assert counters.per_neuron_spikes[0].max() <= 1
        assert counters.output_spikes[0] <= 10 * 16

    def test_multi_spike_model_can_fire_repeatedly(self):
        spec = fc_spec(t=5, hidden=2, inputs=2, classes=2)
        params = [
            LayerParams(np.full(s, 1.2, np.float32), 1.0, 1.0) for s in spec.weight_shapes()
        ]
        counters = ActivityCounters(spec).track_per_neuron()
        enc = encode_direct(np.array([[1.0, 1.0]], np.float32), 5)
        forward(spec, params, enc, mode=INFER, neuron_model=MULTI_SPIKE, counters=counters)
        assert counters.per_neuron_spikes[0].max() > 1

    def test_params_shape_mismatch(self):
        spec = fc_spec()
        params = [LayerParams(np.zeros((3, 5), np.float32), 1.0, 1.0),
                  LayerParams(np.zeros((2, 3), np.float32), 1.0, 1.0)]
        enc = encode_hybrid(np.zeros((1, 4), np.float32), UNIT, 4)
        with pytest.raises(ConfigurationError, match="weight shapes"):
            forward(spec, params, enc)

    def test_wrong_timestep_count(self):
        spec = fc_spec(t=4)
        params = fc_params(spec, numerics.make_rng(0))
        enc = encode_hybrid(np.zeros((1, 4), np.float32), UNIT, 6)
        with pytest.raises(ConfigurationError, match="T=6"):
            forward(spec, params, enc)

    @pytest.mark.parametrize(
        "encode",
        [
            lambda x: encode_hybrid(x, UNIT, 4),
            lambda x: encode_direct(x, 4),
            lambda x: encode_poisson_rate(x, 4, numerics.make_rng(0)),
        ],
        ids=["hybrid", "direct", "rate"],
    )
    def test_only_a_batch_is_accepted(self, encode):
        spec = fc_spec()
        params = fc_params(spec, numerics.make_rng(0))
        with pytest.raises(ConfigurationError, match="not a batch"):
            forward(spec, params, encode(np.full(4, 0.5, np.float32)))
        out, _ = forward(spec, params, encode(np.full((1, 4), 0.5, np.float32)))
        assert out.membrane.shape == (1, 2)


class TestDropout:
    def spec(self):
        return NetworkSpec(
            layers=(FullyConnected(10), Dropout(0.5), FullyConnected(2)),
            input_shape=(4,),
            num_classes=2,
            total_timesteps=4,
        )

    def test_infer_is_noop(self):
        rng = numerics.make_rng(0)
        spec = self.spec()
        params = fc_params(spec, rng)
        enc = encode_hybrid(rng.random((1, 4)).astype(np.float32), UNIT, 4)
        a, _ = forward(spec, params, enc, mode=INFER)
        b, _ = forward(spec, params, enc, mode=INFER)
        np.testing.assert_array_equal(a.membrane, b.membrane)

    def test_train_mask_constant_over_time_and_scaled(self):
        rng = numerics.make_rng(4)
        spec = self.spec()
        params = [
            LayerParams(np.full(s, 0.9, np.float32), 10.0, 1.0) for s in spec.weight_shapes()
        ]
        enc = encode_direct(np.ones((1, 4), np.float32), 4)
        out, trace = forward(spec, params, enc, mode=TRAIN, rng=rng)
        mask = trace.dropout_masks[1]
        assert mask is not None and set(np.unique(mask)) <= {0.0, 1.0}
        # the output layer's input stream is the masked, rescaled spike stream
        for t in range(4):
            masked = trace.hidden_spikes[0][t] * mask / 0.5
            np.testing.assert_allclose(trace.layer_inputs[1][t], masked, atol=1e-6)

    def test_train_mode_requires_rng(self):
        spec = self.spec()
        params = fc_params(spec, numerics.make_rng(0))
        enc = encode_direct(np.ones((1, 4), np.float32), 4)
        with pytest.raises(ConfigurationError, match="needs an RNG"):
            forward(spec, params, enc, mode=TRAIN, rng=None)


class TestAnalogFrameReuse:
    """A frame presented at consecutive steps is unfolded once, in the forward pass and in BPTT."""

    T = 5

    def spec(self):
        return NetworkSpec(
            layers=(Conv(3, 3), AvgPool(2), FullyConnected(5), FullyConnected(2)),
            input_shape=(1, 6, 6),
            num_classes=2,
            total_timesteps=self.T,
        )

    def counted_unfolds(self, monkeypatch, encode, mode):
        spec = self.spec()
        rng = numerics.make_rng(4)
        params = [LayerParams(rng.normal(0.2, 0.5, s).astype(np.float32), 0.5, 0.9) for s in spec.weight_shapes()]
        calls = {"forward": 0, "bptt": 0}
        phase = ["forward"]
        im2col = numerics.im2col

        def counting(*args, **kwargs):
            calls[phase[0]] += 1
            return im2col(*args, **kwargs)

        monkeypatch.setattr(numerics, "im2col", counting)
        images = rng.random((4,) + spec.input_shape).astype(np.float32)
        out, trace = forward(spec, params, encode(images), mode=mode, rng=rng, neuron_model=MULTI_SPIKE)
        if mode == TRAIN:
            phase[0] = "bptt"
            loss = training.hybrid_loss(out, training.one_hot(np.arange(4) % 2, 2))
            training.backward(trace, params, loss, training.TrainConfig())
        return calls

    @pytest.mark.parametrize("mode", [TRAIN, INFER])
    def test_direct_frame_is_unfolded_once(self, monkeypatch, mode):
        calls = self.counted_unfolds(monkeypatch, lambda x: encode_direct(x, self.T), mode)
        assert calls == {"forward": 1, "bptt": 1 if mode == TRAIN else 0}

    @pytest.mark.parametrize("mode", [TRAIN, INFER])
    def test_hybrid_input_is_unfolded_every_step(self, monkeypatch, mode):
        calls = self.counted_unfolds(monkeypatch, lambda x: encode_hybrid(x, UNIT, self.T), mode)
        assert calls == {"forward": self.T, "bptt": self.T if mode == TRAIN else 0}


class TestBlockMajorPrefix:
    """The conv prefix runs block by block over the samples; every block size gives the whole-batch bits."""

    T = 4
    BATCH = 7

    def spec(self):
        return NetworkSpec(
            layers=(
                Dropout(0.2),
                Conv(3, 3, padding=1),
                AvgPool(2),
                Dropout(0.3),
                Conv(4, 3),
                FullyConnected(6),
                Dropout(0.25),
                FullyConnected(3),
            ),
            input_shape=(2, 8, 8),
            num_classes=3,
            total_timesteps=self.T,
        )

    @staticmethod
    def budget_for(spec, block):
        """A BUDGET that makes the prefix run ``block`` samples at a time (float32 columns)."""
        per_sample = max(
            math.prod(s.weight_shape[1:]) * math.prod(s.out_shape[1:]) * 4 for s in spec.stages if isinstance(s.layer, Conv)
        )
        return block * per_sample

    def run(self, monkeypatch, block, encoding, neuron_model, mode):
        spec = self.spec()
        if block is not None:
            monkeypatch.setattr(network, "BUDGET", self.budget_for(spec, block))
        rng = numerics.make_rng(6)
        params = [LayerParams(rng.normal(0.15, 0.5, s).astype(np.float32), 0.5, 0.9) for s in spec.weight_shapes()]
        images = rng.random((self.BATCH,) + spec.input_shape).astype(np.float32)
        encoded = encode_hybrid(images, UNIT, self.T) if encoding == "hybrid" else encode_direct(images, self.T)
        counters = ActivityCounters(spec).track_per_neuron()
        out, trace = forward(
            spec, params, encoded, mode=mode, rng=numerics.make_rng(3), neuron_model=neuron_model, counters=counters
        )
        return out, trace, counters

    @staticmethod
    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("encoding", ["hybrid", "direct"])
    def test_a_blocked_direct_frame_stays_one_array(self, monkeypatch, block, encoding):
        # the direct frame is one array viewed at stride 0 over the steps, so BPTT unfolds it once
        spec = self.spec()
        _, trace, _ = self.run(monkeypatch, block, encoding, SINGLE_SPIKE, TRAIN)
        inputs = trace.layer_inputs[0]
        assert inputs.shape == (self.T, self.BATCH) + spec.input_shape
        assert (inputs.strides[0] == 0) == (encoding == "direct")
        assert all(np.shares_memory(a, b) == (encoding == "direct") for a, b in zip(inputs, inputs[1:]))
        assert inputs[0].any() and all(self.same(a, inputs[0]) == (encoding == "direct") for a in inputs[1:])
        assert all(layer.strides[0] for layer in trace.layer_inputs[1:])

    @pytest.mark.parametrize("block,blocks", [(1, 7), (3, 3), (7, 1)])
    @pytest.mark.parametrize("encoding", ["hybrid", "direct"])
    def test_each_block_unfolds_its_own_inputs(self, monkeypatch, block, blocks, encoding):
        calls = [0]
        im2col = numerics.im2col

        def counting(*args, **kwargs):
            calls[0] += 1
            return im2col(*args, **kwargs)

        monkeypatch.setattr(numerics, "im2col", counting)
        self.run(monkeypatch, block, encoding, SINGLE_SPIKE, INFER)
        first = self.T if encoding == "hybrid" else 1  # a direct frame is unfolded once per block
        assert calls[0] == blocks * (first + self.T)

    @pytest.mark.parametrize("block,blocks", [(1, 7), (3, 3)])
    @pytest.mark.parametrize("encoding", ["hybrid", "direct"])
    def test_bptt_unfolds_a_direct_frame_once_per_block(self, monkeypatch, block, blocks, encoding):
        spec = self.spec()
        out, trace, _ = self.run(monkeypatch, block, encoding, SINGLE_SPIKE, TRAIN)
        rng = numerics.make_rng(6)  # the parameters ``run`` drew
        params = [LayerParams(rng.normal(0.15, 0.5, s).astype(np.float32), 0.5, 0.9) for s in spec.weight_shapes()]
        loss = training.hybrid_loss(out, training.one_hot(np.arange(self.BATCH) % 3, 3))
        unfolded = []
        im2col = numerics.im2col

        def counting(x, *args, **kwargs):
            unfolded.append((x.shape[1:], len(x)))
            return im2col(x, *args, **kwargs)

        monkeypatch.setattr(numerics, "im2col", counting)
        training.bptt_hidden_grads(trace, params, loss, training.TrainConfig())
        conv1, conv2 = (s.operand_shape for s in spec.stages[:2])
        shapes = [shape for shape, _ in unfolded]
        assert shapes.count(conv1) == blocks * (1 if encoding == "direct" else self.T)
        assert shapes.count(conv2) == blocks * self.T and len(shapes) == shapes.count(conv1) + shapes.count(conv2)
        assert max(n for _, n in unfolded) == block and sum(n for shape, n in unfolded if shape == conv2) == self.T * self.BATCH

    def test_empty_batch_is_rejected(self):
        spec = self.spec()
        params = [LayerParams(np.ones(s, np.float32), 0.5, 0.9) for s in spec.weight_shapes()]
        with pytest.raises(ContractViolation):
            forward(spec, params, encode_hybrid(np.zeros((0,) + spec.input_shape, np.float32), UNIT, self.T))

    def test_per_neuron_tallies_grow_by_rows_over_calls(self, monkeypatch):
        spec = self.spec()
        rng = numerics.make_rng(1)
        params = [LayerParams(rng.normal(0.15, 0.5, s).astype(np.float32), 0.5, 0.9) for s in spec.weight_shapes()]
        images = rng.random((10,) + spec.input_shape).astype(np.float32)
        whole = ActivityCounters(spec).track_per_neuron()
        forward(spec, params, encode_hybrid(images, UNIT, self.T), counters=whole)
        parts = ActivityCounters(spec).track_per_neuron()
        for lo, hi in ((0, 1), (1, 4), (4, 10)):
            forward(spec, params, encode_hybrid(images[lo:hi], UNIT, self.T), counters=parts)
        assert parts.samples == whole.samples == 10
        for g, w, stage in zip(parts.per_neuron_spikes, whole.per_neuron_spikes, spec.stages):
            assert g.dtype == np.int32 and g.shape == (10,) + stage.out_shape
            assert self.same(g, w)
        assert any(w.any() for w in whole.per_neuron_spikes)


class TestUnfoldedNonzeros:
    """``unfolded_nonzeros`` counts what ``np.count_nonzero(unfold(stage, x))`` would, from ``x``."""

    @settings(max_examples=150, deadline=None)
    @given(
        kernel=st.integers(1, 5),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        out_hw=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        negative_zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_counting_the_unfolded_operand(
        self, kernel, stride, padding, out_hw, shape, density, negative_zeros, seed
    ):
        h, w = ((o - 1) * stride + kernel - 2 * padding for o in out_hw)
        assume(h >= 1 and w >= 1)
        spec = NetworkSpec(
            layers=(Conv(2, kernel, stride, padding), FullyConnected(3)),
            input_shape=(shape[1], h, w),
            num_classes=3,
            total_timesteps=2,
        )
        rng = np.random.default_rng(seed)
        x = np.where(rng.random((shape[0],) + spec.input_shape) < density, rng.normal(size=(shape[0],) + spec.input_shape), 0.0)
        if negative_zeros:
            x[rng.random(x.shape) < 0.5] = -0.0
        x = x.astype(np.float32)
        conv, fc = spec.stages
        assert network.unfolded_nonzeros(conv, x) == np.count_nonzero(network.unfold(conv, x))
        y = np.where(rng.random((shape[0],) + fc.operand_shape) < density, np.float32(1.0), np.float32(-0.0))
        assert network.unfolded_nonzeros(fc, y) == np.count_nonzero(network.unfold(fc, y))


class TestTraceStorage:
    """A traced pass stores one (T, B, ...) membrane array per hidden layer; the rest of the state is derived."""

    T = 4

    def run(self, mode, neuron_model=SINGLE_SPIKE):
        spec = NetworkSpec(
            layers=(Conv(3, 3), AvgPool(2), Conv(4, 3), FullyConnected(2)),
            input_shape=(1, 10, 10),
            num_classes=2,
            total_timesteps=self.T,
        )
        rng = numerics.make_rng(8)
        params = [LayerParams(rng.normal(0.2, 0.6, s).astype(np.float32), 0.5, 0.9) for s in spec.weight_shapes()]
        enc = encode_hybrid(rng.random((3,) + spec.input_shape).astype(np.float32), UNIT, self.T)
        _, trace = forward(spec, params, enc, mode=mode, rng=rng, neuron_model=neuron_model)
        return spec, trace

    @pytest.mark.parametrize("neuron_model", [SINGLE_SPIKE, MULTI_SPIKE])
    def test_train_trace_holds_only_the_membrane_per_hidden_step(self, neuron_model):
        spec, trace = self.run(TRAIN, neuron_model=neuron_model)
        hidden = spec.stages[:-1]
        assert set(vars(trace)) == {
            "spec", "neuron_model", "thresholds", "layer_inputs", "membranes", "output_membranes", "dropout_masks",
        }
        assert len(trace.membranes) == len(hidden) == 2 and all(type(v) is float for v in trace.thresholds)
        for stage, layer in zip(hidden, trace.membranes):
            assert type(layer) is np.ndarray and layer.dtype == np.float32
            assert layer.shape == (self.T, 3) + stage.out_shape and layer.flags.c_contiguous
        for stage, layer in zip(spec.stages, trace.layer_inputs):
            assert layer.shape == (self.T, 3) + stage.operand_shape
        assert trace.output_membranes.shape == (self.T, 3, spec.num_classes)
        # no two trace arrays share storage, so each hidden step keeps exactly one membrane
        arrays = trace.layer_inputs + trace.membranes + [trace.output_membranes]
        arrays += [m for m in trace.dropout_masks if m is not None]
        assert not any(np.shares_memory(a, b) for k, a in enumerate(arrays) for b in arrays[k + 1 :])

    def test_an_infer_pass_keeps_no_trace(self):
        assert self.run(INFER)[1] is None


class TestReadout:
    def test_scores_combine_membrane_and_time(self):
        from snnkit.neuron import OutputState

        out = OutputState(membrane=np.array([[2.0, 2.0]]), spike_time=np.array([[3, 1]]))
        np.testing.assert_allclose(readout_scores(out), [[-1.0, 1.0]])
        assert predict(out)[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        from snnkit.neuron import OutputState

        out = OutputState(membrane=np.zeros((1, 4)), spike_time=np.full((1, 4), 5))
        assert predict(out)[0] == 0

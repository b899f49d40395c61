import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snnkit.errors import ConfigurationError
from snnkit.neuron import (
    LayerParams,
    NeuronState,
    OutputState,
    lif_step,
    output_step,
    single_spike_step,
    surrogate_grad,
)


def params_for(threshold=1.0, leak=1.0, n=1):
    return LayerParams(weights=np.zeros((n, n), dtype=np.float32), threshold=threshold, leak=leak)


def state_with(membrane, threshold):
    u = np.asarray(membrane, dtype=np.float32)
    return NeuronState(membrane=u, norm_potential=u / threshold - 1.0, has_spiked=np.zeros_like(u, dtype=bool))


class TestLifStep:
    def test_integrates_and_spikes(self):
        s = state_with([0.5], 1.0)
        new, spikes = lif_step(s, params_for(1.0, 1.0), np.array([0.6], np.float32))
        assert new.membrane[0] == pytest.approx(1.1)
        assert spikes[0] == 1.0

    def test_pure_leak_below_threshold(self):
        s = state_with([0.8], 1.0)
        new, spikes = lif_step(s, params_for(1.0, 0.5), np.array([0.0], np.float32))
        assert new.membrane[0] == pytest.approx(0.4)
        assert spikes[0] == 0.0

    def test_soft_reset_keeps_surplus(self):
        # a membrane above threshold is the previous step's spike, so it resets
        s = state_with([1.1], 1.0)
        new, spikes = lif_step(s, params_for(1.0, 1.0), np.array([0.0], np.float32))
        assert new.membrane[0] == pytest.approx(0.1)
        assert spikes[0] == 0.0

    def test_soft_reset_conservation(self):
        # with no leak, membrane + threshold * spike count telescopes to the
        # summed input current
        p = params_for(threshold=1.0, leak=1.0)
        c = 0.37
        state = state_with([0.0], 1.0)
        total_spikes = 0
        t_steps = 40
        for _ in range(t_steps):
            state, spikes = lif_step(state, p, np.array([c], np.float32))
            total_spikes += int(spikes[0])
        assert state.membrane[0] + 1.0 * total_spikes == pytest.approx(c * t_steps, abs=1e-5)


class TestSingleSpikeStep:
    def run_sequence(self, currents, threshold=1.0, leak=1.0):
        p = params_for(threshold, leak)
        state = NeuronState.zeros((1,))
        spikes = []
        for c in currents:
            state, s = single_spike_step(state, p, np.array([c], np.float32))
            spikes.append(int(s[0]))
        return state, spikes

    def test_first_crossing_at_t3(self):
        _, spikes = self.run_sequence([0.4, 0.4, 0.4])
        assert spikes == [0, 0, 1]

    def test_fires_at_most_once_both_modes(self):
        # drive above threshold at t=2, below, then above again at t=4; the
        # has_spiked gate alone holds the one spike (training and inference
        # run the same rule)
        state, spikes = self.run_sequence([0.0, 1.5, -3.0, 4.0])
        assert spikes == [0, 1, 0, 0]
        assert state.norm_potential[0] > 0 and state.has_spiked[0]

    def test_norm_potential_arithmetic(self):
        state = state_with([0.0], 1.0)
        new, _ = single_spike_step(state, params_for(1.0, 1.0), np.array([1.2], np.float32))
        assert new.norm_potential[0] == pytest.approx(0.2)

    def test_z_consistency_invariant(self):
        rng = np.random.default_rng(0)
        p = params_for(threshold=0.7, leak=0.9)
        state = NeuronState.zeros((5,))
        for _ in range(10):
            state, _ = single_spike_step(state, p, rng.normal(size=5).astype(np.float32))
            np.testing.assert_allclose(state.norm_potential * 0.7 + 0.7, state.membrane, atol=1e-5)

    def test_train_mode_keeps_updating_after_spike(self):
        # after the spike at t=1 the membrane keeps following the recursion
        p = params_for()
        s = NeuronState.zeros((1,))
        s, sp1 = single_spike_step(s, p, np.array([1.5], np.float32))
        m1 = s.membrane[0]
        s, sp2 = single_spike_step(s, p, np.array([0.5], np.float32))
        assert sp1[0] == 1.0 and sp2[0] == 0.0
        # reset gate was active, so membrane moved: 1.5 + 0.5 - 1.0
        assert s.membrane[0] == pytest.approx(1.0)
        assert m1 == pytest.approx(1.5)


@pytest.mark.parametrize("step", [lif_step, single_spike_step])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_in_place_step_matches_fresh_arrays(step, seed):
    # the destination may be the state itself: every field and spike stays byte-equal
    rng = np.random.default_rng(seed)
    p = params_for(threshold=0.6, leak=0.8)
    fresh = NeuronState.zeros((4, 7))
    in_place = NeuronState.zeros((4, 7))
    arrays = (in_place.membrane, in_place.norm_potential, in_place.has_spiked)
    for _ in range(8):
        current = rng.normal(0.3, 0.8, size=(4, 7)).astype(np.float32)
        fresh, spikes = step(fresh, p, current)
        in_place, spikes_in_place = step(in_place, p, current, out=in_place)
        for name in ("membrane", "norm_potential", "has_spiked"):
            assert getattr(in_place, name).tobytes() == getattr(fresh, name).tobytes()
        assert spikes_in_place.tobytes() == spikes.tobytes()
    assert all(a is b for a, b in zip((in_place.membrane, in_place.norm_potential, in_place.has_spiked), arrays))
    assert 0 < in_place.has_spiked.sum() < in_place.has_spiked.size


class TestOutputStep:
    def run_outputs(self, currents, threshold=1.0):
        p = params_for(threshold)
        state = OutputState.zeros((1,))
        total = len(currents)
        for t, c in enumerate(currents, start=1):
            state = output_step(state, p, np.array([c], np.float32), t, total)
        return state

    def test_forced_fire_at_last_step(self):
        state = self.run_outputs([0.1, 0.1, 0.1])
        assert state.spike_time[0] == 3

    def test_crossing_at_second_step(self):
        state = self.run_outputs([0.6, 0.6])
        assert state.spike_time[0] == 2

    def test_immediate_crossing(self):
        state = self.run_outputs([2.0, 0.0, 0.0])
        assert state.spike_time[0] == 1

    def test_membrane_is_running_sum(self):
        rng = np.random.default_rng(2)
        currents = rng.normal(size=6).astype(np.float32)
        state = self.run_outputs(list(currents), threshold=100.0)
        assert state.membrane[0] == pytest.approx(float(currents.sum()), abs=1e-5)

    def test_first_crossing_is_kept(self):
        # cross at t=1, dip below, cross again: spike time stays 1
        state = self.run_outputs([1.2, -1.0, 1.5])
        assert state.spike_time[0] == 1


class TestSurrogate:
    def test_peak_value(self):
        assert surrogate_grad(np.array([0.0]), 0.3)[0] == pytest.approx(0.3)

    def test_support_ends_at_one(self):
        np.testing.assert_array_equal(surrogate_grad(np.array([1.0, -1.0, 2.5]), 0.3), [0.0, 0.0, 0.0])

    def test_midpoint(self):
        assert surrogate_grad(np.array([0.5]), 0.3)[0] == pytest.approx(0.15)

    def test_gain_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            surrogate_grad(np.array([0.0]), 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=0.01, max_value=2.0))
    def test_even_and_bounded(self, z, gain):
        f = surrogate_grad(np.array([z]), gain)[0]
        f_neg = surrogate_grad(np.array([-z]), gain)[0]
        assert f == pytest.approx(f_neg, abs=1e-9)
        assert 0.0 <= f <= gain + 1e-12


def test_layer_params_validation():
    with pytest.raises(ConfigurationError):
        LayerParams(np.zeros((1, 1)), threshold=0.0, leak=1.0)
    with pytest.raises(ConfigurationError):
        LayerParams(np.zeros((1, 1)), threshold=1.0, leak=1.5)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snnkit import encoding, numerics
from snnkit.encoding import IntensityRange, compute_firing_time, encode_direct, encode_hybrid, encode_poisson_rate
from snnkit.errors import EncodingError

UNIT = IntensityRange(0.0, 1.0)


class TestFiringTime:
    def test_max_intensity_fires_first(self):
        assert compute_firing_time(1.0, UNIT, 5) == 2

    def test_min_intensity_fires_last(self):
        assert compute_firing_time(0.0, UNIT, 5) == 5

    def test_half_rounds_away_from_zero(self):
        # 5 + (2-5)*0.5 = 3.5, which rounds to 4
        assert compute_firing_time(0.5, UNIT, 5) == 4

    def test_degenerate_range(self):
        with pytest.raises(EncodingError):
            compute_firing_time(0.3, IntensityRange(0.5, 0.5), 5)

    def test_too_few_timesteps(self):
        with pytest.raises(EncodingError):
            compute_firing_time(0.3, UNIT, 1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=2, max_value=12),
    )
    def test_monotone_non_increasing(self, a, b, t):
        lo, hi = sorted([a, b])
        assert compute_firing_time(hi, UNIT, t) <= compute_firing_time(lo, UNIT, t)

    @pytest.mark.parametrize("t", [2, 3, 5, 8])
    def test_range_is_exactly_two_to_t(self, t):
        sweep = np.linspace(0.0, 1.0, 10_001)
        times = {compute_firing_time(v, UNIT, t) for v in sweep}
        assert times == set(range(2, t + 1))

    def test_out_of_range_intensity_clamps(self):
        assert compute_firing_time(1.7, UNIT, 5) == 2
        assert compute_firing_time(-0.9, UNIT, 5) == 5


class TestHybrid:
    def test_uniform_bright_image(self):
        image = np.ones((2, 2), dtype=np.float32)
        seq = encode_hybrid(image, UNIT, 5)
        np.testing.assert_array_equal(seq.analog_frame, image)
        assert not seq.spikes[0].any()  # t=1 carries the analog frame
        assert seq.spikes[1].all()      # everything fires at t=2
        assert seq.spikes[2:].sum() == 0

    def test_example_pixel_times(self):
        seq = encode_hybrid(np.array([0.0, 0.5, 1.0], dtype=np.float32), UNIT, 5)
        times = [int(np.nonzero(seq.spikes[:, i])[0][0]) + 1 for i in range(3)]
        assert times == [5, 4, 2]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000), st.integers(min_value=2, max_value=9))
    def test_exactly_one_spike_per_pixel(self, seed, t):
        image = np.random.default_rng(seed).random((4, 5)).astype(np.float32)
        seq = encode_hybrid(image, UNIT, t)
        per_pixel = seq.spikes.sum(axis=0)
        assert (per_pixel == 1).all()
        assert not seq.spikes[0].any()
        assert set(np.unique(seq.spikes)) <= {0.0, 1.0}

    def test_monotone_pixel_pair(self):
        seq = encode_hybrid(np.array([0.8, 0.3], dtype=np.float32), UNIT, 6)
        t_bright = int(np.nonzero(seq.spikes[:, 0])[0][0])
        t_dim = int(np.nonzero(seq.spikes[:, 1])[0][0])
        assert t_bright <= t_dim

    def test_input_at_schedule(self):
        image = np.array([0.2, 0.9], dtype=np.float32)
        seq = encode_hybrid(image, UNIT, 4)
        np.testing.assert_array_equal(seq.input_at(1), image)
        for t in range(2, 5):
            np.testing.assert_array_equal(seq.input_at(t), seq.spikes[t - 1])


class TestDirect:
    def test_same_current_every_step(self):
        image = np.random.default_rng(0).random((3, 3)).astype(np.float32)
        seq = encode_direct(image, 3)
        for t in (1, 2, 3):
            np.testing.assert_array_equal(seq.input_at(t), image)
        assert seq.spikes is None

    def test_zero_image(self):
        seq = encode_direct(np.zeros((2, 2), dtype=np.float32), 4)
        assert not seq.input_at(2).any()

    def test_first_layer_preactivation_constant(self):
        rng = np.random.default_rng(1)
        image = rng.random(6).astype(np.float32)
        weights = rng.normal(size=(4, 6)).astype(np.float32)
        seq = encode_direct(image, 3)
        currents = [weights @ seq.input_at(t) for t in (1, 2, 3)]
        np.testing.assert_array_equal(currents[0], currents[1])
        np.testing.assert_array_equal(currents[0], currents[2])


class TestPoissonRate:
    def test_zero_intensity_never_spikes(self):
        seq = encode_poisson_rate(np.zeros(4, dtype=np.float32), 50, numerics.make_rng(0))
        assert seq.spikes.sum() == 0

    def test_unit_intensity_always_spikes(self):
        seq = encode_poisson_rate(np.ones(4, dtype=np.float32), 50, numerics.make_rng(0))
        assert seq.spikes.all()

    def test_half_intensity_concentration(self):
        seq = encode_poisson_rate(np.array([0.5], dtype=np.float32), 1000, numerics.make_rng(123))
        count = int(seq.spikes.sum())
        assert 450 <= count <= 550

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(0, 10_000))
    def test_rate_converges_to_intensity(self, p, seed):
        t = 2000
        seq = encode_poisson_rate(np.array([p], dtype=np.float32), t, numerics.make_rng(seed))
        sigma = np.sqrt(p * (1 - p) / t)
        assert abs(seq.spikes.mean() - p) <= 3 * sigma + 1e-9

    def test_out_of_range_raises(self):
        with pytest.raises(EncodingError):
            encode_poisson_rate(np.array([1.2]), 5, numerics.make_rng(0))
        with pytest.raises(EncodingError):
            encode_poisson_rate(np.array([-0.1]), 5, numerics.make_rng(0))


def test_intensity_range_from_images():
    images = np.array([[0.1, 0.4], [0.9, 0.2]], dtype=np.float32)
    r = encoding.IntensityRange.from_images(images)
    assert r.i_min == pytest.approx(0.1)
    assert r.i_max == pytest.approx(0.9)


def test_intensity_range_rejects_inverted_bounds():
    with pytest.raises(EncodingError):
        IntensityRange(1.0, 0.0)


@pytest.mark.parametrize(
    "encoder,analog",
    [
        (lambda img: encode_hybrid(img, UNIT, 4), [1]),
        (lambda img: encode_direct(img, 4), [1, 2, 3, 4]),
        (lambda img: encode_poisson_rate(img, 4, numerics.make_rng(0)), []),
    ],
    ids=["hybrid", "direct", "rate"],
)
def test_analog_steps_are_the_steps_that_present_the_frame(encoder, analog):
    seq = encoder(np.array([0.2, 0.9], dtype=np.float32))
    assert list(seq.analog_steps) == analog
    assert (seq.mode in encoding.ANALOG_INPUT) == bool(analog)
    for t in range(1, 5):
        assert (seq.input_at(t) is seq.analog_frame) == (t in analog)

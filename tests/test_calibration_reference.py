"""Bit-exact guard for the layer-major threshold calibration.

``reference_thresholds`` is the calibration loop as it stood before it
became one layer-major pass: for every layer l it re-simulates layers
0..l-1 from scratch over the whole sample, time step by time step, and takes
the percentile of all the currents layer l receives. ``ann.calibrate_thresholds``
runs each layer once, from the lower layer's spike train held as bits, and
must give the same thresholds bit for bit, whatever sample blocks its conv
sweeps run in (``network.BUDGET``). A float32 fc GEMM may round differently
at another row count, so both take fc currents on the whole sample.
"""

import math

import numpy as np
import pytest

from snnkit import ann, network
from snnkit.network import AvgPool, Conv, Dropout, FullyConnected, NetworkSpec
from snnkit.neuron import LayerParams, NeuronState, lif_step

IMAGES = 80  # 3-image blocks leave a ragged 2-image one
STEPS = 4


def reference_thresholds(weights, spec, images, percentile, steps):
    """O(L^2) calibration; returns the thresholds and the spike count of every lower-layer run."""
    stages = spec.stages
    thresholds, spikes = [], 0
    for l, target in enumerate(stages):
        below = [LayerParams(w, v, 1.0) for w, v in zip(weights, thresholds)]
        values = []
        states = [NeuronState.zeros((len(images),) + stage.out_shape) for stage in stages[:l]]
        for _ in range(steps):
            x = images
            for i, p in enumerate(below):
                x = network.apply_pre(stages[i], x, None)
                states[i], x = lif_step(states[i], p, network.input_current(stages[i], p.weights, x))
                spikes += int(np.count_nonzero(x))
            drive = network.input_current(target, weights[l], network.apply_pre(target, x, None))
            values.append(np.asarray(drive, dtype=np.float32).ravel())
        thresholds.append(ann.percentile_nearest_rank(np.concatenate(values), percentile))
    return thresholds, spikes


def calibration_spec():
    """conv -> pool -> padded, strided conv -> dropout -> fc -> fc."""
    return NetworkSpec(
        layers=(
            Conv(4, 3),
            AvgPool(2),
            Conv(6, 3, stride=2, padding=1),
            Dropout(0.2),
            FullyConnected(12),
            FullyConnected(3),
        ),
        input_shape=(2, 12, 12),
        num_classes=3,
        total_timesteps=3,
    )


def fc_spec():
    """No conv stage: the calibration runs the whole sample as one block."""
    return NetworkSpec(
        layers=(FullyConnected(16), Dropout(0.2), FullyConnected(12), FullyConnected(3)),
        input_shape=(2, 6, 6),
        num_classes=3,
        total_timesteps=3,
    )


def use_blocks(monkeypatch, spec, dtype, block):
    """Set ``network.BUDGET`` so that the conv stages run in blocks of ``block`` samples."""
    per_sample = max(
        math.prod(s.weight_shape[1:]) * math.prod(s.out_shape[1:]) * np.dtype(dtype).itemsize
        for s in spec.stages
        if isinstance(s.layer, Conv)
    )
    monkeypatch.setattr(network, "BUDGET", block * per_sample)
    assert len(network.conv_blocks(spec, IMAGES, dtype)[1]) == math.ceil(IMAGES / block)


def check_against_reference(spec, dtype, percentile):
    rng = np.random.default_rng(3)
    weights = [rng.normal(0.1, 0.5, s).astype(dtype) for s in spec.weight_shapes()]
    images = rng.random((IMAGES,) + spec.input_shape).astype(dtype)
    cfg = ann.CalibrationConfig(percentile=percentile, num_images=IMAGES, calib_timesteps=STEPS)

    got = ann.calibrate_thresholds(weights, spec, images, cfg)
    want, spikes = reference_thresholds(weights, spec, images, percentile, STEPS)

    assert spikes > 0, "the lower layers must spike"
    assert len(set(want)) == len(want)
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("percentile", [99.7, 100.0])
def test_layer_major_calibration_matches_reference(dtype, percentile):
    check_against_reference(calibration_spec(), dtype, percentile)  # the default BUDGET: one block


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("percentile", [50.0, 99.7, 100.0])
@pytest.mark.parametrize("block", [1, 3])
def test_calibration_in_conv_blocks_matches_reference(monkeypatch, block, percentile, dtype):
    spec = calibration_spec()
    use_blocks(monkeypatch, spec, dtype, block)
    check_against_reference(spec, dtype, percentile)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("percentile", [99.7, 100.0])
def test_calibration_without_conv_stages_matches_reference(dtype, percentile):
    check_against_reference(fc_spec(), dtype, percentile)

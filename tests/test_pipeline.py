"""What an ``Experiment`` holds between and during its phases: each array once, and only while a phase reads it."""

import tracemalloc

import numpy as np
import pytest

from snnkit import data, modelio, pipeline, training
from snnkit.ann import AnnTrainConfig, CalibrationConfig
from snnkit.config import DatasetConfig, ExperimentConfig
from snnkit.network import FullyConnected, NetworkSpec
from snnkit.neuron import LayerParams
from snnkit.training import TrainConfig


@pytest.fixture(scope="module")
def idx_paths(tmp_path_factory):
    return data.write_synthetic_idx(tmp_path_factory.mktemp("idx") / "ds", 160, 60, seed=5)


def config(paths, out_dir, encoder="hybrid", hidden=24):
    return ExperimentConfig(
        dataset=DatasetConfig(format="idx", **paths),
        network=NetworkSpec(
            layers=(FullyConnected(hidden), FullyConnected(10)),
            input_shape=(1, 28, 28),
            num_classes=10,
            total_timesteps=3,
        ),
        encoder=encoder,
        calibration=CalibrationConfig(num_images=32, calib_timesteps=8),
        ann_train=AnnTrainConfig(epochs=2, batch_size=32),
        snn_train=TrainConfig(lr=1e-3, epochs=1, batch_size=32),
        seed=7,
        out_dir=str(out_dir),
    )


def test_only_a_rate_coded_experiment_keeps_the_unit_range_images(idx_paths, tmp_path):
    sets = {enc: pipeline.Experiment(config(idx_paths, tmp_path / enc, enc)).dataset for enc in ("hybrid", "direct", "rate")}
    rate = sets.pop("rate")
    assert np.array_equal(rate.train_images01, data.read_idx_images(idx_paths["train_images"]))
    assert np.array_equal(rate.test_images01, data.read_idx_images(idx_paths["test_images"]))
    for ds in sets.values():
        assert ds.train_images01 is None and ds.test_images01 is None
        assert ds.train_images.tobytes() == rate.train_images.tobytes()
        assert ds.test_images.tobytes() == rate.test_images.tobytes()


def test_convert_drops_the_ann_weights_and_later_phases_reload_them(idx_paths, tmp_path, monkeypatch):
    cfg = config(idx_paths, tmp_path)
    exp = pipeline.Experiment(cfg)
    exp.train_ann()
    exp.calibrate()
    exp.convert()
    assert exp.ann_weights is None
    artifacts = (pipeline.THRESHOLDS_FILE, pipeline.CONVERTED_MODEL)
    first = [(tmp_path / name).read_bytes() for name in artifacts]
    loads = []
    load = exp._load_model
    monkeypatch.setattr(exp, "_load_model", lambda name: loads.append(name) or load(name))
    exp.rngs = pipeline.phase_rngs(cfg.seed)  # calibrate draws the same sample again
    exp.calibrate()
    exp.convert()
    assert loads == [pipeline.ANN_MODEL] and exp.ann_weights is None
    assert [(tmp_path / name).read_bytes() for name in artifacts] == first


def test_fine_tuning_holds_one_model_between_batches(idx_paths, tmp_path, monkeypatch):
    """With a 6.4 MB fc model and a trace of about 1 MB, each batch after the first starts
    with the current model alone: neither the converted model nor the previous batch's
    gradients are kept."""
    cfg = config(idx_paths, tmp_path, hidden=2048)
    exp = pipeline.Experiment(cfg)
    rng = np.random.default_rng(0)
    converted = [LayerParams((rng.standard_normal(s) * 0.05).astype(np.float32), 1.0, 1.0) for s in cfg.network.weight_shapes()]
    model_bytes = sum(p.weights.nbytes for p in converted)
    modelio.save_params(tmp_path / pipeline.CONVERTED_MODEL, converted)
    del converted
    held = []  # traced bytes when each batch's forward pass starts
    forward = training.forward

    def spy(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward", spy)
    tracemalloc.start()
    try:
        exp.train_snn()
    finally:
        tracemalloc.stop()
    assert len(held) == 5
    assert max(held) < 1.5 * model_bytes

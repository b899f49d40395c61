"""Benchmark workloads: seeded input files plus the experiment config that reads them.

Each workload writes its dataset to disk in the format a CLI user would hand
to snnkit (IDX for the desk workloads, CIFAR-10 binary records for
``wide-cifar``), so the program under test only ever sees files. The
workload seed drives the generated images; the experiment seed stays at the
config default, so training randomness is the same in every run and the
accuracy, energy and spike-activity metrics depend on the data alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from snnkit import data
from snnkit.ann import AnnTrainConfig, CalibrationConfig
from snnkit.config import DatasetConfig, ExperimentConfig
from snnkit.network import AvgPool, Conv, Dropout, FullyConnected, NetworkSpec
from snnkit.training import TrainConfig

DESK_LAYERS = (Conv(8, 5), AvgPool(2), Conv(16, 3), AvgPool(2), FullyConnected(64), Dropout(0.1), FullyConnected(10))
WIDE_LAYERS = (
    Conv(32, 3, padding=1),
    AvgPool(2),
    Conv(64, 3, padding=1),
    AvgPool(2),
    FullyConnected(128),
    Dropout(0.1),
    FullyConnected(10),
)

# Foreground colour per class for the CIFAR-format images; the glyph shape
# carries the class as well, so both cues agree.
_PALETTE = 0.3 + 0.7 * np.array(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1], [1, 0.5, 0], [0.5, 0, 1], [0, 0.5, 0.5]]
)


@dataclass(frozen=True)
class Workload:
    name: str
    data_format: str          # "idx" or "cifar-binary"
    layers: tuple
    input_shape: tuple
    encoder: str
    neuron_model: str
    n_train: int
    n_test: int
    ann_epochs: int
    ann_batch: int
    calib_images: int
    calib_timesteps: int
    timesteps: int = 5
    snn_batch: int = 32

    @property
    def single_spike(self) -> bool:
        return self.neuron_model == "single_spike"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-hybrid",
            data_format="idx",
            layers=DESK_LAYERS,
            input_shape=(1, 28, 28),
            encoder="hybrid",
            neuron_model="single_spike",
            n_train=1000,
            n_test=200,
            ann_epochs=4,
            ann_batch=64,
            calib_images=64,
            calib_timesteps=20,
        ),
        Workload(
            name="desk-direct-ms",
            data_format="idx",
            layers=DESK_LAYERS,
            input_shape=(1, 28, 28),
            encoder="direct",
            neuron_model="multi_spike",
            n_train=1000,
            n_test=200,
            ann_epochs=4,
            ann_batch=64,
            calib_images=64,
            calib_timesteps=20,
        ),
        Workload(
            name="wide-cifar",
            data_format="cifar-binary",
            layers=WIDE_LAYERS,
            input_shape=(3, 32, 32),
            encoder="hybrid",
            neuron_model="single_spike",
            n_train=160,
            n_test=64,
            ann_epochs=5,
            ann_batch=16,
            calib_images=48,
            calib_timesteps=10,
        ),
    )
}


def _write_cifar(path, glyphs: np.ndarray, labels: np.ndarray, rng: np.random.Generator):
    """Colour 1-channel glyph images into CIFAR-10 binary records (label byte + 3072 pixels)."""
    n = len(glyphs)
    fg = (_PALETTE[labels] + rng.uniform(-0.08, 0.08, (n, 3)))[:, :, None, None]
    bg = rng.uniform(0.0, 0.35, (n, 3, 1, 1))
    images = np.clip(bg * (1.0 - glyphs) + fg * glyphs + rng.normal(0.0, 0.03, (n, 3, 32, 32)), 0.0, 1.0)
    pixels = np.round(images * 255.0).astype(np.uint8).reshape(n, -1)
    records = np.concatenate([labels.astype(np.uint8)[:, None], pixels], axis=1)
    with open(path, "wb") as fh:
        fh.write(records.tobytes())


def write_dataset(workload: Workload, seed: int, directory: str) -> DatasetConfig:
    """Generate the workload's train/test files from ``seed`` and describe them."""
    os.makedirs(directory, exist_ok=True)
    if workload.data_format == "idx":
        paths = data.write_synthetic_idx(directory, workload.n_train, workload.n_test, seed)
        return DatasetConfig(format="idx", **paths)
    tr_x, tr_y, te_x, te_y = data.synthetic_digits(workload.n_train, workload.n_test, seed, size=32)
    rng = np.random.default_rng([seed, 1])
    half = workload.n_train // 2
    train_files = [os.path.join(directory, f"data_batch_{i}.bin") for i in (1, 2)]
    _write_cifar(train_files[0], tr_x[:half], tr_y[:half], rng)
    _write_cifar(train_files[1], tr_x[half:], tr_y[half:], rng)
    test_file = os.path.join(directory, "test_batch.bin")
    _write_cifar(test_file, te_x, te_y, rng)
    return DatasetConfig(format="cifar-binary", train_files=train_files, test_files=[test_file])


def make_config(workload: Workload, dataset: DatasetConfig, out_dir: str) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=dataset,
        network=NetworkSpec(workload.layers, workload.input_shape, 10, workload.timesteps),
        encoder=workload.encoder,
        neuron_model=workload.neuron_model,
        calibration=CalibrationConfig(num_images=workload.calib_images, calib_timesteps=workload.calib_timesteps),
        ann_train=AnnTrainConfig(epochs=workload.ann_epochs, batch_size=workload.ann_batch),
        snn_train=TrainConfig(
            lr=2e-3,
            epochs=1,
            batch_size=workload.snn_batch,
            threshold_lr_scale=0.05,
            leak_lr_scale=0.05,
        ),
        out_dir=out_dir,
    )

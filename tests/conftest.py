"""Shared fixtures, including the session-scoped desk-scale training run."""

import numpy as np
import pytest

from snnkit import ann, data, network, numerics, training
from snnkit.encoding import IntensityRange, encode_direct, encode_hybrid

DESK_SEED = 42


@pytest.fixture(scope="session")
def desk_dataset():
    tr_x, tr_y, te_x, te_y = data.synthetic_digits(2000, 500, seed=DESK_SEED)
    return data.normalize_dataset(tr_x, tr_y, te_x, te_y)


@pytest.fixture(scope="session")
def desk_spec():
    return network.NetworkSpec(
        layers=(
            network.Conv(8, 5),
            network.AvgPool(2),
            network.Conv(16, 3),
            network.AvgPool(2),
            network.FullyConnected(64),
            network.Dropout(0.1),
            network.FullyConnected(10),
        ),
        input_shape=(1, 28, 28),
        num_classes=10,
        total_timesteps=5,
    )


@pytest.fixture(scope="session")
def desk_ann(desk_dataset, desk_spec):
    print("\n[desk] training the ANN ...")
    weights, history = ann.ann_train(
        desk_spec,
        desk_dataset.train_images,
        desk_dataset.train_labels,
        epochs=12,
        rng=numerics.make_rng(1),
        batch_size=64,
    )
    acc = ann.ann_accuracy(desk_spec, weights, desk_dataset.test_images, desk_dataset.test_labels)
    print(f"[desk] ANN test accuracy: {acc:.2f}%")
    return {"weights": weights, "accuracy": acc, "history": history}


@pytest.fixture(scope="session")
def desk_calibration_config():
    return ann.CalibrationConfig(num_images=256, calib_timesteps=60)


@pytest.fixture(scope="session")
def desk_thresholds(desk_ann, desk_dataset, desk_spec, desk_calibration_config):
    print("[desk] calibrating thresholds ...")
    rng = numerics.make_rng(2)
    idx = rng.choice(len(desk_dataset.train_images), size=desk_calibration_config.num_images, replace=False)
    thresholds = ann.calibrate_thresholds(
        desk_ann["weights"], desk_spec, desk_dataset.train_images[idx], desk_calibration_config
    )
    print(f"[desk] thresholds: {['%.3f' % t for t in thresholds]}")
    return thresholds


@pytest.fixture(scope="session")
def desk_converted(desk_ann, desk_thresholds, desk_calibration_config):
    return ann.convert(desk_ann["weights"], desk_thresholds, desk_calibration_config)


@pytest.fixture(scope="session")
def desk_intensity_range(desk_dataset):
    return IntensityRange.from_images(desk_dataset.train_images)


@pytest.fixture(scope="session")
def desk_encode_hybrid(desk_intensity_range, desk_spec):
    t = desk_spec.total_timesteps
    rng_range = desk_intensity_range
    return lambda images: encode_hybrid(images, rng_range, t)


@pytest.fixture(scope="session")
def desk_train_config():
    # Weight rate raised for desk scale; the shared threshold/leak rates stay
    # at the default 1e-4 via the scale factors.
    return training.TrainConfig(
        lr=2e-3,
        epochs=20,
        batch_size=32,
        threshold_lr_scale=0.05,
        leak_lr_scale=0.05,
        keep_best=True,
    )


def _finetune(spec, params, dataset, config, encode, neuron_model, label):
    print(f"[desk] fine-tuning ({label}) ...")

    def evaluate(ps, count=False):
        return (network.evaluate(spec, ps, dataset.test_images, dataset.test_labels, encode, neuron_model=neuron_model),)

    params, history = training.train_snn(
        spec,
        params,
        dataset.train_images,
        dataset.train_labels,
        config,
        encode,
        numerics.make_rng(3),
        neuron_model=neuron_model,
        score=evaluate,
    )
    (acc,) = evaluate(params)
    assert history["score"] == (acc,)  # train_snn returns the parameters it scored
    print(f"[desk] {label}: final accuracy {acc:.2f}%, best epoch {max(history['accuracy']):.2f}%")
    return {"params": params, "accuracy": acc, "history": history}


@pytest.fixture(scope="session")
def desk_finetuned(desk_spec, desk_converted, desk_dataset, desk_train_config, desk_encode_hybrid):
    return _finetune(
        desk_spec, desk_converted, desk_dataset, desk_train_config, desk_encode_hybrid,
        network.SINGLE_SPIKE, "hybrid single-spike",
    )


@pytest.fixture(scope="session")
def desk_baseline(desk_spec, desk_converted, desk_dataset, desk_train_config):
    t = desk_spec.total_timesteps
    encode = lambda images: encode_direct(images, t)
    return _finetune(
        desk_spec, desk_converted, desk_dataset, desk_train_config, encode,
        network.MULTI_SPIKE, "direct multi-spike baseline",
    )


@pytest.fixture()
def rng():
    return numerics.make_rng(0)

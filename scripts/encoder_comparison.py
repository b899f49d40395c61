#!/usr/bin/env python3
"""Compare input encoders on spiking activity, accuracy, and compute energy.

Trains one ANN, converts it once, then fine-tunes three spiking variants
from the same initialization: hybrid encoding with single-spike neurons,
direct encoding with standard multi-spike LIF neurons, and Poisson rate
encoding with multi-spike neurons. Prints a per-variant table of test
accuracy, per-layer spike activity, and the compute-energy ratio.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from snnkit import ann, data, numerics, training
from snnkit.encoding import IntensityRange, encode_direct, encode_hybrid, encode_poisson_rate
from snnkit.metrics import EnergyCosts, energy
from snnkit.network import (
    MULTI_SPIKE,
    SINGLE_SPIKE,
    ActivityCounters,
    AvgPool,
    Conv,
    Dropout,
    FullyConnected,
    NetworkSpec,
    evaluate,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--timesteps", type=int, default=5)
    parser.add_argument("--train-samples", type=int, default=2000)
    parser.add_argument("--test-samples", type=int, default=500)
    parser.add_argument("--snn-epochs", type=int, default=10)
    args = parser.parse_args()

    tr_x, tr_y, te_x, te_y = data.synthetic_digits(args.train_samples, args.test_samples, args.seed)
    ds = data.normalize_dataset(tr_x, tr_y, te_x, te_y)
    spec = NetworkSpec(
        layers=(
            Conv(8, 5),
            AvgPool(2),
            Conv(16, 3),
            AvgPool(2),
            FullyConnected(64),
            Dropout(0.1),
            FullyConnected(10),
        ),
        input_shape=(1, 28, 28),
        num_classes=10,
        total_timesteps=args.timesteps,
    )

    print("training the ANN ...")
    params, _ = ann.ann_train(spec, ds.train_images, ds.train_labels, epochs=12,
                              rng=numerics.make_rng(1), batch_size=64)
    print(f"ANN accuracy: {ann.ann_accuracy(spec, params, ds.test_images, ds.test_labels):.2f}%")

    calib = ann.CalibrationConfig(num_images=min(256, len(ds.train_images)), calib_timesteps=60)
    rng = numerics.make_rng(2)
    idx = rng.choice(len(ds.train_images), size=calib.num_images, replace=False)
    thresholds = ann.calibrate_thresholds(params, spec, ds.train_images[idx], calib)
    irange = IntensityRange.from_images(ds.train_images)
    t = args.timesteps

    rate_rng = numerics.make_rng(4)
    variants = {
        "hybrid/single-spike": (SINGLE_SPIKE, lambda x: encode_hybrid(x, irange, t), ds.train_images, ds.test_images, "hybrid"),
        "direct/multi-spike": (MULTI_SPIKE, lambda x: encode_direct(x, t), ds.train_images, ds.test_images, "direct"),
        "rate/multi-spike": (MULTI_SPIKE, lambda x: encode_poisson_rate(x, t, rate_rng), ds.train_images01, ds.test_images01, "rate"),
    }

    cfg = training.TrainConfig(
        lr=2e-3, epochs=args.snn_epochs, batch_size=32,
        threshold_lr_scale=0.05, leak_lr_scale=0.05, keep_best=True,
    )

    print(f"\n{'variant':24s} {'acc %':>7s} {'mean act':>9s} {'E ratio':>8s}  per-layer activity")
    for name, (model, encode, train_imgs, test_imgs, mode) in variants.items():
        snn = ann.convert(params, thresholds, calib)
        snn, _ = training.train_snn(
            spec, snn, train_imgs, ds.train_labels, cfg, encode, numerics.make_rng(3),
            neuron_model=model, eval_set=(test_imgs, ds.test_labels),
        )
        counters = ActivityCounters(spec)
        acc = evaluate(spec, snn, test_imgs, ds.test_labels, encode, neuron_model=model, counters=counters)
        rep = energy(spec, counters, mode, EnergyCosts())
        act = rep.spike_activity
        print(f"{name:24s} {acc:7.2f} {np.mean(act):9.3f} {rep.ratio:8.2f}  {[round(z, 3) for z in act]}")


if __name__ == "__main__":
    main()

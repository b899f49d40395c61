#!/usr/bin/env python3
"""End-to-end experiment on the bundled synthetic digit corpus.

Generates the IDX files, writes an experiment config, and runs the full
pipeline: ANN training, threshold calibration, conversion, spiking
fine-tuning with hybrid encoding, evaluation, and the energy profile.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from snnkit import data, pipeline
from snnkit.ann import AnnTrainConfig, CalibrationConfig
from snnkit.config import DatasetConfig, ExperimentConfig
from snnkit.network import AvgPool, Conv, Dropout, FullyConnected, NetworkSpec
from snnkit.training import TrainConfig


def desk_config(out_dir, seed, train_samples, test_samples, timesteps, snn_epochs, encoder="hybrid"):
    """The desk-scale experiment: synthetic digits written under ``out_dir/dataset``, a two-conv network."""
    paths = data.write_synthetic_idx(os.path.join(out_dir, "dataset"), train_samples, test_samples, seed)
    return ExperimentConfig(
        dataset=DatasetConfig(format="idx", **paths),
        network=NetworkSpec(
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
            total_timesteps=timesteps,
        ),
        encoder=encoder,
        calibration=CalibrationConfig(num_images=256, calib_timesteps=60),
        ann_train=AnnTrainConfig(epochs=12, batch_size=64),
        snn_train=TrainConfig(
            lr=2e-3,
            epochs=snn_epochs,
            batch_size=32,
            threshold_lr_scale=0.05,
            leak_lr_scale=0.05,
            keep_best=True,
        ),
        seed=seed,
        out_dir=out_dir,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/synthetic", help="output directory")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--train-samples", type=int, default=2000)
    parser.add_argument("--test-samples", type=int, default=500)
    parser.add_argument("--timesteps", type=int, default=5)
    parser.add_argument("--encoder", choices=("hybrid", "direct", "rate"), default="hybrid")
    parser.add_argument("--snn-epochs", type=int, default=20)
    args = parser.parse_args()

    cfg = desk_config(args.out, args.seed, args.train_samples, args.test_samples, args.timesteps, args.snn_epochs, args.encoder)
    cfg.to_json(os.path.join(args.out, "config.json"))

    report = pipeline.run_experiment(cfg)
    print(json.dumps(
        {
            "accuracy_ann": report.accuracy_ann,
            "accuracy_converted": report.accuracy_converted,
            "accuracy_finetuned": report.accuracy_finetuned,
            "mean_hidden_activity": float(sum(report.energy.spike_activity) / len(report.energy.spike_activity)),
            "e_ann_pj": report.energy.e_ann_pj,
            "e_snn_pj": report.energy.e_snn_pj,
            "energy_ratio": report.energy.ratio,
            "out_dir": args.out,
        },
        indent=2,
    ))


if __name__ == "__main__":
    main()

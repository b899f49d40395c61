#!/usr/bin/env python3
"""Compare input encoders on spiking activity, accuracy, and compute energy.

Trains one ANN, calibrates and converts it once, then fine-tunes three
spiking variants from that converted model: hybrid encoding with
single-spike neurons, direct encoding with standard multi-spike LIF
neurons, and Poisson rate encoding with multi-spike neurons. Each variant
is an ``Experiment`` over the same output directory that resumes from the
converted model. Prints a per-variant table of test accuracy, per-layer
spike activity, and the compute-energy ratio.
"""

import argparse
import dataclasses
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from run_synthetic import desk_config
from snnkit.encoding import DIRECT, HYBRID, RATE
from snnkit.network import MULTI_SPIKE, SINGLE_SPIKE
from snnkit.pipeline import Experiment

VARIANTS = {
    "hybrid/single-spike": (HYBRID, SINGLE_SPIKE),
    "direct/multi-spike": (DIRECT, MULTI_SPIKE),
    "rate/multi-spike": (RATE, MULTI_SPIKE),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--timesteps", type=int, default=5)
    parser.add_argument("--train-samples", type=int, default=2000)
    parser.add_argument("--test-samples", type=int, default=500)
    parser.add_argument("--snn-epochs", type=int, default=10)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as out:
        cfg = desk_config(out, args.seed, args.train_samples, args.test_samples, args.timesteps, args.snn_epochs)
        print("training the ANN ...")
        base = Experiment(cfg)
        base.train_ann()
        print(f"ANN accuracy: {base.report.accuracy_ann:.2f}%")
        base.calibrate()
        base.convert()

        print(f"\n{'variant':24s} {'acc %':>7s} {'mean act':>9s} {'E ratio':>8s}  per-layer activity")
        for name, (encoder, neuron_model) in VARIANTS.items():
            variant = Experiment(dataclasses.replace(cfg, encoder=encoder, neuron_model=neuron_model))
            variant.train_snn()
            acc = variant.eval()
            rep = variant.profile()
            act = rep.spike_activity
            print(f"{name:24s} {acc:7.2f} {np.mean(act):9.3f} {rep.ratio:8.2f}  {[round(z, 3) for z in act]}")


if __name__ == "__main__":
    main()

"""Experiment orchestration: ANN training through conversion, fine-tuning,
evaluation, and energy profiling, with artifacts persisted after each phase.

Every phase derives its RNG from the experiment seed through a fixed
SeedSequence spawn order, so a given (config, seed) pair reproduces the same
accuracies, spike activities, and reports.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import ann as ann_mod
from . import data as data_mod
from . import modelio, training
from .config import ExperimentConfig, RunReport
from .encoding import DIRECT, HYBRID, RATE, IntensityRange, encode_direct, encode_hybrid, encode_poisson_rate
from .errors import ConfigurationError, EmissionError, IngestionError, SnnkitError
from .metrics import EnergyCosts, energy, energy_ratio
from .network import MULTI_SPIKE, ActivityCounters, check_params, evaluate
from .neuron import LayerParams

ANN_MODEL = "ann.model"
THRESHOLDS_FILE = "thresholds.json"
CONVERTED_MODEL = "converted.model"
SNN_MODEL = "snn.model"
REPORT_FILE = "report.json"
SPIKE_CSV = "spike_activity.csv"
ENERGY_CSV = "energy.csv"
LOSS_CSV = "loss_curves.csv"

_PHASE_NAMES = ("train-ann", "calibrate", "convert", "train-snn", "eval", "profile")


def phase_rngs(seed: int) -> dict:
    children = np.random.SeedSequence(seed).spawn(len(_PHASE_NAMES))
    return {name: np.random.default_rng(ss) for name, ss in zip(_PHASE_NAMES, children)}


def load_experiment_dataset(cfg: ExperimentConfig) -> data_mod.Dataset:
    ds = cfg.dataset
    if ds.format == "idx":
        train01 = data_mod.read_idx_images(ds.train_images)
        train_labels = data_mod.read_idx_labels(ds.train_labels, cfg.network.num_classes)
        test01 = data_mod.read_idx_images(ds.test_images)
        test_labels = data_mod.read_idx_labels(ds.test_labels, cfg.network.num_classes)
        for images, labels, images_path, labels_path in (
            (train01, train_labels, ds.train_images, ds.train_labels),
            (test01, test_labels, ds.test_images, ds.test_labels),
        ):
            if not len(images):
                raise IngestionError(f"{images_path}: holds no images")
            if len(images) != len(labels):
                raise IngestionError(f"{labels_path}: {len(labels)} labels for the {len(images)} images in {images_path}")
    elif ds.format == "cifar-binary":
        train01, train_labels = data_mod.read_cifar_binary(ds.train_files, cfg.network.num_classes)
        test01, test_labels = data_mod.read_cifar_binary(ds.test_files, cfg.network.num_classes)
    else:
        raise ConfigurationError(f"unknown dataset format {ds.format!r}")
    for split, images in (("train", train01), ("test", test01)):
        if images.shape[1:] != tuple(cfg.network.input_shape):
            raise ConfigurationError(
                f"{split} images have shape {images.shape[1:]}, network.input_shape is {tuple(cfg.network.input_shape)}"
            )
    return data_mod.normalize_dataset(train01, train_labels, test01, test_labels)


def make_encoder(cfg: ExperimentConfig, dataset: data_mod.Dataset, rng: np.random.Generator):
    """Batch encoder closure for the configured input coding; ``rng`` drives the rate encoder's draws."""
    t = cfg.network.total_timesteps
    if cfg.encoder == HYBRID:
        rng_range = IntensityRange.from_images(dataset.train_images)
        return lambda images: encode_hybrid(images, rng_range, t)
    if cfg.encoder == DIRECT:
        return lambda images: encode_direct(images, t)
    if cfg.encoder == RATE:
        return lambda images01: encode_poisson_rate(images01, t, rng)
    raise ConfigurationError(f"unknown encoder {cfg.encoder!r}")


def encoder_inputs(cfg: ExperimentConfig, dataset: data_mod.Dataset, split: str):
    """Image arrays the configured encoder consumes (raw [0,1] for rate)."""
    if cfg.encoder == RATE:
        return dataset.train_images01 if split == "train" else dataset.test_images01
    return dataset.train_images if split == "train" else dataset.test_images


def _eval_slice(cfg, images, labels):
    n = cfg.eval_samples or len(images)
    return images[:n], labels[:n]


def _tag_phase(exc: SnnkitError, phase: str) -> SnnkitError:
    exc.args = (f"[phase {phase}] {exc}",)
    return exc


class Experiment:
    """Stateful driver that runs phases in order and persists artifacts."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg.validate()
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot create output directory {cfg.out_dir!r}: {exc}") from exc
        self.dataset = load_experiment_dataset(cfg)
        self.rngs = phase_rngs(cfg.seed)
        self.report = RunReport(config=cfg.to_dict(), seed=cfg.seed)
        self.ann_weights = None
        self.thresholds = None
        self.snn_params = None
        self._scores = {}  # model file -> (accuracy, counters), see _score

    def _path(self, name: str) -> str:
        return os.path.join(self.cfg.out_dir, name)

    def _timed(self, phase, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except SnnkitError as exc:
            raise _tag_phase(exc, phase)
        self.report.wall_clock_s[phase] = time.perf_counter() - start
        return result

    # -- phases ------------------------------------------------------------

    def train_ann(self):
        def run():
            cfg = self.cfg
            weights, history = ann_mod.ann_train(
                cfg.network,
                self.dataset.train_images,
                self.dataset.train_labels,
                epochs=cfg.ann_train.epochs,
                rng=self.rngs["train-ann"],
                lr_schedule=ann_mod.default_lr_schedule(cfg.ann_train.epochs, cfg.ann_train.base_lr),
                batch_size=cfg.ann_train.batch_size,
                momentum=cfg.ann_train.momentum,
            )
            self.ann_weights = weights
            self.report.ann_loss_curve = history["loss"]
            images, labels = _eval_slice(cfg, self.dataset.test_images, self.dataset.test_labels)
            self.report.accuracy_ann = ann_mod.ann_accuracy(cfg.network, weights, images, labels)
            self._save_model(ANN_MODEL, [LayerParams(w, 1.0, 1.0) for w in weights])
            return weights

        return self._timed("train-ann", run)

    def _require_ann(self):
        if self.ann_weights is None:
            self.ann_weights = [p.weights for p in self._load_model(ANN_MODEL)]
        return self.ann_weights

    def calibrate(self):
        def run():
            cfg = self.cfg
            ann_weights = self._require_ann()
            rng = self.rngs["calibrate"]
            count = min(cfg.calibration.num_images, len(self.dataset.train_images))
            idx = rng.choice(len(self.dataset.train_images), size=count, replace=False)
            self.thresholds = ann_mod.calibrate_thresholds(
                ann_weights, cfg.network, self.dataset.train_images[idx], cfg.calibration
            )
            with modelio.atomic_write(self._path(THRESHOLDS_FILE), "w") as fh:
                json.dump({"thresholds": self.thresholds}, fh, indent=2)
                fh.write("\n")
            return self.thresholds

        return self._timed("calibrate", run)

    def _require_thresholds(self):
        if self.thresholds is None:
            path = self._path(THRESHOLDS_FILE)
            if not os.path.exists(path):
                raise ConfigurationError(f"no thresholds at {path}; run calibrate first")
            try:
                with open(path) as fh:
                    thresholds = json.load(fh)["thresholds"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise IngestionError(f"{path}: unreadable thresholds file: {exc!r}") from exc
            # the upper bound also rejects NaN, infinities and ints too large for a float
            if not isinstance(thresholds, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v <= sys.float_info.max
                for v in thresholds
            ):
                raise IngestionError(f"{path}: 'thresholds' must be a list of finite positive numbers, got {thresholds!r}")
            layers = len(self.cfg.network.stages)
            if len(thresholds) != layers:
                raise IngestionError(f"{path}: {len(thresholds)} thresholds for the {layers} weighted layers of the network")
            self.thresholds = thresholds
        return self.thresholds

    def convert(self):
        """Build the scaled spiking initialization and score conversion fidelity.

        The fidelity evaluation runs the unscaled thresholds with standard
        multi-spike LIF neurons under direct encoding at the calibration
        timestep count; the persisted model carries the scaled thresholds
        that fine-tuning starts from.
        """

        def run():
            cfg = self.cfg
            ann_weights = self._require_ann()
            thresholds = self._require_thresholds()
            unscaled = ann_mod.convert(ann_weights, thresholds, dataclasses.replace(cfg.calibration, scaling=1.0))
            spec_calib = dataclasses.replace(cfg.network, total_timesteps=cfg.calibration.calib_timesteps)
            images, labels = _eval_slice(cfg, self.dataset.test_images, self.dataset.test_labels)
            self.report.accuracy_converted = evaluate(
                spec_calib,
                unscaled,
                images,
                labels,
                lambda x: encode_direct(x, cfg.calibration.calib_timesteps),
                neuron_model=MULTI_SPIKE,
            )
            converted = ann_mod.convert(ann_weights, thresholds, cfg.calibration)
            self._save_model(CONVERTED_MODEL, converted)
            return converted

        return self._timed("convert", run)

    def _save_model(self, name, params):
        """Write a model file and drop the counted pass kept for the model it replaces."""
        modelio.save_params(self._path(name), params)
        self._scores.pop(name, None)

    def _load_model(self, name):
        """Load a model file; weights shaped for another network are an ingestion error."""
        path = self._path(name)
        if not os.path.exists(path):
            raise ConfigurationError(f"no model at {path}; run the earlier phases first")
        params = modelio.load_params(path)
        try:
            check_params(self.cfg.network, params)
        except ConfigurationError as exc:
            raise IngestionError(f"{path}: {exc}") from exc
        return params

    def train_snn(self):
        """Fine-tune the converted model; ``snn.model`` keeps the score of its epoch if that epoch was counted."""

        def run():
            cfg = self.cfg
            params = self._load_model(CONVERTED_MODEL)
            rng = self.rngs["train-snn"]
            encode = make_encoder(cfg, self.dataset, rng=rng)
            images = encoder_inputs(cfg, self.dataset, "train")
            params, history = training.train_snn(
                cfg.network,
                params,
                images,
                self.dataset.train_labels,
                cfg.snn_train,
                encode,
                rng,
                neuron_model=cfg.neuron_model,
                score=self._count,
            )
            self.snn_params = params
            self.report.snn_loss_curve = history["loss"]
            self.report.snn_accuracy_curve = history["accuracy"]
            self._save_model(SNN_MODEL, params)
            if history["score"][1] is not None:  # a kept earlier epoch is counted when eval or profile asks
                self._scores[SNN_MODEL] = history["score"]
            return params

        return self._timed("train-snn", run)

    def _count(self, params, count=True):
        """(accuracy, counters or None) of a pass over the eval slice, encoded by a fresh seeded encoder."""
        cfg = self.cfg
        encode = make_encoder(cfg, self.dataset, rng=np.random.default_rng(cfg.seed))
        images, labels = _eval_slice(cfg, encoder_inputs(cfg, self.dataset, "test"), self.dataset.test_labels)
        counters = ActivityCounters(cfg.network) if count else None
        accuracy = evaluate(cfg.network, params, images, labels, encode, neuron_model=cfg.neuron_model, counters=counters)
        return accuracy, counters

    def _score(self, model_file: str):
        """A model file's (accuracy, counters), counted once or kept by ``train_snn``; ``_save_model`` drops it."""
        if model_file not in self._scores:
            self._scores[model_file] = self._count(self._load_model(model_file))
        return self._scores[model_file]

    def eval(self, model_file: str = SNN_MODEL):
        """Set ``accuracy_finetuned`` from the model's score, which ``train_snn`` keeps when it counted that epoch."""

        def run():
            self.report.accuracy_finetuned = self._score(model_file)[0]
            return self.report.accuracy_finetuned

        return self._timed("eval", run)

    def profile(self, model_file: str = SNN_MODEL):
        """Set ``energy`` from the counters of the score ``eval`` reads."""

        def run():
            self.report.energy = energy(self.cfg.network, self._score(model_file)[1], self.cfg.encoder, EnergyCosts())
            return self.report.energy

        return self._timed("profile", run)

    def run_all(self) -> RunReport:
        self.train_ann()
        self.calibrate()
        self.convert()
        self.train_snn()
        self.eval()
        self.profile()
        emit_report(self.report, self.cfg.out_dir)
        return self.report


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Full pipeline: ANN -> calibrate -> convert -> fine-tune -> eval -> profile."""
    return Experiment(cfg).run_all()


def emit_report(report: RunReport, out_dir) -> dict:
    """Write report.json plus the spike-activity, energy, and loss-curve CSVs."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = {
            "report": os.path.join(out_dir, REPORT_FILE),
            "spikes": os.path.join(out_dir, SPIKE_CSV),
            "energy": os.path.join(out_dir, ENERGY_CSV),
            "loss": os.path.join(out_dir, LOSS_CSV),
        }
        with modelio.atomic_write(paths["report"], "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

        energy_report = report.energy
        with modelio.atomic_write(paths["spikes"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "spikes_per_neuron"])
            if energy_report:
                names = [row.name for row in energy_report.layers]
                for name, zeta in zip(names, energy_report.spike_activity):
                    writer.writerow([name, f"{zeta:.9g}"])

        with modelio.atomic_write(paths["energy"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "input_activity", "ann_flops", "snn_flops", "e_ann_pj", "e_snn_pj", "ratio"])
            if energy_report:
                layers = energy_report.layers
                for row, (e_ann, e_snn) in zip(layers, energy_report.layer_energy_pj()):
                    energies = [f"{e:.17g}" for e in (e_ann, e_snn, energy_ratio(e_ann, e_snn))]
                    writer.writerow([row.name, f"{row.zeta:.9g}", row.f_ann, f"{row.f_snn:.9g}", *energies])
                f_ann = sum(r.f_ann for r in layers)
                f_snn = sum(r.f_snn for r in layers)
                totals = [f"{e:.17g}" for e in (energy_report.e_ann_pj, energy_report.e_snn_pj, energy_report.ratio)]
                writer.writerow(["total", f"{f_snn / f_ann:.9g}", f_ann, f"{f_snn:.9g}", *totals])

        with modelio.atomic_write(paths["loss"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["phase", "epoch", "loss", "test_accuracy"])
            for i, loss in enumerate(report.ann_loss_curve):
                writer.writerow(["ann", i, f"{loss:.9g}", ""])
            for i, loss in enumerate(report.snn_loss_curve):
                acc = report.snn_accuracy_curve[i] if i < len(report.snn_accuracy_curve) else ""
                writer.writerow(["snn", i, f"{loss:.9g}", acc])
        return paths
    except OSError as exc:
        raise EmissionError(f"cannot write report files to {out_dir!r}: {exc}") from exc


def load_report(out_dir) -> RunReport:
    """Read back a run's report.json; an unreadable file is an IngestionError naming it."""
    path = os.path.join(out_dir, REPORT_FILE)
    try:
        with open(path) as fh:
            return RunReport.from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise IngestionError(f"{path}: unreadable report: {exc!r}") from exc

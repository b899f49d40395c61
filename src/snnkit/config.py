"""Experiment configuration and run report, both JSON round-trippable."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from .ann import AnnTrainConfig, CalibrationConfig
from .encoding import ENCODERS, HYBRID
from .errors import ConfigurationError, require, require_count
from .metrics import EnergyReport
from .network import NetworkSpec
from .training import TrainConfig

SCHEMA_VERSION = 1


@dataclass
class DatasetConfig:
    format: str = "idx"
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_files: list = field(default_factory=list)   # cifar-binary
    test_files: list = field(default_factory=list)

    def referenced_files(self) -> list:
        if self.format == "idx":
            files = [self.train_images, self.train_labels, self.test_images, self.test_labels]
        elif self.format == "cifar-binary":
            for name in ("train_files", "test_files"):
                value = getattr(self, name)
                require(f"dataset.{name}", value, isinstance(value, list) and value, "a non-empty list of paths")
            files = self.train_files + self.test_files
        else:
            raise ConfigurationError(f"unknown dataset format {self.format!r}")
        for path in files:
            require("dataset file", path, isinstance(path, (str, os.PathLike)) and path, "a path")
        return files


# Decoders of the config fields whose JSON form is a nested record.
_SECTIONS = {
    "dataset": lambda d: DatasetConfig(**d),
    "network": NetworkSpec.from_dict,
    "calibration": lambda d: CalibrationConfig(**d),
    "ann_train": lambda d: AnnTrainConfig(**d),
    "snn_train": lambda d: TrainConfig(**d),
}


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig
    network: NetworkSpec
    encoder: str = HYBRID
    neuron_model: str = "single_spike"
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    ann_train: AnnTrainConfig = field(default_factory=AnnTrainConfig)
    snn_train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    out_dir: str = "runs/out"
    eval_samples: int | None = None
    schema_version: int = SCHEMA_VERSION

    def validate(self, check_files: bool = True):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigurationError(f"unsupported config schema version {self.schema_version}")
        if self.encoder not in ENCODERS:
            raise ConfigurationError(f"unknown encoder {self.encoder!r}; choose from {ENCODERS}")
        if self.neuron_model not in ("single_spike", "multi_spike"):
            raise ConfigurationError(f"unknown neuron model {self.neuron_model!r}")
        if self.encoder == HYBRID and self.network.total_timesteps < 2:
            raise ConfigurationError("the hybrid encoder needs at least 2 timesteps")
        require_count("seed", self.seed, 0)
        if self.eval_samples is not None:
            require_count("eval_samples", self.eval_samples)
        require("out_dir", self.out_dir, isinstance(self.out_dir, (str, os.PathLike)) and self.out_dir, "a path")
        files = self.dataset.referenced_files()
        if check_files:
            for path in files:
                if not os.path.exists(path):
                    raise ConfigurationError(f"referenced dataset file does not exist: {path!r}")
        return self

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "network": self.network.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build a config from its JSON form; an unknown key is a ConfigurationError."""
        try:
            return cls(**{**d, **{name: decode(d[name]) for name, decode in _SECTIONS.items() if name in d}})
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed experiment config: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass
class RunReport:
    """Self-describing result of one experiment run."""

    config: dict
    seed: int
    accuracy_ann: float | None = None
    accuracy_converted: float | None = None
    accuracy_finetuned: float | None = None
    ann_loss_curve: list = field(default_factory=list)
    snn_loss_curve: list = field(default_factory=list)
    snn_accuracy_curve: list = field(default_factory=list)
    energy: EnergyReport | None = None
    wall_clock_s: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        energy = d.get("energy")
        return cls(**{**d, "energy": EnergyReport.from_dict(energy) if energy else None})

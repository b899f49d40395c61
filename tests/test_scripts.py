"""Smoke tests of the example scripts under scripts/."""

import functools
import json
import runpy
import sys
from collections import Counter
from pathlib import Path

from snnkit import pipeline

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SMALL = ["--train-samples", "100", "--test-samples", "20", "--snn-epochs", "1"]
VARIANTS = ("hybrid/single-spike", "direct/multi-spike", "rate/multi-spike")


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_encoder_comparison_runs_on_fewer_images_than_calibration_takes(monkeypatch, capsys):
    # 100 training images, below the 256 the script calibrates on
    run_script(monkeypatch, "encoder_comparison.py", *SMALL)
    rows = capsys.readouterr().out.splitlines()
    for variant in VARIANTS:
        assert any(row.startswith(variant) for row in rows)


def test_encoder_comparison_converts_once_and_fine_tunes_each_variant(monkeypatch):
    calls = Counter()

    def counted(name, method):
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        return wrapper

    for name in ("train_ann", "calibrate", "convert", "train_snn", "eval", "profile"):
        monkeypatch.setattr(pipeline.Experiment, name, counted(name, getattr(pipeline.Experiment, name)))
    run_script(monkeypatch, "encoder_comparison.py", *SMALL)
    assert calls == {"train_ann": 1, "calibrate": 1, "convert": 1, "train_snn": 3, "eval": 3, "profile": 3}


def test_run_synthetic_writes_a_report(monkeypatch, capsys, tmp_path):
    out = tmp_path / "synthetic"
    run_script(monkeypatch, "run_synthetic.py", "--out", str(out), *SMALL)
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == {
        "accuracy_ann",
        "accuracy_converted",
        "accuracy_finetuned",
        "mean_hidden_activity",
        "e_ann_pj",
        "e_snn_pj",
        "energy_ratio",
        "out_dir",
    }
    assert printed["out_dir"] == str(out)
    report = pipeline.load_report(out)
    assert report.accuracy_finetuned == printed["accuracy_finetuned"]
    assert report.energy.ratio == printed["energy_ratio"]

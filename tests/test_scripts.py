"""Smoke tests of the example scripts under scripts/."""

import functools
import json
import runpy
import sys
from collections import Counter
from pathlib import Path

import pytest

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


def test_phase_faults_prints_one_line_per_pipeline(monkeypatch, capsys, tmp_path):
    run_script(monkeypatch, "run_synthetic.py", "--out", str(tmp_path / "run"), *SMALL)
    capsys.readouterr()
    config = tmp_path / "run" / "config.json"
    monkeypatch.setattr(sys, "argv", ["phase_faults.py", "--config", str(config), "--pipelines", "3"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "phase_faults.py"), run_name="__main__")
    assert done.value.code == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["pipeline"] for line in lines] == [1, 2, 3]
    phases = ["train-ann", "calibrate", "convert", "train-snn", "eval", "profile"]
    for line in lines:
        assert list(line["phases"]) == phases and line["maxrss_mib"] > 0
        for measured in line["phases"].values():
            assert measured["wall_s"] >= 0 and isinstance(measured["minor_faults"], int) and measured["minor_faults"] >= 0
        # a high-water mark: it never falls from phase to phase, and the pipeline's peak is the last phase's
        peaks = [measured["maxrss_mib"] for measured in line["phases"].values()]
        assert 0 < peaks[0] and peaks == sorted(peaks) and peaks[-1] <= line["maxrss_mib"]


def test_phase_faults_exits_with_the_config_errors_code(monkeypatch, capsys, tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    monkeypatch.setattr(sys, "argv", ["phase_faults.py", "--config", str(config), "--pipelines", "2"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "phase_faults.py"), run_name="__main__")
    assert done.value.code == 2 and "not valid JSON" in capsys.readouterr().err

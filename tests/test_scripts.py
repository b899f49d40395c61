"""Smoke tests of the example scripts under scripts/."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_encoder_comparison_runs_on_fewer_images_than_calibration_takes(monkeypatch, capsys):
    # 100 training images, below the 256 the script calibrates on
    argv = ["encoder_comparison.py", "--train-samples", "100", "--test-samples", "20", "--snn-epochs", "1"]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPTS / "encoder_comparison.py"), run_name="__main__")
    rows = capsys.readouterr().out.splitlines()
    for variant in ("hybrid/single-spike", "direct/multi-spike", "rate/multi-spike"):
        assert any(row.startswith(variant) for row in rows)

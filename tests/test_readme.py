"""The README's example config must parse under the current config schema."""

import json
import re
from pathlib import Path

from snnkit.config import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_parses():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    cfg = ExperimentConfig.from_dict(json.loads(blocks[0]))
    cfg.validate(check_files=False)  # the example's dataset files are not shipped

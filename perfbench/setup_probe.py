"""Time one set-up: import snnkit, then build ``pipeline.Experiment`` from a config file.

Usage: python3 setup_probe.py <src-dir> <config.json>. Prints the seconds
taken. Runs in a fresh interpreter so snnkit's import is measured cold.
numpy is imported before the clock starts: its import is most of a cold
start and no snnkit change can move it.
"""

import sys
import time

import numpy  # noqa: F401  (imported untimed, see above)


def main():
    src, config_path = sys.argv[1:3]
    sys.path.insert(0, src)
    start = time.perf_counter()
    from snnkit.config import ExperimentConfig
    from snnkit.pipeline import Experiment

    Experiment(ExperimentConfig.from_json(config_path))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()

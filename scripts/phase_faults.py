#!/usr/bin/env python3
"""Per-phase wall clock, minor page faults and peak RSS of repeated pipelines in one process.

Usage (from the repository root):

    python3 scripts/phase_faults.py --config runs/synthetic/config.json --pipelines 6

Runs ``Experiment(cfg).run_all()`` ``--pipelines`` times in this process, and
after each pipeline prints one JSON line: each phase's wall clock in seconds,
its minor page faults (the ``ru_minflt`` delta around the phase) and the
process's ``ru_maxrss`` high-water mark in MiB when the phase ends, so the
first phase that reaches the last value is the one that set the peak; and
that peak. The first pipeline starts from a cold heap, the later ones from a
warm heap, as in a benchmark's closed loop. BLAS runs at one thread unless
the environment sets its thread count.
"""

import argparse
import json
import os
import resource
import sys

for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_key, "1")  # before numpy is first imported

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from snnkit import pipeline
from snnkit.config import ExperimentConfig
from snnkit.errors import SnnkitError


def maxrss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class MeasuredExperiment(pipeline.Experiment):
    """An Experiment that records each phase's minor page faults and the peak RSS after it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.minor_faults = {}
        self.maxrss_mib = {}

    def _timed(self, phase, fn):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return super()._timed(phase, fn)
        finally:
            self.minor_faults[phase] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            self.maxrss_mib[phase] = maxrss_mib()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--pipelines", type=int, default=6, help="pipelines to run; the first starts from a cold heap")
    args = parser.parse_args()
    if args.pipelines < 1:
        parser.error("--pipelines must be at least 1")

    try:
        cfg = ExperimentConfig.from_json(args.config)
        for k in range(1, args.pipelines + 1):
            exp = MeasuredExperiment(cfg)
            print_pipeline(k, exp, exp.run_all())
    except SnnkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def print_pipeline(k, exp, report):
    phases = {
        phase: {"wall_s": seconds, "minor_faults": exp.minor_faults[phase], "maxrss_mib": exp.maxrss_mib[phase]}
        for phase, seconds in report.wall_clock_s.items()
    }
    print(json.dumps({"pipeline": k, "phases": phases, "maxrss_mib": maxrss_mib()}), flush=True)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the snnkit pipeline, with a traced per-layer breakdown.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-hybrid --seed 1 --seconds 30 --trace 0

One run writes the workload's dataset files from ``--seed``, then runs
``Experiment(cfg).run_all()`` again and again in one process (a closed loop)
for about ``--seconds`` seconds, and reports the median of each metric over
those pipelines. Output checks run after every pipeline, outside the timed
region. ``--trace 1`` runs one warm-up pipeline, then alternates untraced and
traced pipelines and reports the per-layer metrics instead. The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. ``collect.py`` runs every workload over several seeds and
prints their metrics.

See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PIPELINES = 3
SETUP_PROBES_PER_GAP = 5   # after each of the first MIN_PIPELINES pipelines
MIN_TRACED = 2

# Phase metric -> key of RunReport.wall_clock_s.
PHASES = {
    "train_ann_s": "train-ann",
    "calibrate_s": "calibrate",
    "convert_s": "convert",
    "train_snn_s": "train-snn",
    "eval_s": "eval",
    "profile_s": "profile",
}
END_TO_END = (
    ("setup_s", "s"),
    ("train_ann_s", "s"),
    ("calibrate_s", "s"),
    ("convert_s", "s"),
    ("train_snn_s", "s"),
    ("eval_s", "s"),
    ("profile_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("accuracy_ann_pct", "%"),
    ("accuracy_converted_pct", "%"),
    ("accuracy_finetuned_pct", "%"),
    ("energy_ratio", "x"),
    ("spike_activity_mean", "spikes/neuron"),
)
WORKLOAD_NAMES = ("desk-hybrid", "desk-direct-ms", "wide-cifar")


def pin_blas_threads() -> int:
    """Fix the BLAS thread count; must run before numpy is first imported."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for key in BLAS_ENV:
        os.environ[key] = str(threads)
    return threads


class Ops:
    """Operations attempted and failed: phase calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, failures: list):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures)


def run_metadata(workload: str, seed: int, threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (AttributeError, KeyError, TypeError):
        blas_name = blas_version = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": threads,
        "workload": workload,
        "seed": seed,
    }


def git_sha() -> str:
    def git(*args):
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else ""

    try:
        if Path(git("rev-parse", "--show-toplevel") or "/nonexistent").resolve() != ROOT:
            return "unknown"
        return git("rev-parse", "HEAD") or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def probe_setup(config_path: Path) -> float:
    """Import plus Experiment construction, timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config_path)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_pipeline(cfg, ops: Ops):
    """One closed-loop iteration: construct the experiment and run every phase.

    Returns (experiment, report, pipeline seconds), or None when a phase failed.
    """
    from snnkit.errors import SnnkitError
    from snnkit.pipeline import Experiment

    try:
        exp = Experiment(cfg)
    except SnnkitError as exc:
        ops.attempted += 1
        ops.failed += 1
        ops.messages.append(f"set-up: {exc}")
        return None
    start = time.perf_counter()
    try:
        report = exp.run_all()
    except SnnkitError as exc:
        ops.attempted += len(exp.report.wall_clock_s) + 1
        ops.failed += 1
        ops.messages.append(str(exc))
        return None
    elapsed = time.perf_counter() - start
    ops.attempted += len(report.wall_clock_s)
    return exp, report, elapsed


def time_left(started: float, durations: list, seconds: float) -> bool:
    """Whether one more pipeline of the median length still ends within ``seconds``."""
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def check_outputs(workload, exp, report, first, ops: Ops, what: str):
    """Output checks after one pipeline; returns the outputs later pipelines must repeat."""
    from checks import check_activity, check_report_reload, check_same_outputs, outputs

    ops.check(check_report_reload(exp, report))
    if first is None:
        ops.check(check_activity(exp, report, workload.single_spike))
        return outputs(report)
    ops.check(check_same_outputs(first, report, what))
    return first


def measure(workload, cfg, config_path: Path, seconds: float, ops: Ops):
    """Untraced closed loop; returns the per-pipeline samples and the set-up times.

    The set-up probes run between the first pipelines rather than all at
    once, so that a slow spell of the machine does not hit all of them.
    """
    samples, setup_samples = [], []
    first = None
    started = time.perf_counter()
    while len(samples) < MIN_PIPELINES or time_left(started, [s["pipeline_s"] for s in samples], seconds):
        result = run_pipeline(cfg, ops)
        if result is None:
            break
        exp, report, elapsed = result
        samples.append({"pipeline_s": elapsed, "report": report})
        first = check_outputs(workload, exp, report, first, ops, "repeated pipeline")
        if len(samples) <= MIN_PIPELINES:
            setup_samples += [probe_setup(config_path) for _ in range(SETUP_PROBES_PER_GAP)]
    return samples, setup_samples


def end_to_end_metrics(samples: list, setup_samples: list) -> dict:
    values = {"setup_s": statistics.median(setup_samples) if setup_samples else None}
    for metric, phase in PHASES.items():
        times = [s["report"].wall_clock_s[phase] for s in samples if phase in s["report"].wall_clock_s]
        values[metric] = statistics.median(times) if times else None
    values["pipeline_s"] = statistics.median(s["pipeline_s"] for s in samples) if samples else None
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = samples[0]["report"] if samples else None
    if report is not None:
        values["accuracy_ann_pct"] = report.accuracy_ann
        values["accuracy_converted_pct"] = report.accuracy_converted
        values["accuracy_finetuned_pct"] = report.accuracy_finetuned
        values["energy_ratio"] = report.energy.ratio
        values["spike_activity_mean"] = statistics.fmean(report.energy.spike_activity)
    return {name: {"value": values.get(name), "unit": unit} for name, unit in END_TO_END}


def measure_traced(workload, cfg, seconds: float, ops: Ops, spans_path: Path, meta: dict) -> dict:
    """Warm up, then alternate untraced and traced pipelines; returns the per-layer metrics.

    The warm-up pipeline is checked but not timed, so the cold first pipeline
    of the process counts on neither side of ``trace.overhead_ratio``.
    """
    from tracer import EXACT_COUNTS, PER_LAYER, Tracer, conv_inputs, median_metrics

    tracer = Tracer(conv_inputs(cfg.network))
    traced, traced_s, untraced_s = [], [], []
    first = exact = spans = None
    started = time.perf_counter()
    warm_up = run_pipeline(cfg, ops)
    if warm_up is not None:
        first = check_outputs(workload, warm_up[0], warm_up[1], first, ops, "warm-up pipeline")
    while warm_up is not None and (
        min(len(traced_s), len(untraced_s)) < MIN_TRACED or time_left(started, traced_s + untraced_s, seconds)
    ):
        with_trace = len(untraced_s) > len(traced_s)
        if with_trace:
            tracer.reset()
            with tracer.installed():
                result = run_pipeline(cfg, ops)
        else:
            result = run_pipeline(cfg, ops)
        if result is None:
            break
        exp, report, elapsed = result
        if with_trace:
            layers = tracer.layer_metrics(cfg.snn_train.epochs)
            layers["trace.train_snn_s"] = report.wall_clock_s["train-snn"]
            layers["trace.pipeline_s"] = elapsed
            traced.append(layers)
            traced_s.append(elapsed)
            spans = tracer.dump()
            counts = {key: layers[key] for key in EXACT_COUNTS}
            if exact is None:
                exact = counts
            else:
                differ = [key for key in counts if counts[key] != exact[key]]
                ops.check([f"exact counts differ between traced pipelines: {differ}"] if differ else [])
        else:
            untraced_s.append(elapsed)
        what = "traced pipeline" if with_trace else "repeated pipeline"
        first = check_outputs(workload, exp, report, first, ops, what)

    values = median_metrics(traced) if traced else {}
    if traced and untraced_s:
        values["trace.untraced_pipeline_s"] = statistics.median(untraced_s)
        values["trace.overhead_ratio"] = statistics.median(traced_s) / values["trace.untraced_pipeline_s"]
    if spans is not None:
        with open(spans_path, "w") as fh:
            json.dump({"meta": meta, "spans": spans}, fh)
    return {name: {"value": values.get(name), "unit": unit} for name, unit in PER_LAYER}


def run_one(args) -> int:
    threads = pin_blas_threads()
    if not (SRC / "snnkit" / "__init__.py").is_file():
        print(f"perfbench: no snnkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import snnkit

    if Path(snnkit.__file__).resolve().parent != SRC / "snnkit":
        print(f"perfbench: imported snnkit from {snnkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from snnkit.config import ExperimentConfig
    from workloads import WORKLOADS, make_config, write_dataset

    workload = WORKLOADS[args.workload]
    meta = run_metadata(workload.name, args.seed, threads)
    work = WORK / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    ops = Ops()
    try:
        dataset = write_dataset(workload, args.seed, str(work / "data"))
        config_path = work / "config.json"
        make_config(workload, dataset, str(work / "run")).to_json(config_path)
        cfg = ExperimentConfig.from_json(config_path)
        if args.trace:
            spans_path = WORK / f"spans-{workload.name}-s{args.seed}.json"
            result_metrics = measure_traced(workload, cfg, args.seconds, ops, spans_path, meta)
        else:
            samples, setup_samples = measure(workload, cfg, config_path, args.seconds, ops)
            result_metrics = end_to_end_metrics(samples, setup_samples)
            meta["pipeline_s"] = [s["pipeline_s"] for s in samples]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in ops.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    missing = [name for name, m in result_metrics.items() if m["value"] is None]
    correct = ops.failed == 0 and not missing and ops.attempted > 0
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {"correct": correct, "attempted": max(ops.attempted, 1), "failed": ops.failed, "metrics": result_metrics}
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

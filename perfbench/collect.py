#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's median and spread.

Usage (from the repository root):

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/.work/summary.json
    python3 perfbench/collect.py --seeds 1    # every workload once, all metrics

Every workload in BENCHMARK.json runs once per seed, each run one
``perfbench/run.py`` process of ``run_seconds``. For every end-to-end metric the
summary gives the median over seeds, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json. A spread above a third of
its bound is flagged, and the exit status is then 1. ``ops_failed_frac`` is
failed / attempted operations per run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"meta": json.loads(lines[-2])["meta"], **json.loads(lines[-1])}


def summarise(runs: list, bounds: dict) -> dict:
    summary = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        entry = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3}
        if median:
            entry["spread"] = (q3 - q1) / abs(median)
        if name in bounds:
            entry["bound"] = bounds[name]
        summary[name] = entry
    failed = [r["failed"] / r["attempted"] for r in runs]
    summary["ops_failed_frac"] = {"unit": "ratio", "median": statistics.median(failed), "max": max(failed)}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write runs and summary to this JSON file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    flagged = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            r = run(workload, seed, seconds, args.trace)
            runs.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']}", flush=True)
        summary = summarise(runs, bounds)
        result["workloads"][workload] = {"meta": runs[0]["meta"], "runs": runs, "summary": summary}
        print(f"\n== {workload} ({len(runs)} seeds)")
        for name, e in summary.items():
            spread, bound = e.get("spread"), e.get("bound")
            flag = ""
            if spread is not None and bound is not None and spread > bound / 3:
                flag = "  <-- spread above bound/3"
                flagged += 1
            shown = f"{spread:.4f}" if spread is not None else "-"
            print(f"  {name:44s} median {e['median']!s:>22} {e['unit']:14s} spread {shown:>7} bound {bound!s:>5}{flag}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

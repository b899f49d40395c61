"""Command-line entry point.

Subcommands mirror the pipeline phases (train-ann, calibrate, convert,
train-snn, eval, profile) plus run-all. Flags override config-file values,
which override defaults. Exit codes: 0 success, 2 configuration, 3
ingestion, 4 training, 5 emission, 1 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import ExperimentConfig
from .errors import ConfigurationError, SnnkitError
from .pipeline import REPORT_FILE, SNN_MODEL, Experiment, emit_report, load_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snnkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train-ann", "calibrate", "convert", "train-snn", "eval", "profile", "run-all"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--encoder", choices=("hybrid", "direct", "rate"), default=None)
        p.add_argument("--timesteps", type=int, default=None, help="override total timesteps")
        p.add_argument("--out", default=None, help="override the output directory")
        if name in ("eval", "profile"):
            p.add_argument("--model", default=None, help="model file name inside the output directory")
    return parser


def load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.encoder is not None:
        cfg.encoder = args.encoder
    if args.out is not None:
        cfg.out_dir = args.out
    if args.timesteps is not None:
        cfg.network = dataclasses.replace(cfg.network, total_timesteps=args.timesteps)
    return cfg


def config_differences(saved, current, key="") -> list:
    """Dotted keys at which two JSON config forms differ, apart from the output directory."""
    if isinstance(saved, dict) and isinstance(current, dict):
        keys = sorted((saved.keys() | current.keys()) - {"out_dir"})
        return [d for k in keys for d in config_differences(saved.get(k), current.get(k), f"{key}{k}.")]
    return [] if saved == current else [key[:-1] or "config"]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        exp = Experiment(cfg)
        if args.command == "run-all":
            report = exp.run_all()
            print(
                json.dumps(
                    {
                        "accuracy_ann": report.accuracy_ann,
                        "accuracy_converted": report.accuracy_converted,
                        "accuracy_finetuned": report.accuracy_finetuned,
                        "energy_ratio": report.energy.ratio if report.energy else None,
                        "out_dir": cfg.out_dir,
                    }
                )
            )
        elif args.command == "train-ann":
            exp.train_ann()
            print(json.dumps({"accuracy_ann": exp.report.accuracy_ann}))
        elif args.command == "calibrate":
            thresholds = exp.calibrate()
            print(json.dumps({"thresholds": thresholds}))
        elif args.command == "convert":
            exp.convert()
            print(json.dumps({"accuracy_converted": exp.report.accuracy_converted}))
        elif args.command == "train-snn":
            exp.train_snn()
            print(json.dumps({"final_loss": exp.report.snn_loss_curve[-1]}))
        elif args.command == "eval":
            acc = exp.eval(model_file=args.model or SNN_MODEL)
            print(json.dumps({"accuracy": acc}))
        elif args.command == "profile":
            if os.path.exists(os.path.join(cfg.out_dir, REPORT_FILE)):
                exp.report = load_report(cfg.out_dir)  # a run's report keeps all but its energy, which is snn.model's
                differ = config_differences(exp.report.config, json.loads(json.dumps(cfg.to_dict())))
                differ += [f"model ({SNN_MODEL}) than {args.model}"] if args.model not in (None, SNN_MODEL) else []
                if differ:
                    raise ConfigurationError(f"{REPORT_FILE} in {cfg.out_dir} records another {', '.join(differ)}; use a fresh --out")
            report = exp.profile(model_file=args.model or SNN_MODEL)
            emit_report(exp.report, cfg.out_dir)
            print(
                json.dumps(
                    {
                        "e_ann_pj": report.e_ann_pj,
                        "e_snn_pj": report.e_snn_pj,
                        "ratio": report.ratio,
                    }
                )
            )
        return 0
    except SnnkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - unexpected failures
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

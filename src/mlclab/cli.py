"""Batch-experiment command line.

Verbs: gen-data, gradcheck, train, eval, compare, sweep-tau, fraction.
Exit codes: 0 success, 1 invariant or acceptance failure, 2 config error or
an input file that is missing or unreadable.
Every config-driven command echoes the effective configuration into the
output directory; re-running from that echo reproduces the outputs byte for
byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ExperimentConfig, default_config, load_config
from .datamodel import read_dataset, write_dataset
from .errors import ConfigError, DomainError, OracleError, ParseError, TrainingDivergence
from .experiments import (
    _COMPARE_METRICS,
    evaluate_trained,
    format_csv,
    get_dataset,
    run_compare,
    run_fraction,
    run_sweep_tau,
    run_training,
    training_log_csv,
)
from .losses import LOGIT_LOSS_IDS, check_loss_id
from .training import load_checkpoint, save_checkpoint
from .verification import check_gradients, write_reports


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "loss", None):
        cfg.override("loss.id", args.loss)
    return cfg


def _out_dir(args, cfg: ExperimentConfig) -> Path:
    path = Path(args.out or cfg["run.out"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(cfg: ExperimentConfig, out: Path) -> None:
    (out / "config_echo.txt").write_text(cfg.render(), encoding="utf-8")


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg.override("data.seed", args.seed)
    out = _out_dir(args, cfg)
    dataset = get_dataset(cfg)
    path = out / "dataset.txt"
    write_dataset(dataset, path)
    _echo_config(cfg, out)
    print(path)
    return 0


def cmd_gradcheck(args) -> int:
    check_loss_id(args.loss)
    tol = args.tol
    if tol is None:
        tol = 1e-6 if args.loss in LOGIT_LOSS_IDS else 1e-5
    reports = check_gradients(args.loss, args.trials, tol, args.seed)
    for r in reports:
        print(r.to_json())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_reports(reports, out / f"gradcheck_{args.loss}.jsonl")
    return 0 if all(r.passed for r in reports) else 1


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg.override("train.seed", args.seed)
    out = _out_dir(args, cfg)
    dataset = get_dataset(cfg)
    result = run_training(dataset, cfg)
    save_checkpoint(result.model, out / "checkpoint.json", dataset_meta=dataset.meta)
    (out / "training_log.csv").write_text(training_log_csv(result.log), encoding="utf-8")
    _echo_config(cfg, out)
    print(out / "checkpoint.json")
    return 0


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    dataset = read_dataset(args.dataset)
    cfg = _load_cfg(args)
    report, details = evaluate_trained(model, dataset, cfg)
    out = _out_dir(args, cfg)
    (out / "metrics.json").write_text(report.to_json() + "\n", encoding="utf-8")
    (out / "eval_details.json").write_text(
        json.dumps(details, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(report.to_json())
    return 0


_COMPARE_HEADER = ["loss"] + [f"{m}_{s}" for m in _COMPARE_METRICS for s in ("mean", "std")]

# study verb -> (runner, CSV header, output file name)
_STUDIES = {
    "compare": (run_compare, _COMPARE_HEADER, "compare.csv"),
    "sweep-tau": (run_sweep_tau, ["tau", "prr"], "sweep_tau.csv"),
    "fraction": (run_fraction, ["fraction", "loss", "macro_f1"], "fraction.csv"),
}


def cmd_study(args) -> int:
    runner, header, filename = _STUDIES[args.command]
    cfg = _load_cfg(args)
    out = _out_dir(args, cfg)
    dataset = get_dataset(cfg)
    csv_text = format_csv(header, runner(dataset, cfg))
    (out / filename).write_text(csv_text, encoding="utf-8")
    _echo_config(cfg, out)
    print(csv_text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlclab",
        description="Multi-label contrastive loss laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_key=None, loss_flag=False):
        """--config and --out; --seed overrides seed_key, --loss loss.id."""
        p.add_argument("--config", help="config file of 'key = value' lines")
        p.add_argument("--out", help="output directory (default: run.out)")
        if seed_key:
            p.add_argument("--seed", type=int, default=None, help=f"{seed_key} override")
        if loss_flag:
            p.add_argument("--loss", help="loss.id override")

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    common(p, seed_key="data.seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--loss", required=True, help="loss id to check")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help="max relative error (default 1e-5, logit losses 1e-6)")
    p.add_argument("--out", help="also write a JSON-lines report here")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train a model per the config")
    common(p, seed_key="train.seed", loss_flag=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="loss comparison table over seeds")
    common(p)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("sweep-tau", help="PRR of a trained model across temperatures")
    common(p, loss_flag=True)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("fraction", help="macro-F1 under shrinking train splits")
    common(p)
    p.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OracleError, TrainingDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

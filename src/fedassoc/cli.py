"""Command-line entry point for experiments, sweeps and greedy evaluation."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .agents import FederatedTrainer
from .env import EdgeAssocEnv
from .harness import (
    ALGORITHMS,
    SWEEP_AXES,
    ExperimentConfig,
    derive_seeds,
    load_config,
    run_experiment,
    sweep,
)
from .metrics import write_metrics_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedassoc",
        description="Joint RSU association / power control experiments.",
    )
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--algo", choices=ALGORITHMS, help="run a single algorithm")
    parser.add_argument(
        "--seed", type=int, action="append", help="run seed, repeatable"
    )
    parser.add_argument("--episodes", type=int, help="training episodes per run")
    parser.add_argument(
        "--sigma", type=float,
        help="sharing-noise standard deviation for training; --eval keeps the checkpoint's",
    )
    parser.add_argument("--num-rsus", type=int, help="number of roadside units")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--sweep", choices=SWEEP_AXES, help="sweep one axis")
    parser.add_argument(
        "--values", type=str, help="comma-separated sweep values, e.g. 8,12,16"
    )
    parser.add_argument(
        "--eval",
        type=Path,
        metavar="CHECKPOINT",
        help="greedy evaluation from a saved proposed-method checkpoint",
    )
    return parser


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.algo:
        cfg.algos = (args.algo,)
    if args.seed:
        cfg.seeds = tuple(args.seed)
    if args.episodes:
        cfg.trainer = dataclasses.replace(cfg.trainer, episodes=args.episodes)
        cfg.eval_window = min(cfg.eval_window, args.episodes)
    if args.sigma is not None:
        cfg.trainer = dataclasses.replace(cfg.trainer, share_noise_std=args.sigma)
    if args.num_rsus:
        cfg.env = dataclasses.replace(cfg.env, num_rsus=args.num_rsus)
    if args.out:
        cfg.out_dir = str(args.out)
    cfg.validate()
    return cfg


def _evaluate_checkpoint(cfg: ExperimentConfig, checkpoint: Path, episodes: int) -> Path:
    env_seed, _ = derive_seeds(cfg.seeds[0])
    env = EdgeAssocEnv(cfg.env, env_seed)
    trainer = FederatedTrainer.load(checkpoint, env)
    records = trainer.evaluate(episodes)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "eval_metrics.csv"
    write_metrics_csv(path, records)
    return path


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.eval and args.sigma is not None:
            raise ValueError(
                "--sigma does not apply to --eval: the checkpoint's share_noise_std applies"
            )
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        cfg = _apply_overrides(cfg, args)
        if args.eval:
            episodes = args.episodes or cfg.eval_window
            path = _evaluate_checkpoint(cfg, args.eval, episodes)
            print(f"wrote {path}")
            return 0
        if args.sweep:
            if not args.values:
                raise ValueError("--sweep requires --values")
            values = [float(v) for v in args.values.split(",") if v.strip()]
            sweep(cfg, args.sweep, values)
            print(f"wrote {Path(cfg.out_dir) / f'sweep_{args.sweep}'}")
            return 0
        result = run_experiment(cfg)
        print(f"wrote {result.out_dir}")
        return 0
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

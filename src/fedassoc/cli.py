"""Command-line entry point for experiments, sweeps and greedy evaluation."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from .agents import Trainer
from .env import EdgeAssocEnv
from .harness import (
    ALGORITHMS,
    SWEEP_AXES,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
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
        help="sharing-noise standard deviation; with --eval, the one the checkpoint acts at",
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
        help="greedy evaluation from a saved checkpoint of any algorithm",
    )
    return parser


# The flags each mode reads, by argparse dest; --config and --out serve every
# mode. A sweep sets its own axis, and --eval takes the checkpoint's trainer
# and streams, so a flag that a mode does not read is rejected.
_RUN_FLAGS = {"algo", "seed", "episodes", "sigma", "num_rsus"}
_MODE_FLAGS = {
    "a run without --sweep": _RUN_FLAGS,
    "--sweep rsus": _RUN_FLAGS - {"num_rsus"} | {"sweep", "values"},
    "--sweep sigma": _RUN_FLAGS - {"sigma"} | {"sweep", "values"},
    "--eval": {"eval", "episodes", "num_rsus", "sigma"},
}


def _check_flags(args: argparse.Namespace) -> None:
    """Raise ValueError naming the first given flag that the chosen mode ignores."""
    if args.eval:
        mode = "--eval"
    else:
        mode = f"--sweep {args.sweep}" if args.sweep else "a run without --sweep"
    for name, value in vars(args).items():
        if value is not None and name not in _MODE_FLAGS[mode] | {"config", "out"}:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to {mode}")


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Apply the given flags as key/value overrides, checked like a config file's."""
    flags = {
        "algos": None if args.algo is None else [args.algo],
        "seeds": args.seed,
        "episodes": args.episodes,
        "share_noise_std": args.sigma,
        "num_rsus": args.num_rsus,
        "out_dir": None if args.out is None else str(args.out),
    }
    data = config_to_dict(cfg)
    data.update((key, value) for key, value in flags.items() if value is not None)
    if args.episodes is not None:
        data["eval_window"] = min(cfg.eval_window, args.episodes)
    return config_from_dict(data)


def _evaluate_checkpoint(
    cfg: ExperimentConfig, checkpoint: Path, episodes: int, sigma: Optional[float]
) -> tuple[Path, Optional[float]]:
    """Write the greedy records of `checkpoint`, of whichever algorithm it
    names. A proposed one acts at `sigma` or, when it is None, at the
    checkpoint's own share_noise_std; returns the path and that σ, or None
    for the other algorithms, which share nothing."""
    # The seed is immaterial: the checkpoint's env state replaces every stream.
    env = EdgeAssocEnv(cfg.env, 0)
    trainer = Trainer.load(checkpoint, env)
    shares = trainer.algo == "proposed"
    if sigma is not None:
        if not shares:
            raise ValueError(
                f"{checkpoint}: --sigma sets the sharing noise of proposed, "
                f"but this is a {trainer.algo} checkpoint"
            )
        trainer.cfg.share_noise_std = sigma
    records = trainer.evaluate(episodes)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "eval_metrics.csv"
    write_metrics_csv(path, records)
    return path, trainer.cfg.share_noise_std if shares else None


# `main` parses with one parser per process: building it costs about half a
# millisecond, and parsing leaves it as it was.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_flags(args)
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        cfg = _apply_overrides(cfg, args)
        if args.eval:
            episodes = cfg.eval_window if args.episodes is None else args.episodes
            # _apply_overrides has checked --sigma as a config value.
            path, sigma = _evaluate_checkpoint(cfg, args.eval, episodes, args.sigma)
            print(f"wrote {path}" if sigma is None else f"wrote {path} at sigma {sigma!r}")
            return 0
        if args.sweep:
            if not args.values:
                raise ValueError("--sweep requires --values")
            # Items parse as JSON and are checked as their config key's value;
            # sigma is a float key, so its integers parse as floats.
            parse_int = float if args.sweep == "sigma" else int
            items = [v for v in args.values.split(",") if v.strip()]
            try:
                values = [json.loads(v, parse_int=parse_int) for v in items]
            except ValueError:
                raise ValueError(
                    f"--values must be comma-separated numbers, got {args.values!r}"
                ) from None
            sweep(cfg, args.sweep, values)
            print(f"wrote {Path(cfg.out_dir) / f'sweep_{args.sweep}'}")
            return 0
        result = run_experiment(cfg)
        print(f"wrote {result.out_dir}")
        return 0
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

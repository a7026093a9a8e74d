"""Experiment harness: config files, seeded runs, summaries and sweeps.

A single flat JSON file configures the world, the learner and the run plan.
Every (algorithm, seed) pair produces one per-episode metrics CSV; a summary
file reports mean/median/IQR of the episode utility over the final evaluation
window, per run and aggregated across seeds. Sweeps repeat the experiment
along one axis (RSU count or sharing-noise level) and consolidate the window
statistics into one long-format table.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .agents import FederatedTrainer, TrainerConfig, reject_removed_options, require_integers
from .baselines import CentralizedTrainer, IndependentTrainer
from .env import EdgeAssocEnv, EnvConfig
from .metrics import EpisodeRecord, write_metrics_csv, write_ts_log_csv

ALGORITHMS = ("proposed", "cdrl", "imarl", "fmarl-avg")
SWEEP_AXES = ("rsus", "sigma")

SWEEP_COLUMNS = (
    "axis",
    "value",
    "algo",
    "seed",
    "utility_mean",
    "utility_median",
    "utility_iqr",
    "reward_mean",
    "rate_mean",
    "handovers_mean",
    "power_w_mean",
)


@dataclass
class ExperimentConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    algos: tuple[str, ...] = ("proposed",)
    seeds: tuple[int, ...] = (1,)
    out_dir: str = "runs"
    eval_window: int = 100
    fedavg_period: int = 5
    per_ts_log: bool = False

    def validate(self) -> None:
        require_integers(
            self.env, ("num_vehicles", "num_rsus", "visible_rsus", "power_levels", "horizon")
        )
        self.env.validate()
        if self.env.num_vehicles != 2:
            raise ValueError("num_vehicles must be 2: every algorithm drives one vehicle pair")
        self.trainer.validate()
        require_integers(self, ("eval_window", "fedavg_period"))
        if not self.seeds:
            raise ValueError("at least one seed is required")
        for algo in self.algos:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
        if not self.algos:
            raise ValueError("at least one algorithm is required")
        if not 1 <= self.eval_window <= self.trainer.episodes:
            raise ValueError("eval_window must be in [1, episodes]")
        if self.fedavg_period < 1:
            raise ValueError("fedavg_period must be >= 1")


_RUN_FIELDS = ("algos", "seeds", "out_dir", "eval_window", "fedavg_period", "per_ts_log")
_TUPLE_FIELDS = {"mean_speeds", "local_hidden", "mlp_hidden", "algos", "seeds"}


def _field_map() -> dict[str, str]:
    mapping = {}
    for f in dataclasses.fields(EnvConfig):
        mapping[f.name] = "env"
    for f in dataclasses.fields(TrainerConfig):
        mapping[f.name] = "trainer"
    for name in _RUN_FIELDS:
        mapping[name] = "run"
    return mapping


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flatten to the JSON key set accepted by load_config."""
    flat = {}
    flat.update(dataclasses.asdict(cfg.env))
    flat.update(dataclasses.asdict(cfg.trainer))
    for name in _RUN_FIELDS:
        flat[name] = getattr(cfg, name)
    for key in _TUPLE_FIELDS:
        if flat.get(key) is not None:
            flat[key] = list(flat[key])
    return flat


def config_from_dict(data: dict) -> ExperimentConfig:
    mapping = _field_map()
    sections: dict[str, dict] = {"env": {}, "trainer": {}, "run": {}}
    reject_removed_options(data)
    for key, value in data.items():
        if key not in mapping:
            raise ValueError(f"unknown config key {key!r}")
        if key in _TUPLE_FIELDS and value is not None:
            value = tuple(value)
        sections[mapping[key]][key] = value
    cfg = ExperimentConfig(
        env=EnvConfig(**sections["env"]),
        trainer=TrainerConfig(**sections["trainer"]),
        **sections["run"],
    )
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; missing keys fall back to defaults."""
    text = Path(path).read_text().strip()
    data = json.loads(text) if text else {}
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    try:
        return config_from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def echo_config(cfg: ExperimentConfig, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.json"
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# --------------------------------------------------------------------------
# Single runs
# --------------------------------------------------------------------------

def derive_seeds(seed: int) -> tuple[int, int]:
    """Split one run seed into an environment seed and an algorithm seed.

    The environment seed depends only on the run seed, so all algorithms see
    the same world randomness under the same seed.
    """
    words = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(words[0]), int(words[1])


def run_single(
    env_cfg: EnvConfig,
    trainer_cfg: TrainerConfig,
    algo: str,
    seed: int,
    fedavg_period: int = 5,
    per_ts_log: bool = False,
    checkpoint_dir=None,
) -> tuple[list[EpisodeRecord], Optional[list]]:
    """Train one (algorithm, seed) pair; returns records and optional TS rows.

    Only the proposed method writes a checkpoint.
    """
    env_seed, algo_seed = derive_seeds(seed)
    env = EdgeAssocEnv(env_cfg, env_seed)
    if algo == "proposed":
        trainer = FederatedTrainer(env, trainer_cfg, algo_seed)
    elif algo == "cdrl":
        trainer = CentralizedTrainer(env, trainer_cfg, algo_seed)
    elif algo == "imarl":
        trainer = IndependentTrainer(env, trainer_cfg, algo_seed)
    elif algo == "fmarl-avg":
        trainer = IndependentTrainer(env, trainer_cfg, algo_seed, avg_period=fedavg_period)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    ts_rows: Optional[list] = [] if per_ts_log else None
    records = trainer.run(ts_rows=ts_rows)
    if algo == "proposed" and checkpoint_dir is not None:
        trainer.save(checkpoint_dir)
    return records, ts_rows


def _run_task(args) -> tuple[str, int, list[EpisodeRecord], Optional[list]]:
    env_cfg, trainer_cfg, algo, seed, fedavg_period, per_ts_log, checkpoint_dir = args
    records, ts_rows = run_single(
        env_cfg, trainer_cfg, algo, seed, fedavg_period, per_ts_log, checkpoint_dir
    )
    return algo, seed, records, ts_rows


# --------------------------------------------------------------------------
# Window statistics and summaries
# --------------------------------------------------------------------------

@dataclass
class WindowStats:
    """Statistics of the final evaluation window of one run."""

    algo: str
    seed: int
    utility_mean: float
    utility_median: float
    utility_iqr: float
    reward_mean: float
    rate_mean: float
    handovers_mean: float
    power_w_mean: float


def window_stats(algo: str, seed: int, records: Sequence[EpisodeRecord], window: int) -> WindowStats:
    tail = records[-window:]
    utilities = np.array([r.mean_utility for r in tail])
    q25, q75 = np.percentile(utilities, [25.0, 75.0])
    return WindowStats(
        algo=algo,
        seed=seed,
        utility_mean=float(utilities.mean()),
        utility_median=float(np.median(utilities)),
        utility_iqr=float(q75 - q25),
        reward_mean=float(np.mean([r.mean_reward for r in tail])),
        rate_mean=float(np.mean([r.mean_rate for r in tail])),
        handovers_mean=float(np.mean([r.handovers_per_user for r in tail])),
        power_w_mean=float(np.mean([r.mean_power_w for r in tail])),
    )


def _stats_line(prefix: str, stats: WindowStats) -> str:
    values = " ".join(
        f"{name}={repr(getattr(stats, name))}"
        for name in (
            "utility_mean",
            "utility_median",
            "utility_iqr",
            "reward_mean",
            "rate_mean",
            "handovers_mean",
            "power_w_mean",
        )
    )
    return f"{prefix} {values}"


def write_summary(
    path, cfg: ExperimentConfig, per_run: list[WindowStats]
) -> None:
    lines = [
        f"# window statistics over the final {cfg.eval_window} of "
        f"{cfg.trainer.episodes} episodes",
    ]
    for stats in per_run:
        lines.append(_stats_line(f"algo={stats.algo} seed={stats.seed}", stats))
    for algo in cfg.algos:
        rows = [s for s in per_run if s.algo == algo]
        means = np.array([s.utility_mean for s in rows])
        q25, q75 = np.percentile(means, [25.0, 75.0])
        seeds = ",".join(str(s.seed) for s in rows)
        lines.append(
            f"algo={algo} seeds={seeds} "
            f"utility_mean={repr(float(means.mean()))} "
            f"utility_median={repr(float(np.median(means)))} "
            f"utility_iqr={repr(float(q75 - q25))}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# Experiments and sweeps
# --------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    records: dict[tuple[str, int], list[EpisodeRecord]]
    stats: list[WindowStats]
    out_dir: Path


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run every (algorithm, seed) pair and write all output files."""
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo_config(cfg, out_dir)
    tasks = []
    for algo in cfg.algos:
        for seed in cfg.seeds:
            checkpoint_dir = (
                out_dir / "checkpoints" / f"{algo}_seed{seed}" if algo == "proposed" else None
            )
            tasks.append(
                (cfg.env, cfg.trainer, algo, seed, cfg.fedavg_period, cfg.per_ts_log, checkpoint_dir)
            )
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_task, tasks))
    else:
        outcomes = [_run_task(t) for t in tasks]

    records: dict[tuple[str, int], list[EpisodeRecord]] = {}
    stats: list[WindowStats] = []
    for algo, seed, recs, ts_rows in outcomes:
        records[(algo, seed)] = recs
        write_metrics_csv(out_dir / f"metrics_{algo}_seed{seed}.csv", recs)
        if ts_rows is not None:
            write_ts_log_csv(out_dir / f"ts_log_{algo}_seed{seed}.csv", ts_rows)
        stats.append(window_stats(algo, seed, recs, cfg.eval_window))
    write_summary(out_dir / "summary.txt", cfg, stats)
    return ExperimentResult(records=records, stats=stats, out_dir=out_dir)


def sweep(
    cfg: ExperimentConfig, axis: str, values: Sequence[float], workers: int = 1
) -> list[WindowStats]:
    """Repeat the experiment along one axis and consolidate window statistics.

    axis "rsus" varies the RSU count for every configured algorithm; axis
    "sigma" varies the sharing-noise level and runs the proposed method only.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    if not values:
        raise ValueError("sweep needs at least one value")
    cfg.validate()
    base_dir = Path(cfg.out_dir) / f"sweep_{axis}"
    all_stats: list[tuple[float, WindowStats]] = []
    for value in values:
        sub = dataclasses.replace(cfg)
        if axis == "rsus":
            sub.env = dataclasses.replace(cfg.env, num_rsus=int(value))
            label = f"rsus_{int(value)}"
        else:
            sub.trainer = dataclasses.replace(cfg.trainer, share_noise_std=float(value))
            sub.algos = ("proposed",)
            label = f"sigma_{value:g}"
        sub.out_dir = str(base_dir / label)
        result = run_experiment(sub, workers=workers)
        all_stats.extend((float(value), s) for s in result.stats)

    table_path = base_dir / f"sweep_{axis}.csv"
    with open(table_path, "w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for value, s in all_stats:
            fh.write(
                f"{axis},{value:g},{s.algo},{s.seed},"
                f"{repr(s.utility_mean)},{repr(s.utility_median)},{repr(s.utility_iqr)},"
                f"{repr(s.reward_mean)},{repr(s.rate_mean)},{repr(s.handovers_mean)},"
                f"{repr(s.power_w_mean)}\n"
            )
    return [s for _, s in all_stats]

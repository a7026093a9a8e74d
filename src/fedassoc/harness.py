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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .agents import FederatedTrainer, Trainer, TrainerConfig
from .baselines import CentralizedTrainer, FedAvgTrainer, IndependentTrainer
from .checks import check_fields, config_from_json
from .env import EdgeAssocEnv, EnvConfig
from .metrics import EpisodeRecord, record_cells, write_metrics_csv, write_ts_log_csv

# Each algorithm's name and the trainer that runs it.
TRAINERS: dict[str, type[Trainer]] = {
    "proposed": FederatedTrainer,
    "cdrl": CentralizedTrainer,
    "imarl": IndependentTrainer,
    "fmarl-avg": FedAvgTrainer,
}
ALGORITHMS = tuple(TRAINERS)
# The config key each sweep axis varies.
SWEEP_AXES = {"rsus": "num_rsus", "sigma": "share_noise_std"}


@dataclass
class ExperimentConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    algos: tuple[str, ...] = ("proposed",)
    seeds: tuple[int, ...] = (1,)
    out_dir: str = "runs"
    eval_window: int = 100
    per_ts_log: bool = False

    def validate(self) -> None:
        check_fields(self)
        self.env.validate()
        if self.env.num_vehicles != 2:
            raise ValueError("num_vehicles must be 2: every algorithm drives one vehicle pair")
        self.trainer.validate()
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ValueError(
                f"seeds must be a list of distinct integers >= 0, got {list(self.seeds)!r}"
            )
        for algo in self.algos:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
        if not self.algos:
            raise ValueError("at least one algorithm is required")
        if len(set(self.algos)) != len(self.algos):
            raise ValueError(f"algos must be distinct, got {list(self.algos)}")
        if not 1 <= self.eval_window <= self.trainer.episodes:
            raise ValueError("eval_window must be in [1, episodes]")


# The nested sections of ExperimentConfig; their keys sit at the top level of
# the JSON object, next to the run-level fields.
_SECTIONS = {"env": EnvConfig, "trainer": TrainerConfig}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flatten to the JSON key set accepted by load_config."""
    flat = dataclasses.asdict(cfg)
    for section in _SECTIONS:
        flat.update(flat.pop(section))
    return {key: list(v) if isinstance(v, tuple) else v for key, v in flat.items()}


def config_from_dict(data: dict) -> ExperimentConfig:
    run = dict(data)
    sections = {}
    for section, cls in _SECTIONS.items():
        keys = {f.name for f in dataclasses.fields(cls)}
        sections[section] = config_from_json(cls, {k: run.pop(k) for k in data if k in keys})
    cfg = config_from_json(ExperimentConfig, run, **sections)
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; missing keys fall back to defaults."""
    text = Path(path).read_text().strip()
    try:
        data = json.loads(text) if text else {}
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        return config_from_dict(data)
    except ValueError as exc:
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
    per_ts_log: bool = False,
    checkpoint_dir=None,
) -> tuple[list[EpisodeRecord], Optional[list]]:
    """Train one (algorithm, seed) pair; returns records and optional TS rows.

    Only the proposed method has a checkpoint format; it writes one to
    `checkpoint_dir` if given.
    """
    env_seed, algo_seed = derive_seeds(seed)
    trainer = TRAINERS[algo](EdgeAssocEnv(env_cfg, env_seed), trainer_cfg, algo_seed)
    ts_rows: Optional[list] = [] if per_ts_log else None
    records = trainer.run(ts_rows=ts_rows)
    if isinstance(trainer, FederatedTrainer) and checkpoint_dir is not None:
        trainer.save(checkpoint_dir)
    return records, ts_rows


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


SWEEP_COLUMNS = ("axis", "value", *(f.name for f in dataclasses.fields(WindowStats)))


def _spread(values) -> tuple[float, float, float]:
    """The mean, median and interquartile range of `values`."""
    values = np.array(values)
    q25, q75 = np.percentile(values, [25.0, 75.0])
    return float(values.mean()), float(np.median(values)), float(q75 - q25)


def window_stats(algo: str, seed: int, records: Sequence[EpisodeRecord], window: int) -> WindowStats:
    tail = records[-window:]
    return WindowStats(
        algo, seed, *_spread([r.mean_utility for r in tail]),
        reward_mean=float(np.mean([r.mean_reward for r in tail])),
        rate_mean=float(np.mean([r.mean_rate for r in tail])),
        handovers_mean=float(np.mean([r.handovers_per_user for r in tail])),
        power_w_mean=float(np.mean([r.mean_power_w for r in tail])),
    )


def write_summary(path, cfg: ExperimentConfig, per_run: list[WindowStats]) -> None:
    """Write `summary.txt`: one `name=cell` line per run of its `WindowStats`
    fields and `record_cells`, then per algorithm the mean, median and IQR
    across seeds of the runs' `utility_mean`."""
    lines = [
        f"# window statistics over the final {cfg.eval_window} of "
        f"{cfg.trainer.episodes} episodes",
    ]
    for stats in per_run:
        cells = zip(SWEEP_COLUMNS[2:], record_cells(stats))
        lines.append(" ".join(f"{name}={cell}" for name, cell in cells))
    for algo in cfg.algos:
        rows = [s for s in per_run if s.algo == algo]
        mean, median, iqr = _spread([s.utility_mean for s in rows])
        seeds = ",".join(str(s.seed) for s in rows)
        lines.append(
            f"algo={algo} seeds={seeds} "
            f"utility_mean={mean!r} utility_median={median!r} utility_iqr={iqr!r}"
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
    tasks = [
        (cfg.env, cfg.trainer, algo, seed, cfg.per_ts_log,
         out_dir / "checkpoints" / f"{algo}_seed{seed}")
        for algo in cfg.algos
        for seed in cfg.seeds
    ]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_single, *zip(*tasks)))
    else:
        outcomes = [run_single(*task) for task in tasks]

    records: dict[tuple[str, int], list[EpisodeRecord]] = {}
    stats: list[WindowStats] = []
    for (_, _, algo, seed, *_), (recs, ts_rows) in zip(tasks, outcomes):
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
    "sigma" varies the sharing-noise level, which only the proposed method
    has, so a config that names another algorithm is rejected. Each value
    overrides its config key and is checked like a config file's, and values
    whose output directories coincide (8 and 8, or 0.1 and 0.10000001) are
    rejected, all before anything is written.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {tuple(SWEEP_AXES)}")
    if not values:
        raise ValueError("sweep needs at least one value")
    others = [algo for algo in cfg.algos if algo != "proposed"]
    if axis == "sigma" and others:
        raise ValueError(
            f"--sweep sigma varies the sharing noise of proposed only, but algos names {others}"
        )
    base = config_to_dict(cfg)
    base_dir = Path(cfg.out_dir) / f"sweep_{axis}"
    runs: dict[str, tuple[float, ExperimentConfig]] = {}
    for value in values:
        try:
            sub = config_from_dict({**base, SWEEP_AXES[axis]: value})
        except ValueError as exc:
            raise ValueError(f"--sweep {axis} value {value}: {exc}") from exc
        label = f"{axis}_{value:g}"
        if label in runs:
            raise ValueError(f"sweep values {runs[label][0]!r} and {value!r} both write {label}")
        sub.out_dir = str(base_dir / label)
        runs[label] = (value, sub)
    all_stats: list[WindowStats] = []
    lines = [",".join(SWEEP_COLUMNS)]
    for value, sub in runs.values():
        for s in run_experiment(sub, workers=workers).stats:
            all_stats.append(s)
            lines.append(",".join(map(str, [axis, f"{value:g}", *record_cells(s)])))
    (base_dir / f"sweep_{axis}.csv").write_text("\n".join(lines) + "\n")
    return all_stats

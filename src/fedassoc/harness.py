"""Experiment harness: config files, seeded runs, summaries and sweeps.

A single flat JSON file configures the world, the learner and the run plan.
Every (algorithm, seed) pair produces one per-episode metrics CSV; a summary
file reports mean/median/IQR of the episode utility over the final evaluation
window, per run and aggregated across seeds. Sweeps repeat the experiment
along one axis (RSU count or sharing-noise level) and consolidate the window
statistics into one long-format table.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import baselines  # noqa: F401  (defines the baseline trainers, listing each in TRAINERS)
from .agents import Trainer, TrainerConfig, check_checkpoint_dir
from .checks import check_fields, config_from_json
from .env import EdgeAssocEnv, EnvConfig
from .metrics import EpisodeRecord, record_cells, write_metrics_csv, write_ts_log_csv

# Each algorithm's name and the trainer that runs it: every trainer class
# that names an `algo`, as agents and then baselines define them.
TRAINERS: dict[str, type[Trainer]] = Trainer.classes
ALGORITHMS = tuple(TRAINERS)
# The config key each sweep axis varies.
SWEEP_AXES = {"rsus": "num_rsus", "sigma": "share_noise_std"}


@dataclass(frozen=True)
class ExperimentConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    algos: tuple[str, ...] = ("proposed",)
    seeds: tuple[int, ...] = (1,)
    out_dir: str = "runs"
    eval_window: int = 100
    per_ts_log: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if self.env.num_vehicles != 2:
            raise ValueError("num_vehicles must be 2: every algorithm drives one vehicle pair")
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
        window, episodes = self.eval_window, self.trainer.episodes
        if not 1 <= window <= episodes:
            raise ValueError(
                f"eval_window must be in [1, episodes] = [1, {episodes}], got {window}"
            )


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
    return config_from_json(ExperimentConfig, run, **sections)


def load_config(path) -> ExperimentConfig:
    """Parse and check a config file; missing keys fall back to defaults."""
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

    Every algorithm writes its checkpoint (`Trainer.save`) to `checkpoint_dir`
    if given.
    """
    env_seed, algo_seed = derive_seeds(seed)
    trainer = TRAINERS[algo](EdgeAssocEnv(env_cfg, env_seed), trainer_cfg, algo_seed)
    ts_rows: Optional[list] = [] if per_ts_log else None
    records = trainer.run(ts_rows=ts_rows)
    if checkpoint_dir is not None:
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


def usable_cpus() -> int:
    """The CPUs this process may run on (`taskset` narrows them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def openblas_function(*symbols: str):
    """The first of `symbols` that the OpenBLAS bundled with numpy's wheel
    exports, or None (numpy built against another BLAS, or no such symbol)."""
    numpy_dir = Path(np.__file__).parent
    for path in (*numpy_dir.parent.glob("numpy.libs/*openblas*"),
                 *numpy_dir.glob(".dylibs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in symbols:
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


def blas_threads() -> Optional[int]:
    """The threads numpy's bundled OpenBLAS runs in this process, or None
    when numpy bundles no OpenBLAS."""
    get_threads = openblas_function(
        "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    if get_threads is None:
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads()


def set_blas_threads(count: int) -> None:
    """Run numpy's bundled OpenBLAS, if it has one, on `count` threads in
    this process."""
    set_threads = openblas_function(
        "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
        "openblas_set_num_threads",
    )
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(count)


def _run_grid(tasks: list[tuple]) -> list:
    """`run_single(*task)` for every task, in task order.

    The tasks run on min(tasks, usable CPUs) worker processes, or in this
    process when that is one. A failing task cancels the tasks not yet
    started, and its error is raised here once the running ones are done.

    Each worker runs one BLAS thread: the workers already fill the CPUs, and
    OpenBLAS threads spin while they wait. On two CPUs, two workers of two
    threads each took 5-28 s for a 10-episode 2-seed grid that one process
    ran in 2-3.5 s. Tasks run in this process on one BLAS thread too, and
    the caller's thread count comes back after them: on two CPUs a
    20-episode proposed CLI run took 2.2-2.3 s and 2.4 s of CPU so, against
    3.5-4.1 s and 6.8-7.6 s of CPU on two threads. The nets' bits do not
    depend on the count.
    """
    workers = min(len(tasks), usable_cpus())
    if workers <= 1:
        threads = blas_threads()
        # A process already on one thread is left as it is: after a set call,
        # even to one thread, the greedy evaluations this process ran next
        # took about 3 % longer (OpenBLAS 0.3.31, 14 alternating pairs).
        if threads in (None, 1):
            return [run_single(*task) for task in tasks]
        set_blas_threads(1)
        try:
            return [run_single(*task) for task in tasks]
        finally:
            set_blas_threads(threads)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Spawned workers start from a fresh import: a forked one would inherit
    # this process's threads, BLAS threads among them, mid-flight.
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        workers, mp_context=context, initializer=set_blas_threads, initargs=(1,)
    ) as pool:
        futures = [pool.submit(run_single, *task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _grid_tasks(cfg: ExperimentConfig) -> list[tuple]:
    """Check `cfg`'s checkpoint directories and give its tasks."""
    out_dir = Path(cfg.out_dir)
    tasks = [
        (cfg.env, cfg.trainer, algo, seed, cfg.per_ts_log,
         out_dir / "checkpoints" / f"{algo}_seed{seed}")
        for algo in cfg.algos
        for seed in cfg.seeds
    ]
    for *_, checkpoint_dir in tasks:
        check_checkpoint_dir(checkpoint_dir)
    return tasks


def _write_results(cfg: ExperimentConfig, tasks: list[tuple], outcomes: list) -> ExperimentResult:
    """Write `cfg`'s `config.json`, and the CSVs and the summary of `tasks`' outcomes."""
    out_dir = Path(cfg.out_dir)
    echo_config(cfg, out_dir)
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


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every (algorithm, seed) pair as one grid and write all output files."""
    tasks = _grid_tasks(cfg)
    return _write_results(cfg, tasks, _run_grid(tasks))


def sweep(cfg: ExperimentConfig, axis: str, values: Sequence[float]) -> list[WindowStats]:
    """Repeat the experiment along one axis and consolidate window statistics.

    axis "rsus" varies the RSU count for every configured algorithm; axis
    "sigma" varies the sharing-noise level, which only algorithms with
    `shares_q` (proposed) have, so a config that names another algorithm is
    rejected. Each value overrides its config key and is checked like a
    config file's, and values whose output directories coincide (8 and 8, or
    0.1 and 0.10000001) are rejected, all before anything is written. Every
    value's (algorithm, seed) pairs then run as one grid, and each value's
    directory holds what `run_experiment` writes for it.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {tuple(SWEEP_AXES)}")
    if not values:
        raise ValueError("sweep needs at least one value")
    others = [algo for algo in cfg.algos if not TRAINERS.get(algo, Trainer).shares_q]
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
        runs[label] = (value, dataclasses.replace(sub, out_dir=str(base_dir / label)))
    grid = [(value, sub, _grid_tasks(sub)) for value, sub in runs.values()]
    outcomes = iter(_run_grid([task for *_, tasks in grid for task in tasks]))
    all_stats: list[WindowStats] = []
    lines = [",".join(SWEEP_COLUMNS)]
    for value, sub, tasks in grid:
        result = _write_results(sub, tasks, [next(outcomes) for _ in tasks])
        for s in result.stats:
            all_stats.append(s)
            lines.append(",".join(map(str, [axis, f"{value:g}", *record_cells(s)])))
    (base_dir / f"sweep_{axis}.csv").write_text("\n".join(lines) + "\n")
    return all_stats

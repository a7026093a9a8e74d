"""The benchmark's three workloads, their timed phases and output checks.

Every workload runs on the default EnvConfig / TrainerConfig (12 RSUs,
sigma 1, batch 32, 100 TS per episode) in one process with one trainer at a
time: a closed loop, where the next episode starts when the previous one ends.
The workload seed is turned into a config and seeds exactly as the harness
does (`harness.derive_seeds`), so the program only sees what a user run with
that seed would see.

The work of a run is fixed by --seconds and the reference host's rates below,
not by a clock, so two runs of one seed do identical work and every count the
traced run reports repeats exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fedassoc import agents, cli, env as envmod, harness, metrics, nn

WORKLOADS = ("train-proposed", "train-baselines", "eval-checkpoint")
HORIZON = envmod.EnvConfig().horizon
BASELINES = ("cdrl", "imarl", "fmarl-avg")

# The episode-time p90 needs at least ten episodes beyond it.
MIN_EPISODES = 100
# Rates of the reference host (2 cores, 1 BLAS thread) used to size the work.
PROPOSED_EPISODES_PER_S = 2.5
BASELINE_ROUNDS_PER_S = 2.2          # one episode of each baseline per round
EVAL_EPISODES_PER_CALL = 10
EVAL_CALLS_PER_S = 2.2
ROUND_TRIPS = 20
CHECKPOINT_EPISODES = 1


@dataclass
class Outcome:
    """What the timed phase of one workload produced."""

    ts: int = 0                        # TS completed inside timed calls
    busy_s: float = 0.0                # host time of those calls
    trainer_ts_per_s: dict = field(default_factory=dict)
    episode_s: list = field(default_factory=list)
    save_s: list = field(default_factory=list)
    load_s: list = field(default_factory=list)
    checkpoint_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, operations: int, problem: str) -> None:
        self.failed += operations
        self.problems.append(problem)

    @property
    def ts_per_s(self) -> float:
        return self.ts / self.busy_s if self.busy_s > 0 else 0.0


class EpisodeClock:
    """Episode times taken from `EdgeAssocEnv.reset`, which starts every episode.

    Within one timed call an episode lasts from its reset to the next reset,
    and the last one to the end of the call.
    """

    def __init__(self):
        self._starts: list[float] = []

    @contextlib.contextmanager
    def installed(self):
        cls = envmod.EdgeAssocEnv
        original = cls.__dict__["reset"]
        starts = self._starts

        def reset(env_self):
            starts.append(time.perf_counter())
            return original(env_self)

        cls.reset = reset
        try:
            yield self
        finally:
            cls.reset = original

    def timed(self, out: Outcome, fn):
        """Call fn, adding its host and episode times to `out`.

        Returns (result, seconds of the call).
        """
        self._starts.clear()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            bounds = self._starts + [end]
            out.episode_s.extend(b - a for a, b in zip(bounds, bounds[1:]))
            out.busy_s += end - start
        return result, end - start


def _finite(record: metrics.EpisodeRecord) -> bool:
    return bool(np.isfinite(dataclasses.astuple(record)).all())


def _check_records(out: Outcome, label: str, records, expected: int) -> None:
    """Count missing and non-finite episode records as failed episodes."""
    bad = sum(not _finite(r) for r in records) + max(expected - len(records), 0)
    if bad:
        out.fail(bad, f"{label}: {bad} of {expected} episode records missing or non-finite")


def _fingerprints(trainer) -> list[str]:
    pair = trainer.pair
    return [nn.net_fingerprint(getattr(pair, f.name)) for f in dataclasses.fields(pair)]


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: int, workdir: Path, min_episodes: int = MIN_EPISODES):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.min_episodes = min_episodes
        self.env_cfg = envmod.EnvConfig()
        self.env_seed, self.algo_seed = harness.derive_seeds(seed)

    def setup(self) -> None:
        """Everything before the first timed episode."""

    def run(self, out: Outcome, clock: EpisodeClock) -> None:
        raise NotImplementedError

    def _train(self, out: Outcome, clock: EpisodeClock, label: str, fn, episodes: int):
        out.attempted += episodes
        try:
            records, seconds = clock.timed(out, fn)
        except Exception as exc:
            out.fail(episodes, f"{label}: {exc!r}")
            return
        out.ts += episodes * HORIZON
        out.trainer_ts_per_s[label] = episodes * HORIZON / seconds
        _check_records(out, label, records, episodes)


class TrainProposed(Workload):
    """The paper's federated pair; nn forward/backward/SGD dominate."""

    name = "train-proposed"

    def setup(self) -> None:
        self.episodes = max(self.min_episodes, math.ceil(self.seconds * PROPOSED_EPISODES_PER_S))
        cfg = agents.TrainerConfig(episodes=self.episodes)
        self.env = envmod.EdgeAssocEnv(self.env_cfg, self.env_seed)
        self.trainer = agents.FederatedTrainer(self.env, cfg, self.algo_seed)

    def run(self, out: Outcome, clock: EpisodeClock) -> None:
        self._train(out, clock, "proposed", self.trainer.run, self.episodes)


class TrainBaselines(Workload):
    """cdrl, imarl and fmarl-avg in turn, on the same world, seed and episodes."""

    name = "train-baselines"

    def setup(self) -> None:
        rounds = math.ceil(self.seconds * BASELINE_ROUNDS_PER_S)
        self.episodes = max(math.ceil(self.min_episodes / len(BASELINES)), rounds)
        self.trainer_cfg = agents.TrainerConfig(episodes=self.episodes)

    def run(self, out: Outcome, clock: EpisodeClock) -> None:
        for algo in BASELINES:
            self._train(
                out,
                clock,
                algo,
                lambda: harness.run_single(self.env_cfg, self.trainer_cfg, algo, self.seed)[0],
                self.episodes,
            )


class EvalCheckpoint(Workload):
    """Save, resume and evaluate a proposed checkpoint; no backward pass, no SGD.

    Set-up is a short `harness.run_experiment` training that writes the CSVs
    and the checkpoint. The timed phase makes chained save/load round trips,
    then greedy evaluations through `cli.main(["--eval", ...])`.
    """

    name = "eval-checkpoint"

    def setup(self) -> None:
        calls = math.ceil(self.seconds * EVAL_CALLS_PER_S)
        self.calls = max(math.ceil(self.min_episodes / EVAL_EPISODES_PER_CALL), calls)
        train_dir = self.workdir / "train"
        cfg = harness.ExperimentConfig(
            trainer=agents.TrainerConfig(episodes=CHECKPOINT_EPISODES),
            seeds=(self.seed,),
            out_dir=str(train_dir),
            eval_window=CHECKPOINT_EPISODES,
            per_ts_log=True,
        )
        harness.run_experiment(cfg)
        self.config_path = train_dir / "config.json"
        self.checkpoint = train_dir / "checkpoints" / f"proposed_seed{self.seed}"

    def run(self, out: Outcome, clock: EpisodeClock) -> None:
        self._round_trips(out)
        self._evaluations(out, clock)

    def _round_trips(self, out: Outcome) -> None:
        env = envmod.EdgeAssocEnv(self.env_cfg, self.env_seed)
        trainer = agents.FederatedTrainer.load(self.checkpoint, env)
        reference = _fingerprints(trainer)
        trip_dir = self.workdir / "round_trip"
        for _ in range(ROUND_TRIPS):
            out.attempted += 1
            try:
                start = time.perf_counter()
                trainer.save(trip_dir)
                saved = time.perf_counter()
                trainer = agents.FederatedTrainer.load(trip_dir, env)
                loaded = time.perf_counter()
            except Exception as exc:
                out.fail(1, f"round trip: {exc!r}")
                continue
            out.save_s.append(saved - start)
            out.load_s.append(loaded - saved)
            if _fingerprints(trainer) != reference:
                out.fail(1, "round trip: net fingerprints changed")
        if trip_dir.is_dir():
            out.checkpoint_bytes = sum(p.stat().st_size for p in trip_dir.iterdir())

    def _evaluations(self, out: Outcome, clock: EpisodeClock) -> None:
        episodes = EVAL_EPISODES_PER_CALL
        first = None
        for k in range(self.calls):
            out_dir = self.workdir / f"eval{k % 2}"
            argv = [
                "--config", str(self.config_path),
                "--eval", str(self.checkpoint),
                "--episodes", str(episodes),
                "--out", str(out_dir),
            ]
            out.attempted += 1 + episodes
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code, _ = clock.timed(out, lambda: cli.main(argv))
            except Exception as exc:
                out.fail(1 + episodes, f"cli: {exc!r}")
                continue
            if code != 0:
                out.fail(1 + episodes, f"cli exited {code}: {stderr.getvalue().strip()}")
                continue
            out.ts += episodes * HORIZON
            path = out_dir / "eval_metrics.csv"
            _check_records(out, "eval", metrics.read_metrics_csv(path), episodes)
            data = path.read_bytes()
            if first is None:
                first = data
            elif data != first:
                out.fail(episodes, "eval: two evaluations of one checkpoint differ")


def make(name: str, seed: int, seconds: int, workdir: Path, min_episodes: int = MIN_EPISODES) -> Workload:
    classes = {cls.name: cls for cls in (TrainProposed, TrainBaselines, EvalCheckpoint)}
    return classes[name](seed, seconds, workdir, min_episodes)

"""Per-episode metric records and their CSV round-trip.

`mean_utility` is the per-user trade-off utility averaged over the whole
episode (the learning curves in the result files plot this column); the
reward column additionally carries the per-TS penalty contributions.
Handovers are counted per user per episode.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .env import list_mean

TS_LOG_COLUMNS = ("episode", "t", "mean_utility", "penalty", "reward")


@dataclass
class EpisodeRecord:
    episode: int
    mean_utility: float
    mean_reward: float
    mean_rate: float
    handovers_per_user: float
    mean_power_w: float
    violations: int
    epsilon: float
    lr: float


CSV_COLUMNS = tuple(f.name for f in fields(EpisodeRecord))


def record_cells(record) -> list:
    """The fields of dataclass `record` in declaration order, as table cells.

    A field declared `float` is written as `repr(float(value))`, whatever the
    value's runtime type, so an integer in it (a JSON `0`) reads `0.0` and
    every float re-parses exactly. Every other field is returned as it is.
    """
    return [
        repr(float(getattr(record, f.name))) if f.type == "float" else getattr(record, f.name)
        for f in fields(record)
    ]


def _ts_sum(start, rows: np.ndarray) -> np.ndarray:
    """`start` plus the (T, n) rows, added TS after TS; np.sum would add the
    T rows of a block of one pairwise."""
    return np.add.accumulate(np.vstack([np.broadcast_to(start, rows.shape[1:]), rows]))[-1]


class MetricAccumulator:
    """Sums scored blocks into one EpisodeRecord per episode.

    Every episode, a training episode as a block of one or the lockstep
    episodes of a greedy block, is scored once by `EdgeAssocEnv.score_block`
    and taken by one `add`. Each sum is then an (n,) array whose entries
    have the bits of `np.mean`'s per-TS means added TS after TS. The TS log,
    when kept, gets one row per TS of each episode.
    """

    def __init__(self, ts_rows: list | None = None):
        self._ts_rows = ts_rows
        self.reset()

    def reset(self) -> None:
        self._t = 0
        self._utility_sum = 0.0
        self._reward_sum = 0.0
        self._rate_sum = 0.0
        self._ho_sum = 0.0
        self._power_sum = 0.0
        self._violations = 0

    def add(self, block, first: int) -> None:
        """Take a scored block of n episodes, whose reward is (T, n); `first`
        numbers its first episode in the TS log."""
        mean_u = list_mean(block.utilities)
        if self._ts_rows is not None:
            columns = np.stack([mean_u, block.penalty, block.reward], axis=-1).transpose(1, 0, 2)
            for episode, rows in enumerate(columns.tolist(), first):
                self._ts_rows.extend((episode, t, *row) for t, row in enumerate(rows, self._t + 1))
        self._t += len(block.reward)
        self._utility_sum = _ts_sum(self._utility_sum, mean_u)
        self._reward_sum = _ts_sum(self._reward_sum, block.reward)
        self._rate_sum = _ts_sum(self._rate_sum, list_mean(block.rates))
        self._ho_sum = _ts_sum(self._ho_sum, sum(block.ho_flags) / len(block.ho_flags))
        self._power_sum = _ts_sum(self._power_sum, list_mean(block.tx_powers_w))
        self._violations += block.violations.sum(axis=0)

    def finalize(self, first: int, epsilon: float, lr: float) -> list[EpisodeRecord]:
        """The records of the episodes taken, numbered from `first`: one for
        one episode, n for a block of n."""
        t = max(self._t, 1)
        sums = (
            self._utility_sum / t,
            self._reward_sum / t,
            self._rate_sum / t,
            self._ho_sum,
            self._power_sum / t,
            self._violations,
        )
        columns = [column.tolist() for column in np.broadcast_arrays(*map(np.atleast_1d, sums))]
        self.reset()
        return [
            EpisodeRecord(episode, *values, epsilon, lr)
            for episode, values in enumerate(zip(*columns), first)
        ]


def write_metrics_csv(path, records: Sequence[EpisodeRecord]) -> None:
    """Write one row of `record_cells` per record under `CSV_COLUMNS`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(record_cells, records))


def read_metrics_csv(path) -> list[EpisodeRecord]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected metric columns {reader.fieldnames}")
        parse = {f.name: int if f.type == "int" else float for f in fields(EpisodeRecord)}
        return [EpisodeRecord(**{k: parse[k](row[k]) for k in parse}) for row in reader]


def write_ts_log_csv(path, rows: Iterable[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TS_LOG_COLUMNS)
        for episode, t, mean_utility, penalty, reward in rows:
            writer.writerow(
                [episode, t, repr(float(mean_utility)), repr(float(penalty)), repr(float(reward))]
            )

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


def _ts_sum(rows: np.ndarray) -> np.ndarray:
    """The (T, n) rows added TS after TS, from 0.0; np.sum would add the T
    rows of a block of one pairwise."""
    return np.add.accumulate(np.vstack([np.zeros(rows.shape[1:]), rows]))[-1]


class MetricAccumulator:
    """Turns each scored block into one EpisodeRecord per episode.

    Every episode, a training episode as a block of one or the lockstep
    episodes of a greedy block, is scored once by `EdgeAssocEnv.score_block`
    and taken by one `add`. Each mean is an (n,) array whose entries have
    the bits of `np.mean`'s per-TS means added TS after TS. The TS log, when
    kept, gets one row per TS of each episode, numbered from t = 1.
    """

    def __init__(self, ts_rows: list | None = None):
        self._ts_rows = ts_rows

    def add(self, block, first: int, epsilon: float, lr: float) -> list[EpisodeRecord]:
        """The records of a scored block of n episodes, whose reward is (T, n),
        numbered from `first`."""
        mean_u = list_mean(block.utilities)
        if self._ts_rows is not None:
            columns = np.stack([mean_u, block.penalty, block.reward], axis=-1).transpose(1, 0, 2)
            for episode, rows in enumerate(columns.tolist(), first):
                self._ts_rows.extend((episode, t, *row) for t, row in enumerate(rows, 1))
        t = len(block.reward)
        sums = (
            _ts_sum(mean_u) / t,
            _ts_sum(block.reward) / t,
            _ts_sum(list_mean(block.rates)) / t,
            _ts_sum(list_mean(block.ho_flags)),
            _ts_sum(list_mean(block.tx_powers_w)) / t,
            block.violations.sum(axis=0),
        )
        return [
            EpisodeRecord(episode, *values, epsilon, lr)
            for episode, values in enumerate(zip(*(column.tolist() for column in sums)), first)
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

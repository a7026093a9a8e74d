"""The column-per-field replay buffer: every `Batch` field in its own column.

`fedassoc.replay.ReplayBuffer` stores each observation once and finds a row's
next observations by index; this is the plain store it is tested against. It
keeps the same ring, sampling and checkpoint arrays.
"""

import numpy as np

from fedassoc.replay import FIELDS, NEXT_OF

OBS_FIELDS = (*NEXT_OF, *NEXT_OF.values())
ACTION_FIELDS = ("act_lead", "act_follow")


class ColumnReplay:
    def __init__(self, capacity: int, obs_dim: int):
        self.capacity = capacity
        self.columns = {
            name: np.zeros(
                (capacity, obs_dim) if name in OBS_FIELDS else capacity,
                np.int64 if name in ACTION_FIELDS else np.float64,
            )
            for name in FIELDS
        }
        self.size = 0
        self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def add(self, **row) -> None:
        for name, column in self.columns.items():
            column[self.cursor] = row[name]
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict:
        idx = rng.integers(0, self.size, size=batch_size)
        return {name: column[idx] for name, column in self.columns.items()}

    def state_arrays(self) -> dict:
        arrays = {name: column[: self.size] for name, column in self.columns.items()}
        arrays["meta"] = np.array([self.size, self.cursor, self.capacity], dtype=np.int64)
        return arrays

    def load_state_arrays(self, arrays: dict) -> None:
        for name, column in self.columns.items():
            array = np.asarray(arrays[name])
            column[: len(array)] = array
        self.size, self.cursor, _ = np.asarray(arrays["meta"]).tolist()


def all_rows(arrays: dict) -> dict:
    """`state_arrays` with every field padded by zero rows to the capacity in
    `meta`, as checkpoints of earlier versions held them."""
    capacity = int(arrays["meta"][2])
    return {
        name: array if name == "meta" else np.concatenate(
            [array, np.zeros((capacity - len(array), *array.shape[1:]), array.dtype)]
        )
        for name, array in arrays.items()
    }


def same_arrays(a: dict, b: dict) -> bool:
    """Whether two dicts of arrays hold the same names, dtypes, shapes and bytes."""
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes()
        for k in a
    )

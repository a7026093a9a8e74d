"""The column-per-field replay buffer: every `Batch` field in its own column.

`fedassoc.replay.ReplayBuffer` stores each observation once and finds a row's
next observations by index; this is the plain store it is tested against. It
keeps the same ring and sampling, and its `state_arrays` are the arrays of a
format-1 checkpoint's `replay.npz`, which `columns` rebuilds from format 2's
and tools/upgrade_checkpoint.py (loaded here as `upgrade_checkpoint`) reads.
"""

import importlib.util
from pathlib import Path

import numpy as np

from fedassoc.replay import FIELDS, NEXT_OF

_spec = importlib.util.spec_from_file_location(
    "upgrade_checkpoint", Path(__file__).resolve().parent.parent / "tools" / "upgrade_checkpoint.py"
)
upgrade_checkpoint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(upgrade_checkpoint)

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


def columns(arrays: dict) -> dict:
    """The column-per-field arrays (format 1) of format-2 `arrays`, as
    `ReplayBuffer.state_arrays` gives them: each row's next observations are
    gathered by `next` from the row slots, the used side slots (just behind
    the side cursor, oldest first) or the pending slot."""
    size, cursor, capacity, side = arrays["meta"].tolist()
    slots = np.zeros((2 * capacity + 1, *arrays["pending"].shape), arrays["pending"].dtype)
    slots[:size] = arrays["obs"]
    used = len(arrays["side"])
    slots[capacity + (side - used + np.arange(used)) % capacity] = arrays["side"]
    slots[2 * capacity] = arrays["pending"]
    obs_fields = list(NEXT_OF.values())
    out = {}
    for name in FIELDS:
        if name in NEXT_OF:
            out[name] = slots[arrays["next"], obs_fields.index(NEXT_OF[name])]
        elif name in obs_fields:
            out[name] = arrays["obs"][:, obs_fields.index(name)]
        else:
            out[name] = arrays[name]
    out["meta"] = np.array([size, cursor, capacity], dtype=np.int64)
    return out


def all_rows(arrays: dict) -> dict:
    """Format-1 `arrays` with every field padded by zero rows to the capacity
    in `meta`, as the earliest checkpoints held them."""
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

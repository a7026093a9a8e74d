"""Ring-buffer experience replay for an agent pair.

Both agents' views of each TS are stored in one slot so that sampled
minibatches stay time-aligned across agents. The fields of `Batch` are the
replay row: the buffer keeps one column per field, with the dtype and row
shape declared there.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field, fields

import numpy as np


def _column(dtype, obs: bool = False):
    """A replay column of `dtype`; `obs` columns hold one observation per row."""
    return field(metadata={"dtype": dtype, "obs": obs})


@dataclass
class Batch:
    """One sampled minibatch, arrays indexed the same way on both sides."""

    obs_lead: np.ndarray = _column(np.float64, obs=True)         # (N, obs_dim)
    act_lead: np.ndarray = _column(np.int64)                     # (N,)
    reward: np.ndarray = _column(np.float64)                     # (N,)
    next_obs_lead: np.ndarray = _column(np.float64, obs=True)    # (N, obs_dim)
    obs_follow: np.ndarray = _column(np.float64, obs=True)
    act_follow: np.ndarray = _column(np.int64)
    next_obs_follow: np.ndarray = _column(np.float64, obs=True)
    done: np.ndarray = _column(np.float64)                       # (N,) 0/1


def _zeroed(shape, dtype) -> np.ndarray:
    """A zeroed array on its own anonymous mapping.

    The OS supplies the zero pages as rows are first written, so unfilled
    rows take no memory. `np.zeros` may instead take freed heap memory and
    clear it in full, making every row resident at once.
    """
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform with-replacement sampling."""

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.columns = {
            f.name: _zeroed(
                (capacity, obs_dim) if f.metadata["obs"] else capacity, f.metadata["dtype"]
            )
            for f in fields(Batch)
        }
        self.size = 0
        self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def add(self, **row) -> None:
        """Store one row, given as one keyword per `Batch` field."""
        if row.keys() != self.columns.keys():
            raise ValueError(f"a replay row has the fields {list(self.columns)}, got {list(row)}")
        i = self.cursor
        for name, column in self.columns.items():
            column[i] = row[name]
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=batch_size)
        return Batch(**{name: column[idx] for name, column in self.columns.items()})

    # -- checkpoint support --------------------------------------------------

    def state_arrays(self) -> dict:
        """The filled rows of every column, and (size, cursor, capacity) as `meta`."""
        arrays = {name: column[: self.size] for name, column in self.columns.items()}
        arrays["meta"] = np.array([self.size, self.cursor, self.capacity], dtype=np.int64)
        return arrays

    def load_state_arrays(self, arrays: dict) -> None:
        """Restore `state_arrays` into this buffer, which keeps its own columns.

        `arrays` maps each name to an array, or to a stand-in that gives the
        array's `shape` and `dtype` and is read by `np.asarray`, as
        `FederatedTrainer.load` reads a checkpoint's `replay.npz`. Each
        column may hold `size` or `capacity` rows. `meta` must be a (3,)
        integer array that names this buffer's capacity, a size in
        [0, capacity] and a cursor in [0, capacity) that equals the size until
        the buffer fills, and each column's dtype must cast to the buffer's
        within its kind (no float actions, no complex values). Every array is
        checked, by its shape and dtype, before the first write; then the
        arrays are read and written one at a time. Rows past `size` are never
        read, so they are left as they are.
        """
        meta = np.asarray(arrays["meta"])
        if meta.shape != (3,) or meta.dtype.kind not in "iu":
            raise ValueError(
                "replay meta must be 3 integers (size, cursor, capacity), got an array "
                f"of shape {meta.shape} and dtype {meta.dtype}"
            )
        size, cursor, capacity = meta.tolist()
        if capacity != self.capacity:
            raise ValueError(
                f"replay capacity {capacity} does not match this buffer's {self.capacity}"
            )
        if not 0 <= cursor < capacity or size not in (cursor, capacity):
            raise ValueError(
                f"replay size {size} and cursor {cursor} do not fit capacity {capacity}: the "
                f"cursor must be in [0, {capacity}) and equal the size until the buffer is full"
            )
        for name, column in self.columns.items():
            array = arrays[name]
            rows = array.shape[0] if array.shape else -1
            if rows not in (size, capacity) or array.shape[1:] != column.shape[1:]:
                raise ValueError(
                    f"replay array {name!r} has shape {array.shape}, expected "
                    f"{size} (filled) or {capacity} (all) rows of shape {column.shape[1:]}"
                )
            if not np.can_cast(array.dtype, column.dtype, "same_kind"):
                raise ValueError(
                    f"replay array {name!r} has dtype {array.dtype}, which does not cast "
                    f"to the buffer's {column.dtype}"
                )
        for name, column in self.columns.items():
            array = np.asarray(arrays[name])
            column[: len(array)] = array
            del array  # freed before the next column is read
        self.size = size
        self.cursor = cursor

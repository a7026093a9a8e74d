"""Ring-buffer experience replay for an agent pair.

Both agents' views of each TS are stored in one slot so that sampled
minibatches stay time-aligned across agents. The fields of `Batch` are the
replay row, with the dtype and row shape declared there.

Each observation is stored once. A row holds its two observations, its two
actions, its reward and done flag, and one index that says where its next
observations live:
- in the next row's slot, when the next `add` starts from them (compared by
  their bytes), as every row of an episode but its last does;
- in a side ring of `capacity` slots, written only where that chain breaks:
  an episode's last row, or any row whose successor starts elsewhere;
- in one pending slot while the row is the newest, until the next `add`
  either confirms them or moves them to the side ring.
Each `add` writes at most one side slot, so a row's side slot is overwritten
only after the row itself is evicted. A row's two observations sit side by
side, so one compare and one copy cover both. In the default world (obs_dim
14) a row takes 264 B plus its share of the side ring, 2.24 B at one break
per 100-TS episode, against 480 B when each next observation had its own
column.
Filling a 20 000-row buffer with 100-TS episodes raised the resident size by
5.49 MB, against 9.75 MB (Linux, numpy 2.4.6).
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

# About this many bytes of one field are read or scanned at a time by a load
# and a row check, so neither holds a whole column.
BLOCK_BYTES = 1 << 16


def _column(dtype):
    """A replay column of `dtype`."""
    return field(metadata={"dtype": dtype})


def _next_of(obs_field: str):
    """The observation that follows `obs_field`'s, of its dtype and shape."""
    return field(metadata={"next_of": obs_field})


@dataclass
class Batch:
    """One sampled minibatch, arrays indexed the same way on both sides."""

    obs_lead: np.ndarray = _column(np.float64)                   # (N, obs_dim)
    act_lead: np.ndarray = _column(np.int64)                     # (N,)
    reward: np.ndarray = _column(np.float64)                     # (N,)
    next_obs_lead: np.ndarray = _next_of("obs_lead")             # (N, obs_dim)
    obs_follow: np.ndarray = _column(np.float64)
    act_follow: np.ndarray = _column(np.int64)
    next_obs_follow: np.ndarray = _next_of("obs_follow")
    done: np.ndarray = _column(np.float64)                       # (N,) 0/1


FIELDS = tuple(f.name for f in fields(Batch))
# Each next-observation field and the observation field whose column holds it.
NEXT_OF = {f.name: f.metadata["next_of"] for f in fields(Batch) if "next_of" in f.metadata}
# The stored fields and their dtypes; the observation fields share one.
_DTYPES = {f.name: np.dtype(f.metadata["dtype"]) for f in fields(Batch) if f.name not in NEXT_OF}
(_OBS_DTYPE,) = {_DTYPES[name] for name in NEXT_OF.values()}
_ROW_KEYS = frozenset(FIELDS)


def _zeroed(shape, dtype) -> np.ndarray:
    """A zeroed array on its own anonymous mapping.

    The OS supplies the zero pages as rows are first written, so unfilled
    rows take no memory. `np.zeros` may instead take freed heap memory and
    clear it in full, making every row resident at once.
    """
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)


def _blocks(start: int, stop: int, row_bytes: int) -> Iterator[tuple[int, int]]:
    """The consecutive [a, b) row ranges, of about `BLOCK_BYTES`, that cover [start, stop)."""
    step = max(1, BLOCK_BYTES // row_bytes)
    for a in range(start, stop, step):
        yield a, min(a + step, stop)


def row_blocks(array, start: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """(a, rows a and on) for consecutive blocks of about `BLOCK_BYTES` that
    cover `array`'s rows from `start`. `array` may be a stand-in that gives
    its `shape` and `dtype` and its rows by slicing."""
    row_bytes = array.dtype.itemsize * math.prod(array.shape[1:])
    for a, b in _blocks(start, array.shape[0], row_bytes):
        yield a, array[a:b]


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, whether two arrays of one dtype and shape hold the same bytes."""
    return (a.view(np.uint8) == b.view(np.uint8)).reshape(len(a), -1).all(axis=1)


class _Gather:
    """`column[index]`, gathered only for the rows it is sliced for: a
    stand-in for that array, with its `shape` and `dtype`."""

    def __init__(self, column: np.ndarray, index: np.ndarray):
        self._column, self._index = column, index
        self.shape, self.dtype = (len(index), *column.shape[1:]), column.dtype

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self._column[self._index[rows]]


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform with-replacement sampling.

    Both observation fields live in one (2 * capacity + 1, 2, obs_dim)
    array, `_obs`: one row per row slot, then the side ring, then the
    pending slot. Each observation field's column is a view of it, and
    `_next[i]` is the row of `_obs` that holds row i's next observations.
    """

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        obs_fields = list(NEXT_OF.values())
        self._obs = _zeroed((2 * capacity + 1, len(obs_fields), obs_dim), _OBS_DTYPE)
        self._columns = {
            name: self._obs[:, obs_fields.index(name)]
            if name in obs_fields
            else _zeroed(capacity, dtype)
            for name, dtype in _DTYPES.items()
        }
        self._next = _zeroed(capacity, np.intp)
        self._side = 0          # the side ring's next slot
        self.size = 0
        self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def add(self, **row) -> None:
        """Store one row, given as one keyword per `Batch` field."""
        if row.keys() != _ROW_KEYS:
            raise ValueError(f"a replay row has the fields {list(FIELDS)}, got {list(row)}")
        i, capacity, obs = self.cursor, self.capacity, self._obs
        pending = 2 * capacity
        for name, column in self._columns.items():
            column[i] = row[name]
        last = (i - 1) % capacity
        if self.size and last != i:
            # The last row's next observations wait in the pending slot: this
            # row continues them, or they move to the side ring.
            if obs[i].tobytes() == obs[pending].tobytes():
                self._next[last] = i
            else:
                side = capacity + self._side
                obs[side] = obs[pending]
                self._next[last] = side
                self._side = (self._side + 1) % capacity
        for name, obs_field in NEXT_OF.items():
            self._columns[obs_field][pending] = row[name]
        self._next[i] = pending
        self.cursor = (i + 1) % capacity
        self.size = min(self.size + 1, capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=batch_size)
        nxt = self._next[idx]
        return Batch(
            **{name: column[idx] for name, column in self._columns.items()},
            **{name: self._columns[obs_field][nxt] for name, obs_field in NEXT_OF.items()},
        )

    # -- checkpoint support --------------------------------------------------

    def state_rows(self) -> dict:
        """What `state_arrays` gives, without gathering: each stored field's
        filled rows as a view, and each next observation field's as a
        stand-in that gathers only the rows it is sliced for."""
        rows = {
            name: _Gather(self._columns[NEXT_OF[name]], self._next[: self.size])
            if name in NEXT_OF
            else self._columns[name][: self.size]
            for name in FIELDS
        }
        rows["meta"] = np.array([self.size, self.cursor, self.capacity], dtype=np.int64)
        return rows

    def state_arrays(self) -> dict:
        """The filled rows of every field, and (size, cursor, capacity) as `meta`."""
        return {name: rows[:] for name, rows in self.state_rows().items()}

    def load_state_arrays(self, arrays: dict) -> None:
        """Restore `state_arrays` into this buffer, which keeps its own columns.

        `arrays` maps each name to an array, or to a stand-in that gives the
        array's `shape` and `dtype` and its rows by slicing, as
        `Trainer.load` reads a checkpoint's `replay.npz`. Each
        field may hold `size` or `capacity` rows. `meta` must be a (3,)
        integer array that names this buffer's capacity, a size in
        [0, capacity] and a cursor in [0, capacity) that equals the size until
        the buffer fills, and each field's dtype must cast to the buffer's
        within its kind (no float actions, no complex values). Every array is
        checked, by its shape and dtype, before the first write.

        Then each array is read in blocks of about `BLOCK_BYTES`: first the
        stored fields into their columns, then both next observations
        together, oldest row first. Each row's are compared by their bytes
        with the following row's observations; where they differ they go to
        the side ring, and the newest row's to the pending slot. Next
        observations past `size` rows are read and dropped: every array is
        read to its end, where a zip member checks its CRC.
        """
        meta = arrays["meta"]
        if meta.shape != (3,) or meta.dtype.kind not in "iu":
            raise ValueError(
                "replay meta must be 3 integers (size, cursor, capacity), got an array "
                f"of shape {meta.shape} and dtype {meta.dtype}"
            )
        size, cursor, capacity = meta[:3].tolist()
        if capacity != self.capacity:
            raise ValueError(
                f"replay capacity {capacity} does not match this buffer's {self.capacity}"
            )
        if not 0 <= cursor < capacity or size not in (cursor, capacity):
            raise ValueError(
                f"replay size {size} and cursor {cursor} do not fit capacity {capacity}: the "
                f"cursor must be in [0, {capacity}) and equal the size until the buffer is full"
            )
        for name in FIELDS:
            array, column = arrays[name], self._columns[NEXT_OF.get(name, name)]
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
        for name, column in self._columns.items():
            for a, rows in row_blocks(arrays[name]):
                column[a : a + len(rows)] = rows
        nexts, obs = [arrays[name] for name in NEXT_OF], self._obs
        pending, oldest, newest = 2 * capacity, (cursor - size) % capacity, (cursor - 1) % capacity
        self._side = 0
        for start, stop in ((oldest, min(oldest + size, capacity)), (0, oldest + size - capacity)):
            for a, b in _blocks(start, stop, obs[:1].nbytes):
                rows = np.arange(a, b)
                follow = (rows + 1) % capacity
                block = np.empty((b - a, *obs.shape[1:]), obs.dtype)
                for k, array in enumerate(nexts):
                    block[:, k] = array[a:b]
                same = _same_bits(block, obs[follow])
                same[rows == newest] = True
                self._next[a:b] = follow
                moved = rows[~same]
                slots = capacity + self._side + np.arange(len(moved))
                obs[slots] = block[moved - a]
                self._next[moved] = slots
                self._side += len(moved)
                if a <= newest < b:
                    obs[pending] = block[newest - a]
                    self._next[newest] = pending
        for array in nexts:
            for _ in row_blocks(array, size):
                pass  # read and dropped, so that the whole array is read
        self.size = size
        self.cursor = cursor

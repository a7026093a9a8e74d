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
import zipfile
from contextlib import ExitStack
from dataclasses import dataclass, field, fields

import numpy as np

# About this many bytes of one array are read or scanned at a time by a load
# and a row check, so neither holds a whole array.
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
# The stored fields that are not observations.
_SCALARS = tuple(name for name in _DTYPES if name not in NEXT_OF.values())
_ROW_KEYS = frozenset(FIELDS)


def _zeroed(shape, dtype) -> np.ndarray:
    """A zeroed array on its own anonymous mapping.

    The OS supplies the zero pages as rows are first written, so unfilled
    rows take no memory. `np.zeros` may instead take freed heap memory and
    clear it in full, making every row resident at once. A size the mapping
    cannot take raises MemoryError, as numpy's own allocations do.
    """
    nbytes = math.prod(np.atleast_1d(shape).tolist()) * np.dtype(dtype).itemsize
    try:
        return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)
    except OverflowError:
        raise MemoryError(f"Unable to allocate {nbytes} bytes for shape {shape}") from None


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
        self._next = _zeroed(capacity, np.int64)
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

    # -- checkpoint support (format 2) --------------------------------------

    def _parts(self, size: int, side: int, used: int) -> dict[str, list[np.ndarray]]:
        """Each checkpoint array but `meta`, as the runs of this buffer's memory
        that hold it: `size` filled rows, and the `used` side slots just behind
        side cursor `side`, oldest first."""
        c, obs = self.capacity, self._obs
        start = c + (side - used) % c
        end = start + used
        return {
            "obs": [obs[:size]],
            "side": [obs[start:end]] if end <= 2 * c else [obs[start : 2 * c], obs[c : end - c]],
            "pending": [obs[2 * c]],
            **{name: [self._columns[name][:size]] for name in _SCALARS},
            "next": [self._next[:size]],
        }

    def _own_parts(self) -> dict[str, list[np.ndarray]]:
        """This buffer's `_parts`, and `meta` = (size, cursor, capacity, side cursor)."""
        used = int(np.count_nonzero(self._next[: self.size] >= self.capacity)) - (self.size > 0)
        meta = np.array([self.size, self.cursor, self.capacity, self._side], dtype=np.int64)
        return {**self._parts(self.size, self._side, used), "meta": [meta]}

    def state_arrays(self) -> dict:
        """The arrays `save` writes, as views of the buffer but `meta` and a
        `side` that wraps the side ring."""
        parts = self._own_parts().items()
        return {name: runs[0] if len(runs) == 1 else np.concatenate(runs) for name, runs in parts}

    def save(self, file) -> None:
        """Write `state_arrays` to `file`, a path or a binary file, as
        `np.savez` does, byte for byte, straight from the buffer's memory."""
        with zipfile.ZipFile(file, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
            for name, runs in self._own_parts().items():
                with archive.open(f"{name}.npy", "w", force_zip64=True) as fh:
                    header = np.lib.format.header_data_from_array_1_0(runs[0])
                    header["shape"] = (sum(map(len, runs)), *runs[0].shape[1:])
                    np.lib.format.write_array_header_1_0(fh, header)
                    for run in runs:
                        fh.write(run)

    def load(self, file) -> None:
        """Restore what `save` wrote to `file` into this fresh buffer.

        `meta` and each array's header (the shape and dtype of the memory that
        will hold it) are checked before the first write. Then each array is
        read into that memory in blocks, to its end, where the archive checks
        its CRC, and last the chain is checked."""
        with zipfile.ZipFile(file) as archive, ExitStack() as stack:

            def member(name):
                if f"{name}.npy" not in archive.namelist():
                    raise ValueError(f"missing array {name!r}")
                fh = stack.enter_context(archive.open(f"{name}.npy"))
                np.lib.format.read_magic(fh)  # `save` writes version 1.0 headers
                shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
                if fortran_order:
                    raise ValueError(f"replay array {name!r} is in Fortran order, not C order")
                return fh, shape, dtype

            fh, shape, dtype = member("meta")
            if shape != (4,) or dtype.kind not in "iu":
                raise ValueError(f"replay meta has shape {shape} and dtype {dtype}, not 4 integers")
            _read_into(fh, "meta", meta := np.empty(4, dtype))
            size, cursor, capacity, side = meta.tolist()
            c = self.capacity
            if capacity != c or size not in (cursor, c) or not 0 <= cursor < c or not 0 <= side < c:
                raise ValueError(
                    f"replay meta {meta.tolist()} does not fit this buffer: capacity {c}, a size "
                    f"in [0, {c}], both cursors in [0, {c}), the cursor equal to the size until full"
                )
            members = {"side": member("side")}
            used = (members["side"][1] or (0,))[0]
            parts = self._parts(size, side, used)
            for name, runs in parts.items():
                members[name] = members.get(name) or member(name)
                want = (sum(map(len, runs)), *runs[0].shape[1:]), runs[0].dtype
                if members[name][1:] != want:
                    raise ValueError(
                        f"replay array {name!r} has shape {members[name][1]} and dtype "
                        f"{members[name][2]}, not {want[0]} and {want[1]}"
                    )
            self.size, self.cursor, self._side = size, cursor, side
            for name, runs in parts.items():
                _read_into(members[name][0], name, *runs)
        # Each row, oldest first, reads the following row or, where the chain
        # breaks, the next of the `used` side slots just behind the side cursor
        # (so no later `add` overwrites one in use); the newest, the pending slot.
        rows = np.arange(self.cursor - self.size, self.cursor) % c
        nxt, want = self._next[rows], np.roll(rows, -1)
        want[-1:] = 2 * c
        moved = nxt != want
        moved[-1:] = False
        want[moved] = c + (self._side - used + np.arange(moved.sum())) % c
        for i in np.flatnonzero(nxt != want)[:1]:
            reads = f"the pending slot {2 * c}" if i == len(rows) - 1 else (
                f"the following row {(rows[i] + 1) % c} or side slot {want[i]}, the next "
                f"before side cursor {self._side}")
            raise ValueError(f"replay array 'next' row {rows[i]} holds {nxt[i]}, not {reads}")
        if moved.sum() != used:
            raise ValueError(f"replay array 'side' holds {used} slots; the rows read {moved.sum()}")


def _read_into(fh, name: str, *runs: np.ndarray) -> None:
    """Fill `runs` in turn from `fh`, a block at a time."""
    for run in runs:
        flat = run.reshape(-1).view(np.uint8)
        for a in range(0, len(flat), BLOCK_BYTES):
            if fh.readinto(flat[a : a + BLOCK_BYTES]) < len(flat[a : a + BLOCK_BYTES]):
                raise ValueError(f"replay array {name!r} ends before its {sum(map(len, runs))} rows")

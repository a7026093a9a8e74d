"""Ring-buffer semantics of the pair replay store."""

import dataclasses
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedassoc.replay import NEXT_OF, Batch, ReplayBuffer
from reference_replay import ColumnReplay, all_rows, columns, same_arrays, upgrade_checkpoint


def row(i, obs_dim=3):
    v = np.full(obs_dim, float(i))
    return dict(
        obs_lead=v, act_lead=i, reward=float(i), next_obs_lead=v,
        obs_follow=v, act_follow=i, next_obs_follow=v, done=False,
    )


def filled_buffer(capacity, inserts, obs_dim=3):
    buf = ReplayBuffer(capacity, obs_dim)
    for i in range(inserts):
        buf.add(**row(i, obs_dim))
    return buf


def saved(buffer) -> io.BytesIO:
    """`buffer` saved, as a checkpoint's `replay.npz` holds it."""
    file = io.BytesIO()
    buffer.save(file)
    return file


def loaded(file, capacity, obs_dim=3) -> ReplayBuffer:
    buffer = ReplayBuffer(capacity, obs_dim)
    buffer.load(file)
    return buffer


def savez(arrays) -> io.BytesIO:
    file = io.BytesIO()
    np.savez(file, **arrays)
    return file


@pytest.mark.parametrize("capacity", [2**61 + 5, 10**20], ids=["2**61+5", "10**20"])
def test_a_capacity_too_large_to_map_raises_memory_error(capacity):
    """The mapping's size is counted exactly: 2**61 + 5 rows' bytes wrap in an
    int64 product, and 10**20 rows' overflow a C size."""
    obs_bytes = (2 * capacity + 1) * 2 * 3 * 8  # the float64 observation rows, both sides
    with pytest.raises(MemoryError, match=f"^Unable to allocate {obs_bytes} bytes "):
        ReplayBuffer(capacity, 3)


def test_size_never_exceeds_capacity():
    buf = filled_buffer(capacity=8, inserts=30)
    assert len(buf) == 8
    assert buf.cursor == 30 % 8


def test_oldest_entries_evicted_in_order():
    buf = filled_buffer(capacity=8, inserts=11)
    kept = sorted(buf.state_arrays()["reward"].tolist())
    assert kept == [float(i) for i in range(3, 11)]


def test_sampling_uniform_with_replacement():
    buf = filled_buffer(capacity=16, inserts=16)
    rng = np.random.default_rng(0)
    batch = buf.sample(1000, rng)
    values = batch.reward
    assert set(values.astype(int)) == set(range(16))
    # With replacement: far more draws than distinct entries.
    assert len(values) == 1000


def test_sample_before_any_insert_raises():
    buf = ReplayBuffer(4, 2)
    with pytest.raises(ValueError):
        buf.sample(1, np.random.default_rng(0))


def test_batch_fields_stay_time_aligned():
    buf = filled_buffer(capacity=32, inserts=20)
    batch = buf.sample(64, np.random.default_rng(1))
    assert np.array_equal(batch.act_lead, batch.act_follow)
    assert np.array_equal(batch.obs_lead[:, 0], batch.reward)


def test_state_round_trip():
    buf = filled_buffer(capacity=8, inserts=11)
    clone = loaded(saved(buf), 8)
    assert len(clone) == len(buf) and clone.cursor == buf.cursor
    a = buf.sample(16, np.random.default_rng(7))
    b = clone.sample(16, np.random.default_rng(7))
    assert np.array_equal(a.obs_lead, b.obs_lead)
    assert np.array_equal(a.reward, b.reward)


def test_invalid_capacity():
    with pytest.raises(ValueError):
        ReplayBuffer(0, 3)


def test_row_fields_are_declared_once_by_batch():
    """A checkpoint holds the observations once (`obs`, `side`, `pending`),
    then every other `Batch` field in `Batch` order, `next` and `meta`."""
    names = [f.name for f in dataclasses.fields(Batch)]
    scalars = [name for name in names if name not in (*NEXT_OF, *NEXT_OF.values())]
    buf = filled_buffer(capacity=8, inserts=3)
    assert list(buf.state_arrays()) == ["obs", "side", "pending", *scalars, "next", "meta"]
    assert list(columns(buf.state_arrays())) == names + ["meta"]
    assert list(vars(buf.sample(2, np.random.default_rng(0)))) == names
    bad = row(0)
    del bad["done"]
    with pytest.raises(ValueError, match="done"):
        buf.add(**bad)
    with pytest.raises(ValueError, match="extra"):
        buf.add(**row(0), extra=1.0)
    assert len(buf) == 3


def test_state_keeps_filled_rows_and_loads_full_columns():
    """A checkpoint keeps the filled rows and the side slots in use. Format-1
    columns of all `capacity` rows, as the earliest versions wrote them, load
    through the upgrade tool."""
    buf = filled_buffer(capacity=8, inserts=5)
    arrays = buf.state_arrays()
    # `row(i)` starts every row afresh: 4 breaks, and the newest row reads the pending slot.
    assert {name: len(array) for name, array in arrays.items()} == {
        "obs": 5, "side": 4, "pending": 2, "act_lead": 5, "reward": 5, "act_follow": 5,
        "done": 5, "next": 5, "meta": 4,
    }
    assert arrays["next"].dtype == np.int64 and arrays["meta"].tolist() == [5, 5, 8, 4]
    reference = ColumnReplay(8, 3)
    for i in range(5):
        reference.add(**row(i))
    assert same_arrays(columns(arrays), reference.state_arrays())
    full = {name: column.copy() for name, column in reference.columns.items()}
    full["meta"] = reference.state_arrays()["meta"]
    assert same_arrays(full, all_rows(columns(arrays)))
    assert same_arrays(upgrade_checkpoint.upgraded_replay(full).state_arrays(), arrays)
    # A wrapped buffer is full: every row is kept, and the side slots in use
    # wrap the side ring, oldest first.
    wrapped = filled_buffer(capacity=8, inserts=11)
    arrays = wrapped.state_arrays()
    assert len(arrays["reward"]) == 8 and arrays["meta"].tolist() == [8, 3, 8, 2]
    assert arrays["side"][:, 0, 0].tolist() == [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    assert same_arrays(loaded(saved(wrapped), 8).state_arrays(), arrays)


def test_an_empty_buffer_round_trips():
    """A save before any `add` holds no rows and loads as an empty buffer."""
    empty = ReplayBuffer(8, 3)
    arrays = empty.state_arrays()
    assert arrays["meta"].tolist() == [0, 0, 8, 0]
    assert all(len(arrays[name]) == 0 for name in arrays if name not in ("pending", "meta"))
    clone = loaded(saved(empty), 8)
    assert len(clone) == 0 and same_arrays(clone.state_arrays(), arrays)
    clone.add(**row(1))
    assert clone.sample(1, np.random.default_rng(0)).reward.tolist() == [1.0]


def test_state_rejects_other_row_counts():
    arrays = filled_buffer(capacity=8, inserts=5).state_arrays()
    arrays["reward"] = arrays["reward"][:3]
    # A full buffer, so that every row slot is in its state.
    clone = filled_buffer(capacity=8, inserts=11)
    before = {name: array.copy() for name, array in clone.state_arrays().items()}
    with pytest.raises(ValueError, match=re.escape(
        "replay array 'reward' has shape (3,) and dtype float64, not (5,) and float64"
    )):
        clone.load(savez(arrays))
    # Every array is checked before the first write: the buffer keeps its own rows.
    assert len(clone) == 8
    assert same_arrays(clone.state_arrays(), before)
    with pytest.raises(ValueError, match=re.escape(
        "replay meta [5, 5, 8, 4] does not fit this buffer: capacity 16"
    )):
        loaded(saved(filled_buffer(capacity=8, inserts=5)), 16)


def test_a_next_entry_out_of_range_is_refused_naming_the_array():
    arrays = filled_buffer(capacity=8, inserts=5).state_arrays()
    for row_, value in ((2, 99), (2, -1), (4, 3)):
        bad = {**arrays, "next": arrays["next"].copy()}
        bad["next"][row_] = value
        with pytest.raises(ValueError, match=f"^replay array 'next' row {row_} holds {value}, "):
            loaded(savez(bad), 8)


def test_a_side_cursor_that_would_overwrite_a_slot_in_use_is_refused():
    """The side slots in use end just behind the side cursor, where the next
    break writes: any other cursor would let an `add` overwrite one of them."""
    buf = filled_buffer(capacity=8, inserts=11)
    arrays = buf.state_arrays()
    size, cursor, capacity, side = arrays["meta"].tolist()
    assert len(arrays["side"]) == 7
    for other in (side + 1, side - 1, 0):
        meta = np.array([size, cursor, capacity, other % capacity], dtype=np.int64)
        with pytest.raises(ValueError, match=f"the next before side cursor {other % capacity}$"):
            loaded(savez({**arrays, "meta": meta}), 8)
    # One side slot fewer than the rows read, or one more: refused too.
    for side_slots in (arrays["side"][1:], np.concatenate([arrays["side"], arrays["side"][:1]])):
        with pytest.raises(ValueError, match="replay array '(side|next)'"):
            loaded(savez({**arrays, "side": side_slots}), 8)
    # Where no row reads a side slot, any side cursor fits.
    fresh = ReplayBuffer(8, 3)
    fresh.add(**row(0))
    arrays = fresh.state_arrays()
    arrays["meta"][3] = 5
    assert loaded(savez(arrays), 8)._side == 5


def test_the_upgrade_replays_format_1_columns_of_filled_or_all_rows():
    """tools/upgrade_checkpoint.py adds a format-1 replay's rows oldest first,
    each to its slot, whether its columns hold the filled rows or all
    `capacity` of them; what a column holds past the filled rows is dropped.
    Its side cursor starts at 0, so only where the side slots sit (`next`
    and the side cursor) may differ from the buffer that wrote the rows."""
    for inserts in (5, 11):
        reference = ColumnReplay(8, 3)
        for i in range(inserts):
            reference.add(**row(i))
        padded = all_rows(reference.state_arrays())
        if inserts < 8:
            padded["reward"][-1] = np.nan  # past the filled rows
        for arrays in (reference.state_arrays(), padded):
            buffer = upgrade_checkpoint.upgraded_replay(arrays)
            assert same_arrays(columns(buffer.state_arrays()), reference.state_arrays())
            mine, theirs = buffer.state_arrays(), filled_buffer(8, inserts).state_arrays()
            assert mine["meta"][:3].tolist() == theirs["meta"][:3].tolist()
            assert same_arrays(*({k: v for k, v in a.items() if k not in ("next", "meta")}
                                 for a in (mine, theirs)))


# Observation entries, so that continuity is told by bytes: +0.0 and -0.0
# differ, and a NaN continues a NaN.
OBS_ENTRIES = st.sampled_from([0.0, -0.0, np.nan, 1.0, -2.5])


@st.composite
def replay_cases(draw):
    """A capacity, an obs_dim, a row sequence, the add before which both
    buffers are saved and loaded, and a sampling seed.

    A row continues the last one, taking its next observations as its own, or
    starts from new observations: never, after an episode's end, on every row
    (as `row(i)` does), or on either side at any row.
    """
    capacity = draw(st.integers(1, 9))
    obs_dim = draw(st.integers(1, 3))
    starts = draw(st.sampled_from(["never", "after done", "always", "anywhere"]))
    vector = st.lists(OBS_ENTRIES, min_size=obs_dim, max_size=obs_dim).map(np.array)
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        if not rows or starts == "always" or (starts == "after done" and rows[-1]["done"]):
            obs = [draw(vector), draw(vector)]
        else:
            last = rows[-1]
            obs = [last["next_obs_lead"], last["next_obs_follow"]]
            if starts == "anywhere":
                obs = [draw(vector) if draw(st.booleans()) else o for o in obs]
        rows.append(dict(
            obs_lead=obs[0], act_lead=draw(st.integers(0, 3)), reward=draw(OBS_ENTRIES),
            next_obs_lead=draw(vector), obs_follow=obs[1], act_follow=draw(st.integers(0, 3)),
            next_obs_follow=draw(vector), done=draw(st.booleans()),
        ))
    return capacity, obs_dim, rows, draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2**32))


@settings(max_examples=100, deadline=None)
@given(case=replay_cases())
def test_matches_the_column_per_field_buffer(case):
    """Samples equal the column-per-field buffer's, byte for byte, and so do
    the format-1 columns of the format-2 arrays (`columns`). That holds after
    a buffer's arrays are saved and loaded, which gives the same arrays, and
    after the upgrade of either buffer's format-1 columns (filled or all rows)."""
    capacity, obs_dim, rows, saved_before, seed = case
    pairs = [(ReplayBuffer(capacity, obs_dim), ColumnReplay(capacity, obs_dim))]

    def twin_rngs():
        return np.random.default_rng(seed), np.random.default_rng(seed)

    rngs = [twin_rngs()]
    for t, r in enumerate(rows):
        if t == saved_before:
            buffer, reference = pairs[0]
            format1 = reference.state_arrays()
            assert same_arrays(columns(buffer.state_arrays()), format1)
            loads = [loaded(saved(buffer), capacity, obs_dim)]
            assert same_arrays(loads[0].state_arrays(), buffer.state_arrays())
            for arrays in (format1, all_rows(format1), all_rows(columns(buffer.state_arrays()))):
                loads.append(upgrade_checkpoint.upgraded_replay(arrays))
            for load in loads:
                twin = ColumnReplay(capacity, obs_dim)
                twin.load_state_arrays(format1)
                assert same_arrays(columns(load.state_arrays()), format1)
                pairs.append((load, twin))
                rngs.append(twin_rngs())
        for (buffer, reference), (rng_a, rng_b) in zip(pairs, rngs):
            buffer.add(**r)
            reference.add(**r)
            assert same_arrays(vars(buffer.sample(5, rng_a)), reference.sample(5, rng_b))
            assert same_arrays(columns(buffer.state_arrays()), reference.state_arrays())

"""Ring-buffer semantics of the pair replay store."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedassoc.replay import Batch, ReplayBuffer
from reference_replay import ColumnReplay, all_rows, same_arrays


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
    clone = ReplayBuffer(8, 3)
    clone.load_state_arrays(buf.state_arrays())
    assert len(clone) == len(buf) and clone.cursor == buf.cursor
    a = buf.sample(16, np.random.default_rng(7))
    b = clone.sample(16, np.random.default_rng(7))
    assert np.array_equal(a.obs_lead, b.obs_lead)
    assert np.array_equal(a.reward, b.reward)


def test_invalid_capacity():
    with pytest.raises(ValueError):
        ReplayBuffer(0, 3)


def test_row_fields_are_declared_once_by_batch():
    names = [f.name for f in dataclasses.fields(Batch)]
    buf = filled_buffer(capacity=8, inserts=3)
    assert list(buf.state_rows()) == names + ["meta"]
    assert list(buf.state_arrays()) == names + ["meta"]
    assert list(vars(buf.sample(2, np.random.default_rng(0)))) == names
    bad = row(0)
    del bad["done"]
    with pytest.raises(ValueError, match="done"):
        buf.add(**bad)
    with pytest.raises(ValueError, match="extra"):
        buf.add(**row(0), extra=1.0)
    assert len(buf) == 3


def test_state_keeps_filled_rows_and_loads_full_columns():
    buf = filled_buffer(capacity=8, inserts=5)
    arrays = buf.state_arrays()
    assert all(len(arrays[name]) == 5 for name in arrays if name != "meta")
    # Columns of `capacity` rows, as earlier versions wrote them, load too.
    reference = ColumnReplay(8, 3)
    for i in range(5):
        reference.add(**row(i))
    full = {name: column.copy() for name, column in reference.columns.items()}
    full["meta"] = arrays["meta"]
    assert same_arrays(full, all_rows(arrays))
    for state in (arrays, full):
        clone = ReplayBuffer(8, 3)
        clone.load_state_arrays(state)
        assert same_arrays(clone.state_arrays(), arrays)
    # A wrapped buffer is full: every row is kept.
    wrapped = filled_buffer(capacity=8, inserts=11)
    assert len(wrapped.state_arrays()["reward"]) == 8


def test_state_rejects_other_row_counts():
    arrays = filled_buffer(capacity=8, inserts=5).state_arrays()
    arrays["reward"] = arrays["reward"][:3]
    # A full buffer, so that every row slot is in its state.
    clone = filled_buffer(capacity=8, inserts=11)
    before = {name: array.copy() for name, array in clone.state_arrays().items()}
    with pytest.raises(ValueError, match="'reward' has shape"):
        clone.load_state_arrays(arrays)
    # Every array is checked before the first write: the buffer keeps its own rows.
    assert len(clone) == 8
    assert same_arrays(clone.state_arrays(), before)
    with pytest.raises(ValueError, match="replay capacity 8 does not match this buffer's 16"):
        ReplayBuffer(16, 3).load_state_arrays(filled_buffer(capacity=8, inserts=5).state_arrays())


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
    """Samples and checkpoint arrays equal the column-per-field buffer's, byte
    for byte, also after either side's arrays (filled or all rows) are loaded."""
    capacity, obs_dim, rows, saved_before, seed = case
    pairs = [(ReplayBuffer(capacity, obs_dim), ColumnReplay(capacity, obs_dim))]

    def twin_rngs():
        return np.random.default_rng(seed), np.random.default_rng(seed)

    rngs = [twin_rngs()]
    for t, r in enumerate(rows):
        if t == saved_before:
            buffer, reference = pairs[0]
            full = {name: column.copy() for name, column in reference.columns.items()}
            full["meta"] = reference.state_arrays()["meta"]
            for arrays in (buffer.state_arrays(), reference.state_arrays(),
                           all_rows(buffer.state_arrays()), full):
                loaded = ReplayBuffer(capacity, obs_dim), ColumnReplay(capacity, obs_dim)
                for side in loaded:
                    side.load_state_arrays(arrays)
                assert same_arrays(loaded[0].state_arrays(), reference.state_arrays())
                pairs.append(loaded)
                rngs.append(twin_rngs())
        for (buffer, reference), (rng_a, rng_b) in zip(pairs, rngs):
            buffer.add(**r)
            reference.add(**r)
            assert same_arrays(vars(buffer.sample(5, rng_a)), reference.sample(5, rng_b))
            assert same_arrays(buffer.state_arrays(), reference.state_arrays())

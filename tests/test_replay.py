"""Ring-buffer semantics of the pair replay store."""

import dataclasses

import numpy as np
import pytest

from fedassoc.replay import Batch, ReplayBuffer


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
    assert list(buf.columns) == names
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
    assert all(len(arrays[name]) == 5 for name in buf.columns)
    # Columns of `capacity` rows, as earlier versions wrote them, load too.
    full = {name: column.copy() for name, column in buf.columns.items()}
    full["meta"] = arrays["meta"]
    for state in (arrays, full):
        clone = ReplayBuffer(8, 3)
        clone.load_state_arrays(state)
        for name, column in buf.columns.items():
            assert column.dtype == clone.columns[name].dtype
            assert np.array_equal(column, clone.columns[name])
    # A wrapped buffer is full: every row is kept.
    wrapped = filled_buffer(capacity=8, inserts=11)
    assert len(wrapped.state_arrays()["reward"]) == 8


def test_state_rejects_other_row_counts():
    arrays = filled_buffer(capacity=8, inserts=5).state_arrays()
    arrays["reward"] = arrays["reward"][:3]
    clone = filled_buffer(capacity=8, inserts=2)
    before = {name: column.copy() for name, column in clone.columns.items()}
    with pytest.raises(ValueError, match="'reward' has shape"):
        clone.load_state_arrays(arrays)
    # Every array is checked before the first write: the buffer keeps its own rows.
    assert len(clone) == 2
    assert all(np.array_equal(before[name], column) for name, column in clone.columns.items())
    with pytest.raises(ValueError, match="replay capacity 8 does not match this buffer's 16"):
        ReplayBuffer(16, 3).load_state_arrays(filled_buffer(capacity=8, inserts=5).state_arrays())

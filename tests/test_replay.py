"""Ring-buffer semantics of the pair replay store."""

import numpy as np
import pytest

from fedassoc.replay import ReplayBuffer


def filled_buffer(capacity, inserts, obs_dim=3):
    buf = ReplayBuffer(capacity, obs_dim)
    for i in range(inserts):
        v = np.full(obs_dim, float(i))
        buf.add(v, i, float(i), v, v, i, v, done=False)
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
    clone = ReplayBuffer.from_state_arrays(buf.state_arrays())
    assert len(clone) == len(buf) and clone.cursor == buf.cursor
    a = buf.sample(16, np.random.default_rng(7))
    b = clone.sample(16, np.random.default_rng(7))
    assert np.array_equal(a.obs_lead, b.obs_lead)
    assert np.array_equal(a.reward, b.reward)


def test_invalid_capacity():
    with pytest.raises(ValueError):
        ReplayBuffer(0, 3)

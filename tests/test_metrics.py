"""Episode metrics: the float-list means against np.mean, and the accumulator
against the per-TS sum that training once ran on each `step`."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedassoc.env import StepResult, list_mean
from fedassoc.metrics import EpisodeRecord, MetricAccumulator


def random_values(rng, n):
    """Signed floats over many magnitudes, with zeros, so summation order shows."""
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    values[rng.random(n) < 0.2] = 0.0
    return values


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_list_mean_is_np_mean_bit_for_bit(n, seed):
    values = random_values(np.random.default_rng(seed), n)
    assert repr(list_mean(values.tolist())) == repr(float(np.mean(values)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_list_mean_of_an_array_is_each_column_list_mean(k, n, with_ts, seed):
    # (K, n) as one block TS has it, or (K, T, n) as a scored block has it.
    rng = np.random.default_rng(seed)
    shape = (k, 3, n) if with_ts else (k, n)
    values = random_values(rng, int(np.prod(shape))).reshape(shape)
    values[rng.random(shape) < 0.2] = -0.0
    columns = np.moveaxis(values, 0, -1)
    want = [list_mean(column) for column in columns.reshape(-1, k).tolist()]
    assert repr(list_mean(values).ravel().tolist()) == repr(want)


def random_block(rng, k, ts, n, penalty):
    """A scored block of random values: (K, T, n) per vehicle, (T, n) per
    episode, its reward the mean utility plus the penalty."""
    violations = rng.integers(0, 4, (ts, n)) * (rng.random((ts, n)) < 0.5)
    utilities = random_values(rng, k * ts * n).reshape(k, ts, n)
    penalties = np.where(violations > 0, float(penalty), 0.0)
    return StepResult(
        reward=list_mean(utilities) + penalties,
        utilities=utilities,
        rates=np.abs(random_values(rng, k * ts * n)).reshape(k, ts, n),
        ho_flags=rng.integers(0, 2, (k, ts, n)),
        tx_powers_w=rng.uniform(0.0, 3.2, (k, ts, n)),
        assoc_rsus=rng.integers(-1, 12, (k, ts, n)),
        violations=violations,
        penalty=penalties,
        observations=np.zeros((k, ts, n, 1)),
        done=np.arange(1, ts + 1)[:, None].repeat(n, axis=1) == ts,
    )


def per_ts_record(block, i, episode, penalty, ts_rows):
    """Episode i's record and TS rows by the per-TS sum that training once
    ran on each `step`: the TS's values as Python lists, its penalty as the
    config gives it, and the sums on Python floats, added TS after TS."""
    sums = [0.0] * 5
    violations = 0
    for t in range(len(block.reward)):
        utilities = block.utilities[:, t, i].tolist()
        ho_flags = block.ho_flags[:, t, i].tolist()
        ts_violations = int(block.violations[t, i])
        ts_penalty = penalty if ts_violations else 0.0
        mean_u = list_mean(utilities)
        reward = mean_u + ts_penalty
        sums[0] += mean_u
        sums[1] += reward
        sums[2] += list_mean(block.rates[:, t, i].tolist())
        sums[3] += sum(ho_flags) / len(ho_flags)
        sums[4] += list_mean(block.tx_powers_w[:, t, i].tolist())
        violations += ts_violations
        if ts_rows is not None:
            ts_rows.append((episode, t + 1, mean_u, ts_penalty, reward))
    t = len(block.reward)
    return EpisodeRecord(
        episode=episode,
        mean_utility=sums[0] / t,
        mean_reward=sums[1] / t,
        mean_rate=sums[2] / t,
        handovers_per_user=sums[3],
        mean_power_w=sums[4] / t,
        violations=violations,
        epsilon=0.5,
        lr=0.01,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10), st.integers(1, 30), st.integers(1, 5), st.sampled_from([-1, -1.0, -0.5]),
    st.booleans(), st.integers(0, 2**32 - 1),
)
def test_block_accumulator_matches_one_episode_at_a_time(k, ts, n, penalty, log_ts, seed):
    # A whole scored block in one `add`: its TS are summed in order, which a
    # pairwise sum over 9 or more TS would break, and its means over K
    # vehicles are np.mean's, pairwise from K = 8 on. Two blocks in turn
    # number their episodes on.
    rng = np.random.default_rng(seed)
    blocks = [random_block(rng, k, ts, n, penalty) for _ in range(2)]
    got_rows = [] if log_ts else None
    want_rows = [] if log_ts else None
    acc = MetricAccumulator(got_rows)
    for first, block in zip((1, n + 1), blocks):
        got = acc.add(block, first, 0.5, 0.01)
        want = [per_ts_record(block, i, first + i, penalty, want_rows) for i in range(n)]
        assert repr(got) == repr(want)
    if log_ts:
        # The log writes every value as a float.
        assert repr(got_rows) == repr([(e, t, u, float(p), r) for e, t, u, p, r in want_rows])

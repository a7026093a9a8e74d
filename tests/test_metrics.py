"""Episode metrics: the float-list means and the accumulator against np.mean."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from toy_env import stack_steps, stack_ts

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


def random_step(rng, k):
    violations = int(rng.integers(0, 4))
    return StepResult(
        reward=float(rng.standard_normal()),
        utilities=random_values(rng, k).tolist(),
        rates=np.abs(random_values(rng, k)).tolist(),
        ho_flags=rng.integers(0, 2, k).tolist(),
        tx_powers_w=rng.uniform(0.0, 3.2, k).tolist(),
        assoc_rsus=rng.integers(-1, 12, k).tolist(),
        violations=violations,
        penalty=[-1, -1.0][rng.integers(2)] if violations else 0.0,
        observations=[np.zeros(1)] * k,
        done=False,
    )


def reference_record(steps, episode, ts_rows):
    """The record and TS rows by np.mean and np.sum on each step's arrays."""
    sums = [0.0] * 5
    violations = 0
    for t, step in enumerate(steps, start=1):
        mean_u = float(np.mean(step.utilities))
        sums[0] += mean_u
        sums[1] += step.reward
        sums[2] += float(np.mean(step.rates))
        sums[3] += float(np.sum(step.ho_flags)) / len(step.ho_flags)
        sums[4] += float(np.mean(step.tx_powers_w))
        violations += step.violations
        if ts_rows is not None:
            ts_rows.append((episode, t, mean_u, step.penalty, step.reward))
    t = len(steps)
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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(1, 30), st.booleans(), st.integers(0, 2**32 - 1))
def test_accumulator_matches_np_mean_reference(k, steps, log_ts, seed):
    rng = np.random.default_rng(seed)
    episodes = [[random_step(rng, k) for _ in range(steps)] for _ in range(2)]
    got_rows = [] if log_ts else None
    want_rows = [] if log_ts else None
    acc = MetricAccumulator(got_rows)
    for episode, stream in enumerate(episodes, start=1):
        for step in stream:
            acc.add(step, episode)
        [got] = acc.finalize(episode, 0.5, 0.01)
        want = reference_record(stream, episode, want_rows)
        assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(want))
    assert repr(got_rows) == repr(want_rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(1, 30), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_block_accumulator_matches_one_episode_at_a_time(k, steps, n, seed):
    # A whole scored block in one `add`: its TS are summed in order, which a
    # pairwise sum over 9 or more TS of a block of one would break.
    rng = np.random.default_rng(seed)
    episodes = [[random_step(rng, k) for _ in range(steps)] for _ in range(n)]
    want = []
    acc = MetricAccumulator()
    for episode, stream in enumerate(episodes, start=1):
        for step in stream:
            acc.add(step, episode)
        want.extend(acc.finalize(episode, 0.5, 0.01))
    acc = MetricAccumulator()
    acc.add(stack_ts([stack_steps(ts_steps) for ts_steps in zip(*episodes)]), 1)
    got = acc.finalize(1, 0.5, 0.01)
    assert repr(got) == repr(want)

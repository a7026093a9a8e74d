"""Autoregressive speed process: limit behavior and stationary statistics."""

import numpy as np
import pytest

from fedassoc.env import EdgeAssocEnv, EnvConfig, gauss_markov_speed


def test_full_memory_keeps_speed():
    assert gauss_markov_speed(6.3, 9.0, 2.0, 1.0, 1.7) == 6.3


def test_memoryless_case():
    assert gauss_markov_speed(6.3, 9.0, 2.0, 0.0, 1.7) == pytest.approx(9.0 + 2.0 * 1.7)


@pytest.mark.parametrize("memory", [0.1, 0.5, 0.9])
def test_stationary_mean_and_std(memory):
    mean_speed, std = 7.5, 0.5
    rng = np.random.default_rng(int(memory * 10))
    noise = rng.standard_normal(1_000_000)
    v = mean_speed
    out = np.empty(len(noise))
    for i, w in enumerate(noise):
        v = gauss_markov_speed(v, mean_speed, std, memory, w)
        out[i] = v
    assert abs(out.mean() - mean_speed) / mean_speed < 0.01
    assert abs(out.std() - std) / std < 0.02


def test_env_positions_follow_speeds():
    # Each TS the speed takes one autoregressive step from the mean speed and
    # the position moves by speed' * ts_duration, modulo the road length.
    cfg = EnvConfig(ts_duration=2.5)
    env = EdgeAssocEnv(cfg, seed=5)
    rng = np.random.default_rng(6)
    start = rng.uniform(0.0, cfg.road_length, 2)
    noise = rng.standard_normal((200, 2))
    xs = env._trajectory(start, noise)
    assert xs.shape == (201, 2) and np.array_equal(xs[0], start)
    speed = env.mean_speeds
    for t, w in enumerate(noise):
        speed = gauss_markov_speed(speed, env.mean_speeds, cfg.speed_std, cfg.speed_memory, w)
        assert np.array_equal(xs[t + 1], np.mod(xs[t] + speed * cfg.ts_duration, cfg.road_length))
    assert (xs >= 0).all() and (xs < cfg.road_length).all()

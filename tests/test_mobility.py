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
    # Position update is speed' * ts_duration modulo the road length.
    cfg = EnvConfig(ts_duration=2.5)
    env = EdgeAssocEnv(cfg, seed=5)
    env.reset()
    for _ in range(200):
        x_before = env.world.x.copy()
        step = env.step([0, 0])
        expected = np.mod(x_before + env.world.speed * cfg.ts_duration, cfg.road_length)
        assert np.array_equal(env.world.x, expected)
        assert (env.world.x >= 0).all() and (env.world.x < cfg.road_length).all()
        assert np.array_equal(env.world.lane, np.array([0, 1]))
        if step.done:
            env.reset()

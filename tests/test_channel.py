"""Channel, rate and utility math against hand-evaluated oracles."""

import math

import numpy as np
import pytest
from reference_env import PerTsEnv, check_constraints, episode_row

from fedassoc.env import (
    EdgeAssocEnv,
    EnvConfig,
    achievable_rate,
    dbm_to_watt,
    handover_indicator,
    mean_channel_gain,
    path_loss_db,
    utility,
)


def test_path_loss_at_one_km():
    assert path_loss_db(1.0) == pytest.approx(128.1, abs=1e-12)


def test_path_loss_hand_values():
    # Hand evaluation of 128.1 + 37.6 log10(d_km).
    assert path_loss_db(0.1) == pytest.approx(128.1 - 37.6, abs=1e-12)
    assert path_loss_db(0.05) == pytest.approx(128.1 + 37.6 * math.log10(0.05), abs=1e-12)
    assert path_loss_db(0.05) == pytest.approx(79.1813, abs=1e-3)


def test_path_loss_clamps_below_one_meter():
    assert path_loss_db(1e-9) == path_loss_db(0.001)
    assert math.isfinite(path_loss_db(0.0))
    assert mean_channel_gain(1e-9) > 0.0


def test_gain_with_fading_disabled():
    # Fading factor forced to 1 is exactly the mean gain.
    assert mean_channel_gain(1.0) == pytest.approx(10.0 ** (-12.81), rel=1e-12)


def test_gain_monte_carlo_mean():
    # The env's gain is path loss times a fading power factor: the squared
    # magnitude of unit-variance complex fading, exponential with mean 1.
    # The reference twin draws the same start positions from its init stream.
    # Every RSU is in range and has a slot, so each TS gives K * R factors.
    cfg = EnvConfig(horizon=1, visible_rsus=12, coverage_radius=1000.0)
    env, ref = EdgeAssocEnv(cfg, seed=42), PerTsEnv(cfg, seed=42)
    layout = env.layout
    factors = []
    while len(factors) < 100_000:
        env.reset()
        ref.reset()
        dx = np.abs(ref.world.x[:, None] - layout.xs) % cfg.road_length
        dx = np.minimum(dx, cfg.road_length - dx)
        dist_km = np.hypot(dx, ref.world.lane_y()[:, None] - layout.ys) / 1000.0
        slot_dist_km = np.take_along_axis(dist_km, episode_row(env, "slots"), 1)
        factors.extend((episode_row(env, "gains") / mean_channel_gain(slot_dist_km)).ravel())
    factors = np.array(factors)
    assert abs(factors.mean() - 1.0) < 0.02
    assert (factors >= 0.0).all()


def test_rate_trivial_points():
    assert achievable_rate(0.0, 1.0, 1.0) == 0.0
    assert achievable_rate(255.0, 1.0, 1.0) == pytest.approx(8.0, abs=1e-12)


def test_rate_db_domain_example():
    # SNR = 35 dBm - 90.5 dB + 114 dBm = 58.5 dB, evaluated in the dB domain.
    snr_db = 35.0 - 90.5 + 114.0
    expected = math.log2(1.0 + 10.0 ** (snr_db / 10.0))
    got = achievable_rate(float(dbm_to_watt(35.0)), 10.0 ** (-90.5 / 10.0), float(dbm_to_watt(-114.0)))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(19.434, abs=1e-3)


def test_handover_indicator():
    assert handover_indicator(5, 5) == 0
    assert handover_indicator(5, 6) == 1
    assert handover_indicator(None, 6) == 0


@pytest.fixture
def cfg():
    return EnvConfig()


def test_utility_hand_values(cfg):
    p_max_w = float(dbm_to_watt(cfg.power_max_dbm))
    assert utility(16.0, 0, p_max_w, cfg) == pytest.approx(0.75, abs=1e-12)
    assert utility(8.0, 1, p_max_w, cfg) == pytest.approx(0.0, abs=1e-12)
    assert utility(0.0, 0, 0.0, cfg) == 0.0


def test_utility_monotonicity(cfg):
    rng = np.random.default_rng(7)
    p_max_w = float(dbm_to_watt(cfg.power_max_dbm))
    for _ in range(100):
        rate = rng.uniform(0.0, 30.0)
        power = rng.uniform(0.0, p_max_w)
        ho = int(rng.integers(2))
        base = utility(rate, ho, power, cfg)
        assert utility(rate + 1.0, ho, power, cfg) > base
        assert utility(rate, 1, power, cfg) <= utility(rate, 0, power, cfg)
        assert utility(rate, ho, power + 0.01, cfg) < base


def test_check_constraints():
    assert check_constraints([7, 7], [10.0, 10.0], 8.0) == ([7], [])
    assert check_constraints([3, 4], [9.0, 7.9], 8.0) == ([], [1])
    assert check_constraints([3, 4], [9.0, 8.0], 8.0) == ([], [])
    # Unserved vehicles never conflict.
    assert check_constraints([None, None], [0.0, 0.0], 8.0) == ([], [0, 1])

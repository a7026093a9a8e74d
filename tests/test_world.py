"""World construction, observations and the joint step contract."""

import math

import numpy as np
import pytest

from fedassoc.env import (
    LANE_Y,
    NO_RSU_LOCATION,
    AgentAction,
    EdgeAssocEnv,
    EnvConfig,
    RsuLayout,
    WorldState,
    build_rsu_layout,
)


def make_env(seed=3, **overrides):
    return EdgeAssocEnv(EnvConfig(**overrides), seed=seed)


# -- layout ----------------------------------------------------------------

def test_layout_even_spacing_default():
    layout = build_rsu_layout(EnvConfig())
    expected = [(2 * i - 1) * 1000.0 / 12.0 for i in range(1, 7)]
    assert np.allclose(layout.xs[:6], expected)
    # North row interleaves: offset by half the per-side spacing, on the ring.
    assert np.allclose(layout.xs[6:], [(x + 1000.0 / 12.0) % 1000.0 for x in expected])
    assert set(layout.sides) == {"south", "north"}
    assert layout.sides.count("south") == layout.sides.count("north") == 6
    assert np.all(layout.ys[:6] == -10.0) and np.all(layout.ys[6:] == 14.0)


@pytest.mark.parametrize("num_rsus", [8, 12, 16])
def test_layout_scales_per_side(num_rsus):
    layout = build_rsu_layout(EnvConfig(num_rsus=num_rsus))
    per_side = num_rsus // 2
    for side in (layout.xs[:per_side], layout.xs[per_side:]):
        gaps = np.diff(sorted(side))
        assert np.allclose(gaps, gaps[0])
    assert layout.xs[0] == pytest.approx(1000.0 / (2 * per_side))


def test_invalid_configs_rejected():
    for bad in (
        dict(num_rsus=11),
        dict(num_vehicles=0),
        dict(num_rsus=1, num_vehicles=2),
        dict(visible_rsus=0),
        dict(visible_rsus=13),
        dict(power_levels=1),
        dict(power_min_dbm=35.0, power_max_dbm=23.0),
        dict(weight_rate=1.5),
        dict(min_rate=0.0),
        dict(speed_memory=1.2),
        dict(mean_speeds=(5.0,)),
    ):
        with pytest.raises(ValueError):
            EdgeAssocEnv(EnvConfig(**bad), seed=0)


# -- reset ------------------------------------------------------------------

def test_reset_is_deterministic():
    a, b = make_env(seed=9), make_env(seed=9)
    obs_a, obs_b = a.reset(), b.reset()
    assert len(obs_a) == 2
    for va, vb in zip(obs_a, obs_b):
        assert np.array_equal(va, vb)
    assert np.array_equal(a.world.x, b.world.x)
    assert np.array_equal(a.world.speed, b.world.speed)
    assert np.array_equal(a.mean_speeds, b.mean_speeds)
    assert a.world.t == 1
    assert np.all(a.world.prev_assoc == -1)
    assert np.all(a.world.speed == a.mean_speeds)


def test_mean_speeds_respect_config():
    env = make_env(mean_speeds=(6.0, 9.0))
    assert np.array_equal(env.mean_speeds, [6.0, 9.0])
    env = make_env()
    assert np.all((env.mean_speeds >= 5.0) & (env.mean_speeds <= 10.0))


# -- observations --------------------------------------------------------------

def ring_distance(x1, x2, road_length):
    """Along-road separation on the ring."""
    dx = abs(x1 - x2) % road_length
    return min(dx, road_length - dx)


def observable_rsus(world, layout, cfg, vehicle):
    """Reference slot list: RSUs in coverage as (rsu_id, distance), nearest
    first, ties toward the lower id, truncated to the slot budget."""
    vx = float(world.x[vehicle])
    vy = float(world.lane_y()[vehicle])
    entries = []
    for rid in range(layout.count):
        dx = ring_distance(vx, float(layout.xs[rid]), cfg.road_length)
        dist = math.hypot(dx, vy - float(layout.ys[rid]))
        if dist <= cfg.coverage_radius:
            entries.append((rid, dist))
    entries.sort(key=lambda e: (e[1], e[0]))
    return entries[: cfg.visible_rsus]


def brute_force_slots(env, vehicle):
    cfg = env.cfg
    vx = env.world.x[vehicle]
    vy = LANE_Y[env.world.lane[vehicle]]
    found = []
    for rid in range(cfg.num_rsus):
        dx = abs(vx - env.layout.xs[rid]) % cfg.road_length
        dx = min(dx, cfg.road_length - dx)
        d = math.hypot(dx, vy - env.layout.ys[rid])
        if d <= cfg.coverage_radius:
            found.append((d, rid))
    found.sort()
    return [rid for _, rid in found[: cfg.visible_rsus]]


def test_observable_rsus_matches_brute_force():
    env = make_env(seed=21)
    for _ in range(50):
        env.reset()
        for k in range(2):
            got = [rid for rid, _ in observable_rsus(env.world, env.layout, env.cfg, k)]
            assert got == brute_force_slots(env, k)
            assert np.array_equal(env.observations[k].slot_map[: len(got)], got)


def test_mid_road_vehicle_sees_full_slots():
    env = make_env()
    env.reset()
    env.world.x[:] = 500.0
    env._sample_gains()
    env._refresh_observations()
    slots = observable_rsus(env.world, env.layout, env.cfg, 0)
    assert len(slots) == 4
    dists = [d for _, d in slots]
    assert dists == sorted(dists)
    assert list(env.observations[0].slot_map) == [rid for rid, _ in slots]


def test_no_rsus_in_range_gives_empty_list():
    env = make_env(coverage_radius=5.0)
    env.reset()
    env.world.x[:] = 0.0  # far from every RSU x position
    env._sample_gains()
    env._refresh_observations()
    assert observable_rsus(env.world, env.layout, env.cfg, 0) == []
    obs = env.observations[0]
    assert np.all(obs.slot_map == -1)
    assert np.all(obs.gains == 0.0)
    step = env.step([0, 0])
    assert step.rates[0] == 0.0 and step.tx_powers_w[0] == 0.0
    assert step.assoc_rsus[0] == -1


def test_equidistant_tie_breaks_to_lower_id():
    layout = RsuLayout(
        xs=np.array([400.0, 600.0]), ys=np.array([-10.0, -10.0]), sides=("south", "south")
    )
    world = WorldState(
        x=np.array([500.0]), speed=np.array([7.0]), lane=np.array([0]),
        prev_assoc=np.array([-1]), t=1,
    )
    cfg = EnvConfig(num_vehicles=1, num_rsus=2, visible_rsus=2)
    slots = observable_rsus(world, layout, cfg, 0)
    assert [rid for rid, _ in slots] == [0, 1]
    assert slots[0][1] == slots[1][1]
    env = EdgeAssocEnv(cfg, seed=0)
    env.layout, env.world = layout, world
    env._sample_gains()
    env._refresh_observations()
    assert list(env.observations[0].slot_map) == [0, 1]


def test_observation_vector_layout():
    env = make_env()
    vecs = env.reset()
    assert vecs[0].shape == (14,)
    obs = env.observations[0]
    # First TS: no previous association, raw sentinel scaled into the vector.
    assert np.array_equal(obs.prev_location, NO_RSU_LOCATION)
    assert vecs[0][12] == pytest.approx(-1.0 / 1000.0)
    assert vecs[0][13] == pytest.approx(-1.0 / 20.0)
    # Gains normalized into [0, 1], ordered slots by distance.
    assert np.all(vecs[0][:4] >= 0.0) and np.all(vecs[0][:4] <= 1.0)


def test_padded_slots_after_shrinking_coverage():
    env = make_env(coverage_radius=100.0)
    env.reset()
    env.world.x[:] = 83.0  # right next to the first RSU column
    env._sample_gains()
    env._refresh_observations()
    obs = env.observations[0]
    n = int((obs.slot_map >= 0).sum())
    assert 1 <= n < 4
    assert np.all(obs.gains[n:] == 0.0)
    assert np.all(obs.slot_map[n:] == -1)
    assert np.all(obs.locations[n:] == np.asarray(NO_RSU_LOCATION))


# -- stepping ------------------------------------------------------------------

def test_reward_identity_over_random_actions():
    env = make_env(seed=13)
    rng = np.random.default_rng(0)
    env.reset()
    for _ in range(1000):
        step = env.step(list(rng.integers(0, 16, size=2)))
        expected = float(np.mean(step.utilities)) + (
            env.cfg.penalty if step.violations else 0.0
        )
        assert step.reward == expected
        if step.done:
            env.reset()


def test_handover_flags_match_association_history():
    env = make_env(seed=17)
    rng = np.random.default_rng(1)
    env.reset()
    prev = {0: None, 1: None}
    for _ in range(300):
        step = env.step(list(rng.integers(0, 16, size=2)))
        for k in range(2):
            cur = int(step.assoc_rsus[k])
            if prev[k] is None or cur < 0:
                assert step.ho_flags[k] == 0
            else:
                assert step.ho_flags[k] == int(prev[k] != cur)
            prev[k] = cur if cur >= 0 else None
        if step.done:
            env.reset()
            prev = {0: None, 1: None}


def test_first_ts_has_no_handover():
    env = make_env(seed=23)
    for _ in range(20):
        env.reset()
        step = env.step([5, 9])
        assert np.all(step.ho_flags == 0)


def test_conflict_resolution_lowest_index_wins():
    env = make_env(seed=29)
    env.reset()
    # Drive both vehicles to the same spot so their nearest RSU coincides.
    env.world.x[:] = 500.0
    env._sample_gains()
    env._refresh_observations()
    rid0 = int(env.observations[0].slot_map[0])
    slot1 = int(np.where(env.observations[1].slot_map == rid0)[0][0])
    act0 = AgentAction(0, 3)
    act1 = AgentAction(slot1, 3)
    step = env.step([act0, act1])
    assert step.violations.conflicts == [rid0]
    assert step.assoc_rsus[0] == rid0 and step.assoc_rsus[1] == rid0
    assert step.rates[0] > 0.0 and step.rates[1] == 0.0
    assert step.tx_powers_w[1] == 0.0
    assert step.reward == pytest.approx(float(np.mean(step.utilities)) + env.cfg.penalty)


def test_malformed_action_rejected():
    env = make_env()
    env.reset()
    with pytest.raises(ValueError):
        env.step([16, 0])
    with pytest.raises(ValueError):
        env.step([-1, 0])
    with pytest.raises(ValueError):
        env.step([AgentAction(4, 0), 0])
    with pytest.raises(ValueError):
        env.step([0])


def test_action_index_and_object_agree():
    a, b = make_env(seed=31), make_env(seed=31)
    a.reset()
    b.reset()
    rng = np.random.default_rng(2)
    for _ in range(50):
        idx = [int(i) for i in rng.integers(0, 16, size=2)]
        acts = [AgentAction.from_index(i, 4) for i in idx]
        sa, sb = a.step(idx), b.step(acts)
        assert sa.reward == sb.reward
        assert np.array_equal(sa.rates, sb.rates)


def test_episode_terminates_at_horizon():
    env = make_env(horizon=7)
    env.reset()
    for t in range(1, 8):
        step = env.step([0, 0])
        assert step.done == (t == 7)


def test_identical_seeds_identical_trajectories():
    a, b = make_env(seed=37), make_env(seed=37)
    a.reset()
    b.reset()
    rng = np.random.default_rng(3)
    for _ in range(120):
        idx = list(rng.integers(0, 16, size=2))
        sa, sb = a.step(idx), b.step(idx)
        assert sa.reward == sb.reward
        assert np.array_equal(sa.utilities, sb.utilities)
        assert np.array_equal(sa.observations[0], sb.observations[0])
        if sa.done:
            a.reset()
            b.reset()


def test_state_round_trip():
    env = make_env(seed=41)
    env.reset()
    env.step([3, 7])
    state = env.get_state()
    twin = make_env(seed=999)
    twin.reset()
    twin.set_state(state)
    rng = np.random.default_rng(4)
    for _ in range(30):
        idx = list(rng.integers(0, 16, size=2))
        sa, sb = env.step(idx), twin.step(idx)
        assert sa.reward == sb.reward
        assert np.array_equal(sa.observations[1], sb.observations[1])


# -- scripted episode against a straight-line reimplementation -------------------

def test_scripted_episode_matches_oracle():
    cfg = EnvConfig(horizon=10)
    env = EdgeAssocEnv(cfg, seed=101)
    env.reset()

    def watt(dbm):
        return 10.0 ** ((dbm - 30.0) / 10.0)

    power_dbm = [23.0 + i * (35.0 - 23.0) / 3.0 for i in range(4)]
    noise_w = watt(-114.0)
    prev = [None, None]
    total_env = 0.0
    total_oracle = 0.0
    for t in range(10):
        slot_maps = [env.observations[k].slot_map.copy() for k in range(2)]
        gains = env.gain_table.copy()
        actions = [AgentAction(t % 4, 3), AgentAction((t + 1) % 4, t % 4)]
        step = env.step(actions)
        total_env += step.reward

        # Straight-line recomputation from primitive quantities.
        chosen = []
        powers = []
        for k, act in enumerate(actions):
            slot = act.rsu_slot
            if slot_maps[k][slot] < 0:
                slot = 0
            rid = int(slot_maps[k][slot])
            chosen.append(rid if rid >= 0 else None)
            powers.append(watt(power_dbm[act.power_level]))
        rates, utils = [], []
        for k in range(2):
            rid = chosen[k]
            win = rid is not None and chosen.index(rid) == k
            p = powers[k] if win else 0.0
            rate = math.log2(1.0 + p * gains[k, rid] / noise_w) if win else 0.0
            ho = 0 if prev[k] is None or rid is None else int(prev[k] != rid)
            utils.append(0.5 * rate / 8.0 - 0.25 * ho - 0.25 * p / watt(35.0))
            rates.append(rate)
            prev[k] = rid
        conflict = len([c for c in chosen if c is not None]) != len(
            {c for c in chosen if c is not None}
        )
        violated = conflict or any(r < 8.0 for r in rates)
        total_oracle += sum(utils) / 2.0 + (-1.0 if violated else 0.0)

    assert abs(total_env - total_oracle) < 1e-9

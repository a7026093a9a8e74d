"""World construction, observations and the joint step contract."""

import copy
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_env import (
    PerTsEnv,
    WorldState,
    episode_row,
    observable_rsus,
    observation_vector,
    observations,
)

from fedassoc.env import (
    LANE_Y,
    NO_RSU_LOCATION,
    RSU_ROW_Y,
    EdgeAssocEnv,
    EnvConfig,
    RsuLayout,
    build_rsu_layout,
    dbm_to_watt,
    gauss_markov_speed,
    utility,
)


def make_env(seed=3, **overrides):
    return EdgeAssocEnv(EnvConfig(**overrides), seed=seed)


class FixedStart:
    """An init stream whose every draw of start positions gives `x`."""

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)

    def uniform(self, low, high, size):
        return self.x.copy()


def reset_at(x, *envs):
    """Reset each env with its vehicles starting at positions `x`."""
    for env in envs:
        env._rng_init = FixedStart(x)
        env.reset()


# -- layout ----------------------------------------------------------------

def test_layout_even_spacing_default():
    layout = build_rsu_layout(EnvConfig())
    expected = [(2 * i - 1) * 1000.0 / 12.0 for i in range(1, 7)]
    assert np.allclose(layout.xs[:6], expected)
    # North row interleaves: offset by half the per-side spacing, on the ring.
    assert np.allclose(layout.xs[6:], [(x + 1000.0 / 12.0) % 1000.0 for x in expected])
    # Ids 0-5 form the south row, 6-11 the north row.
    assert layout.ys.tolist() == [RSU_ROW_Y[0]] * 6 + [RSU_ROW_Y[1]] * 6


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
        dict(mean_speeds=(-5.0, 7.0)),
        dict(mean_speeds=(float("inf"), 7.0)),
        dict(coverage_radius=float("nan")),
        dict(road_length=float("inf")),
        dict(road_length=1e308),
        dict(road_length=2e307, num_rsus=10),
        dict(noise_dbm=float("-inf")),
        dict(y_scale=0.0),
        dict(gain_db_low=-40.0),
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
    ea, eb = a.episode, b.episode
    assert np.array_equal(ea.slots, eb.slots) and np.array_equal(ea.gains, eb.gains)
    assert np.array_equal(ea.obs, eb.obs)
    assert np.array_equal(a.mean_speeds, b.mean_speeds)
    assert ea.t == 1
    assert ea.prev_assoc.tolist() == [[-1], [-1]]


def test_mean_speeds_respect_config():
    env = make_env(mean_speeds=(6.0, 9.0))
    assert np.array_equal(env.mean_speeds, [6.0, 9.0])
    env = make_env()
    assert np.all((env.mean_speeds >= 5.0) & (env.mean_speeds <= 10.0))


# -- observations --------------------------------------------------------------

def brute_force_slots(ref, vehicle):
    cfg = ref.cfg
    vx = ref.world.x[vehicle]
    vy = LANE_Y[ref.world.lane[vehicle]]
    found = []
    for rid in range(cfg.num_rsus):
        dx = abs(vx - ref.layout.xs[rid]) % cfg.road_length
        dx = min(dx, cfg.road_length - dx)
        d = math.hypot(dx, vy - ref.layout.ys[rid])
        if d <= cfg.coverage_radius:
            found.append((d, rid))
    found.sort()
    return [rid for _, rid in found[: cfg.visible_rsus]]


def test_observable_rsus_matches_brute_force():
    # The reference twin draws the same start positions from its init stream.
    env, ref = twin_pair(EnvConfig(), 21)
    for _ in range(50):
        env.reset()
        ref.reset()
        for k in range(2):
            got = [rid for rid, _ in observable_rsus(ref.world, ref.layout, ref.cfg, k)]
            assert got == brute_force_slots(ref, k)
            assert np.array_equal(observations(env)[k].slot_map[: len(got)], got)


def test_mid_road_vehicle_sees_full_slots():
    env, ref = twin_pair(EnvConfig(), 3)
    reset_at([500.0, 500.0], env, ref)
    slots = observable_rsus(ref.world, ref.layout, ref.cfg, 0)
    assert len(slots) == 4
    dists = [d for _, d in slots]
    assert dists == sorted(dists)
    assert list(observations(env)[0].slot_map) == [rid for rid, _ in slots]


def test_no_rsus_in_range_gives_empty_list():
    env, ref = twin_pair(EnvConfig(coverage_radius=5.0), 3)
    reset_at([0.0, 0.0], env, ref)  # far from every RSU x position
    assert observable_rsus(ref.world, ref.layout, ref.cfg, 0) == []
    obs = observations(env)[0]
    assert np.all(obs.slot_map == -1)
    assert np.all(obs.gains == 0.0)
    env.step([0, 0])
    ts = last_ts(env)
    assert ts.rates[0] == 0.0 and ts.tx_powers_w[0] == 0.0
    assert ts.assoc_rsus[0] == -1


def test_equidistant_tie_breaks_to_lower_id():
    layout = RsuLayout(xs=np.array([400.0, 600.0]), ys=np.array([-10.0, -10.0]))
    world = WorldState(
        x=np.array([500.0]), speed=np.array([7.0]), lane=np.array([0]),
        prev_assoc=np.array([-1]), t=1,
    )
    cfg = EnvConfig(num_vehicles=1, num_rsus=2, visible_rsus=2)
    slots = observable_rsus(world, layout, cfg, 0)
    assert [rid for rid, _ in slots] == [0, 1]
    assert slots[0][1] == slots[1][1]
    env = EdgeAssocEnv(cfg, seed=0)
    env.layout = layout
    reset_at(world.x, env)
    assert list(observations(env)[0].slot_map) == [0, 1]


def test_observation_vector_layout():
    env = make_env()
    vecs = env.reset()
    assert vecs[0].shape == (14,)
    obs = observations(env)[0]
    # First TS: no previous association, raw sentinel scaled into the vector.
    assert np.array_equal(obs.prev_location, NO_RSU_LOCATION)
    assert vecs[0][12] == pytest.approx(-1.0 / 1000.0)
    assert vecs[0][13] == pytest.approx(-1.0 / 20.0)
    # Gains normalized into [0, 1], ordered slots by distance.
    assert np.all(vecs[0][:4] >= 0.0) and np.all(vecs[0][:4] <= 1.0)


def test_padded_slots_after_shrinking_coverage():
    env = make_env(coverage_radius=100.0)
    reset_at([83.0, 83.0], env)  # right next to the first RSU column
    obs = observations(env)[0]
    n = int((obs.slot_map >= 0).sum())
    assert 1 <= n < 4
    assert np.all(obs.gains[n:] == 0.0)
    assert np.all(obs.slot_map[n:] == -1)
    assert np.all(obs.locations[n:] == np.asarray(NO_RSU_LOCATION))


# -- stepping ------------------------------------------------------------------

def last_ts(env):
    """The values of the TS that the last `env.step` took, from `score_block`
    on its episode, as lists in vehicle order."""
    block = env.episode
    return SimpleNamespace(**ts_values(env.score_block(block), block, block.t - 2, 0))


def test_reward_identity_over_random_actions():
    env = make_env(seed=13)
    rng = np.random.default_rng(0)
    env.reset()
    for _ in range(1000):
        _, reward, done = env.step(list(rng.integers(0, 16, size=2)))
        ts = last_ts(env)
        assert ts.penalty == (env.cfg.penalty if ts.violations else 0.0)
        assert reward == float(np.mean(ts.utilities)) + ts.penalty == ts.reward
        if done:
            env.reset()


def test_handover_flags_match_association_history():
    env = make_env(seed=17)
    rng = np.random.default_rng(1)
    for _ in range(3):
        env.reset()
        for _ in range(env.horizon):
            env.step(list(rng.integers(0, 16, size=2)))
        scored = env.score_block(env.episode)
        for k in range(2):
            prev = None
            for cur, ho in zip(scored.assoc_rsus[k, :, 0].tolist(), scored.ho_flags[k, :, 0]):
                if prev is None or cur < 0:
                    assert ho == 0
                else:
                    assert ho == int(prev != cur)
                prev = cur if cur >= 0 else None


def test_first_ts_has_no_handover():
    env = make_env(seed=23)
    for _ in range(20):
        env.reset()
        env.step([5, 9])
        assert last_ts(env).ho_flags == [0, 0]


def test_conflict_resolution_lowest_index_wins():
    env = make_env(seed=29)
    # Start both vehicles at the same spot so their nearest RSU coincides.
    reset_at([500.0, 500.0], env)
    views = observations(env)
    rid0 = int(views[0].slot_map[0])
    slot1 = int(np.where(views[1].slot_map == rid0)[0][0])
    _, reward, _ = env.step([0 * 4 + 3, slot1 * 4 + 3])  # slot * power_levels + level
    ts = last_ts(env)
    assert ts.assoc_rsus == [rid0, rid0]
    assert ts.rates[0] >= env.cfg.min_rate and ts.rates[1] == 0.0
    assert ts.tx_powers_w[1] == 0.0
    # One contested RSU plus the muted vehicle's rate under the minimum.
    assert ts.violations == 2
    assert ts.penalty == env.cfg.penalty
    assert reward == pytest.approx(float(np.mean(ts.utilities)) + env.cfg.penalty)


def test_malformed_action_rejected():
    env = make_env()
    env.reset()
    with pytest.raises(ValueError):
        env.step([16, 0])
    with pytest.raises(ValueError):
        env.step([-1, 0])
    with pytest.raises(ValueError):
        env.step([0])


def test_episode_terminates_at_horizon():
    env = make_env(horizon=7)
    env.reset()
    for t in range(1, 8):
        _, _, done = env.step([0, 0])
        assert done == (t == 7)
    with pytest.raises(RuntimeError, match="episode is done"):
        env.step([0, 0])
    assert env.episode.t == 8
    env.reset()
    assert not env.step([0, 0])[2]


def test_identical_seeds_identical_trajectories():
    a, b = make_env(seed=37), make_env(seed=37)
    a.reset()
    b.reset()
    rng = np.random.default_rng(3)
    for _ in range(120):
        idx = list(rng.integers(0, 16, size=2))
        (obs_a, reward_a, done), (obs_b, reward_b, _) = a.step(idx), b.step(idx)
        assert reward_a == reward_b
        assert last_ts(a).utilities == last_ts(b).utilities
        assert np.array_equal(obs_a[0], obs_b[0])
        if done:
            a.reset()
            b.reset()


def test_state_round_trip():
    # A state taken mid-episode restores the streams; the twin's episodes
    # start at its next reset(), as the source's do.
    env = make_env(seed=41, horizon=30)
    env.reset()
    env.step([3, 7])
    state = json.loads(json.dumps(env.get_state()))
    twin = make_env(seed=999, horizon=30)
    twin.reset()
    twin.set_state(state)
    assert twin.episode is None
    with pytest.raises(RuntimeError, match="reset"):
        twin.step([0, 0])
    rng = np.random.default_rng(4)
    for _ in range(2):
        assert [bits(v) for v in env.reset()] == [bits(v) for v in twin.reset()]
        done = False
        while not done:
            idx = random_actions(rng, env.cfg)
            sa, sb = env.step(idx), twin.step(idx)
            assert_same_step(sa, sb)
            done = sa[2]
        assert repr(env.score_block(env.episode)) == repr(twin.score_block(twin.episode))
        assert bits(env.episode.obs) == bits(twin.episode.obs)
    assert twin.get_state() == env.get_state()


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
        slot_maps = [observations(env)[k].slot_map.copy() for k in range(2)]
        gains = episode_row(env, "gains").copy()  # by slot
        actions = [(t % 4, 3), ((t + 1) % 4, t % 4)]  # (slot, power level)
        _, reward, _ = env.step([slot * 4 + level for slot, level in actions])
        total_env += reward

        # Straight-line recomputation from primitive quantities.
        chosen = []
        powers = []
        slots = []
        for k, (slot, level) in enumerate(actions):
            if slot_maps[k][slot] < 0:
                slot = 0
            rid = int(slot_maps[k][slot])
            chosen.append(rid if rid >= 0 else None)
            slots.append(slot)
            powers.append(watt(power_dbm[level]))
        rates, utils = [], []
        for k in range(2):
            rid = chosen[k]
            win = rid is not None and chosen.index(rid) == k
            p = powers[k] if win else 0.0
            rate = math.log2(1.0 + p * gains[k, slots[k]] / noise_w) if win else 0.0
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


# -- the env against the per-TS reference ------------------------------------------

STREAMS = ("_rng_init", "_rng_mobility", "_rng_fading")


def bits(value):
    """Dtype, shape and bytes: equal only for bit-identical arrays."""
    a = np.asarray(value)
    return a.dtype.str, a.shape, a.tobytes()


def step_bits(step):
    """A `step` result with its observations as bits."""
    obs, reward, done = step
    return [bits(o) for o in obs], reward, done


def assert_same_step(a, b):
    """Two `step` results, bit for bit: repr prints every float exactly."""
    assert repr(step_bits(a)) == repr(step_bits(b))


def assert_same_world(env, ref):
    """The env's episode at the reference's TS: the current rows of gains,
    slots (the padded-slot fallback applied) and observations, and the
    previous associations."""
    assert env.episode.t == ref.world.t
    assert bits(env.episode.prev_assoc[:, 0]) == bits(ref.world.prev_assoc)
    assert bits(episode_row(env, "gains")) == bits(ref.slot_gains())
    slot_maps = np.array([o.slot_map for o in ref.observations])
    assert bits(episode_row(env, "slots")) == bits(
        np.where(slot_maps < 0, slot_maps[:, :1], slot_maps)
    )
    assert bits(episode_row(env, "obs")) == bits(
        [observation_vector(o, ref.cfg) for o in ref.observations]
    )
    for got, want in zip(observations(env), ref.observations, strict=True):
        for name in ("gains", "locations", "prev_location", "slot_map"):
            assert bits(getattr(got, name)) == bits(getattr(want, name)), name


def assert_same_streams(env, ref):
    for name in STREAMS:
        assert getattr(env, name).bit_generator.state == getattr(ref, name).bit_generator.state


def random_actions(rng, cfg):
    return [int(i) for i in rng.integers(0, cfg.actions_per_agent, size=cfg.num_vehicles)]


def run_episodes(env, ref, rng, episodes):
    """Reset both, step both to the horizon, compare all: each `step` and
    world, then every TS of the env's episode as `score_block` gives it."""
    for _ in range(episodes):
        assert [bits(v) for v in env.reset()] == [bits(v) for v in ref.reset()]
        assert_same_world(env, ref)
        wants = []
        for _ in range(env.cfg.horizon):
            actions = random_actions(rng, env.cfg)
            got, want = env.step(actions), ref.step(actions)
            assert_same_step(got, (want.observations, want.reward, want.done))
            assert_same_world(env, ref)
            wants.append(want)
        assert want.done
        scored = env.score_block(env.episode)
        for t, want in enumerate(wants):
            assert repr(ts_values(scored, env.episode, t, 0)) == repr(step_values(want))
        assert_same_streams(env, ref)


def twin_pair(cfg, seed):
    return EdgeAssocEnv(cfg, seed), PerTsEnv(cfg, seed)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    coverage_radius=st.floats(5.0, 600.0),
    horizon=st.sampled_from([1, 2, 7, 100]),
    num_rsus=st.sampled_from([2, 4, 8, 12, 16]),
    data=st.data(),
)
def test_planned_env_matches_per_ts_reference(seed, coverage_radius, horizon, num_rsus, data):
    cfg = EnvConfig(
        num_vehicles=data.draw(st.integers(1, min(4, num_rsus))),
        num_rsus=num_rsus,
        visible_rsus=data.draw(st.integers(1, num_rsus)),
        coverage_radius=coverage_radius,
        horizon=horizon,
    )
    env, ref = twin_pair(cfg, seed)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    run_episodes(env, ref, rng, data.draw(st.integers(1, 3)))


def test_planned_env_matches_reference_over_many_episodes():
    env, ref = twin_pair(EnvConfig(coverage_radius=150.0), 43)
    run_episodes(env, ref, np.random.default_rng(5), episodes=25)


STEP_FIELDS = ("reward", "utilities", "rates", "ho_flags", "tx_powers_w", "assoc_rsus",
               "violations", "penalty", "done")


def step_values(step):
    """Every field of a reference TS, the penalty as a float, observations as bits."""
    values = {name: getattr(step, name) for name in STEP_FIELDS}
    values["penalty"] = float(step.penalty)
    values["observations"] = [bits(o) for o in step.observations]
    return values


def ts_values(scored, block, t, i):
    """Episode i's fields at TS t of `block`'s `score_block` result, and the
    observations the TS led to, as `step_values` gives them."""
    values = {}
    for name in STEP_FIELDS:
        value = getattr(scored, name)
        if value.ndim == 3:  # one row per vehicle
            values[name] = value[:, t, i].tolist()
        else:
            values[name] = value[t, i].tolist()
    values["observations"] = [bits(o) for o in block.obs[t + 1, :, i]]
    return values


def ts_step(scored, block, t, i):
    """Episode i's TS t of `block`, by its `score_block` result, as
    `step_bits` gives a `step` result."""
    obs = [bits(o) for o in block.obs[t + 1, :, i]]
    return obs, scored.reward[t, i].tolist(), scored.done[t, i].tolist()


def with_clashes(actions, envs, rng, cfg):
    """`actions` with some vehicles moved onto the RSU that vehicle 0 picks."""
    actions = actions.copy()
    for i, env in enumerate(envs):
        slot_maps = episode_row(env, "slots")  # padded slots hold their fallback
        target = slot_maps[0][actions[0, i] // cfg.power_levels]
        for k in range(1, cfg.num_vehicles):
            hits = np.flatnonzero(slot_maps[k] == target)
            if target >= 0 and len(hits) and rng.random() < 0.7:
                actions[k, i] = hits[0] * cfg.power_levels + actions[k, i] % cfg.power_levels
    return actions


def raised(call, *args):
    with pytest.raises((ValueError, RuntimeError)) as info:
        call(*args)
    return type(info.value), str(info.value)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    coverage_radius=st.floats(5.0, 600.0),
    horizon=st.sampled_from([1, 2, 7]),
    num_rsus=st.sampled_from([2, 4, 8, 12, 16]),
    penalty=st.sampled_from([-1, -1.0, -0.5, 0]),
    episodes=st.integers(1, 5),
    data=st.data(),
)
def test_block_step_matches_env_step(
    seed, coverage_radius, horizon, num_rsus, penalty, episodes, data
):
    # Each episode of a block, stepped at once and scored after the horizon,
    # against `step` on its own copy of a twin env of the same seed.
    cfg = EnvConfig(
        num_vehicles=data.draw(st.integers(1, min(4, num_rsus))),
        num_rsus=num_rsus,
        visible_rsus=data.draw(st.integers(1, num_rsus)),
        coverage_radius=coverage_radius,
        horizon=horizon,
        penalty=penalty,
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    env, twin = EdgeAssocEnv(cfg, seed), EdgeAssocEnv(cfg, seed)
    envs = [copy.copy(twin) for _ in range(episodes)]
    first_obs = [env_i.reset() for env_i in envs]
    block, block_obs = env.reset_block(episodes)
    assert [bits(o) for o in block_obs] == [bits(np.array(obs)) for obs in zip(*first_obs)]
    shape = (cfg.num_vehicles, episodes)
    wants = []  # per TS, `step` on each episode
    for t in range(horizon):
        actions = with_clashes(rng.integers(0, cfg.actions_per_agent, shape), envs, rng, cfg)
        bad = actions.copy()
        # One or two distinct bad indices, so the message names the first one.
        count = rng.integers(1, min(2, bad.size) + 1)
        bad.flat[rng.choice(bad.size, count, replace=False)] = rng.choice(
            [-1, -3, cfg.actions_per_agent, cfg.actions_per_agent + 7], count, replace=False
        )
        first_bad = int(np.flatnonzero(((bad < 0) | (bad >= cfg.actions_per_agent)).any(0))[0])
        assert raised(env.step_block, block, bad) == raised(
            envs[first_bad].step, bad[:, first_bad].tolist()
        )
        assert raised(env.step_block, block, actions[:-1])[0] is ValueError
        got = env.step_block(block, actions)
        wants.append([env_i.step(actions[:, i].tolist()) for i, env_i in enumerate(envs)])
        want_obs = zip(*(obs for obs, _, _ in wants[-1]))
        assert [bits(o) for o in got] == [bits(np.array(obs)) for obs in want_obs]
        # A block scores the TS stepped so far and stays as it is.
        partial = env.score_block(block)
        assert partial.reward.shape == (t + 1, episodes)
        for i, want in enumerate(wants[-1]):
            assert repr(ts_step(partial, block, t, i)) == repr(step_bits(want))
    assert raised(env.step_block, block, actions) == raised(
        envs[0].step, actions[:, 0].tolist()
    )
    scored = env.score_block(block)
    assert scored.utilities.shape == (cfg.num_vehicles, horizon, episodes)
    for t, ts_wants in enumerate(wants):
        for i, want in enumerate(ts_wants):
            assert repr(ts_step(scored, block, t, i)) == repr(step_bits(want))
    # Each episode's own block of one scores as its TS in the block do.
    for i, env_i in enumerate(envs):
        own = env_i.score_block(env_i.episode)
        for t in range(horizon):
            assert repr(ts_values(own, env_i.episode, t, 0)) == repr(ts_values(scored, block, t, i))
    assert env.get_state() == twin.get_state()


def test_block_rates_take_math_log2_where_np_log2_differs():
    # np.log2 differs from math.log2 in the last bit on about one served
    # vehicle-TS in 10 000; this block of the default world holds some.
    cfg, episodes = EnvConfig(), 32
    env, ref = twin_pair(cfg, 3)
    block, _ = env.reset_block(episodes)
    shape = (cfg.horizon, cfg.num_vehicles, episodes)
    actions = np.random.default_rng(3).integers(0, cfg.actions_per_agent, shape)
    for ts_actions in actions:
        env.step_block(block, ts_actions)
    want = []
    for i in range(episodes):  # the reference draws the block's episodes in turn
        ref.reset()
        want.append([ref.step(ts_actions[:, i].tolist()).rates for ts_actions in actions])
    scored = env.score_block(block)
    assert bits(scored.rates.transpose(2, 1, 0)) == bits(want)
    served = scored.tx_powers_w > 0
    slots = actions.transpose(1, 0, 2) // cfg.power_levels
    gains = np.take_along_axis(
        block.gains[:cfg.horizon].transpose(1, 0, 2, 3), slots[..., None], -1
    )[..., 0]
    one_plus_snr = 1.0 + scored.tx_powers_w * gains / dbm_to_watt(cfg.noise_dbm)
    if not (np.log2(one_plus_snr[served]) != scored.rates[served]).any():
        pytest.skip("np.log2 agrees with math.log2 on this block's arguments on this platform")


def test_reset_block_leaves_the_reset_episode_as_it_was():
    # A block's episodes are drawn into the block alone: the episode reset()
    # started goes on as in a twin env that drew no block.
    cfg = EnvConfig(horizon=6, coverage_radius=150.0)
    env, twin = EdgeAssocEnv(cfg, 71), EdgeAssocEnv(cfg, 71)
    rng = np.random.default_rng(9)
    assert [bits(v) for v in env.reset()] == [bits(v) for v in twin.reset()]
    actions = random_actions(rng, cfg)
    assert_same_step(env.step(actions), twin.step(actions))
    env.reset_block(3)
    for _ in range(cfg.horizon - 1):
        actions = random_actions(rng, cfg)
        assert_same_step(env.step(actions), twin.step(actions))


@pytest.mark.parametrize("n", [0, -2])
def test_reset_block_rejects_an_empty_block(n):
    env = make_env(seed=73)
    before = env.get_state()
    with pytest.raises(ValueError, match=re.escape(f"at least one episode, got n={n}")):
        env.reset_block(n)
    assert env.get_state() == before


@pytest.mark.parametrize("steps", [4, 30, 32], ids=["mid-episode", "boundary", "past-horizon"])
def test_state_without_drawn_rows_resumes(steps):
    # A state the per-TS reference writes after any number of TS, within its
    # episode or past the horizon, restores into the env, whose
    # episodes from the next reset() match the reference's.
    cfg = EnvConfig(horizon=30)
    env, ref = twin_pair(cfg, 53)
    rng = np.random.default_rng(7)
    ref.reset()
    for _ in range(steps):
        ref.step(random_actions(rng, cfg))
    env.set_state(json.loads(json.dumps(ref.get_state())))
    run_episodes(env, ref, rng, episodes=2)


def test_boundary_state_matches_reference_format():
    cfg = EnvConfig(horizon=20)
    env, ref = twin_pair(cfg, 59)
    run_episodes(env, ref, np.random.default_rng(8), episodes=2)
    assert json.dumps(env.get_state()) == json.dumps(ref.get_state())


def _set_cfg(**fields):
    return lambda state: state["cfg"].update(fields)


def _malformed_stream(state):
    state["rng_fading"]["bit_generator"] = "MT19937"


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_cfg(num_rsus=8), "its num_rsus is 8, this world's is 12"),
        (_set_cfg(num_vehicles=1), "its num_vehicles is 1, this world's is 2"),
        (_set_cfg(coverage_radius=50.0), "its coverage_radius is 50.0, this world's is 200.0"),
        (_set_cfg(mean_speeds=[6.0, 9.0]), "its mean_speeds is [6.0, 9.0], this world's is None"),
        (lambda s: s.update(mean_speeds=[5.0, 6.0, 7.0]),
         "mean_speeds must have one entry per vehicle"),
        (lambda s: s.pop("cfg"), "env state has no 'cfg'"),
        (_malformed_stream, "PCG64"),
        # The state's cfg is built as a config file's is, by the same check.
        (_set_cfg(colour="red"), "unknown config key 'colour'"),
        (lambda s: s.update(cfg="12 RSUs"), "EnvConfig must be a JSON object, got '12 RSUs'"),
        (_set_cfg(num_rsus=12.0), "num_rsus must be an integer, got 12.0"),
        (_set_cfg(coverage_radius=-5), "coverage_radius must be > 0, got -5"),
        (_set_cfg(num_rsus=13), "num_rsus must be even (equal counts per roadside), got 13"),
    ],
    ids=["num-rsus", "num-vehicles", "coverage-radius", "cfg-mean-speeds", "mean-speeds",
         "missing-cfg", "stream", "unknown-cfg-key", "cfg-not-an-object", "float-num-rsus",
         "negative-coverage-radius", "odd-num-rsus"],
)
def test_set_state_rejects_another_world(edit, message):
    env = make_env(seed=67, horizon=10)
    env.reset()
    env.step([0, 0])
    state = json.loads(json.dumps(env.get_state()))
    edit(state)
    twin = make_env(seed=5, horizon=10)
    twin.reset()
    before, episode = twin.get_state(), twin.episode
    with pytest.raises(ValueError, match=re.escape(message)):
        twin.set_state(state)
    assert twin.get_state() == before and twin.episode is episode and episode.t == 1


def test_set_state_takes_a_missing_cfg_key_at_its_default():
    # As a config file's missing key does: a state written without a field
    # is of the world whose field holds the default.
    env = make_env(seed=67, horizon=10)
    env.reset()
    state = json.loads(json.dumps(env.get_state()))
    del state["cfg"]["penalty"]
    twin = make_env(seed=5, horizon=10)
    twin.set_state(state)
    assert twin.get_state() == env.get_state()
    del state["cfg"]["horizon"]
    with pytest.raises(ValueError, match=re.escape("its horizon is 100, this world's is 10")):
        twin.set_state(state)


def test_array_helpers_match_scalar_calls():
    rng = np.random.default_rng(10)
    speed, mean, noise = rng.uniform(0, 20, 5), rng.uniform(5, 10, 5), rng.standard_normal(5)
    got = gauss_markov_speed(speed, mean, 0.3, 0.2, noise)
    assert bits(got) == bits([gauss_markov_speed(*v, 0.3, 0.2, w) for *v, w in zip(speed, mean, noise)])
    cfg = EnvConfig()
    rate, ho, tx = rng.uniform(0, 30, 5), rng.integers(0, 2, 5), rng.uniform(0, 3, 5)
    got = utility(rate, ho, tx, cfg)
    assert bits(got) == bits([utility(float(r), int(h), float(p), cfg) for r, h, p in zip(rate, ho, tx)])

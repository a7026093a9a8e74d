"""Lockstep greedy evaluation against one episode at a time.

`Trainer.evaluate` advances blocks of episodes together. `sequential_evaluate`
below is the one-episode-at-a-time loop it replaced: each TS selects on one
observation vector per agent and draws its sharing noise as it goes. Both
must give the same records and random-stream end states, bit for bit, and
`evaluate` must step every episode, a lone one included, in a block: it may
call neither `env.reset` nor `env.step`. Each block is stepped once per TS,
then scored and summed once.
"""

import collections
import itertools

import numpy as np
import pytest

import fedassoc.agents as agents_mod
from fedassoc.agents import FederatedTrainer, TrainerConfig
from fedassoc.env import EdgeAssocEnv, EnvConfig
from fedassoc.harness import ALGORITHMS, TRAINERS
from fedassoc.metrics import MetricAccumulator
from toy_env import ToyEnv, separable_table


def sequential_evaluate(trainer, episodes):
    """Greedy rollouts one episode at a time, drawing noise TS by TS, each
    episode scored as training scores it."""
    acc = MetricAccumulator()
    records = []
    for ep in range(1, episodes + 1):
        obs = trainer.env.reset()
        done = False
        while not done:
            obs, _, done = trainer.env.step(trainer.select_actions(obs, 0.0))
        records.extend(acc.add(trainer.env.score_block(trainer.env.episode), ep, 0.0, 0.0))
    return records


def make_trainer(algo, env, cfg, seed=7):
    return TRAINERS[algo](env, cfg, seed)


def small_cfg(**overrides):
    # fmarl-avg averages after every episode, so its evaluated nets are averages.
    defaults = dict(
        episodes=2, batch_size=8, replay_capacity=64,
        local_hidden=(12,), mlp_hidden=(12,), target_sync=5, fedavg_period=1,
    )
    defaults.update(overrides)
    return TrainerConfig(**defaults)


def trained(algo, make_env, cfg):
    """A trainer after a short training run, so its nets are not the initial ones."""
    trainer = make_trainer(algo, make_env(), cfg)
    trainer.run()
    return trainer


def stream_states(trainer):
    states = {
        name: getattr(trainer, name).bit_generator.state
        for name in ("rng_explore", "rng_sample", "rng_noise")
    }
    if isinstance(trainer.env, EdgeAssocEnv):
        states["env"] = trainer.env.get_state()
    return states


class BlocksOnly:
    """The wrapped env, but its `reset` and `step` raise."""

    def __init__(self, env):
        self.env = env

    def __getattr__(self, name):
        return getattr(self.env, name)

    def reset(self):
        raise AssertionError("greedy evaluation called env.reset")

    def step(self, actions):
        raise AssertionError("greedy evaluation called env.step")


def assert_lockstep_matches_sequential(algo, make_env, cfg, episodes):
    lockstep, sequential = trained(algo, make_env, cfg), trained(algo, make_env, cfg)
    assert stream_states(lockstep) == stream_states(sequential)
    ref_records = sequential_evaluate(sequential, episodes)
    # Every episode, a lone one included, runs in a block.
    env, lockstep.env = lockstep.env, BlocksOnly(lockstep.env)
    records = lockstep.evaluate(episodes)
    lockstep.env = env
    assert len(records) == episodes
    # repr compares every float bit by bit, and the type of every cell.
    assert repr(records) == repr(ref_records)
    assert stream_states(lockstep) == stream_states(sequential)


def small_env(seed=3, penalty=-1.0):
    return EdgeAssocEnv(EnvConfig(horizon=4, penalty=penalty), seed)


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("episodes", [1, 3, agents_mod.EVAL_BLOCK + 1])
def test_lockstep_matches_sequential(algo, episodes):
    # An integer penalty adds to the reward as its float does.
    for sigma, penalty in itertools.product((0.0, 1.0), (-1.0, -1)):
        cfg = small_cfg(share_noise_std=sigma)
        assert_lockstep_matches_sequential(
            algo, lambda: small_env(penalty=penalty), cfg, episodes
        )


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_lockstep_matches_sequential_across_blocks(algo):
    # Two full blocks and a part of a third, at the block width in use.
    episodes = 2 * agents_mod.EVAL_BLOCK + 3
    for sigma in (0.0, 1.0):
        cfg = small_cfg(share_noise_std=sigma)
        assert_lockstep_matches_sequential(
            algo, lambda: EdgeAssocEnv(EnvConfig(horizon=2), 5), cfg, episodes
        )


@pytest.mark.parametrize("algo", ["proposed", "cdrl"])
def test_fewer_episodes_give_the_first_records(algo):
    # A lone episode, a block of two, a full block and a full block plus a
    # lone episode each give the first records of a longer evaluation.
    episodes = 2 * agents_mod.EVAL_BLOCK + 3
    for sigma in (0.0, 1.0):
        cfg = small_cfg(share_noise_std=sigma)

        def make_env():
            return EdgeAssocEnv(EnvConfig(horizon=2), 5)

        want = trained(algo, make_env, cfg).evaluate(episodes)
        for k in (1, 2, agents_mod.EVAL_BLOCK, agents_mod.EVAL_BLOCK + 1):
            assert repr(trained(algo, make_env, cfg).evaluate(k)) == repr(want[:k])


@pytest.mark.parametrize("block", [1, 2, 3])
def test_lockstep_matches_sequential_at_any_block_width(monkeypatch, block):
    monkeypatch.setattr(agents_mod, "EVAL_BLOCK", block)
    assert_lockstep_matches_sequential("proposed", small_env, small_cfg(), 5)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_lockstep_matches_sequential_on_toy_env(algo):
    def make_env():
        return ToyEnv(separable_table(4, seed=3), obs_dim=3, seed=3)

    for sigma in (0.0, 1.0):
        cfg = small_cfg(share_noise_std=sigma, episodes=12)
        for episodes in (1, 3, agents_mod.EVAL_BLOCK + 1):
            assert_lockstep_matches_sequential(algo, make_env, cfg, episodes)


def counted(calls, name, original):
    """`original`, counting its calls in `calls[name]`."""

    def call(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return call


@pytest.mark.parametrize("episodes", [1, 2 * agents_mod.EVAL_BLOCK + 3])
def test_each_block_steps_each_ts_then_scores_once(monkeypatch, episodes):
    calls = collections.Counter()
    for owner, name in (
        (EdgeAssocEnv, "step_block"), (EdgeAssocEnv, "score_block"), (MetricAccumulator, "add")
    ):
        monkeypatch.setattr(owner, name, counted(calls, name, getattr(owner, name)))
    env = small_env()
    FederatedTrainer(env, small_cfg(), seed=1).evaluate(episodes)
    blocks = -(-episodes // agents_mod.EVAL_BLOCK)
    assert calls == {"step_block": blocks * env.horizon, "score_block": blocks, "add": blocks}


def test_training_scores_each_episode_once(monkeypatch):
    # Training steps each TS through `step`, which takes its actions by
    # `step_block` on the episode's block of one, then scores and sums the
    # episode once.
    calls = collections.Counter()
    for owner, name in (
        (EdgeAssocEnv, "step"), (EdgeAssocEnv, "step_block"), (EdgeAssocEnv, "score_block"),
        (MetricAccumulator, "add"),
    ):
        monkeypatch.setattr(owner, name, counted(calls, name, getattr(owner, name)))
    env = small_env()
    cfg = small_cfg(episodes=3)
    FederatedTrainer(env, cfg, seed=1).run()
    ts = cfg.episodes * env.horizon
    assert calls == {"step": ts, "step_block": ts, "score_block": cfg.episodes, "add": cfg.episodes}


class RaggedToyEnv(ToyEnv):
    """A toy of a given `horizon` whose episodes last as `lengths` cycles.

    The lengths come from one iterator, which the copies that
    `ToyEnv.reset_block` makes share.
    """

    def __init__(self, lengths, horizon, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lengths = itertools.cycle(lengths)
        self.horizon = horizon

    def reset(self):
        self.length = next(self.lengths)
        return super().reset()

    def step(self, actions):
        obs, reward, _ = super().step(actions)
        self.steps[-1] = (reward, len(self.steps) == self.length)
        return obs, *self.steps[-1]


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_episodes_of_another_length_raise(sigma):
    # Episode 1 lasts the horizon, episode 2 of the same block does not; or
    # both do not, and the first TS that shows it names its episode.
    for lengths, horizon, message in (
        ([1, 2], 1, "episode 2 goes on at TS 1"),
        ([3, 1], 2, "episode 2 ended at TS 1"),
    ):
        env = RaggedToyEnv(lengths, horizon, separable_table(3, seed=1), obs_dim=3)
        trainer = FederatedTrainer(env, small_cfg(share_noise_std=sigma), seed=1)
        with pytest.raises(RuntimeError, match=message):
            trainer.evaluate(2)


def test_stack_selection_is_greedy_only():
    trainer = FederatedTrainer(small_env(), small_cfg(), seed=1)
    stacks = [np.array(o) for o in zip(trainer.env.reset(), trainer.env.reset())]
    with pytest.raises(ValueError, match="greedily"):
        trainer.select_actions(stacks, 0.1)

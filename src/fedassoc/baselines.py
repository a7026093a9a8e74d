"""Comparison algorithms: centralized DDQN, independent DDQN pairs, and
independent learners with periodic federated weight averaging.

All three run against the same environment and metric pipeline as the
federated trainer and share its hyperparameters, so result files differ only
by algorithm.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .agents import TrainerConfig, epsilon_at, epsilon_greedy
from .metrics import EpisodeRecord, MetricAccumulator
from .nn import (
    DenseNet,
    backward,
    clone,
    copy_into_target,
    forward,
    init_net,
    lr_at,
    sgd_step,
)
from .replay import Batch, ReplayBuffer


def ddqn_target(
    reward: np.ndarray,
    next_obs: np.ndarray,
    main: DenseNet,
    target: DenseNet,
    discount: float,
    done: np.ndarray,
) -> np.ndarray:
    """Double-DQN bootstrap: target values read at the main net's argmax."""
    if main.dims != target.dims:
        raise ValueError("main and target architectures differ")
    q_main, _ = forward(main, next_obs)
    q_target, _ = forward(target, next_obs)
    picks = q_main.argmax(axis=1)
    best = q_target[np.arange(len(picks)), picks]
    return np.asarray(reward, dtype=float) + discount * best * (1.0 - np.asarray(done, dtype=float))


def fedavg(nets: list[DenseNet]) -> DenseNet:
    """Elementwise arithmetic mean of identically shaped networks."""
    if not nets:
        raise ValueError("fedavg needs at least one network")
    first = nets[0]
    for other in nets[1:]:
        if other.dims != first.dims or other.activation != first.activation:
            raise ValueError("fedavg requires identical architectures")
    out = clone(first)
    for li in range(len(out.weights)):
        out.weights[li] = np.mean([n.weights[li] for n in nets], axis=0)
        out.biases[li] = np.mean([n.biases[li] for n in nets], axis=0)
    return out


class _DdqnHead:
    """One DDQN learner: main net, frozen target, MSE update at taken actions."""

    def __init__(self, dims, rng_init: np.random.Generator, cfg: TrainerConfig):
        self.cfg = cfg
        self.net = init_net(dims, rng_init)
        self.target = clone(self.net)

    def values(self, obs: np.ndarray) -> np.ndarray:
        out, _ = forward(self.net, obs)
        return out

    def update(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_obs: np.ndarray,
        done: np.ndarray,
        lr: float,
    ) -> float:
        targets = ddqn_target(rewards, next_obs, self.net, self.target, self.cfg.discount, done)
        n = len(actions)
        pred, cache = forward(self.net, obs, actions)
        err = pred - targets
        loss = float(np.mean(err * err))
        if not np.isfinite(loss):
            raise RuntimeError("non-finite training loss")
        grads, _ = backward(self.net, cache, 2.0 * err / n, actions)
        sgd_step([(self.net, grads)], lr, self.cfg.grad_clip)
        return loss

    def sync(self) -> None:
        copy_into_target(self.net, self.target)


def _joint_to_parts(joint: int, num_actions: int, num_agents: int) -> list[int]:
    """Base-|A| digits of a joint index, agent 0 most significant."""
    parts = [0] * num_agents
    for k in range(num_agents - 1, -1, -1):
        parts[k] = joint % num_actions
        joint //= num_actions
    return parts


def train_centralized(
    env, cfg: TrainerConfig, seed: int, ts_rows: Optional[list] = None
) -> tuple[_DdqnHead, list[EpisodeRecord]]:
    """One DDQN over the concatenated observations and the joint action space."""
    cfg.validate()
    if env.num_agents != 2:
        raise ValueError("the centralized baseline drives exactly two agents")
    k = env.num_agents
    a = env.num_actions
    ss = np.random.SeedSequence(seed)
    init_ss, explore_ss, sample_ss, _ = ss.spawn(4)
    rng_init = np.random.default_rng(init_ss)
    rng_explore = np.random.default_rng(explore_ss)
    rng_sample = np.random.default_rng(sample_ss)
    head = _DdqnHead((k * env.obs_dim, *cfg.local_hidden, a**k), rng_init, cfg)
    buffer = ReplayBuffer(cfg.replay_capacity, env.obs_dim)
    acc = MetricAccumulator(k, env.cfg.penalty, ts_rows)
    records = []
    train_steps = 0
    for episode in range(1, cfg.episodes + 1):
        eps = epsilon_at(cfg, episode)
        lr = lr_at(cfg.lr_schedule(), episode)
        if cfg.clear_replay_per_episode:
            buffer.clear()
        obs = env.reset()
        done = False
        while not done:
            state = np.concatenate(obs)
            joint = epsilon_greedy(head.values(state), eps, rng_explore)
            actions = _joint_to_parts(joint, a, k)
            step = env.step(actions)
            buffer.add(
                obs[0], joint, step.reward, step.observations[0],
                obs[1], 0, step.observations[1], step.done,
            )
            obs = step.observations
            done = step.done
            acc.add(step, episode)
            if len(buffer) >= cfg.batch_size:
                batch = buffer.sample(cfg.batch_size, rng_sample)
                head.update(
                    np.hstack([batch.obs_lead, batch.obs_follow]),
                    batch.act_lead,
                    batch.reward,
                    np.hstack([batch.next_obs_lead, batch.next_obs_follow]),
                    batch.done,
                    lr,
                )
                train_steps += 1
                if train_steps % cfg.target_sync == 0:
                    head.sync()
        records.append(acc.finalize(episode, eps, lr))
    return head, records


def _train_independent_core(
    env,
    cfg: TrainerConfig,
    seed: int,
    avg_period: Optional[int],
    ts_rows: Optional[list] = None,
) -> tuple[list[_DdqnHead], list[EpisodeRecord]]:
    """Two independent DDQNs on the shared reward, optionally weight-averaged.

    With avg_period None this is plain independent learning; otherwise the
    agents' main and target networks are replaced by their elementwise means
    every avg_period episodes.
    """
    cfg.validate()
    if env.num_agents != 2:
        raise ValueError("independent baselines drive exactly two agents")
    a = env.num_actions
    ss = np.random.SeedSequence(seed)
    init_ss, explore_ss, sample_ss, _ = ss.spawn(4)
    rng_init = np.random.default_rng(init_ss)
    rng_explore = np.random.default_rng(explore_ss)
    rng_sample = np.random.default_rng(sample_ss)
    dims = (env.obs_dim, *cfg.local_hidden, a)
    heads = [_DdqnHead(dims, rng_init, cfg) for _ in range(2)]
    buffer = ReplayBuffer(cfg.replay_capacity, env.obs_dim)
    acc = MetricAccumulator(2, env.cfg.penalty, ts_rows)
    records = []
    train_steps = 0
    for episode in range(1, cfg.episodes + 1):
        eps = epsilon_at(cfg, episode)
        lr = lr_at(cfg.lr_schedule(), episode)
        if cfg.clear_replay_per_episode:
            buffer.clear()
        obs = env.reset()
        done = False
        while not done:
            actions = [
                epsilon_greedy(heads[k].values(obs[k]), eps, rng_explore)
                for k in range(2)
            ]
            step = env.step(actions)
            buffer.add(
                obs[0], actions[0], step.reward, step.observations[0],
                obs[1], actions[1], step.observations[1], step.done,
            )
            obs = step.observations
            done = step.done
            acc.add(step, episode)
            if len(buffer) >= cfg.batch_size:
                batch = buffer.sample(cfg.batch_size, rng_sample)
                heads[0].update(
                    batch.obs_lead, batch.act_lead, batch.reward,
                    batch.next_obs_lead, batch.done, lr,
                )
                heads[1].update(
                    batch.obs_follow, batch.act_follow, batch.reward,
                    batch.next_obs_follow, batch.done, lr,
                )
                train_steps += 1
                if train_steps % cfg.target_sync == 0:
                    heads[0].sync()
                    heads[1].sync()
        if avg_period is not None and episode % avg_period == 0:
            avg_main = fedavg([h.net for h in heads])
            avg_target = fedavg([h.target for h in heads])
            for h in heads:
                h.net = clone(avg_main)
                h.target = clone(avg_target)
        records.append(acc.finalize(episode, eps, lr))
    return heads, records


def train_independent(
    env, cfg: TrainerConfig, seed: int, ts_rows: Optional[list] = None
) -> tuple[list[_DdqnHead], list[EpisodeRecord]]:
    """Independent DDQN per vehicle; only the reward signal is common."""
    return _train_independent_core(env, cfg, seed, avg_period=None, ts_rows=ts_rows)


def train_fedavg(
    env,
    cfg: TrainerConfig,
    seed: int,
    avg_period: int = 5,
    ts_rows: Optional[list] = None,
) -> tuple[list[_DdqnHead], list[EpisodeRecord]]:
    """Independent learners with periodic federated averaging of their weights."""
    if avg_period < 1:
        raise ValueError("avg_period must be >= 1")
    return _train_independent_core(env, cfg, seed, avg_period=avg_period, ts_rows=ts_rows)

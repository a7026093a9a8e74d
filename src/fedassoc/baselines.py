"""Comparison algorithms: centralized DDQN, independent DDQN pairs, and
independent learners with periodic federated weight averaging.

All three run the federated trainer's episode loop (`agents.Trainer`) with
its hyperparameters, so result files differ only by algorithm.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .agents import Trainer, TrainerConfig, compose_joint, decompose_joint, epsilon_greedy
from .nn import (
    DenseNet,
    GradientSet,
    backward,
    clone,
    copy_into_target,
    forward,
    init_net,
    sgd_step,
    td_loss,
    zero_grads,
)
from .replay import Batch


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
    dims = nets[0].dims
    if any(n.dims != dims for n in nets):
        raise ValueError("fedavg requires identical architectures")
    return DenseNet(dims, np.mean([n.params for n in nets], axis=0))


class _DdqnHead:
    """One DDQN learner: main net, frozen target, MSE update at taken actions."""

    def __init__(self, dims, rng_init: np.random.Generator, cfg: TrainerConfig):
        self.cfg = cfg
        self.net = init_net(dims, rng_init)
        self.target = clone(self.net)
        # Made at the first update and rewritten by every later one; fedavg
        # puts in nets of the same dims.
        self.grads: Optional[GradientSet] = None

    def values(self, obs: np.ndarray) -> np.ndarray:
        """Q-values of one observation vector or of a stack of them, one per row."""
        out, _ = forward(self.net, obs, stack=True)
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
        pred, cache = forward(self.net, obs, actions)
        loss, d_pred = td_loss(pred, targets)
        if self.grads is None:
            self.grads = zero_grads(self.net)
        grads, _ = backward(self.net, cache, d_pred, actions, grads=self.grads)
        sgd_step([(self.net, grads)], lr, self.cfg.grad_clip)
        return loss

    def sync(self) -> None:
        copy_into_target(self.net, self.target)


class CentralizedTrainer(Trainer):
    """One DDQN over the concatenated observations and the joint action space.

    The replay keeps each vehicle's own action; updates compose the joint one.
    """

    def init_nets(self, rng_init: np.random.Generator) -> None:
        a = self.num_actions
        dims = (2 * self.env.obs_dim, *self.cfg.local_hidden, a * a)
        self.head = _DdqnHead(dims, rng_init, self.cfg)

    def select_actions(self, obs_vecs, eps: float, noise=None):
        values = self.head.values(np.concatenate(obs_vecs, axis=-1))
        return decompose_joint(epsilon_greedy(values, eps, self.rng_explore), self.num_actions)

    def update(self, batch: Batch, lr: float) -> None:
        self.head.update(
            np.hstack([batch.obs_lead, batch.obs_follow]),
            compose_joint(batch.act_lead, batch.act_follow, self.num_actions),
            batch.reward,
            np.hstack([batch.next_obs_lead, batch.next_obs_follow]),
            batch.done,
            lr,
        )

    def sync_targets(self) -> None:
        self.head.sync()


class IndependentTrainer(Trainer):
    """Two independent DDQNs on the shared reward (imarl)."""

    def init_nets(self, rng_init: np.random.Generator) -> None:
        dims = (self.env.obs_dim, *self.cfg.local_hidden, self.num_actions)
        self.heads = [_DdqnHead(dims, rng_init, self.cfg) for _ in range(2)]

    def select_actions(self, obs_vecs, eps: float, noise=None):
        return tuple(
            epsilon_greedy(head.values(obs), eps, self.rng_explore)
            for head, obs in zip(self.heads, obs_vecs)
        )

    def update(self, batch: Batch, lr: float) -> None:
        lead, follow = self.heads
        lead.update(
            batch.obs_lead, batch.act_lead, batch.reward, batch.next_obs_lead, batch.done, lr
        )
        follow.update(
            batch.obs_follow, batch.act_follow, batch.reward, batch.next_obs_follow, batch.done, lr
        )

    def sync_targets(self) -> None:
        for head in self.heads:
            head.sync()


class FedAvgTrainer(IndependentTrainer):
    """Independent DDQNs whose main and target networks are replaced by their
    elementwise means every `cfg.fedavg_period` episodes (fmarl-avg)."""

    def end_episode(self) -> None:
        if self.episode % self.cfg.fedavg_period:
            return
        avg_main = fedavg([h.net for h in self.heads])
        avg_target = fedavg([h.target for h in self.heads])
        for h in self.heads:
            h.net = clone(avg_main)
            h.target = clone(avg_target)

"""Comparison algorithms: centralized DDQN (cdrl), independent DDQN pairs
(imarl) and independent learners with periodic federated weight averaging
(fmarl-avg), each a `DdqnTrainer` that declares only its table of sides.

All three run the federated trainer's episode loop (`agents.Trainer`) with
its hyperparameters, so result files differ only by algorithm.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .agents import (Trainer, TrainerConfig, bootstrap, compose_joint, decompose_joint,
                     epsilon_greedy, td_step)
# Unused here: perfbench's tracer test reads `baselines.backward`.
from .nn import DenseNet, backward, forward  # noqa: F401
from .replay import Batch

# The vehicles in the order of `select_actions`' observations and actions.
VEHICLES = ("lead", "follow")


def ddqn_target(reward: np.ndarray, next_obs: np.ndarray, main: DenseNet, target: DenseNet,
                discount: float, done: np.ndarray) -> np.ndarray:
    """Double-DQN bootstrap: target values read at the main net's argmax."""
    if main.dims != target.dims:
        raise ValueError("main and target architectures differ")
    q_main, _ = forward(main, next_obs)
    q_target, _ = forward(target, next_obs)
    return bootstrap(reward, done, discount, q_main, q_target)


def fedavg(nets: list[DenseNet]) -> DenseNet:
    """Elementwise arithmetic mean of identically shaped networks."""
    if not nets:
        raise ValueError("fedavg needs at least one network")
    dims = nets[0].dims
    if any(n.dims != dims for n in nets):
        raise ValueError("fedavg requires identical architectures")
    return DenseNet(dims, np.mean([n.params for n in nets], axis=0))


class _DdqnHead:
    """One DDQN learner on a trainer's nets `<name>` and `<name>_target`: MSE
    update at taken actions, into the trainer's gradient buffer of `<name>`.

    The head keeps the trainer's config, nets and buffers, not the trainer,
    so that a trainer dropped is freed at once, with its replay."""

    def __init__(self, trainer: Trainer, name: str):
        self.cfg = trainer.cfg
        self.name = name
        self.net = trainer.nets[name]
        self.target = trainer.nets[f"{name}_target"]
        self.grads = trainer.grads

    def update(self, obs: np.ndarray, actions: np.ndarray, rewards: np.ndarray,
               next_obs: np.ndarray, done: np.ndarray, lr: float) -> float:
        targets = ddqn_target(rewards, next_obs, self.net, self.target, self.cfg.discount, done)
        return td_step(self.net, self.grads[self.name], obs, actions, targets, lr,
                       self.cfg.grad_clip)


class DdqnTrainer(Trainer):
    """One DDQN head on the shared reward per side. A subclass sets `algo` and
    `sides`, a dict that maps each head's net name to the tuple of vehicles it
    acts for. A head reads their observations side by side and scores their
    joint actions (`compose_joint`, the first vehicle most significant); the
    replay keeps each vehicle's own action."""

    @classmethod
    def net_dims(cls, env, cfg: TrainerConfig) -> dict[str, tuple[int, ...]]:
        a, dims = env.num_actions, {}
        for name, vehicles in cls.sides.items():
            k = len(vehicles)
            dims[name] = dims[f"{name}_target"] = (k * env.obs_dim, *cfg.local_hidden, a**k)
        return dims

    def init_nets(self) -> None:
        self.heads = [_DdqnHead(self, name) for name in self.sides]

    def select_actions(self, obs_vecs, eps: float, noise=None):
        """One epsilon-greedy draw per side, in `sides` order."""
        obs, actions = dict(zip(VEHICLES, obs_vecs)), {}
        for head, vehicles in zip(self.heads, self.sides.values()):
            x = np.concatenate([obs[v] for v in vehicles], axis=-1)
            values, _ = forward(head.net, x, stack=True)
            joint = epsilon_greedy(values, eps, self.rng_explore)
            # A side has one or two vehicles: a lone one's index is the split's low digit.
            actions.update(zip(vehicles, decompose_joint(joint, self.num_actions)[-len(vehicles):]))
        return tuple(actions[v] for v in VEHICLES)

    def update(self, batch: Batch, lr: float) -> tuple[float, ...]:
        """One `_DdqnHead.update` per side, in `sides` order; returns their losses."""
        losses = []
        for head, vehicles in zip(self.heads, self.sides.values()):
            obs, acts, next_obs = ([getattr(batch, f"{key}_{v}") for v in vehicles]
                                   for key in ("obs", "act", "next_obs"))
            joint = reduce(lambda own, peer: compose_joint(own, peer, self.num_actions), acts)
            losses.append(head.update(np.concatenate(obs, axis=1), joint, batch.reward,
                                      np.concatenate(next_obs, axis=1), batch.done, lr))
        return tuple(losses)


class CentralizedTrainer(DdqnTrainer):
    """One DDQN over the concatenated observations and the joint action space (cdrl)."""

    algo = "cdrl"
    sides = {"head": ("lead", "follow")}


class IndependentTrainer(DdqnTrainer):
    """Two independent DDQNs on the shared reward (imarl)."""

    algo = "imarl"
    sides = {"lead": ("lead",), "follow": ("follow",)}


class FedAvgTrainer(IndependentTrainer):
    """Independent DDQNs whose main and target networks are overwritten by
    their elementwise means every `cfg.fedavg_period` episodes (fmarl-avg)."""

    algo = "fmarl-avg"

    def end_episode(self) -> None:
        if self.episode % self.cfg.fedavg_period:
            return
        for suffix in ("", "_target"):
            nets = [self.nets[name + suffix] for name in self.sides]
            average = fedavg(nets)
            for net in nets:
                net.params[...] = average.params

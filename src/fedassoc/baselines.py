"""Comparison algorithms: centralized DDQN, independent DDQN pairs, and
independent learners with periodic federated weight averaging.

All three run the federated trainer's episode loop (`agents.Trainer`) with
its hyperparameters, so result files differ only by algorithm.
"""

from __future__ import annotations

import numpy as np

from .agents import (Trainer, TrainerConfig, bootstrap, compose_joint, decompose_joint,
                     epsilon_greedy, td_step)
# Unused here: perfbench's tracer test reads `baselines.backward`.
from .nn import DenseNet, backward, forward  # noqa: F401
from .replay import Batch


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

    def values(self, obs: np.ndarray) -> np.ndarray:
        """Q-values of one observation vector or of a stack of them, one per row."""
        out, _ = forward(self.net, obs, stack=True)
        return out

    def update(self, obs: np.ndarray, actions: np.ndarray, rewards: np.ndarray,
               next_obs: np.ndarray, done: np.ndarray, lr: float) -> float:
        targets = ddqn_target(rewards, next_obs, self.net, self.target, self.cfg.discount, done)
        return td_step(self.net, self.grads[self.name], obs, actions, targets, lr,
                       self.cfg.grad_clip)


class CentralizedTrainer(Trainer):
    """One DDQN over the concatenated observations and the joint action space.

    The replay keeps each vehicle's own action; updates compose the joint one.
    """

    algo = "cdrl"

    @classmethod
    def net_dims(cls, env, cfg: TrainerConfig) -> dict[str, tuple[int, ...]]:
        a = env.num_actions
        dims = (2 * env.obs_dim, *cfg.local_hidden, a * a)
        return {"head": dims, "head_target": dims}

    def init_nets(self) -> None:
        self.head = _DdqnHead(self, "head")

    def select_actions(self, obs_vecs, eps: float, noise=None):
        values = self.head.values(np.concatenate(obs_vecs, axis=-1))
        return decompose_joint(epsilon_greedy(values, eps, self.rng_explore), self.num_actions)

    def update(self, batch: Batch, lr: float) -> float:
        obs = np.hstack([batch.obs_lead, batch.obs_follow])
        joint = compose_joint(batch.act_lead, batch.act_follow, self.num_actions)
        next_obs = np.hstack([batch.next_obs_lead, batch.next_obs_follow])
        return self.head.update(obs, joint, batch.reward, next_obs, batch.done, lr)


class IndependentTrainer(Trainer):
    """Two independent DDQNs on the shared reward (imarl)."""

    algo = "imarl"
    # The vehicle of each head, in `heads` order.
    _SIDES = ("lead", "follow")

    @classmethod
    def net_dims(cls, env, cfg: TrainerConfig) -> dict[str, tuple[int, ...]]:
        dims = (env.obs_dim, *cfg.local_hidden, env.num_actions)
        return {name: dims for side in cls._SIDES for name in (side, f"{side}_target")}

    def init_nets(self) -> None:
        self.heads = [_DdqnHead(self, side) for side in self._SIDES]

    def select_actions(self, obs_vecs, eps: float, noise=None):
        return tuple(
            epsilon_greedy(head.values(obs), eps, self.rng_explore)
            for head, obs in zip(self.heads, obs_vecs)
        )

    def update(self, batch: Batch, lr: float) -> tuple[float, float]:
        return tuple(
            head.update(getattr(batch, f"obs_{side}"), getattr(batch, f"act_{side}"), batch.reward,
                        getattr(batch, f"next_obs_{side}"), batch.done, lr)
            for head, side in zip(self.heads, self._SIDES)
        )


class FedAvgTrainer(IndependentTrainer):
    """Independent DDQNs whose main and target networks are overwritten by
    their elementwise means every `cfg.fedavg_period` episodes (fmarl-avg)."""

    algo = "fmarl-avg"

    def end_episode(self) -> None:
        if self.episode % self.cfg.fedavg_period:
            return
        for suffix in ("", "_target"):
            nets = [self.nets[side + suffix] for side in self._SIDES]
            average = fedavg(nets)
            for net in nets:
                net.params[...] = average.params

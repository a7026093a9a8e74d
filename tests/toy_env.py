"""Single-step toy environment with an enumerable joint reward table.

Each episode is one TS: both agents act on fixed observations and the reward
is read from a table indexed by the joint action, so the best joint action is
known by enumeration.
"""

import copy

import numpy as np

from fedassoc.agents import TrainerConfig
from fedassoc.env import StepResult


class ToyEnv:
    def __init__(self, reward_table, obs_dim: int = 4, seed: int = 0):
        self.table = np.asarray(reward_table, dtype=float)
        if self.table.ndim != 2 or self.table.shape[0] != self.table.shape[1]:
            raise ValueError("reward table must be square")
        self.num_agents = 2
        self.num_actions = self.table.shape[0]
        self.obs_dim = obs_dim
        self.horizon = 1
        rng = np.random.default_rng(seed)
        self._obs = [rng.random(obs_dim), rng.random(obs_dim)]

    def best_joint(self) -> tuple[int, int]:
        flat = int(np.argmax(self.table))
        return flat // self.num_actions, flat % self.num_actions

    def reset(self):
        """Start an episode; `episode`, a block of one, keeps its steps."""
        self.steps = []
        self.episode = [self]
        return [o.copy() for o in self._obs]

    def step(self, actions):
        a0, a1 = (int(a) for a in actions)
        self.steps.append((float(self.table[a0, a1]), True))
        return [o.copy() for o in self._obs], *self.steps[-1]

    def reset_block(self, n):
        """`EdgeAssocEnv.reset_block` on n copies of this env, which are the
        block; each copy keeps the results of its steps."""
        envs = [copy.copy(self) for _ in range(n)]
        first_obs = [env.reset() for env in envs]
        return envs, [np.array(obs) for obs in zip(*first_obs)]

    def step_block(self, envs, actions):
        """`EdgeAssocEnv.step_block`'s next observations, by one `step` per env."""
        next_obs = [env.step(acts)[0] for env, acts in zip(envs, zip(*actions))]
        return [np.array(obs) for obs in zip(*next_obs)]

    def score_block(self, envs):
        """`EdgeAssocEnv.score_block`'s result from the steps the envs kept:
        both vehicles' utility is the reward, and nothing is violated."""
        reward, done = (np.array(column).T for column in zip(*(zip(*env.steps) for env in envs)))
        zeros = np.zeros((self.num_agents, *reward.shape))
        return StepResult(
            reward=reward,
            utilities=np.stack([reward] * self.num_agents),
            rates=zeros,
            ho_flags=zeros.astype(int),
            tx_powers_w=zeros,
            assoc_rsus=np.full(zeros.shape, -1),
            violations=np.zeros(reward.shape, dtype=int),
            penalty=np.zeros(reward.shape),
            done=done,
        )


def separable_table(num_actions: int, seed: int) -> np.ndarray:
    """Additive reward table: the joint argmax is also each agent's marginal
    argmax, so independent learners can recover it exactly."""
    rng = np.random.default_rng(seed)
    row = rng.uniform(0.0, 1.0, num_actions)
    col = rng.uniform(0.0, 1.0, num_actions)
    return row[:, None] + col[None, :]


def toy_trainer_cfg(**overrides) -> TrainerConfig:
    """Annealed-exploration settings that solve the toy reliably and fast."""
    cfg = dict(
        episodes=800, batch_size=32, replay_capacity=2048, local_hidden=(32,),
        mlp_hidden=(32,), discount=0.0, share_noise_std=0.0,
        epsilon=1.0, epsilon_end=0.05, epsilon_decay_episodes=600,
        lr_start=0.05, lr_end=0.01, lr_decay_episodes=600, target_sync=25,
    )
    cfg.update(overrides)
    return TrainerConfig(**cfg)

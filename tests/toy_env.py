"""Single-step toy environment with an enumerable joint reward table.

Each episode is one TS: both agents act on fixed observations and the reward
is read from a table indexed by the joint action, so the best joint action is
known by enumeration.
"""

import copy
from dataclasses import fields

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
        return [o.copy() for o in self._obs]

    def step(self, actions):
        a0, a1 = (int(a) for a in actions)
        r = float(self.table[a0, a1])
        return StepResult(
            reward=r,
            utilities=[r, r],
            rates=[0.0, 0.0],
            ho_flags=[0, 0],
            tx_powers_w=[0.0, 0.0],
            assoc_rsus=[-1, -1],
            violations=0,
            penalty=0.0,
            observations=[o.copy() for o in self._obs],
            done=True,
        )

    def reset_block(self, n):
        """`EdgeAssocEnv.reset_block` on n copies of this env, which are the
        block; each copy keeps the results of its steps."""
        envs = [copy.copy(self) for _ in range(n)]
        first_obs = [env.reset() for env in envs]
        for env in envs:
            env.steps = []
        return envs, [np.array(obs) for obs in zip(*first_obs)]

    def step_block(self, envs, actions):
        """`EdgeAssocEnv.step_block`'s next observations, by one `step` per env."""
        for env, acts in zip(envs, zip(*actions)):
            env.steps.append(env.step(acts))
        return stack_steps([env.steps[-1] for env in envs]).observations

    def score_block(self, envs):
        """`EdgeAssocEnv.score_block`'s result, from the steps the envs kept."""
        return stack_ts([stack_steps(ts_steps) for ts_steps in zip(*(env.steps for env in envs))])


def stack_steps(steps) -> StepResult:
    """The block StepResult of one StepResult per episode."""
    def per_vehicle(name):
        return np.array([getattr(step, name) for step in steps]).T

    def per_episode(name):
        return np.array([getattr(step, name) for step in steps])

    return StepResult(
        reward=per_episode("reward"),
        utilities=per_vehicle("utilities"),
        rates=per_vehicle("rates"),
        ho_flags=per_vehicle("ho_flags"),
        tx_powers_w=per_vehicle("tx_powers_w"),
        assoc_rsus=per_vehicle("assoc_rsus"),
        violations=per_episode("violations"),
        penalty=np.array([step.penalty for step in steps], dtype=float),
        observations=np.array([step.observations for step in steps]).transpose(1, 0, 2),
        done=per_episode("done"),
    )


def stack_ts(blocks) -> StepResult:
    """The `score_block` result of one block StepResult per TS: the TS axis
    follows the vehicle axis of per-vehicle fields and leads the others."""
    per_episode = ("reward", "violations", "penalty", "done")
    return StepResult(**{
        f.name: np.stack(
            [getattr(block, f.name) for block in blocks], axis=0 if f.name in per_episode else 1
        )
        for f in fields(StepResult)
    })


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

"""Ring-buffer experience replay for an agent pair.

Both agents' views of each TS are stored in one slot so that sampled
minibatches stay time-aligned across agents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Batch:
    """One sampled minibatch, arrays indexed the same way on both sides."""

    obs_lead: np.ndarray       # (N, obs_dim)
    act_lead: np.ndarray       # (N,)
    reward: np.ndarray         # (N,)
    next_obs_lead: np.ndarray  # (N, obs_dim)
    obs_follow: np.ndarray
    act_follow: np.ndarray
    next_obs_follow: np.ndarray
    done: np.ndarray           # (N,) float 0/1


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform with-replacement sampling."""

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._obs_lead = np.zeros((capacity, obs_dim))
        self._act_lead = np.zeros(capacity, dtype=np.int64)
        self._reward = np.zeros(capacity)
        self._next_obs_lead = np.zeros((capacity, obs_dim))
        self._obs_follow = np.zeros((capacity, obs_dim))
        self._act_follow = np.zeros(capacity, dtype=np.int64)
        self._next_obs_follow = np.zeros((capacity, obs_dim))
        self._done = np.zeros(capacity)
        self.size = 0
        self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def add(
        self,
        obs_lead: np.ndarray,
        act_lead: int,
        reward: float,
        next_obs_lead: np.ndarray,
        obs_follow: np.ndarray,
        act_follow: int,
        next_obs_follow: np.ndarray,
        done: bool,
    ) -> None:
        i = self.cursor
        self._obs_lead[i] = obs_lead
        self._act_lead[i] = act_lead
        self._reward[i] = reward
        self._next_obs_lead[i] = next_obs_lead
        self._obs_follow[i] = obs_follow
        self._act_follow[i] = act_follow
        self._next_obs_follow[i] = next_obs_follow
        self._done[i] = float(done)
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=batch_size)
        return Batch(
            obs_lead=self._obs_lead[idx],
            act_lead=self._act_lead[idx],
            reward=self._reward[idx],
            next_obs_lead=self._next_obs_lead[idx],
            obs_follow=self._obs_follow[idx],
            act_follow=self._act_follow[idx],
            next_obs_follow=self._next_obs_follow[idx],
            done=self._done[idx],
        )

    # -- checkpoint support --------------------------------------------------

    def state_arrays(self) -> dict:
        return {
            "obs_lead": self._obs_lead,
            "act_lead": self._act_lead,
            "reward": self._reward,
            "next_obs_lead": self._next_obs_lead,
            "obs_follow": self._obs_follow,
            "act_follow": self._act_follow,
            "next_obs_follow": self._next_obs_follow,
            "done": self._done,
            "meta": np.array([self.size, self.cursor, self.capacity], dtype=np.int64),
        }

    @classmethod
    def from_state_arrays(cls, arrays: dict) -> "ReplayBuffer":
        size, cursor, capacity = (int(v) for v in arrays["meta"])
        buf = cls(capacity, arrays["obs_lead"].shape[1])
        buf._obs_lead[...] = arrays["obs_lead"]
        buf._act_lead[...] = arrays["act_lead"]
        buf._reward[...] = arrays["reward"]
        buf._next_obs_lead[...] = arrays["next_obs_lead"]
        buf._obs_follow[...] = arrays["obs_follow"]
        buf._act_follow[...] = arrays["act_follow"]
        buf._next_obs_follow[...] = arrays["next_obs_follow"]
        buf._done[...] = arrays["done"]
        buf.size = size
        buf.cursor = cursor
        return buf

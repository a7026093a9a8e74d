"""Federated two-agent Q-learning with noise-protected Q-value sharing.

One agent of the pair (the "lead") receives the shared reward signal and
computes the training targets; the other (the "follower") never sees the
reward and learns only through the targets, shared network weights of the
joint head, and the noisy Q-vectors exchanged between the two sides.

Both agents run a local Q-network over their own observation. A shared joint
head maps [own Q-vector || peer noisy Q-vector] to values of joint actions;
action selection is epsilon-greedy over that joint output on the lead side,
and the chosen joint action is split between the two agents for execution.

Two sharing modes exist. In the default "vector" mode the full noisy
Q-vector is exchanged and the joint head scores all |A|^2 joint actions. In
the "scalar" mode only the noisy Q-value of the follower's own epsilon-greedy
pick is shared; the joint head then scores the lead's |A| actions with the
follower's action fixed to its own pick.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .metrics import EpisodeRecord, MetricAccumulator
from .nn import (
    DenseNet,
    LrSchedule,
    backward,
    clone,
    copy_into_target,
    forward,
    init_net,
    load_net,
    lr_at,
    save_net,
    sgd_step,
)
from .replay import Batch, ReplayBuffer


@dataclass
class TrainerConfig:
    """Learning hyperparameters shared by the federated trainer and baselines."""

    discount: float = 0.9
    epsilon: float = 0.1
    epsilon_end: Optional[float] = None      # None keeps epsilon constant
    epsilon_decay_episodes: int = 1
    batch_size: int = 32
    share_noise_std: float = 1.0             # sigma of the sharing noise; 0 is noiseless
    replay_capacity: int = 20000
    target_sync: int = 200                   # training steps between target copies
    episodes: int = 500
    local_hidden: tuple[int, ...] = (80, 80, 80)
    mlp_hidden: tuple[int, ...] = (80, 80)
    lr_start: float = 0.01
    lr_end: float = 0.001
    lr_decay_episodes: int = 250
    grad_clip: float = 10.0
    share_mode: str = "vector"               # "vector" or "scalar"

    def validate(self) -> None:
        require_integers(self, (
            "epsilon_decay_episodes", "batch_size", "replay_capacity", "target_sync",
            "episodes", "lr_decay_episodes",
        ))
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.epsilon_end is not None and not 0.0 <= self.epsilon_end <= 1.0:
            raise ValueError("epsilon_end must be in [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.share_noise_std < 0.0:
            raise ValueError("share_noise_std must be >= 0")
        if self.replay_capacity < self.batch_size:
            raise ValueError("replay_capacity must be >= batch_size")
        if self.target_sync < 1:
            raise ValueError("target_sync must be >= 1")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if not self.grad_clip > 0.0:
            raise ValueError("grad_clip must be > 0 (inf disables clipping)")
        if self.share_mode not in ("vector", "scalar"):
            raise ValueError("share_mode must be 'vector' or 'scalar'")
        LrSchedule(self.lr_start, self.lr_end, self.lr_decay_episodes)

    def lr_schedule(self) -> LrSchedule:
        return LrSchedule(self.lr_start, self.lr_end, self.lr_decay_episodes)


# Options earlier versions accepted, with what takes their place.
REMOVED_OPTIONS = {
    "encrypt": "was removed; share_noise_std: 0 is the noiseless setting",
    "clear_replay_per_episode": "was removed; the replay buffer persists across episodes",
}


def require_integers(obj, names) -> None:
    """Reject fields of `obj` that are not integers, bools and 2.0 included."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def reject_removed_options(keys) -> None:
    for key in keys:
        if key in REMOVED_OPTIONS:
            raise ValueError(f"option {key!r} {REMOVED_OPTIONS[key]}")


def epsilon_at(cfg: TrainerConfig, episode: int) -> float:
    if cfg.epsilon_end is None:
        return cfg.epsilon
    if cfg.epsilon_decay_episodes <= 1:
        return cfg.epsilon if episode <= 1 else cfg.epsilon_end
    frac = min(1.0, (episode - 1) / (cfg.epsilon_decay_episodes - 1))
    return cfg.epsilon + (cfg.epsilon_end - cfg.epsilon) * frac


# --------------------------------------------------------------------------
# Sharing and selection primitives
# --------------------------------------------------------------------------

def encrypt_q(q: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add elementwise zero-mean Gaussian noise; sigma 0 is an exact copy."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    q = np.asarray(q, dtype=float)
    if sigma == 0.0:
        return q.copy()
    return q + rng.normal(0.0, sigma, q.shape)


def epsilon_greedy(values: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    """Uniform action with probability eps, else the lowest-index argmax."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must be in [0, 1]")
    if eps > 0.0 and rng.random() < eps:
        return int(rng.integers(len(values)))
    return int(np.argmax(values))


def compose_joint(own: int, peer: int, num_actions: int) -> int:
    return own * num_actions + peer


def decompose_joint(joint: int, num_actions: int) -> tuple[int, int]:
    if not 0 <= joint < num_actions * num_actions:
        raise ValueError(f"joint index {joint} out of range")
    return joint // num_actions, joint % num_actions


def joint_q(mlp: DenseNet, own_q: np.ndarray, peer_q: np.ndarray) -> np.ndarray:
    """Score joint actions from the concatenated [own || peer] Q inputs."""
    out, _ = forward(mlp, np.concatenate([np.atleast_1d(own_q), np.atleast_1d(peer_q)]))
    return out


# --------------------------------------------------------------------------
# The episode protocol shared by every algorithm
# --------------------------------------------------------------------------

class Trainer:
    """The episode loop every algorithm runs, so their results compare fairly.

    Each TS: epsilon-greedy actions, one environment step, one replay row
    holding both vehicles' views and, once the buffer holds a batch, one
    sampled `update` and a target sync every `target_sync` updates. Epsilon
    and the learning rate follow their episode schedules. Subclasses define
    `init_nets`, `select_actions`, `update` and `sync_targets`, and may hook
    `end_episode`.

    The seed spawns four streams: network init, exploration, replay sampling
    and sharing noise (drawn only by the federated pair).
    """

    def __init__(self, env, cfg: TrainerConfig, seed: int):
        cfg.validate()
        if env.num_agents != 2:
            raise ValueError(f"{type(self).__name__} drives exactly two agents")
        self.env = env
        self.cfg = cfg
        self.num_actions = env.num_actions
        init_ss, explore_ss, sample_ss, noise_ss = np.random.SeedSequence(seed).spawn(4)
        self.rng_explore = np.random.default_rng(explore_ss)
        self.rng_sample = np.random.default_rng(sample_ss)
        self.rng_noise = np.random.default_rng(noise_ss)
        self.init_nets(np.random.default_rng(init_ss))
        self.buffer = ReplayBuffer(cfg.replay_capacity, env.obs_dim)
        self.train_steps = 0
        self.episode = 0

    def init_nets(self, rng_init: np.random.Generator) -> None:
        raise NotImplementedError

    def select_actions(self, obs_vecs, eps: float) -> tuple[int, int]:
        raise NotImplementedError

    def update(self, batch: Batch, lr: float) -> None:
        raise NotImplementedError

    def sync_targets(self) -> None:
        raise NotImplementedError

    def end_episode(self) -> None:
        """Runs after every training episode."""

    def run(
        self, episodes: Optional[int] = None, ts_rows: Optional[list] = None
    ) -> list[EpisodeRecord]:
        episodes = self.cfg.episodes if episodes is None else episodes
        acc = MetricAccumulator(self.env.num_agents, self.env.cfg.penalty, ts_rows)
        records = []
        for _ in range(episodes):
            self.episode += 1
            eps = epsilon_at(self.cfg, self.episode)
            lr = lr_at(self.cfg.lr_schedule(), self.episode)
            obs = self.env.reset()
            done = False
            while not done:
                act_lead, act_follow = self.select_actions(obs, eps)
                step = self.env.step([act_lead, act_follow])
                self.buffer.add(
                    obs[0], act_lead, step.reward, step.observations[0],
                    obs[1], act_follow, step.observations[1], step.done,
                )
                obs = step.observations
                done = step.done
                acc.add(step, self.episode)
                if len(self.buffer) >= self.cfg.batch_size:
                    self.update(self.buffer.sample(self.cfg.batch_size, self.rng_sample), lr)
                    self.train_steps += 1
                    if self.train_steps % self.cfg.target_sync == 0:
                        self.sync_targets()
            self.end_episode()
            records.append(acc.finalize(self.episode, eps, lr))
        return records

    def evaluate(self, episodes: int, ts_rows: Optional[list] = None) -> list[EpisodeRecord]:
        """Greedy rollouts without learning; the federated pair still adds noise."""
        acc = MetricAccumulator(self.env.num_agents, self.env.cfg.penalty, ts_rows)
        records = []
        for ep in range(1, episodes + 1):
            obs = self.env.reset()
            done = False
            while not done:
                step = self.env.step(self.select_actions(obs, 0.0))
                obs = step.observations
                done = step.done
                acc.add(step, ep)
            records.append(acc.finalize(ep, 0.0, 0.0))
        return records


# --------------------------------------------------------------------------
# The federated agent pair
# --------------------------------------------------------------------------

@dataclass
class FederatedAgentPair:
    """The five networks of one trained pair."""

    lead: DenseNet
    lead_target: DenseNet
    follow: DenseNet
    mlp: DenseNet
    mlp_target: DenseNet


class FederatedTrainer(Trainer):
    """The federated agent pair on the shared episode loop.

    The per-TS update order is fixed: targets are computed on the lead side
    with the target networks, the lead's local net and the joint head update
    first, then the follower updates against the same targets with the lead's
    freshly shared noisy Q-values. Gradients never cross the sharing boundary:
    the peer's noisy Q-input is a constant in each side's loss.
    """

    def init_nets(self, rng_init: np.random.Generator) -> None:
        a = self.num_actions
        vector = self.cfg.share_mode == "vector"
        local_dims = (self.env.obs_dim, *self.cfg.local_hidden, a)
        mlp_dims = (a + (a if vector else 1), *self.cfg.mlp_hidden, a * a if vector else a)
        lead = init_net(local_dims, rng_init)
        follow = init_net(local_dims, rng_init)
        mlp = init_net(mlp_dims, rng_init)
        self.pair = FederatedAgentPair(
            lead=lead,
            lead_target=clone(lead),
            follow=follow,
            mlp=mlp,
            mlp_target=clone(mlp),
        )

    def _share(self, q: np.ndarray) -> np.ndarray:
        return encrypt_q(q, self.cfg.share_noise_std, self.rng_noise)

    # -- action selection -------------------------------------------------------

    def select_actions(self, obs_vecs, eps: float) -> tuple[int, int]:
        q_lead, _ = forward(self.pair.lead, obs_vecs[0])
        q_follow, _ = forward(self.pair.follow, obs_vecs[1])
        if self.cfg.share_mode == "vector":
            shared = self._share(q_follow)
            values = joint_q(self.pair.mlp, q_lead, shared)
            joint = epsilon_greedy(values, eps, self.rng_explore)
            return decompose_joint(joint, self.num_actions)
        # Scalar mode: the follower picks its own action and shares only its
        # noisy value; the joint head scores the lead's actions.
        act_follow = epsilon_greedy(q_follow, eps, self.rng_explore)
        shared = self._share(q_follow[act_follow : act_follow + 1])
        values = joint_q(self.pair.mlp, q_lead, shared)
        act_lead = epsilon_greedy(values, eps, self.rng_explore)
        return act_lead, act_follow

    # -- training mathematics ----------------------------------------------------

    def compute_targets(self, batch: Batch) -> np.ndarray:
        """Bootstrapped targets from the lead-side target networks.

        The follower's next-state Q-values come from its main network with
        fresh sharing noise; terminal transitions keep the bare reward.
        """
        q_lead_next, _ = forward(self.pair.lead_target, batch.next_obs_lead)
        q_follow_next, _ = forward(self.pair.follow, batch.next_obs_follow)
        if self.cfg.share_mode == "vector":
            peer = self._share(q_follow_next)
        else:
            peer = self._share(q_follow_next.max(axis=1))[:, None]
        joint, _ = forward(self.pair.mlp_target, np.hstack([q_lead_next, peer]))
        best = joint.max(axis=1)
        return batch.reward + self.cfg.discount * best * (1.0 - batch.done)

    def _side_grads(self, batch: Batch, targets: np.ndarray, lead_side: bool, follow_fwd=None):
        """Loss and gradients of one side's update; peer inputs are constants.

        The joint head evaluates only the output the loss reads, the taken
        joint action. `follow_fwd` is `forward(self.pair.follow,
        batch.obs_follow)` of the current follower net; it is computed here
        when not given.
        """
        a = self.num_actions
        n = len(targets)
        if follow_fwd is None:
            follow_fwd = forward(self.pair.follow, batch.obs_follow)
        if lead_side:
            own_net, own_act, peer_act = self.pair.lead, batch.act_lead, batch.act_follow
            q_own, cache_own = forward(own_net, batch.obs_lead)
            q_peer = follow_fwd[0]
        else:
            own_net, own_act, peer_act = self.pair.follow, batch.act_follow, batch.act_lead
            q_own, cache_own = follow_fwd
            q_peer, _ = forward(self.pair.lead, batch.obs_lead)
        if self.cfg.share_mode == "vector":
            peer_in = self._share(q_peer)
            cols = own_act * a + peer_act
        else:
            peer_in = self._share(q_peer[np.arange(n), peer_act])[:, None]
            cols = own_act
        pred, cache_mlp = forward(self.pair.mlp, np.hstack([q_own, peer_in]), cols)
        err = pred - targets
        loss = float(np.mean(err * err))
        if not np.isfinite(loss):
            raise RuntimeError("non-finite training loss")
        g_mlp, d_in = backward(self.pair.mlp, cache_mlp, 2.0 * err / n, cols)
        g_own, _ = backward(own_net, cache_own, d_in[:, :a])
        return loss, g_own, g_mlp

    def train_step_lead(
        self, batch: Batch, targets: np.ndarray, lr: float, follow_fwd=None
    ) -> float:
        loss, g_lead, g_mlp = self._side_grads(
            batch, targets, lead_side=True, follow_fwd=follow_fwd
        )
        sgd_step([(self.pair.lead, g_lead), (self.pair.mlp, g_mlp)], lr, self.cfg.grad_clip)
        return loss

    def train_step_follow(
        self, batch: Batch, targets: np.ndarray, lr: float, follow_fwd=None
    ) -> float:
        loss, g_follow, g_mlp = self._side_grads(
            batch, targets, lead_side=False, follow_fwd=follow_fwd
        )
        sgd_step([(self.pair.follow, g_follow), (self.pair.mlp, g_mlp)], lr, self.cfg.grad_clip)
        return loss

    def train_step(self, batch: Batch, targets: np.ndarray, lr: float) -> tuple[float, float]:
        """The lead update, then the follower update, on one batch.

        The lead update leaves the follower net unchanged, so the follower's
        forward pass on `batch.obs_follow` is run once and serves both sides.
        Returns the (lead, follower) losses.
        """
        follow_fwd = forward(self.pair.follow, batch.obs_follow)
        loss_lead = self.train_step_lead(batch, targets, lr, follow_fwd)
        loss_follow = self.train_step_follow(batch, targets, lr, follow_fwd)
        return loss_lead, loss_follow

    def update(self, batch: Batch, lr: float) -> None:
        self.train_step(batch, self.compute_targets(batch), lr)

    def sync_targets(self) -> None:
        copy_into_target(self.pair.lead, self.pair.lead_target)
        copy_into_target(self.pair.mlp, self.pair.mlp_target)

    # -- checkpointing ---------------------------------------------------------------

    _NET_FILES = {
        "lead": "lead.net",
        "lead_target": "lead_target.net",
        "follow": "follow.net",
        "mlp": "mlp.net",
        "mlp_target": "mlp_target.net",
    }

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for attr, fname in self._NET_FILES.items():
            save_net(directory / fname, getattr(self.pair, attr))
        np.savez(directory / "replay.npz", **self.buffer.state_arrays())
        state = {
            "cfg": asdict(self.cfg),
            "episode": self.episode,
            "train_steps": self.train_steps,
            "rng_explore": self.rng_explore.bit_generator.state,
            "rng_sample": self.rng_sample.bit_generator.state,
            "rng_noise": self.rng_noise.bit_generator.state,
            "env_state": self.env.get_state() if hasattr(self.env, "get_state") else None,
        }
        with open(directory / "state.json", "w") as fh:
            json.dump(state, fh, indent=1)

    @classmethod
    def load(cls, directory, env) -> "FederatedTrainer":
        """Restore a saved trainer; a malformed `state.json` raises ValueError."""
        directory = Path(directory)
        path = directory / "state.json"
        try:
            state = json.loads(path.read_text())
            cfg_dict = dict(state["cfg"])
            reject_removed_options(cfg_dict)
            for key in ("local_hidden", "mlp_hidden"):
                cfg_dict[key] = tuple(cfg_dict[key])
            trainer = cls(env, TrainerConfig(**cfg_dict), seed=0)
            trainer.episode = int(state["episode"])
            trainer.train_steps = int(state["train_steps"])
            for name in ("rng_explore", "rng_sample", "rng_noise"):
                getattr(trainer, name).bit_generator.state = state[name]
            env_state = state["env_state"]
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
        for attr, fname in cls._NET_FILES.items():
            setattr(trainer.pair, attr, load_net(directory / fname))
        with np.load(directory / "replay.npz") as data:
            trainer.buffer = ReplayBuffer.from_state_arrays(dict(data))
        if env_state is not None and hasattr(env, "set_state"):
            env.set_state(env_state)
        return trainer

"""Federated two-agent Q-learning with noise-protected Q-value sharing.

One agent of the pair (the "lead") receives the shared reward signal and
computes the training targets; the other (the "follower") never sees the
reward and learns only through the targets, shared network weights of the
joint head, and the noisy Q-vectors exchanged between the two sides.

Both agents run a local Q-network over their own observation. A shared joint
head maps [own Q-vector || peer noisy Q-vector] to values of joint actions;
action selection is epsilon-greedy over that joint output on the lead side,
and the chosen joint action is split between the two agents for execution.
The follower's full noisy Q-vector is exchanged, and the joint head scores
all |A|^2 joint actions.
"""

from __future__ import annotations

import json
import zipfile
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .checks import check_fields, config_from_json, is_integer
from .metrics import EpisodeRecord, MetricAccumulator
from .nn import (
    DenseNet,
    backward,
    clone,
    copy_into_target,
    forward,
    init_net,
    linear_schedule,
    load_net,
    save_net,
    sgd_step,
    td_loss,
    zero_grads,
)
from .replay import BLOCK_BYTES, FIELDS, Batch, ReplayBuffer, row_blocks


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
    fedavg_period: int = 5                   # fmarl-avg's episodes between weight averages

    def validate(self) -> None:
        check_fields(self, infinite=("grad_clip",))
        for name in ("local_hidden", "mlp_hidden"):
            widths = list(getattr(self, name))
            if min(widths, default=1) < 1:
                raise ValueError(f"{name} must be a list of integers >= 1, got {widths}")
        for name in ("discount", "epsilon", "epsilon_end"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("batch_size", "target_sync", "episodes", "epsilon_decay_episodes",
                     "lr_decay_episodes", "fedavg_period"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.share_noise_std < 0.0:
            raise ValueError(f"share_noise_std must be >= 0, got {self.share_noise_std}")
        if self.replay_capacity < self.batch_size:
            raise ValueError(
                f"replay_capacity must be >= batch_size ({self.batch_size}), "
                f"got {self.replay_capacity}"
            )
        if not self.grad_clip > 0.0:
            raise ValueError(
                f"grad_clip must be > 0 (inf disables clipping), got {self.grad_clip}"
            )
        if not self.lr_start >= self.lr_end > 0:
            raise ValueError(
                f"need lr_start >= lr_end > 0, got lr_start {self.lr_start} "
                f"and lr_end {self.lr_end}"
            )


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


def epsilon_greedy(values: np.ndarray, eps: float, rng: np.random.Generator):
    """Uniform action with probability eps, else the lowest-index argmax.

    A (n, |A|) stack of values, one row per episode, gives an array of n
    greedy actions; a stack is only selected greedily (eps 0).
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must be in [0, 1]")
    if values.ndim == 2:
        if eps > 0.0:
            raise ValueError("a stack of values is selected greedily; eps must be 0")
        return values.argmax(axis=1)
    if eps > 0.0 and rng.random() < eps:
        return int(rng.integers(len(values)))
    return int(np.argmax(values))


def compose_joint(own: int, peer: int, num_actions: int) -> int:
    return own * num_actions + peer


def decompose_joint(joint, num_actions: int):
    """(own, peer) actions of a joint index, or arrays of them for an index array."""
    low, high = (joint.min(), joint.max()) if isinstance(joint, np.ndarray) else (joint, joint)
    if not 0 <= low <= high < num_actions * num_actions:
        raise ValueError(f"joint index {joint} out of range")
    return divmod(joint, num_actions)


def joint_q(mlp: DenseNet, own_q: np.ndarray, peer_q: np.ndarray) -> np.ndarray:
    """Score joint actions from the concatenated [own || peer] Q vectors.

    Takes one vector per side or a (n, .) stack per side, one row per episode.
    """
    out, _ = forward(mlp, np.concatenate((own_q, peer_q), axis=-1), stack=True)
    return out


# --------------------------------------------------------------------------
# The episode protocol shared by every algorithm
# --------------------------------------------------------------------------

# Greedy evaluation advances up to this many episodes together. For the
# default proposed pair (one core of a shared host, one BLAS thread) a greedy
# TS took, per episode and over three runs of the median of 15 calls,
# 111-135 µs of CPU in blocks of 1, 59-80 (2), 38-52 (4), 26-38 (8),
# 27-35 (10), 28-37 (16), 27-32 (32) and 26-32 (64). A block holds each
# episode's drawn rows, actions and sharing noise, and is scored at its end:
# about 72 KB per episode of the default world, 2.2 MB at 32 (`tracemalloc`).
# 64 would double that for no gain the runs above could tell apart.
EVAL_BLOCK = 32


class Trainer:
    """The episode loop every algorithm runs, so their results compare fairly.

    Each TS: epsilon-greedy actions, one environment step, one replay row
    holding both vehicles' views and, once the buffer holds a batch, one
    sampled `update` and a target sync every `target_sync` updates. Epsilon
    and the learning rate follow their episode schedules. Subclasses define
    `init_nets`, `select_actions`, `update` and `sync_targets`, and may hook
    `end_episode` and `share_noise`.

    The seed spawns four streams: network init, exploration, replay sampling
    and sharing noise (drawn only by the federated pair).

    Training steps an env by `reset` and `step`, which gives the next
    observations, the reward and done, one episode at a time; `evaluate` by
    its block calls alone, `reset_block(n)`, `step_block(block, actions)`
    once per TS. Either way an episode is scored once, after its last TS, by
    `score_block` on its block (`env.episode` for a training episode), and
    one `MetricAccumulator.add` gives its records. `EdgeAssocEnv` describes
    these calls: there every episode is drawn by `reset_block`, and `reset`
    starts a block of one. An env also names its episode length `horizon`.
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

    def select_actions(self, obs_vecs, eps: float, noise=None):
        """The (lead, follower) actions for the lead's and the follower's observations.

        Each is one vector, which gives two ints, or a (n, obs_dim) stack with
        one row per episode, which gives two int arrays. `noise`, one row per
        episode, is this TS's sharing noise as `share_noise` drew it; without
        it the federated pair draws its noise.
        """
        raise NotImplementedError

    def update(self, batch: Batch, lr: float) -> None:
        raise NotImplementedError

    def sync_targets(self) -> None:
        raise NotImplementedError

    def end_episode(self) -> None:
        """Runs after every training episode."""

    def share_noise(self, episodes: int, horizon: int) -> Optional[np.ndarray]:
        """The sharing noise of `episodes` greedy episodes of `horizon` TS, drawn
        at once as (episodes, horizon, values) in the order that one episode at a
        time would draw it, or None when nothing is drawn."""
        return None

    def run(
        self, episodes: Optional[int] = None, ts_rows: Optional[list] = None
    ) -> list[EpisodeRecord]:
        cfg = self.cfg
        episodes = cfg.episodes if episodes is None else episodes
        acc = MetricAccumulator(ts_rows)
        records = []
        # Overflow and invalid values warn nothing here: a diverging run ends in
        # one error, the RuntimeError of `td_loss` or the ValueError of `sgd_step`.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(episodes):
                self.episode += 1
                eps = cfg.epsilon if cfg.epsilon_end is None else linear_schedule(
                    cfg.epsilon, cfg.epsilon_end, cfg.epsilon_decay_episodes, self.episode
                )
                lr = linear_schedule(cfg.lr_start, cfg.lr_end, cfg.lr_decay_episodes, self.episode)
                obs = self.env.reset()
                done = False
                while not done:
                    act_lead, act_follow = self.select_actions(obs, eps)
                    next_obs, reward, done = self.env.step([act_lead, act_follow])
                    self.buffer.add(
                        obs_lead=obs[0], act_lead=act_lead, reward=reward,
                        next_obs_lead=next_obs[0], obs_follow=obs[1],
                        act_follow=act_follow, next_obs_follow=next_obs[1], done=done,
                    )
                    obs = next_obs
                    if len(self.buffer) >= cfg.batch_size:
                        self.update(self.buffer.sample(cfg.batch_size, self.rng_sample), lr)
                        self.train_steps += 1
                        if self.train_steps % cfg.target_sync == 0:
                            self.sync_targets()
                scored = self.env.score_block(self.env.episode)
                records.extend(acc.add(scored, self.episode, eps, lr))
                self.end_episode()
        return records

    def evaluate(self, episodes: int) -> list[EpisodeRecord]:
        """Greedy rollouts without learning; the federated pair still adds noise.

        The episodes run in blocks of up to `EVAL_BLOCK` that advance in
        lockstep; a lone episode is a block of one. A block starts its
        episodes in order (`env.reset_block`), then draws its sharing noise
        (`share_noise`). Each TS makes one `select_actions` call on the
        stacked observations and one `env.step_block`, which only takes the
        actions and gives the next observations. After the last TS one
        `env.score_block` scores the whole block, and one
        `MetricAccumulator.add` gives its records. Records and every random
        stream end as when the episodes run one at a time, bit for bit. The
        noise is drawn for episodes of `env.horizon` TS, so an episode that
        ends on another TS raises RuntimeError, naming its first TS, then its
        first episode.
        """
        horizon = self.env.horizon
        records = []
        acc = MetricAccumulator()
        for first in range(1, episodes + 1, EVAL_BLOCK):
            n = min(EVAL_BLOCK, episodes + 1 - first)
            block, obs = self.env.reset_block(n)
            noise = self.share_noise(n, horizon)
            for t in range(horizon):
                ts_noise = None if noise is None else noise[:, t, :]
                obs = self.env.step_block(block, self.select_actions(obs, 0.0, ts_noise))
            scored = self.env.score_block(block)
            off = np.argwhere(scored.done != (np.arange(horizon) == horizon - 1)[:, None])
            if len(off):
                t, i = off[0]
                raise RuntimeError(
                    f"greedy evaluation runs episodes of {horizon} TS (env.horizon), but "
                    f"episode {first + i} {'ended' if t < horizon - 1 else 'goes on'}"
                    f" at TS {t + 1}"
                )
            records.extend(acc.add(scored, first, 0.0, 0.0))
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


# A checkpoint holds each network of the pair as `<field>.net`.
_NET_NAMES = tuple(f.name for f in fields(FederatedAgentPair))


def _pair_dims(env, cfg: TrainerConfig) -> dict[str, tuple[int, ...]]:
    """The dims of each net of the pair on `env` under `cfg`, by field name."""
    a = env.num_actions
    local = (env.obs_dim, *cfg.local_hidden, a)
    mlp = (2 * a, *cfg.mlp_hidden, a * a)
    return {"lead": local, "lead_target": local, "follow": local, "mlp": mlp, "mlp_target": mlp}


class FederatedTrainer(Trainer):
    """The federated agent pair on the shared episode loop.

    The per-TS update order is fixed: targets are computed on the lead side
    with the target networks, the lead's local net and the joint head update
    first, then the follower updates against the same targets with the lead's
    freshly shared noisy Q-values. No gradient flows into the peer's local
    net: the peer's noisy Q-input is a constant in each side's loss.

    What crosses between the lead's side and the follower's, with w = |A|
    values per row:

    - per TS (`select_actions`), with noise: the follower's Q-vector. Without
      noise: the follower's action, which the lead picks;
    - per training step, with fresh noise: the follower's next-state values
      for the targets (`compute_targets`), the follower's values for the
      lead's update and the lead's values for the follower's (`_side_grads`),
      batch x w values each;
    - per training step, without noise: the batch's targets, lead to
      follower; the lead's actions of the batch, which index the joint
      output of the follower's update; and the joint head `pair.mlp`, which
      both sides step in turn, so its weights or its update cross twice. The
      follower's update carries its raw Q-rows.
    """

    def __init__(
        self, env, cfg: TrainerConfig, seed: int, pair: Optional[FederatedAgentPair] = None
    ):
        """`pair` gives the five nets, as `load` reads them; without it
        `init_nets` draws them from the seed's init stream."""
        self.pair = pair
        super().__init__(env, cfg, seed)

    def init_nets(self, rng_init: np.random.Generator) -> None:
        if self.pair is None:
            dims = _pair_dims(self.env, self.cfg)
            lead = init_net(dims["lead"], rng_init)
            follow = init_net(dims["follow"], rng_init)
            mlp = init_net(dims["mlp"], rng_init)
            self.pair = FederatedAgentPair(
                lead=lead,
                lead_target=clone(lead),
                follow=follow,
                mlp=mlp,
                mlp_target=clone(mlp),
            )
        # One gradient buffer per trained net, made at its first backward and
        # rewritten by each later one; `load` gives nets of the same dims.
        self.grads: dict[str, DenseNet] = {}

    def _grads(self, name: str) -> DenseNet:
        grads = self.grads.get(name)
        if grads is None:
            grads = self.grads[name] = zero_grads(getattr(self.pair, name))
        return grads

    def _share(self, q: np.ndarray, noise: Optional[np.ndarray] = None) -> np.ndarray:
        """Q-values as they cross to the peer: `q` plus `noise`, or plus fresh noise."""
        if noise is None:
            return encrypt_q(q, self.cfg.share_noise_std, self.rng_noise)
        return q + noise

    def share_noise(self, episodes: int, horizon: int) -> Optional[np.ndarray]:
        sigma = self.cfg.share_noise_std
        if sigma == 0.0:
            return None
        # encrypt_q's draws, one TS after the other: numpy fills an array in
        # C order from the stream, as it fills one TS's row.
        return self.rng_noise.normal(0.0, sigma, (episodes, horizon, self.num_actions))

    # -- action selection -------------------------------------------------------

    def select_actions(self, obs_vecs, eps: float, noise=None):
        q_lead, _ = forward(self.pair.lead, obs_vecs[0], stack=True)
        q_follow, _ = forward(self.pair.follow, obs_vecs[1], stack=True)
        values = joint_q(self.pair.mlp, q_lead, self._share(q_follow, noise))
        joint = epsilon_greedy(values, eps, self.rng_explore)
        return decompose_joint(joint, self.num_actions)

    # -- training mathematics ----------------------------------------------------

    def compute_targets(self, batch: Batch) -> np.ndarray:
        """Bootstrapped targets from the lead-side target networks.

        The follower's next-state Q-values come from its main network with
        fresh sharing noise; terminal transitions keep the bare reward.
        """
        q_lead_next, _ = forward(self.pair.lead_target, batch.next_obs_lead)
        q_follow_next, _ = forward(self.pair.follow, batch.next_obs_follow)
        peer = self._share(q_follow_next)
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
        if follow_fwd is None:
            follow_fwd = forward(self.pair.follow, batch.obs_follow)
        if lead_side:
            own, own_act, peer_act = "lead", batch.act_lead, batch.act_follow
            q_own, cache_own = forward(self.pair.lead, batch.obs_lead)
            q_peer = follow_fwd[0]
        else:
            own, own_act, peer_act = "follow", batch.act_follow, batch.act_lead
            q_own, cache_own = follow_fwd
            q_peer, _ = forward(self.pair.lead, batch.obs_lead)
        cols = compose_joint(own_act, peer_act, a)
        pred, cache_mlp = forward(self.pair.mlp, np.hstack([q_own, self._share(q_peer)]), cols)
        loss, d_pred = td_loss(pred, targets)
        g_mlp, d_in = backward(self.pair.mlp, cache_mlp, d_pred, cols, grads=self._grads("mlp"))
        g_own, _ = backward(getattr(self.pair, own), cache_own, d_in[:, :a], grads=self._grads(own))
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

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name in _NET_NAMES:
            save_net(directory / f"{name}.net", getattr(self.pair, name))
        _write_npz(directory / "replay.npz", self.buffer.state_rows())
        state = {
            "cfg": asdict(self.cfg),
            "episode": self.episode,
            "train_steps": self.train_steps,
            "rng_explore": self.rng_explore.bit_generator.state,
            "rng_sample": self.rng_sample.bit_generator.state,
            "rng_noise": self.rng_noise.bit_generator.state,
            "env_state": self.env.get_state(),
        }
        with open(directory / "state.json", "w") as fh:
            json.dump(state, fh, indent=1)

    @classmethod
    def load(cls, directory, env) -> "FederatedTrainer":
        """Restore a saved trainer; a malformed file raises ValueError naming it.

        The files are read and checked in this order:

        1. `state.json`: its world is compared with `env`'s first, then its
           config and counters are checked;
        2. each `<field>.net`, checked against the dims the config gives that
           net (`_pair_dims`);
        3. the trainer is built on the nets read, so no net is drawn, and
           takes the counters and random streams of `state.json`;
        4. `replay.npz`: `meta` and each array's shape and dtype, from the
           array headers, are checked before the first write. Then the arrays
           are read in blocks into the trainer's own buffer
           (`ReplayBuffer.load_state_arrays`), and its filled rows are
           checked, a block at a time.

        A load thus holds the buffer, the nets and a few blocks of replay rows.
        `env` takes the checkpoint's env state last, once every file has been
        read and checked, so a failed load leaves it unchanged.
        """
        directory = Path(directory)
        path = directory / "state.json"
        with _errors_name(path):
            state = json.loads(path.read_text())
            if not isinstance(state, dict):
                raise ValueError(f"must hold a JSON object, got {type(state).__name__}")
            env_state = state["env_state"]
            env.check_state(env_state)
            cfg = config_from_json(TrainerConfig, state["cfg"])
            cfg.validate()
            for name in ("episode", "train_steps"):
                if not is_integer(state[name]) or state[name] < 0:
                    raise ValueError(f"{name} must be an integer >= 0, got {state[name]!r}")
        nets = {}
        for name, dims in _pair_dims(env, cfg).items():
            net_path = directory / f"{name}.net"
            net = nets[name] = load_net(net_path)
            if net.dims != dims:
                raise ValueError(
                    f"{net_path}: a net of dims {net.dims}, but "
                    f"the checkpoint's config builds a net of dims {dims}"
                )
        with _errors_name(path):
            trainer = cls(env, cfg, seed=0, pair=FederatedAgentPair(**nets))
            trainer.episode, trainer.train_steps = state["episode"], state["train_steps"]
            for name in ("rng_explore", "rng_sample", "rng_noise"):
                getattr(trainer, name).bit_generator.state = state[name]
        replay_path = directory / "replay.npz"
        try:
            with zipfile.ZipFile(replay_path) as archive, ExitStack() as members:
                trainer.buffer.load_state_arrays({
                    member.removesuffix(".npy"): _NpyMember(
                        members.enter_context(archive.open(member))
                    )
                    for member in archive.namelist()
                    if member.endswith(".npy")
                })
            _check_replay_rows(trainer.buffer, trainer.num_actions)
        except KeyError as exc:
            raise ValueError(f"{replay_path}: missing array {exc}") from exc
        except (ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{replay_path}: {exc}") from exc
        with _errors_name(path):
            env.set_state(env_state)
        return trainer


class _NpyMember:
    """One array of an open `np.savez` archive, read by row slices.

    `shape` and `dtype` come from the member's `.npy` header, parsed once.
    `member[a:b]` reads rows [a, b) from the open member: onward from the
    last read, skipping rows a block at a time, or from the member's start
    again.
    """

    def __init__(self, fh):
        self._fh = fh
        self.name = fh.name.removesuffix(".npy")
        version = np.lib.format.read_magic(fh)
        read_header = (
            np.lib.format.read_array_header_1_0
            if version == (1, 0)
            else np.lib.format.read_array_header_2_0
        )
        self.shape, fortran_order, self.dtype = read_header(fh)
        if fortran_order:
            raise ValueError(f"replay array {self.name!r} is stored in Fortran order, not C order")
        self._start = fh.tell()
        self._row_bytes = self.dtype.itemsize * int(np.prod(self.shape[1:]))

    def __getitem__(self, rows: slice) -> np.ndarray:
        a, b, _ = rows.indices(self.shape[0])
        position = self._start + a * self._row_bytes
        if self._fh.tell() > position:
            self._fh.seek(0)
        while (skip := position - self._fh.tell()) > 0:
            self._fh.read(min(skip, BLOCK_BYTES))
        data = self._fh.read((b - a) * self._row_bytes)
        if len(data) != (b - a) * self._row_bytes:
            raise ValueError(
                f"replay array {self.name!r} ends inside row {a + len(data) // self._row_bytes} "
                f"of its {self.shape[0]}"
            )
        return np.frombuffer(data, self.dtype).reshape((b - a, *self.shape[1:]))


def _write_npz(path: Path, arrays: dict) -> None:
    """Write `arrays` as `np.savez` does, byte for byte, a block of rows at a time.

    Each value is an array, or a stand-in that gives its `shape` and `dtype`
    and its rows by slicing (`ReplayBuffer.state_rows`), so no whole array
    is gathered.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, array in arrays.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array_header_1_0(fh, {
                    "descr": np.lib.format.dtype_to_descr(array.dtype),
                    "fortran_order": False,
                    "shape": array.shape,
                })
                for _, rows in row_blocks(array):
                    fh.write(rows.tobytes())


def _check_replay_rows(buffer: ReplayBuffer, num_actions: int) -> None:
    """Raise ValueError naming the first field of `buffer`'s filled rows that
    holds what no run writes: an action outside [0, num_actions), a done flag
    other than 0 or 1, or a non-finite reward or observation."""
    arrays = buffer.state_rows()
    for name in FIELDS:
        for start, rows in row_blocks(arrays[name]):
            if name.startswith("act_"):
                bad, rule = (rows < 0) | (rows >= num_actions), f"an action in [0, {num_actions})"
            elif name == "done":
                bad, rule = (rows != 0.0) & (rows != 1.0), "0 or 1"
            else:
                bad, rule = ~np.isfinite(rows), "a finite number"
            if bad.any():
                where = tuple(np.argwhere(bad)[0])
                raise ValueError(
                    f"replay array {name!r} row {start + where[0]} holds {rows[where].item()!r}, "
                    f"not {rule}"
                )


@contextmanager
def _errors_name(path: Path):
    """Re-raise a bad key, type or value read from `path` as one ValueError naming it."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc

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
import os
import shutil
import tempfile
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Annotated, Optional

import numpy as np

from .checks import UNIT, Range, check_fields, config_from_json, is_integer
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
from .replay import BLOCK_BYTES, Batch, ReplayBuffer


@dataclass(frozen=True)
class TrainerConfig:
    """Learning hyperparameters shared by the federated trainer and baselines."""

    discount: Annotated[float, UNIT] = 0.9
    epsilon: Annotated[float, UNIT] = 0.1
    epsilon_end: Optional[Annotated[float, UNIT]] = None  # None keeps epsilon constant
    epsilon_decay_episodes: Annotated[int, Range(1)] = 1
    batch_size: Annotated[int, Range(1)] = 32
    share_noise_std: Annotated[float, Range(0)] = 1.0  # sigma of the sharing noise; 0 is noiseless
    replay_capacity: int = 20000
    target_sync: Annotated[int, Range(1)] = 200      # training steps between target copies
    episodes: Annotated[int, Range(1)] = 500
    local_hidden: Annotated[tuple[int, ...], Range(1)] = (80, 80, 80)
    mlp_hidden: Annotated[tuple[int, ...], Range(1)] = (80, 80)
    lr_start: float = 0.01
    lr_end: float = 0.001
    lr_decay_episodes: Annotated[int, Range(1)] = 250
    grad_clip: Annotated[
        float, Range(0, open=True, note=" (inf disables clipping)", infinite=True)
    ] = 10.0
    fedavg_period: Annotated[int, Range(1)] = 5      # fmarl-avg's episodes between weight averages

    def __post_init__(self) -> None:
        check_fields(self)
        if self.replay_capacity < self.batch_size:
            raise ValueError(
                f"replay_capacity must be >= batch_size ({self.batch_size}), "
                f"got {self.replay_capacity}"
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


def bootstrap(reward, done, discount: float, pick: np.ndarray, value: np.ndarray) -> np.ndarray:
    """TD targets reward + discount * v * (1 - done), v reading each row of `value`
    at the lowest-index argmax of `pick`'s row: the plain max if `pick is value`,
    Double DQN if `pick` holds the main net's values and `value` the target's."""
    best = value[np.arange(len(value)), pick.argmax(axis=1)]
    return np.asarray(reward, dtype=float) + discount * best * (1.0 - np.asarray(done, dtype=float))


def td_step(head, grads, x, cols, targets, lr: float, max_norm: float, below=None) -> float:
    """One TD step of `head` on the batch `x`: its outputs at `cols` against
    `targets` (`td_loss`), backward into `grads`, one `sgd_step` clipped to
    `max_norm`; returns the loss. `below`, the (net, grads, cache) of the
    `forward` that gave `x`'s first columns, is stepped too, before the head."""
    pred, cache = forward(head, x, cols)
    loss, d_pred = td_loss(pred, targets)
    grads, d_in = backward(head, cache, d_pred, cols, grads=grads)
    updates = [(head, grads)]
    if below is not None:
        net, net_grads, net_cache = below
        net_grads, _ = backward(net, net_cache, d_in[:, : net.dims[-1]], grads=net_grads)
        updates.insert(0, (net, net_grads))
    sgd_step(updates, lr, max_norm)
    return loss


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

# The checkpoint layout `Trainer.save` writes and `Trainer.load` reads: every
# net as `<name>.net`, the replay's own arrays as `replay.npz`, the rest
# `state.json`. tools/upgrade_checkpoint.py converts format 1 to it.
CHECKPOINT_FORMAT = 2


def check_checkpoint_dir(directory: Path) -> None:
    """Raise ValueError unless a save may replace `directory`: it is absent,
    empty or a checkpoint (it holds `state.json`)."""
    if directory.exists() and not (directory / "state.json").is_file() and os.listdir(directory):
        raise ValueError(f"{directory}: not a checkpoint (no state.json); not replacing it")


class GradBuffers(dict):
    """The gradient buffer of each trained net, by the net's name in `nets`.

    A buffer is made at its first lookup, so at the net's first backward,
    and each later backward rewrites it.
    """

    def __init__(self, nets: dict[str, DenseNet]):
        super().__init__()
        self.nets = nets

    def __missing__(self, name: str) -> DenseNet:
        grads = self[name] = zero_grads(self.nets[name])
        return grads


class Trainer:
    """The episode loop every algorithm runs, so their results compare fairly.

    Each TS: epsilon-greedy actions, one environment step, one replay row
    holding both vehicles' views and, once the buffer holds a batch, one
    sampled `update` and a target sync every `target_sync` updates. Epsilon
    and the learning rate follow their episode schedules. Subclasses define
    `algo`, `net_dims`, `select_actions` and `update`, and may hook
    `init_nets`, `end_episode` and `share_noise`. An `update` takes one `td_step`
    per side, on `bootstrap` targets, and returns their losses as a tuple.

    `nets` holds every net by its `net_dims` name, in that order, and each
    `<name>_target` is the target of `<name>`. `save` writes it,
    `sync_targets` copies within it, `grads` keys each trained net's
    gradient buffer by the same name, and the views a subclass builds
    (`pair`, `heads`) hold its nets. No net is ever rebound: every
    change to one writes its parameters in place, so `nets` and the views
    never part.

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

    # The algorithm's name, as a checkpoint's `state.json` records it. Each
    # class that sets one is listed under it in `Trainer.classes`, and
    # `Trainer.load` builds the class a checkpoint names from there.
    algo = ""
    classes: dict[str, type["Trainer"]] = {}
    # Whether the algorithm shares Q-values under noise of σ
    # `cfg.share_noise_std`, which `--sweep sigma` and `--eval --sigma` set.
    shares_q = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "algo" in vars(cls):
            Trainer.classes[cls.algo] = cls

    def __init__(self, env, cfg: TrainerConfig, seed: int, nets: Optional[dict] = None):
        """`nets` gives each net `net_dims` names, as `load` reads them.
        Without it the seed's init stream draws each main net in `net_dims`
        order, and each `<name>_target` starts as a copy of `<name>`."""
        if env.num_agents != 2:
            raise ValueError(f"{type(self).__name__} drives exactly two agents")
        self.env = env
        self.cfg = cfg
        self.num_actions = env.num_actions
        init_ss, explore_ss, sample_ss, noise_ss = np.random.SeedSequence(seed).spawn(4)
        self.rng_explore = np.random.default_rng(explore_ss)
        self.rng_sample = np.random.default_rng(sample_ss)
        self.rng_noise = np.random.default_rng(noise_ss)
        if nets is None:
            rng_init, nets = np.random.default_rng(init_ss), {}
            for name, dims in self.net_dims(env, cfg).items():
                main = name.removesuffix("_target")
                nets[name] = clone(nets[main]) if main != name else init_net(dims, rng_init)
        self.nets: dict[str, DenseNet] = nets
        self.grads = GradBuffers(nets)
        self.init_nets()
        self.buffer = ReplayBuffer(cfg.replay_capacity, env.obs_dim)
        self.train_steps = 0
        self.episode = 0

    @classmethod
    def net_dims(cls, env, cfg: TrainerConfig) -> dict[str, tuple[int, ...]]:
        """The dims of each net on `env` under `cfg`, by name; a checkpoint
        holds each as `<name>.net`."""
        raise NotImplementedError

    def init_nets(self) -> None:
        """Build the subclass's views over `nets`."""

    def select_actions(self, obs_vecs, eps: float, noise=None):
        """The (lead, follower) actions for the lead's and the follower's observations.

        Each is one vector, which gives two ints, or a (n, obs_dim) stack with
        one row per episode, which gives two int arrays. `noise`, one row per
        episode, is this TS's sharing noise as `share_noise` drew it; without
        it the federated pair draws its noise.
        """
        raise NotImplementedError

    def update(self, batch: Batch, lr: float) -> tuple[float, ...]:
        """One training step on `batch` at learning rate `lr`. Returns the
        loss of each TD step it took, one per side: (lead, follower) for the
        federated pair, one per `sides` entry for a baseline."""
        raise NotImplementedError

    def sync_targets(self) -> None:
        """Copy each net `<name>` of `nets` into `<name>_target`."""
        for name, target in self.nets.items():
            main = name.removesuffix("_target")
            if main != name:
                copy_into_target(self.nets[main], target)

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

    # -- checkpointing -----------------------------------------------------------

    def save(self, directory) -> None:
        """Write each net of `nets` as `<name>.net`, the replay's arrays as
        `replay.npz`, and `state.json`: the checkpoint's `format` and `algo`,
        the config, the counters, the random streams and the env state.

        The files go into `new` in a directory that `tempfile.mkdtemp` makes
        for this call alone, and `new` then replaces `directory` whole
        (`os.replace`): a failed save leaves the last one as it was.
        `check_checkpoint_dir` refuses a non-empty directory without
        `state.json` first."""
        directory = Path(directory)
        check_checkpoint_dir(directory)
        directory.parent.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{directory.name}.tmp-", dir=directory.parent))
        staged, retired = work / "new", work / "old"
        try:
            staged.mkdir()
            for name, net in self.nets.items():
                save_net(staged / f"{name}.net", net)
            self.buffer.save(staged / "replay.npz")
            state = {
                "format": CHECKPOINT_FORMAT,
                "algo": self.algo,
                "cfg": asdict(self.cfg),
                "episode": self.episode,
                "train_steps": self.train_steps,
                "rng_explore": self.rng_explore.bit_generator.state,
                "rng_sample": self.rng_sample.bit_generator.state,
                "rng_noise": self.rng_noise.bit_generator.state,
                "env_state": self.env.get_state(),
            }
            with open(staged / "state.json", "w") as fh:
                json.dump(state, fh, indent=1)
            if directory.exists():  # a crash before the next rename leaves it at `retired`
                os.replace(directory, retired)
            os.replace(staged, directory)
        except BaseException:
            if retired.exists() and not directory.exists():
                os.replace(retired, directory)
            raise
        finally:
            shutil.rmtree(work, ignore_errors=True)

    @classmethod
    def load(cls, directory, env) -> "Trainer":
        """Restore a saved trainer; a malformed file raises ValueError naming it.

        `Trainer.load` builds the class of the checkpoint's `algo`
        (`Trainer.classes`), and a subclass's `load` only a checkpoint of its
        own `algo`. A `state.json` without `format` is of format 1, and one
        without `algo` is a proposed checkpoint, as they were before either
        key was written. The files are read and checked in this order:

        1. `state.json`, parsed once: its `format` (`CHECKPOINT_FORMAT`) and
           `algo` first, then its world is compared with `env`'s, then its
           config and counters are checked;
        2. each `<name>.net`, checked against the dims the config gives that
           net (`net_dims`);
        3. the trainer is built on the nets read, so no net is drawn, and
           takes the counters and random streams of `state.json`;
        4. `replay.npz`, read into the trainer's own buffer
           (`ReplayBuffer.load`), then the values it holds are checked, a
           block at a time.

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
            version = state.get("format", 1)
            if not is_integer(version) or version < 1:
                raise ValueError(f"format must be an integer >= 1, got {version!r}")
            if version != CHECKPOINT_FORMAT:
                raise ValueError(
                    f"format {version} is newer than format {CHECKPOINT_FORMAT}, "
                    "the newest this version reads"
                    if version > CHECKPOINT_FORMAT
                    else f"format {version}: upgrade it with tools/upgrade_checkpoint.py"
                )
            algo = state.get("algo", "proposed")
            if not isinstance(algo, str) or algo not in Trainer.classes:
                raise ValueError(f"unknown algo {algo!r}; choose from {tuple(Trainer.classes)}")
            if cls is Trainer:
                cls = Trainer.classes[algo]
            elif algo != cls.algo:
                raise ValueError(f"a {algo} checkpoint, but {cls.__name__} loads {cls.algo} ones")
            apply_env_state = env.check_state(state["env_state"])
            cfg = config_from_json(TrainerConfig, state["cfg"])
            for name in ("episode", "train_steps"):
                if not is_integer(state[name]) or state[name] < 0:
                    raise ValueError(f"{name} must be an integer >= 0, got {state[name]!r}")
        nets = {}
        for name, dims in cls.net_dims(env, cfg).items():
            net_path = directory / f"{name}.net"
            net = nets[name] = load_net(net_path)
            if net.dims != dims:
                raise ValueError(
                    f"{net_path}: a net of dims {net.dims}, but "
                    f"the checkpoint's config builds a net of dims {dims}"
                )
        with _errors_name(path):
            trainer = cls(env, cfg, seed=0, nets=nets)
            trainer.episode, trainer.train_steps = state["episode"], state["train_steps"]
            for name in ("rng_explore", "rng_sample", "rng_noise"):
                getattr(trainer, name).bit_generator.state = state[name]
        replay_path = directory / "replay.npz"
        try:
            trainer.buffer.load(replay_path)
            _check_replay_rows(trainer.buffer, trainer.num_actions)
        except (ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{replay_path}: {exc}") from exc
        apply_env_state()
        return trainer


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
    freshly shared noisy Q-values. No gradient flows into the peer's local
    net: the peer's noisy Q-input is a constant in each side's loss.

    What crosses between the lead's side and the follower's, with w = |A|
    values per row:

    - per TS (`select_actions`), with noise: the follower's Q-vector. Without
      noise: the follower's action, which the lead picks;
    - per training step, with fresh noise: the follower's next-state values
      for the targets (`compute_targets`), the follower's values for the
      lead's update and the lead's values for the follower's (`_train_side`),
      batch x w values each;
    - per training step, without noise: the batch's targets, lead to
      follower; the lead's actions of the batch, which index the joint
      output of the follower's update; and the joint head `pair.mlp`, which
      both sides step in turn, so its weights or its update cross twice. The
      follower's update carries its raw Q-rows.
    """

    algo = "proposed"
    shares_q = True

    @classmethod
    def net_dims(cls, env, cfg: TrainerConfig) -> dict[str, tuple[int, ...]]:
        a = env.num_actions
        local = (env.obs_dim, *cfg.local_hidden, a)
        mlp = (2 * a, *cfg.mlp_hidden, a * a)
        return {"lead": local, "lead_target": local, "follow": local, "mlp": mlp, "mlp_target": mlp}

    def init_nets(self) -> None:
        self.pair = FederatedAgentPair(**self.nets)

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
        shared = np.concatenate((q_lead, self._share(q_follow, noise)), axis=-1)
        values, _ = forward(self.pair.mlp, shared, stack=True)
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
        return bootstrap(batch.reward, batch.done, self.cfg.discount, joint, joint)

    def _train_side(self, batch: Batch, targets, lr: float, follow_fwd, lead_side: bool) -> float:
        """One side's TD step of its local net and the joint head; returns its
        loss. The peer's noisy Q-input is a constant, and the joint head
        evaluates only the taken joint action. `follow_fwd` is
        `forward(self.pair.follow, batch.obs_follow)` of the current follower net.
        """
        if lead_side:
            own, own_act, peer_act = "lead", batch.act_lead, batch.act_follow
            q_own, cache_own = forward(self.pair.lead, batch.obs_lead)
            q_peer = follow_fwd[0]
        else:
            own, own_act, peer_act = "follow", batch.act_follow, batch.act_lead
            q_own, cache_own = follow_fwd
            q_peer, _ = forward(self.pair.lead, batch.obs_lead)
        x = np.hstack([q_own, self._share(q_peer)])
        cols = compose_joint(own_act, peer_act, self.num_actions)
        below = (self.nets[own], self.grads[own], cache_own)
        return td_step(self.pair.mlp, self.grads["mlp"], x, cols, targets, lr,
                       self.cfg.grad_clip, below)

    def train_step_lead(self, batch: Batch, targets: np.ndarray, lr: float, follow_fwd) -> float:
        return self._train_side(batch, targets, lr, follow_fwd, lead_side=True)

    def train_step_follow(self, batch: Batch, targets: np.ndarray, lr: float, follow_fwd) -> float:
        return self._train_side(batch, targets, lr, follow_fwd, lead_side=False)

    def update(self, batch: Batch, lr: float) -> tuple[float, float]:
        """The targets, then the lead's and the follower's steps; returns their losses.
        Both steps read one forward pass of the follower net, which the lead's leaves as is."""
        targets = self.compute_targets(batch)
        follow_fwd = forward(self.pair.follow, batch.obs_follow)
        return (self.train_step_lead(batch, targets, lr, follow_fwd),
                self.train_step_follow(batch, targets, lr, follow_fwd))

    # -- target syncs and checkpointing ------------------------------------------------

    # `Trainer.sync_targets`, `Trainer.save` and `Trainer.load`, named here too
    # so that a profiler that patches this class's own methods (perfbench's
    # tracer) times the pair's.
    def sync_targets(self) -> None:
        super().sync_targets()

    def save(self, directory) -> None:
        super().save(directory)

    @classmethod
    def load(cls, directory, env) -> "FederatedTrainer":
        return super().load(directory, env)


def _check_replay_rows(buffer: ReplayBuffer, num_actions: int) -> None:
    """Raise ValueError naming the first of `buffer`'s checkpoint arrays that
    holds what no run writes: an action outside [0, num_actions), a done flag
    other than 0 or 1, or a non-finite reward or observation."""
    for name, array in buffer.state_arrays().items():
        step = max(1, BLOCK_BYTES // max(1, array[:1].nbytes))
        for start in range(0, len(array), step):
            rows = array[start : start + step]
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc

"""Freeway environment: vehicles, roadside units, channel, mobility, reward.

Two lanes run along the x axis of a ring road of configurable length. RSUs sit
in two rows, one on each side of the road, evenly spaced. Each time slot (TS)
every vehicle picks one of the RSUs it can currently observe plus a discrete
transmit power level; the environment resolves conflicts, computes per-vehicle
rates and trade-off utilities, and returns one shared reward.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import asdict, dataclass, replace
from typing import Annotated, Callable, Optional, Sequence, Union

import numpy as np

from .checks import POSITIVE, UNIT, Range, check_fields, config_from_json

# Geometry of the two-lane freeway (m). Lanes carry the vehicles, the RSU rows
# sit beyond the outer shoulders.
LANE_Y = (0.0, 4.0)
RSU_ROW_Y = (-10.0, 14.0)

# The most RSUs whose layout numpy can hold: one float64 coordinate per RSU,
# in one array whose size in bytes fits an intp.
MAX_RSUS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize

# Sentinel location for "no RSU in this slot" / "no previous association",
# in raw (pre-normalization) coordinates.
NO_RSU_LOCATION = (-1.0, -1.0)


@dataclass(frozen=True)
class EnvConfig:
    """Static parameters of the freeway world and the reward trade-off."""

    num_vehicles: Annotated[int, Range(1)] = 2
    num_rsus: int = 12
    road_length: Annotated[float, POSITIVE] = 1000.0     # m
    coverage_radius: Annotated[float, POSITIVE] = 200.0  # m
    visible_rsus: int = 4                                # max RSU slots per observation
    power_levels: Annotated[int, Range(2)] = 4
    power_min_dbm: float = 23.0
    power_max_dbm: float = 35.0
    min_rate: Annotated[float, POSITIVE] = 8.0           # bit/s/Hz
    noise_dbm: float = -114.0
    weight_rate: Annotated[float, UNIT] = 0.5
    weight_handover: Annotated[float, UNIT] = 0.25
    weight_power: Annotated[float, UNIT] = 0.25
    penalty: float = -1.0                                # added to the reward on any violation
    horizon: Annotated[int, Range(1)] = 100              # TS per episode
    ts_duration: Annotated[float, POSITIVE] = 1.0        # s
    mean_speed_low: float = 5.0                          # m/s, per-vehicle mean speed draw range
    mean_speed_high: float = 10.0
    mean_speeds: Optional[Annotated[tuple[float, ...], POSITIVE]] = None  # per-vehicle means
    speed_std: Annotated[float, Range(0)] = 0.1          # m/s
    speed_memory: Annotated[float, UNIT] = 0.1           # autoregressive memory depth
    # Normalization constants for learner inputs; fixed here so runs reproduce.
    gain_db_low: float = -130.0
    gain_db_high: float = -40.0
    y_scale: Annotated[float, POSITIVE] = 20.0

    def __post_init__(self) -> None:
        check_fields(self)
        rsus, visible = self.num_rsus, self.visible_rsus
        if rsus < self.num_vehicles:
            raise ValueError(f"num_rsus must be >= num_vehicles ({self.num_vehicles}), got {rsus}")
        if rsus % 2 != 0:
            raise ValueError(f"num_rsus must be even (equal counts per roadside), got {rsus}")
        if rsus > MAX_RSUS:
            raise ValueError(
                f"num_rsus must be at most {MAX_RSUS} (the RSU layout holds a float64 per "
                f"RSU in one array, and numpy counts an array's bytes in an intp), got {rsus}"
            )
        if not 1 <= visible <= rsus:
            raise ValueError(f"visible_rsus must be in [1, num_rsus] = [1, {rsus}], got {visible}")
        low, high = self.power_min_dbm, self.power_max_dbm
        if low >= high:
            raise ValueError(f"power_min_dbm must be < power_max_dbm, got {low} and {high}")
        if not math.isfinite(self.road_length * (rsus - 1)):
            raise ValueError(
                "road_length times num_rsus - 1 must be finite (the RSU layout multiplies "
                f"them), got road_length {self.road_length} and num_rsus {rsus}"
            )
        low, high = self.mean_speed_low, self.mean_speed_high
        if low <= 0 or high < low:
            raise ValueError(
                "mean speed range must satisfy 0 < low <= high, got "
                f"mean_speed_low {low} and mean_speed_high {high}"
            )
        if self.mean_speeds is not None and len(self.mean_speeds) != self.num_vehicles:
            raise ValueError(
                f"mean_speeds must have one entry per vehicle ({self.num_vehicles}), "
                f"got {list(self.mean_speeds)!r}"
            )
        low, high = self.gain_db_low, self.gain_db_high
        if low >= high:
            raise ValueError(f"gain_db_low must be < gain_db_high, got {low} and {high}")

    @property
    def actions_per_agent(self) -> int:
        return self.visible_rsus * self.power_levels

    @property
    def obs_dim(self) -> int:
        # gains + 2-D slot locations + 2-D previous association location
        return 3 * self.visible_rsus + 2

    def power_levels_dbm(self) -> np.ndarray:
        return np.linspace(self.power_min_dbm, self.power_max_dbm, self.power_levels)

    def power_levels_w(self) -> np.ndarray:
        return dbm_to_watt(self.power_levels_dbm())


def dbm_to_watt(p_dbm: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    return 10.0 ** ((np.asarray(p_dbm, dtype=float) - 30.0) / 10.0)


@functools.lru_cache(maxsize=16)
def _max_power_w(power_max_dbm: float) -> float:
    return float(dbm_to_watt(power_max_dbm))


def list_mean(values: Union[Sequence[float], np.ndarray]) -> Union[float, np.ndarray]:
    """The mean of a list of floats, added left to right from 0.0, without
    building an array.

    numpy adds fewer than 8 values in that order, so the mean of the K = 2
    vehicles of a run has `np.mean`'s bits. A (K, ...) array, such as (K, n)
    or (K, T, n), gives the means across its K rows, each with the bits of
    `list_mean` of its K values as a list.
    """
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


# --------------------------------------------------------------------------
# Channel model
# --------------------------------------------------------------------------

PATH_LOSS_FLOOR_M = 1.0  # distances are clamped here to keep the log finite


def path_loss_db(distance_km: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Distance-dependent path loss in dB; distance clamped below at 1 m."""
    d = np.maximum(distance_km, PATH_LOSS_FLOOR_M / 1000.0)
    return 128.1 + 37.6 * np.log10(d)


def mean_channel_gain(distance_km: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Expected linear channel gain at a given distance (fading averaged out)."""
    return 10.0 ** (-path_loss_db(distance_km) / 10.0)


def achievable_rate(tx_power_w: float, gain: float, noise_w: float) -> float:
    """Downlink spectral efficiency log2(1 + P*G/N) in bit/s/Hz."""
    return math.log2(1.0 + tx_power_w * gain / noise_w)


# --------------------------------------------------------------------------
# Mobility
# --------------------------------------------------------------------------

def gauss_markov_speed(
    speed: Union[float, np.ndarray],
    mean_speed: Union[float, np.ndarray],
    std: float,
    memory: float,
    noise: Union[float, np.ndarray],
) -> Union[float, np.ndarray]:
    """One autoregressive speed update with memory depth in [0, 1].

    `noise` is a standard normal draw. The stationary distribution has mean
    `mean_speed` and standard deviation `std` for any memory < 1. Speeds,
    means and noise may be floats or arrays of one shape.
    """
    return (
        memory * speed
        + (1.0 - memory) * mean_speed
        + std * math.sqrt(1.0 - memory * memory) * noise
    )


# --------------------------------------------------------------------------
# Static layout
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RsuLayout:
    """Positions of all RSUs; ids 0..R/2-1 south row, R/2..R-1 north row."""

    xs: np.ndarray     # (R,)
    ys: np.ndarray     # (R,)

    @property
    def count(self) -> int:
        return len(self.xs)


def build_rsu_layout(cfg: EnvConfig) -> RsuLayout:
    per_side = cfg.num_rsus // 2
    # Even spacing with half-interval margins: x_i = (2i - 1) * L / (2 * per_side).
    # The north row is offset by half a spacing so the rows interleave along the
    # road; with aligned columns every vehicle's nearest RSU would sit on its own
    # side of the road and the association problem would decouple entirely.
    xs_south = (2.0 * np.arange(1, per_side + 1) - 1.0) * cfg.road_length / (2.0 * per_side)
    xs_north = np.mod(xs_south + cfg.road_length / (2.0 * per_side), cfg.road_length)
    xs = np.concatenate([xs_south, xs_north])
    ys = np.concatenate(
        [np.full(per_side, RSU_ROW_Y[0]), np.full(per_side, RSU_ROW_Y[1])]
    )
    return RsuLayout(xs=xs, ys=ys)


# --------------------------------------------------------------------------
# Reward
# --------------------------------------------------------------------------

def handover_indicator(prev_assoc: int, cur_assoc: int) -> int:
    """1 iff a previous association exists (-1 is none) and differs from the
    current one."""
    return int(prev_assoc >= 0 and prev_assoc != cur_assoc)


def utility(
    rate: Union[float, np.ndarray],
    ho: Union[int, np.ndarray],
    tx_power_w: Union[float, np.ndarray],
    cfg: EnvConfig,
) -> Union[float, np.ndarray]:
    """Normalized trade-off of rate benefit against handover and power cost.

    Takes floats or arrays of one shape (one entry per vehicle).
    """
    p_max_w = _max_power_w(cfg.power_max_dbm)
    return (
        cfg.weight_rate * rate / cfg.min_rate
        - cfg.weight_handover * ho
        - cfg.weight_power * tx_power_w / p_max_w
    )


@dataclass
class StepResult:
    """The score of a block (`EdgeAssocEnv.score_block`): its T TS of n
    episodes stepped in lockstep, a training episode being a block of one.
    Per-vehicle fields are (K, T, n) arrays, row k holding vehicle k's values
    by TS and episode; per-episode fields are (T, n) arrays."""

    reward: np.ndarray        # (T, n) mean utility plus penalty
    utilities: np.ndarray     # (K, T, n)
    rates: np.ndarray         # (K, T, n) bit/s/Hz
    ho_flags: np.ndarray      # (K, T, n) {0,1}
    tx_powers_w: np.ndarray   # (K, T, n) actual transmit power, 0 for unserved
    assoc_rsus: np.ndarray    # (K, T, n) chosen RSU id, -1 when none available
    violations: np.ndarray    # (T, n) contested RSUs plus vehicles under min_rate
    penalty: np.ndarray       # (T, n) float cfg.penalty when violations > 0, else 0.0
    done: np.ndarray          # (T, n)


@dataclass
class EnvBlock:
    """Episodes of one world that `EdgeAssocEnv.reset_block` draws,
    `step_block` advances in lockstep and `score_block` scores (`step`
    advances a block of one, `EdgeAssocEnv.episode`, and gives each TS's
    reward), their rows held with the episode axis after the vehicle axis."""

    t: int                  # the episodes' current TS, 1-based
    # (horizon + 1, K, n, visible_rsus) RSU id of each action slot; a padded
    # slot holds its fallback, the nearest RSU, or -1 when none is in range.
    slots: np.ndarray
    # (horizon + 1, K, n, visible_rsus) gain of the RSU each slot resolves to;
    # a padded slot holds slot 0's gain.
    gains: np.ndarray
    obs: np.ndarray         # (horizon + 1, K, n, obs_dim)
    prev_assoc: np.ndarray  # (K, n) previous RSU ids, -1 when none
    # (horizon, K, n) the action index of each TS that `step_block` took;
    # rows from TS t on are unset.
    actions: np.ndarray

    def __post_init__(self):
        k, n = self.prev_assoc.shape
        # Index arrays that pick one entry per vehicle and episode.
        self.vehicles, self.episodes = np.arange(k)[:, None], np.arange(n)


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------

_STREAMS = ("rng_init", "rng_mobility", "rng_fading")


class EdgeAssocEnv:
    """Discrete-time joint association / power environment.

    Deterministic given its seed: mobility, fading and initial placement each
    use a dedicated random stream spawned from it. Episodes consume those
    streams in order, so repeated episodes under one seed are reproducible as
    a whole sequence.

    Mobility and fading do not depend on the actions, so an episode's world is
    drawn when it starts. `reset_block(n)` draws n episodes in turn into one
    `EnvBlock`: one mobility row per TS transition and one fading table per TS
    through TS `horizon + 1`, the same numbers in the same amount as drawing
    them TS by TS, and from them each TS's slot map, gain table and learner
    input vector. The input's previous-association columns hold "no RSU" in
    every row until the step into that row writes them. A block of any size
    is advanced by `step_block`, which only records each TS's actions and
    writes the next row's previous association, and then scored at once by
    `score_block`: only the handover term links one TS to the next, and it
    reads the previous association alone. `reset()` starts a block of one,
    `episode`, which `step` advances by `step_block` and which is then
    scored like any other block; `step` computes only the reward that
    training needs each TS. Stepping past the horizon raises.
    """

    def __init__(self, cfg: EnvConfig, seed: int):
        self.cfg = cfg
        self.layout = build_rsu_layout(cfg)
        ss = np.random.SeedSequence(seed)
        init_ss, mobility_ss, fading_ss = ss.spawn(3)
        self._rng_init = np.random.default_rng(init_ss)
        self._rng_mobility = np.random.default_rng(mobility_ss)
        self._rng_fading = np.random.default_rng(fading_ss)
        if cfg.mean_speeds is not None:
            self.mean_speeds = np.asarray(cfg.mean_speeds, dtype=float)
        else:
            self.mean_speeds = self._rng_init.uniform(
                cfg.mean_speed_low, cfg.mean_speed_high, cfg.num_vehicles
            )
        self._power_w = cfg.power_levels_w().tolist()
        self._noise_w = float(dbm_to_watt(cfg.noise_dbm))
        no_x, no_y = NO_RSU_LOCATION
        # Normalized location per RSU id; row -1 is NO_RSU_LOCATION.
        self._prev_location = np.column_stack([
            np.append(self.layout.xs, no_x) / cfg.road_length,
            np.append(self.layout.ys, no_y) / cfg.y_scale,
        ])
        self.episode: Optional[EnvBlock] = None  # the block of one `reset()` starts

    # -- episode control ----------------------------------------------------

    @property
    def num_agents(self) -> int:
        return self.cfg.num_vehicles

    @property
    def num_actions(self) -> int:
        return self.cfg.actions_per_agent

    @property
    def obs_dim(self) -> int:
        return self.cfg.obs_dim

    @property
    def horizon(self) -> int:
        return self.cfg.horizon

    def reset(self) -> list[np.ndarray]:
        self.episode, stacks = self.reset_block(1)
        return [stack[0] for stack in stacks]

    def reset_block(self, n: int) -> tuple[EnvBlock, list[np.ndarray]]:
        """Start n episodes, drawn in episode order, as one block for
        `step_block` and `score_block`. Returns the block and each vehicle's
        (n, obs_dim) stack of first observations."""
        if n < 1:
            raise ValueError(f"a block holds at least one episode, got n={n}")
        cfg, layout = self.cfg, self.layout
        k, v = cfg.num_vehicles, cfg.visible_rsus
        rows = (cfg.horizon + 1, k, n)  # one row per TS from 1 to horizon + 1
        slots = np.empty((*rows, v), dtype=int)
        gains = np.empty((*rows, v))
        obs = np.empty((*rows, cfg.obs_dim))
        lane_y = np.asarray(LANE_Y)[np.arange(k) % len(LANE_Y)]
        lo, hi = cfg.gain_db_low, cfg.gain_db_high
        no_x, no_y = NO_RSU_LOCATION
        for i in range(n):
            x = self._rng_init.uniform(0.0, cfg.road_length, k)
            noise = self._rng_mobility.standard_normal((cfg.horizon, k))
            fading = self._rng_fading.exponential(size=(cfg.horizon + 1, k, layout.count))
            dx = np.abs(self._trajectory(x, noise)[:, :, None] - layout.xs) % cfg.road_length
            dx = np.minimum(dx, cfg.road_length - dx)
            dist = np.hypot(dx, lane_y[:, None] - layout.ys)  # (TS, K, R) ring metric

            # Slots: RSUs in coverage, nearest first; the stable sort keeps ties
            # in id order. In-range RSUs are a prefix of the sorted row.
            order = np.argsort(dist, axis=-1, kind="stable")[..., :v]
            slot_dist = np.take_along_axis(dist, order, -1)
            padded = slot_dist > cfg.coverage_radius
            # A padded slot falls back to the nearest RSU, slot 0's.
            nearest = np.where(padded[..., :1], -1, order[..., :1])
            slots[:, :, i] = np.where(padded, nearest, order)
            slot_fading = np.take_along_axis(fading, order, -1)
            slot_gains = mean_channel_gain(slot_dist / 1000.0) * slot_fading
            gains[:, :, i] = np.where(padded, slot_gains[..., :1], slot_gains)
            slot_gains[padded] = 0.0

            # Learner input: gains in dB mapped to ~[0, 1], x and y scaled.
            gains_db = np.full(slot_gains.shape, lo)
            positive = slot_gains > 0.0
            gains_db[positive] = 10.0 * np.log10(slot_gains[positive])
            episode_obs = obs[:, :, i]
            episode_obs[..., :v] = (np.clip(gains_db, lo, hi) - lo) / (hi - lo)
            episode_obs[..., v:3 * v:2] = np.where(padded, no_x, layout.xs[order]) / cfg.road_length
            episode_obs[..., v + 1:3 * v:2] = np.where(padded, no_y, layout.ys[order]) / cfg.y_scale
        # No previous association yet; each step rewrites the next TS's columns.
        obs[..., -2:] = self._prev_location[-1]
        block = EnvBlock(
            t=1, slots=slots, gains=gains, obs=obs, prev_assoc=np.full((k, n), -1),
            actions=np.empty((cfg.horizon, k, n), dtype=int),
        )
        return block, list(obs[0])

    def _trajectory(self, start: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Positions (n + 1, K) from the start positions at the mean speeds,
        then one TS per noise row.

        The recursion runs per vehicle on Python floats, which round like
        numpy's float64 and are several times faster on K=2 rows.
        """
        cfg = self.cfg
        std, memory, dt, road = cfg.speed_std, cfg.speed_memory, cfg.ts_duration, cfg.road_length
        xs = []
        for x, mean, draws in zip(start.tolist(), self.mean_speeds.tolist(), noise.T.tolist()):
            speed, xk = mean, [x]
            for w in draws:
                speed = gauss_markov_speed(speed, mean, std, memory, w)
                x = (x + speed * dt) % road
                xk.append(x)
            xs.append(xk)
        return np.array(xs).T

    # -- stepping -------------------------------------------------------------

    def step(self, actions: Sequence[int]) -> tuple[list[np.ndarray], float, bool]:
        """Apply one joint action to `episode`, the block of one that `reset()`
        started, by `step_block`, and give the next observations, this TS's
        reward and whether the episode is done.

        Conflicting picks of the same RSU are resolved in favor of the lowest
        vehicle index; losers transmit nothing that TS. The reward is the
        mean utility plus `cfg.penalty` when any RSU is contested or any rate
        is under `min_rate`. Selecting a padded slot falls back to the
        nearest available RSU without a penalty. A structurally invalid
        action index raises ValueError; stepping before `reset()` or after
        the episode is done raises RuntimeError. `score_block(episode)` gives
        every value of the TS stepped so far, this reward's bits included.
        """
        cfg = self.cfg
        episode = self.episode
        if episode is None:
            raise RuntimeError("call reset() before step()")
        prev_assoc = episode.prev_assoc[:, 0].tolist()
        obs = self.step_block(episode, np.asarray(actions)[:, None])
        row = episode.t - 2
        assoc = episode.prev_assoc[:, 0].tolist()
        gains = episode.gains[row, :, 0].tolist()

        rates = [0.0] * cfg.num_vehicles
        tx_powers = [0.0] * cfg.num_vehicles
        ho_flags = [0] * cfg.num_vehicles
        won = set()
        # Lowest vehicle index wins a contested RSU; losers are muted this TS.
        for k, (rid, a) in enumerate(zip(assoc, episode.actions[row, :, 0].tolist())):
            if rid < 0:
                continue
            ho_flags[k] = handover_indicator(prev_assoc[k], rid)
            if rid not in won:
                won.add(rid)
                slot, level = divmod(a, cfg.power_levels)
                tx_powers[k] = self._power_w[level]
                rates[k] = achievable_rate(tx_powers[k], gains[k][slot], self._noise_w)

        # A muted loser's rate, 0, is under min_rate (> 0): a contested RSU
        # always comes with a rate under the minimum.
        penalty = cfg.penalty if any(r < cfg.min_rate for r in rates) else 0.0
        utilities = [utility(*v, cfg) for v in zip(rates, ho_flags, tx_powers)]
        return list(obs[:, 0]), list_mean(utilities) + penalty, episode.t > cfg.horizon

    def step_block(self, block: EnvBlock, actions: Sequence[np.ndarray]) -> np.ndarray:
        """Take one TS's actions for every episode of `block`: `actions[k]`
        holds vehicle k's action index in each episode. Records them for
        `score_block`, writes the next row's previous-association columns and
        returns the next observations, (K, n, obs_dim), a view of the block.
        An invalid action index raises ValueError, naming the first offending
        one by episode, then vehicle; a done block raises RuntimeError.
        """
        cfg = self.cfg
        if block.t > cfg.horizon:
            raise RuntimeError("the episode is done; call reset() before step()")
        if len(actions) != cfg.num_vehicles:
            raise ValueError("one action per vehicle required")
        acts = np.asarray(actions)
        k_count, n = block.prev_assoc.shape
        if acts.shape != (k_count, n) or acts.dtype.kind not in "iu":
            raise ValueError(f"one action index per vehicle required in each of the {n} episodes")
        flat = acts.ravel().tolist()
        if min(flat) < 0 or max(flat) >= cfg.actions_per_agent:
            # The first offending episode, then vehicle, as n `step` calls find it.
            idx = next(a for a in acts.T.ravel().tolist() if not 0 <= a < cfg.actions_per_agent)
            raise ValueError(f"action index {idx} out of range")

        row = block.t - 1
        block.actions[row] = acts
        block.prev_assoc = block.slots[row][block.vehicles, block.episodes, acts // cfg.power_levels]
        block.t += 1
        obs = block.obs[row + 1]
        obs[..., -2:] = self._prev_location[block.prev_assoc]
        return obs

    def score_block(self, block: EnvBlock) -> StepResult:
        """Every TS that `step_block` took in `block`, scored at once by the TS
        rule that `step` states: a StepResult whose reward at TS t of episode
        i has the bits of the reward `step` gives on that episode at TS t + 1.
        Leaves the block as it is.
        """
        cfg = self.cfg
        ts = block.t - 1
        k_count, n = block.prev_assoc.shape
        # (K, T, n) views: the TS axis sits after the vehicle axis.
        slot, level = np.divmod(block.actions[:ts].transpose(1, 0, 2), cfg.power_levels)
        slots = block.slots[:ts].transpose(1, 0, 2, 3)
        assoc = np.take_along_axis(slots, slot[..., None], -1)[..., 0]
        served = assoc >= 0
        won = served.copy()
        contested = 0
        # Lowest vehicle index wins a contested RSU; losers are muted that TS.
        # An RSU counts as contested once, at its first loser.
        for k in range(1, k_count):
            earlier = sum(assoc[j] == assoc[k] for j in range(k))
            won[k] &= earlier == 0
            contested = contested + (served[k] & (earlier == 1))
        # A block starts with no previous association.
        prev = np.concatenate([np.full((k_count, 1, n), -1), assoc], axis=1)[:, :ts]
        ho_flags = (served & (prev >= 0) & (prev != assoc)).astype(int)
        tx_powers = np.where(won, np.asarray(self._power_w)[level], 0.0)
        gains = np.take_along_axis(block.gains[:ts].transpose(1, 0, 2, 3), slot[..., None], -1)
        one_plus_snr = 1.0 + tx_powers[won] * gains[..., 0][won] / self._noise_w
        # math.log2, as in achievable_rate: np.log2 differs from it in the last
        # bit on some arguments.
        rates = np.zeros((k_count, ts, n))
        rates[won] = np.fromiter(map(math.log2, one_plus_snr), float, len(one_plus_snr))

        violations = contested + (rates < cfg.min_rate).sum(axis=0)
        penalty = np.where(violations > 0, float(cfg.penalty), 0.0)
        utilities = utility(rates, ho_flags, tx_powers, cfg)
        done = np.arange(1, ts + 1) >= cfg.horizon
        return StepResult(
            reward=list_mean(utilities) + penalty,
            utilities=utilities,
            rates=rates,
            ho_flags=ho_flags,
            tx_powers_w=tx_powers,
            assoc_rsus=assoc,
            violations=violations,
            penalty=penalty,
            done=done[:, None].repeat(n, axis=1),
        )

    # -- state capture (checkpoint support) ----------------------------------

    def get_state(self) -> dict:
        """What the next `reset()` needs: this world's config, the mean speeds
        and the streams. Taken mid-episode, it restores to the next episode."""
        state = {"cfg": asdict(self.cfg), "mean_speeds": self.mean_speeds.tolist()}
        for name in _STREAMS:
            state[name] = getattr(self, f"_{name}").bit_generator.state
        return state

    def check_state(self, state: dict) -> Callable[[], None]:
        """Raise ValueError if `state` is not a JSON object or lacks a key, if its
        `cfg` fails `config_from_json` or is of another world (naming the first
        differing `EnvConfig` field), or if its `mean_speeds` or streams break
        their rule; else return the call that applies `state`, leaving the env as is."""
        if not isinstance(state, dict):
            raise ValueError(f"env state must be a JSON object, got {type(state).__name__}")
        missing = [key for key in ("cfg", "mean_speeds", *_STREAMS) if key not in state]
        if missing:
            raise ValueError(f"env state has no {missing[0]!r}")
        theirs = vars(config_from_json(EnvConfig, state["cfg"]))
        for name, ours in vars(self.cfg).items():
            if theirs[name] != ours:
                their, ours = (list(v) if isinstance(v, tuple) else v for v in (theirs[name], ours))
                raise ValueError(
                    f"env state is of another world: its {name} is {their!r}, "
                    f"this world's is {ours!r}"
                )
        replace(self.cfg, mean_speeds=state["mean_speeds"])  # building it checks the rule
        streams = {name: copy.deepcopy(getattr(self, f"_{name}")) for name in _STREAMS}
        for name, rng in streams.items():
            rng.bit_generator.state = state[name]
        mean_speeds = np.asarray(state["mean_speeds"], dtype=float)

        def apply() -> None:
            self.mean_speeds = mean_speeds
            for name, rng in streams.items():
                setattr(self, f"_{name}", rng)
            self.episode = None
        return apply

    def set_state(self, state: dict) -> None:
        """Restore a `get_state()` that `check_state` passes; the next episode
        starts at `reset()`."""
        self.check_state(state)()

"""Test-only references: the per-TS environment, the slot list, the
constraint check and the per-vehicle observation view.

`PerTsEnv` is the environment's earlier per-TS implementation, kept as the
reference `fedassoc.env.EdgeAssocEnv` is checked against: its `step` gives
every value of a TS (`TsResult`), which `EdgeAssocEnv.step` and
`score_block` must match. `WorldState` is its ground-truth vehicle state,
which `EdgeAssocEnv` does not keep.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from fedassoc.env import (
    LANE_Y,
    NO_RSU_LOCATION,
    EnvConfig,
    RsuLayout,
    achievable_rate,
    build_rsu_layout,
    dbm_to_watt,
    gauss_markov_speed,
    handover_indicator,
    mean_channel_gain,
    utility,
)


@dataclass
class WorldState:
    """Ground-truth vehicle state hidden from the agents."""

    x: np.ndarray          # (K,) positions along the road, in [0, road_length)
    speed: np.ndarray      # (K,) m/s
    lane: np.ndarray       # (K,) lane index into LANE_Y
    prev_assoc: np.ndarray  # (K,) previous RSU id, -1 when none
    t: int                 # current TS, 1-based

    def lane_y(self) -> np.ndarray:
        return np.asarray(LANE_Y)[self.lane]


@dataclass
class TsResult:
    """Outcome of one joint TS; per-vehicle values are lists in vehicle order."""

    reward: float              # mean utility plus penalty
    utilities: list[float]
    rates: list[float]         # bit/s/Hz
    ho_flags: list[int]        # {0,1}
    tx_powers_w: list[float]   # actual transmit power, 0 for unserved
    assoc_rsus: list[int]      # chosen RSU id, -1 when none available
    violations: int            # contested RSUs plus vehicles under min_rate
    penalty: float             # cfg.penalty when violations > 0, else 0.0
    observations: list[np.ndarray]  # next normalized observation vectors
    done: bool


@dataclass
class Observation:
    """Per-vehicle local view: slot gains, slot locations, last RSU location.

    `slot_map` holds the global RSU id behind each slot (-1 for padding); it
    is environment bookkeeping and never enters the learner input vector.
    """

    gains: np.ndarray          # (visible_rsus,) linear gains, 0 for padded slots
    locations: np.ndarray      # (visible_rsus, 2) raw coordinates
    prev_location: np.ndarray  # (2,) raw coordinates or NO_RSU_LOCATION
    slot_map: np.ndarray       # (visible_rsus,) RSU ids, -1 for padded slots


def rsu_position(layout: RsuLayout, rsu_id: int) -> tuple[float, float]:
    return float(layout.xs[rsu_id]), float(layout.ys[rsu_id])


def episode_row(env, name: str) -> np.ndarray:
    """The current TS's (K, ...) row of array `name` (`slots`, `gains` or
    `obs`) of the episode an `EdgeAssocEnv`'s `reset()` started."""
    episode = env.episode
    return getattr(episode, name)[episode.t - 1][:, 0]


def observations(env) -> list[Observation]:
    """Per-vehicle views of an `EdgeAssocEnv`'s current TS, from its episode's rows."""
    layout = env.layout
    gains = episode_row(env, "gains")
    views = []
    for k, slots in enumerate(episode_row(env, "slots")):
        # In-range slots hold distinct RSUs; a padded one holds slot 0's
        # fallback, -1 when no RSU is in range.
        padded = (slots < 0) | ((np.arange(len(slots)) > 0) & (slots == slots[0]))
        slot_map = np.where(padded, -1, slots)
        prev = int(env.episode.prev_assoc[k, 0])
        views.append(Observation(
            gains=np.where(padded, 0.0, gains[k]),
            locations=np.where(
                padded[:, None], NO_RSU_LOCATION,
                np.stack([layout.xs[slot_map], layout.ys[slot_map]], axis=1),
            ),
            prev_location=np.asarray(
                rsu_position(layout, prev) if prev >= 0 else NO_RSU_LOCATION
            ),
            slot_map=slot_map,
        ))
    return views


def check_constraints(
    chosen_rsus: Sequence[Optional[int]], rates: Sequence[float], min_rate: float
) -> tuple[list[int], list[int]]:
    """Contested RSU ids (picked by more than one vehicle), sorted, and the
    indices of vehicles whose rate is under the minimum."""
    seen: dict[int, int] = {}
    for rid in chosen_rsus:
        if rid is not None:
            seen[rid] = seen.get(rid, 0) + 1
    conflicts = sorted(rid for rid, n in seen.items() if n > 1)
    return conflicts, [k for k, r in enumerate(rates) if r < min_rate]


def ring_distance(x1, x2, road_length):
    """Along-road separation on the ring."""
    dx = abs(x1 - x2) % road_length
    return min(dx, road_length - dx)


def observable_rsus(world, layout, cfg, vehicle):
    """Reference slot list: RSUs in coverage as (rsu_id, distance), nearest
    first, ties toward the lower id, truncated to the slot budget."""
    vx = float(world.x[vehicle])
    vy = float(world.lane_y()[vehicle])
    entries = []
    for rid in range(layout.count):
        dx = ring_distance(vx, float(layout.xs[rid]), cfg.road_length)
        dist = math.hypot(dx, vy - float(layout.ys[rid]))
        if dist <= cfg.coverage_radius:
            entries.append((rid, dist))
    entries.sort(key=lambda e: (e[1], e[0]))
    return entries[: cfg.visible_rsus]


def observation_vector(obs: Observation, cfg: EnvConfig) -> np.ndarray:
    """Normalized learner input: gains in dB mapped to ~[0,1], scaled x/y."""
    lo, hi = cfg.gain_db_low, cfg.gain_db_high
    gains_db = np.full(len(obs.gains), lo)
    positive = obs.gains > 0.0
    gains_db[positive] = 10.0 * np.log10(obs.gains[positive])
    gains_norm = (np.clip(gains_db, lo, hi) - lo) / (hi - lo)
    locs = np.concatenate([obs.locations.ravel(), obs.prev_location])
    locs_norm = np.empty_like(locs)
    locs_norm[0::2] = locs[0::2] / cfg.road_length
    locs_norm[1::2] = locs[1::2] / cfg.y_scale
    return np.concatenate([gains_norm, locs_norm])


class PerTsEnv:
    """The environment as it was before episodes were drawn at reset().

    It draws mobility and fading one TS at a time and rebuilds every
    observation each TS. `EdgeAssocEnv` must match it bit for bit.
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
        self.world: Optional[WorldState] = None
        self.gain_table: Optional[np.ndarray] = None  # (K, R) gains of this TS
        self.observations: list[Observation] = []

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

    def reset(self) -> list[np.ndarray]:
        cfg = self.cfg
        k = cfg.num_vehicles
        self.world = WorldState(
            x=self._rng_init.uniform(0.0, cfg.road_length, k),
            speed=self.mean_speeds.copy(),
            lane=np.arange(k) % len(LANE_Y),
            prev_assoc=np.full(k, -1, dtype=int),
            t=1,
        )
        self._sample_gains()
        self._refresh_observations()
        return [observation_vector(o, cfg) for o in self.observations]

    def _compute_distances(self) -> None:
        cfg = self.cfg
        world = self.world
        dx = np.abs(world.x[:, None] - self.layout.xs[None, :]) % cfg.road_length
        dx = np.minimum(dx, cfg.road_length - dx)
        dy = world.lane_y()[:, None] - self.layout.ys[None, :]
        self._dist = np.hypot(dx, dy)  # (K, R), ring metric along the road

    def _sample_gains(self) -> None:
        self._compute_distances()
        fading = self._rng_fading.exponential(size=self._dist.shape)
        self.gain_table = mean_channel_gain(self._dist / 1000.0) * fading

    def _observe(self, vehicle: int) -> Observation:
        cfg = self.cfg
        dist = self._dist[vehicle]
        order = np.argsort(dist, kind="stable")  # stable sort: ties keep lower id
        in_range = order[dist[order] <= cfg.coverage_radius][: cfg.visible_rsus]
        gains = np.zeros(cfg.visible_rsus)
        locations = np.tile(np.asarray(NO_RSU_LOCATION), (cfg.visible_rsus, 1))
        slot_map = np.full(cfg.visible_rsus, -1, dtype=int)
        n = len(in_range)
        gains[:n] = self.gain_table[vehicle, in_range]
        locations[:n, 0] = self.layout.xs[in_range]
        locations[:n, 1] = self.layout.ys[in_range]
        slot_map[:n] = in_range
        prev = int(self.world.prev_assoc[vehicle])
        prev_loc = (
            np.asarray(rsu_position(self.layout, prev))
            if prev >= 0
            else np.asarray(NO_RSU_LOCATION)
        )
        return Observation(
            gains=gains, locations=locations, prev_location=prev_loc, slot_map=slot_map
        )

    def _refresh_observations(self) -> None:
        self.observations = [self._observe(k) for k in range(self.cfg.num_vehicles)]

    # -- stepping -------------------------------------------------------------

    def slot_gains(self) -> np.ndarray:
        """(K, visible_rsus) gain of the RSU each slot resolves to: a padded
        slot's is slot 0's, the nearest RSU's, in range or not."""
        order = np.argsort(self._dist, axis=1, kind="stable")[:, : self.cfg.visible_rsus]
        gains = np.take_along_axis(self.gain_table, order, 1)
        in_range = np.array([o.slot_map >= 0 for o in self.observations])
        return np.where(in_range, gains, gains[:, :1])

    def step(self, actions: Sequence[int]) -> TsResult:
        """Apply one joint action, advance the world one TS.

        Conflicting picks of the same RSU are resolved in favor of the lowest
        vehicle index; losers transmit nothing that TS. Selecting a padded
        slot falls back to the nearest available RSU without a penalty. A
        structurally invalid action index raises ValueError.
        """
        cfg = self.cfg
        if self.world is None:
            raise RuntimeError("call reset() before step()")
        if len(actions) != cfg.num_vehicles:
            raise ValueError("one action per vehicle required")

        decoded = []
        for a in actions:
            idx = int(a)
            if not 0 <= idx < cfg.actions_per_agent:
                raise ValueError(f"action index {idx} out of range")
            decoded.append(divmod(idx, cfg.power_levels))

        power_w = cfg.power_levels_w()
        chosen_rsu: list[Optional[int]] = []
        chosen_power_w = np.zeros(cfg.num_vehicles)
        for k, (slot, level) in enumerate(decoded):
            slot_map = self.observations[k].slot_map
            if slot_map[slot] < 0:
                slot = 0  # padded slot: fall back to the nearest RSU
            rid = int(slot_map[slot])
            chosen_rsu.append(rid if rid >= 0 else None)
            chosen_power_w[k] = power_w[level]

        # Lowest vehicle index wins a contested RSU; losers are muted this TS.
        winners: dict[int, int] = {}
        for k, rid in enumerate(chosen_rsu):
            if rid is not None and rid not in winners:
                winners[rid] = k

        rates = np.zeros(cfg.num_vehicles)
        tx_powers = np.zeros(cfg.num_vehicles)
        ho_flags = np.zeros(cfg.num_vehicles, dtype=int)
        noise_w = float(dbm_to_watt(cfg.noise_dbm))
        for k, rid in enumerate(chosen_rsu):
            prev = int(self.world.prev_assoc[k])
            if rid is None:
                continue
            ho_flags[k] = handover_indicator(prev, rid)
            if winners.get(rid) == k:
                tx_powers[k] = chosen_power_w[k]
                rates[k] = achievable_rate(tx_powers[k], self.gain_table[k, rid], noise_w)

        utilities = np.array(
            [
                utility(float(rates[k]), int(ho_flags[k]), float(tx_powers[k]), cfg)
                for k in range(cfg.num_vehicles)
            ]
        )
        conflicts, rate_below_min = check_constraints(chosen_rsu, rates, cfg.min_rate)
        violations = len(conflicts) + len(rate_below_min)
        penalty = cfg.penalty if violations else 0.0
        reward = float(np.mean(utilities)) + penalty

        assoc = np.array([rid if rid is not None else -1 for rid in chosen_rsu])
        done = self.world.t >= cfg.horizon

        # Advance world: new associations become history, mobility moves on.
        self.world.prev_assoc = assoc.copy()
        noise = self._rng_mobility.standard_normal(cfg.num_vehicles)
        for k in range(cfg.num_vehicles):
            self.world.speed[k] = gauss_markov_speed(
                float(self.world.speed[k]),
                float(self.mean_speeds[k]),
                cfg.speed_std,
                cfg.speed_memory,
                float(noise[k]),
            )
        self.world.x = np.mod(
            self.world.x + self.world.speed * cfg.ts_duration, cfg.road_length
        )
        self.world.t += 1
        self._sample_gains()
        self._refresh_observations()

        return TsResult(
            reward=reward,
            utilities=utilities.tolist(),
            rates=rates.tolist(),
            ho_flags=ho_flags.tolist(),
            tx_powers_w=tx_powers.tolist(),
            assoc_rsus=assoc.tolist(),
            violations=violations,
            penalty=penalty,
            observations=[observation_vector(o, cfg) for o in self.observations],
            done=done,
        )

    # -- state capture (checkpoint support) ----------------------------------

    def get_state(self) -> dict:
        return {
            "cfg": asdict(self.cfg),
            "mean_speeds": self.mean_speeds.tolist(),
            "rng_init": self._rng_init.bit_generator.state,
            "rng_mobility": self._rng_mobility.bit_generator.state,
            "rng_fading": self._rng_fading.bit_generator.state,
        }

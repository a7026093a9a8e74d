"""Freeway environment: vehicles, roadside units, channel, mobility, reward.

Two lanes run along the x axis of a ring road of configurable length. RSUs sit
in two rows, one on each side of the road, evenly spaced. Each time slot (TS)
every vehicle picks one of the RSUs it can currently observe plus a discrete
transmit power level; the environment resolves conflicts, computes per-vehicle
rates and trade-off utilities, and returns a shared scalar reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

# Geometry of the two-lane freeway (m). Lanes carry the vehicles, the RSU rows
# sit beyond the outer shoulders.
LANE_Y = (0.0, 4.0)
RSU_ROW_Y = (-10.0, 14.0)

# Sentinel location for "no RSU in this slot" / "no previous association",
# in raw (pre-normalization) coordinates.
NO_RSU_LOCATION = (-1.0, -1.0)


@dataclass
class EnvConfig:
    """Static parameters of the freeway world and the reward trade-off."""

    num_vehicles: int = 2
    num_rsus: int = 12
    road_length: float = 1000.0          # m
    coverage_radius: float = 200.0       # m
    visible_rsus: int = 4                # max RSU slots per observation
    power_levels: int = 4
    power_min_dbm: float = 23.0
    power_max_dbm: float = 35.0
    min_rate: float = 8.0                # bit/s/Hz
    noise_dbm: float = -114.0
    weight_rate: float = 0.5
    weight_handover: float = 0.25
    weight_power: float = 0.25
    penalty: float = -1.0                # added to the reward on any violation
    horizon: int = 100                   # TS per episode
    ts_duration: float = 1.0             # s
    mean_speed_low: float = 5.0          # m/s, per-vehicle mean speed draw range
    mean_speed_high: float = 10.0
    mean_speeds: Optional[tuple[float, ...]] = None  # explicit per-vehicle means
    speed_std: float = 0.1               # m/s
    speed_memory: float = 0.1            # autoregressive memory depth in [0, 1]
    # Normalization constants for learner inputs; fixed here so runs reproduce.
    gain_db_low: float = -130.0
    gain_db_high: float = -40.0
    y_scale: float = 20.0

    def validate(self) -> None:
        if self.num_vehicles < 1:
            raise ValueError("num_vehicles must be >= 1")
        if self.num_rsus < self.num_vehicles:
            raise ValueError("num_rsus must be >= num_vehicles")
        if self.num_rsus % 2 != 0:
            raise ValueError("num_rsus must be even (equal counts per roadside)")
        if not 1 <= self.visible_rsus <= self.num_rsus:
            raise ValueError("visible_rsus must be in [1, num_rsus]")
        if self.power_levels < 2:
            raise ValueError("power_levels must be >= 2")
        if self.power_min_dbm >= self.power_max_dbm:
            raise ValueError("power_min_dbm must be < power_max_dbm")
        if self.min_rate <= 0:
            raise ValueError("min_rate must be > 0")
        if self.road_length <= 0 or self.coverage_radius <= 0:
            raise ValueError("road_length and coverage_radius must be > 0")
        for name in ("weight_rate", "weight_handover", "weight_power"):
            w = getattr(self, name)
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {w}")
        if not 0.0 <= self.speed_memory <= 1.0:
            raise ValueError("speed_memory must be in [0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.ts_duration <= 0:
            raise ValueError("ts_duration must be > 0")
        if self.mean_speed_low <= 0 or self.mean_speed_high < self.mean_speed_low:
            raise ValueError("mean speed range must satisfy 0 < low <= high")
        if self.mean_speeds is not None and len(self.mean_speeds) != self.num_vehicles:
            raise ValueError("mean_speeds must have one entry per vehicle")
        if self.speed_std < 0:
            raise ValueError("speed_std must be >= 0")

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


def sample_channel_gain(distance_km: float, rng: np.random.Generator) -> float:
    """Draw one linear channel gain: path loss times a fading power factor.

    The fading factor is the squared magnitude of unit-variance complex
    fading, i.e. exponentially distributed with mean 1.
    """
    return mean_channel_gain(distance_km) * rng.exponential()


def achievable_rate(tx_power_w: float, gain: float, noise_w: float) -> float:
    """Downlink spectral efficiency log2(1 + P*G/N) in bit/s/Hz."""
    return math.log2(1.0 + tx_power_w * gain / noise_w)


# --------------------------------------------------------------------------
# Mobility
# --------------------------------------------------------------------------

def gauss_markov_speed(
    speed: float, mean_speed: float, std: float, memory: float, noise: float
) -> float:
    """One autoregressive speed update with memory depth in [0, 1].

    `noise` is a standard normal draw. The stationary distribution has mean
    `mean_speed` and standard deviation `std` for any memory < 1.
    """
    return (
        memory * speed
        + (1.0 - memory) * mean_speed
        + std * math.sqrt(1.0 - memory * memory) * noise
    )


# --------------------------------------------------------------------------
# Static layout and dynamic state
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RsuLayout:
    """Positions of all RSUs; ids 0..R/2-1 south row, R/2..R-1 north row."""

    xs: np.ndarray     # (R,)
    ys: np.ndarray     # (R,)
    sides: tuple[str, ...]

    @property
    def count(self) -> int:
        return len(self.xs)

    def position(self, rsu_id: int) -> tuple[float, float]:
        return float(self.xs[rsu_id]), float(self.ys[rsu_id])


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
    sides = ("south",) * per_side + ("north",) * per_side
    return RsuLayout(xs=xs, ys=ys, sides=sides)


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

    def copy(self) -> "WorldState":
        return WorldState(
            x=self.x.copy(), speed=self.speed.copy(), lane=self.lane.copy(),
            prev_assoc=self.prev_assoc.copy(), t=self.t,
        )


# --------------------------------------------------------------------------
# Observations and actions
# --------------------------------------------------------------------------

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

    def to_vector(self, cfg: EnvConfig) -> np.ndarray:
        """Normalized learner input: gains in dB mapped to ~[0,1], scaled x/y."""
        lo, hi = cfg.gain_db_low, cfg.gain_db_high
        gains_db = np.full(len(self.gains), lo)
        positive = self.gains > 0.0
        gains_db[positive] = 10.0 * np.log10(self.gains[positive])
        gains_norm = (np.clip(gains_db, lo, hi) - lo) / (hi - lo)
        locs = np.concatenate([self.locations.ravel(), self.prev_location])
        locs_norm = np.empty_like(locs)
        locs_norm[0::2] = locs[0::2] / cfg.road_length
        locs_norm[1::2] = locs[1::2] / cfg.y_scale
        return np.concatenate([gains_norm, locs_norm])


@dataclass(frozen=True)
class AgentAction:
    """One association slot pick plus one transmit power level."""

    rsu_slot: int
    power_level: int

    def to_index(self, power_levels: int) -> int:
        return self.rsu_slot * power_levels + self.power_level

    @staticmethod
    def from_index(index: int, power_levels: int) -> "AgentAction":
        return AgentAction(index // power_levels, index % power_levels)


def handover_indicator(prev_assoc: Optional[int], cur_assoc: int) -> int:
    """1 iff a previous association exists and differs from the current one."""
    if prev_assoc is None or prev_assoc < 0:
        return 0
    return int(prev_assoc != cur_assoc)


def utility(rate: float, ho: int, tx_power_w: float, cfg: EnvConfig) -> float:
    """Normalized trade-off of rate benefit against handover and power cost."""
    p_max_w = float(dbm_to_watt(cfg.power_max_dbm))
    return (
        cfg.weight_rate * rate / cfg.min_rate
        - cfg.weight_handover * ho
        - cfg.weight_power * tx_power_w / p_max_w
    )


@dataclass
class Violations:
    """Constraint violations of one joint step."""

    conflicts: list[int] = field(default_factory=list)        # contested RSU ids
    rate_below_min: list[int] = field(default_factory=list)   # vehicle indices

    def __bool__(self) -> bool:
        return bool(self.conflicts or self.rate_below_min)

    def count(self) -> int:
        return len(self.conflicts) + len(self.rate_below_min)


def check_constraints(
    chosen_rsus: Sequence[Optional[int]], rates: Sequence[float], min_rate: float
) -> Violations:
    """Flag RSUs picked by more than one vehicle and rates under the minimum."""
    seen: dict[int, int] = {}
    conflicts = []
    for rid in chosen_rsus:
        if rid is None:
            continue
        seen[rid] = seen.get(rid, 0) + 1
    for rid, n in seen.items():
        if n > 1:
            conflicts.append(rid)
    rate_low = [k for k, r in enumerate(rates) if r < min_rate]
    return Violations(conflicts=sorted(conflicts), rate_below_min=rate_low)


@dataclass
class StepResult:
    """Outcome of one joint TS."""

    reward: float
    utilities: np.ndarray      # (K,)
    rates: np.ndarray          # (K,) bit/s/Hz
    ho_flags: np.ndarray       # (K,) {0,1}
    tx_powers_w: np.ndarray    # (K,) actual transmit power, 0 for unserved
    assoc_rsus: np.ndarray     # (K,) chosen RSU id, -1 when none available
    violations: Violations
    observations: list[np.ndarray]  # next normalized observation vectors
    done: bool


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------

class EdgeAssocEnv:
    """Discrete-time joint association / power environment.

    Deterministic given its seed: mobility, fading and initial placement each
    use a dedicated random stream spawned from it. `reset()` starts a new
    episode while consuming those streams in order, so repeated episodes under
    one seed are reproducible as a whole sequence.
    """

    def __init__(self, cfg: EnvConfig, seed: int):
        cfg.validate()
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
        return [o.to_vector(cfg) for o in self.observations]

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
            np.asarray(self.layout.position(prev))
            if prev >= 0
            else np.asarray(NO_RSU_LOCATION)
        )
        return Observation(
            gains=gains, locations=locations, prev_location=prev_loc, slot_map=slot_map
        )

    def _refresh_observations(self) -> None:
        self.observations = [self._observe(k) for k in range(self.cfg.num_vehicles)]

    # -- stepping -------------------------------------------------------------

    def step(self, actions: Sequence[Union[int, AgentAction]]) -> StepResult:
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
            if isinstance(a, AgentAction):
                act = a
            else:
                idx = int(a)
                if not 0 <= idx < cfg.actions_per_agent:
                    raise ValueError(f"action index {idx} out of range")
                act = AgentAction.from_index(idx, cfg.power_levels)
            if not (0 <= act.rsu_slot < cfg.visible_rsus and 0 <= act.power_level < cfg.power_levels):
                raise ValueError(f"malformed action {act}")
            decoded.append(act)

        power_w = cfg.power_levels_w()
        chosen_rsu: list[Optional[int]] = []
        chosen_power_w = np.zeros(cfg.num_vehicles)
        for k, act in enumerate(decoded):
            slot_map = self.observations[k].slot_map
            slot = act.rsu_slot
            if slot_map[slot] < 0:
                slot = 0  # padded slot: fall back to the nearest RSU
            rid = int(slot_map[slot])
            chosen_rsu.append(rid if rid >= 0 else None)
            chosen_power_w[k] = power_w[act.power_level]

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
            ho_flags[k] = handover_indicator(prev if prev >= 0 else None, rid)
            if winners.get(rid) == k:
                tx_powers[k] = chosen_power_w[k]
                rates[k] = achievable_rate(tx_powers[k], self.gain_table[k, rid], noise_w)

        utilities = np.array(
            [
                utility(float(rates[k]), int(ho_flags[k]), float(tx_powers[k]), cfg)
                for k in range(cfg.num_vehicles)
            ]
        )
        violations = check_constraints(chosen_rsu, rates, cfg.min_rate)
        reward = float(np.mean(utilities)) + (cfg.penalty if violations else 0.0)

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

        return StepResult(
            reward=reward,
            utilities=utilities,
            rates=rates,
            ho_flags=ho_flags,
            tx_powers_w=tx_powers,
            assoc_rsus=assoc,
            violations=violations,
            observations=[o.to_vector(cfg) for o in self.observations],
            done=done,
        )

    # -- state capture (checkpoint support) ----------------------------------

    def get_state(self) -> dict:
        return {
            "world": None if self.world is None else {
                "x": self.world.x.tolist(),
                "speed": self.world.speed.tolist(),
                "lane": self.world.lane.tolist(),
                "prev_assoc": self.world.prev_assoc.tolist(),
                "t": self.world.t,
            },
            # Already-drawn gains go along so restoring never replays the stream.
            "gain_table": None if self.gain_table is None else self.gain_table.tolist(),
            "mean_speeds": self.mean_speeds.tolist(),
            "rng_init": self._rng_init.bit_generator.state,
            "rng_mobility": self._rng_mobility.bit_generator.state,
            "rng_fading": self._rng_fading.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        self.mean_speeds = np.asarray(state["mean_speeds"], dtype=float)
        self._rng_init.bit_generator.state = state["rng_init"]
        self._rng_mobility.bit_generator.state = state["rng_mobility"]
        self._rng_fading.bit_generator.state = state["rng_fading"]
        w = state["world"]
        if w is None:
            self.world = None
            self.gain_table = None
            self.observations = []
        else:
            self.world = WorldState(
                x=np.asarray(w["x"], dtype=float),
                speed=np.asarray(w["speed"], dtype=float),
                lane=np.asarray(w["lane"], dtype=int),
                prev_assoc=np.asarray(w["prev_assoc"], dtype=int),
                t=int(w["t"]),
            )
            self._compute_distances()
            self.gain_table = np.asarray(state["gain_table"], dtype=float)
            self._refresh_observations()

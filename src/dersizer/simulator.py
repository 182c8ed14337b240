"""Reference microgrid operation simulator.

Implements a deterministic dispatch policy (renewables, then battery, then
diesel), plus the single-threaded cache that holds one search's evaluation
state: the metrics of every design, the load invariants, and the pre-diesel
dispatch of recent non-diesel capacity vectors. Power in kW, energy in kWh,
durations in seconds.
"""

from __future__ import annotations

import functools
import math
import struct
from collections import OrderedDict
from dataclasses import dataclass, replace
from datetime import datetime
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    EPS_POWER,
    DerKind,
    DerSpec,
    DesignSpace,
    EvaluatedDesign,
    LoadProfile,
    MicrogridDesign,
    SimulationOutcome,
    deficit_ratio,
    unused_ratio,
)


@dataclass(frozen=True)
class DispatchConfig:
    """Tunable parameters of the reference dispatch policy."""

    pv_daylight_start: float = 6.0
    pv_daylight_end: float = 18.0
    pv_peak_factor: float = 1.0
    wind_capacity_factor: float | tuple[float, ...] = 0.35
    bess_charge_efficiency: float = 0.95
    bess_discharge_efficiency: float = 0.95
    bess_min_soc: float = 0.10
    bess_initial_soc: float = 1.00

    def __post_init__(self) -> None:
        if isinstance(self.wind_capacity_factor, (list, tuple)):
            object.__setattr__(self, "wind_capacity_factor", tuple(self.wind_capacity_factor))
            factors = self.wind_capacity_factor
        else:
            factors = (self.wind_capacity_factor,)
        for f in factors:
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"wind capacity factor {f} outside [0, 1]")
        for label in ("pv_daylight_start", "pv_daylight_end"):
            if not math.isfinite(getattr(self, label)):
                raise ValueError(f"{label} must be finite, got {getattr(self, label)}")
        for label, value in (
            ("pv_peak_factor", self.pv_peak_factor),
            ("bess_charge_efficiency", self.bess_charge_efficiency),
            ("bess_discharge_efficiency", self.bess_discharge_efficiency),
            ("bess_initial_soc", self.bess_initial_soc),
        ):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{label} must be in (0, 1], got {value}")
        if not 0.0 <= self.bess_min_soc < self.bess_initial_soc:
            raise ValueError("bess_min_soc must satisfy 0 <= min_soc < initial_soc")


@dataclass(frozen=True)
class BessState:
    """Battery energy state; power limits derive from capacity and ratios."""

    energy_stored: float
    energy_capacity: float
    max_charge_power: float
    max_discharge_power: float


def pv_availability(times: Sequence[datetime], config: DispatchConfig) -> np.ndarray:
    """Per-step PV output fraction: clamped half-sine over the daylight window."""
    start, end = config.pv_daylight_start, config.pv_daylight_end
    if end <= start:
        raise ValueError(f"pv daylight window is empty: start={start}, end={end}")
    span = end - start
    factors = np.zeros(len(times))
    for t, stamp in enumerate(times):
        h = stamp.hour + stamp.minute / 60.0 + stamp.second / 3600.0 + stamp.microsecond / 3.6e9
        if start <= h <= end:
            factors[t] = config.pv_peak_factor * max(0.0, math.sin(math.pi * (h - start) / span))
    return factors


def wind_availability(n_steps: int, config: DispatchConfig) -> np.ndarray:
    """Per-step wind output fraction: constant or a supplied series."""
    wf = config.wind_capacity_factor
    if isinstance(wf, tuple):
        if len(wf) != n_steps:
            raise ValueError(f"wind series has {len(wf)} steps, load has {n_steps}")
        return np.asarray(wf, dtype=float)
    return np.full(n_steps, float(wf))


def initial_bess_state(spec: DerSpec, capacity: float, config: DispatchConfig) -> BessState:
    if spec.kind is not DerKind.BATTERY_STORAGE:
        raise ValueError(f"{spec.name} is not battery storage")
    return BessState(
        energy_stored=config.bess_initial_soc * capacity,
        energy_capacity=capacity,
        max_charge_power=capacity / spec.charge_ratio,
        max_discharge_power=capacity / spec.discharge_ratio,
    )


def discharge_capability_kw(state: BessState, config: DispatchConfig, duration_s: float) -> float:
    """Max power the battery could deliver this step without breaching min SoC."""
    usable = state.energy_stored - config.bess_min_soc * state.energy_capacity
    if usable <= 0:
        return 0.0
    hours = duration_s / 3600.0
    return min(state.max_discharge_power, usable * config.bess_discharge_efficiency / hours)


@functools.lru_cache(maxsize=64)
def _merit_indices(space: DesignSpace) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    pv = tuple(i for i, d in enumerate(space.ders) if d.kind is DerKind.PHOTOVOLTAIC)
    wind = tuple(i for i, d in enumerate(space.ders) if d.kind is DerKind.WIND_TURBINE)
    bess = tuple(i for i, d in enumerate(space.ders) if d.kind is DerKind.BATTERY_STORAGE)
    diesel = tuple(i for i, d in enumerate(space.ders) if d.kind is DerKind.DIESEL_GENERATOR)
    return pv, wind, bess, diesel


def dispatch_step(
    space: DesignSpace,
    demand_kw: float,
    availabilities: Sequence[float],
    bess_states: tuple[BessState, ...],
    config: DispatchConfig,
    duration_s: float,
) -> tuple[tuple[float, ...], tuple[BessState, ...], int]:
    """Serve one step of demand and return (per-DER used kW, new states, deficit flag).

    Merit order: PV, then wind, serve load up to availability; leftover
    renewable surplus charges the batteries; batteries discharge for the
    remaining load; diesel covers the rest up to nameplate. Battery entries
    in `availabilities` are ignored (limits come from the state). Renewable
    power spent charging is reported as used.
    """
    pv_idx, wind_idx, bess_idx, diesel_idx = _merit_indices(space)
    hours = duration_s / 3600.0
    used = [0.0] * len(space.ders)

    remaining = demand_kw
    for i in pv_idx + wind_idx:
        take = min(remaining, availabilities[i])
        if take > 0:
            used[i] = take
            remaining -= take

    new_states = list(bess_states)
    eta_c = config.bess_charge_efficiency
    for b in range(len(bess_idx)):
        state = new_states[b]
        headroom = state.energy_capacity - state.energy_stored
        if headroom <= 0:
            continue
        budget = min(state.max_charge_power, headroom / (eta_c * hours))
        charged = 0.0
        for j in pv_idx + wind_idx:
            surplus = availabilities[j] - used[j]
            take = min(surplus, budget - charged)
            if take > 0:
                used[j] += take
                charged += take
        if charged > 0:
            new_states[b] = replace(state, energy_stored=state.energy_stored + charged * eta_c * hours)

    eta_d = config.bess_discharge_efficiency
    for b, i in enumerate(bess_idx):
        if remaining <= 0:
            break
        state = new_states[b]
        give = min(remaining, discharge_capability_kw(state, config, duration_s))
        if give > 0:
            used[i] = give
            remaining -= give
            new_states[b] = replace(state, energy_stored=state.energy_stored - give * hours / eta_d)

    for i in diesel_idx:
        take = min(remaining, availabilities[i])
        if take > 0:
            used[i] = take
            remaining -= take

    flag = 1 if remaining > EPS_POWER else 0
    return tuple(used), tuple(new_states), flag


class _LoadInvariants(NamedTuple):
    """What every simulation of one (space, load, config) shares."""

    pv_idx: tuple[int, ...]
    wind_idx: tuple[int, ...]
    bess_idx: tuple[int, ...]
    diesel_idx: tuple[int, ...]
    pv_factors: np.ndarray
    wind_factors: np.ndarray
    demand: np.ndarray
    hours: tuple[float, ...]


def _load_invariants(space: DesignSpace, load: LoadProfile, config: DispatchConfig) -> _LoadInvariants:
    """Computed once per search, by its SimulationCache, not per simulation."""
    pv_factors = pv_availability(load.times, config)
    wind_factors = wind_availability(len(load), config)
    demand = np.asarray(load.demand_kw, dtype=float)
    for arr in (pv_factors, wind_factors, demand):
        arr.flags.writeable = False  # shared by every simulation of the search
    return _LoadInvariants(
        *_merit_indices(space),
        pv_factors=pv_factors,
        wind_factors=wind_factors,
        demand=demand,
        hours=tuple(d / 3600.0 for d in load.durations_s),
    )


def _serve(available: np.ndarray, used: np.ndarray, remaining: np.ndarray) -> np.ndarray:
    """One stateless unit covers what it can of the remaining load at every step.

    Writes the unit's draw into `used` and returns the new remaining load,
    with the same float operations `dispatch_step` applies per step.
    """
    take = np.minimum(remaining, available)
    served = take > 0
    np.copyto(used, take, where=served)
    return np.where(served, remaining - take, remaining)


def _step_batteries(
    space: DesignSpace,
    caps: tuple[float, ...],
    bess: list[int],
    renewables: tuple[int, ...],
    available: np.ndarray,
    used: np.ndarray,
    remaining: np.ndarray,
    hours: tuple[float, ...],
    config: DispatchConfig,
) -> np.ndarray:
    """Run the battery recurrence of `dispatch_step` over time on plain floats.

    Renewable surplus charges the batteries in merit order, then the
    batteries discharge into the remaining load. Fills the battery rows of
    `available` and `used`, adds charging draw to the renewable rows of
    `used`, and returns the load left for diesel. The operation order is
    that of `dispatch_step` and `discharge_capability_kw`, so every value is
    bitwise equal to theirs.
    """
    eta_c = config.bess_charge_efficiency
    eta_d = config.bess_discharge_efficiency
    capacity = [caps[i] for i in bess]
    stored = [config.bess_initial_soc * c for c in capacity]
    floor = [config.bess_min_soc * c for c in capacity]
    max_charge = [caps[i] / space.ders[i].charge_ratio for i in bess]
    max_discharge = [caps[i] / space.ders[i].discharge_ratio for i in bess]
    n_steps = len(hours)
    bess_available = [[0.0] * n_steps for _ in bess]
    bess_used = [[0.0] * n_steps for _ in bess]
    ren_available = [available[j].tolist() for j in renewables]
    ren_used = [used[j].tolist() for j in renewables]
    rest = remaining.tolist()
    batteries = range(len(bess))
    sources = range(len(renewables))

    for t, h in enumerate(hours):
        for b in batteries:
            usable = stored[b] - floor[b]
            if usable > 0:
                bess_available[b][t] = min(max_discharge[b], usable * eta_d / h)

        for b in batteries:
            headroom = capacity[b] - stored[b]
            if headroom <= 0:
                continue
            budget = min(max_charge[b], headroom / (eta_c * h))
            charged = 0.0
            for k in sources:
                take = min(ren_available[k][t] - ren_used[k][t], budget - charged)
                if take > 0:
                    ren_used[k][t] += take
                    charged += take
            if charged > 0:
                stored[b] = stored[b] + charged * eta_c * h

        r = rest[t]
        for b in batteries:
            if r <= 0:
                break
            usable = stored[b] - floor[b]
            if usable <= 0:
                continue
            give = min(r, min(max_discharge[b], usable * eta_d / h))
            if give > 0:
                bess_used[b][t] = give
                r -= give
                stored[b] = stored[b] - give * h / eta_d
        rest[t] = r

    for k, j in enumerate(renewables):
        used[j] = ren_used[k]
    for b, i in enumerate(bess):
        available[i] = bess_available[b]
        used[i] = bess_used[b]
    return np.array(rest)


# Float budget of one search's pre-diesel memo (1 MiB of float64): about 48
# entries at 672 steps with one PV array and one battery, and all 196 of a
# 14-level oracle on a 48-step day. Doubling it saved 12% of the dispatch runs
# of a 672-step two-week search but raised its peak memory by about 3%.
PRE_DIESEL_MEMO_FLOATS = 2**17


class _PreDiesel(NamedTuple):
    """What the dispatch before diesel leaves for one non-diesel capacity vector."""

    used: np.ndarray  # renewable rows (charging included), then charged-battery rows
    bess_available: np.ndarray
    residual: np.ndarray  # the load left for diesel


class SimulationCache:
    """One search's evaluation state, for one (space, load, config) on one thread.

    The cache binds itself to the input of its first evaluation and raises
    ValueError when given another; an equal but distinct object is the same
    input. It holds the metrics of every design evaluated, keyed by
    `key_for`, the load invariants of its input, and a memo of the pre-diesel
    dispatch keyed on the bit-exact non-diesel capacities, whose least
    recently used entries go once its arrays exceed PRE_DIESEL_MEMO_FLOATS
    floats. Not safe for concurrent use.
    """

    def __init__(self) -> None:
        self._inputs: tuple[DesignSpace, LoadProfile, DispatchConfig] | None = None
        self._invariants: _LoadInvariants | None = None
        self._designs: dict[tuple[float, ...], EvaluatedDesign] = {}
        self._pre_diesel: OrderedDict[bytes, _PreDiesel] = OrderedDict()
        self._pre_diesel_floats = 0
        self.dispatch_runs = 0  # pre-diesel dispatches run; at most `unique_simulations`

    @staticmethod
    def key_for(design: MicrogridDesign) -> tuple[float, ...]:
        # round for key stability; +0.0 folds -0.0 into 0.0
        return tuple(round(c, 6) + 0.0 for c in design.capacities)

    @property
    def unique_simulations(self) -> int:
        return len(self._designs)

    def _bind(self, space: DesignSpace, load: LoadProfile, config: DispatchConfig) -> _LoadInvariants:
        """The load invariants of this cache's input; the first call sets that input."""
        inputs = (space, load, config)
        if self._inputs is None:
            self._invariants = _load_invariants(space, load, config)
            self._inputs = inputs
        elif inputs != self._inputs:  # identical objects compare without a field walk
            raise ValueError("this SimulationCache serves another (space, load, config)")
        return self._invariants

    def _recall(self, key: bytes) -> _PreDiesel | None:
        entry = self._pre_diesel.get(key)
        if entry is not None:
            self._pre_diesel.move_to_end(key)
        return entry

    def _remember(self, key: bytes, entry: _PreDiesel) -> None:
        for arr in entry:
            arr.flags.writeable = False  # handed to every later hit
        self._pre_diesel[key] = entry
        self._pre_diesel_floats += sum(arr.size for arr in entry)
        while self._pre_diesel_floats > PRE_DIESEL_MEMO_FLOATS:
            _, old = self._pre_diesel.popitem(last=False)
            self._pre_diesel_floats -= sum(arr.size for arr in old)


def _dispatch_before_diesel(
    space: DesignSpace,
    caps: tuple[float, ...],
    bess: list[int],
    inv: _LoadInvariants,
    config: DispatchConfig,
    available: np.ndarray,
    used: np.ndarray,
) -> np.ndarray:
    """Renewables serve load in merit order, then the batteries step through time.

    Needs the renewable rows of `available` filled; fills the renewable and
    battery rows of `used` and the battery rows of `available`, and returns
    the load left for diesel.
    """
    renewables = inv.pv_idx + inv.wind_idx
    remaining = inv.demand
    for i in renewables:
        remaining = _serve(available[i], used[i], remaining)
    if bess:
        remaining = _step_batteries(
            space, caps, bess, renewables, available, used, remaining, inv.hours, config
        )
    return remaining


def operate(
    space: DesignSpace,
    design: MicrogridDesign,
    load: LoadProfile,
    config: DispatchConfig,
    cache: SimulationCache | None = None,
) -> SimulationOutcome:
    """Fold the dispatch policy over the whole load horizon.

    Bitwise equal to folding `dispatch_step` over time, its specification.
    The stateless stages (renewables, then diesel, each serving load in
    merit order) run elementwise over all steps at once; only the battery
    state is stepped in time.

    Diesel is served last and holds no state, and the batteries charge only
    from renewable surplus, so the dispatch before diesel depends on the
    non-diesel capacities alone. It runs only for non-diesel capacities that
    the `cache` (a fresh one when none is given) does not hold, so a design
    that differs from an earlier one only in diesel capacity costs just the
    diesel stage. The outcome does not depend on what the cache holds.
    Raises ValueError when `cache` serves another (space, load, config).
    """
    space.validate_design(design)
    if cache is None:
        cache = SimulationCache()
    inv = cache._bind(space, load, config)
    caps = design.capacities
    available = np.zeros((len(space.ders), len(load)))
    used = np.zeros_like(available)
    for i in inv.pv_idx:
        available[i] = caps[i] * inv.pv_factors
    for i in inv.wind_idx:
        available[i] = caps[i] * inv.wind_factors
    # a zero-capacity battery neither charges nor discharges: its rows stay 0
    bess = [i for i in inv.bess_idx if caps[i] != 0.0]
    rows = [*inv.pv_idx, *inv.wind_idx, *bess]

    key = hit = None
    if bess:  # without a battery there is no recurrence to save
        non_diesel = inv.pv_idx + inv.wind_idx + inv.bess_idx
        key = struct.pack(f"{len(non_diesel)}d", *[caps[i] for i in non_diesel])  # keeps -0.0
        hit = cache._recall(key)
    if hit is not None:
        used[rows] = hit.used
        available[bess] = hit.bess_available
        remaining = hit.residual
    else:
        remaining = _dispatch_before_diesel(space, caps, bess, inv, config, available, used)
        cache.dispatch_runs += 1
        if key is not None:
            cache._remember(key, _PreDiesel(used[rows], available[bess], remaining))

    for i in inv.diesel_idx:
        available[i] = caps[i]
        remaining = _serve(available[i], used[i], remaining)

    return SimulationOutcome(
        deficit_flags=(remaining > EPS_POWER).astype(np.int8),
        per_der_available=available,
        per_der_used=used,
    )


def memoized_operate(
    cache: SimulationCache,
    space: DesignSpace,
    design: MicrogridDesign,
    load: LoadProfile,
    config: DispatchConfig,
) -> EvaluatedDesign:
    """Evaluate a design through the cache, simulating only on a miss.

    Raises ValueError, on a hit as on a miss, when `cache` serves another
    (space, load, config).
    """
    cache._bind(space, load, config)
    key = cache.key_for(design)
    hit = cache._designs.get(key)
    if hit is not None:
        return hit
    outcome = operate(space, design, load, config, cache)
    evaluated = EvaluatedDesign(
        design=design,
        deficit_ratio=deficit_ratio(outcome, load),
        unused_ratios=tuple(
            unused_ratio(outcome, i, design.capacities[i]) for i in range(len(space.ders))
        ),
    )
    cache._designs[key] = evaluated
    return evaluated

"""Microgrid operation simulator.

Implements a deterministic dispatch policy (renewables, then battery, then
diesel), plus the single-threaded cache that holds one search's evaluation
state: the metrics of every design, the load invariants, and the pre-diesel
dispatch of recent non-diesel capacity vectors. Power in kW, energy in kWh,
durations in seconds.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    EPS_POWER,
    DerKind,
    DesignSpace,
    EvaluatedDesign,
    LoadProfile,
    MicrogridDesign,
    SimulationOutcome,
    deficit_ratio,
    unused_ratio,
    unused_ratio_of_rows,
)


@dataclass(frozen=True)
class DispatchConfig:
    """Tunable parameters of the dispatch policy."""

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
        if self.pv_daylight_end <= self.pv_daylight_start:
            raise ValueError(
                f"pv daylight window is empty: start={self.pv_daylight_start}, end={self.pv_daylight_end}"
            )
        for label in ("pv_peak_factor", "bess_charge_efficiency", "bess_discharge_efficiency", "bess_initial_soc"):
            if not 0.0 < getattr(self, label) <= 1.0:
                raise ValueError(f"{label} must be in (0, 1], got {getattr(self, label)}")
        if not 0.0 <= self.bess_min_soc < self.bess_initial_soc:
            raise ValueError("bess_min_soc must satisfy 0 <= min_soc < initial_soc")


def pv_availability(times: Sequence[datetime], config: DispatchConfig) -> np.ndarray:
    """Per-step PV output fraction: clamped half-sine over the daylight window."""
    start, end = config.pv_daylight_start, config.pv_daylight_end
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


def _serve(available: np.ndarray | float, used: np.ndarray, remaining: np.ndarray) -> np.ndarray:
    """One stateless unit covers what it can of the remaining load at every step.

    Writes the unit's draw into `used` and returns the new remaining load,
    with the same float operations that `dispatch_step` in
    `tests/reference.py` applies per step.
    """
    take = np.minimum(remaining, available)
    served = take > 0
    np.copyto(used, take, where=served)
    return np.where(served, remaining - take, remaining)


def _step_batteries(
    cache: SimulationCache,
    caps: tuple[float, ...],
    bess: tuple[int, ...],
    available: list[np.ndarray],
    used: np.ndarray,
    remaining: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the battery recurrence of `dispatch_step` over time, in place.

    Renewable surplus charges the batteries in merit order, then the
    batteries discharge into the remaining load. `available` holds the
    renewables' rows, and `used` their rows, then one row per battery in
    `bess`. Adds charging draw to the renewable rows of `used`, fills its
    battery rows, and returns the battery availability rows and the load
    left for diesel as new arrays. With no battery, it only copies
    `remaining`.

    The loop steps one battery at a time in merit order, each over the
    whole horizon, with its state in locals. It reads and writes the NumPy
    rows in place, through memoryviews that yield and take plain floats,
    and touches only the steps where the battery can act. That is exact:
    - At a step, a battery sees the spare renewable power and the load that
      the batteries before it left at that step, which their whole-horizon
      passes have already written into `used` and the residual, and its own
      state depends only on its own history.
    - A renewable with spare power at a step served all the load left when
      its turn came, so a step with surplus has no load left and a step
      with load left has no surplus. Steps therefore fall into alternating
      runs with and without surplus, and each run takes only the charge
      branch or only the discharge branch.
    - Once a battery is full in a surplus run, or at or below its floor in
      a run without surplus, the rest of that run changes nothing for it,
      and it skips that rest.
    The energy a battery stores at the start of every step is recorded, by
    slice over each skipped stretch, and its `available` row is computed
    from it after its pass with `discharge_capability_kw`'s operations in
    its order. Each `min(a, b)` of `dispatch_step` is written as a
    conditional that keeps `min`'s tie rule (a wins unless b < a), so every
    value is bitwise equal to the folded `dispatch_step`, the specification
    in `tests/reference.py`.
    """
    space, config = cache.space, cache.config
    eta_c = config.bess_charge_efficiency
    eta_d = config.bess_discharge_efficiency
    n_steps = len(cache.hours)
    hours = cache.hours_list
    surplus = np.zeros(n_steps, dtype=bool)
    for source_available, source_used in zip(available, used):
        surplus |= source_available > source_used  # a - u > 0 exactly when a > u
    # runs of steps with surplus and of steps without alternate, split at these bounds
    bounds = [0, *(np.flatnonzero(surplus[1:] != surplus[:-1]) + 1).tolist(), n_steps]
    runs = list(zip(bounds, bounds[1:], surplus[bounds[:-1]].tolist()))  # (start, end, with surplus)
    sources = [(memoryview(a), memoryview(u)) for a, u in zip(available, used)]
    residual = remaining.copy()  # `remaining` may be the cache's read-only demand
    rest = memoryview(residual)
    bess_available = np.empty((len(bess), n_steps))

    for b, i in enumerate(bess):
        capacity = caps[i]
        stored = config.bess_initial_soc * capacity
        floor = config.bess_min_soc * capacity
        max_charge = capacity / space.ders[i].charge_ratio
        max_discharge = capacity / space.ders[i].discharge_ratio
        levels = np.empty(n_steps)  # energy stored at the start of each step
        level = memoryview(levels)
        drawn = memoryview(used[len(available) + b])
        for run_start, run_end, charging in runs:
            if charging:
                for t in range(run_start, run_end):
                    headroom = capacity - stored
                    if headroom <= 0:  # full: the rest of this run changes nothing
                        levels[t:run_end] = stored
                        break
                    level[t] = stored
                    h = hours[t]
                    budget = headroom / (eta_c * h)
                    if not budget < max_charge:
                        budget = max_charge
                    charged = 0.0
                    for source_available, source_used in sources:
                        spare = source_available[t] - source_used[t]
                        take = budget - charged
                        if not take < spare:
                            take = spare
                        if take > 0:
                            source_used[t] += take
                            charged += take
                    if charged > 0:
                        stored = stored + charged * eta_c * h
            else:
                for t in range(run_start, run_end):
                    usable = stored - floor
                    if usable <= 0:  # at its floor: the rest of this run changes nothing
                        levels[t:run_end] = stored
                        break
                    level[t] = stored
                    h = hours[t]
                    r = rest[t]  # with no load left (r <= 0) it gives nothing, but ends no run
                    give = usable * eta_d / h
                    if not give < max_discharge:
                        give = max_discharge
                    if not give < r:
                        give = r
                    if give > 0:
                        drawn[t] = give
                        rest[t] = r - give
                        stored = stored - give * h / eta_d
        usable = levels - floor
        limit = usable * eta_d / cache.hours
        bess_available[b] = np.where(usable > 0, np.where(limit < max_discharge, limit, max_discharge), 0.0)
    return bess_available, residual


# Float budget of one search's pre-diesel memo (1 MiB of float64): about 48
# 4-row entries at 672 steps with one PV array and a battery (2 rows without
# it), and all 196 of a 14-level oracle on a 48-step day (182 battery and 14
# battery-less entries, 36,288 floats). Doubling it saved 17% of the dispatch
# runs of 672-step two-week searches but raised their peak memory by about 3%.
PRE_DIESEL_MEMO_FLOATS = 2**17


class _PreDiesel(NamedTuple):
    """What the dispatch before diesel leaves for one non-diesel capacity vector, and its unused ratios."""

    bess: tuple[int, ...]  # the DER indices of its nonzero batteries, in merit order
    used: np.ndarray  # renewable rows (charging included), then one row per battery in `bess`
    bess_available: np.ndarray
    residual: np.ndarray  # the load left for diesel
    unused: dict[int, float]  # each non-diesel DER's unused ratio, by DER index

    @property
    def floats(self) -> int:
        return self.used.size + self.bess_available.size + self.residual.size


class SimulationCache:
    """One search's evaluation state, for one (space, load, config) on one thread.

    Built for one input, whose invariants it computes once: the merit
    indices, the PV and wind factors, the demand and the step hours (also
    as a list for the battery recurrence). `operate` given the cache raises
    ValueError for another input; an equal but distinct object is the same
    input. It holds:
    - the metrics of every design evaluated, keyed by its capacity vector (`key_for`);
    - the memo of what depends on the non-diesel capacities alone, described at `pre_diesel`.
    Not safe for concurrent use.
    """

    def __init__(self, space: DesignSpace, load: LoadProfile, config: DispatchConfig) -> None:
        self.space, self.load, self.config = space, load, config
        merit = (DerKind.PHOTOVOLTAIC, DerKind.WIND_TURBINE, DerKind.BATTERY_STORAGE, DerKind.DIESEL_GENERATOR)
        self.pv_idx, self.wind_idx, self.bess_idx, self.diesel_idx = (
            tuple(i for i, d in enumerate(space.ders) if d.kind is kind) for kind in merit
        )
        self.renewable_idx = self.pv_idx + self.wind_idx
        self.non_diesel_idx = self.renewable_idx + self.bess_idx
        pv_factors = pv_availability(load.times, config)
        wind_factors = wind_availability(len(load), config)
        self.demand = np.asarray(load.demand_kw, dtype=float)
        self.hours = load.durations_array / 3600.0
        for arr in (pv_factors, wind_factors, self.demand, self.hours):
            arr.flags.writeable = False  # shared by every simulation of the search
        # each renewable's index and its output per unit of capacity, in merit order
        self.renewable_factors = [(i, pv_factors) for i in self.pv_idx] + [(i, wind_factors) for i in self.wind_idx]
        self.hours_list = self.hours.tolist()
        self._designs: dict[tuple[float, ...], EvaluatedDesign] = {}
        self._pre_diesel: OrderedDict[tuple[float, ...], _PreDiesel] = OrderedDict()
        self._pre_diesel_floats = 0
        self.dispatch_runs = 0  # pre-diesel dispatches run; at most `unique_simulations`

    @staticmethod
    def key_for(design: MicrogridDesign) -> tuple[float, ...]:
        return design.capacities

    @property
    def unique_simulations(self) -> int:
        return len(self._designs)

    def _check_input(self, space: DesignSpace, load: LoadProfile, config: DispatchConfig) -> None:
        # identical objects compare without a field walk
        if (space, load, config) != (self.space, self.load, self.config):
            raise ValueError("this SimulationCache serves another (space, load, config)")

    def pre_diesel(self, caps: tuple[float, ...]) -> _PreDiesel:
        """The dispatch before diesel for `caps`: one entry that names its nonzero batteries and holds its rows.

        Renewables serve load in merit order, then the batteries step through
        time (`_step_batteries`, which with no battery copies the residual).
        A zero-capacity battery neither charges nor discharges, so it is not
        in `entry.bess`. Diesel is served last, holds no state and writes only
        its own rows, and batteries charge only from renewable surplus, so
        this, and the non-diesel DERs' unused ratios that the entry computes
        from its rows, depend on the non-diesel capacities alone. It is
        memoised by the tuple of those capacities, as the designs are by
        theirs. Entries are read-only, as later calls share them, and the
        least recently used go once their arrays exceed PRE_DIESEL_MEMO_FLOATS
        floats, but the newest stays even when it alone exceeds them.
        `dispatch_runs` counts the dispatches run; an evicted vector runs
        again to equal arrays.
        """
        key = tuple([caps[i] for i in self.non_diesel_idx])
        entry = self._pre_diesel.get(key)
        if entry is not None:
            self._pre_diesel.move_to_end(key)
            return entry
        self.dispatch_runs += 1
        bess = tuple(i for i in self.bess_idx if caps[i] != 0.0)
        available = [caps[i] * factors for i, factors in self.renewable_factors]
        used = np.zeros((len(available) + len(bess), len(self.hours)))
        remaining = self.demand
        for source_available, source_used in zip(available, used):
            remaining = _serve(source_available, source_used, remaining)
        bess_available, residual = _step_batteries(self, caps, bess, available, used, remaining)
        unused = dict.fromkeys(self.non_diesel_idx, -1.0)  # a zero-capacity battery has no rows
        for i, available_row, used_row in zip((*self.renewable_idx, *bess), (*available, *bess_available), used):
            unused[i] = unused_ratio_of_rows(available_row, used_row, caps[i])
        for arr in (used, bess_available, residual):
            arr.flags.writeable = False
        entry = self._pre_diesel[key] = _PreDiesel(bess, used, bess_available, residual, unused)
        self._pre_diesel_floats += entry.floats
        while self._pre_diesel_floats > PRE_DIESEL_MEMO_FLOATS and len(self._pre_diesel) > 1:
            _, old = self._pre_diesel.popitem(last=False)
            self._pre_diesel_floats -= old.floats
        return entry


def operate(
    space: DesignSpace,
    design: MicrogridDesign,
    load: LoadProfile,
    config: DispatchConfig,
    cache: SimulationCache | None = None,
) -> SimulationOutcome:
    """Fold the dispatch policy over the whole load horizon.

    Bitwise equal to folding `dispatch_step` over time, its specification,
    which `tests/reference.py` holds. Every call copies the rows of the
    dispatch before diesel from `cache.pre_diesel` (a new cache for this
    input when none is given), then serves diesel in merit order,
    elementwise over all steps. The outcome does not depend on what the
    cache holds. Raises ValueError when `cache` serves another (space,
    load, config).
    """
    space.validate_design(design)
    if cache is None:
        cache = SimulationCache(space, load, config)
    else:
        cache._check_input(space, load, config)
    caps = design.capacities
    entry = cache.pre_diesel(caps)
    available = np.zeros((len(space.ders), len(load)))
    used = np.zeros(available.shape)
    for i, factors in cache.renewable_factors:
        available[i] = caps[i] * factors
    for i, row in zip((*cache.renewable_idx, *entry.bess), entry.used):
        used[i] = row
    for i, row in zip(entry.bess, entry.bess_available):
        available[i] = row
    remaining = entry.residual
    for i in cache.diesel_idx:
        available[i] = caps[i]
        remaining = _serve(caps[i], used[i], remaining)

    return SimulationOutcome(
        deficit_flags=(remaining > EPS_POWER).astype(np.int8),
        per_der_available=available,
        per_der_used=used,
    )


def memoized_operate(cache: SimulationCache, *, design: MicrogridDesign) -> EvaluatedDesign:
    """Evaluate a design on the cache's own input, simulating only on a miss.

    The key is the capacity vector itself. A hit validates nothing again:
    every stored design passed `validate_design` in `operate`, which depends
    only on the capacities, and a hit has exactly the same ones. A miss
    runs `operate` once (see `SimulationCache.pre_diesel` for what it
    reuses), then takes the non-diesel unused ratios from the pre-diesel
    entry, which stays the newest, and computes only the diesel ones. The
    metrics equal those of an evaluation without the cache bit for bit.
    """
    key = cache.key_for(design)
    hit = cache._designs.get(key)
    if hit is not None:
        return hit
    outcome = operate(cache.space, design, cache.load, cache.config, cache)
    unused = cache.pre_diesel(design.capacities).unused
    ratios = [unused[i] if i in unused else unused_ratio(outcome, i, c) for i, c in enumerate(design.capacities)]
    evaluated = EvaluatedDesign(design, deficit_ratio(outcome, cache.load), tuple(ratios))
    cache._designs[key] = evaluated
    return evaluated

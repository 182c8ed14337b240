"""Test-side specifications that the package's fast paths are checked against.

`dispatch_step` states the dispatch policy for one time step, and
`fold_dispatch_step` folds it over a load horizon: the outcome that
`simulator.operate` must equal bit for bit. `diesel_bisection_frontier`
is the exact frontier of a capacity grid, against which the search's
recall is measured.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from dersizer.core import (
    EPS_POWER,
    CapacityGrid,
    DerKind,
    DerSpec,
    DesignSpace,
    EvaluatedDesign,
    LoadProfile,
    MicrogridDesign,
    SimulationOutcome,
    non_dominated,
)
from dersizer.simulator import (
    DispatchConfig,
    SimulationCache,
    memoized_operate,
    pv_availability,
    wind_availability,
)


@dataclass(frozen=True)
class BessState:
    """Battery energy state; power limits derive from capacity and ratios."""

    energy_stored: float
    energy_capacity: float
    max_charge_power: float
    max_discharge_power: float


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


def merit_indices(space: DesignSpace) -> tuple[tuple[int, ...], ...]:
    """The DER indices of each kind, in merit order: PV, wind, battery, diesel."""
    merit = (DerKind.PHOTOVOLTAIC, DerKind.WIND_TURBINE, DerKind.BATTERY_STORAGE, DerKind.DIESEL_GENERATOR)
    return tuple(tuple(i for i, d in enumerate(space.ders) if d.kind is kind) for kind in merit)


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
    pv_idx, wind_idx, bess_idx, diesel_idx = merit_indices(space)
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


def fold_dispatch_step(
    space: DesignSpace, design: MicrogridDesign, load: LoadProfile, config: DispatchConfig
) -> SimulationOutcome:
    """The SimulationOutcome defined by stepping dispatch_step through the horizon."""
    caps = design.capacities
    kinds = [d.kind for d in space.ders]
    bess_idx = [i for i, k in enumerate(kinds) if k is DerKind.BATTERY_STORAGE]
    pv_factors = pv_availability(load.times, config)
    wind_factors = wind_availability(len(load), config)
    available = np.zeros((len(space.ders), len(load)))
    for i, kind in enumerate(kinds):
        if kind is DerKind.PHOTOVOLTAIC:
            available[i] = caps[i] * pv_factors
        elif kind is DerKind.WIND_TURBINE:
            available[i] = caps[i] * wind_factors
        elif kind is DerKind.DIESEL_GENERATOR:
            available[i] = caps[i]
    states = tuple(initial_bess_state(space.ders[i], caps[i], config) for i in bess_idx)
    used_rows, flags = [], []
    for t in range(len(load)):
        duration = load.durations_s[t]
        for b, i in enumerate(bess_idx):
            available[i, t] = discharge_capability_kw(states[b], config, duration)
        used_t, states, flag = dispatch_step(
            space, load.demand_kw[t], available[:, t].tolist(), states, config, duration
        )
        used_rows.append(used_t)
        flags.append(flag)
    return SimulationOutcome(
        deficit_flags=np.array(flags, dtype=np.int8),
        per_der_available=available,
        per_der_used=np.array(used_rows).T.copy(),
    )


def diesel_bisection_frontier(
    cache: SimulationCache, grids: Sequence[CapacityGrid], threshold: float
) -> list[EvaluatedDesign]:
    """The non-dominated designs of the whole grid with a deficit ratio within `threshold`.

    Assumes only that the deficit ratio never grows with the first diesel's
    capacity, which holds bit for bit: diesel is served last, holds no
    state, and `r - min(r, d)` cannot grow with `d`. For every level vector
    of the other DERs, bisection finds the lowest diesel level within the
    threshold; stepping up from there until the deficit is zero meets every
    design of that column that no lower diesel level dominates. Evaluates
    through `memoized_operate`, so `cache.unique_simulations` counts its cost.
    """
    space = cache.space
    diesel = next(i for i, d in enumerate(space.ders) if d.kind is DerKind.DIESEL_GENERATOR)
    top = grids[diesel].n_intervals
    others = [range(g.n_intervals + 1) for i, g in enumerate(grids) if i != diesel]

    found: list[EvaluatedDesign] = []
    for rest in itertools.product(*others):
        column = [
            MicrogridDesign(tuple([g.points[k] for g, k in zip(grids, (*rest[:diesel], level, *rest[diesel:]))]))
            for level in range(top + 1)
        ]
        if memoized_operate(cache, design=column[top]).deficit_ratio > threshold:
            continue
        low, high = -1, top  # the lowest level within the threshold lies in (low, high]
        while high - low > 1:
            mid = (low + high) // 2
            if memoized_operate(cache, design=column[mid]).deficit_ratio <= threshold:
                high = mid
            else:
                low = mid
        for design in column[high:]:
            found.append(memoized_operate(cache, design=design))
            if found[-1].deficit_ratio == 0:
                break
    return non_dominated(found)

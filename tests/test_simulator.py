"""Dispatch policy, availability models, cache semantics, and the
monotonicity property the pruning stage depends on."""

import math
import random
from dataclasses import replace
from datetime import datetime, timedelta
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dersizer import simulator
from dersizer.core import (
    EPS_POWER,
    DerKind,
    DerSpec,
    DesignSpace,
    EvaluatedDesign,
    LoadProfile,
    MicrogridDesign,
    capacity_grid,
    deficit_ratio,
    unused_ratio,
)
from dersizer.simulator import (
    DispatchConfig,
    SimulationCache,
    memoized_operate,
    operate,
    pv_availability,
    wind_availability,
)
from dersizer.synthetic import synthetic_load_profile, two_week_profile
from helpers import space_for, with_capacity
from reference import discharge_capability_kw, dispatch_step, fold_dispatch_step, initial_bess_state


def stamps(*hours):
    return tuple(datetime(2024, 3, 4, int(h), int(round((h % 1) * 60))) for h in hours)


@pytest.fixture()
def pv_bess_space():
    return DesignSpace(
        ders=(
            DerSpec(name="pv", kind=DerKind.PHOTOVOLTAIC, upper_bound=500.0),
            DerSpec(
                name="bess",
                kind=DerKind.BATTERY_STORAGE,
                upper_bound=500.0,
                charge_ratio=2.0,
                discharge_ratio=2.0,
            ),
        )
    )


# ---------------------------------------------------------------------------
# availability models

def test_pv_availability_peaks_at_solar_noon():
    factors = pv_availability(stamps(12.0), DispatchConfig())
    assert factors[0] == 1.0


def test_pv_availability_zero_at_midnight():
    factors = pv_availability(stamps(0.0), DispatchConfig())
    assert factors[0] == 0.0


def test_pv_availability_quarter_morning():
    factors = pv_availability(stamps(9.0), DispatchConfig())
    assert factors[0] == pytest.approx(math.sin(math.pi / 4), abs=1e-12)


def test_pv_availability_scales_with_peak_factor():
    factors = pv_availability(stamps(12.0), DispatchConfig(pv_peak_factor=0.8))
    assert factors[0] == pytest.approx(0.8)


def test_pv_availability_rejects_empty_window():
    with pytest.raises(ValueError, match="pv daylight window is empty"):
        pv_availability(stamps(12.0), DispatchConfig(pv_daylight_start=18.0, pv_daylight_end=6.0))


def test_wind_availability_constant_and_series():
    assert np.all(wind_availability(5, DispatchConfig()) == 0.35)
    series = DispatchConfig(wind_capacity_factor=(0.1, 0.2, 0.3))
    assert wind_availability(3, series).tolist() == [0.1, 0.2, 0.3]
    with pytest.raises(ValueError):
        wind_availability(4, series)


def test_dispatch_config_validation():
    with pytest.raises(ValueError):
        DispatchConfig(bess_min_soc=0.9, bess_initial_soc=0.5)
    with pytest.raises(ValueError):
        DispatchConfig(bess_charge_efficiency=0.0)
    with pytest.raises(ValueError):
        DispatchConfig(wind_capacity_factor=1.5)
    with pytest.raises(ValueError, match="pv_daylight_end must be finite"):
        DispatchConfig(pv_daylight_end=math.nan)
    for start, end in ((18.0, 6.0), (12.0, 12.0)):
        with pytest.raises(ValueError, match="pv daylight window is empty"):
            DispatchConfig(pv_daylight_start=start, pv_daylight_end=end)


# ---------------------------------------------------------------------------
# dispatch_step

def test_step_single_source_sufficiency(pv_bess_space):
    config = DispatchConfig()
    state = initial_bess_state(pv_bess_space.ders[1], 0.0, config)
    used, _, flag = dispatch_step(pv_bess_space, 50.0, [60.0, 0.0], (state,), config, 1800.0)
    assert used[0] == 50.0
    assert flag == 0


def test_step_shortfall_flags_deficit():
    space = DesignSpace(
        ders=(DerSpec(name="diesel", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0),)
    )
    used, _, flag = dispatch_step(space, 50.0, [40.0], (), DispatchConfig(), 1800.0)
    assert used[0] == 40.0
    assert flag == 1


def test_step_surplus_charges_battery(pv_bess_space):
    # independent arithmetic: 10 kW of 30 kW PV serves load, the 20 kW
    # surplus is below the 50 kW charge power cap (100 kWh / 2 h), so the
    # store gains 20 kW * (240/3600) h * 0.95
    config = DispatchConfig(bess_initial_soc=0.5)
    state = initial_bess_state(pv_bess_space.ders[1], 100.0, config)
    assert state.energy_stored == 50.0
    assert state.max_charge_power == 50.0
    used, states, flag = dispatch_step(pv_bess_space, 10.0, [30.0, 0.0], (state,), config, 240.0)
    assert used[0] == 30.0  # 10 for load + 20 charging
    assert used[1] == 0.0
    assert states[0].energy_stored == 50.0 + 20.0 * (240.0 / 3600.0) * 0.95
    assert flag == 0


def test_step_charge_respects_power_cap_and_headroom(pv_bess_space):
    config = DispatchConfig(bess_initial_soc=0.5)
    state = initial_bess_state(pv_bess_space.ders[1], 100.0, config)
    # surplus 400 kW but the charge cap is 50 kW
    used, states, _ = dispatch_step(pv_bess_space, 0.0, [400.0, 0.0], (state,), config, 1800.0)
    assert used[0] == 50.0
    assert states[0].energy_stored == pytest.approx(50.0 + 50.0 * 0.5 * 0.95)
    # nearly full: headroom limits the charge power below the cap
    near_full = initial_bess_state(pv_bess_space.ders[1], 100.0, DispatchConfig(bess_initial_soc=0.99))
    used, states, _ = dispatch_step(pv_bess_space, 0.0, [400.0, 0.0], (near_full,), config, 1800.0)
    expected_power = (100.0 - 99.0) / (0.95 * 0.5)
    assert used[0] == pytest.approx(expected_power)
    assert states[0].energy_stored == pytest.approx(100.0)


def test_step_discharge_respects_energy_floor(pv_bess_space):
    config = DispatchConfig(bess_initial_soc=0.2, bess_min_soc=0.1)
    state = initial_bess_state(pv_bess_space.ders[1], 100.0, config)
    # usable energy 10 kWh, deliverable 10 * 0.95 / 0.5h = 19 kW < demand
    used, states, flag = dispatch_step(pv_bess_space, 60.0, [0.0, 0.0], (state,), config, 1800.0)
    assert used[1] == pytest.approx(19.0)
    assert states[0].energy_stored == pytest.approx(10.0)  # exactly at the floor
    assert flag == 1


def test_step_energy_conservation_random_walk(pv_bess_space):
    rng = random.Random(29)
    config = DispatchConfig(bess_initial_soc=0.6)
    state = initial_bess_state(pv_bess_space.ders[1], 200.0, config)
    hours = 0.5
    for _ in range(300):
        demand = rng.uniform(0, 150)
        pv = rng.uniform(0, 200)
        used, new_states, _ = dispatch_step(
            pv_bess_space, demand, [pv, 0.0], (state,), config, hours * 3600.0
        )
        pv_to_load = min(demand, pv)
        charge = used[0] - pv_to_load
        discharge = used[1]
        assert charge >= -1e-12 and discharge >= -1e-12
        expected_delta = (charge * 0.95 - discharge / 0.95) * hours
        actual_delta = new_states[0].energy_stored - state.energy_stored
        assert math.isclose(actual_delta, expected_delta, rel_tol=1e-9, abs_tol=1e-12)
        # SoC stays within [min_soc, 1] at every step boundary
        assert new_states[0].energy_stored >= 0.1 * 200.0 - 1e-9
        assert new_states[0].energy_stored <= 200.0 + 1e-9
        # no phantom generation
        assert sum(used) <= demand + charge + 1e-9
        state = new_states[0]


# ---------------------------------------------------------------------------
# operate

def test_operate_diesel_covering_peak_has_no_deficit(desk_load, desk_space, desk_dispatch):
    design = MicrogridDesign((desk_space.ders[0].upper_bound, 0.0, 0.0))
    outcome = operate(desk_space, design, desk_load, desk_dispatch)
    assert outcome.deficit_flags.sum() == 0


def test_operate_empty_design_always_deficient(desk_load, desk_space, desk_dispatch):
    outcome = operate(desk_space, MicrogridDesign((0.0, 0.0, 0.0)), desk_load, desk_dispatch)
    assert outcome.deficit_flags.all()


def test_operate_pv_only_deficits_match_closed_form(desk_load, desk_space, desk_dispatch):
    # oracle: a PV-only design fails exactly where capacity * daylight factor
    # cannot cover demand, enumerated step by step from the availability curve
    cap = 3.0 * desk_load.peak_kw
    factors = pv_availability(desk_load.times, desk_dispatch)
    expected = [
        1 if cap * factors[t] < desk_load.demand_kw[t] - EPS_POWER else 0
        for t in range(len(desk_load))
    ]
    design = MicrogridDesign((0.0, cap, 0.0))
    outcome = operate(desk_space, design, desk_load, desk_dispatch)
    assert outcome.deficit_flags.tolist() == expected
    # with this profile those are exactly the dark steps with positive demand
    for t, flag in enumerate(expected):
        dark = factors[t] * cap <= EPS_POWER
        assert flag == (1 if dark and desk_load.demand_kw[t] > EPS_POWER else 0)


def test_operate_is_deterministic(desk_load, desk_space, desk_dispatch):
    design = MicrogridDesign((45.0, 106.0, 176.0))
    a = operate(desk_space, design, desk_load, desk_dispatch)
    b = operate(desk_space, design, desk_load, desk_dispatch)
    assert np.array_equal(a.deficit_flags, b.deficit_flags)
    assert np.array_equal(a.per_der_available, b.per_der_available)
    assert np.array_equal(a.per_der_used, b.per_der_used)


def test_operate_used_never_exceeds_available(desk_load, desk_space, desk_dispatch):
    rng = random.Random(31)
    for _ in range(10):
        design = MicrogridDesign(
            tuple(rng.uniform(0, spec.upper_bound) for spec in desk_space.ders)
        )
        outcome = operate(desk_space, design, desk_load, desk_dispatch)
        assert np.all(outcome.per_der_used <= outcome.per_der_available + 1e-9)
        # deficit flag consistency with the used matrix
        served = outcome.per_der_used.sum(axis=0)
        for t in range(len(desk_load)):
            short = served[t] < desk_load.demand_kw[t] - EPS_POWER
            assert bool(outcome.deficit_flags[t]) == short


def test_operate_wind_turbine_constant_factor(desk_load):
    space = DesignSpace(
        ders=(
            DerSpec(name="wind", kind=DerKind.WIND_TURBINE, upper_bound=300.0),
            DerSpec(name="diesel", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0),
        )
    )
    outcome = operate(space, MicrogridDesign((200.0, 0.0)), desk_load, DispatchConfig())
    assert np.all(outcome.per_der_available[0] == 200.0 * 0.35)


def test_monotonicity_raising_capacity_never_adds_deficits(desk_load, desk_space, desk_dispatch):
    # 200 random (design, single-capacity-increase) pairs: per-step flags may
    # only switch off when any one capacity grows
    rng = random.Random(37)
    for _ in range(200):
        caps = [rng.uniform(0, spec.upper_bound) for spec in desk_space.ders]
        i = rng.randrange(len(caps))
        raised = list(caps)
        raised[i] = rng.uniform(caps[i], desk_space.ders[i].upper_bound)
        base = operate(desk_space, MicrogridDesign(tuple(caps)), desk_load, desk_dispatch)
        more = operate(desk_space, MicrogridDesign(tuple(raised)), desk_load, desk_dispatch)
        assert np.all(more.deficit_flags <= base.deficit_flags)


@pytest.mark.parametrize(
    ("make_load", "ratio_h", "levels", "design_levels", "capacities", "raised_kwh", "deficits"),
    [
        pytest.param(
            two_week_profile, 4.0, 161, (59, 60, 72), (33.1875, 99.375, 198.0), 200.75,
            (0.45634920634920634, 0.45674603174603173), id="5040-steps-4h",
        ),
        pytest.param(
            partial(synthetic_load_profile, n_steps=672, step_seconds=1800.0, seed=7), 2.0, 21, (10, 7, 3),
            (45.0, 92.75, 66.0), 88.0, (0.16666666666666666, 0.16964285714285715), id="672-steps-2h",
        ),
    ],
)
def test_monotonicity_fails_with_slow_battery_on_two_week_profile(
    make_load, ratio_h, levels, design_levels, capacities, raised_kwh, deficits
):
    # The pruning stage assumes monotone dispatch. With slow batteries on two
    # weeks of load it is not: one battery level more adds deficit. The
    # 672-step case has the twoweek-size benchmark's shape and 2 h batteries;
    # it is one of 6 such raises among the 9,261 designs of its 21-level grid.
    load = make_load()
    space = space_for(load, ratio_h)
    grids = [capacity_grid(spec, levels).points for spec in space.ders]
    design = MicrogridDesign(tuple(grid[k] for grid, k in zip(grids, design_levels)))
    raised = with_capacity(design, 2, grids[2][design_levels[2] + 1])
    assert design.capacities == capacities
    assert raised.capacities == (*capacities[:2], raised_kwh)
    config = DispatchConfig()
    cache = SimulationCache(space, load, config)
    assert memoized_operate(cache, design=design).deficit_ratio == deficits[0]
    assert memoized_operate(cache, design=raised).deficit_ratio == deficits[1]


# ---------------------------------------------------------------------------
# cache

def test_cache_counts_unique_designs_once(desk_load, desk_space, desk_dispatch):
    cache = SimulationCache(desk_space, desk_load, desk_dispatch)
    design = MicrogridDesign((90.0, 0.0, 0.0))
    first = memoized_operate(cache, design=design)
    second = memoized_operate(cache, design=design)
    assert cache.unique_simulations == 1
    assert second is first  # hit returns the identical cached metrics
    other = MicrogridDesign((90.0, 26.5, 0.0))
    memoized_operate(cache, design=other)
    assert cache.unique_simulations == 2


def test_cache_repeated_lookups_counted_once(desk_load, desk_space, desk_dispatch):
    cache = SimulationCache(desk_space, desk_load, desk_dispatch)
    design = MicrogridDesign((90.0, 53.0, 88.0))
    results = [memoized_operate(cache, design=design) for _ in range(16)]
    assert (cache.unique_simulations, cache.dispatch_runs) == (1, 1)
    assert all(r.capacities == design.capacities for r in results)
    assert len({id(r) for r in results}) == 1
    # another diesel level is a new simulation but reuses the pre-diesel dispatch
    memoized_operate(cache, design=with_capacity(design, 0, 45.0))
    assert (cache.unique_simulations, cache.dispatch_runs) == (2, 1)


def test_cache_rejects_a_second_input(desk_load, desk_space, desk_dispatch):
    cache = SimulationCache(desk_space, desk_load, desk_dispatch)
    seen = MicrogridDesign((90.0, 53.0, 88.0))
    memoized_operate(cache, design=seen)
    # an equal but distinct config is the same input
    operate(desk_space, with_capacity(seen, 0, 45.0), desk_load, DispatchConfig(), cache)
    unseen = with_capacity(seen, 1, 26.5)

    wider = DesignSpace(ders=(replace(desk_space.ders[0], upper_bound=95.0), *desk_space.ders[1:]))
    busier = LoadProfile(
        times=desk_load.times,
        durations_s=desk_load.durations_s,
        demand_kw=tuple(1.1 * p for p in desk_load.demand_kw),
    )
    dimmer = DispatchConfig(pv_peak_factor=0.9)
    for space, load, config in (
        (wider, desk_load, desk_dispatch),
        (desk_space, busier, desk_dispatch),
        (desk_space, desk_load, dimmer),
    ):
        with pytest.raises(ValueError, match="another"):
            operate(space, unseen, load, config, cache)
    assert (cache.unique_simulations, cache.dispatch_runs) == (1, 1)


def test_cache_key_folds_negative_zero():
    key = SimulationCache.key_for(MicrogridDesign((-0.0, 10.0)))
    assert key == (0.0, 10.0)
    assert math.copysign(1.0, key[0]) == 1.0


def test_memoized_metrics_match_direct_computation(desk_load, desk_space, desk_dispatch):
    cache = SimulationCache(desk_space, desk_load, desk_dispatch)
    design = MicrogridDesign((45.0, 106.0, 176.0))
    evaluated = memoized_operate(cache, design=design)
    outcome = operate(desk_space, design, desk_load, desk_dispatch)
    assert evaluated.deficit_ratio == deficit_ratio(outcome, desk_load)
    for i in range(len(desk_space.ders)):
        assert evaluated.unused_ratios[i] == unused_ratio(outcome, i, design.capacities[i])


def test_memoized_operate_rejects_a_negative_capacity_and_caches_nothing(desk_load, desk_space, desk_dispatch):
    cache = SimulationCache(desk_space, desk_load, desk_dispatch)
    with pytest.raises(ValueError, match="battery: capacity"):
        memoized_operate(cache, design=MicrogridDesign((45.0, 106.0, -5e-10)))
    assert (cache.unique_simulations, cache.dispatch_runs) == (0, 0)
    assert not cache._pre_diesel and not cache._non_diesel_ratios
    evaluated = memoized_operate(cache, design=MicrogridDesign((45.0, 106.0, -0.0)))
    assert evaluated.unused_ratios[2] == -1.0


def test_diesel_only_change_computes_only_the_diesel_unused_ratio(desk_load, desk_space, desk_dispatch, monkeypatch):
    cache = SimulationCache(desk_space, desk_load, desk_dispatch)
    computed = []

    def counting_unused_ratio(outcome, der_index, capacity):
        computed.append(der_index)
        return unused_ratio(outcome, der_index, capacity)

    monkeypatch.setattr(simulator, "unused_ratio", counting_unused_ratio)
    design = MicrogridDesign((90.0, 106.0, 176.0))
    first = memoized_operate(cache, design=design)
    assert sorted(computed) == [0, 1, 2]
    computed.clear()
    second = memoized_operate(cache, design=with_capacity(design, 0, 45.0))
    assert computed == [0]  # the solar and battery ratios come from the table
    assert second.unused_ratios[1:] == first.unused_ratios[1:]
    assert (cache.unique_simulations, cache.dispatch_runs, len(cache._non_diesel_ratios)) == (2, 1, 1)


def test_pre_diesel_runs_a_battery_vector_once(desk_load, desk_space, desk_dispatch):
    cache = SimulationCache(desk_space, desk_load, desk_dispatch)
    bess, entry = cache.pre_diesel((90.0, 0.0, 88.0))
    assert (bess, cache.dispatch_runs) == ([2], 1)
    assert not any(arr.flags.writeable for arr in entry)
    # another diesel level, and -0.0 for 0.0: the same non-diesel vector
    for caps in ((45.0, 0.0, 88.0), (0.0, -0.0, 88.0)):
        again_bess, again = cache.pre_diesel(caps)
        assert again_bess == [2] and again is entry
    assert cache.dispatch_runs == 1


def test_pre_diesel_runs_a_battery_less_vector_every_time(desk_load, desk_space, desk_dispatch):
    cache = SimulationCache(desk_space, desk_load, desk_dispatch)
    caps = (90.0, 53.0, -0.0)
    first_bess, first = cache.pre_diesel(caps)
    second_bess, second = cache.pre_diesel(caps)
    assert first_bess == second_bess == []
    assert second is not first and cache.dispatch_runs == 2
    assert not cache._pre_diesel
    assert [a.tobytes() for a in second] == [a.tobytes() for a in first]


def test_pre_diesel_runs_an_evicted_vector_again_to_equal_arrays(desk_load, desk_space, desk_dispatch, monkeypatch):
    # room for two entries of a PV row and a battery row of `used`, the battery availability and the residual
    monkeypatch.setattr(simulator, "PRE_DIESEL_MEMO_FLOATS", 2 * 4 * len(desk_load))
    cache = SimulationCache(desk_space, desk_load, desk_dispatch)
    _, first = cache.pre_diesel((90.0, 53.0, 88.0))
    _, second = cache.pre_diesel((90.0, 106.0, 88.0))
    assert cache.pre_diesel((45.0, 53.0, 88.0))[1] is first  # now the most recently used
    cache.pre_diesel((90.0, 159.0, 88.0))  # evicts the least recently used: the second vector
    assert list(cache._pre_diesel) == [(53.0, 88.0), (159.0, 88.0)]
    _, again = cache.pre_diesel((0.0, 106.0, 88.0))
    assert again is not second and cache.dispatch_runs == 4
    assert [a.tobytes() for a in again] == [a.tobytes() for a in second]


def test_discharge_capability_zero_capacity():
    spec = DerSpec(name="b", kind=DerKind.BATTERY_STORAGE, upper_bound=10.0, charge_ratio=2.0, discharge_ratio=2.0)
    state = initial_bess_state(spec, 0.0, DispatchConfig())
    assert discharge_capability_kw(state, DispatchConfig(), 1800.0) == 0.0


# ---------------------------------------------------------------------------
# operate against its specification: dispatch_step folded over time

def random_space(rng):
    ders = [
        DerSpec(name="pv_a", kind=DerKind.PHOTOVOLTAIC, upper_bound=rng.uniform(50, 400)),
        DerSpec(name="pv_b", kind=DerKind.PHOTOVOLTAIC, lower_bound=10.0, upper_bound=rng.uniform(50, 400)),
        DerSpec(name="wind", kind=DerKind.WIND_TURBINE, upper_bound=rng.uniform(50, 300)),
        DerSpec(
            name="bess_a", kind=DerKind.BATTERY_STORAGE, upper_bound=rng.uniform(100, 800),
            charge_ratio=0.5, discharge_ratio=4.0,
        ),
        DerSpec(
            name="bess_b", kind=DerKind.BATTERY_STORAGE, upper_bound=rng.uniform(100, 800),
            charge_ratio=3.0, discharge_ratio=1.5,
        ),
        DerSpec(name="diesel_a", kind=DerKind.DIESEL_GENERATOR, upper_bound=rng.uniform(20, 120)),
        DerSpec(name="diesel_b", kind=DerKind.DIESEL_GENERATOR, upper_bound=rng.uniform(20, 120)),
    ]
    rng.shuffle(ders)
    return DesignSpace(ders=tuple(ders))


def random_capacity(rng, spec):
    pick = rng.random()
    if pick < 0.15:
        return spec.lower_bound  # 0.0 for every DER but pv_b
    if pick < 0.3:
        return spec.upper_bound
    return rng.uniform(spec.lower_bound, spec.upper_bound)


def uneven_load(rng, n_steps=60):
    start = datetime(2024, 6, 1, 3, 0)
    times, durations, demand = [], [], []
    offset = 0.0
    for _ in range(n_steps):
        step = rng.choice((600.0, 900.0, 1800.0, 3600.0, 5400.0))
        times.append(start + timedelta(seconds=offset))
        durations.append(step)
        demand.append(0.0 if rng.random() < 0.1 else rng.uniform(0.0, 180.0))
        offset += step
    return LoadProfile(times=tuple(times), durations_s=tuple(durations), demand_kw=tuple(demand))


def test_operate_bitwise_equals_folded_dispatch_step():
    rng = random.Random(2406)
    for case in range(8):
        load = uneven_load(rng)
        space = random_space(rng)
        wind = (
            tuple(rng.random() for _ in range(len(load))) if case % 2 else rng.uniform(0.1, 0.6)
        )
        config = DispatchConfig(
            wind_capacity_factor=wind,
            bess_min_soc=0.0 if case % 3 == 0 else 0.2,
            bess_initial_soc=0.6 if case % 2 else 1.0,
            bess_charge_efficiency=0.9,
            bess_discharge_efficiency=0.93,
        )
        for _ in range(25):
            design = MicrogridDesign(tuple(random_capacity(rng, spec) for spec in space.ders))
            got = operate(space, design, load, config)
            want = fold_dispatch_step(space, design, load, config)
            for field in ("deficit_flags", "per_der_available", "per_der_used"):
                a, b = getattr(got, field), getattr(want, field)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), field
                assert a.tobytes() == b.tobytes(), (field, design)

            evaluated = memoized_operate(SimulationCache(space, load, config), design=design)
            assert evaluated.deficit_ratio == deficit_ratio(want, load)
            assert evaluated.unused_ratios == tuple(
                unused_ratio(want, i, c) for i, c in enumerate(design.capacities)
            )


def segments(draw, levels, n_steps):
    """A per-step series of `n_steps` values held constant over random stretches."""
    series = []
    while len(series) < n_steps:
        series += [draw(levels)] * draw(st.integers(1, 60))
    return series[:n_steps]


# Capacities about the deficit tolerance, for the DERs that `operate` treats
# apart: a battery of any nonzero capacity runs the recurrence and keys the
# pre-diesel memo, and each diesel serves the residual the one before it left.
NEAR_ZERO = (EPS_POWER / 2, EPS_POWER, 2 * EPS_POWER)
NEAR_ZERO_KINDS = (DerKind.BATTERY_STORAGE, DerKind.DIESEL_GENERATOR)


@st.composite
def dispatch_cases(draw):
    """(space, design, load, config): 0-2 PV, optional wind, 1-3 batteries, 0-2 diesels.

    Demand and wind are held over stretches of up to 60 steps, so that some
    profiles keep a battery full through days of surplus and others hold it
    at its floor through long windless nights. Battery and diesel
    capacities include the NEAR_ZERO values.
    """
    bound = st.floats(20.0, 400.0)
    ratio = st.sampled_from([0.25, 0.5, 2.0]) | st.floats(0.1, 8.0)
    n_pv = draw(st.integers(0, 2))
    ders = [DerSpec(f"pv{k}", DerKind.PHOTOVOLTAIC, upper_bound=draw(bound)) for k in range(n_pv)]
    wind = draw(st.sampled_from(["none", "constant", "series"]))
    if wind != "none":
        ders.append(DerSpec("wind", DerKind.WIND_TURBINE, upper_bound=draw(bound)))
    for k in range(draw(st.integers(1, 3))):
        ders.append(
            DerSpec(
                f"bess{k}", DerKind.BATTERY_STORAGE, upper_bound=draw(bound),
                charge_ratio=draw(ratio), discharge_ratio=draw(ratio),
            )
        )
    for k in range(draw(st.integers(0, 2))):
        ders.append(DerSpec(f"diesel{k}", DerKind.DIESEL_GENERATOR, upper_bound=draw(bound)))
    space = DesignSpace(ders=tuple(draw(st.permutations(ders))))
    capacities = (
        st.sampled_from([0.0, d.upper_bound, *(NEAR_ZERO if d.kind in NEAR_ZERO_KINDS else ())])
        | st.floats(0.0, d.upper_bound)
        for d in space.ders
    )
    design = MicrogridDesign(tuple(draw(c) for c in capacities))

    n_steps = draw(st.integers(1, 200))
    step = st.sampled_from([600.0, 900.0, 1800.0, 3600.0, 5400.0])
    durations = [draw(step) for _ in range(n_steps)]
    kw = st.sampled_from([0.0, 5.0, 60.0, 250.0]) | st.floats(0.0, 300.0)
    demand = segments(draw, kw, n_steps)
    start = datetime(2024, 6, 1, draw(st.integers(0, 23)))
    times = tuple(start + timedelta(seconds=sum(durations[:t])) for t in range(n_steps))
    load = LoadProfile(times=times, durations_s=tuple(durations), demand_kw=tuple(demand))

    factor = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    wind_factor = tuple(segments(draw, factor, n_steps)) if wind == "series" else draw(factor)
    min_soc = draw(st.floats(0.0, 0.6))
    config = DispatchConfig(
        wind_capacity_factor=wind_factor,
        bess_charge_efficiency=draw(st.floats(0.5, 1.0)),
        bess_discharge_efficiency=draw(st.floats(0.5, 1.0)),
        bess_min_soc=min_soc,
        bess_initial_soc=draw(st.floats(min_soc, 1.0, exclude_min=True)),
    )
    return space, design, load, config


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(dispatch_cases())
def test_operate_bitwise_equals_folded_dispatch_step_property(case):
    space, design, load, config = case
    got = operate(space, design, load, config)
    want = fold_dispatch_step(space, design, load, config)
    for field in ("deficit_flags", "per_der_available", "per_der_used"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field


# PV, wind, a 1 h and a 4 h battery, then diesel, on the 5040-step profile.
# Charging draws on both renewables, and the kernel writes both battery rows
# and fills each battery's stored energy over skipped stretches far longer
# than the property cases': up to 326 full steps in a row for the first
# design and 4963 steps at the floor for the third.
TWO_WEEK_MIXED_SPACE = DesignSpace(
    ders=(
        DerSpec(name="solar", kind=DerKind.PHOTOVOLTAIC, upper_bound=265.0),
        DerSpec(name="wind", kind=DerKind.WIND_TURBINE, upper_bound=200.0),
        DerSpec(name="fast", kind=DerKind.BATTERY_STORAGE, upper_bound=440.0, charge_ratio=1.0, discharge_ratio=1.0),
        DerSpec(name="slow", kind=DerKind.BATTERY_STORAGE, upper_bound=440.0, charge_ratio=4.0, discharge_ratio=4.0),
        DerSpec(name="diesel", kind=DerKind.DIESEL_GENERATOR, upper_bound=90.0),
    )
)
SLOW_BATTERY_DESIGNS = ((33.1875, 99.375, 198.0), (0.0, 265.0, 110.0), (45.0, 265.0, 440.0))
MIXED_DESIGNS = ((265.0, 200.0, 200.0, 300.0, 45.0), (120.0, 120.0, 80.0, 200.0, 30.0), (20.0, 20.0, 60.0, 110.0, 45.0))


@pytest.mark.parametrize(
    ("make_space", "designs"),
    [
        pytest.param(partial(space_for, bess_ratio_h=2.0), SLOW_BATTERY_DESIGNS, id="2.0"),
        pytest.param(partial(space_for, bess_ratio_h=4.0), SLOW_BATTERY_DESIGNS, id="4.0"),
        pytest.param(lambda load: TWO_WEEK_MIXED_SPACE, MIXED_DESIGNS, id="pv-wind-two-batteries"),
    ],
)
def test_operate_bitwise_equals_folded_dispatch_step_over_two_weeks(make_space, designs):
    # The 5040-step profile (peak 87.9 kW). With diesel, PV and a battery at
    # 1x, 3x and 5x the peak and 265 kW of PV, the 440 kWh battery sits full
    # through up to 110-115 surplus steps in a row, and the 110 kWh one at
    # its floor through up to 144-167 steps of load; the battery kernel skips
    # both kinds of stretch.
    load = two_week_profile()
    space = make_space(load)
    config = DispatchConfig()
    for capacities in designs:
        design = MicrogridDesign(capacities)
        got = operate(space, design, load, config)
        want = fold_dispatch_step(space, design, load, config)
        for field in ("deficit_flags", "per_der_available", "per_der_used"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field
            assert a.tobytes() == b.tobytes(), (field, design)


def test_operate_with_memo_bitwise_equals_without(monkeypatch):
    rng = random.Random(2407)
    default_budget = simulator.PRE_DIESEL_MEMO_FLOATS
    for case in range(6):
        load = uneven_load(rng)
        space = random_space(rng)
        config = DispatchConfig(
            wind_capacity_factor=rng.uniform(0.1, 0.6),
            bess_min_soc=0.0 if case % 3 == 0 else 0.2,
            bess_initial_soc=0.6 if case % 2 else 1.0,
        )
        # an odd case keeps about two entries, so revisits meet evicted vectors
        small = case % 2 == 1
        budget = 2 * 8 * len(load) if small else default_budget
        monkeypatch.setattr(simulator, "PRE_DIESEL_MEMO_FLOATS", budget)
        kinds = [spec.kind for spec in space.ders]
        cache = SimulationCache(space, load, config)
        seen, expected_runs, visited = set(), 0, []
        for _ in range(40):
            if visited and rng.random() < 0.6:  # same non-diesel vector, new diesel levels
                caps = list(rng.choice(visited))
                if rng.random() < 0.3:  # flip the sign of every zero: the same memo key
                    caps = [-c if c == 0.0 else c for c in caps]
                for i, kind in enumerate(kinds):
                    if kind is DerKind.DIESEL_GENERATOR:
                        caps[i] = random_capacity(rng, space.ders[i])
            else:
                caps = [random_capacity(rng, spec) for spec in space.ders]
                if rng.random() < 0.25:
                    caps = [0.0 if k is DerKind.BATTERY_STORAGE else c for k, c in zip(kinds, caps)]
                caps = [-0.0 if c == 0.0 and rng.random() < 0.5 else c for c in caps]
                visited.append(tuple(caps))
            design = MicrogridDesign(tuple(caps))

            # keyed by value: -0.0 and 0.0 are one vector
            key = tuple(c for k, c in zip(kinds, caps) if k is not DerKind.DIESEL_GENERATOR)
            if not any(c != 0.0 for k, c in zip(kinds, caps) if k is DerKind.BATTERY_STORAGE):
                expected_runs += 1
            elif key not in seen:
                seen.add(key)
                expected_runs += 1

            got = operate(space, design, load, config, cache)
            plain = operate(space, design, load, config)
            want = fold_dispatch_step(space, design, load, config)
            for field in ("deficit_flags", "per_der_available", "per_der_used"):
                for other in (plain, want):
                    a, b = getattr(got, field), getattr(other, field)
                    assert (a.dtype, a.shape) == (b.dtype, b.shape), field
                    assert a.tobytes() == b.tobytes(), (field, design)
        if small:
            assert cache.dispatch_runs > expected_runs  # evicted vectors ran again
        else:
            assert cache.dispatch_runs == expected_runs


@st.composite
def reuse_cases(draw):
    """(space, load, config, designs): a few non-diesel vectors, each met at several diesel levels.

    Spaces have 0-2 PV, optional wind, 0-2 batteries and 1-2 diesels.
    Capacities include 0.0 and -0.0, which share a key in the pre-diesel
    memo, and battery and diesel capacities include the NEAR_ZERO values.
    """
    bound = st.floats(20.0, 400.0)
    ratio = st.sampled_from([0.25, 0.5, 2.0]) | st.floats(0.1, 8.0)
    ders = [DerSpec(f"pv{k}", DerKind.PHOTOVOLTAIC, upper_bound=draw(bound)) for k in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        ders.append(DerSpec("wind", DerKind.WIND_TURBINE, upper_bound=draw(bound)))
    for k in range(draw(st.integers(0, 2))):
        ders.append(
            DerSpec(
                f"bess{k}", DerKind.BATTERY_STORAGE, upper_bound=draw(bound),
                charge_ratio=draw(ratio), discharge_ratio=draw(ratio),
            )
        )
    for k in range(draw(st.integers(1, 2))):
        ders.append(DerSpec(f"diesel{k}", DerKind.DIESEL_GENERATOR, upper_bound=draw(bound)))
    space = DesignSpace(ders=tuple(draw(st.permutations(ders))))

    n_steps = draw(st.integers(1, 96))
    durations = [draw(st.sampled_from([900.0, 1800.0, 3600.0])) for _ in range(n_steps)]
    demand = segments(draw, st.sampled_from([0.0, 60.0, 250.0]) | st.floats(0.0, 300.0), n_steps)
    start = datetime(2024, 6, 1, draw(st.integers(0, 23)))
    times = tuple(start + timedelta(seconds=sum(durations[:t])) for t in range(n_steps))
    load = LoadProfile(times=times, durations_s=tuple(durations), demand_kw=tuple(demand))
    config = DispatchConfig(wind_capacity_factor=draw(st.floats(0.0, 1.0)), bess_min_soc=draw(st.floats(0.0, 0.5)))

    def capacity(spec):
        near_zero = NEAR_ZERO if spec.kind in NEAR_ZERO_KINDS else ()
        return draw(st.sampled_from([0.0, -0.0, spec.upper_bound, *near_zero]) | st.floats(0.0, spec.upper_bound))

    diesels = [i for i, d in enumerate(space.ders) if d.kind is DerKind.DIESEL_GENERATOR]
    vectors = [
        [capacity(d) for d in space.ders] for _ in range(draw(st.integers(1, 4)))
    ]
    designs = []
    for _ in range(draw(st.integers(2, 14))):
        caps = list(draw(st.sampled_from(vectors)))
        for i in diesels:
            caps[i] = capacity(space.ders[i])
        designs.append(MicrogridDesign(tuple(caps)))
    return space, load, config, designs


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(reuse_cases(), st.integers(1, 3))
def test_memoized_reuse_equals_cache_free_metrics_property(case, memo_entries):
    space, load, config, designs = case
    first: dict[tuple[float, ...], MicrogridDesign] = {}
    # a budget of about `memo_entries` entries, so revisited vectors meet evicted ones
    budget = memo_entries * len(space.ders) * len(load)
    with mock.patch.object(simulator, "PRE_DIESEL_MEMO_FLOATS", budget):
        cache = SimulationCache(space, load, config)
        for design in designs:
            got = memoized_operate(cache, design=design)
            # a design the cache has met under an equal key returns that first design
            design = first.setdefault(SimulationCache.key_for(design), design)
            outcome = operate(space, design, load, config)
            want = EvaluatedDesign(
                design=design,
                deficit_ratio=deficit_ratio(outcome, load),
                unused_ratios=tuple(unused_ratio(outcome, i, c) for i, c in enumerate(design.capacities)),
            )
            assert repr(got) == repr(want)
    non_diesel = {cache.non_diesel_key(d.capacities) for d in first.values()}
    assert set(cache._non_diesel_ratios) == non_diesel
    assert len(cache._non_diesel_ratios) <= cache.unique_simulations == len(first)

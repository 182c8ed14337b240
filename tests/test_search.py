"""Algorithm traces on tiny instances, plus pipeline-level properties."""

import itertools
import random

import pytest

from dersizer import search, simulator
from dersizer.core import DerKind, DerSpec, DesignSpace, MicrogridDesign, dominates
from dersizer.search import (
    SearchConfig,
    SearchSpaceTooLarge,
    binary_search_refine,
    build_grids,
    exhaustive_search,
    grid_size,
    initial_step_size,
    local_search,
    run_pipeline,
    stage_counts,
)
from dersizer.simulator import DispatchConfig, SimulationCache, memoized_operate
from helpers import constant_load


@pytest.fixture()
def diesel_space():
    return DesignSpace(
        ders=(DerSpec(name="diesel", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0),)
    )


def caps_of(designs):
    return sorted({d.capacities for d in designs})


# ---------------------------------------------------------------------------
# initial_step_size

def test_initial_step_size_values():
    assert initial_step_size(10) == 8
    assert initial_step_size(160) == 128
    assert initial_step_size(1) == 1
    assert initial_step_size(8) == 8


def test_initial_step_size_rejects_nonpositive():
    with pytest.raises(ValueError):
        initial_step_size(0)


# ---------------------------------------------------------------------------
# exhaustive search

def test_exhaustive_prunes_below_first_deficit(diesel_space):
    # constant 50 kW load on grid {0,20,...,100}: descending enumeration
    # simulates 100, 80, 60 (fine) and 40 (deficit); 20 and 0 are pruned
    load = constant_load(50.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    result = exhaustive_search(cache, diesel_space, load, DispatchConfig(), 6)
    assert caps_of(result) == [(40.0,), (60.0,), (80.0,), (100.0,)]
    assert cache.unique_simulations == 4
    zero = [d.capacities for d in result if d.deficit_ratio == 0]
    assert sorted(zero) == [(60.0,), (80.0,), (100.0,)]


def test_exhaustive_never_prunes_upper_corner(diesel_space):
    # even under an unservable load the all-max design is simulated
    load = constant_load(500.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    result = exhaustive_search(cache, diesel_space, load, DispatchConfig(), 6)
    assert (100.0,) in {d.capacities for d in result}
    # everything below the corner is pruned
    assert cache.unique_simulations == 1


def test_exhaustive_zero_load_simulates_everything(diesel_space):
    load = constant_load(0.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    result = exhaustive_search(cache, diesel_space, load, DispatchConfig(), 6)
    assert cache.unique_simulations == 6
    assert all(d.deficit_ratio == 0 for d in result)


def test_exhaustive_enumeration_order_first_der_descends_slowest():
    space = DesignSpace(
        ders=(
            DerSpec(name="a", kind=DerKind.DIESEL_GENERATOR, upper_bound=10.0),
            DerSpec(name="b", kind=DerKind.DIESEL_GENERATOR, upper_bound=10.0),
        )
    )
    load = constant_load(0.0)
    cache = SimulationCache(space, load, DispatchConfig())
    result = exhaustive_search(cache, space, load, DispatchConfig(), 2)
    assert [d.capacities for d in result] == [
        (10.0, 10.0),
        (10.0, 0.0),
        (0.0, 10.0),
        (0.0, 0.0),
    ]


def plain_descending_exhaustive(cache, space, load, config, level_points):
    """The pruned enumeration with the first DER varying slowest, through `cache`."""
    grids = build_grids(space, level_points)
    tops = tuple(g.n_intervals for g in grids)
    deficient, simulated = set(), []
    for idx in itertools.product(*(range(top, -1, -1) for top in tops)):
        raised = (idx[:i] + (idx[i] + 1,) + idx[i + 1 :] for i, top in enumerate(tops) if idx[i] < top)
        if any(neighbor in deficient for neighbor in raised):
            deficient.add(idx)
            continue
        design = MicrogridDesign(tuple(g.points[k] for g, k in zip(grids, idx)))
        evaluated = memoized_operate(cache, space, design, load, config)
        simulated.append(evaluated)
        if evaluated.deficit_ratio > 0:
            deficient.add(idx)
    return simulated


@pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2, 3)])
def test_exhaustive_diesel_innermost_matches_plain_order_with_fewer_runs(
    desk_load, desk_space, desk_dispatch, monkeypatch, order
):
    # a second diesel between the others checks that every diesel goes innermost
    second_diesel = DerSpec(name="diesel_b", kind=DerKind.DIESEL_GENERATOR, upper_bound=30.0)
    ders = (*desk_space.ders, second_diesel)
    space = DesignSpace(ders=tuple(ders[i] for i in order))
    # about three pre-diesel entries: far fewer than the non-diesel vectors
    monkeypatch.setattr(simulator, "PRE_DIESEL_MEMO_FLOATS", 3 * 4 * len(desk_load))
    levels = 7 if len(order) == 3 else 5
    plain_cache = SimulationCache(space, desk_load, desk_dispatch)
    plain = plain_descending_exhaustive(plain_cache, space, desk_load, desk_dispatch, levels)
    cache = SimulationCache(space, desk_load, desk_dispatch)
    got = exhaustive_search(cache, space, desk_load, desk_dispatch, levels)
    assert got == plain
    assert cache.unique_simulations == plain_cache.unique_simulations == len(got)
    candidates = grid_size(space, levels)
    assert stage_counts(cache, {}, len(got), candidates)["pruned"] == candidates - len(plain) > 0
    assert cache.dispatch_runs < plain_cache.dispatch_runs


def test_exhaustive_refuses_oversized_product(diesel_space, monkeypatch):
    monkeypatch.setattr(search, "PRODUCT_SAFETY_CAP", 10)
    two = DesignSpace(
        ders=(
            diesel_space.ders[0],
            DerSpec(name="other", kind=DerKind.PHOTOVOLTAIC, upper_bound=50.0),
        )
    )
    load, config = constant_load(0.0), DispatchConfig()
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_search(SimulationCache(two, load, config), two, load, config, 6)


# ---------------------------------------------------------------------------
# binary search refinement

def test_binary_search_descends_to_minimal_feasible(diesel_space):
    # load 55 on {0,10,...,100}: h=8 overshoots to 20 (deficit), h=4 lands on
    # 60 then overshoots, h=2 and h=1 both reject; 60 is minimal feasible
    load = constant_load(55.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, diesel_space, MicrogridDesign((100.0,)), load, DispatchConfig())
    out = binary_search_refine(cache, build_grids(diesel_space, 11), [seed], random.Random(0), 1)
    assert caps_of(out) == [(20.0,), (40.0,), (50.0,), (60.0,), (100.0,)]
    assert cache.unique_simulations == 5
    zero = [d for d in out if d.deficit_ratio == 0]
    assert min(d.capacities[0] for d in zero) == 60.0


def test_binary_search_flips_direction_at_upper_bound(diesel_space):
    # an infeasible seed climbs until feasible, hits the bound, then turns
    # back down to the minimal feasible design
    load = constant_load(55.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, diesel_space, MicrogridDesign((0.0,)), load, DispatchConfig())
    out = binary_search_refine(cache, build_grids(diesel_space, 11), [seed], random.Random(0), 1)
    assert caps_of(out) == [(0.0,), (20.0,), (40.0,), (50.0,), (60.0,), (80.0,), (100.0,)]
    assert cache.unique_simulations == 7
    zero = [d for d in out if d.deficit_ratio == 0]
    assert min(d.capacities[0] for d in zero) == 60.0


def test_binary_search_feasible_lower_bound_stays_put(diesel_space):
    load = constant_load(0.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, diesel_space, MicrogridDesign((0.0,)), load, DispatchConfig())
    out = binary_search_refine(cache, build_grids(diesel_space, 11), [seed], random.Random(0), 1)
    assert caps_of(out) == [(0.0,)]
    assert cache.unique_simulations == 1


def test_binary_search_snaps_offgrid_seeds(diesel_space):
    load = constant_load(55.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, diesel_space, MicrogridDesign((94.0,)), load, DispatchConfig())
    out = binary_search_refine(cache, build_grids(diesel_space, 11), [seed], random.Random(0), 1)
    keys = {d.capacities for d in out}
    assert (90.0,) in keys  # 94 snapped down to the nearest fine point
    assert (94.0,) in keys  # the original seed is part of the returned set


def test_binary_search_requires_seeds(diesel_space):
    load = constant_load(1.0)
    with pytest.raises(ValueError):
        binary_search_refine(
            SimulationCache(diesel_space, load, DispatchConfig()),
            build_grids(diesel_space, 11),
            [],
            random.Random(0),
            1,
        )


def test_binary_search_deterministic_for_fixed_rng(desk_load, desk_space, desk_dispatch):
    def run():
        cache = SimulationCache(desk_space, desk_load, desk_dispatch)
        seeds = exhaustive_search(cache, desk_space, desk_load, desk_dispatch, 6)
        out = binary_search_refine(cache, build_grids(desk_space, 11), seeds, random.Random(99), 3)
        return [d.capacities for d in out], cache.unique_simulations

    first = run()
    second = run()
    assert first == second


# ---------------------------------------------------------------------------
# local search

def test_local_search_descends_single_levels(diesel_space):
    load = constant_load(50.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, diesel_space, MicrogridDesign((100.0,)), load, DispatchConfig())
    out = local_search(cache, build_grids(diesel_space, 6), [seed], 1)
    assert caps_of(out) == [(40.0,), (60.0,), (80.0,), (100.0,)]
    assert cache.unique_simulations == 4
    zero = [d for d in out if d.deficit_ratio == 0]
    assert min(d.capacities[0] for d in zero) == 60.0


def test_local_search_skips_deficit_seeds(diesel_space):
    load = constant_load(150.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, diesel_space, MicrogridDesign((100.0,)), load, DispatchConfig())
    out = local_search(cache, build_grids(diesel_space, 6), [seed], 1)
    assert caps_of(out) == [(100.0,)]
    assert cache.unique_simulations == 1


def test_local_search_lower_bound_seed_generates_nothing(diesel_space):
    load = constant_load(0.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, diesel_space, MicrogridDesign((0.0,)), load, DispatchConfig())
    out = local_search(cache, build_grids(diesel_space, 6), [seed], 1)
    assert caps_of(out) == [(0.0,)]
    assert cache.unique_simulations == 1


def test_local_search_second_pass_recovers_cross_der_slack(desk_load, desk_space, desk_dispatch):
    # descending one DER can make an earlier DER reducible again; the
    # outer pass loop must catch that, leaving a design that is minimal
    # against every single-level decrease
    cache = SimulationCache(desk_space, desk_load, desk_dispatch)
    grids = build_grids(desk_space, 11)
    start = MicrogridDesign(tuple(g.points[-1] for g in grids))
    seed = memoized_operate(cache, desk_space, start, desk_load, desk_dispatch)
    out = local_search(cache, grids, [seed], 3)
    finals = [d for d in out if d.deficit_ratio == 0]
    best = min(finals, key=lambda d: sum(d.capacities))
    for i, grid in enumerate(grids):
        lowered = best.capacities[i] - grid.spacing
        if lowered < desk_space.ders[i].lower_bound - 1e-9:
            continue
        probe = memoized_operate(
            cache,
            desk_space,
            best.design.with_capacity(i, grid.snap(lowered)),
            desk_load,
            desk_dispatch,
        )
        assert probe.deficit_ratio > 0


# ---------------------------------------------------------------------------
# pipeline

def report_fingerprint(report):
    return (
        [(d.capacities, d.deficit_ratio, d.unused_ratios) for d in report.final_designs],
        report.all_simulated,
        report.per_stage_counts,
        report.seed,
    )


def test_pipeline_final_set_has_no_dominated_pair(desk_load, desk_space, desk_dispatch):
    report = run_pipeline(desk_space, desk_load, desk_dispatch, SearchConfig(rng_seed=42))
    finals = list(report.final_designs)
    assert finals
    for a in finals:
        for b in finals:
            if a is not b:
                assert not dominates(a, b)
    assert all(d.deficit_ratio <= 0.01 for d in finals)


def test_pipeline_seeded_determinism(desk_load, desk_space, desk_dispatch):
    config = SearchConfig(rng_seed=7)
    a = run_pipeline(desk_space, desk_load, desk_dispatch, config)
    b = run_pipeline(desk_space, desk_load, desk_dispatch, config)
    assert report_fingerprint(a) == report_fingerprint(b)


def without_dispatch_runs(fingerprint):
    finals, simulated, per_stage, seed = fingerprint
    counts = {
        stage: {k: v for k, v in c.items() if k != "dispatch_runs"} for stage, c in per_stage.items()
    }
    return finals, simulated, counts, seed


def test_pipeline_fingerprint_independent_of_memo_budget(
    desk_load, desk_space, desk_dispatch, monkeypatch
):
    config = SearchConfig(rng_seed=11)
    memoized = run_pipeline(desk_space, desk_load, desk_dispatch, config)
    monkeypatch.setattr(simulator, "PRE_DIESEL_MEMO_FLOATS", 0)
    unmemoized = run_pipeline(desk_space, desk_load, desk_dispatch, config)
    assert without_dispatch_runs(report_fingerprint(memoized)) == without_dispatch_runs(
        report_fingerprint(unmemoized)
    )
    for stage, counts in unmemoized.per_stage_counts.items():
        assert counts["dispatch_runs"] == counts["simulations"], stage
    runs = sum(c["dispatch_runs"] for c in memoized.per_stage_counts.values())
    assert runs < memoized.all_simulated


def test_pipeline_degenerate_levels_stay_on_coarse_grid(desk_load, desk_space, desk_dispatch):
    config = SearchConfig(coarse_level_points=6, fine_level_points=6, rng_seed=3)
    report = run_pipeline(desk_space, desk_load, desk_dispatch, config)
    grids = build_grids(desk_space, 6)
    for d in report.final_designs:
        for cap, grid in zip(d.capacities, grids):
            assert cap in grid.points


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(coarse_level_points=1)
    with pytest.raises(ValueError):
        SearchConfig(coarse_level_points=11, fine_level_points=6)
    with pytest.raises(ValueError):
        SearchConfig(outer_passes=0)
    with pytest.raises(ValueError):
        SearchConfig(deficit_display_threshold=-0.1)
    with pytest.raises(ValueError):
        SearchConfig(deficit_display_threshold=float("nan"))
    for field, value in (
        ("coarse_level_points", 3.0),
        ("fine_level_points", 11.0),
        ("outer_passes", 1.5),
        ("outer_passes", True),
        ("fine_level_points", "11"),
    ):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SearchConfig(**{field: value})
    for field, value in (("rng_seed", 1.5), ("rng_seed", True), ("rng_seed", "7")):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SearchConfig(**{field: value})
    for value in (True, False, "0.01", None):
        with pytest.raises(ValueError, match="deficit_display_threshold must be a number"):
            SearchConfig(deficit_display_threshold=value)
    assert SearchConfig(outer_passes=None).outer_passes is None
    assert SearchConfig(rng_seed=-3, deficit_display_threshold=0).deficit_display_threshold == 0

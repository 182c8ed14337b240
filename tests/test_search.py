"""Algorithm traces on tiny instances, plus pipeline-level properties."""

import functools
import itertools
import logging
import math
import random

import pytest

from dersizer import search, simulator
from dersizer.core import DerKind, DerSpec, DesignSpace, MicrogridDesign, non_dominated
from dersizer.search import (
    SearchConfig,
    SearchSpaceTooLarge,
    binary_search_refine,
    build_grids,
    exhaustive_search,
    initial_step_size,
    local_search,
    record_stage,
    run_pipeline,
)
from dersizer.simulator import DispatchConfig, SimulationCache, memoized_operate
from dersizer.synthetic import synthetic_load_profile
from helpers import DESK_BESS_RATIO_H, constant_load, dominates, space_for, with_capacity


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


def plain_descending_exhaustive(cache, space, level_points):
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
        evaluated = memoized_operate(cache, design=design)
        simulated.append(evaluated)
        if evaluated.deficit_ratio > 0:
            deficient.add(idx)
    return simulated


# the last two list the battery before the solar array, against the cache's merit order
@pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2, 3), (2, 0, 1), (2, 3, 0, 1)])
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
    plain = plain_descending_exhaustive(plain_cache, space, levels)
    cache = SimulationCache(space, desk_load, desk_dispatch)
    got = exhaustive_search(cache, space, desk_load, desk_dispatch, levels)
    assert got == plain
    assert cache.unique_simulations == plain_cache.unique_simulations == len(got)
    # the visits descend with the DERs nested in the cache's merit order, diesel innermost
    merit = [*cache.non_diesel_idx, *cache.diesel_idx]
    visited = [[d.capacities[i] for i in merit] for d in cache._designs.values()]
    assert visited == sorted(visited, reverse=True)
    candidates = math.prod(len(g.points) for g in build_grids(space, levels))
    counts = {}
    record_stage(cache, counts, "exhaustive", len(got), candidates)
    assert counts["exhaustive"]["pruned"] == candidates - len(plain) > 0
    assert cache.dispatch_runs < plain_cache.dispatch_runs


def test_exhaustive_dispatches_each_non_diesel_vector_once(desk_load, desk_space, desk_dispatch):
    cache = SimulationCache(desk_space, desk_load, desk_dispatch)
    simulated = exhaustive_search(cache, desk_space, desk_load, desk_dispatch, 14)
    vectors = {tuple(d.capacities[i] for i in cache.non_diesel_idx) for d in simulated}
    assert len(cache._pre_diesel) == cache.dispatch_runs  # the memo evicted nothing
    assert cache.dispatch_runs == len(vectors) == 14 * 14  # battery-less vectors included


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


def test_exhaustive_refuses_an_oversized_product_before_building_grids(diesel_space, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("grids built for an enumeration over the cap")

    monkeypatch.setattr(search, "build_grids", unbuilt)
    two = DesignSpace(
        ders=(diesel_space.ders[0], DerSpec(name="other", kind=DerKind.PHOTOVOLTAIC, upper_bound=50.0))
    )
    load, config = constant_load(0.0), DispatchConfig()
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_search(SimulationCache(two, load, config), two, load, config, 2_000_000)


def test_exhaustive_rejects_a_negative_level_count_before_the_cap(diesel_space):
    # (-20000) ** 2 candidates would exceed the cap, but the level count is invalid first
    two = DesignSpace(
        ders=(diesel_space.ders[0], DerSpec(name="other", kind=DerKind.PHOTOVOLTAIC, upper_bound=50.0))
    )
    load, config = constant_load(0.0), DispatchConfig()
    with pytest.raises(ValueError, match="level_points must be >= 2, got -20000"):
        exhaustive_search(SimulationCache(two, load, config), two, load, config, -20000)


def test_exhaustive_refuses_a_cache_built_for_another_input(diesel_space):
    load, config = constant_load(50.0), DispatchConfig()
    wider = DesignSpace(ders=(DerSpec(name="diesel", kind=DerKind.DIESEL_GENERATOR, upper_bound=120.0),))
    cache = SimulationCache(diesel_space, load, config)
    for space, other_load, other_config in (
        (wider, load, config),
        (diesel_space, constant_load(60.0), config),
        (diesel_space, load, DispatchConfig(pv_peak_factor=0.9)),
    ):
        with pytest.raises(ValueError, match="another"):
            exhaustive_search(cache, space, other_load, other_config, 6)
    assert cache.unique_simulations == 0


# ---------------------------------------------------------------------------
# binary search refinement

def test_binary_search_descends_to_minimal_feasible(diesel_space):
    # load 55 on {0,10,...,100}: h=8 overshoots to 20 (deficit), h=4 lands on
    # 60 then overshoots, h=2 and h=1 both reject; 60 is minimal feasible
    load = constant_load(55.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, design=MicrogridDesign((100.0,)))
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
    seed = memoized_operate(cache, design=MicrogridDesign((0.0,)))
    out = binary_search_refine(cache, build_grids(diesel_space, 11), [seed], random.Random(0), 1)
    assert caps_of(out) == [(0.0,), (20.0,), (40.0,), (50.0,), (60.0,), (80.0,), (100.0,)]
    assert cache.unique_simulations == 7
    zero = [d for d in out if d.deficit_ratio == 0]
    assert min(d.capacities[0] for d in zero) == 60.0


def test_binary_search_feasible_lower_bound_stays_put(diesel_space):
    load = constant_load(0.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, design=MicrogridDesign((0.0,)))
    out = binary_search_refine(cache, build_grids(diesel_space, 11), [seed], random.Random(0), 1)
    assert caps_of(out) == [(0.0,)]
    assert cache.unique_simulations == 1


def test_binary_search_snaps_offgrid_seeds(diesel_space):
    load = constant_load(55.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, design=MicrogridDesign((94.0,)))
    out = binary_search_refine(cache, build_grids(diesel_space, 11), [seed], random.Random(0), 1)
    keys = {d.capacities for d in out}
    assert (90.0,) in keys  # 94 snapped down to the nearest fine point
    assert (94.0,) not in keys  # the off-grid seed itself is never returned


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


def plain_order_binary_search(cache, grids, seeds, rng, passes, grouped=False):
    """`binary_search_refine` walking every sweep, each seed in seed order, on the same child rngs.

    With `grouped`, the seeds are walked in the stage's order instead: stably
    sorted by their snapped non-diesel levels.
    """
    evaluate, record = search._evaluator(cache, grids)
    tops = [g.n_intervals for g in grids]
    starts = [tuple(g.level(c) for g, c in zip(grids, d.capacities)) for d in seeds]
    walks = list(zip(starts, [rng.getrandbits(64) for _ in seeds]))
    if grouped:
        walks.sort(key=lambda walk: [walk[0][i] for i in cache.non_diesel_idx])
    for start, child in walks:
        seed_rng = random.Random(child)
        base = evaluate(start)
        for _ in range(passes):
            decrease = base.deficit_ratio == 0
            levels, current = start, base
            order = list(range(len(grids)))
            seed_rng.shuffle(order)
            for i in order:
                h = initial_step_size(tops[i])
                while h >= 1:
                    levels, current, bounded = search._walk(evaluate, levels, current, i, tops[i], -h if decrease else h)
                    if bounded and not decrease and current.deficit_ratio == 0:
                        decrease = True
                    h //= 2
    return list({d.capacities: d for d in record.values()}.values())


def test_binary_search_seed_grouping_matches_the_seed_order_with_fewer_runs(
    desk_load, desk_space, desk_dispatch, monkeypatch
):
    # about three pre-diesel entries, so the walk order decides what the memo still holds
    monkeypatch.setattr(simulator, "PRE_DIESEL_MEMO_FLOATS", 3 * 4 * len(desk_load))
    grids = build_grids(desk_space, 41)
    results = []
    for refine in (plain_order_binary_search, binary_search_refine):
        cache = SimulationCache(desk_space, desk_load, desk_dispatch)
        seeds = exhaustive_search(cache, desk_space, desk_load, desk_dispatch, 6)
        before = cache.dispatch_runs
        out = refine(cache, grids, seeds, random.Random(7), len(grids))
        results.append((cache.dispatch_runs - before, cache.unique_simulations, out))
    (plain_runs, plain_sims, plain), (grouped_runs, grouped_sims, grouped) = results
    assert repr(non_dominated(grouped)) == repr(non_dominated(plain))
    assert sorted(map(repr, grouped)) == sorted(map(repr, plain)) and grouped_sims == plain_sims
    assert grouped_runs < plain_runs  # 374 against 412


@pytest.mark.parametrize("instance", ["desk-41", "672-steps-21"])
def test_binary_search_sweep_replay_changes_nothing(instance, desk_load, desk_space, desk_dispatch, monkeypatch):
    if instance == "desk-41":
        load, space, levels = desk_load, desk_space, 41
    else:
        load = synthetic_load_profile(n_steps=672, step_seconds=1800.0, seed=7)
        space, levels = space_for(load, bess_ratio_h=2.0), 21
    grids = build_grids(space, levels)
    asked, walks = [], []
    real_operate, real_walk = search.memoized_operate, search._walk

    def operate(cache, design):
        asked.append(design)
        return real_operate(cache, design=design)

    def walk(*args):
        walks.append(args)
        return real_walk(*args)

    monkeypatch.setattr(search, "memoized_operate", operate)
    monkeypatch.setattr(search, "_walk", walk)
    results = []
    for refine in (functools.partial(plain_order_binary_search, grouped=True), binary_search_refine):
        cache = SimulationCache(space, load, desk_dispatch)
        seeds = exhaustive_search(cache, space, load, desk_dispatch, 6)
        del asked[:], walks[:]
        runs = cache.dispatch_runs
        out = refine(cache, grids, seeds, random.Random(7), len(grids))
        results.append((list(map(repr, out)), list(asked), cache.dispatch_runs - runs, len(walks)))
    (plain, plain_asked, plain_runs, plain_walks), (replayed, replayed_asked, replayed_runs, replayed_walks) = results
    assert replayed == plain and replayed_asked == plain_asked and replayed_runs == plain_runs
    assert replayed_walks < plain_walks


# ---------------------------------------------------------------------------
# local search

def test_local_search_descends_single_levels(diesel_space):
    load = constant_load(50.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, design=MicrogridDesign((100.0,)))
    out = local_search(cache, build_grids(diesel_space, 6), [seed], 1)
    assert caps_of(out) == [(40.0,), (60.0,), (80.0,), (100.0,)]
    assert cache.unique_simulations == 4
    zero = [d for d in out if d.deficit_ratio == 0]
    assert min(d.capacities[0] for d in zero) == 60.0


def test_local_search_skips_deficit_seeds(diesel_space):
    load = constant_load(150.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, design=MicrogridDesign((100.0,)))
    out = local_search(cache, build_grids(diesel_space, 6), [seed], 1)
    assert caps_of(out) == [(100.0,)]
    assert cache.unique_simulations == 1


def test_local_search_lower_bound_seed_generates_nothing(diesel_space):
    load = constant_load(0.0)
    cache = SimulationCache(diesel_space, load, DispatchConfig())
    seed = memoized_operate(cache, design=MicrogridDesign((0.0,)))
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
    seed = memoized_operate(cache, design=start)
    out = local_search(cache, grids, [seed], 3)
    finals = [d for d in out if d.deficit_ratio == 0]
    best = min(finals, key=lambda d: sum(d.capacities))
    for i, grid in enumerate(grids):
        lowered = grid.points[max(grid.level(best.capacities[i]) - 1, 0)]
        if lowered == best.capacities[i]:
            continue  # clamped at the lower bound
        probe = memoized_operate(cache, design=with_capacity(best.design, i, lowered))
        assert probe.deficit_ratio > 0


def test_local_search_seed_midway_between_levels_starts_from_the_lower_one():
    # 12 levels on [0, 500]: 250 lies exactly midway between levels 5 and 6,
    # so the seed is snapped to level 5 (227.27) and walks down from there
    space = DesignSpace(ders=(DerSpec(name="diesel", kind=DerKind.DIESEL_GENERATOR, upper_bound=500.0),))
    grids = build_grids(space, 12)
    points = grids[0].points
    assert 250.0 - points[5] == points[6] - 250.0
    load = constant_load(100.0)
    cache = SimulationCache(space, load, DispatchConfig())
    seed = memoized_operate(cache, design=MicrogridDesign((250.0,)))
    out = local_search(cache, grids, [seed], 1)
    # levels 4 and 3 serve the 100 kW load; level 2 (90.9 kW) has a deficit and
    # ends the walk. The off-grid seed is not returned.
    assert caps_of(out) == [(points[2],), (points[3],), (points[4],), (points[5],)]
    assert cache.unique_simulations == 5


def test_each_refinement_stage_evaluates_each_distinct_vector_once(monkeypatch, desk_load, desk_space):
    stage = [None]
    calls = {"binary_search": [], "local_search": []}

    def entering(name, run):
        def wrapped(*args):
            stage[0] = name
            try:
                return run(*args)
            finally:
                stage[0] = None

        return wrapped

    def counted(cache, *, design):
        if stage[0] is not None:
            calls[stage[0]].append(design.capacities)
        return memoized_operate(cache, design=design)

    monkeypatch.setattr(search, "binary_search_refine", entering("binary_search", binary_search_refine))
    monkeypatch.setattr(search, "local_search", entering("local_search", local_search))
    monkeypatch.setattr(search, "memoized_operate", counted)
    report = run_pipeline(desk_space, desk_load, DispatchConfig(), SearchConfig(rng_seed=7))
    for name, vectors in calls.items():
        assert vectors, name
        assert len(vectors) == len(set(vectors)), name
        assert len(vectors) >= report.per_stage_counts[name]["simulations"]


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


def test_stage_log_lines_carry_the_report_counts(desk_load, desk_space, desk_dispatch, caplog):
    caplog.set_level(logging.INFO, logger="dersizer")
    report = run_pipeline(desk_space, desk_load, desk_dispatch, SearchConfig(rng_seed=7))
    assert list(report.per_stage_counts) == ["exhaustive", "binary_search", "local_search"]
    for stage, counts in report.per_stage_counts.items():
        prefix = stage.replace("_", " ") + " stage:"
        [record] = [r for r in caplog.records if str(r.msg).startswith(prefix)]
        assert record.args == tuple(counts.values()), stage


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
    # even over budget the memo keeps its newest entry, and the exhaustive
    # stage visits each PV and battery column's diesel levels back to back
    assert unmemoized.per_stage_counts["exhaustive"]["dispatch_runs"] == config.coarse_level_points**2 == 36
    runs = sum(c["dispatch_runs"] for c in memoized.per_stage_counts.values())
    assert runs < memoized.all_simulated


def test_outer_passes_override(desk_load, desk_space, desk_dispatch, monkeypatch):
    default = run_pipeline(desk_space, desk_load, desk_dispatch, SearchConfig(rng_seed=7))
    explicit = run_pipeline(
        desk_space, desk_load, desk_dispatch, SearchConfig(rng_seed=7, outer_passes=len(desk_space.ders))
    )
    assert explicit.per_stage_counts == default.per_stage_counts
    assert explicit.all_simulated == default.all_simulated
    assert repr(explicit.final_designs) == repr(default.final_designs)

    refined = {}

    def recording(cache, grids, seeds, rng, passes):
        out = binary_search_refine(cache, grids, seeds, rng, passes)
        refined[passes] = {d.capacities for d in out}
        return out

    monkeypatch.setattr(search, "binary_search_refine", recording)
    one = run_pipeline(desk_space, desk_load, desk_dispatch, SearchConfig(rng_seed=7, outer_passes=1))
    three = run_pipeline(desk_space, desk_load, desk_dispatch, SearchConfig(rng_seed=7, outer_passes=3))
    # every pass restarts from the snapped seed with the next DER order of the
    # seed's own rng, so one pass walks a prefix of what three passes walk
    assert refined[1] < refined[3]
    assert [len(refined[1]), len(refined[3])] == [
        r.per_stage_counts["binary_search"]["designs"] for r in (one, three)
    ]
    assert one.all_simulated < three.all_simulated


def test_pipeline_degenerate_levels_stay_on_coarse_grid(desk_load, desk_space, desk_dispatch):
    config = SearchConfig(coarse_level_points=6, fine_level_points=6, rng_seed=3)
    report = run_pipeline(desk_space, desk_load, desk_dispatch, config)
    grids = build_grids(desk_space, 6)
    for d in report.final_designs:
        for cap, grid in zip(d.capacities, grids):
            assert cap in grid.points


def test_pipeline_finals_lie_on_the_fine_grid_and_are_rightsized(desk_load, desk_dispatch):
    # 11 fine intervals are no multiple of 4 coarse ones, so coarse seeds
    # such as 75 kW solar or 250 kWh battery lie off the 12-level grids
    battery = dict(charge_ratio=DESK_BESS_RATIO_H, discharge_ratio=DESK_BESS_RATIO_H)
    space = DesignSpace(
        ders=(
            DerSpec(name="diesel", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0),
            DerSpec(name="solar", kind=DerKind.PHOTOVOLTAIC, upper_bound=300.0),
            DerSpec(name="battery", kind=DerKind.BATTERY_STORAGE, upper_bound=500.0, **battery),
        )
    )
    config = SearchConfig(coarse_level_points=5, fine_level_points=12, rng_seed=0)
    report = run_pipeline(space, desk_load, desk_dispatch, config)
    grids = build_grids(space, 12)
    cache = SimulationCache(space, desk_load, desk_dispatch)
    assert report.final_designs
    for d in report.final_designs:
        for cap, grid in zip(d.capacities, grids):
            assert cap in grid.points, d.capacities
        if d.deficit_ratio > 0:
            continue
        for i, grid in enumerate(grids):
            below = [p for p in grid.points if p < d.capacities[i]]
            if not below:
                continue  # at the lower bound
            lowered = with_capacity(d.design, i, below[-1])
            probe = memoized_operate(cache, design=lowered)
            assert probe.deficit_ratio > 0, (d.capacities, i)


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
    with pytest.raises(ValueError, match="deficit_display_threshold must be finite and >= 0"):
        SearchConfig(deficit_display_threshold=float("inf"))
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

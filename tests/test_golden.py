"""Golden outputs, pinned so a refactor cannot move them.

Most are on the desk instance; the recall pins are also on a 672-step
half-hourly input, measured against `reference.diesel_bisection_frontier`.

The constants were computed before the refinement stages were rewritten
around one walk. A change that alters output on purpose updates them and
says so.
"""

import hashlib
import itertools

import pytest

from dersizer import DispatchConfig
from dersizer.core import EvaluatedDesign, MicrogridDesign, deficit_ratio, non_dominated, unused_ratio
from dersizer.io_cli import main
from dersizer.search import SearchConfig, build_grids, exhaustive_search, run_pipeline
from dersizer.simulator import SimulationCache, memoized_operate
from dersizer.synthetic import synthetic_load_profile
from helpers import space_for
from reference import diesel_bisection_frontier, fold_dispatch_step

SIZE_CSV_SHA256 = "a2690dbca839cd50c818e9b73bb1ff90b1bc26f2447759afe305fae0469a1e3a"
EXHAUSTIVE_8_CSV_SHA256 = "267261cf7dd072bd67b1a2baf3bc43876ee2ea4a586ba0d3f36b73d61e390d65"
PIPELINE_SEED = 7
PIPELINE_ALL_SIMULATED = 366
PIPELINE_STAGE_COUNTS = {
    "exhaustive": {"simulations": 121, "designs": 121, "pruned": 95, "dispatch_runs": 36},
    "binary_search": {"simulations": 244, "designs": 365, "dispatch_runs": 37},
    "local_search": {"simulations": 1, "designs": 114, "dispatch_runs": 0},
}
# One desk pipeline at 41 fine levels (the level count of the desk-seeds
# benchmark), computed before the refinement walk stepped grid levels.
PIPELINE_41_ALL_SIMULATED = 808
PIPELINE_41_STAGE_COUNTS = {
    "exhaustive": {"simulations": 121, "designs": 121, "pruned": 95, "dispatch_runs": 36},
    "binary_search": {"simulations": 658, "designs": 779, "dispatch_runs": 200},
    "local_search": {"simulations": 29, "designs": 276, "dispatch_runs": 10},
}
PIPELINE_41_FINALS_REPR_SHA256 = "dfc4dfe01faf68675fc4cfa3e03d8d4395bbd33574ec1327e6698833894300a9"

# Recall at 21 fine levels: how many of the exact zero-deficit frontier's
# designs the pipeline reports. The oracle is the exhaustive stage's
# non-dominated zero-deficit set at 21 levels, exact on the desk instance
# because its dispatch is monotone in every capacity.
RECALL_21_ORACLE_DESIGNS = 32
RECALL_21_ORACLE_SIMULATIONS = 5396
# rng seed -> (oracle designs found, pipeline simulations)
RECALL_21_BY_SEED = {7: (20, 550), 42: (18, 543)}

# Recall on two weeks of half-hourly load at 21 fine levels and rng seed 7,
# where nonzero deficits come in steps of 1/672, so many lie within the
# display threshold, and where a one-level battery raise can add deficit
# (6 such raises on the 21-level grid with 2 h batteries, 84 with 4 h). The
# exact frontier within the threshold is the diesel bisection oracle's.
# battery ratio (h) -> (oracle simulations, pipeline simulations,
#   (zero-deficit finals on the frontier, its zero-deficit designs),
#   (finals on the frontier, its designs))
RECALL_672_BY_RATIO = {
    2.0: (2845, 411, (12, 14), (25, 37)),
    4.0: (2754, 438, (18, 32), (47, 89)),
}
# Their dispatch runs per stage at the default memo budget, which evicts
# here, unlike on the desk: the binary stage walks seeds that share
# non-diesel levels back to back (128 and 9, and 146 and 13, in seed order).
RECALL_672_DISPATCH_RUNS = {
    2.0: {"exhaustive": 36, "binary_search": 107, "local_search": 8},
    4.0: {"exhaustive": 36, "binary_search": 127, "local_search": 14},
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_size_csv_is_golden(desk_cli_dir):
    out = desk_cli_dir / "size.csv"
    assert main(["size", "--config", str(desk_cli_dir / "config.json"), "--out", str(out)]) == 0
    assert sha256_of(out) == SIZE_CSV_SHA256


def test_exhaustive_csv_at_8_levels_is_golden(desk_cli_dir):
    out = desk_cli_dir / "exhaustive.csv"
    argv = ["exhaustive", "--config", str(desk_cli_dir / "config.json"), "--levels", "8", "--out", str(out)]
    assert main(argv) == 0
    assert sha256_of(out) == EXHAUSTIVE_8_CSV_SHA256


def test_pipeline_counts_are_golden(desk_load, desk_space):
    report = run_pipeline(desk_space, desk_load, DispatchConfig(), SearchConfig(rng_seed=PIPELINE_SEED))
    assert report.all_simulated == PIPELINE_ALL_SIMULATED
    assert report.per_stage_counts == PIPELINE_STAGE_COUNTS


@pytest.fixture(scope="module")
def desk_pipeline_41(desk_load, desk_space):
    config = SearchConfig(fine_level_points=41, rng_seed=PIPELINE_SEED)
    return run_pipeline(desk_space, desk_load, DispatchConfig(), config)


def test_pipeline_at_41_levels_is_golden(desk_pipeline_41):
    report = desk_pipeline_41
    assert report.all_simulated == PIPELINE_41_ALL_SIMULATED
    assert report.per_stage_counts == PIPELINE_41_STAGE_COUNTS
    assert hashlib.sha256(repr(report.final_designs).encode()).hexdigest() == PIPELINE_41_FINALS_REPR_SHA256


@pytest.fixture(scope="module")
def desk_oracle_21(desk_load, desk_space):
    cache = SimulationCache(desk_space, desk_load, DispatchConfig())
    designs = exhaustive_search(cache, desk_space, desk_load, DispatchConfig(), 21)
    assert cache.unique_simulations == RECALL_21_ORACLE_SIMULATIONS
    return {d.capacities for d in non_dominated(designs) if d.deficit_ratio == 0}


@pytest.mark.parametrize("rng_seed", sorted(RECALL_21_BY_SEED))
def test_pipeline_recall_at_21_levels_is_golden(desk_load, desk_space, desk_oracle_21, rng_seed):
    assert len(desk_oracle_21) == RECALL_21_ORACLE_DESIGNS
    config = SearchConfig(fine_level_points=21, rng_seed=rng_seed)
    report = run_pipeline(desk_space, desk_load, DispatchConfig(), config)
    found = {d.capacities for d in report.final_designs if d.deficit_ratio == 0}
    assert found <= desk_oracle_21  # no zero-deficit final lies off the exact frontier
    assert (len(found), report.all_simulated) == RECALL_21_BY_SEED[rng_seed]


@pytest.fixture(scope="module")
def fortnight_load():
    return synthetic_load_profile(n_steps=672, step_seconds=1800.0, seed=7)


def test_diesel_bisection_frontier_equals_full_enumeration(fortnight_load):
    space = space_for(fortnight_load, bess_ratio_h=4.0)
    grids = build_grids(space, 11)
    threshold = SearchConfig().deficit_display_threshold
    cache = SimulationCache(space, fortnight_load, DispatchConfig())
    every = [
        memoized_operate(cache, design=MicrogridDesign(tuple([g.points[k] for g, k in zip(grids, levels)])))
        for levels in itertools.product(*(range(len(g.points)) for g in grids))
    ]
    exact = [d for d in non_dominated(every) if d.deficit_ratio <= threshold]
    assert any(d.deficit_ratio == 0 for d in exact) and any(d.deficit_ratio > 0 for d in exact)
    oracle_cache = SimulationCache(space, fortnight_load, DispatchConfig())
    assert repr(diesel_bisection_frontier(oracle_cache, grids, threshold)) == repr(exact)
    assert oracle_cache.unique_simulations < cache.unique_simulations


@pytest.fixture(scope="module", params=sorted(RECALL_672_BY_RATIO))
def fortnight_pipeline(request, fortnight_load):
    """(battery ratio, space, report) of a pinned 672-step pipeline at 21 fine levels."""
    space = space_for(fortnight_load, request.param)
    search_config = SearchConfig(fine_level_points=21, rng_seed=PIPELINE_SEED)
    return request.param, space, run_pipeline(space, fortnight_load, DispatchConfig(), search_config)


def test_pipeline_recall_on_672_steps_is_golden(fortnight_load, fortnight_pipeline):
    bess_ratio_h, space, report = fortnight_pipeline
    cache = SimulationCache(space, fortnight_load, DispatchConfig())
    frontier = diesel_bisection_frontier(cache, build_grids(space, 21), SearchConfig().deficit_display_threshold)
    exact = {d.capacities for d in frontier}
    exact_zero = {d.capacities for d in frontier if d.deficit_ratio == 0}
    found = {d.capacities for d in report.final_designs}
    found_zero = {d.capacities for d in report.final_designs if d.deficit_ratio == 0}
    assert found_zero <= exact_zero  # no zero-deficit final lies off the exact frontier
    assert (
        cache.unique_simulations,
        report.all_simulated,
        (len(found_zero), len(exact_zero)),
        (len(found & exact), len(exact)),
    ) == RECALL_672_BY_RATIO[bess_ratio_h]
    runs = {stage: counts["dispatch_runs"] for stage, counts in report.per_stage_counts.items()}
    assert runs == RECALL_672_DISPATCH_RUNS[bess_ratio_h]


def assert_finals_match_the_folded_specification(space, load, report, level_points):
    """Each final's metrics equal the folded `dispatch_step`'s bit for bit, and a
    zero-deficit final lowered one level in any DER has a deficit under the fold."""
    config = DispatchConfig()

    def folded(design):
        outcome = fold_dispatch_step(space, design, load, config)
        ratios = tuple(unused_ratio(outcome, i, c) for i, c in enumerate(design.capacities))
        return EvaluatedDesign(design, deficit_ratio(outcome, load), ratios)

    grids = build_grids(space, level_points)
    for final in report.final_designs:
        assert repr(folded(final.design)) == repr(final)
        if final.deficit_ratio == 0:
            levels = [g.level(c) for g, c in zip(grids, final.capacities)]
            assert all(g.points[k] == c for g, k, c in zip(grids, levels, final.capacities))
            for i, k in enumerate(levels):
                if k > 0:
                    lower = MicrogridDesign(final.capacities[:i] + (grids[i].points[k - 1],) + final.capacities[i + 1 :])
                    assert folded(lower).deficit_ratio > 0, (final.capacities, i)


def test_desk_finals_at_41_levels_match_the_folded_specification(desk_load, desk_space, desk_pipeline_41):
    assert_finals_match_the_folded_specification(desk_space, desk_load, desk_pipeline_41, 41)


def test_672_step_finals_match_the_folded_specification(fortnight_load, fortnight_pipeline):
    _, space, report = fortnight_pipeline
    assert_finals_match_the_folded_specification(space, fortnight_load, report, 21)

"""Golden outputs, pinned so a refactor cannot move them.

Most are on the desk instance; the recall pins are also on a 672-step
half-hourly input, measured against `reference.diesel_bisection_frontier`,
and the four-DER pins add wind to both.

The constants were computed before the refinement stages were rewritten
around one walk. A change that alters output on purpose updates them and
says so.
"""

import hashlib
import itertools
import os
import pathlib
import subprocess
import sys
from typing import NamedTuple

import pytest

from dersizer import DerKind, DerSpec, DesignSpace, DispatchConfig, LoadProfile
from dersizer.core import EvaluatedDesign, MicrogridDesign, deficit_ratio, non_dominated, unused_ratio
from dersizer.io_cli import main
from dersizer.search import SearchConfig, SearchReport, build_grids, exhaustive_search, run_pipeline
from dersizer.simulator import SimulationCache, memoized_operate
from dersizer.synthetic import synthetic_load_profile
from helpers import DESK_BESS_RATIO_H, ceil_to, space_for
from reference import diesel_bisection_frontier, fold_dispatch_step

SIZE_CSV_SHA256 = "a2690dbca839cd50c818e9b73bb1ff90b1bc26f2447759afe305fae0469a1e3a"
EXHAUSTIVE_8_CSV_SHA256 = "267261cf7dd072bd67b1a2baf3bc43876ee2ea4a586ba0d3f36b73d61e390d65"
SIZE_JSON_SHA256 = "76a4b8802a4a3dc007c6fdffde57ba46f22b61df6ae5c8c6ad92fd24b55f6ef8"
EXHAUSTIVE_8_JSON_SHA256 = "2b3fea9563fd69667d1f044d920f4782f8a6018a14c94ecc9e61608ba18edbcc"
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

# Four DERs, the paper's mix of sources: diesel, PV, wind at 1x the peak load
# (the default 0.35 capacity factor) and a battery, at 11 fine levels and rng
# seed 7, on the desk day (0.5 h battery) and on the 672-step input (2 h).
FOUR_DER_LEVELS = 11
# input -> (all_simulated, per_stage_counts, finals repr sha256)
FOUR_DER_PIPELINES = {
    "desk": (
        2481,
        {
            "exhaustive": {"simulations": 975, "designs": 975, "pruned": 321, "dispatch_runs": 216},
            "binary_search": {"simulations": 1482, "designs": 2457, "dispatch_runs": 372},
            "local_search": {"simulations": 24, "designs": 823, "dispatch_runs": 3},
        },
        "6fb5ea429d5623eda865dc8b4c7be740a5ec9eddcd39a86670e1190d3bb7aa33",
    ),
    "672-steps": (
        2465,
        {
            "exhaustive": {"simulations": 625, "designs": 625, "pruned": 671, "dispatch_runs": 216},
            "binary_search": {"simulations": 1821, "designs": 2446, "dispatch_runs": 775},
            "local_search": {"simulations": 19, "designs": 934, "dispatch_runs": 19},
        },
        "59af166cd1bf7c31c9c31d40c299a5638780685c05af5da71d20885ad1c6ef62",
    ),
}
# input -> (oracle simulations, (zero-deficit finals on the frontier, its zero-deficit designs))
FOUR_DER_RECALL = {"desk": (5782, (86, 106)), "672-steps": (6315, (44, 53))}
# input -> one-level raises over the whole grid that grow the deficit ratio,
# per DER (diesel, PV, wind, battery): only a battery raise ever does.
FOUR_DER_DEFICIT_RAISES = {"desk": (0, 0, 0, 0), "672-steps": (0, 0, 0, 4)}


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


@pytest.mark.parametrize(
    ("argv", "sha256"),
    [
        (["size"], SIZE_CSV_SHA256),
        (["size", "--format", "json"], SIZE_JSON_SHA256),
        (["exhaustive", "--levels", "8"], EXHAUSTIVE_8_CSV_SHA256),
        (["exhaustive", "--levels", "8", "--format", "json"], EXHAUSTIVE_8_JSON_SHA256),
    ],
    ids=["size-csv", "size-json", "exhaustive-8-csv", "exhaustive-8-json"],
)
def test_cli_output_is_byte_identical_across_processes(desk_cli_dir, argv, sha256):
    # pyproject's pythonpath reaches only this process, so the children get src/ explicitly
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    written = []
    for hash_seed in ("0", "1"):
        out = desk_cli_dir / f"out_{hash_seed}"
        command = [sys.executable, "-m", "dersizer.io_cli", *argv, "--config", "config.json", "--out", str(out)]
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": pythonpath}
        subprocess.run(command, cwd=desk_cli_dir, env=env, check=True, capture_output=True, timeout=120)
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert hashlib.sha256(written[0]).hexdigest() == sha256


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
    """Each final's metrics, and those of a zero-deficit final lowered one level in
    any DER, equal the folded `dispatch_step`'s bit for bit, and each such lowered
    design has a deficit."""
    config = DispatchConfig()
    cache = SimulationCache(space, load, config)

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
                    specified = folded(lower)
                    assert repr(specified) == repr(memoized_operate(cache, design=lower))
                    assert specified.deficit_ratio > 0, (final.capacities, i)


def test_desk_finals_at_41_levels_match_the_folded_specification(desk_load, desk_space, desk_pipeline_41):
    assert_finals_match_the_folded_specification(desk_space, desk_load, desk_pipeline_41, 41)


def test_672_step_finals_match_the_folded_specification(fortnight_load, fortnight_pipeline):
    _, space, report = fortnight_pipeline
    assert_finals_match_the_folded_specification(space, fortnight_load, report, 21)


class FourDer(NamedTuple):
    name: str
    space: DesignSpace
    load: LoadProfile
    report: SearchReport
    cache: SimulationCache  # the oracle's, shared by later tests
    oracle_simulations: int
    frontier: list[EvaluatedDesign]


@pytest.fixture(scope="module", params=list(FOUR_DER_PIPELINES))
def four_der(request, desk_load, fortnight_load) -> FourDer:
    """A four-DER input's pinned pipeline and its exact frontier."""
    load, bess_ratio_h = {"desk": (desk_load, DESK_BESS_RATIO_H), "672-steps": (fortnight_load, 2.0)}[request.param]
    diesel, solar, battery = space_for(load, bess_ratio_h).ders
    wind = DerSpec(name="wind", kind=DerKind.WIND_TURBINE, upper_bound=ceil_to(load.peak_kw))
    space = DesignSpace(ders=(diesel, solar, wind, battery))
    search_config = SearchConfig(fine_level_points=FOUR_DER_LEVELS, rng_seed=PIPELINE_SEED)
    report = run_pipeline(space, load, DispatchConfig(), search_config)
    cache = SimulationCache(space, load, DispatchConfig())
    frontier = diesel_bisection_frontier(
        cache, build_grids(space, FOUR_DER_LEVELS), search_config.deficit_display_threshold
    )
    return FourDer(request.param, space, load, report, cache, cache.unique_simulations, frontier)


def test_four_der_pipeline_is_golden(four_der):
    report = four_der.report
    digest = hashlib.sha256(repr(report.final_designs).encode()).hexdigest()
    assert (report.all_simulated, report.per_stage_counts, digest) == FOUR_DER_PIPELINES[four_der.name]


def test_four_der_recall_is_golden(four_der):
    exact_zero = {d.capacities for d in four_der.frontier if d.deficit_ratio == 0}
    found_zero = {d.capacities for d in four_der.report.final_designs if d.deficit_ratio == 0}
    assert found_zero <= exact_zero  # no zero-deficit final lies off the exact frontier
    recall = (four_der.oracle_simulations, (len(found_zero), len(exact_zero)))
    assert recall == FOUR_DER_RECALL[four_der.name]


def test_four_der_deficit_raises_per_der_are_golden(four_der):
    # Evidence for pruning along the non-battery axes: over every design of the
    # grid, count the one-level raises of each DER that grow the deficit ratio.
    grids = build_grids(four_der.space, FOUR_DER_LEVELS)
    ratio = {}
    # diesel, DER 0, varies fastest, so the memo serves each non-diesel vector's column
    for rest in itertools.product(range(FOUR_DER_LEVELS), repeat=len(grids) - 1):
        for diesel in range(FOUR_DER_LEVELS):
            levels = (diesel, *rest)
            design = MicrogridDesign(tuple([g.points[k] for g, k in zip(grids, levels)]))
            ratio[levels] = memoized_operate(four_der.cache, design=design).deficit_ratio
    raises = [0] * len(grids)
    for levels, r in ratio.items():
        for i, k in enumerate(levels):
            if k < FOUR_DER_LEVELS - 1 and ratio[levels[:i] + (k + 1,) + levels[i + 1 :]] > r:
                raises[i] += 1
    assert tuple(raises) == FOUR_DER_DEFICIT_RAISES[four_der.name]


@pytest.mark.parametrize("four_der", ["desk"], indirect=True)  # the fold takes 1.7 s on 672 steps
def test_four_der_desk_finals_match_the_folded_specification(four_der):
    assert_finals_match_the_folded_specification(four_der.space, four_der.load, four_der.report, FOUR_DER_LEVELS)

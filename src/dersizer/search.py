"""Sizing search: exhaustive enumeration with pruning, binary refinement,
and local descent, chained into the full sizing pipeline.

All stages share one SimulationCache, so reported simulation counts are
unique designs evaluated, and a design that differs from an earlier one only
in diesel capacity skips the rest of the dispatch.
The stages run on one thread, seed by seed; results are deterministic for a
fixed (inputs, rng_seed).
"""

from __future__ import annotations

import itertools
import logging
import math
import random
import time
from dataclasses import dataclass

from .core import (
    DEFAULT_CAPACITY_PRECISION,
    CapacityGrid,
    DesignSpace,
    EvaluatedDesign,
    LoadProfile,
    MicrogridDesign,
    capacity_grid,
    non_dominated,
    snap_to_grid,
)
from .simulator import DispatchConfig, SimulationCache, memoized_operate

log = logging.getLogger(__name__)

# Refuse exhaustive enumerations larger than this many candidates.
PRODUCT_SAFETY_CAP = 10**8


class SearchSpaceTooLarge(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the safety cap."""


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the three-stage sizing pipeline."""

    coarse_level_points: int = 6
    fine_level_points: int = 11
    outer_passes: int | None = None
    rng_seed: int = 0
    deficit_display_threshold: float = 0.01

    def __post_init__(self) -> None:
        if self.coarse_level_points < 2:
            raise ValueError("coarse_level_points must be >= 2")
        if self.fine_level_points < self.coarse_level_points:
            raise ValueError("fine_level_points must be >= coarse_level_points")
        if self.outer_passes is not None and self.outer_passes < 1:
            raise ValueError("outer_passes must be >= 1")
        if not self.deficit_display_threshold >= 0:  # also rejects NaN
            raise ValueError("deficit_display_threshold must be >= 0")


@dataclass(frozen=True)
class SearchReport:
    """Pipeline output: the final design set plus bookkeeping."""

    final_designs: tuple[EvaluatedDesign, ...]
    all_simulated: int
    per_stage_counts: dict[str, dict[str, int]]
    elapsed_seconds: float
    seed: int


def initial_step_size(n_intervals: int) -> int:
    """Largest power of two <= n (the starting step of the halving search)."""
    if n_intervals < 1:
        raise ValueError(f"n_intervals must be >= 1, got {n_intervals}")
    return 1 << (n_intervals.bit_length() - 1)


def build_grids(
    space: DesignSpace, level_points: int, precision: float = DEFAULT_CAPACITY_PRECISION
) -> tuple[CapacityGrid, ...]:
    return tuple(capacity_grid(spec, level_points, precision) for spec in space.ders)


def grid_size(
    space: DesignSpace, level_points: int, precision: float = DEFAULT_CAPACITY_PRECISION
) -> int:
    """Number of candidate designs on the full capacity grid."""
    return math.prod(len(g.points) for g in build_grids(space, level_points, precision))


def exhaustive_search(
    cache: SimulationCache,
    space: DesignSpace,
    load: LoadProfile,
    dispatch_config: DispatchConfig,
    level_points: int,
    precision: float = DEFAULT_CAPACITY_PRECISION,
    safety_cap: int = PRODUCT_SAFETY_CAP,
) -> list[EvaluatedDesign]:
    """Enumerate the full capacity grid, skipping provably deficient designs.

    Candidates are visited with each DER's capacities descending (the first
    DER varies slowest), so a design whose single-level-raised neighbor is
    already known deficient can be pruned without simulating: under a
    monotone simulator it can only be worse. Returns the simulated designs.
    """
    grids = build_grids(space, level_points, precision)
    total = grid_size(space, level_points, precision)
    if total > safety_cap:
        raise SearchSpaceTooLarge(
            f"exhaustive enumeration of {total} candidates exceeds the cap of {safety_cap}"
        )

    n_ders = len(space.ders)
    tops = tuple(g.n_intervals for g in grids)
    deficit_set: set[tuple[int, ...]] = set()
    simulated: list[EvaluatedDesign] = []

    for idx in itertools.product(*(range(top, -1, -1) for top in tops)):
        pruned = False
        for i in range(n_ders):
            if idx[i] >= tops[i]:
                continue  # raised neighbor clamps to itself
            neighbor = idx[:i] + (idx[i] + 1,) + idx[i + 1 :]
            if neighbor in deficit_set:
                deficit_set.add(idx)
                pruned = True
                break
        if pruned:
            continue
        design = MicrogridDesign(tuple(grids[i].points[idx[i]] for i in range(n_ders)))
        evaluated = memoized_operate(cache, space, design, load, dispatch_config)
        simulated.append(evaluated)
        if evaluated.deficit_ratio > 0:
            deficit_set.add(idx)
    return simulated


def _binary_search_one_seed(
    cache: SimulationCache,
    space: DesignSpace,
    load: LoadProfile,
    dispatch_config: DispatchConfig,
    grids: tuple[CapacityGrid, ...],
    seed_design: EvaluatedDesign,
    child_seed: int,
    passes: int,
) -> list[EvaluatedDesign]:
    """Halving search around one seed; returns every design it evaluated."""
    n_ders = len(space.ders)
    rng = random.Random(child_seed)
    out: list[EvaluatedDesign] = []

    snapped = snap_to_grid(seed_design.design, grids)
    base = memoized_operate(cache, space, snapped, load, dispatch_config)
    out.append(base)

    for _ in range(passes):
        # each pass restarts from the snapped seed with a fresh DER order,
        # exploring a different branch of the neighborhood
        decrease = base.deficit_ratio == 0
        current = base
        order = list(range(n_ders))
        rng.shuffle(order)
        for i in order:
            spec = space.ders[i]
            grid = grids[i]
            h = initial_step_size(grid.n_intervals)
            while h >= 1:
                while True:
                    cap = current.capacities[i]
                    if decrease:
                        target = max(cap - h * grid.spacing, spec.lower_bound)
                    else:
                        target = min(cap + h * grid.spacing, spec.upper_bound)
                    target = grid.snap(target)
                    if target == cap:
                        # bound reached; a feasible design at the top turns
                        # the search back downward
                        if not decrease and current.deficit_ratio == 0:
                            decrease = True
                        break
                    candidate = current.design.with_capacity(i, target)
                    evaluated = memoized_operate(cache, space, candidate, load, dispatch_config)
                    out.append(evaluated)
                    if evaluated.deficit_ratio > current.deficit_ratio:
                        break
                    current = evaluated
                h //= 2
    return out


def binary_search_refine(
    cache: SimulationCache,
    space: DesignSpace,
    load: LoadProfile,
    dispatch_config: DispatchConfig,
    level_points: int,
    seeds: list[EvaluatedDesign],
    rng: random.Random,
    outer_passes: int | None = None,
    precision: float = DEFAULT_CAPACITY_PRECISION,
) -> list[EvaluatedDesign]:
    """Diversify a seed set by per-DER halving searches on the fine grid.

    Each seed is snapped to the fine grid, then searched in `outer_passes`
    rounds (default: one per DER) over rng-ordered DERs: capacity moves in
    halving steps, downward while no deficit appears, upward until one
    disappears. Returns the seeds plus every design simulated, first
    occurrence kept on duplicates.
    """
    if not seeds:
        raise ValueError("binary search needs a non-empty seed set")
    grids = build_grids(space, level_points, precision)
    passes = outer_passes if outer_passes is not None else len(space.ders)
    child_seeds = [rng.getrandbits(64) for _ in seeds]
    trajectories = [
        _binary_search_one_seed(cache, space, load, dispatch_config, grids, seed_design, child, passes)
        for seed_design, child in zip(seeds, child_seeds)
    ]
    return _first_occurrences(seeds, trajectories)


def _first_occurrences(
    seeds: list[EvaluatedDesign], trajectories: list[list[EvaluatedDesign]]
) -> list[EvaluatedDesign]:
    """The seeds, then each seed's trajectory in seed order, first occurrence kept."""
    merged: dict[tuple[float, ...], EvaluatedDesign] = {}
    for evaluated in itertools.chain(seeds, *trajectories):
        merged.setdefault(SimulationCache.key_for(evaluated.design), evaluated)
    return list(merged.values())


def _local_search_one_seed(
    cache: SimulationCache,
    space: DesignSpace,
    load: LoadProfile,
    dispatch_config: DispatchConfig,
    grids: tuple[CapacityGrid, ...],
    seed_design: EvaluatedDesign,
    passes: int,
) -> list[EvaluatedDesign]:
    """Single-level descent from one seed; returns every design evaluated."""
    base = memoized_operate(cache, space, seed_design.design, load, dispatch_config)
    out = [base]
    if base.deficit_ratio > 0:
        return out

    current = base
    n_ders = len(space.ders)
    for _ in range(passes):
        for i in range(n_ders):
            spec = space.ders[i]
            grid = grids[i]
            while True:
                cap = current.capacities[i]
                target = grid.snap(max(cap - grid.spacing, spec.lower_bound))
                if target == cap:
                    break
                candidate = current.design.with_capacity(i, target)
                evaluated = memoized_operate(cache, space, candidate, load, dispatch_config)
                out.append(evaluated)
                if evaluated.deficit_ratio > 0:
                    break
                current = evaluated
    return out


def local_search(
    cache: SimulationCache,
    space: DesignSpace,
    load: LoadProfile,
    dispatch_config: DispatchConfig,
    level_points: int,
    seeds: list[EvaluatedDesign],
    outer_passes: int | None = None,
    precision: float = DEFAULT_CAPACITY_PRECISION,
) -> list[EvaluatedDesign]:
    """Walk each zero-deficit seed downward one grid level at a time.

    DERs are lowered in fixed index order, repeating for `outer_passes`
    rounds so slack opened by one DER's descent can be recovered from the
    ones before it. Seeds with deficits pass through untouched.
    """
    grids = build_grids(space, level_points, precision)
    passes = outer_passes if outer_passes is not None else len(space.ders)
    trajectories = [
        _local_search_one_seed(cache, space, load, dispatch_config, grids, seed_design, passes)
        for seed_design in seeds
    ]
    return _first_occurrences(seeds, trajectories)


def stage_counts(
    cache: SimulationCache,
    earlier: dict[str, dict[str, int]],
    designs: int,
    candidates: int | None = None,
) -> dict[str, int]:
    """One stage's `per_stage_counts` entry: what `cache` counted after the `earlier` stages.

    Given the grid `candidates` of an exhaustive stage, the entry also has
    `pruned`, the candidates not among its `designs`.
    """
    counts = {
        "simulations": cache.unique_simulations - sum(c["simulations"] for c in earlier.values()),
        "designs": designs,
    }
    if candidates is not None:
        counts["pruned"] = candidates - designs
    counts["dispatch_runs"] = cache.dispatch_runs - sum(c["dispatch_runs"] for c in earlier.values())
    return counts


def run_pipeline(
    space: DesignSpace,
    load: LoadProfile,
    dispatch_config: DispatchConfig,
    search_config: SearchConfig,
    precision: float = DEFAULT_CAPACITY_PRECISION,
) -> SearchReport:
    """Run the three sizing stages and assemble the final non-dominated set."""
    started = time.perf_counter()
    cache = SimulationCache()
    counts: dict[str, dict[str, int]] = {}

    coarse_levels = search_config.coarse_level_points
    coarse = exhaustive_search(cache, space, load, dispatch_config, coarse_levels, precision)
    candidates = grid_size(space, coarse_levels, precision)
    stage = counts["exhaustive"] = stage_counts(cache, counts, len(coarse), candidates)
    log.info(
        "exhaustive stage: %d designs simulated (%d grid points per DER), %d pruned, %d dispatch runs",
        stage["simulations"],
        coarse_levels,
        stage["pruned"],
        stage["dispatch_runs"],
    )

    rng = random.Random(search_config.rng_seed)
    refined = binary_search_refine(
        cache,
        space,
        load,
        dispatch_config,
        search_config.fine_level_points,
        coarse,
        rng,
        search_config.outer_passes,
        precision,
    )
    stage = counts["binary_search"] = stage_counts(cache, counts, len(refined))
    log.info(
        "binary search stage: %d new simulations, %d designs held, %d dispatch runs",
        stage["simulations"],
        len(refined),
        stage["dispatch_runs"],
    )

    local_seeds = non_dominated(refined)
    polished = local_search(
        cache,
        space,
        load,
        dispatch_config,
        search_config.fine_level_points,
        local_seeds,
        search_config.outer_passes,
        precision,
    )
    stage = counts["local_search"] = stage_counts(cache, counts, len(polished))
    log.info(
        "local search stage: %d new simulations over %d seeds, %d dispatch runs",
        stage["simulations"],
        len(local_seeds),
        stage["dispatch_runs"],
    )

    final = [
        d
        for d in non_dominated(polished)
        if d.deficit_ratio <= search_config.deficit_display_threshold
    ]
    elapsed = time.perf_counter() - started
    log.info(
        "pipeline done: %d final designs, %d unique simulations, %.2fs",
        len(final),
        cache.unique_simulations,
        elapsed,
    )

    return SearchReport(
        final_designs=tuple(final),
        all_simulated=cache.unique_simulations,
        per_stage_counts=counts,
        elapsed_seconds=elapsed,
        seed=search_config.rng_seed,
    )

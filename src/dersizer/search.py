"""Sizing search: exhaustive enumeration with pruning, binary refinement,
and local descent, chained into the full sizing pipeline.

All stages share one SimulationCache, so reported simulation counts are
unique designs evaluated, and a design that differs from an earlier one only
in diesel capacity skips the rest of the dispatch. The refinement walks step
grid levels (a capacity midway between two belongs to the lower one), and
each refinement stage evaluates every distinct capacity vector once.
The stages run on one thread, seed by seed; results are deterministic for a
fixed (inputs, rng_seed).
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
import random
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .core import (
    DEFAULT_CAPACITY_PRECISION,
    CapacityGrid,
    DerKind,
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

# A stage's view of the cache: one capacity vector in, its metrics out.
Evaluate = Callable[[tuple[float, ...]], EvaluatedDesign]


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
        passes = () if self.outer_passes is None else ("outer_passes",)
        for label in ("coarse_level_points", "fine_level_points", *passes, "rng_seed"):
            value = getattr(self, label)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{label} must be an integer, got {value!r}")
        threshold = self.deficit_display_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real):
            raise ValueError(f"deficit_display_threshold must be a number, got {threshold!r}")
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
) -> list[EvaluatedDesign]:
    """Enumerate the full capacity grid, skipping provably deficient designs.

    Candidates are visited with each DER's capacities descending, so a
    design whose single-level-raised neighbor is already known deficient can
    be pruned without simulating: under a monotone simulator it can only be
    worse. Diesel DERs vary fastest, so all diesel levels of one non-diesel
    vector run back to back on its memoised pre-diesel dispatch; every
    all-descending order visits each raised neighbor first, so the order
    changes no prune decision. Returns the simulated designs in the order
    of a plain descending enumeration (the first DER varying slowest).
    """
    grids = build_grids(space, level_points, precision)
    total = math.prod(len(g.points) for g in grids)
    if total > PRODUCT_SAFETY_CAP:
        raise SearchSpaceTooLarge(
            f"exhaustive enumeration of {total} candidates exceeds the cap of {PRODUCT_SAFETY_CAP}"
        )

    n_ders = len(space.ders)
    # a visited tuple holds the levels of the DERs in `order`; DER i's is at where[i]
    order = sorted(range(n_ders), key=lambda i: space.ders[i].kind is DerKind.DIESEL_GENERATOR)
    where = [order.index(i) for i in range(n_ders)]
    tops = [grids[i].n_intervals for i in order]
    # a candidate's neighbor raised one level at position k was visited
    # strides[k] candidates before it
    strides = [math.prod(top + 1 for top in tops[k + 1 :]) for k in range(n_ders)]
    neighbors = list(zip(tops, strides))
    deficient = bytearray(total)  # by visit rank: simulated deficient, or pruned
    simulated: list[tuple[tuple[int, ...], EvaluatedDesign]] = []

    levels = itertools.product(*(range(top, -1, -1) for top in tops))
    capacities = itertools.product(*(grids[i].points[::-1] for i in order))
    for rank, (visit, caps) in enumerate(zip(levels, capacities)):
        for level, (top, stride) in zip(visit, neighbors):
            # a top level's raised neighbor clamps to itself
            if level < top and deficient[rank - stride]:
                deficient[rank] = 1
                break
        else:
            design = MicrogridDesign(tuple([caps[k] for k in where]))
            evaluated = memoized_operate(cache, space, design, load, dispatch_config)
            simulated.append((visit, evaluated))
            if evaluated.deficit_ratio > 0:
                deficient[rank] = 1
    simulated.sort(key=lambda entry: [entry[0][k] for k in where], reverse=True)
    return [evaluated for _, evaluated in simulated]


def _evaluator(cache: SimulationCache) -> tuple[Evaluate, dict[tuple[float, ...], EvaluatedDesign]]:
    """A stage's `evaluate` on the cache's own input, and its record.

    The record maps each capacity vector asked for, in first-asked order, to
    its metrics. `evaluate` calls `memoized_operate`, looked up at each call,
    only for a vector the record lacks: a repeat would be a cache hit.
    """
    space, load, config = cache.space, cache.load, cache.config
    record: dict[tuple[float, ...], EvaluatedDesign] = {}

    def evaluate(capacities: tuple[float, ...]) -> EvaluatedDesign:
        if capacities not in record:
            record[capacities] = memoized_operate(cache, space, MicrogridDesign(capacities), load, config)
        return record[capacities]

    return evaluate, record


def _walk(
    evaluate: Evaluate, current: EvaluatedDesign, i: int, grid: CapacityGrid, h: int
) -> tuple[EvaluatedDesign, bool]:
    """Move DER `i` by `h` grid levels (down when h < 0) while the deficit does not grow.

    The walk starts from the level nearest DER `i`'s capacity and clamps at
    the grid's ends. Returns the last design moved to, and whether a
    capacity bound (rather than a growing deficit) stopped the walk.
    """
    level = grid.level(current.capacities[i])
    while True:
        caps = current.capacities
        level = min(max(level + h, 0), grid.n_intervals)
        target = grid.points[level]
        if target == caps[i]:
            return current, True
        evaluated = evaluate(caps[:i] + (target,) + caps[i + 1 :])
        if evaluated.deficit_ratio > current.deficit_ratio:
            return current, False
        current = evaluated


def binary_search_refine(
    cache: SimulationCache,
    grids: tuple[CapacityGrid, ...],
    seeds: list[EvaluatedDesign],
    rng: random.Random,
    passes: int,
) -> list[EvaluatedDesign]:
    """Diversify a seed set by per-DER halving searches on the fine `grids`.

    Each seed is snapped to the grids, then searched in `passes` rounds
    over rng-ordered DERs: each DER walks in halving steps, downward while
    no deficit appears, upward until one disappears. Returns the seeds plus
    every design simulated, first occurrence kept on duplicates.
    """
    if not seeds:
        raise ValueError("binary search needs a non-empty seed set")
    evaluate, record = _evaluator(cache)
    child_seeds = [rng.getrandbits(64) for _ in seeds]
    for seed_design, child in zip(seeds, child_seeds):
        seed_rng = random.Random(child)
        base = evaluate(snap_to_grid(seed_design.design, grids).capacities)
        for _ in range(passes):
            # each pass restarts from the snapped seed with a fresh DER order,
            # exploring a different branch of the neighborhood
            decrease = base.deficit_ratio == 0
            current = base
            order = list(range(len(grids)))
            seed_rng.shuffle(order)
            for i in order:
                h = initial_step_size(grids[i].n_intervals)
                while h >= 1:
                    current, bounded = _walk(evaluate, current, i, grids[i], -h if decrease else h)
                    # a feasible design at the top bound turns the search back downward
                    if bounded and not decrease and current.deficit_ratio == 0:
                        decrease = True
                    h //= 2
    return _first_occurrences(seeds, record.values())


def _first_occurrences(
    seeds: list[EvaluatedDesign], evaluated: Iterable[EvaluatedDesign]
) -> list[EvaluatedDesign]:
    """The seeds, then the `evaluated` designs in order, first occurrence kept.

    Duplicates are equal capacity vectors: the cache hands out one object
    per design key, so among cached designs equal keys mean equal capacities.
    """
    merged: dict[tuple[float, ...], EvaluatedDesign] = {}
    for design in itertools.chain(seeds, evaluated):
        merged.setdefault(design.capacities, design)
    return list(merged.values())


def local_search(
    cache: SimulationCache,
    grids: tuple[CapacityGrid, ...],
    seeds: list[EvaluatedDesign],
    passes: int,
) -> list[EvaluatedDesign]:
    """Walk each zero-deficit seed downward one grid level at a time.

    The same walk as the binary search's, with a unit step and downward
    only, so it stops at the first deficit. A seed off the grids starts
    from its nearest level. DERs are lowered in fixed index order,
    repeating for `passes` rounds so slack opened by one DER's descent can
    be recovered from the ones before it. Seeds with deficits pass through
    untouched.
    """
    evaluate, record = _evaluator(cache)
    for seed_design in seeds:
        current = evaluate(seed_design.capacities)
        if current.deficit_ratio == 0:
            for _ in range(passes):
                for i, grid in enumerate(grids):
                    current, _ = _walk(evaluate, current, i, grid, -1)
    return _first_occurrences(seeds, record.values())


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


def search_report(
    cache: SimulationCache,
    counts: dict[str, dict[str, int]],
    designs: list[EvaluatedDesign],
    search_config: SearchConfig,
    started: float,
) -> SearchReport:
    """The report of a search on `cache`: its non-dominated `designs` within the display threshold."""
    threshold = search_config.deficit_display_threshold
    return SearchReport(
        final_designs=tuple(d for d in non_dominated(designs) if d.deficit_ratio <= threshold),
        all_simulated=cache.unique_simulations,
        per_stage_counts=counts,
        elapsed_seconds=time.perf_counter() - started,
        seed=search_config.rng_seed,
    )


def run_pipeline(
    space: DesignSpace,
    load: LoadProfile,
    dispatch_config: DispatchConfig,
    search_config: SearchConfig,
    precision: float = DEFAULT_CAPACITY_PRECISION,
) -> SearchReport:
    """Run the three sizing stages and assemble the final non-dominated set."""
    started = time.perf_counter()
    cache = SimulationCache(space, load, dispatch_config)
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

    fine = build_grids(space, search_config.fine_level_points, precision)
    passes = len(space.ders) if search_config.outer_passes is None else search_config.outer_passes
    rng = random.Random(search_config.rng_seed)
    refined = binary_search_refine(cache, fine, coarse, rng, passes)
    stage = counts["binary_search"] = stage_counts(cache, counts, len(refined))
    log.info(
        "binary search stage: %d new simulations, %d designs held, %d dispatch runs",
        stage["simulations"],
        len(refined),
        stage["dispatch_runs"],
    )

    local_seeds = non_dominated(refined)
    polished = local_search(cache, fine, local_seeds, passes)
    stage = counts["local_search"] = stage_counts(cache, counts, len(polished))
    log.info(
        "local search stage: %d new simulations over %d seeds, %d dispatch runs",
        stage["simulations"],
        len(local_seeds),
        stage["dispatch_runs"],
    )

    report = search_report(cache, counts, polished, search_config, started)
    log.info(
        "pipeline done: %d final designs, %d unique simulations, %.2fs",
        len(report.final_designs),
        report.all_simulated,
        report.elapsed_seconds,
    )
    return report

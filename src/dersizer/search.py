"""Sizing search: exhaustive enumeration with pruning, binary refinement,
and local descent, chained into the full sizing pipeline.

All stages share one SimulationCache, so reported simulation counts are
unique designs evaluated, and a design that differs from an earlier one only
in diesel capacity skips the rest of the dispatch. All three stages work in
grid levels and evaluate a design only through `_evaluator`, which turns a
level tuple into capacities and calls `memoized_operate`. Each refinement
stage snaps a seed to the fine grid once (a capacity midway between two
levels goes to the lower one), walks integer levels from there, and
evaluates every level tuple once, each its own design, so every design it
returns lies on the fine grid.
The stages run on one thread, seed by seed (the binary stage walks seeds
that share non-diesel levels back to back); results are deterministic for a
fixed (inputs, rng_seed).
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
import random
import time
from collections.abc import Callable
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
)
from .simulator import DispatchConfig, SimulationCache, memoized_operate

log = logging.getLogger(__name__)

# Refuse exhaustive enumerations larger than this many candidates.
PRODUCT_SAFETY_CAP = 10**8

# A design inside a search stage: one grid level per DER.
Levels = tuple[int, ...]
# A search stage's view of the cache: grid levels in, their design's metrics out.
Evaluate = Callable[[Levels], EvaluatedDesign]


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
        if not (math.isfinite(threshold) and threshold >= 0):
            raise ValueError(f"deficit_display_threshold must be finite and >= 0, got {threshold!r}")


@dataclass(frozen=True)
class SearchReport:
    """Pipeline output: the final design set plus bookkeeping, all fixed by the inputs and seed."""

    final_designs: tuple[EvaluatedDesign, ...]
    all_simulated: int
    per_stage_counts: dict[str, dict[str, int]]
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


def _evaluator(
    cache: SimulationCache, grids: tuple[CapacityGrid, ...]
) -> tuple[Evaluate, dict[Levels, EvaluatedDesign]]:
    """A stage's `evaluate` on the cache's own input and its `grids`, and its record.

    The only place where the search evaluates a design: all three stages ask
    it for level tuples. The record maps each level tuple asked for, in
    first-asked order, to its metrics. `evaluate` builds the capacities and
    calls `memoized_operate`, looked up at each call, only for levels the
    record lacks: a repeat would be a cache hit. No grid repeats a point
    (`capacity_grid` refuses one), so each level tuple is its own design.
    """
    record: dict[Levels, EvaluatedDesign] = {}

    def evaluate(levels: Levels) -> EvaluatedDesign:
        if levels not in record:
            design = MicrogridDesign(tuple([g.points[k] for g, k in zip(grids, levels)]))
            record[levels] = memoized_operate(cache, design=design)
        return record[levels]

    return evaluate, record


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
    design whose single-level-raised neighbor is already known deficient is
    pruned without simulating. Pruning assumes that raising a capacity never
    adds a deficit step; a slow battery can break this (a larger one drains
    sooner ahead of diesel), and then a pruned design may have no deficit.
    DERs nest in the cache's merit order, so diesel DERs vary fastest and
    all diesel levels of one non-diesel vector run back to back on its
    memoised pre-diesel dispatch; every all-descending order visits each
    raised neighbor first, so the order changes no prune decision. Raises
    ValueError when `cache` serves another (space, load, config), and
    SearchSpaceTooLarge, before building any grid, for more than
    PRODUCT_SAFETY_CAP candidates. Returns the simulated designs in the
    order of a plain descending enumeration (the first DER varying slowest).
    """
    cache._check_input(space, load, dispatch_config)
    total = level_points ** len(space.ders)
    # a level count below 2 is left to build_grids, which names it
    if level_points >= 2 and total > PRODUCT_SAFETY_CAP:
        raise SearchSpaceTooLarge(
            f"exhaustive enumeration of {total} candidates exceeds the cap of {PRODUCT_SAFETY_CAP}"
        )
    grids = build_grids(space, level_points, precision)

    evaluate, record = _evaluator(cache, grids)
    n_ders = len(space.ders)
    # a visited tuple holds the levels of the DERs in `order`; DER i's is at where[i]
    order = [*cache.non_diesel_idx, *cache.diesel_idx]
    where = [order.index(i) for i in range(n_ders)]
    tops = [grids[i].n_intervals for i in order]
    # a candidate's neighbor raised one level at position k was visited
    # strides[k] candidates before it
    strides = [math.prod(top + 1 for top in tops[k + 1 :]) for k in range(n_ders)]
    neighbors = list(zip(tops, strides))
    deficient = bytearray(total)  # by visit rank: simulated deficient, or pruned

    visits = itertools.product(*(range(top, -1, -1) for top in tops))
    for rank, visit in enumerate(visits):
        for level, (top, stride) in zip(visit, neighbors):
            # a top level's raised neighbor clamps to itself
            if level < top and deficient[rank - stride]:
                deficient[rank] = 1
                break
        else:
            if evaluate(tuple([visit[k] for k in where])).deficit_ratio > 0:
                deficient[rank] = 1
    return [record[levels] for levels in sorted(record, reverse=True)]


def _walk(
    evaluate: Evaluate, levels: Levels, current: EvaluatedDesign, i: int, top: int, h: int
) -> tuple[Levels, EvaluatedDesign, bool]:
    """Move DER `i` by `h` levels (down when h < 0) while the deficit does not grow.

    `current` is the design at `levels`; DER `i`'s level clamps to
    [0, `top`]. Returns the last levels and design moved to, and whether a
    capacity bound (rather than a growing deficit) stopped the walk.
    """
    while True:
        target = min(max(levels[i] + h, 0), top)
        if target == levels[i]:
            return levels, current, True
        moved = levels[:i] + (target,) + levels[i + 1 :]
        evaluated = evaluate(moved)
        if evaluated.deficit_ratio > current.deficit_ratio:
            return levels, current, False
        levels, current = moved, evaluated


def _sweep(
    evaluate: Evaluate, levels: Levels, current: EvaluatedDesign, i: int, top: int, decrease: bool
) -> tuple[Levels, EvaluatedDesign, bool]:
    """Walk DER `i` from `levels` (design `current`) in halving steps; return the end and its direction.

    A feasible design at the top bound turns an upward sweep downward.
    """
    h = initial_step_size(top)
    while h >= 1:
        levels, current, bounded = _walk(evaluate, levels, current, i, top, -h if decrease else h)
        if bounded and not decrease and current.deficit_ratio == 0:
            decrease = True
        h //= 2
    return levels, current, decrease


def binary_search_refine(
    cache: SimulationCache,
    grids: tuple[CapacityGrid, ...],
    seeds: list[EvaluatedDesign],
    rng: random.Random,
    passes: int,
) -> list[EvaluatedDesign]:
    """Diversify a seed set by per-DER halving searches on the fine `grids`.

    Each seed is snapped once to its nearest fine levels (a capacity midway
    between two goes to the lower one), then searched in `passes` rounds
    over rng-ordered DERs: each DER walks integer levels in halving steps,
    downward while no deficit appears, upward until one disappears.
    Returns every design evaluated, snapped seeds included, so each lies
    on the fine grids.

    Each seed draws its child rng in seed order, but the seeds are walked
    stably sorted by their snapped non-diesel levels, so seeds that share a
    pre-diesel dispatch run back to back while the memo still holds it.
    That changes no design found: a walk depends only on its start and its
    child rng, as `evaluate` is a function of levels. Only the order of the
    returned list moves.

    A sweep is a function of its start levels, DER and direction, so one
    that starts where an earlier one did takes that sweep's end instead of
    walking again. Every level tuple it would ask for is in the record
    already, so this changes no evaluation and no order.
    """
    if not seeds:
        raise ValueError("binary search needs a non-empty seed set")
    evaluate, record = _evaluator(cache, grids)
    tops = [g.n_intervals for g in grids]
    child_seeds = [rng.getrandbits(64) for _ in seeds]
    starts = [tuple([g.level(c) for g, c in zip(grids, d.capacities)]) for d in seeds]
    walks = sorted(zip(starts, child_seeds), key=lambda walk: [walk[0][i] for i in cache.non_diesel_idx])
    # (levels, DER, decrease) at a sweep's start -> (levels, design, decrease) at its end
    sweeps: dict[tuple[Levels, int, bool], tuple[Levels, EvaluatedDesign, bool]] = {}
    for start, child in walks:
        seed_rng = random.Random(child)
        base = evaluate(start)
        for _ in range(passes):
            # each pass restarts from the snapped seed with a fresh DER order,
            # exploring a different branch of the neighborhood
            decrease = base.deficit_ratio == 0
            levels, current = start, base
            order = list(range(len(grids)))
            seed_rng.shuffle(order)
            for i in order:
                key = (levels, i, decrease)
                if key not in sweeps:
                    sweeps[key] = _sweep(evaluate, levels, current, i, tops[i], decrease)
                levels, current, decrease = sweeps[key]
    return list(record.values())


def local_search(
    cache: SimulationCache,
    grids: tuple[CapacityGrid, ...],
    seeds: list[EvaluatedDesign],
    passes: int,
) -> list[EvaluatedDesign]:
    """Walk each seed downward one fine-grid level at a time.

    Each seed is snapped once to its nearest levels of the `grids` (a
    capacity midway between two goes to the lower one). From a zero-deficit
    snapped seed, the binary search's integer-level walk runs with a unit
    step and downward only, so it stops at the first deficit; a snapped
    seed with a deficit is kept as it is. DERs are lowered in fixed index
    order, repeating for `passes` rounds so slack opened by one DER's
    descent can be recovered from the ones before it. Returns every design
    evaluated, so each lies on the fine grids.
    """
    evaluate, record = _evaluator(cache, grids)
    tops = [g.n_intervals for g in grids]
    for seed_design in seeds:
        levels = tuple([g.level(c) for g, c in zip(grids, seed_design.capacities)])
        current = evaluate(levels)
        if current.deficit_ratio == 0:
            for _ in range(passes):
                for i, top in enumerate(tops):
                    levels, current, _ = _walk(evaluate, levels, current, i, top, -1)
    return list(record.values())


def record_stage(
    cache: SimulationCache,
    counts: dict[str, dict[str, int]],
    stage: str,
    designs: int,
    candidates: int | None = None,
) -> None:
    """Add `stage`'s entry to `counts` and log it as one line.

    The entry holds what `cache` counted after the stages already in
    `counts`; given the grid `candidates` of an exhaustive stage, it also
    has `pruned`, the candidates not among its `designs`. The log line
    names each key and carries the entry's values in key order, e.g.
    "binary search stage: 12 simulations, 30 designs, 12 dispatch runs".
    """
    entry = {
        "simulations": cache.unique_simulations - sum(c["simulations"] for c in counts.values()),
        "designs": designs,
    }
    if candidates is not None:
        entry["pruned"] = candidates - designs
    entry["dispatch_runs"] = cache.dispatch_runs - sum(c["dispatch_runs"] for c in counts.values())
    counts[stage] = entry
    # the stage name goes in the format string itself, where log readers match it
    fields = ", ".join(f"%d {key.replace('_', ' ')}" for key in entry)
    log.info(f"{stage.replace('_', ' ')} stage: {fields}", *entry.values())


def search_report(
    cache: SimulationCache,
    counts: dict[str, dict[str, int]],
    designs: list[EvaluatedDesign],
    search_config: SearchConfig,
) -> SearchReport:
    """The report of a search on `cache`: its non-dominated `designs` within the display threshold.

    The threshold applies first, which leaves fewer designs to compare and
    keeps the same ones, a repeated design with its least deficit (see
    `non_dominated`).
    """
    threshold = search_config.deficit_display_threshold
    return SearchReport(
        final_designs=tuple(non_dominated([d for d in designs if d.deficit_ratio <= threshold])),
        all_simulated=cache.unique_simulations,
        per_stage_counts=counts,
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
    # built first, so a fine grid that `capacity_grid` refuses stops the run before any simulation
    fine = build_grids(space, search_config.fine_level_points, precision)

    coarse_levels = search_config.coarse_level_points
    coarse = exhaustive_search(cache, space, load, dispatch_config, coarse_levels, precision)
    record_stage(cache, counts, "exhaustive", len(coarse), coarse_levels ** len(space.ders))

    passes = len(space.ders) if search_config.outer_passes is None else search_config.outer_passes
    rng = random.Random(search_config.rng_seed)
    refined = binary_search_refine(cache, fine, coarse, rng, passes)
    record_stage(cache, counts, "binary_search", len(refined))

    polished = local_search(cache, fine, non_dominated(refined), passes)
    record_stage(cache, counts, "local_search", len(polished))

    report = search_report(cache, counts, polished, search_config)
    log.info(
        "pipeline done: %d final designs, %d unique simulations, %.2fs",
        len(report.final_designs),
        report.all_simulated,
        time.perf_counter() - started,
    )
    return report

"""Metric, grid and dominance unit tests, including brute-force cross-checks."""

import math
import pickle
import random

import numpy as np
import pytest

from dersizer.core import (
    CapacityGrid,
    DerKind,
    DerSpec,
    DesignSpace,
    EvaluatedDesign,
    LoadProfile,
    MicrogridDesign,
    SimulationOutcome,
    capacity_grid,
    deficit_ratio,
    dominates,
    non_dominated,
    snap_to_grid,
    unused_ratio,
)
from tests.conftest import constant_load


def make_outcome(flags, available, used):
    return SimulationOutcome(
        deficit_flags=np.array(flags, dtype=np.int8),
        per_der_available=np.array(available, dtype=float),
        per_der_used=np.array(used, dtype=float),
    )


def ev(caps, deficit, unused=None):
    caps = tuple(float(c) for c in caps)
    if unused is None:
        unused = tuple(-1.0 if c == 0 else 0.0 for c in caps)
    return EvaluatedDesign(design=MicrogridDesign(caps), deficit_ratio=deficit, unused_ratios=tuple(unused))


# ---------------------------------------------------------------------------
# capacity_grid

def test_grid_six_points_twenty_percent_spacing():
    spec = DerSpec(name="d", kind=DerKind.DIESEL_GENERATOR, upper_bound=120.0)
    grid = capacity_grid(spec, 6)
    assert grid.points == (0.0, 24.0, 48.0, 72.0, 96.0, 120.0)
    assert grid.spacing == 24.0


def test_grid_eleven_points_ten_percent_spacing():
    spec = DerSpec(name="d", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0)
    grid = capacity_grid(spec, 11)
    assert grid.points == tuple(float(v) for v in range(0, 101, 10))
    assert grid.spacing == 10.0


def test_grid_degenerate_range_rejected():
    spec = DerSpec(name="d", kind=DerKind.DIESEL_GENERATOR, lower_bound=50.0, upper_bound=50.0)
    with pytest.raises(ValueError):
        capacity_grid(spec, 6)


def test_grid_too_few_points_rejected():
    spec = DerSpec(name="d", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0)
    with pytest.raises(ValueError):
        capacity_grid(spec, 1)


def test_grid_quantizes_when_spacing_matches_precision():
    spec = DerSpec(name="b", kind=DerKind.BATTERY_STORAGE, upper_bound=600.0, charge_ratio=2.0, discharge_ratio=2.0)
    grid = capacity_grid(spec, 11, precision=5.0)
    assert grid.points == tuple(float(v) for v in range(0, 601, 60))


def test_grid_invariants_random_specs():
    rng = random.Random(11)
    for _ in range(100):
        lo = rng.choice([0.0, 5.0, rng.uniform(0, 50)])
        hi = lo + rng.uniform(0.5, 700)
        points = rng.randint(2, 161)
        spec = DerSpec(name="x", kind=DerKind.PHOTOVOLTAIC, lower_bound=lo, upper_bound=hi)
        grid = capacity_grid(spec, points)
        assert len(grid.points) == points
        assert grid.points[0] == lo
        assert grid.points[-1] == hi
        diffs = [b - a for a, b in zip(grid.points, grid.points[1:])]
        for d in diffs:
            assert math.isclose(d, grid.spacing, rel_tol=1e-9)
        # every grid point snaps back to itself
        for p in grid.points:
            assert grid.snap(p) == p


# ---------------------------------------------------------------------------
# deficit_ratio

def test_deficit_ratio_all_satisfied():
    load = constant_load(50.0, n_steps=4)
    outcome = make_outcome([0, 0, 0, 0], [[50.0] * 4], [[50.0] * 4])
    assert deficit_ratio(outcome, load) == 0.0


def test_deficit_ratio_never_satisfied():
    load = constant_load(50.0, n_steps=4)
    outcome = make_outcome([1, 1, 1, 1], [[0.0] * 4], [[0.0] * 4])
    assert deficit_ratio(outcome, load) == 1.0


def test_deficit_ratio_equal_weights():
    load = constant_load(50.0, n_steps=4, step_seconds=240.0)
    outcome = make_outcome([1, 0, 0, 1], [[0.0] * 4], [[0.0] * 4])
    assert deficit_ratio(outcome, load) == 0.5


def test_deficit_ratio_length_mismatch():
    load = constant_load(50.0, n_steps=4)
    outcome = make_outcome([1, 0], [[0.0] * 2], [[0.0] * 2])
    with pytest.raises(ValueError):
        deficit_ratio(outcome, load)


def test_deficit_ratio_invariant_under_duration_scaling():
    rng = random.Random(3)
    flags = [rng.randint(0, 1) for _ in range(24)]
    outcome = make_outcome(flags, [[0.0] * 24], [[0.0] * 24])
    base = deficit_ratio(outcome, constant_load(10.0, n_steps=24, step_seconds=240.0))
    scaled = deficit_ratio(outcome, constant_load(10.0, n_steps=24, step_seconds=2400.0))
    assert math.isclose(base, scaled, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# unused_ratio

def test_unused_ratio_zero_capacity_sentinel():
    outcome = make_outcome([0], [[10.0]], [[10.0]])
    assert unused_ratio(outcome, 0, 0.0) == -1.0


def test_unused_ratio_counts_underused_steps():
    outcome = make_outcome([0] * 4, [[0.0, 5.0, 10.0, 10.0]], [[0.0, 5.0, 10.0, 8.0]])
    assert unused_ratio(outcome, 0, 10.0) == pytest.approx(1.0 / 3.0)


def test_unused_ratio_fully_utilized():
    outcome = make_outcome([0] * 3, [[0.0, 4.0, 9.0]], [[0.0, 4.0, 9.0]])
    assert unused_ratio(outcome, 0, 9.0) == 0.0


def test_unused_ratio_no_availability_sentinel():
    outcome = make_outcome([0] * 3, [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])
    assert unused_ratio(outcome, 0, 25.0) == -1.0


def test_unused_ratio_stays_in_unit_interval():
    rng = random.Random(5)
    for _ in range(50):
        avail = [rng.choice([0.0, rng.uniform(0.1, 20)]) for _ in range(16)]
        used = [rng.uniform(0, a) for a in avail]
        outcome = make_outcome([0] * 16, [avail], [used])
        r = unused_ratio(outcome, 0, 10.0)
        if any(a > 0 for a in avail):
            assert 0.0 <= r <= 1.0
        else:
            assert r == -1.0

    with pytest.raises(ValueError):
        unused_ratio(make_outcome([0], [[1.0]], [[1.0]]), 3, 10.0)


# ---------------------------------------------------------------------------
# dominance

def test_dominates_componentwise_with_one_strict():
    a = ev((25, 245, 650), 0.0)
    b = ev((25, 245, 660), 0.0)
    assert dominates(a, b)
    assert not dominates(b, a)


def test_dominates_incomparable_capacities():
    a = ev((45, 0, 650), 0.0)
    b = ev((45, 70, 450), 0.0)
    assert not dominates(a, b)
    assert not dominates(b, a)


def test_dominates_identical_is_false():
    a = ev((60, 100, 200), 0.0)
    b = ev((60, 100, 200), 0.0)
    assert not dominates(a, b)
    assert not dominates(b, a)


def test_dominates_dimension_mismatch():
    with pytest.raises(ValueError):
        dominates(ev((60,), 0.0), ev((60, 100), 0.0))


def test_dominates_is_strict_partial_order():
    rng = random.Random(17)
    pool = [
        ev(
            (rng.randrange(0, 101, 20), rng.randrange(0, 101, 20)),
            rng.choice([0.0, 0.25, 0.5]),
        )
        for _ in range(60)
    ]
    # dedupe so "identical entries" do not confuse antisymmetry
    unique = list({e.capacities: e for e in pool}.values())
    for a in unique:
        assert not dominates(a, a)
        for b in unique:
            if dominates(a, b):
                assert not dominates(b, a)
            for c in unique:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)


# ---------------------------------------------------------------------------
# non_dominated

def test_non_dominated_single_der_keeps_smallest_feasible():
    designs = [ev((60,), 0.0), ev((80,), 0.0), ev((100,), 0.0)]
    kept = non_dominated(designs)
    assert [d.capacities for d in kept] == [(60.0,)]


def test_non_dominated_keeps_incomparable_pair():
    designs = [ev((40,), 0.2), ev((60,), 0.0)]
    kept = non_dominated(designs)
    assert len(kept) == 2


def test_non_dominated_dedupes_exact_duplicates():
    designs = [ev((60, 40), 0.0), ev((60, 40), 0.0), ev((60, 40), 0.0)]
    assert len(non_dominated(designs)) == 1


def test_non_dominated_sorted_lexicographically():
    designs = [ev((60, 100), 0.0), ev((40, 200), 0.0), ev((40, 150), 0.1)]
    kept = non_dominated(designs)
    caps = [d.capacities for d in kept]
    assert caps == sorted(caps)


def test_non_dominated_matches_bruteforce():
    rng = random.Random(23)
    for _ in range(20):
        pool = [
            ev(
                (rng.randrange(0, 81, 20), rng.randrange(0, 81, 20), rng.randrange(0, 81, 20)),
                rng.choice([0.0, 0.0, 0.1, 0.3]),
            )
            for _ in range(40)
        ]
        kept = non_dominated(pool)
        first_seen = {}
        for e in pool:
            first_seen.setdefault(e.capacities, e)
        unique = list(first_seen.values())
        expected = sorted(
            (
                d
                for d in unique
                if not any(dominates(o, d) for o in unique if o is not d)
            ),
            key=lambda d: d.capacities,
        )
        assert [d.capacities for d in kept] == [d.capacities for d in expected]
        assert all(a is b for a, b in zip(kept, expected))  # first occurrence survives
        # no surviving pair dominates, every removed element is dominated by a survivor
        for a in kept:
            for b in kept:
                if a is not b:
                    assert not dominates(a, b)
        removed = {d.capacities for d in unique} - {d.capacities for d in kept}
        for caps in removed:
            victim = next(d for d in unique if d.capacities == caps)
            assert any(dominates(s, victim) for s in kept)


# ---------------------------------------------------------------------------
# snap_to_grid

def grid_of(*points):
    pts = tuple(float(p) for p in points)
    return CapacityGrid(points=pts, spacing=pts[1] - pts[0])


def test_snap_nearest():
    grids = [grid_of(*range(0, 101, 10))]
    snapped = snap_to_grid(MicrogridDesign((24.0,)), grids)
    assert snapped.capacities == (20.0,)


def test_snap_midpoint_rounds_down():
    grids = [grid_of(0, 10, 20, 30)]
    snapped = snap_to_grid(MicrogridDesign((25.0,)), grids)
    assert snapped.capacities == (20.0,)


def test_snap_identity_on_grid():
    grids = [grid_of(0, 10, 20, 30)]
    snapped = snap_to_grid(MicrogridDesign((30.0,)), grids)
    assert snapped.capacities == (30.0,)


def test_snap_clamps_outside_range():
    grids = [grid_of(10, 20, 30)]
    assert snap_to_grid(MicrogridDesign((4.0,)), grids).capacities == (10.0,)
    assert snap_to_grid(MicrogridDesign((99.0,)), grids).capacities == (30.0,)


# ---------------------------------------------------------------------------
# type validation

def test_der_spec_validation():
    with pytest.raises(ValueError):
        DerSpec(name="d", kind=DerKind.DIESEL_GENERATOR, lower_bound=10.0, upper_bound=5.0)
    with pytest.raises(ValueError):
        DerSpec(name="b", kind=DerKind.BATTERY_STORAGE, upper_bound=100.0)  # missing ratios
    with pytest.raises(ValueError):
        DerSpec(name="d", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0, charge_ratio=2.0)
    with pytest.raises(ValueError, match="pv: upper_bound must be finite"):
        DerSpec(name="pv", kind=DerKind.PHOTOVOLTAIC, upper_bound=math.nan)
    with pytest.raises(ValueError, match="pv: lower_bound must be finite"):
        DerSpec(name="pv", kind=DerKind.PHOTOVOLTAIC, lower_bound=math.inf, upper_bound=math.inf)
    with pytest.raises(ValueError, match="b: discharge_ratio must be finite"):
        DerSpec(name="b", kind=DerKind.BATTERY_STORAGE, upper_bound=1.0, charge_ratio=1.0, discharge_ratio=math.nan)


def test_design_space_validation():
    d = DerSpec(name="d", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0)
    with pytest.raises(ValueError):
        DesignSpace(ders=())
    with pytest.raises(ValueError):
        DesignSpace(ders=(d, d))


def test_load_profile_validation():
    good = constant_load(10.0, n_steps=3)
    assert len(good) == 3
    with pytest.raises(ValueError):
        LoadProfile(times=good.times, durations_s=(1.0, 1.0), demand_kw=good.demand_kw)
    with pytest.raises(ValueError):
        LoadProfile(times=(good.times[1], good.times[0]), durations_s=(1.0, 1.0), demand_kw=(1.0, 1.0))
    with pytest.raises(ValueError):
        LoadProfile(times=good.times, durations_s=good.durations_s, demand_kw=(1.0, -2.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        LoadProfile(times=good.times, durations_s=good.durations_s, demand_kw=(1.0, math.nan, 1.0))
    with pytest.raises(ValueError, match="finite"):
        LoadProfile(times=good.times, durations_s=(1.0, math.inf, 1.0), demand_kw=good.demand_kw)


def test_load_profile_hash_and_durations_cached_consistently():
    load = constant_load(10.0, n_steps=3)
    twin = constant_load(10.0, n_steps=3)
    other = constant_load(11.0, n_steps=3)
    assert load == twin and hash(load) == hash(twin)
    assert hash(load) == hash((load.times, load.durations_s, load.demand_kw))
    assert load != other
    copy = pickle.loads(pickle.dumps(load))
    assert copy == load and hash(copy) == hash(load)
    durations = load.durations_array
    assert durations is load.durations_array
    assert not durations.flags.writeable
    assert durations.tolist() == list(load.durations_s)

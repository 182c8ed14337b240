"""Metric, grid and dominance unit tests, including brute-force cross-checks."""

import dataclasses
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dersizer.core import (
    EPS_POWER,
    CapacityGrid,
    DerKind,
    DerSpec,
    DesignSpace,
    EvaluatedDesign,
    LoadProfile,
    MicrogridDesign,
    capacity_grid,
    deficit_ratio,
    non_dominated,
    unused_ratio,
)
from helpers import constant_load, dominates, make_outcome, with_capacity


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
    assert {b - a for a, b in zip(grid.points, grid.points[1:])} == {24.0}


def test_grid_eleven_points_ten_percent_spacing():
    spec = DerSpec(name="d", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0)
    grid = capacity_grid(spec, 11)
    assert grid.points == tuple(float(v) for v in range(0, 101, 10))
    assert {b - a for a, b in zip(grid.points, grid.points[1:])} == {10.0}


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


def test_grid_with_a_subnormal_precision_is_the_unquantized_grid():
    # 1e-310 overflows the quotients by the precision: the points are left as precision 0 gives them
    spec = DerSpec(name="p", kind=DerKind.PHOTOVOLTAIC, lower_bound=5.0, upper_bound=263.1)
    assert capacity_grid(spec, 11, 1e-310).points == capacity_grid(spec, 11, 0.0).points


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
            assert math.isclose(d, (hi - lo) / (points - 1), rel_tol=1e-9)
        # every grid point is its own level
        for k, p in enumerate(grid.points):
            assert grid.level(p) == k


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


def test_deficit_ratio_is_exactly_one_when_every_fractional_step_is_short():
    # 8 x 0.7 s sums to 5.6000000000000005 left to right and to 5.6 pairwise, so
    # a numerator and denominator summed in different orders gave 1.0000000000000002
    load = constant_load(10.0, n_steps=8, step_seconds=0.7)
    outcome = make_outcome([1] * 8, [[0.0] * 8], [[0.0] * 8])
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


def boolean_index_unused_ratio(outcome, der_index, capacity):
    """The formula `unused_ratio` counted with before it counted without copies."""
    if capacity == 0:
        return -1.0
    available = outcome.per_der_available[der_index]
    used = outcome.per_der_used[der_index]
    mask = available > EPS_POWER
    n_available = int(mask.sum())
    if n_available == 0:
        return -1.0
    n_underused = int((used[mask] < available[mask] - EPS_POWER).sum())
    return n_underused / n_available


def test_unused_ratio_equals_boolean_index_formula():
    rng = random.Random(11)
    eps = EPS_POWER
    # values at and one ulp around the tolerance, where the comparisons flip
    edges = [0.0, -0.0, eps, -eps, 2 * eps, math.nextafter(eps, 0.0), math.nextafter(eps, 1.0)]
    gaps = [0.0, eps, -eps, math.nextafter(eps, 0.0), math.nextafter(eps, 1.0), 2 * eps]
    for case in range(300):
        n = rng.randint(1, 24)
        available = [rng.choice(edges) if rng.random() < 0.5 else rng.uniform(0.0, 5.0) for _ in range(n)]
        used = [a - rng.choice(gaps) if rng.random() < 0.7 else rng.uniform(0.0, 5.0) for a in available]
        outcome = make_outcome([0] * n, [available], [used])
        capacity = rng.choice([0.0, -0.0, 1.0])
        got = unused_ratio(outcome, 0, capacity)
        assert repr(got) == repr(boolean_index_unused_ratio(outcome, 0, capacity)), case
        assert type(got) is float


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


@pytest.mark.parametrize(
    "n_ders, size", [(1, 40), (2, 40), (3, 40), (4, 40), (3, 0)], ids=["1-der", "2-ders", "3-ders", "4-ders", "empty"]
)
def test_non_dominated_matches_bruteforce(n_ders, size):
    rng = random.Random(23)
    for _ in range(20):
        pool = [
            ev(tuple(rng.randrange(0, 81, 20) for _ in range(n_ders)), rng.choice([0.0, 0.0, 0.1, 0.3]))
            for _ in range(size)
        ]
        kept = non_dominated(pool)
        least = {}  # each vector's least deficit, the first listed among equal ones
        for e in pool:
            if e.capacities not in least or e.deficit_ratio < least[e.capacities].deficit_ratio:
                least[e.capacities] = e
        unique = list(least.values())
        expected = sorted(
            (
                d
                for d in unique
                if not any(dominates(o, d) for o in unique if o is not d)
            ),
            key=lambda d: d.capacities,
        )
        assert [d.capacities for d in kept] == [d.capacities for d in expected]
        assert all(a is b for a, b in zip(kept, expected))  # the least deficit survives
        # no surviving pair dominates, every removed element is dominated by a survivor
        for a in kept:
            for b in kept:
                if a is not b:
                    assert not dominates(a, b)
        removed = {d.capacities for d in unique} - {d.capacities for d in kept}
        for caps in removed:
            victim = next(d for d in unique if d.capacities == caps)
            assert any(dominates(s, victim) for s in kept)


DEFICITS = st.sampled_from([0.0, 0.004, 0.01, 0.02, 0.1])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(st.tuples(*[st.sampled_from([0, 20, 40])] * n), DEFICITS), max_size=30)
    ),
    st.sampled_from([0.0, 0.004, 0.01, 0.05]),
)
def test_non_dominated_after_the_threshold_equals_the_threshold_after_it(drawn, threshold):
    # a repeated capacity vector may carry conflicting deficits, as rows read by `filter` can
    pool = [ev(caps, deficit) for caps, deficit in drawn]
    first = non_dominated([d for d in pool if d.deficit_ratio <= threshold])
    after = [d for d in non_dominated(pool) if d.deficit_ratio <= threshold]
    assert len(first) == len(after) and all(a is b for a, b in zip(first, after))


# ---------------------------------------------------------------------------
# CapacityGrid.level: how a refinement stage snaps a seed to the fine grid

def grid_of(*points):
    pts = tuple(float(p) for p in points)
    return CapacityGrid(points=pts)


def test_snap_nearest():
    assert grid_of(*range(0, 101, 10)).level(24.0) == 2


def test_snap_midpoint_rounds_down():
    assert grid_of(0, 10, 20, 30).level(25.0) == 2


def test_snap_identity_on_grid():
    assert grid_of(0, 10, 20, 30).level(30.0) == 3


def test_snap_clamps_outside_range():
    grid = grid_of(10, 20, 30)
    assert grid.level(4.0) == 0
    assert grid.level(99.0) == 2


def test_grid_level_is_the_nearest_index_with_midpoints_down():
    grid = grid_of(10, 20, 30, 40)
    assert [grid.level(v) for v in (10.0, 14.9, 15.0, 15.1, 40.0)] == [0, 0, 0, 1, 3]
    assert grid.level(-5.0) == 0 and grid.level(99.0) == 3


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
    with pytest.raises(ValueError, match="^DER name must be non-empty$"):
        DerSpec(name="", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0)
    with pytest.raises(ValueError, match="^d: lower_bound must be >= 0$"):
        DerSpec(name="d", kind=DerKind.DIESEL_GENERATOR, lower_bound=-1.0, upper_bound=100.0)
    for charge, discharge in ((0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError, match=r"^b: charge/discharge ratios must be > 0 hours$"):
            DerSpec(name="b", kind=DerKind.BATTERY_STORAGE, upper_bound=1.0, charge_ratio=charge, discharge_ratio=discharge)


def test_design_space_validation():
    d = DerSpec(name="d", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0)
    with pytest.raises(ValueError):
        DesignSpace(ders=())
    with pytest.raises(ValueError):
        DesignSpace(ders=(d, d))
    for caps in ((), (10.0, 10.0)):
        with pytest.raises(ValueError, match=f"^design has {len(caps)} capacities, space has 1 DERs$"):
            DesignSpace(ders=(d,)).validate_design(MicrogridDesign(caps))


def test_validate_design_rejects_negative_capacity_inside_the_tolerance():
    space = DesignSpace(
        ders=(
            DerSpec(name="d", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0),
            DerSpec(name="b", kind=DerKind.BATTERY_STORAGE, upper_bound=50.0, charge_ratio=1.0, discharge_ratio=1.0),
        )
    )
    for bad in (-5e-10, -1e-9, -math.ulp(0.0), -1.0, math.nan):
        with pytest.raises(ValueError, match="b: capacity"):
            space.validate_design(MicrogridDesign((10.0, bad)))
    for good in (0.0, -0.0, 50.0, 50.0 + 5e-10, 50.0 + 1e-9):  # the upper bound keeps its tolerance
        space.validate_design(MicrogridDesign((10.0, good)))
    with pytest.raises(ValueError, match="b: capacity"):
        space.validate_design(MicrogridDesign((10.0, 50.0 + 2e-9)))
    above_zero = DesignSpace(ders=(DerSpec(name="p", kind=DerKind.PHOTOVOLTAIC, lower_bound=10.0, upper_bound=20.0),))
    above_zero.validate_design(MicrogridDesign((10.0 - 5e-10,)))  # a positive lower bound keeps it too


@pytest.mark.parametrize(
    "value",
    [
        MicrogridDesign((90.0, -0.0, 12.5)),
        EvaluatedDesign(design=MicrogridDesign((90.0, 0.0)), deficit_ratio=0.25, unused_ratios=(0.5, -1.0)),
    ],
    ids=["MicrogridDesign", "EvaluatedDesign"],
)
def test_value_types_are_slotted_and_pickle(value):
    assert not hasattr(value, "__dict__")
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and repr(copy) == repr(value) and hash(copy) == hash(value)
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(copy, field, getattr(value, field))
    if isinstance(value, MicrogridDesign):
        changed = dataclasses.replace(value, capacities=(1, 2, 3))
        assert changed.capacities == (1.0, 2.0, 3.0)  # __post_init__ still runs
        assert with_capacity(value, 1, 5.0) == MicrogridDesign((90.0, 5.0, 12.5))
    else:
        changed = dataclasses.replace(value, deficit_ratio=0.5)
        assert (changed.design, changed.deficit_ratio, changed.unused_ratios) == (value.design, 0.5, value.unused_ratios)
        assert changed.capacities == (90.0, 0.0)


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
    with pytest.raises(ValueError, match="^load profile needs at least one step$"):
        LoadProfile(times=(), durations_s=(), demand_kw=())
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match=r"^durations must be > 0$"):
            LoadProfile(times=good.times, durations_s=(1.0, bad, 1.0), demand_kw=good.demand_kw)


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
    assert load.durations_sum is load.durations_sum
    assert load.durations_sum == math.fsum(load.durations_s)

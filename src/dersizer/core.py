"""Domain types and metrics for microgrid DER sizing.

Capacities are kW for generation technologies and kWh for battery storage.
A design assigns one capacity per DER in a DesignSpace; candidate capacities
live on evenly spaced grids between the per-DER bounds.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

# Absolute power tolerance (kW) for "load not fully satisfied" and
# "available but not used" comparisons. Shields dispatch float arithmetic
# from spurious deficits.
EPS_POWER = 1e-6

# Default quantum (kW / kWh) for capacity bound rounding and grid cleanup.
DEFAULT_CAPACITY_PRECISION = 5.0


class DerKind(enum.Enum):
    """The four supported DER technologies."""

    DIESEL_GENERATOR = "diesel_generator"
    PHOTOVOLTAIC = "photovoltaic"
    WIND_TURBINE = "wind_turbine"
    BATTERY_STORAGE = "battery_storage"

    @property
    def capacity_unit(self) -> str:
        return "kwh" if self is DerKind.BATTERY_STORAGE else "kw"


@dataclass(frozen=True)
class DerSpec:
    """One DER technology with its capacity bounds.

    charge_ratio / discharge_ratio (hours) tie battery power to energy:
    max charge power = capacity / charge_ratio, likewise for discharge.
    They are required for BATTERY_STORAGE and forbidden otherwise.
    """

    name: str
    kind: DerKind
    lower_bound: float = 0.0
    upper_bound: float = 0.0
    charge_ratio: float | None = None
    discharge_ratio: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("DER name must be non-empty")
        for label in ("lower_bound", "upper_bound", "charge_ratio", "discharge_ratio"):
            value = getattr(self, label)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{self.name}: {label} must be finite, got {value}")
        if self.lower_bound < 0:
            raise ValueError(f"{self.name}: lower_bound must be >= 0")
        for label in ("lower_bound", "upper_bound"):
            object.__setattr__(self, label, getattr(self, label) + 0)  # folds -0.0: no output prints it
        if self.lower_bound > self.upper_bound:
            raise ValueError(f"{self.name}: lower_bound exceeds upper_bound")
        is_battery = self.kind is DerKind.BATTERY_STORAGE
        if is_battery:
            if self.charge_ratio is None or self.discharge_ratio is None:
                raise ValueError(f"{self.name}: battery storage needs charge_ratio and discharge_ratio")
            if self.charge_ratio <= 0 or self.discharge_ratio <= 0:
                raise ValueError(f"{self.name}: charge/discharge ratios must be > 0 hours")
        elif self.charge_ratio is not None or self.discharge_ratio is not None:
            raise ValueError(f"{self.name}: charge/discharge ratios only apply to battery storage")


@dataclass(frozen=True)
class DesignSpace:
    """Ordered collection of DERs whose capacities a design assigns."""

    ders: tuple[DerSpec, ...]

    def __post_init__(self) -> None:
        if not self.ders:
            raise ValueError("design space needs at least one DER")
        object.__setattr__(self, "ders", tuple(self.ders))
        names = [d.name for d in self.ders]
        if len(set(names)) != len(names):
            raise ValueError("DER names must be unique")

    def validate_design(self, design: "MicrogridDesign") -> None:
        if len(design.capacities) != len(self.ders):
            raise ValueError(
                f"design has {len(design.capacities)} capacities, space has {len(self.ders)} DERs"
            )
        for cap, spec in zip(design.capacities, self.ders):
            # the bound tolerance never admits a negative capacity; -0.0 is not negative
            if cap < 0 or not (spec.lower_bound - 1e-9 <= cap <= spec.upper_bound + 1e-9):
                raise ValueError(f"{spec.name}: capacity {cap} outside [{spec.lower_bound}, {spec.upper_bound}]")


@dataclass(frozen=True, order=True, slots=True)
class MicrogridDesign:
    """A capacity vector, one value per DER in the owning DesignSpace; the simulation cache keys a design by it."""

    capacities: tuple[float, ...]

    def __post_init__(self) -> None:
        # + 0.0 folds -0.0 into 0.0, here alone for capacities: no output prints -0.0
        object.__setattr__(self, "capacities", tuple(float(c) + 0.0 for c in self.capacities))


@dataclass(frozen=True)
class LoadProfile:
    """Time-indexed power demand with per-interval durations."""

    times: tuple[datetime, ...]
    durations_s: tuple[float, ...]
    demand_kw: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(self.times))
        object.__setattr__(self, "durations_s", tuple(float(d) for d in self.durations_s))
        object.__setattr__(self, "demand_kw", tuple(float(p) for p in self.demand_kw))
        n = len(self.times)
        if n < 1:
            raise ValueError("load profile needs at least one step")
        if len(self.durations_s) != n or len(self.demand_kw) != n:
            raise ValueError("times, durations and demand must have equal length")
        for a, b in zip(self.times, self.times[1:]):
            if b <= a:
                raise ValueError("timestamps must be strictly increasing")
        if not all(math.isfinite(x) for x in self.durations_s + self.demand_kw):
            raise ValueError("durations and demand must be finite")
        if any(d <= 0 for d in self.durations_s):
            raise ValueError("durations must be > 0")
        if any(p < 0 for p in self.demand_kw):
            raise ValueError("demand must be >= 0")

    def __len__(self) -> int:
        return len(self.times)

    @functools.cached_property
    def durations_array(self) -> np.ndarray:
        """`durations_s` as a read-only float array."""
        durations = np.asarray(self.durations_s, dtype=float)
        durations.flags.writeable = False
        return durations

    @functools.cached_property
    def durations_sum(self) -> float:
        """`math.fsum(durations_s)`, the denominator of every deficit ratio."""
        return math.fsum(self.durations_s)

    @property
    def peak_kw(self) -> float:
        return max(self.demand_kw)


@dataclass(frozen=True)
class CapacityGrid:
    """Evenly spaced candidate capacities for one DER."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def n_intervals(self) -> int:
        return len(self.points) - 1

    def level(self, value: float) -> int:
        """Index of the nearest grid point; exact midpoints resolve to the lower point."""
        pts = self.points
        i = bisect.bisect_left(pts, value)
        if i <= 0:
            return 0
        if i >= len(pts):
            return len(pts) - 1
        # tie (value - lower == upper - value) goes down
        return i - 1 if value - pts[i - 1] <= pts[i] - value else i


@dataclass(frozen=True)
class SimulationOutcome:
    """Per-step dispatch results for one design on one load profile.

    deficit_flags[t] is 1 when delivered power fell short of demand.
    per_der_available / per_der_used are (n_ders, n_steps) kW matrices;
    battery charging power drawn from renewables counts as "used".
    """

    deficit_flags: np.ndarray
    per_der_available: np.ndarray
    per_der_used: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.deficit_flags, self.per_der_available, self.per_der_used):
            arr.flags.writeable = False


@dataclass(frozen=True, slots=True)
class EvaluatedDesign:
    """A design together with its performance metrics.

    unused_ratios[i] is -1 when DER i has zero capacity (or never had
    power available), otherwise the fraction of availability steps where
    the DER could have supplied more than was drawn.
    """

    design: MicrogridDesign
    deficit_ratio: float
    unused_ratios: tuple[float, ...] = field(default=())

    @property
    def capacities(self) -> tuple[float, ...]:
        return self.design.capacities


def capacity_grid(
    spec: DerSpec,
    level_points: int,
    precision: float = DEFAULT_CAPACITY_PRECISION,
) -> CapacityGrid:
    """Build the evenly spaced capacity grid for one DER.

    level_points is the number of grid points (so 11 points give 10%
    spacing of the bound range). When the spacing and lower bound are
    exact multiples of the precision quantum, points are snapped to the
    quantum to remove float noise; endpoints are always exact.
    """
    if level_points < 2:
        raise ValueError(f"level_points must be >= 2, got {level_points}")
    lo, hi = spec.lower_bound, spec.upper_bound
    if hi <= lo:
        raise ValueError(f"{spec.name}: degenerate capacity range [{lo}, {hi}]")
    n = level_points - 1
    spacing = (hi - lo) / n

    quantize = False
    # hi / precision bounds the quotients of lo, the spacing and every point (0 <= lo < hi);
    # a subnormal precision can overflow it, and then the points are not snapped
    if precision > 0 and math.isfinite(hi / precision):
        steps = spacing / precision
        base = lo / precision
        quantize = (
            abs(steps - round(steps)) <= 1e-9 * max(1.0, abs(steps))
            and round(steps) >= 1
            and abs(base - round(base)) <= 1e-9 * max(1.0, abs(base))
        )

    points = [lo + k * spacing for k in range(level_points)]
    if quantize:
        points = [round(p / precision) * precision for p in points]
    points[0] = lo
    points[-1] = hi
    return CapacityGrid(points=tuple(points))


def deficit_ratio(outcome: SimulationOutcome, load: LoadProfile) -> float:
    """Duration-weighted fraction of the horizon spent with a power deficit.

    Both sums are correctly rounded (`math.fsum`), so the ratio does not
    depend on summation order and is exactly 1.0 when every step is short.
    """
    flags = outcome.deficit_flags
    if len(flags) != len(load):
        raise ValueError(f"outcome has {len(flags)} steps, load has {len(load)}")
    return math.fsum(load.durations_array[flags != 0].tolist()) / load.durations_sum


def unused_ratio(outcome: SimulationOutcome, der_index: int, capacity: float) -> float:
    """Fraction of availability steps where a DER was underused: `unused_ratio_of_rows` on its rows."""
    if not 0 <= der_index < outcome.per_der_available.shape[0]:
        raise ValueError(f"der_index {der_index} out of range")
    return unused_ratio_of_rows(outcome.per_der_available[der_index], outcome.per_der_used[der_index], capacity)


def unused_ratio_of_rows(available: np.ndarray, used: np.ndarray, capacity: float) -> float:
    """Fraction of availability steps where a DER with these rows was underused.

    Steps count unweighted, and only those where the DER had power available
    (a PV array has none at night). -1 for zero capacity or no power ever.
    """
    if capacity == 0:
        return -1.0
    mask = available > EPS_POWER
    n_available = int(np.count_nonzero(mask))
    if n_available == 0:
        return -1.0
    mask &= used < available - EPS_POWER
    return int(np.count_nonzero(mask)) / n_available


def non_dominated(designs: list[EvaluatedDesign]) -> list[EvaluatedDesign]:
    """Drop dominated and repeated entries, sort the rest by capacities.

    Deficit ratios and capacities must not be NaN. Sorted by (deficit ratio,
    capacities), a dominator comes strictly before whatever it dominates,
    and dominance is transitive, so each entry only needs checking against
    the entries already kept. The sort is stable, so a repeated capacity
    vector comes first with its least deficit (the first listed, among
    equal ones). Each kept entry then eliminates every later one with no
    capacity below its own, one capacity column at a time: what it
    dominates and its own repeats. A dominator's deficit is no larger than
    what it dominates, so filtering by a deficit bound before or after this
    gives the same list.
    """
    ordered = sorted(designs, key=lambda d: (d.deficit_ratio, d.capacities))
    # one contiguous array per capacity column
    columns = list(np.array([d.capacities for d in ordered], dtype=float).T.copy())
    alive = np.ones(len(ordered), dtype=bool)
    kept: list[EvaluatedDesign] = []
    for i, d in enumerate(ordered):
        if alive[i]:
            kept.append(d)
            below = columns[0][i + 1 :] < columns[0][i]
            for column in columns[1:]:
                below |= column[i + 1 :] < column[i]
            alive[i + 1 :] &= below
    kept.sort(key=lambda d: d.capacities)
    return kept


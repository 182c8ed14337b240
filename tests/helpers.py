"""Plain test helpers, imported by conftest.py and the test modules as `helpers`."""

from __future__ import annotations

import math
from datetime import datetime, timedelta

import numpy as np

from dersizer import DerKind, DerSpec, DesignSpace, LoadProfile
from dersizer.core import EvaluatedDesign, MicrogridDesign, SimulationOutcome

# Battery ratio of the one-day desk instance (see conftest.py).
DESK_BESS_RATIO_H = 0.5


def ceil_to(value: float, quantum: float = 5.0) -> float:
    return math.ceil(value / quantum - 1e-9) * quantum


def space_for(load: LoadProfile, bess_ratio_h: float = DESK_BESS_RATIO_H) -> DesignSpace:
    """Diesel, PV and a battery bounded at 1x, 3x and 5x the peak load, rounded up to 5 kW."""
    peak = load.peak_kw
    return DesignSpace(
        ders=(
            DerSpec(name="diesel", kind=DerKind.DIESEL_GENERATOR, upper_bound=ceil_to(peak)),
            DerSpec(name="solar", kind=DerKind.PHOTOVOLTAIC, upper_bound=ceil_to(peak * 3)),
            DerSpec(
                name="battery",
                kind=DerKind.BATTERY_STORAGE,
                upper_bound=ceil_to(peak * 5),
                charge_ratio=bess_ratio_h,
                discharge_ratio=bess_ratio_h,
            ),
        )
    )


def constant_load(kw: float, n_steps: int = 4, step_seconds: float = 1800.0) -> LoadProfile:
    start = datetime(2024, 3, 4)
    times = tuple(start + timedelta(seconds=step_seconds * k) for k in range(n_steps))
    return LoadProfile(
        times=times, durations_s=(step_seconds,) * n_steps, demand_kw=(float(kw),) * n_steps
    )


def make_outcome(flags, available, used):
    return SimulationOutcome(
        deficit_flags=np.array(flags, dtype=np.int8),
        per_der_available=np.array(available, dtype=float),
        per_der_used=np.array(used, dtype=float),
    )


def with_capacity(design: MicrogridDesign, index: int, value: float) -> MicrogridDesign:
    """`design` with DER `index` set to `value`."""
    caps = list(design.capacities)
    caps[index] = value
    return MicrogridDesign(tuple(caps))


def dominates(a: EvaluatedDesign, b: EvaluatedDesign) -> bool:
    """True when a performs at least as well as b with no more capacity anywhere.

    Requires at least one strict inequality, so identical entries never
    dominate each other. The oracle that `core.non_dominated` is tested against.
    """
    ca, cb = a.capacities, b.capacities
    if len(ca) != len(cb):
        raise ValueError(f"capacity vectors differ in length: {len(ca)} vs {len(cb)}")
    if a.deficit_ratio > b.deficit_ratio:
        return False
    strict = a.deficit_ratio < b.deficit_ratio
    for x, y in zip(ca, cb):
        if x > y:
            return False
        if x < y:
            strict = True
    return strict


def desk_config_document(load_csv_name: str, output_name: str, rng_seed: int = 42) -> dict:
    """Pipeline config JSON mirroring the desk fixtures, for CLI tests."""
    return {
        "ders": [
            {"name": "diesel", "kind": "diesel_generator"},
            {"name": "solar", "kind": "photovoltaic"},
            {
                "name": "battery",
                "kind": "battery_storage",
                "charge_ratio": DESK_BESS_RATIO_H,
                "discharge_ratio": DESK_BESS_RATIO_H,
            },
        ],
        "search": {"rng_seed": rng_seed},
        "dispatch": {},
        "load_path": load_csv_name,
        "output_path": output_name,
    }

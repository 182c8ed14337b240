"""Shared instances: a one-day 48-step benchmark setup and tiny helpers."""

from __future__ import annotations

import json
import math
from datetime import datetime, timedelta

import pytest

from dersizer import DerKind, DerSpec, DesignSpace, DispatchConfig, LoadProfile
from dersizer.synthetic import load_profile_csv, synthetic_load_profile

# One-day benchmark instance: 48 half-hour steps with a small overnight base,
# a tall working-hours hump and an evening peak. Battery ratios of 0.5 h keep
# the discharge power cap above what the energy budget allows each step, so
# the reference dispatch is provably monotone in every capacity (pruning and
# the monotonicity property tests rely on that). With slower batteries it is
# not: see test_monotonicity_fails_with_slow_battery_on_two_week_profile in
# test_simulator.py.
DESK_PROFILE_KWARGS = dict(
    n_steps=48,
    step_seconds=1800.0,
    base_kw=20.0,
    day_kw=70.0,
    evening_kw=35.0,
    noise_kw=3.0,
    seed=7,
)
DESK_BESS_RATIO_H = 0.5


def ceil_to(value: float, quantum: float = 5.0) -> float:
    return math.ceil(value / quantum - 1e-9) * quantum


def desk_space_for(load: LoadProfile) -> DesignSpace:
    peak = load.peak_kw
    return DesignSpace(
        ders=(
            DerSpec(name="diesel", kind=DerKind.DIESEL_GENERATOR, upper_bound=ceil_to(peak)),
            DerSpec(name="solar", kind=DerKind.PHOTOVOLTAIC, upper_bound=ceil_to(peak * 3)),
            DerSpec(
                name="battery",
                kind=DerKind.BATTERY_STORAGE,
                upper_bound=ceil_to(peak * 5),
                charge_ratio=DESK_BESS_RATIO_H,
                discharge_ratio=DESK_BESS_RATIO_H,
            ),
        )
    )


@pytest.fixture(scope="session")
def desk_load() -> LoadProfile:
    return synthetic_load_profile(**DESK_PROFILE_KWARGS)


@pytest.fixture(scope="session")
def desk_space(desk_load) -> DesignSpace:
    return desk_space_for(desk_load)


@pytest.fixture(scope="session")
def desk_dispatch() -> DispatchConfig:
    return DispatchConfig()


@pytest.fixture(scope="session")
def diesel_only_space() -> DesignSpace:
    return DesignSpace(
        ders=(DerSpec(name="diesel", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0),)
    )


def constant_load(kw: float, n_steps: int = 4, step_seconds: float = 1800.0) -> LoadProfile:
    start = datetime(2024, 3, 4)
    times = tuple(start + timedelta(seconds=step_seconds * k) for k in range(n_steps))
    return LoadProfile(
        times=times, durations_s=(step_seconds,) * n_steps, demand_kw=(float(kw),) * n_steps
    )


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


@pytest.fixture()
def desk_cli_dir(tmp_path, desk_load):
    """Temp directory holding the desk instance as CLI inputs."""
    (tmp_path / "load.csv").write_text(load_profile_csv(desk_load), encoding="utf-8")
    config = desk_config_document("load.csv", "results.csv")
    (tmp_path / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return tmp_path

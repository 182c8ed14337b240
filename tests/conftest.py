"""Shared fixtures: a one-day 48-step benchmark setup and its CLI inputs."""

from __future__ import annotations

import json

import pytest

from dersizer import DerKind, DerSpec, DesignSpace, DispatchConfig, LoadProfile
from dersizer.synthetic import load_profile_csv, synthetic_load_profile
from helpers import desk_config_document, space_for

# One-day benchmark instance: 48 half-hour steps with a small overnight base,
# a tall working-hours hump and an evening peak. Battery ratios of 0.5 h
# (DESK_BESS_RATIO_H in helpers.py) keep the discharge power cap above what
# the energy budget allows each step, so the reference dispatch is provably
# monotone in every capacity (pruning and the monotonicity property tests
# rely on that). With slower batteries it is not: see
# test_monotonicity_fails_with_slow_battery_on_two_week_profile in
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


@pytest.fixture(scope="session")
def desk_load() -> LoadProfile:
    return synthetic_load_profile(**DESK_PROFILE_KWARGS)


@pytest.fixture(scope="session")
def desk_space(desk_load) -> DesignSpace:
    return space_for(desk_load)


@pytest.fixture(scope="session")
def desk_dispatch() -> DispatchConfig:
    return DispatchConfig()


@pytest.fixture(scope="session")
def diesel_only_space() -> DesignSpace:
    return DesignSpace(
        ders=(DerSpec(name="diesel", kind=DerKind.DIESEL_GENERATOR, upper_bound=100.0),)
    )


@pytest.fixture()
def desk_cli_dir(tmp_path, desk_load):
    """Temp directory holding the desk instance as CLI inputs."""
    (tmp_path / "load.csv").write_text(load_profile_csv(desk_load), encoding="utf-8")
    config = desk_config_document("load.csv", "results.csv")
    (tmp_path / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return tmp_path

"""Deterministic synthetic load profiles with day/night structure.

Stands in for field-measured demand data in demos and acceptance runs.
Run as a module to write one to CSV:

    python -m dersizer.synthetic load.csv --steps 5040 --step-seconds 240
"""

from __future__ import annotations

import argparse
import math
import random
from datetime import datetime, timedelta

from .core import LoadProfile

DEFAULT_START = datetime(2024, 3, 4, 0, 0, 0)


def synthetic_load_profile(
    n_steps: int = 5040,
    step_seconds: float = 240.0,
    start: datetime = DEFAULT_START,
    base_kw: float = 40.0,
    day_kw: float = 45.0,
    evening_kw: float = 35.0,
    noise_kw: float = 3.0,
    seed: int = 7,
) -> LoadProfile:
    """Base demand plus a working-hours hump, an evening peak, and seeded noise."""
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    if not 0 < step_seconds < math.inf:  # also rejects NaN
        raise ValueError(f"step_seconds must be positive and finite, got {step_seconds}")
    rng = random.Random(seed)
    times = []
    demand = []
    step = timedelta(seconds=step_seconds)
    stamp = start
    for _ in range(n_steps):
        h = stamp.hour + stamp.minute / 60.0 + stamp.second / 3600.0
        level = base_kw
        if 7.0 <= h <= 18.0:
            level += day_kw * math.sin(math.pi * (h - 7.0) / 11.0) ** 2
        if 17.0 <= h <= 23.0:
            level += evening_kw * math.sin(math.pi * (h - 17.0) / 6.0) ** 2
        level += noise_kw * rng.uniform(-1.0, 1.0)
        times.append(stamp)
        demand.append(max(level, 1.0))
        stamp = stamp + step
    durations = [step_seconds] * n_steps
    return LoadProfile(times=tuple(times), durations_s=tuple(durations), demand_kw=tuple(demand))


def two_week_profile(seed: int = 7) -> LoadProfile:
    """5040 steps of 4 minutes: exactly 14 days."""
    return synthetic_load_profile(n_steps=5040, step_seconds=240.0, seed=seed)


def daily_profile(seed: int = 7) -> LoadProfile:
    """48 half-hour steps covering one day, at the default 40 kW base and 45 kW hump.

    A demo profile: the tests' and the benchmark's desk day is a 48-step day
    with a 20 kW base and a 70 kW hump.
    """
    return synthetic_load_profile(n_steps=48, step_seconds=1800.0, seed=seed)


def load_profile_csv(profile: LoadProfile) -> str:
    lines = ["datetime,load_kw"]
    for stamp, kw in zip(profile.times, profile.demand_kw):
        lines.append(f"{stamp.isoformat()},{kw!r}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write a synthetic load profile CSV.")
    parser.add_argument("out", help="output CSV path")
    parser.add_argument("--steps", type=int, default=5040)
    parser.add_argument("--step-seconds", type=float, default=240.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    try:
        profile = synthetic_load_profile(n_steps=args.steps, step_seconds=args.step_seconds, seed=args.seed)
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(load_profile_csv(profile))
    except (ValueError, OverflowError, OSError) as exc:  # OverflowError: the horizon passes year 9999
        parser.error(str(exc))
    print(f"wrote {len(profile)} steps to {args.out} (peak {profile.peak_kw:.1f} kW)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Correctness gate for one operation's frontier, and the cross-run digest store.

The gate re-derives everything from the scalar reference `operate` and
`deficit_ratio`, outside the timed region:

- no final design dominates another;
- every reported deficit ratio matches a fresh recomputation;
- every zero-deficit final is rightsized: lowering any one capacity by one
  grid level creates a deficit.
"""

from __future__ import annotations

import hashlib
import json
import os

import dersizer


def dominates(a, b) -> bool:
    """(capacities, deficit) a is no worse than b everywhere and better somewhere."""
    (ca, da), (cb, db) = a, b
    if da > db or any(x > y for x, y in zip(ca, cb)):
        return False
    return da < db or any(x < y for x, y in zip(ca, cb))


def grid_index(points, value: float) -> int | None:
    for k, p in enumerate(points):
        if abs(p - value) <= 1e-9 * max(1.0, abs(value)):
            return k
    return None


def check_frontier(rows, exact: bool, load, space, dispatch, levels: int, precision: float) -> list[str]:
    """Problems found in one frontier; rows are (capacities, reported deficit)."""
    memo: dict[tuple, float] = {}

    def deficit_of(caps) -> float:
        if caps not in memo:
            outcome = dersizer.operate(space, dersizer.MicrogridDesign(caps), load, dispatch)
            memo[caps] = dersizer.deficit_ratio(outcome, load)
        return memo[caps]

    problems = []
    scored = []
    for caps, reported in rows:
        recomputed = deficit_of(caps)
        same = recomputed == reported if exact else f"{recomputed:.4f}" == reported
        if not same:
            problems.append(f"{caps}: reported deficit {reported!r}, recomputed {recomputed!r}")
        scored.append((caps, recomputed))

    for a in scored:
        for b in scored:
            if a is not b and dominates(a, b):
                problems.append(f"{a[0]} dominates {b[0]}")

    grids = [dersizer.capacity_grid(spec, levels, precision).points for spec in space.ders]
    for caps, deficit in scored:
        if deficit != 0:
            continue
        for i, cap in enumerate(caps):
            k = grid_index(grids[i], cap)
            if k is None:
                problems.append(f"{caps}: capacity {cap} is not on the {levels}-level grid")
            elif k > 0 and deficit_of(caps[:i] + (grids[i][k - 1],) + caps[i + 1 :]) == 0:
                problems.append(f"{caps}: lowering DER {i} one level keeps zero deficit")
    return problems


def source_digest(src_dir: str) -> str:
    """sha256 over every source file under src_dir, by relative path."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(src_dir)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src_dir).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


class DigestStore:
    """Frontier digests by operation input, kept across runs of one source tree.

    A later run of the same source and the same inputs must write the same
    frontier; entries of any other source tree are dropped on load.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.entries: dict[str, str] = {}
        try:
            with open(path, "r", encoding="utf-8") as f:
                saved = json.load(f)
        except (OSError, ValueError):
            saved = {}
        if saved.get("source") == source:
            self.entries = dict(saved.get("digests", {}))

    def agrees(self, key: str, digest: str) -> bool:
        """Record digest under key; False when a different one was recorded."""
        return self.entries.setdefault(key, digest) == digest

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = f"{self.path}.{os.getpid()}.part"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump({"source": self.source, "digests": self.entries}, f, indent=0, sort_keys=True)
        os.replace(tmp, self.path)

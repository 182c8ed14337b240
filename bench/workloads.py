"""The benchmark's workloads: inputs derived from a seed, one timed call per op.

Every workload builds a pool of operation inputs during set-up. Operation i
uses pool entry i % len(pool): a run makes one whole pass over the pool and
then repeats inputs it has already seen, which must reproduce their
frontier and simulation count exactly. A pass is sized to take 6 to 15 s
on a 2-core x86 box, so a 30-second run repeats every input.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field

import dersizer
from dersizer import io_cli, synthetic

# The one-day desk instance of the unit tests: 48 half-hour steps and 0.5 h
# battery ratios, under which the reference dispatch is monotone.
DESK_PROFILE = dict(n_steps=48, step_seconds=1800.0, base_kw=20.0, day_kw=70.0, evening_kw=35.0, noise_kw=3.0)
DESK_BESS_RATIO_H = 0.5
# Two weeks of the README's demo profile at 30-minute resolution (672 steps):
# long enough that dispatch dominates, short enough for several operations
# per run. The README's 5040 four-minute steps take about 25 s per operation.
TWOWEEK_PROFILE = dict(n_steps=672, step_seconds=1800.0)
TWOWEEK_BESS_RATIO_H = 2.0
CAPACITY_QUANTUM = 5.0


def derive(seed: int, *parts) -> int:
    """A 31-bit seed determined by the workload seed and a label."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def ceil_to(value: float, quantum: float = CAPACITY_QUANTUM) -> float:
    return math.ceil(value / quantum - 1e-9) * quantum


def desk_space(load) -> dersizer.DesignSpace:
    """Bounds of the unit tests' desk instance: 1x/3x/5x peak, rounded up."""
    peak = load.peak_kw
    kinds = dersizer.DerKind
    return dersizer.DesignSpace(
        ders=(
            dersizer.DerSpec("diesel", kinds.DIESEL_GENERATOR, upper_bound=ceil_to(peak)),
            dersizer.DerSpec("solar", kinds.PHOTOVOLTAIC, upper_bound=ceil_to(peak * 3)),
            dersizer.DerSpec(
                "battery",
                kinds.BATTERY_STORAGE,
                upper_bound=ceil_to(peak * 5),
                charge_ratio=DESK_BESS_RATIO_H,
                discharge_ratio=DESK_BESS_RATIO_H,
            ),
        )
    )


def config_document(load_name: str, bess_ratio_h: float, rng_seed: int) -> dict:
    """CLI config: diesel/PV/battery with bounds from the default peak multipliers."""
    return {
        "ders": [
            {"name": "diesel", "kind": "diesel_generator"},
            {"name": "solar", "kind": "photovoltaic"},
            {
                "name": "battery",
                "kind": "battery_storage",
                "charge_ratio": bess_ratio_h,
                "discharge_ratio": bess_ratio_h,
            },
        ],
        "search": {"rng_seed": rng_seed},
        "dispatch": {},
        "load_path": load_name,
    }


@dataclass
class OpInput:
    key: str
    rng_seed: int = 0
    load: object = None
    space: object = None
    config_path: str = ""


@dataclass
class Frontier:
    """What one operation produced, read back outside the timed region."""

    rows: list  # (capacities, reported deficit ratio: float, or "%.4f" text)
    digest: str
    simulations: int | None
    report: object = None  # SearchReport when the library returned one
    logs: list = field(default_factory=list)  # (format string, args) from dersizer loggers
    error: str | None = None


class LogCapture(logging.Handler):
    """Collects the (message format, args) of records from the dersizer loggers."""

    def __init__(self) -> None:
        super().__init__(level=logging.INFO)
        self.records: list[tuple[str, tuple]] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append((str(record.msg), tuple(record.args or ())))

    def take(self) -> list[tuple[str, tuple]]:
        taken, self.records = self.records, []
        return taken


class Workload:
    name = ""
    pool_size = 1
    levels = 0
    exact_deficits = False

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.pool: list[OpInput] = []
        self.generate_s = 0.0
        self.capture = LogCapture()

    def generate(self, **kwargs):
        started = time.perf_counter()
        load = synthetic.synthetic_load_profile(**kwargs)
        self.generate_s += time.perf_counter() - started
        return load

    def op_input(self, index: int) -> OpInput:
        return self.pool[index % len(self.pool)]

    def attach(self) -> None:
        logging.getLogger("dersizer").addHandler(self.capture)

    def detach(self) -> None:
        logging.getLogger("dersizer").removeHandler(self.capture)

    def check_inputs(self, op: OpInput):
        """(load, space, dispatch config, capacity precision) the op ran on."""
        raise NotImplementedError


class DeskSeeds(Workload):
    name = "desk-seeds"
    pool_size = 12
    levels = 41
    exact_deficits = True

    def setup(self) -> None:
        for k in range(self.pool_size):
            noise, rng = derive(self.seed, self.name, "noise", k), derive(self.seed, self.name, "rng", k)
            load = self.generate(seed=noise, **DESK_PROFILE)
            self.pool.append(
                OpInput(key=f"noise={noise},rng={rng}", rng_seed=rng, load=load, space=desk_space(load))
            )

    def run(self, op: OpInput, out_index: int):
        config = dersizer.SearchConfig(fine_level_points=self.levels, rng_seed=op.rng_seed)
        return dersizer.run_pipeline(op.space, op.load, dersizer.DispatchConfig(), config)

    def frontier(self, op: OpInput, report, out_index: int) -> Frontier:
        finals = sorted(report.final_designs, key=lambda e: e.capacities)
        text = "\n".join(f"{d.capacities!r} {d.deficit_ratio!r} {d.unused_ratios!r}" for d in finals)
        return Frontier(
            rows=[(d.capacities, d.deficit_ratio) for d in finals],
            digest=hashlib.sha256(text.encode()).hexdigest(),
            simulations=report.all_simulated,
            report=report,
            logs=self.capture.take(),
        )

    def check_inputs(self, op: OpInput):
        return op.load, op.space, dersizer.DispatchConfig(), dersizer.DEFAULT_CAPACITY_PRECISION


class CliWorkload(Workload):
    """A workload whose operation is one in-process `dersizer` CLI call."""

    profile: dict = {}
    bess_ratio_h = 0.0
    command = ""
    # the CLI's log line that states the unique simulation count, and the
    # position of that count among the line's arguments
    count_line = ""
    count_arg = 0

    def setup(self) -> None:
        for k in range(self.pool_size):
            noise, rng = derive(self.seed, self.name, "noise", k), derive(self.seed, self.name, "rng", k)
            load = self.generate(seed=noise, **self.profile)
            load_name = f"load_{k}.csv"
            with open(os.path.join(self.workdir, load_name), "w", encoding="utf-8") as f:
                f.write(synthetic.load_profile_csv(load))
            config_path = os.path.join(self.workdir, f"config_{k}.json")
            with open(config_path, "w", encoding="utf-8") as f:
                json.dump(config_document(load_name, self.bess_ratio_h, rng), f, indent=2)
            self.pool.append(OpInput(key=f"noise={noise},rng={rng}", rng_seed=rng, config_path=config_path))

    def run(self, op: OpInput, out_index: int) -> int:
        return io_cli.main(self.argv(op, out_index))

    def output_path(self, out_index: int) -> str:
        return os.path.join(self.workdir, f"out_{out_index}.csv")

    def argv(self, op: OpInput, out_index: int) -> list[str]:
        return [self.command, "--config", op.config_path, "--levels", str(self.levels),
                "--out", self.output_path(out_index)]

    def frontier(self, op: OpInput, exit_code: int, out_index: int) -> Frontier:
        logs = self.capture.take()
        if exit_code != 0:
            return Frontier(rows=[], digest="", simulations=None, logs=logs, error=f"exit code {exit_code}")
        path = self.output_path(out_index)
        with open(path, "rb") as f:
            data = f.read()
        os.unlink(path)
        reader = csv.reader(io.StringIO(data.decode("utf-8")))
        header = next(reader)
        n_ders = header.index(io_cli.DEFICIT_COLUMN)
        rows = [(tuple(float(c) for c in row[:n_ders]), row[n_ders]) for row in reader if row]
        return Frontier(
            rows=rows,
            digest=hashlib.sha256(data).hexdigest(),
            simulations=self.logged_simulations(logs),
            logs=logs,
        )

    def logged_simulations(self, logs) -> int | None:
        """The count from the last log record of the count line, if any."""
        for msg, args in reversed(logs):
            if msg.startswith(self.count_line):
                return args[self.count_arg]
        return None

    def check_inputs(self, op: OpInput):
        config = io_cli.load_config_file(op.config_path)
        load, space, dispatch = io_cli.load_inputs(config)
        return load, space, dispatch, config.capacity_precision


class TwoWeekSize(CliWorkload):
    name = "twoweek-size"
    pool_size = 4
    levels = 41
    profile = TWOWEEK_PROFILE
    bess_ratio_h = TWOWEEK_BESS_RATIO_H
    command = "size"
    count_line = "pipeline done"
    count_arg = 1


class DeskOracle(CliWorkload):
    name = "desk-oracle"
    pool_size = 5
    levels = 14
    profile = DESK_PROFILE
    bess_ratio_h = DESK_BESS_RATIO_H
    command = "exhaustive"
    count_line = "exhaustive enumeration"
    count_arg = 1


WORKLOADS = {w.name: w for w in (DeskSeeds, TwoWeekSize, DeskOracle)}

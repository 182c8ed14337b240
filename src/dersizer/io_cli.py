"""Configuration and load-profile ingestion, result export, and the CLI.

Subcommands: size (full pipeline), exhaustive (grid enumeration at a chosen
level count), simulate (evaluate one design), filter (non-dominated filter
over a results CSV). Exit codes: 0 success, 2 config/parse errors, 3 when
an exhaustive enumeration exceeds the safety cap.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import dataclasses
import io
import json
import logging
import math
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass
from datetime import datetime

from .core import (
    DEFAULT_CAPACITY_PRECISION,
    DerKind,
    DerSpec,
    DesignSpace,
    EvaluatedDesign,
    LoadProfile,
    MicrogridDesign,
    non_dominated,
)
from .search import (
    SearchConfig,
    SearchReport,
    SearchSpaceTooLarge,
    exhaustive_search,
    grid_size,
    run_pipeline,
    stage_counts,
)
from .simulator import DispatchConfig, SimulationCache, memoized_operate

log = logging.getLogger(__name__)

DEFAULT_PEAK_MULTIPLIERS = {
    DerKind.DIESEL_GENERATOR: 1.0,
    DerKind.WIND_TURBINE: 1.0,
    DerKind.PHOTOVOLTAIC: 3.0,
    DerKind.BATTERY_STORAGE: 5.0,
}

DEFICIT_COLUMN = "sizing_grid_deficit_ratio"


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


# ---------------------------------------------------------------------------
# load profile and wind series parsing

def _parse_timestamp(raw: str, line_no: int) -> datetime:
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"line {line_no}: invalid ISO 8601 timestamp {raw!r}") from None


def _csv_rows(text: str, expected_header: list[str], what: str):
    reader = csv.reader(io.StringIO(text))
    rows = []
    header_seen = False
    for line_no, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if not header_seen:
            cells = [c.strip().lower() for c in row]
            if cells != expected_header:
                raise ParseError(
                    f"line {line_no}: {what} header must be {','.join(expected_header)!r}, got {','.join(row)!r}"
                )
            header_seen = True
            continue
        if len(row) != len(expected_header):
            raise ParseError(f"line {line_no}: expected {len(expected_header)} fields, got {len(row)}")
        rows.append((line_no, row))
    if not header_seen:
        raise ParseError(f"line 1: empty {what} file")
    return rows


def _check_increasing(times: list[datetime], line_nos: list[int], what: str) -> None:
    for k in range(1, len(times)):
        try:
            ok = times[k] > times[k - 1]
        except TypeError:
            raise ParseError(
                f"line {line_nos[k]}: {what} mixes timezone-aware and naive timestamps"
            ) from None
        if not ok:
            raise ParseError(f"line {line_nos[k]}: {what} timestamps must be strictly increasing")


def parse_load_profile(text: str) -> LoadProfile:
    """Parse a `datetime,load_kw` CSV into a LoadProfile.

    Interval durations are the gaps between consecutive timestamps; the
    final interval inherits the preceding duration, so at least two rows
    are required.
    """
    rows = _csv_rows(text, ["datetime", "load_kw"], "load profile")
    if len(rows) < 2:
        raise ParseError("load profile needs at least 2 data rows")
    times: list[datetime] = []
    demand: list[float] = []
    line_nos: list[int] = []
    for line_no, (raw_time, raw_load) in rows:
        stamp = _parse_timestamp(raw_time, line_no)
        try:
            kw = float(raw_load)
        except ValueError:
            raise ParseError(f"line {line_no}: invalid load value {raw_load!r}") from None
        if not math.isfinite(kw):
            raise ParseError(f"line {line_no}: load must be finite, got {raw_load!r}")
        if kw < 0:
            raise ParseError(f"line {line_no}: negative load {kw}")
        times.append(stamp)
        demand.append(kw)
        line_nos.append(line_no)
    _check_increasing(times, line_nos, "load profile")
    durations = [
        (times[k + 1] - times[k]).total_seconds() for k in range(len(times) - 1)
    ]
    durations.append(durations[-1])
    return LoadProfile(times=tuple(times), durations_s=tuple(durations), demand_kw=tuple(demand))


def parse_wind_series(text: str) -> tuple[tuple[datetime, ...], tuple[float, ...]]:
    """Parse a `datetime,capacity_factor` CSV; factors must lie in [0, 1]."""
    rows = _csv_rows(text, ["datetime", "capacity_factor"], "wind series")
    if not rows:
        raise ParseError("wind series has no data rows")
    times: list[datetime] = []
    factors: list[float] = []
    line_nos: list[int] = []
    for line_no, (raw_time, raw_factor) in rows:
        stamp = _parse_timestamp(raw_time, line_no)
        try:
            factor = float(raw_factor)
        except ValueError:
            raise ParseError(f"line {line_no}: invalid capacity factor {raw_factor!r}") from None
        if not 0.0 <= factor <= 1.0:
            raise ParseError(f"line {line_no}: capacity factor {factor} outside [0, 1]")
        times.append(stamp)
        factors.append(factor)
        line_nos.append(line_no)
    _check_increasing(times, line_nos, "wind series")
    return tuple(times), tuple(factors)


def align_wind_series(
    series_times: tuple[datetime, ...],
    series_factors: tuple[float, ...],
    load: LoadProfile,
) -> tuple[float, ...]:
    """Sample the wind series at the load timestamps (previous-value hold).

    The series must cover the whole load horizon.
    """
    try:
        covered = series_times[0] <= load.times[0] and series_times[-1] >= load.times[-1]
    except TypeError:
        raise ValueError(
            "wind series and load profile disagree on timezone-aware timestamps"
        ) from None
    if not covered:
        raise ValueError(
            f"wind series [{series_times[0].isoformat()} .. {series_times[-1].isoformat()}] "
            f"does not cover the load horizon "
            f"[{load.times[0].isoformat()} .. {load.times[-1].isoformat()}]"
        )
    out = []
    for stamp in load.times:
        k = bisect.bisect_right(series_times, stamp) - 1
        out.append(series_factors[k])
    return tuple(out)


# ---------------------------------------------------------------------------
# pipeline configuration

_KIND_BY_NAME = {k.value: k for k in DerKind}


@dataclass(frozen=True)
class DerConfigEntry:
    name: str
    kind: DerKind
    lower_bound: float = 0.0
    upper_bound: float | None = None
    peak_multiplier: float | None = None
    charge_ratio: float | None = None
    discharge_ratio: float | None = None


@dataclass(frozen=True)
class PipelineConfigFile:
    """Parsed pipeline configuration document."""

    ders: tuple[DerConfigEntry, ...]
    search: SearchConfig
    dispatch_options: dict
    wind_series_path: str | None
    load_path: str
    output_path: str | None
    capacity_precision: float
    base_dir: str = "."

    def resolve_path(self, path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)


def _require_keys(data: dict, allowed: set[str], context: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)}")


def _number(data: dict, key: str, context: str, default: float | None = None) -> float | None:
    """`data[key]` as a float, or `default` when it is absent or null; only JSON numbers pass."""
    value = data.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{context}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{context}: {key} must be finite") from None


def _parse_der_entry(data: dict, index: int) -> DerConfigEntry:
    context = f"ders[{index}]"
    if not isinstance(data, dict):
        raise ValueError(f"{context}: expected an object")
    _require_keys(
        data,
        {"name", "kind", "lower_bound", "upper_bound", "peak_multiplier", "charge_ratio", "discharge_ratio"},
        context,
    )
    if "name" not in data or "kind" not in data:
        raise ValueError(f"{context}: name and kind are required")
    kind_raw = str(data["kind"]).strip().lower()
    if kind_raw not in _KIND_BY_NAME:
        raise ValueError(
            f"{context}: unknown kind {data['kind']!r}; expected one of {sorted(_KIND_BY_NAME)}"
        )
    upper, multiplier = _number(data, "upper_bound", context), _number(data, "peak_multiplier", context)
    if upper is not None and multiplier is not None:
        raise ValueError(f"{context}: give upper_bound or peak_multiplier, not both")
    if multiplier is not None and not math.isfinite(multiplier):
        raise ValueError(f"{context} ({data['name']}): peak_multiplier must be finite, got {multiplier}")
    return DerConfigEntry(
        name=str(data["name"]),
        kind=_KIND_BY_NAME[kind_raw],
        lower_bound=_number(data, "lower_bound", context, 0.0),
        upper_bound=upper,
        peak_multiplier=multiplier,
        charge_ratio=_number(data, "charge_ratio", context),
        discharge_ratio=_number(data, "discharge_ratio", context),
    )


def parse_config(text: str, base_dir: str = ".") -> PipelineConfigFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    _require_keys(
        data,
        {"ders", "search", "dispatch", "load_path", "output_path", "capacity_precision"},
        "config",
    )
    ders_raw = data.get("ders")
    if not isinstance(ders_raw, list) or not ders_raw:
        raise ValueError("config: ders must be a non-empty list")
    ders = tuple(_parse_der_entry(entry, i) for i, entry in enumerate(ders_raw))

    search_raw = data.get("search", {})
    if not isinstance(search_raw, dict):
        raise ValueError("config: search must be an object")
    allowed_search = {f.name for f in dataclasses.fields(SearchConfig)}
    _require_keys(search_raw, allowed_search, "config.search")
    try:
        search = SearchConfig(**search_raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config.search: {exc}") from None

    dispatch_raw = data.get("dispatch", {})
    if not isinstance(dispatch_raw, dict):
        raise ValueError("config: dispatch must be an object")
    dispatch_raw = dict(dispatch_raw)
    wind_series_path = dispatch_raw.pop("wind_series_path", None)
    allowed_dispatch = {f.name for f in dataclasses.fields(DispatchConfig)}
    _require_keys(dispatch_raw, allowed_dispatch, "config.dispatch")
    if wind_series_path is not None and "wind_capacity_factor" in dispatch_raw:
        raise ValueError("config.dispatch: give wind_capacity_factor or wind_series_path, not both")

    load_path = data.get("load_path")
    if not load_path:
        raise ValueError("config: load_path is required")
    precision = _number(data, "capacity_precision", "config", DEFAULT_CAPACITY_PRECISION)
    if not math.isfinite(precision):
        raise ValueError(f"config: capacity_precision must be finite, got {precision}")
    if precision < 0:
        raise ValueError(f"config: capacity_precision must be >= 0, got {precision}")

    return PipelineConfigFile(
        ders=ders,
        search=search,
        dispatch_options=dispatch_raw,
        wind_series_path=wind_series_path,
        load_path=str(load_path),
        output_path=None if data.get("output_path") is None else str(data["output_path"]),
        capacity_precision=precision,
        base_dir=base_dir,
    )


def load_config_file(path: str) -> PipelineConfigFile:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def resolve_bounds(config: PipelineConfigFile, load: LoadProfile) -> DesignSpace:
    """Turn config DER entries into a DesignSpace, scaling bounds off peak demand.

    Multiplier-derived upper bounds are rounded up to the capacity precision;
    explicit upper bounds pass through untouched.
    """
    peak = load.peak_kw
    precision = config.capacity_precision
    specs = []
    for entry in config.ders:
        if entry.upper_bound is not None:
            upper = entry.upper_bound
        else:
            multiplier = (
                entry.peak_multiplier
                if entry.peak_multiplier is not None
                else DEFAULT_PEAK_MULTIPLIERS[entry.kind]
            )
            raw = multiplier * peak
            if precision > 0:
                upper = math.ceil(raw / precision - 1e-9) * precision
            else:
                upper = raw
        specs.append(
            DerSpec(
                name=entry.name,
                kind=entry.kind,
                lower_bound=entry.lower_bound,
                upper_bound=upper,
                charge_ratio=entry.charge_ratio,
                discharge_ratio=entry.discharge_ratio,
            )
        )
    return DesignSpace(ders=tuple(specs))


def build_dispatch_config(config: PipelineConfigFile, load: LoadProfile) -> DispatchConfig:
    """Materialize the DispatchConfig, loading a wind series when configured."""
    options = dict(config.dispatch_options)
    if config.wind_series_path is not None:
        path = config.resolve_path(str(config.wind_series_path))
        with open(path, "r", encoding="utf-8") as f:
            times, factors = parse_wind_series(f.read())
        options["wind_capacity_factor"] = align_wind_series(times, factors, load)
    try:
        return DispatchConfig(**options)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config.dispatch: {exc}") from None


def load_inputs(config: PipelineConfigFile) -> tuple[LoadProfile, DesignSpace, DispatchConfig]:
    with open(config.resolve_path(config.load_path), "r", encoding="utf-8") as f:
        load = parse_load_profile(f.read())
    space = resolve_bounds(config, load)
    dispatch = build_dispatch_config(config, load)
    return load, space, dispatch


# ---------------------------------------------------------------------------
# result export

def _slug(name: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "_", name.strip().lower()).strip("_")
    return slug or "der"


def capacity_columns(space: DesignSpace) -> list[str]:
    return [f"{_slug(d.name)}_capacity_{d.kind.capacity_unit}" for d in space.ders]


def unused_columns(space: DesignSpace) -> list[str]:
    return [f"{_slug(d.name)}_unused_ratio" for d in space.ders]


def _format_capacity(value: float) -> str:
    return repr(round(value, 9))


def results_csv_text(
    cap_cols: list[str], unused_cols: list[str], designs: list[EvaluatedDesign]
) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cap_cols + [DEFICIT_COLUMN] + unused_cols)
    for d in sorted(designs, key=lambda e: e.capacities):
        row = [_format_capacity(c) for c in d.capacities]
        row.append(f"{d.deficit_ratio:.4f}")
        row.extend(f"{u:.4f}" for u in d.unused_ratios)
        writer.writerow(row)
    return buf.getvalue()


def report_json_text(report: SearchReport, space: DesignSpace) -> str:
    designs = [
        {
            "capacities": list(d.capacities),
            DEFICIT_COLUMN: d.deficit_ratio,
            "unused_ratios": list(d.unused_ratios),
        }
        for d in sorted(report.final_designs, key=lambda e: e.capacities)
    ]
    payload = {
        "columns": {
            "capacities": capacity_columns(space),
            "unused_ratios": unused_columns(space),
        },
        "designs": designs,
        "per_stage_counts": report.per_stage_counts,
        "all_simulated": report.all_simulated,
        "seed": report.seed,
        "elapsed_seconds": report.elapsed_seconds,
    }
    return json.dumps(payload, indent=2) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write via a temp file and rename, so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dersizer_", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_report(report: SearchReport, path: str, fmt: str, space: DesignSpace) -> None:
    if fmt == "csv":
        text = results_csv_text(capacity_columns(space), unused_columns(space), list(report.final_designs))
    elif fmt == "json":
        text = report_json_text(report, space)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    atomic_write(path, text)
    if not report.final_designs:
        log.warning("no designs passed the deficit threshold; wrote header-only output")


def read_results_csv(text: str) -> tuple[list[str], list[str], list[EvaluatedDesign]]:
    """Parse a results CSV back into evaluated designs (for the filter command)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: empty results file") from None
    header = [h.strip() for h in header]
    if DEFICIT_COLUMN not in header:
        raise ParseError(f"line 1: results file lacks a {DEFICIT_COLUMN} column")
    deficit_at = header.index(DEFICIT_COLUMN)
    cap_cols = header[:deficit_at]
    unused_cols = header[deficit_at + 1 :]
    if not all(re.search(r"_capacity_(kw|kwh)$", c) for c in cap_cols) or not cap_cols:
        raise ParseError("line 1: expected *_capacity_kw/kwh columns before the deficit column")
    if not all(c.endswith("_unused_ratio") for c in unused_cols) or len(unused_cols) != len(cap_cols):
        raise ParseError("line 1: expected one *_unused_ratio column per DER after the deficit column")

    designs = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ParseError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
        try:
            caps = tuple(float(c) for c in row[:deficit_at])
            deficit = float(row[deficit_at])
            unused = tuple(float(c) for c in row[deficit_at + 1 :])
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric value") from None
        if not all(math.isfinite(v) for v in caps + (deficit,) + unused):
            raise ParseError(f"line {line_no}: non-finite value")
        designs.append(
            EvaluatedDesign(design=MicrogridDesign(caps), deficit_ratio=deficit, unused_ratios=unused)
        )
    return cap_cols, unused_cols, designs


# ---------------------------------------------------------------------------
# CLI

def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="pipeline config JSON")
    sub.add_argument("--seed", type=int, default=None, help="override the config rng seed")
    sub.add_argument("--levels", type=int, default=None, help="override the fine level count")
    sub.add_argument(
        "--deficit-threshold", type=float, default=None, help="override the display filter"
    )
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--out", default=None, help="output path (defaults to config output_path)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dersizer", description="Microgrid DER sizing engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_size = sub.add_parser("size", help="run the full three-stage sizing pipeline")
    _add_common_flags(p_size)
    p_size.set_defaults(func=_cmd_size)

    p_ex = sub.add_parser("exhaustive", help="exhaustive grid enumeration at a level count")
    _add_common_flags(p_ex)
    p_ex.set_defaults(func=_cmd_exhaustive)

    p_sim = sub.add_parser("simulate", help="evaluate one design and print its metrics")
    p_sim.add_argument("--config", required=True, help="pipeline config JSON")
    p_sim.add_argument(
        "--capacities", required=True, help="comma-separated capacities, one per DER"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_filter = sub.add_parser("filter", help="non-dominated filter over a results CSV")
    p_filter.add_argument("results", help="results CSV produced by size/exhaustive")
    p_filter.add_argument("--out", required=True, help="filtered output CSV path")
    p_filter.set_defaults(func=_cmd_filter)

    return parser


def _apply_overrides(config: PipelineConfigFile, args: argparse.Namespace) -> PipelineConfigFile:
    search = config.search
    if args.seed is not None:
        search = dataclasses.replace(search, rng_seed=args.seed)
    if args.levels is not None:
        search = dataclasses.replace(search, fine_level_points=args.levels)
    if args.deficit_threshold is not None:
        search = dataclasses.replace(search, deficit_display_threshold=args.deficit_threshold)
    return dataclasses.replace(config, search=search)


def _resolve_output(config: PipelineConfigFile, args: argparse.Namespace) -> str:
    if args.out is not None:
        return args.out
    if config.output_path is not None:
        return config.resolve_path(config.output_path)
    raise ValueError("no output path: set output_path in the config or pass --out")


def _cmd_size(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config_file(args.config), args)
    out_path = _resolve_output(config, args)
    load, space, dispatch = load_inputs(config)
    report = run_pipeline(space, load, dispatch, config.search, config.capacity_precision)
    write_report(report, out_path, args.format, space)
    log.info("wrote %d designs to %s", len(report.final_designs), out_path)
    return 0


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config_file(args.config), args)
    out_path = _resolve_output(config, args)
    load, space, dispatch = load_inputs(config)
    levels = config.search.fine_level_points
    started = time.perf_counter()
    cache = SimulationCache(space, load, dispatch)
    simulated = exhaustive_search(
        cache, space, load, dispatch, levels, config.capacity_precision
    )
    threshold = config.search.deficit_display_threshold
    final = [d for d in non_dominated(simulated) if d.deficit_ratio <= threshold]
    counts = stage_counts(
        cache, {}, len(simulated), grid_size(space, levels, config.capacity_precision)
    )
    report = SearchReport(
        final_designs=tuple(final),
        all_simulated=cache.unique_simulations,
        per_stage_counts={"exhaustive": counts},
        elapsed_seconds=time.perf_counter() - started,
        seed=config.search.rng_seed,
    )
    log.info(
        "exhaustive enumeration at %d levels: %d simulations, %d designs kept, %d pruned, %d dispatch runs",
        levels,
        report.all_simulated,
        len(final),
        counts["pruned"],
        counts["dispatch_runs"],
    )
    write_report(report, out_path, args.format, space)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config_file(args.config)
    load, space, dispatch = load_inputs(config)
    try:
        caps = tuple(float(c) for c in args.capacities.split(","))
    except ValueError:
        raise ValueError(f"--capacities must be comma-separated numbers, got {args.capacities!r}") from None
    if len(caps) != len(space.ders):
        raise ValueError(f"--capacities needs {len(space.ders)} values, got {len(caps)}")
    design = MicrogridDesign(caps)
    evaluated = memoized_operate(SimulationCache(space, load, dispatch), space, design, load, dispatch)
    for name, cap in zip(capacity_columns(space), evaluated.capacities):
        print(f"{name} {_format_capacity(cap)}")
    print(f"{DEFICIT_COLUMN} {evaluated.deficit_ratio:.4f}")
    for name, ratio in zip(unused_columns(space), evaluated.unused_ratios):
        print(f"{name} {ratio:.4f}")
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    with open(args.results, "r", encoding="utf-8") as f:
        cap_cols, unused_cols, designs = read_results_csv(f.read())
    kept = non_dominated(designs)
    atomic_write(args.out, results_csv_text(cap_cols, unused_cols, kept))
    log.info("kept %d of %d designs", len(kept), len(designs))
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

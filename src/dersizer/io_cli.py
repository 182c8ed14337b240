"""Configuration and load-profile ingestion, result export, and the CLI.

Subcommands: size (full pipeline), exhaustive (grid enumeration at a chosen
level count), simulate (evaluate one design), filter (non-dominated filter
over a results CSV). Exit codes: 0 success, 2 config/parse errors, 3 when
an exhaustive enumeration exceeds the safety cap.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import dataclasses
import io
import json
import logging
import math
import os
import re
import stat
import sys
from collections.abc import Callable
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
    record_stage,
    run_pipeline,
    search_report,
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


def _parse_series(
    text: str, column: str, what: str, label: str, complaint: Callable[[float, str], str | None]
) -> tuple[tuple[datetime, ...], tuple[float, ...]]:
    """Parse a `datetime,<column>` CSV into its timestamps and numbers, reporting the first faulty line.

    Blank lines are skipped and timestamps must be strictly increasing. `label` names a value that is
    not a number; `complaint(value, raw)` says what is wrong with a number, or None.
    """
    expected = ["datetime", column]
    header_seen = False
    times: list[datetime] = []
    values: list[float] = []
    for line_no, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if not header_seen:
            if [c.strip().lower() for c in row] != expected:
                raise ParseError(
                    f"line {line_no}: {what} header must be {','.join(expected)!r}, got {','.join(row)!r}"
                )
            header_seen = True
            continue
        if len(row) != len(expected):
            raise ParseError(f"line {line_no}: expected {len(expected)} fields, got {len(row)}")
        raw_time, raw_value = row
        stamp = _parse_timestamp(raw_time, line_no)
        try:
            value = float(raw_value)
        except ValueError:
            raise ParseError(f"line {line_no}: invalid {label} {raw_value!r}") from None
        problem = complaint(value, raw_value)
        if problem is not None:
            raise ParseError(f"line {line_no}: {problem}")
        try:
            increasing = not times or stamp > times[-1]
        except TypeError:
            raise ParseError(f"line {line_no}: {what} mixes timezone-aware and naive timestamps") from None
        if not increasing:
            raise ParseError(f"line {line_no}: {what} timestamps must be strictly increasing")
        times.append(stamp)
        values.append(value)
    if not header_seen:
        raise ParseError(f"line 1: empty {what} file")
    return tuple(times), tuple(values)


def _load_complaint(kw: float, raw: str) -> str | None:
    if not math.isfinite(kw):
        return f"load must be finite, got {raw!r}"
    return f"negative load {kw}" if kw < 0 else None


def parse_load_profile(text: str) -> LoadProfile:
    """Parse a `datetime,load_kw` CSV into a LoadProfile.

    Interval durations are the gaps between consecutive timestamps; the
    final interval inherits the preceding duration, so at least two rows
    are required.
    """
    times, demand = _parse_series(text, "load_kw", "load profile", "load value", _load_complaint)
    if len(times) < 2:
        raise ParseError("load profile needs at least 2 data rows")
    durations = [(later - earlier).total_seconds() for earlier, later in zip(times, times[1:])]
    durations.append(durations[-1])
    return LoadProfile(times=times, durations_s=tuple(durations), demand_kw=demand)


def _factor_complaint(factor: float, raw: str) -> str | None:
    return None if 0.0 <= factor <= 1.0 else f"capacity factor {factor} outside [0, 1]"


def parse_wind_series(text: str) -> tuple[tuple[datetime, ...], tuple[float, ...]]:
    """Parse a `datetime,capacity_factor` CSV; factors must lie in [0, 1]."""
    times, factors = _parse_series(text, "capacity_factor", "wind series", "capacity factor", _factor_complaint)
    if not times:
        raise ParseError("wind series has no data rows")
    return times, factors


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
    dispatch: DispatchConfig
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
    return default if value is None else _float(value, key, context)


def _float(value: object, key: str, context: str) -> float:
    """A JSON number as a float; anything else is an error that names `key`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{context}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{context}: {key} must be finite") from None


def _text(data: dict, key: str, context: str, required: bool = False) -> str | None:
    """`data[key]` as a non-empty string, or None when it is absent or null and not `required`."""
    value = data.get(key)
    if value is None and not required:
        return None
    if not isinstance(value, str) or not value:
        raise ValueError(f"{context}: {key} must be a non-empty string, got {value!r}")
    return value


def _parse_der_entry(data: dict, index: int) -> DerConfigEntry:
    context = f"ders[{index}]"
    if not isinstance(data, dict):
        raise ValueError(f"{context}: expected an object")
    _require_keys(
        data,
        {"name", "kind", "lower_bound", "upper_bound", "peak_multiplier", "charge_ratio", "discharge_ratio"},
        context,
    )
    name = _text(data, "name", context, required=True)
    kind_raw = _text(data, "kind", context, required=True)
    kind = _KIND_BY_NAME.get(kind_raw.strip().lower())
    if kind is None:
        raise ValueError(f"{context}: unknown kind {kind_raw!r}; expected one of {sorted(_KIND_BY_NAME)}")
    upper, multiplier = _number(data, "upper_bound", context), _number(data, "peak_multiplier", context)
    if upper is not None and multiplier is not None:
        raise ValueError(f"{context}: give upper_bound or peak_multiplier, not both")
    if multiplier is not None and not math.isfinite(multiplier):
        raise ValueError(f"{context} ({name}): peak_multiplier must be finite, got {multiplier}")
    return DerConfigEntry(
        name=name,
        kind=kind,
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
    names_by_slug: dict[str, str] = {}
    for der in ders:
        other = names_by_slug.setdefault(_slug(der.name), der.name)
        if other != der.name:
            column = f"{_slug(der.name)}_unused_ratio"
            raise ValueError(f"config: DERs {other!r} and {der.name!r} share the CSV column {column}")

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
    dispatch_fields = dataclasses.fields(DispatchConfig)
    _require_keys(dispatch_raw, {f.name for f in dispatch_fields} | {"wind_series_path"}, "config.dispatch")
    wind_series_path = _text(dispatch_raw, "wind_series_path", "config.dispatch")
    if wind_series_path is not None and dispatch_raw.get("wind_capacity_factor") is not None:
        raise ValueError("config.dispatch: give wind_capacity_factor or wind_series_path, not both")
    options = {}
    for f in dispatch_fields:
        value = dispatch_raw.get(f.name)
        if f.name == "wind_capacity_factor" and isinstance(value, list):  # a per-step series
            options[f.name] = tuple(_float(v, f.name, "config.dispatch") for v in value)
        else:
            options[f.name] = _number(dispatch_raw, f.name, "config.dispatch", f.default)
    try:
        dispatch = DispatchConfig(**options)
    except ValueError as exc:
        raise ValueError(f"config.dispatch: {exc}") from None

    precision = _number(data, "capacity_precision", "config", DEFAULT_CAPACITY_PRECISION)
    if not math.isfinite(precision):
        raise ValueError(f"config: capacity_precision must be finite, got {precision}")
    if precision < 0:
        raise ValueError(f"config: capacity_precision must be >= 0, got {precision}")

    return PipelineConfigFile(
        ders=ders,
        search=search,
        dispatch=dispatch,
        wind_series_path=wind_series_path,
        load_path=_text(data, "load_path", "config", required=True),
        output_path=_text(data, "output_path", "config"),
        capacity_precision=precision,
        base_dir=base_dir,
    )


def _read_text(path: str) -> str:
    """An input file's text; `utf-8-sig` drops the BOM that spreadsheet tools write in UTF-8 CSV."""
    with open(path, "r", encoding="utf-8-sig") as f:
        return f.read()


def load_config_file(path: str) -> PipelineConfigFile:
    return parse_config(_read_text(path), base_dir=os.path.dirname(os.path.abspath(path)))


def resolve_bounds(config: PipelineConfigFile, load: LoadProfile) -> DesignSpace:
    """Turn config DER entries into a DesignSpace, scaling bounds off peak demand.

    Multiplier-derived upper bounds are rounded up to the capacity precision,
    unless their quotient by it overflows, and must be finite; explicit upper
    bounds pass through untouched.
    """
    peak = load.peak_kw
    precision = config.capacity_precision
    specs = []
    for entry in config.ders:
        upper = entry.upper_bound
        if upper is None:
            multiplier = entry.peak_multiplier
            if multiplier is None:
                multiplier = DEFAULT_PEAK_MULTIPLIERS[entry.kind]
            upper = multiplier * peak
            if not math.isfinite(upper):
                raise ValueError(f"{entry.name}: peak_multiplier {multiplier} times peak {peak} kW is not finite")
            if precision > 0 and math.isfinite(upper / precision):
                upper = math.ceil(upper / precision - 1e-9) * precision
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
    """The config's DispatchConfig, with its wind series sampled at the load timestamps if it has one."""
    if config.wind_series_path is None:
        return config.dispatch
    times, factors = parse_wind_series(_read_text(config.resolve_path(config.wind_series_path)))
    return dataclasses.replace(config.dispatch, wind_capacity_factor=align_wind_series(times, factors, load))


def load_inputs(config: PipelineConfigFile) -> tuple[LoadProfile, DesignSpace, DispatchConfig]:
    load = parse_load_profile(_read_text(config.resolve_path(config.load_path)))
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
    }
    return json.dumps(payload, indent=2) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write via a temp file and rename, so readers never see partial output.

    The file gets the mode `open(path, "w")` would give it: the temp file is
    created with 0o666 less the umask, and takes an existing file's mode.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".dersizer_{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
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
        log.warning("no designs passed the deficit threshold; wrote an output with no designs")


def read_results_csv(text: str) -> tuple[list[str], list[str], list[EvaluatedDesign]]:
    """Parse a results CSV back into evaluated designs (for the filter command)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: empty results file") from None
    header = [h.strip() for h in header]
    repeated = [h for k, h in enumerate(header) if h in header[:k]]
    if repeated:
        raise ParseError(f"line 1: column {repeated[0]!r} appears more than once")
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
        try:  # + 0.0 folds a -0.0 ratio, which no results file holds (MicrogridDesign folds capacities)
            caps = tuple(float(c) for c in row[:deficit_at])
            deficit = float(row[deficit_at]) + 0.0
            unused = tuple(float(c) + 0.0 for c in row[deficit_at + 1 :])
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric value") from None
        if not all(math.isfinite(v) for v in caps + (deficit,) + unused):
            raise ParseError(f"line {line_no}: non-finite value")
        if min(caps) < 0:
            raise ParseError(f"line {line_no}: negative capacity {min(caps)}")
        if not 0 <= deficit <= 1:
            raise ParseError(f"line {line_no}: deficit ratio {deficit} outside [0, 1]")
        for u in unused:
            if not (u == -1 or 0 <= u <= 1):
                raise ParseError(f"line {line_no}: unused ratio {u} neither -1 nor in [0, 1]")
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


def _apply_overrides(
    config: PipelineConfigFile, args: argparse.Namespace, levels: int | None
) -> PipelineConfigFile:
    """The config with --seed, --deficit-threshold and `levels` (each unless None) in its search settings."""
    flags = {
        "rng_seed": args.seed,
        "fine_level_points": levels,
        "deficit_display_threshold": args.deficit_threshold,
    }
    overrides = {field: value for field, value in flags.items() if value is not None}
    return dataclasses.replace(config, search=dataclasses.replace(config.search, **overrides))


def _resolve_output(config: PipelineConfigFile, args: argparse.Namespace) -> str:
    if args.out is not None:
        return args.out
    if config.output_path is not None:
        return config.resolve_path(config.output_path)
    raise ValueError("no output path: set output_path in the config or pass --out")


def _cmd_size(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config_file(args.config), args, args.levels)
    out_path = _resolve_output(config, args)
    load, space, dispatch = load_inputs(config)
    report = run_pipeline(space, load, dispatch, config.search, config.capacity_precision)
    write_report(report, out_path, args.format, space)
    log.info("wrote %d designs to %s", len(report.final_designs), out_path)
    return 0


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    # the level count skips SearchConfig's fine >= coarse check: exhaustive has no coarse stage
    config = _apply_overrides(load_config_file(args.config), args, None)
    levels = config.search.fine_level_points if args.levels is None else args.levels
    out_path = _resolve_output(config, args)
    load, space, dispatch = load_inputs(config)
    precision = config.capacity_precision
    cache = SimulationCache(space, load, dispatch)
    simulated = exhaustive_search(cache, space, load, dispatch, levels, precision)
    counts: dict[str, dict[str, int]] = {}
    record_stage(cache, counts, "exhaustive", len(simulated), levels ** len(space.ders))
    report = search_report(cache, counts, simulated, config.search)
    log.info(
        "exhaustive enumeration at %d levels: %d simulations, %d designs kept",
        levels,
        report.all_simulated,
        len(report.final_designs),
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
    evaluated = memoized_operate(SimulationCache(space, load, dispatch), design=design)
    for name, cap in zip(capacity_columns(space), evaluated.capacities):
        print(f"{name} {_format_capacity(cap)}")
    print(f"{DEFICIT_COLUMN} {evaluated.deficit_ratio:.4f}")
    for name, ratio in zip(unused_columns(space), evaluated.unused_ratios):
        print(f"{name} {ratio:.4f}")
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    cap_cols, unused_cols, designs = read_results_csv(_read_text(args.results))
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

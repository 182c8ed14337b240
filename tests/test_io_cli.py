"""Ingestion, export and CLI behavior, exercised through the public surfaces."""

import dataclasses
import json
import os
import re
import stat

import pytest

from dersizer import synthetic
from dersizer.core import EvaluatedDesign, MicrogridDesign, non_dominated
from dersizer.io_cli import (
    DEFICIT_COLUMN,
    ParseError,
    align_wind_series,
    atomic_write,
    build_dispatch_config,
    capacity_columns,
    load_config_file,
    load_inputs,
    main,
    parse_config,
    parse_load_profile,
    parse_wind_series,
    read_results_csv,
    resolve_bounds,
    results_csv_text,
    unused_columns,
    write_report,
)
from dersizer.search import SearchReport, exhaustive_search
from dersizer.simulator import DispatchConfig, SimulationCache
from dersizer.synthetic import load_profile_csv, two_week_profile
from helpers import desk_config_document, dominates


def make_load_csv(rows):
    return "datetime,load_kw\n" + "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# load profile parsing

def test_parse_two_week_profile_round_trip():
    profile = two_week_profile()
    parsed = parse_load_profile(load_profile_csv(profile))
    assert len(parsed) == 5040
    assert set(parsed.durations_s) == {240.0}
    assert parsed.demand_kw == profile.demand_kw
    assert parsed.times == profile.times


def test_parse_last_interval_inherits_duration():
    text = make_load_csv(["2024-01-01T00:00:00,10", "2024-01-01T01:00:00,12"])
    profile = parse_load_profile(text)
    assert profile.durations_s == (3600.0, 3600.0)


def test_parse_rejects_out_of_order_rows():
    text = make_load_csv(["2024-01-01T01:00:00,10", "2024-01-01T00:00:00,12"])
    with pytest.raises(ParseError, match="line 3"):
        parse_load_profile(text)


def test_parse_rejects_negative_load():
    text = make_load_csv(["2024-01-01T00:00:00,10", "2024-01-01T01:00:00,-1"])
    with pytest.raises(ParseError, match="line 3"):
        parse_load_profile(text)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
def test_parse_rejects_non_finite_load(bad):
    text = make_load_csv(["2024-01-01T00:00:00,10", f"2024-01-01T01:00:00,{bad}"])
    with pytest.raises(ParseError, match="line 3: load must be finite"):
        parse_load_profile(text)


def test_parse_rejects_bad_header():
    text = "time,kw\n2024-01-01T00:00:00,10\n"
    with pytest.raises(ParseError, match="header"):
        parse_load_profile(text)


def test_parse_rejects_malformed_timestamp():
    text = make_load_csv(["2024-01-01T00:00:00,10", "yesterday,12"])
    with pytest.raises(ParseError, match="line 3"):
        parse_load_profile(text)


def test_parse_needs_two_rows():
    text = make_load_csv(["2024-01-01T00:00:00,10"])
    with pytest.raises(ParseError, match="2 data rows"):
        parse_load_profile(text)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (
            parse_load_profile,
            make_load_csv(["2024-01-01T00:00:00,10,5", "2024-01-01T01:00:00,12"]),
            "line 2: expected 2 fields, got 3",
        ),
        (parse_load_profile, "", "line 1: empty load profile file"),
        (
            # a blank line is skipped but still counted
            parse_load_profile,
            make_load_csv(["2024-01-01T00:00:00,10", "", "2024-01-01T01:00:00,-1"]),
            "line 4: negative load -1.0",
        ),
        (parse_wind_series, "datetime,capacity_factor\n", "wind series has no data rows"),
    ],
)
def test_parse_rejects_malformed_series(parse, text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse(text)


def test_parse_accepts_zulu_timestamps():
    text = make_load_csv(["2024-01-01T00:00:00Z,10", "2024-01-01T00:30:00Z,11"])
    profile = parse_load_profile(text)
    assert profile.durations_s == (1800.0, 1800.0)


def test_parse_rejects_mixed_timezones():
    text = make_load_csv(["2024-01-01T00:00:00Z,10", "2024-01-01T00:30:00,11"])
    with pytest.raises(ParseError, match="timezone"):
        parse_load_profile(text)


def test_parse_reports_the_first_faulty_line():
    text = make_load_csv(["2024-01-01T01:00:00,1", "2024-01-01T00:00:00,1", "2024-01-01T02:00:00,-5"])
    with pytest.raises(ParseError, match="line 3: load profile timestamps must be strictly increasing"):
        parse_load_profile(text)
    text = make_load_csv(["2024-01-01T00:00:00,x", "2024-01-01T01:00:00,1,2"])
    with pytest.raises(ParseError, match="line 2: invalid load value 'x'"):
        parse_load_profile(text)


# ---------------------------------------------------------------------------
# wind series

def test_wind_series_alignment_holds_previous_value():
    load = parse_load_profile(
        make_load_csv(
            [
                "2024-01-01T00:00:00,10",
                "2024-01-01T00:30:00,10",
                "2024-01-01T01:00:00,10",
            ]
        )
    )
    times, factors = parse_wind_series(
        "datetime,capacity_factor\n2024-01-01T00:00:00,0.2\n2024-01-01T01:00:00,0.6\n"
    )
    aligned = align_wind_series(times, factors, load)
    assert aligned == (0.2, 0.2, 0.6)


def test_wind_series_must_cover_horizon():
    load = parse_load_profile(
        make_load_csv(["2024-01-01T00:00:00,10", "2024-01-01T02:00:00,10"])
    )
    times, factors = parse_wind_series(
        "datetime,capacity_factor\n2024-01-01T00:00:00,0.2\n2024-01-01T01:00:00,0.6\n"
    )
    with pytest.raises(ValueError, match="cover"):
        align_wind_series(times, factors, load)


def test_wind_series_and_load_must_agree_on_timezones():
    load = parse_load_profile(make_load_csv(["2024-01-01T00:00:00,10", "2024-01-01T01:00:00,10"]))
    times, factors = parse_wind_series(
        "datetime,capacity_factor\n2024-01-01T00:00:00Z,0.2\n2024-01-01T01:00:00Z,0.6\n"
    )
    with pytest.raises(ValueError, match="disagree on timezone-aware timestamps"):
        align_wind_series(times, factors, load)


def test_wind_series_rejects_out_of_range_factor():
    with pytest.raises(ParseError, match="outside"):
        parse_wind_series("datetime,capacity_factor\n2024-01-01T00:00:00,1.4\n")


# ---------------------------------------------------------------------------
# config and bounds

def base_config_dict():
    return {
        "ders": [
            {"name": "diesel", "kind": "diesel_generator"},
            {"name": "solar", "kind": "photovoltaic"},
            {
                "name": "battery",
                "kind": "battery_storage",
                "charge_ratio": 2.0,
                "discharge_ratio": 2.0,
            },
        ],
        "search": {"rng_seed": 1},
        "dispatch": {},
        "load_path": "load.csv",
    }


def steady_load(peak):
    return parse_load_profile(
        make_load_csv([f"2024-01-01T00:00:00,{peak}", f"2024-01-01T01:00:00,{peak}"])
    )


def test_resolve_bounds_default_multipliers():
    config = parse_config(json.dumps(base_config_dict()))
    space = resolve_bounds(config, steady_load(120.0))
    assert [d.upper_bound for d in space.ders] == [120.0, 360.0, 600.0]
    assert [d.lower_bound for d in space.ders] == [0.0, 0.0, 0.0]


def test_resolve_bounds_rounds_up_to_precision():
    config = parse_config(json.dumps(base_config_dict()))
    space = resolve_bounds(config, steady_load(87.7))
    assert [d.upper_bound for d in space.ders] == [90.0, 265.0, 440.0]


def test_resolve_bounds_rejects_a_derived_bound_that_is_not_finite():
    config = parse_config(json.dumps(base_config_dict()))
    with pytest.raises(ValueError, match=r"solar: peak_multiplier 3\.0 times peak 1e\+308 kW is not finite"):
        resolve_bounds(config, steady_load(1e308))


def test_resolve_bounds_leaves_a_bound_unrounded_when_its_quotient_overflows():
    doc = base_config_dict()
    doc["capacity_precision"] = 1e-310
    space = resolve_bounds(parse_config(json.dumps(doc)), steady_load(87.7))
    assert [d.upper_bound for d in space.ders] == [87.7, 3 * 87.7, 5 * 87.7]


def test_resolve_bounds_explicit_upper_passthrough():
    doc = base_config_dict()
    doc["ders"][1]["upper_bound"] = 250.0
    config = parse_config(json.dumps(doc))
    space = resolve_bounds(config, steady_load(120.0))
    assert space.ders[1].upper_bound == 250.0


def test_resolve_bounds_monotone_in_peak():
    config = parse_config(json.dumps(base_config_dict()))
    small = resolve_bounds(config, steady_load(87.7))
    big = resolve_bounds(config, steady_load(87.7 * 1.5))
    for a, b in zip(small.ders, big.ders):
        assert b.upper_bound >= a.upper_bound


def test_config_rejects_unknown_keys():
    doc = base_config_dict()
    doc["surprise"] = 1
    with pytest.raises(ValueError, match="surprise"):
        parse_config(json.dumps(doc))
    doc = base_config_dict()
    doc["ders"][0]["color"] = "red"
    with pytest.raises(ValueError, match="color"):
        parse_config(json.dumps(doc))


def test_config_rejects_der_names_that_share_a_column_slug():
    doc = base_config_dict()
    doc["ders"][0]["name"] = "Solar A"
    doc["ders"][1]["name"] = "solar_a"
    with pytest.raises(ValueError) as err:
        parse_config(json.dumps(doc))
    assert str(err.value) == "config: DERs 'Solar A' and 'solar_a' share the CSV column solar_a_unused_ratio"


def test_config_rejects_bound_and_multiplier_together():
    doc = base_config_dict()
    doc["ders"][0]["upper_bound"] = 100.0
    doc["ders"][0]["peak_multiplier"] = 2.0
    with pytest.raises(ValueError, match="not both"):
        parse_config(json.dumps(doc))


def test_config_rejects_unknown_kind():
    doc = base_config_dict()
    doc["ders"][0]["kind"] = "fusion"
    with pytest.raises(ValueError, match="fusion"):
        parse_config(json.dumps(doc))


def test_config_requires_load_path():
    doc = base_config_dict()
    del doc["load_path"]
    with pytest.raises(ValueError, match="load_path"):
        parse_config(json.dumps(doc))


def test_config_rejects_non_finite_numbers():
    doc = base_config_dict()
    doc["ders"][1]["peak_multiplier"] = float("inf")
    with pytest.raises(ValueError, match=r"ders\[1\] \(solar\): peak_multiplier must be finite"):
        parse_config(json.dumps(doc))
    doc = base_config_dict()
    doc["capacity_precision"] = float("nan")
    with pytest.raises(ValueError, match="capacity_precision must be finite"):
        parse_config(json.dumps(doc))
    doc = base_config_dict()
    doc["ders"][0]["upper_bound"] = float("nan")
    config = parse_config(json.dumps(doc))
    with pytest.raises(ValueError, match="diesel: upper_bound must be finite"):
        resolve_bounds(config, steady_load(120.0))


def test_config_wind_series_wired_into_dispatch(tmp_path):
    doc = base_config_dict()
    doc["ders"].append({"name": "wind", "kind": "wind_turbine"})
    doc["dispatch"] = {"wind_series_path": "wind.csv"}
    (tmp_path / "wind.csv").write_text(
        "datetime,capacity_factor\n2024-01-01T00:00:00,0.25\n2024-01-01T01:00:00,0.5\n",
        encoding="utf-8",
    )
    config = parse_config(json.dumps(doc), base_dir=str(tmp_path))
    dispatch = build_dispatch_config(config, steady_load(100.0))
    assert dispatch.wind_capacity_factor == (0.25, 0.5)


def test_config_dispatch_numbers_and_nulls():
    doc = base_config_dict()
    doc["dispatch"] = {"wind_capacity_factor": [0.1, 0.2], "pv_peak_factor": None, "bess_min_soc": 0}
    dispatch = parse_config(json.dumps(doc)).dispatch
    assert dispatch.wind_capacity_factor == (0.1, 0.2)
    assert dispatch.pv_peak_factor == DispatchConfig().pv_peak_factor
    assert dispatch == DispatchConfig(wind_capacity_factor=(0.1, 0.2), bess_min_soc=0.0)
    doc["dispatch"] = {"wind_capacity_factor": [0.1, True]}
    with pytest.raises(ValueError, match="config.dispatch: wind_capacity_factor must be a number, got True"):
        parse_config(json.dumps(doc))


def test_config_rejects_both_wind_options():
    doc = base_config_dict()
    doc["dispatch"] = {"wind_series_path": "wind.csv", "wind_capacity_factor": 0.5}
    with pytest.raises(ValueError, match="not both"):
        parse_config(json.dumps(doc))


# ---------------------------------------------------------------------------
# result export

def sample_rows():
    return [
        EvaluatedDesign(MicrogridDesign((60.0, 0.0)), 0.0, (0.25, -1.0)),
        EvaluatedDesign(MicrogridDesign((40.0, 90.0)), 0.0025, (0.5, 0.125)),
    ]


def test_results_csv_zero_capacity_prints_sentinel():
    text = results_csv_text(["diesel_capacity_kw", "solar_capacity_kw"], ["diesel_unused_ratio", "solar_unused_ratio"], sample_rows())
    lines = text.strip().splitlines()
    assert lines[0] == "diesel_capacity_kw,solar_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio,solar_unused_ratio"
    # rows come out sorted ascending by capacities
    assert lines[1].startswith("40.0,90.0,0.0025")
    assert lines[2] == "60.0,0.0,0.0000,0.2500,-1.0000"


def test_results_csv_round_trip_lossless():
    cap_cols = ["diesel_capacity_kw", "solar_capacity_kw"]
    unused_cols = ["diesel_unused_ratio", "solar_unused_ratio"]
    text = results_csv_text(cap_cols, unused_cols, sample_rows())
    cols, ucols, designs = read_results_csv(text)
    assert cols == cap_cols and ucols == unused_cols
    again = results_csv_text(cols, ucols, designs)
    assert again == text


def test_read_results_rejects_non_finite_values():
    text = (
        "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio\n"
        "60.0,0.0000,0.1000\n"
        "80.0,nan,0.2000\n"
    )
    with pytest.raises(ParseError, match="line 3: non-finite value"):
        read_results_csv(text)


def test_read_results_rejects_foreign_header():
    with pytest.raises(ParseError):
        read_results_csv("a,b,c\n1,2,3\n")


def test_cli_filter_rejects_a_repeated_column(desk_cli_dir, capsys):
    raw = desk_cli_dir / "raw.csv"
    raw.write_text(
        "solar_a_capacity_kw,solar_a_capacity_kw,sizing_grid_deficit_ratio,"
        "solar_a_unused_ratio,solar_a_unused_ratio\n"
        "60.0,10.0,0.0000,0.1000,0.2000\n",
        encoding="utf-8",
    )
    out = desk_cli_dir / "filtered.csv"
    assert main(["filter", str(raw), "--out", str(out)]) == 2
    assert "line 1: column 'solar_a_capacity_kw' appears more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: empty results file"),
        (
            "sizing_grid_deficit_ratio,diesel_unused_ratio\n0.0000,0.1000\n",
            "line 1: expected *_capacity_kw/kwh columns before the deficit column",
        ),
        (
            "diesel_capacity_kw,sizing_grid_deficit_ratio\n60.0,0.0000\n",
            "line 1: expected one *_unused_ratio column per DER after the deficit column",
        ),
        (
            "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio\n60.0,0.0000\n",
            "line 2: expected 3 fields, got 2",
        ),
        (
            "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio\n60.0,low,0.1000\n",
            "line 2: non-numeric value",
        ),
        (
            "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio\n60.0,0.0,0.1\n-5.0,0.0,0.1\n",
            "line 3: negative capacity -5.0",
        ),
        (
            # blank rows are skipped but still counted
            "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio\n60.0,0.0,0.1\n\n , , \n-5.0,0.0,0.1\n",
            "line 5: negative capacity -5.0",
        ),
        (
            "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio\n50,-0.5,0.7\n",
            "line 2: deficit ratio -0.5 outside [0, 1]",
        ),
        (
            "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio\n50,1.5,0.7\n",
            "line 2: deficit ratio 1.5 outside [0, 1]",
        ),
        (
            "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio\n50,0.0,7\n",
            "line 2: unused ratio 7.0 neither -1 nor in [0, 1]",
        ),
        (
            "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio\n50,0.0,-0.5\n",
            "line 2: unused ratio -0.5 neither -1 nor in [0, 1]",
        ),
    ],
)
def test_cli_filter_rejects_malformed_results(tmp_path, capsys, text, message):
    raw = tmp_path / "raw.csv"
    raw.write_text(text, encoding="utf-8")
    out = tmp_path / "filtered.csv"
    assert main(["filter", str(raw), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_empty_results_write_header_only():
    text = results_csv_text(["x_capacity_kw"], ["x_unused_ratio"], [])
    assert text == "x_capacity_kw,sizing_grid_deficit_ratio,x_unused_ratio\n"


def test_write_report_warns_on_an_empty_report_and_refuses_an_unknown_format(desk_space, tmp_path, caplog):
    report = SearchReport(final_designs=(), all_simulated=0, per_stage_counts={}, seed=0)
    header = ",".join([*capacity_columns(desk_space), DEFICIT_COLUMN, *unused_columns(desk_space)]) + "\n"
    for fmt in ("csv", "json"):
        path = tmp_path / f"empty.{fmt}"
        caplog.clear()
        write_report(report, str(path), fmt, desk_space)
        if fmt == "csv":
            assert path.read_text() == header
        else:
            assert json.loads(path.read_text())["designs"] == []
        assert [r.getMessage() for r in caplog.records] == [
            "no designs passed the deficit threshold; wrote an output with no designs"
        ]
    with pytest.raises(ValueError, match="^unknown output format 'xml'$"):
        write_report(report, str(tmp_path / "empty.xml"), "xml", desk_space)
    assert not (tmp_path / "empty.xml").exists()


def test_column_names_follow_der_names(desk_space):
    assert capacity_columns(desk_space) == [
        "diesel_capacity_kw",
        "solar_capacity_kw",
        "battery_capacity_kwh",
    ]
    assert unused_columns(desk_space) == [
        "diesel_unused_ratio",
        "solar_unused_ratio",
        "battery_unused_ratio",
    ]


def test_atomic_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "out.csv"
    atomic_write(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".part")]


def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.csv"
    with open(plain, "w", encoding="utf-8") as f:
        f.write("hello\n")
    target = tmp_path / "out.csv"
    atomic_write(str(target), "hello\n")  # a new file: 0o666 less the umask
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    for mode in (0o640, 0o604):  # an existing file keeps its mode
        target.chmod(mode)
        atomic_write(str(target), f"{mode:o}\n")
        assert (stat.S_IMODE(target.stat().st_mode), target.read_text()) == (mode, f"{mode:o}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "plain.csv"]


# ---------------------------------------------------------------------------
# CLI

def run_cli(*argv):
    return main(list(argv))


def test_cli_size_runs_are_byte_identical(desk_cli_dir):
    config = str(desk_cli_dir / "config.json")
    out_a = desk_cli_dir / "a.csv"
    out_b = desk_cli_dir / "b.csv"
    assert run_cli("size", "--config", config, "--seed", "42", "--out", str(out_a)) == 0
    assert run_cli("size", "--config", config, "--seed", "42", "--out", str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header.split(",")[3] == "sizing_grid_deficit_ratio"


def test_cli_size_in_process_runs_share_no_memo_state(desk_cli_dir):
    # a search in between, on another seed, leaves nothing the next one can see
    config = str(desk_cli_dir / "config.json")
    outs = [desk_cli_dir / f"run_{k}.json" for k in range(3)]
    for out, seed in zip(outs, ("42", "43", "42")):
        argv = ("size", "--config", config, "--seed", seed, "--format", "json", "--out", str(out))
        assert run_cli(*argv) == 0
    first, _, again = (json.loads(out.read_text()) for out in outs)
    assert first == again
    csv_a, csv_b = desk_cli_dir / "a.csv", desk_cli_dir / "b.csv"
    assert run_cli("size", "--config", config, "--out", str(csv_a)) == 0
    assert run_cli("size", "--config", config, "--seed", "43", "--out", str(csv_b)) == 0
    assert run_cli("size", "--config", config, "--out", str(csv_b)) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_cli_size_json_report(desk_cli_dir):
    config = str(desk_cli_dir / "config.json")
    out = desk_cli_dir / "report.json"
    assert run_cli("size", "--config", config, "--format", "json", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["designs"]
    assert payload["seed"] == 42
    assert set(payload["per_stage_counts"]) == {"exhaustive", "binary_search", "local_search"}
    # the 6-level coarse grid has 6**3 candidates; each is either simulated or pruned
    coarse = payload["per_stage_counts"]["exhaustive"]
    assert coarse["designs"] == coarse["simulations"]
    assert coarse["pruned"] == 6**3 - coarse["designs"] > 0
    for counts in payload["per_stage_counts"].values():
        assert counts["dispatch_runs"] <= counts["simulations"]
    assert 0 < coarse["dispatch_runs"] < coarse["simulations"]
    oracle = desk_cli_dir / "oracle.json"
    argv = ("exhaustive", "--config", config, "--levels", "6", "--format", "json")
    assert run_cli(*argv, "--out", str(oracle)) == 0
    assert json.loads(oracle.read_text())["per_stage_counts"] == {"exhaustive": coarse}
    # JSON rows reconstruct exactly
    for row in payload["designs"]:
        assert len(row["capacities"]) == 3
        assert len(row["unused_ratios"]) == 3


def test_cli_simulate_prints_metrics(desk_cli_dir, capsys):
    config = str(desk_cli_dir / "config.json")
    assert run_cli("simulate", "--config", config, "--capacities", "5,0,0") == 0
    out = capsys.readouterr().out
    assert "sizing_grid_deficit_ratio 1.0000" in out
    assert "solar_unused_ratio -1.0000" in out
    # nothing installed: every step of the positive load is short
    assert run_cli("simulate", "--config", config, "--capacities", "0,0,0") == 0
    lines = capsys.readouterr().out.splitlines()
    assert "sizing_grid_deficit_ratio 1.0000" in lines
    for name in ("diesel", "solar", "battery"):
        assert f"{name}_unused_ratio -1.0000" in lines


def test_cli_simulate_never_prints_negative_zero(desk_cli_dir, capsys):
    config = str(desk_cli_dir / "config.json")
    assert run_cli("simulate", "--config", config, "--capacities=0,0,0") == 0
    zeros = capsys.readouterr().out
    assert run_cli("simulate", "--config", config, "--capacities=-0.0,0,-0.0") == 0
    out = capsys.readouterr().out
    assert out == zeros and "-0.0" not in out
    assert "diesel_capacity_kw 0.0" in out.splitlines()


def test_cli_simulate_rejects_wrong_arity(desk_cli_dir):
    config = str(desk_cli_dir / "config.json")
    assert run_cli("simulate", "--config", config, "--capacities", "5,0") == 2


def test_cli_simulate_rejects_non_numeric_capacities(desk_cli_dir, capsys):
    config = str(desk_cli_dir / "config.json")
    assert run_cli("simulate", "--config", config, "--capacities", "a,b,c") == 2
    assert "--capacities must be comma-separated numbers, got 'a,b,c'" in capsys.readouterr().err


def test_cli_filter_removes_dominated_rows(desk_cli_dir):
    raw = desk_cli_dir / "raw.csv"
    raw.write_text(
        "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio\n"
        "60.0,0.0000,0.1000\n"
        "80.0,0.0000,0.2000\n"
        "40.0,0.2000,0.3000\n",
        encoding="utf-8",
    )
    out = desk_cli_dir / "filtered.csv"
    assert run_cli("filter", str(raw), "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 40 (cheaper, worse) + 60 (dominates 80)
    assert lines[1].startswith("40.0")
    assert lines[2].startswith("60.0")


def test_cli_filter_keeps_the_least_deficit_of_a_repeated_design(desk_cli_dir):
    raw = desk_cli_dir / "raw.csv"
    raw.write_text(
        "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio\n"
        "50,0.5,0.1\n"
        "50,0.0,0.1\n"
        "60,0.2,0.1\n",
        encoding="utf-8",
    )
    out = desk_cli_dir / "filtered.csv"
    assert run_cli("filter", str(raw), "--out", str(out)) == 0
    # the zero-deficit 50 dominates its own 0.5 repeat and the 60
    assert out.read_text().splitlines() == [
        "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio",
        "50.0,0.0000,0.1000",
    ]


def test_cli_filter_folds_negative_zero(desk_cli_dir):
    raw = desk_cli_dir / "raw.csv"
    raw.write_text(
        "diesel_capacity_kw,sizing_grid_deficit_ratio,diesel_unused_ratio\n-0.0,-0.0,-0.0\n", encoding="utf-8"
    )
    out = desk_cli_dir / "filtered.csv"
    assert run_cli("filter", str(raw), "--out", str(out)) == 0
    assert out.read_text().splitlines()[1] == "0.0,0.0000,0.0000"


def test_cli_exhaustive_coarse_dominated_by_pipeline(desk_cli_dir):
    # an 11-level pipeline must match-or-dominate every zero-deficit design
    # the 6-level enumeration keeps
    config = str(desk_cli_dir / "config.json")
    coarse_out = desk_cli_dir / "coarse.csv"
    fine_out = desk_cli_dir / "fine.csv"
    assert run_cli("exhaustive", "--config", config, "--levels", "6", "--out", str(coarse_out)) == 0
    assert run_cli("size", "--config", config, "--levels", "11", "--out", str(fine_out)) == 0
    _, _, coarse = read_results_csv(coarse_out.read_text())
    _, _, fine = read_results_csv(fine_out.read_text())
    for c in coarse:
        if c.deficit_ratio != 0.0:
            continue
        assert any(
            f.capacities == c.capacities or dominates(f, c) for f in fine
        ), f"coarse design {c.capacities} not covered"


def test_cli_out_naming_a_directory_exits_2_and_leaves_no_temp_file(desk_cli_dir):
    config = str(desk_cli_dir / "config.json")
    target = desk_cli_dir / "taken"
    target.mkdir()
    assert run_cli("exhaustive", "--config", config, "--levels", "4", "--out", str(target)) == 2
    assert target.is_dir() and not list(target.iterdir())
    assert not list(desk_cli_dir.glob(".dersizer_*.part"))


def test_cli_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("size", "--config", str(bad), "--out", str(tmp_path / "x.csv")) == 2
    missing = tmp_path / "nope.json"
    assert run_cli("size", "--config", str(missing), "--out", str(tmp_path / "x.csv")) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("outer_passes", 1.5),
        ("outer_passes", True),
        ("fine_level_points", 11.0),
        ("coarse_level_points", 3.0),
        ("capacity_precision", -1.0),
    ],
)
def test_cli_bad_level_counts_and_precision_exit_2(desk_cli_dir, capsys, field, value):
    doc = json.loads((desk_cli_dir / "config.json").read_text())
    if field == "capacity_precision":
        doc[field] = value
        message = f"config: capacity_precision must be >= 0, got {value}"
    else:
        doc["search"][field] = value
        message = f"config.search: {field} must be an integer, got {value!r}"
    bad = desk_cli_dir / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = desk_cli_dir / "x.csv"
    assert run_cli("size", "--config", str(bad), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("rng_seed", 1.5, "config.search: rng_seed must be an integer, got 1.5"),
        ("rng_seed", True, "config.search: rng_seed must be an integer, got True"),
        (
            "deficit_display_threshold",
            True,
            "config.search: deficit_display_threshold must be a number, got True",
        ),
        ("capacity_precision", True, "config: capacity_precision must be a number, got True"),
        ("capacity_precision", "1", "config: capacity_precision must be a number, got '1'"),
        pytest.param(
            "deficit_display_threshold",
            float("inf"),
            "config.search: deficit_display_threshold must be finite and >= 0, got inf",
            id="Infinity",
        ),
    ],
)
def test_cli_non_numeric_search_inputs_exit_2(desk_cli_dir, capsys, field, value, message):
    doc = json.loads((desk_cli_dir / "config.json").read_text())
    (doc if field == "capacity_precision" else doc["search"])[field] = value
    bad = desk_cli_dir / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = desk_cli_dir / "x.csv"
    assert run_cli("size", "--config", str(bad), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


DISPATCH_KEYS = {f.name for f in dataclasses.fields(DispatchConfig)} | {"wind_series_path"}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dispatch", 5, "config: dispatch must be an object"),
        ("dispatch", "abc", "config: dispatch must be an object"),
        ("dispatch", [["pv_peak_factor", 0.5]], "config: dispatch must be an object"),
        ("upper_bound", [1], "ders[0]: upper_bound must be a number, got [1]"),
        ("upper_bound", True, "ders[0]: upper_bound must be a number, got True"),
        ("upper_bound", "100", "ders[0]: upper_bound must be a number, got '100'"),
        ("lower_bound", "0", "ders[0]: lower_bound must be a number, got '0'"),
        ("peak_multiplier", "1", "ders[0]: peak_multiplier must be a number, got '1'"),
        pytest.param("upper_bound", 10**400, "ders[0]: upper_bound must be finite", id="huge-int"),
        ("name", None, "ders[0]: name must be a non-empty string, got None"),
        ("name", 5, "ders[0]: name must be a non-empty string, got 5"),
        ("name", "", "ders[0]: name must be a non-empty string, got ''"),
        ("kind", None, "ders[0]: kind must be a non-empty string, got None"),
        ("kind", 5, "ders[0]: kind must be a non-empty string, got 5"),
        ("load_path", 5, "config: load_path must be a non-empty string, got 5"),
        ("output_path", True, "config: output_path must be a non-empty string, got True"),
        ("wind_series_path", 3, "config.dispatch: wind_series_path must be a non-empty string, got 3"),
        ("pv_peak_factor", True, "config.dispatch: pv_peak_factor must be a number, got True"),
        ("pv_daylight_start", True, "config.dispatch: pv_daylight_start must be a number, got True"),
        ("wind_capacity_factor", True, "config.dispatch: wind_capacity_factor must be a number, got True"),
        ("bess_min_soc", "0.1", "config.dispatch: bess_min_soc must be a number, got '0.1'"),
        ("wind_capacity_factor", "0.3", "config.dispatch: wind_capacity_factor must be a number, got '0.3'"),
        ("wind_capacity_factor", [0.1, None], "config.dispatch: wind_capacity_factor must be a number, got None"),
        ("search", [1], "config: search must be an object"),
        ("ders", [], "config: ders must be a non-empty list"),
        ("ders", [5], "ders[0]: expected an object"),
    ],
)
def test_cli_config_type_errors_exit_2_and_name_the_field(desk_cli_dir, capsys, field, value, message):
    doc = json.loads((desk_cli_dir / "config.json").read_text())
    # a top-level key, a dispatch key, or else a key of the first DER
    (doc if field in doc else doc["dispatch"] if field in DISPATCH_KEYS else doc["ders"][0])[field] = value
    bad = desk_cli_dir / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = desk_cli_dir / "x.csv"
    assert run_cli("size", "--config", str(bad), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_root_must_be_an_object(desk_cli_dir, capsys):
    doc = json.loads((desk_cli_dir / "config.json").read_text())
    bad = desk_cli_dir / "bad.json"
    bad.write_text(json.dumps([doc]), encoding="utf-8")
    out = desk_cli_dir / "x.csv"
    assert run_cli("size", "--config", str(bad), "--out", str(out)) == 2
    assert "config root must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_cli_null_der_number_counts_as_absent(desk_cli_dir):
    config = desk_cli_dir / "config.json"
    doc = json.loads(config.read_text())
    doc["ders"][0].update(lower_bound=None, upper_bound=None)
    doc["capacity_precision"] = None
    nulls = desk_cli_dir / "nulls.json"
    nulls.write_text(json.dumps(doc), encoding="utf-8")
    out_plain, out_nulls = desk_cli_dir / "plain.csv", desk_cli_dir / "nulls.csv"
    assert run_cli("exhaustive", "--config", str(config), "--levels", "6", "--out", str(out_plain)) == 0
    assert run_cli("exhaustive", "--config", str(nulls), "--levels", "6", "--out", str(out_nulls)) == 0
    assert out_nulls.read_bytes() == out_plain.read_bytes()


def test_cli_negative_zero_lower_bound_writes_what_zero_writes(desk_cli_dir):
    doc = json.loads((desk_cli_dir / "config.json").read_text())
    outs = {}
    for bound in ("0", "-0.0"):
        for der in doc["ders"]:
            der["lower_bound"] = json.loads(bound)
        config = desk_cli_dir / f"bound{bound}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        for fmt in ("csv", "json"):
            outs[bound, fmt] = desk_cli_dir / f"bound{bound}.{fmt}"
            argv = ("exhaustive", "--config", str(config), "--levels", "3", "--format", fmt)
            assert run_cli(*argv, "--out", str(outs[bound, fmt])) == 0
    assert outs["-0.0", "csv"].read_bytes() == outs["0", "csv"].read_bytes()
    assert "-0.0" not in outs["-0.0", "csv"].read_text() + outs["-0.0", "json"].read_text()


def test_cli_negative_zero_upper_bound_reports_zero(desk_cli_dir, capsys):
    doc = json.loads((desk_cli_dir / "config.json").read_text())
    battery = next(der for der in doc["ders"] if der["kind"] == "battery_storage")
    battery.pop("peak_multiplier", None)
    battery["upper_bound"] = -0.0
    config = desk_cli_dir / "upper.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = str(desk_cli_dir / "upper.csv")
    assert run_cli("exhaustive", "--config", str(config), "--levels", "3", "--out", out) == 2
    err = capsys.readouterr().err
    assert "battery: degenerate capacity range [0.0, 0.0]" in err and "-0.0" not in err


def test_cli_empty_daylight_window_exits_2(desk_cli_dir, capsys):
    # rejected with the dispatch config, before the safety cap is consulted
    doc = json.loads((desk_cli_dir / "config.json").read_text())
    doc["dispatch"] = {"pv_daylight_start": 18.0, "pv_daylight_end": 6.0}
    bad = desk_cli_dir / "night.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = str(desk_cli_dir / "x.csv")
    assert run_cli("exhaustive", "--config", str(bad), "--levels", "500", "--out", out) == 2
    assert "config.dispatch: pv daylight window is empty" in capsys.readouterr().err


def test_cli_non_finite_inputs_exit_2(desk_cli_dir, capsys):
    config = str(desk_cli_dir / "config.json")
    load_csv = desk_cli_dir / "load.csv"
    rows = load_csv.read_text().splitlines()
    for bad in ("nan", "inf"):
        broken = rows[:5] + [rows[5].split(",")[0] + "," + bad] + rows[6:]
        load_csv.write_text("\n".join(broken) + "\n", encoding="utf-8")
        assert run_cli("simulate", "--config", config, "--capacities", "5,0,0") == 2
        assert "line 6: load must be finite" in capsys.readouterr().err
        assert run_cli("size", "--config", config, "--out", str(desk_cli_dir / "x.csv")) == 2
        assert "line 6: load must be finite" in capsys.readouterr().err
    load_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
    doc = json.loads((desk_cli_dir / "config.json").read_text())
    doc["ders"][2]["upper_bound"] = float("nan")
    nan_config = desk_cli_dir / "nan.json"
    nan_config.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("size", "--config", str(nan_config), "--out", str(desk_cli_dir / "x.csv")) == 2
    assert "battery: upper_bound must be finite" in capsys.readouterr().err


def test_cli_load_whose_derived_bound_overflows_exits_2(desk_cli_dir, capsys):
    load_csv = desk_cli_dir / "load.csv"
    rows = load_csv.read_text().splitlines()
    load_csv.write_text("\n".join(rows[:5] + [rows[5].split(",")[0] + ",1e308"] + rows[6:]) + "\n", encoding="utf-8")
    out = desk_cli_dir / "x.csv"
    assert run_cli("size", "--config", str(desk_cli_dir / "config.json"), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "error: solar: peak_multiplier 3.0 times peak 1e+308 kW is not finite" in err
    assert "Traceback" not in err and not out.exists()


def test_cli_subnormal_capacity_precision_writes_the_unrounded_results(desk_cli_dir, capsys):
    doc = json.loads((desk_cli_dir / "config.json").read_text())
    outs = []
    for precision in (1e-310, 0.0):
        doc["capacity_precision"] = precision
        config = desk_cli_dir / f"precision_{precision}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        outs.append(desk_cli_dir / f"precision_{precision}.csv")
        assert run_cli("size", "--config", str(config), "--levels", "11", "--out", str(outs[-1])) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert "Traceback" not in capsys.readouterr().err


def test_cli_reads_inputs_with_a_utf8_bom(desk_cli_dir, capsys):
    # spreadsheet tools start "CSV UTF-8" files with a BOM; each input reads as its BOM-less copy
    doc = json.loads((desk_cli_dir / "config.json").read_text())
    doc["ders"].append({"name": "wind", "kind": "wind_turbine"})
    doc["dispatch"] = {"wind_series_path": "wind.csv"}
    stamps = [row.split(",")[0] for row in (desk_cli_dir / "load.csv").read_text().splitlines()[1:]]
    wind = "datetime,capacity_factor\n" + "".join(f"{t},{0.1 * (k % 7):.1f}\n" for k, t in enumerate(stamps))
    inputs = {"config.json": json.dumps(doc), "load.csv": (desk_cli_dir / "load.csv").read_text(), "wind.csv": wind}
    outs = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        folder = desk_cli_dir / name
        folder.mkdir()
        for file_name, text in inputs.items():
            (folder / file_name).write_text(bom + text, encoding="utf-8")
        outs.append(folder / "results.csv")
        config = str(folder / "config.json")
        assert run_cli("exhaustive", "--config", config, "--levels", "4", "--out", str(outs[-1])) == 0
        results = folder / "results_bom.csv"
        results.write_text(bom + outs[-1].read_text(), encoding="utf-8")
        outs.append(folder / "filtered.csv")
        assert run_cli("filter", str(results), "--out", str(outs[-1])) == 0
    plain_results, plain_filtered, bom_results, bom_filtered = (out.read_bytes() for out in outs)
    assert plain_results == bom_results and plain_filtered == bom_filtered
    assert not plain_results.startswith(b"\xef\xbb\xbf") and plain_results.count(b"\n") > 2
    assert "error" not in capsys.readouterr().err


def test_cli_zero_load_exits_2(desk_cli_dir, capsys):
    # a zero peak gives every peak-multiplier bound the range [0, 0]
    config = str(desk_cli_dir / "config.json")
    load_csv = desk_cli_dir / "load.csv"
    rows = load_csv.read_text().splitlines()
    zeroed = rows[:1] + [row.split(",")[0] + ",0.0" for row in rows[1:]]
    load_csv.write_text("\n".join(zeroed) + "\n", encoding="utf-8")
    out = str(desk_cli_dir / "x.csv")
    for command in ("size", "exhaustive"):
        assert run_cli(command, "--config", config, "--levels", "6", "--out", out) == 2
        assert "diesel: degenerate capacity range [0.0, 0.0]" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_safety_cap_exits_3(desk_cli_dir):
    config = str(desk_cli_dir / "config.json")
    out = desk_cli_dir / "never.csv"
    assert run_cli("exhaustive", "--config", config, "--levels", "500", "--out", str(out)) == 3
    assert not out.exists()


def test_cli_exhaustive_levels_below_the_coarse_count(desk_cli_dir, capsys):
    # exhaustive has no coarse stage, so 4 levels pass under the default 6 coarse levels
    config_path = str(desk_cli_dir / "config.json")
    out = desk_cli_dir / "four.csv"
    assert run_cli("exhaustive", "--config", config_path, "--levels", "4", "--out", str(out)) == 0
    config = load_config_file(config_path)
    load, space, dispatch = load_inputs(config)
    cache = SimulationCache(space, load, dispatch)
    direct = exhaustive_search(cache, space, load, dispatch, 4, config.capacity_precision)
    kept = [d for d in non_dominated(direct) if d.deficit_ratio <= config.search.deficit_display_threshold]
    assert out.read_text() == results_csv_text(capacity_columns(space), unused_columns(space), kept)
    capsys.readouterr()
    assert run_cli("exhaustive", "--config", config_path, "--levels", "1", "--out", str(out)) == 2
    assert "level_points must be >= 2" in capsys.readouterr().err
    # the pipeline still needs at least as many fine levels as coarse ones
    assert run_cli("size", "--config", config_path, "--levels", "4", "--out", str(out)) == 2
    assert "fine_level_points must be >= coarse_level_points" in capsys.readouterr().err


def test_cli_unknown_flag_exits_2(desk_cli_dir):
    with pytest.raises(SystemExit) as err:
        run_cli("size", "--bogus")
    assert err.value.code == 2


def test_cli_requires_output_path(desk_cli_dir, tmp_path):
    doc = desk_config_document("load.csv", None)
    doc.pop("output_path")
    config_path = desk_cli_dir / "config_noout.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("size", "--config", str(config_path)) == 2


def test_cli_seed_changes_results_but_not_validity(desk_cli_dir):
    config = str(desk_cli_dir / "config.json")
    out = desk_cli_dir / "seeded.csv"
    assert run_cli("size", "--config", config, "--seed", "404", "--out", str(out)) == 0
    _, _, designs = read_results_csv(out.read_text())
    assert designs
    for a in designs:
        for b in designs:
            if a is not b:
                assert not dominates(a, b)


def test_cli_deficit_threshold_flag_overrides_the_config(desk_cli_dir):
    config = str(desk_cli_dir / "config.json")
    kept = {}
    for threshold in ("0", "1"):
        out = desk_cli_dir / f"threshold_{threshold}.csv"
        argv = ["exhaustive", "--config", config, "--levels", "6", "--deficit-threshold", threshold]
        assert run_cli(*argv, "--out", str(out)) == 0
        kept[threshold] = read_results_csv(out.read_text())[2]
    assert kept["0"] and all(d.deficit_ratio == 0 for d in kept["0"])
    assert any(d.deficit_ratio > 0.01 for d in kept["1"])


def test_cli_non_finite_deficit_threshold_flag_exits_2(desk_cli_dir, capsys):
    config = str(desk_cli_dir / "config.json")
    out = desk_cli_dir / "x.csv"
    assert run_cli("size", "--config", config, "--deficit-threshold", "inf", "--out", str(out)) == 2
    assert "deficit_display_threshold must be finite and >= 0, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_default_output_path_resolves_relative_to_config(desk_cli_dir):
    config = str(desk_cli_dir / "config.json")
    assert run_cli("size", "--config", config) == 0
    assert (desk_cli_dir / "results.csv").exists()


# ---------------------------------------------------------------------------
# synthetic load CLI

@pytest.mark.parametrize(
    "out_name, flags, message",
    [
        ("load.csv", ["--steps", "1"], "need at least 2 steps"),
        ("load.csv", ["--step-seconds", "0"], "step_seconds must be positive and finite, got 0.0"),
        ("load.csv", ["--step-seconds", "nan"], "step_seconds must be positive and finite, got nan"),
        ("missing/load.csv", ["--steps", "3"], "[Errno 2] No such file or directory"),
    ],
)
def test_synthetic_cli_rejects_bad_steps_and_paths(tmp_path, capsys, out_name, flags, message):
    out = tmp_path / out_name
    with pytest.raises(SystemExit) as err:
        synthetic.main([str(out), *flags])
    assert err.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()

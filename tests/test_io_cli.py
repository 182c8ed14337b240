"""Ingestion, export and CLI behavior, exercised through the public surfaces."""

import json
import os

import pytest

from dersizer.core import EvaluatedDesign, MicrogridDesign
from dersizer.io_cli import (
    ParseError,
    align_wind_series,
    atomic_write,
    build_dispatch_config,
    capacity_columns,
    main,
    parse_config,
    parse_load_profile,
    parse_wind_series,
    read_results_csv,
    resolve_bounds,
    results_csv_text,
    unused_columns,
)
from dersizer.synthetic import load_profile_csv, two_week_profile
from helpers import desk_config_document


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


def test_parse_accepts_zulu_timestamps():
    text = make_load_csv(["2024-01-01T00:00:00Z,10", "2024-01-01T00:30:00Z,11"])
    profile = parse_load_profile(text)
    assert profile.durations_s == (1800.0, 1800.0)


def test_parse_rejects_mixed_timezones():
    text = make_load_csv(["2024-01-01T00:00:00Z,10", "2024-01-01T00:30:00,11"])
    with pytest.raises(ParseError, match="timezone"):
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


def test_empty_results_write_header_only():
    text = results_csv_text(["x_capacity_kw"], ["x_unused_ratio"], [])
    assert text == "x_capacity_kw,sizing_grid_deficit_ratio,x_unused_ratio\n"


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
    for payload in (first, again):
        del payload["elapsed_seconds"]
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


def test_cli_simulate_rejects_wrong_arity(desk_cli_dir):
    config = str(desk_cli_dir / "config.json")
    assert run_cli("simulate", "--config", config, "--capacities", "5,0") == 2


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
    from dersizer.core import dominates

    for c in coarse:
        if c.deficit_ratio != 0.0:
            continue
        assert any(
            f.capacities == c.capacities or dominates(f, c) for f in fine
        ), f"coarse design {c.capacities} not covered"


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
    ],
)
def test_cli_config_type_errors_exit_2_and_name_the_field(desk_cli_dir, capsys, field, value, message):
    doc = json.loads((desk_cli_dir / "config.json").read_text())
    (doc if field == "dispatch" else doc["ders"][0])[field] = value
    bad = desk_cli_dir / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = desk_cli_dir / "x.csv"
    assert run_cli("size", "--config", str(bad), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
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
    from dersizer.core import dominates

    for a in designs:
        for b in designs:
            if a is not b:
                assert not dominates(a, b)


def test_default_output_path_resolves_relative_to_config(desk_cli_dir):
    config = str(desk_cli_dir / "config.json")
    assert run_cli("size", "--config", config) == 0
    assert (desk_cli_dir / "results.csv").exists()

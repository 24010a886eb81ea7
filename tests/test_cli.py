"""End-to-end command-line runs against the bundled example data."""

from __future__ import annotations

import ast
import contextlib
import copy
import csv
import importlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st

from wildrail import (
    DEFAULT_PROFILE,
    FLAG_EXCEEDS_UNITY,
    FLAG_NO_TRAFFIC,
    model_from_json,
    sweep_all,
)
import wildrail.cli
import wildrail.model
from wildrail.cli import (
    COMMANDS,
    DEFAULT_THRESHOLDS,
    OPTIONS,
    main,
    parse_seasons_spec,
    parse_thresholds_spec,
)
from cli_cases import CASES, Case, check, in_process
from conftest import DATA_DIR, no_records, traffic_of
from test_golden import COMMANDS as GOLDEN_COMMANDS

ACCIDENTS = str(DATA_DIR / "accidents_2020_2022.csv")
TEST_ACCIDENTS = str(DATA_DIR / "accidents_2023_test.csv")
TRAFFIC = str(DATA_DIR / "traffic.csv")
SPEEDS = str(DATA_DIR / "speeds.csv")
GEOMETRY = str(DATA_DIR / "lines.geojson")
MODEL = str(DATA_DIR.parent / "demos" / "output" / "model.json")

FLAGS = (FLAG_NO_TRAFFIC, FLAG_EXCEEDS_UNITY)

PERIOD_FLAGS = ["--period-start", "2020-01-01", "--period-end", "2022-12-31"]


def run_fit(tmp: Path, *extra: str) -> int:
    return main(
        ["fit", "--accidents", ACCIDENTS, "--days-per-year", "365",
         "--out-dir", str(tmp), *PERIOD_FLAGS, *extra]
    )


@pytest.fixture()
def fitted(tmp_path: Path) -> Path:
    assert run_fit(tmp_path) == 0
    return tmp_path / "model.json"


def assert_input_error(code: int, capsys) -> None:
    """Exit code 2 with exactly one ``error:`` line and no traceback."""
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


# --- the contract table ---


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_cli_contract_case(case: Case, tmp_path: Path) -> None:
    # the table that python tests/cli_cases.py runs against the installed script
    result, problems = check(case, in_process, tmp_path)
    assert not problems, (problems, result.stderr)


# --- fit ---


def test_fit_writes_model_and_summary(tmp_path: Path, capsys) -> None:
    assert run_fit(tmp_path) == 0
    out = capsys.readouterr().out
    assert "records: 877" in out
    assert "T=1095 days" in out
    assert "Jan: mu=0.89 (n=81)" in out
    model = model_from_json((tmp_path / "model.json").read_text())
    assert model.counts.n == 877
    assert model.bins.delta_x == 5.0


def test_fit_honours_explicit_out_path(tmp_path: Path) -> None:
    target = tmp_path / "sub" / "m.json"
    assert run_fit(tmp_path, "--out", str(target)) == 0
    assert target.exists()


def test_fit_flags_beat_config(tmp_path: Path) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"delta_x": 2.5, "out_dir": str(tmp_path / "from_config")}))
    assert run_fit(tmp_path, "--config", str(config), "--delta-x", "5.0", "--out-dir", str(tmp_path)) == 0
    model = model_from_json((tmp_path / "model.json").read_text())
    assert model.bins.delta_x == 5.0
    # config supplies values when no flag is given
    assert run_fit(tmp_path, "--config", str(config), "--out", str(tmp_path / "m2.json")) == 0
    assert model_from_json((tmp_path / "m2.json").read_text()).bins.delta_x == 2.5


def test_fit_custom_seasons(tmp_path: Path) -> None:
    spec = "cold=11,12,1,2,3,4;warm=5,6,7,8,9,10"
    assert run_fit(tmp_path, "--seasons", spec) == 0
    model = model_from_json((tmp_path / "model.json").read_text())
    assert set(model.seasons.labels) == {"cold", "warm"}


def test_fit_input_errors(tmp_path: Path, capsys) -> None:
    assert main(["fit", "--out-dir", str(tmp_path)]) == 2  # --accidents missing
    assert main(["fit", "--accidents", str(tmp_path / "nope.csv")]) == 2
    assert main(["fit", "--accidents", ACCIDENTS, "--period-start", "2020-01-01"]) == 2
    assert main(["fit", "--accidents", ACCIDENTS, *PERIOD_FLAGS, "--seasons", "odd=1,2"]) == 2
    assert main(["fit", "--accidents", ACCIDENTS, *PERIOD_FLAGS, "--period-end", "soon"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("value", ["20200101", "2020-W01-3", "2020-1-01", "\uff12020-01-01"])
def test_a_period_date_must_read_yyyy_mm_dd(value: str, tmp_path: Path, capsys) -> None:
    # date.fromisoformat reads the first two from Python 3.11 on
    flags = ["--period-start", value, "--period-end", "2022-12-31", "--out-dir", str(tmp_path)]
    assert main(["fit", "--accidents", ACCIDENTS, *flags]) == 2
    assert capsys.readouterr().err == f"error: --period-start: must be YYYY-MM-DD, got {value!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_reversed_period_names_both_flags_before_reading_the_file(tmp_path: Path, capsys) -> None:
    flags = ["--period-start", "2022-01-01", "--period-end", "2020-01-01"]
    flags += ["--out-dir", str(tmp_path)]
    missing = str(tmp_path / "missing.csv")
    for command, accidents in ("fit", ACCIDENTS), ("fit", missing), ("profile", ACCIDENTS):
        assert main([command, "--accidents", accidents, *flags]) == 2
        assert capsys.readouterr().err == (
            "error: --period-end 2020-01-01 precedes --period-start 2022-01-01\n"
        )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value",
    [
        # 24 h or a km post over 1e-320 is not a finite bin count
        pytest.param("--delta-t", "1e-320", id="--delta-t"),
        pytest.param("--delta-x", "1e-320", id="--delta-x"),
        # 24 h over 1e-300 is a whole number, of bins far shorter than a minute
        pytest.param("--delta-t", "1e-300", id="--delta-t-1e-300"),
    ],
)
def test_fit_rejects_bin_widths_too_small_to_index(flag: str, value: str, tmp_path: Path, capsys) -> None:
    assert_input_error(run_fit(tmp_path, flag, value), capsys)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): float(value)}))
    assert_input_error(run_fit(tmp_path, "--config", str(config)), capsys)
    assert not (tmp_path / "model.json").exists()


def test_fit_refuses_a_bin_width_whose_grid_is_too_large(tmp_path: Path, capsys, monkeypatch) -> None:
    # with no cells allowed, fit stops before writing; checked first, so a
    # missing check fails here and never lays out the bins below
    monkeypatch.setattr(wildrail.model, "MAX_GRID_CELLS", 0)
    assert_input_error(run_fit(tmp_path), capsys)
    monkeypatch.undo()
    # 1e-9 km bins would span each bundled line with some 1e10 bins
    assert run_fit(tmp_path, "--delta-x", "1e-9") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line '1' spans km "), err
    assert err[0].endswith("warning grid would exceed 50,000,000 cells")
    assert not (tmp_path / "model.json").exists()


def test_fit_rejects_malformed_rows_with_location(tmp_path: Path, capsys) -> None:
    bad = tmp_path / "bad.csv"
    bad.write_text("date,time,line,km,species\n2020-01-01,25:00,139,1.0,\n")
    assert main(["fit", "--accidents", str(bad), *PERIOD_FLAGS]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert str(bad) in err


@pytest.mark.parametrize(
    "option, row",
    [
        ("--accidents", "2020-01-01,10:00,139,1.0,{long}"),
        ("--traffic", "139,0,10{long}"),
    ],
)
def test_csv_module_errors_are_input_errors(option: str, row: str, tmp_path: Path, capsys) -> None:
    # a field over csv.field_size_limit() on the third line
    header = {"--accidents": "date,time,line,km,species", "--traffic": "line,km_from,count"}[option]
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{header}\n{row.format(long='')}\n{row.format(long='x' * 200_000)}\n")
    if option == "--accidents":
        argv = ["profile", "--accidents", str(bad), *PERIOD_FLAGS]
    else:
        argv = ["eval", "--model", MODEL, "--traffic", str(bad), "--test", TEST_ACCIDENTS]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    limit = csv.field_size_limit()
    assert err == [f"error: {bad}: line 3: field larger than field limit ({limit})"]
    assert not (tmp_path / "out").exists()


# each input file option, and a command that reads it with its other inputs
FILE_OPTIONS = {
    "accidents": ["profile", *PERIOD_FLAGS],
    "test": ["eval", "--model", MODEL, "--traffic", TRAFFIC],
    "traffic": ["eval", "--model", MODEL, "--test", TEST_ACCIDENTS],
    "speeds": ["corr", "--accidents", ACCIDENTS, *PERIOD_FLAGS, "--traffic", TRAFFIC],
    "geometry": ["map", "--accidents", ACCIDENTS, *PERIOD_FLAGS],
    "model": ["warn", "--traffic", TRAFFIC],
    "config": ["fit", "--accidents", ACCIDENTS, *PERIOD_FLAGS],
}
# a file every reader rejects: a CSV row, not JSON, against no header a reader expects
MALFORMED = {"text": b"line,km_from,km_to\n1,0,x\n", "bytes": b"\xff\xfe\n", "missing": None}


@pytest.mark.parametrize("content", sorted(MALFORMED))
@pytest.mark.parametrize("option", sorted(FILE_OPTIONS))
def test_input_file_errors_name_the_file(option: str, content: str, tmp_path: Path, capsys) -> None:
    bad = tmp_path / "bad.input"
    if MALFORMED[content] is not None:
        bad.write_bytes(MALFORMED[content])
    out = tmp_path / "out"
    argv = [*FILE_OPTIONS[option], f"--{option}", str(bad), "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err
    assert not out.exists()


# --- warn ---


def test_warn_writes_grid_csv(tmp_path: Path, fitted: Path, capsys) -> None:
    code = main(
        ["warn", "--model", str(fitted), "--traffic", TRAFFIC, "--out-dir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "warned cells at theta=0.001" in out
    with (tmp_path / "warnings.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["line", "x_from", "x_to"]
    assert rows[0][9:] == ["warned@0.0005", "warned@0.001", "warned@0.002"]
    assert len(rows) == 1 + (12 + 9 + 16) * 12 * 24
    hot = next(
        r for r in rows[1:] if r[0] == "139" and r[1] == "10.0" and r[3] == "1" and r[4] == "18.0"
    )
    assert hot[10] == "1"  # warned at theta=0.001


def test_warn_reports_exceeds_unity_cells(tmp_path: Path, fitted: Path, capsys) -> None:
    # the bundled data has no such cells: nothing on stderr
    assert main(["warn", "--model", str(fitted), "--traffic", TRAFFIC,
                 "--out-dir", str(tmp_path / "bundled")]) == 0
    assert capsys.readouterr().err == ""
    # one accident in a week against one train a day: p_pt far above 1 in
    # the accident's season, month by month
    accidents = tmp_path / "acc.csv"
    accidents.write_text("date,time,line,km,species\n2021-01-05,12:30,9,2.0,roe deer\n")
    traffic = tmp_path / "traffic.csv"
    traffic.write_text("line,km_from,count\n9,0,1\n")
    model = tmp_path / "m.json"
    assert main(["fit", "--accidents", str(accidents), "--out", str(model),
                 "--period-start", "2021-01-01", "--period-end", "2021-01-07"]) == 0
    capsys.readouterr()
    assert main(["warn", "--model", str(model), "--traffic", str(traffic),
                 "--out-dir", str(tmp_path)]) == 0
    rows = list(csv.DictReader((tmp_path / "warnings.csv").read_text().splitlines()))
    n_exceeds = sum("exceeds_unity" in row["flags"] for row in rows)
    assert n_exceeds > 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {n_exceeds} cells have p_pt > 1 (exceeds_unity); check the traffic table"
    ]


def test_warn_csv_flags_hold_one_name_at_most(tmp_path: Path, capsys) -> None:
    # trains in two bins only, one of them 1e-6 a day: no_traffic and exceeds_unity cells
    traffic = tmp_path / "thin.csv"
    traffic.write_text("line,km_from,count\n139,10,131\n140,5,1e-6\n")
    assert main(["warn", "--model", MODEL, "--traffic", str(traffic), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    with (tmp_path / "warnings.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    flags = {row["flags"] for row in rows}
    assert flags == {"", FLAG_NO_TRAFFIC, FLAG_EXCEEDS_UNITY}
    assert all((row["p_pt"] == "") == (row["flags"] == FLAG_NO_TRAFFIC) for row in rows)


@pytest.mark.parametrize("total_days", ["5e-324", "4e-322"])
def test_warn_refuses_a_model_too_short_for_a_finite_monthly_rate(
    total_days: str, tmp_path: Path, capsys
) -> None:
    # 5e-324 days made a month of 0 days (ZeroDivisionError), 4e-322 a rate of inf
    doc = json.loads(Path(MODEL).read_text(encoding="utf-8"))
    doc["counts"]["total_days"] = float(total_days)
    model = tmp_path / "short.json"
    model.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    code = main(["warn", "--model", str(model), "--traffic", TRAFFIC, "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: {model}: total_days is too small for a finite monthly rate, got {total_days}\n"
    )
    assert not (tmp_path / "warnings.csv").exists()


def test_warn_with_geometry_writes_geojson(tmp_path: Path, fitted: Path) -> None:
    code = main(
        ["warn", "--model", str(fitted), "--traffic", TRAFFIC,
         "--geometry", GEOMETRY, "--theta-map", "0.001", "--month", "1",
         "--out-dir", str(tmp_path)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "warnings.geojson").read_text())
    assert doc["features"]
    for feature in doc["features"]:
        assert feature["properties"]["months"] == [1]
        assert feature["properties"]["theta"] == 0.001


def test_warn_accepts_run_level_traffic(tmp_path: Path, fitted: Path) -> None:
    runs = tmp_path / "runs.csv"
    runs.write_text(
        "line,km_from,km_to,departure\n"
        + "".join(f"139,0.0,60.0,{h:02d}:00\n" for h in range(5, 23))
    )
    code = main(
        ["warn", "--model", str(fitted), "--traffic", str(runs), "--out-dir", str(tmp_path)]
    )
    assert code == 0
    with (tmp_path / "warnings.csv").open() as fh:
        rows = list(csv.reader(fh))
    by_line = {r[0] for r in rows[1:]}
    assert by_line == {"1", "139", "140"}  # model lines survive even without runs


def test_warn_traffic_source_must_be_unambiguous(tmp_path: Path, fitted: Path, capsys) -> None:
    # --traffic reads either traffic form, and a run without it is an input error
    assert main(["warn", "--model", str(fitted), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: missing required option --traffic\n"
    assert not (tmp_path / "warnings.csv").exists()


def test_warn_rejects_traffic_on_a_different_grid(tmp_path: Path, fitted: Path, capsys) -> None:
    off_grid = tmp_path / "traffic25.csv"
    off_grid.write_text("line,km_from,count\n139,2.5,100\n")
    code = main(
        ["warn", "--model", str(fitted), "--traffic", str(off_grid), "--out-dir", str(tmp_path)]
    )
    assert code == 2
    assert "aligned" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["warn", "eval"])
def test_far_off_traffic_row_is_refused_before_the_sweep(
    command: str, tmp_path: Path, capsys, monkeypatch
) -> None:
    test = ["--test", TEST_ACCIDENTS] if command == "eval" else []
    out = tmp_path / "out"
    # one cell short of the bundled grid; checked first, so a missing check
    # fails here and never lays out the grid below
    monkeypatch.setattr(wildrail.model, "MAX_GRID_CELLS", 10_655)
    assert_input_error(
        main([command, "--model", MODEL, "--traffic", TRAFFIC, *test, "--out-dir", str(out)]), capsys
    )
    monkeypatch.undo()
    # one row at km 5,000,000 would stretch line 139 over a million 5 km bins
    traffic = tmp_path / "traffic.csv"
    traffic.write_text(Path(TRAFFIC).read_text() + "139,5000000.0,1\n")
    code = main([command, "--model", MODEL, "--traffic", str(traffic), *test, "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: line '139' spans km 0.0..5000005.0, so the 5.0 km x 1.0 h warning grid"
        " would exceed 50,000,000 cells"
    ]
    assert not out.exists()


def test_warn_rejects_bad_thresholds(tmp_path: Path, fitted: Path, capsys) -> None:
    base = ["warn", "--model", str(fitted), "--traffic", TRAFFIC, "--out-dir", str(tmp_path)]
    assert main(base + ["--thresholds", "0.002,0.001"]) == 2
    assert main(base + ["--thresholds", "0"]) == 2
    assert main(base + ["--thresholds", "abc"]) == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"thresholds": 5}))
    capsys.readouterr()
    assert_input_error(main(base + ["--config", str(config)]), capsys)
    for value in ("nan", "inf", "0.001,inf", "-inf"):
        assert_input_error(main(base + [f"--thresholds={value}"]), capsys)
    assert not (tmp_path / "warnings.csv").exists()


def test_warn_rejects_non_finite_theta_map(tmp_path: Path, fitted: Path, capsys) -> None:
    base = ["warn", "--model", str(fitted), "--traffic", TRAFFIC, "--geometry", GEOMETRY,
            "--out-dir", str(tmp_path)]
    for value in ("nan", "inf", "-inf"):
        assert_input_error(main(base + [f"--theta-map={value}"]), capsys)
    config = tmp_path / "config.json"
    for text in ('{"theta_map": NaN}', '{"theta_map": Infinity}'):
        config.write_text(text)
        assert_input_error(main(base + ["--config", str(config)]), capsys)
    assert not (tmp_path / "warnings.csv").exists()
    assert not (tmp_path / "warnings.geojson").exists()


def test_warn_rejects_non_positive_theta_map(tmp_path: Path, fitted: Path, capsys) -> None:
    base = ["warn", "--model", str(fitted), "--traffic", TRAFFIC, "--geometry", GEOMETRY,
            "--out-dir", str(tmp_path)]
    for value in ("0", "-1", "-0.0", "-1e-300"):
        assert_input_error(main(base + [f"--theta-map={value}"]), capsys)
    config = tmp_path / "config.json"
    for value in (0, -1, -0.001):
        config.write_text(json.dumps({"theta_map": value}))
        assert_input_error(main(base + ["--config", str(config)]), capsys)
    assert not (tmp_path / "warnings.csv").exists()
    assert not (tmp_path / "warnings.geojson").exists()


def test_warn_counts_cells_per_flag(tmp_path: Path, fitted: Path, capsys) -> None:
    # traffic in one km bin only: every other cell is flagged no_traffic
    traffic = tmp_path / "one_bin.csv"
    traffic.write_text("line,km_from,count\n139,10,131\n")
    assert main(["warn", "--model", str(fitted), "--traffic", str(traffic),
                 "--out-dir", str(tmp_path)]) == 0
    grid = sweep_all(
        model_from_json(fitted.read_text()),
        traffic_of({("139", 2): 131.0}),
        DEFAULT_PROFILE,
        DEFAULT_THRESHOLDS,
    )
    census = grid.census()
    counts = census.flagged
    assert tuple(counts) == FLAGS
    assert counts[FLAG_NO_TRAFFIC] == census.cells - census.traffic_positive
    assert counts[FLAG_NO_TRAFFIC] > 0
    expected = "flagged cells: " + " ".join(f"{flag}={n}" for flag, n in counts.items())
    captured = capsys.readouterr()
    assert expected in captured.out.splitlines()
    # most cells have no trains, which stderr says once
    assert captured.err.splitlines() == [
        f"warning: {counts[FLAG_NO_TRAFFIC]} of {census.cells} cells have no trains"
        " (no_traffic); check the traffic table"
    ]


# the golden warn run's stdout, with its output directory masked
WARN_STDOUT = """\
warning grid written to <out>/warnings.csv
warned segments written to <out>/warnings.geojson
cells: 10656 (10656 with traffic)
flagged cells: no_traffic=0 exceeds_unity=0
warned cells at theta=0.0005: 1384
warned cells at theta=0.001: 301
warned cells at theta=0.002: 71
warned km-bins per line and month at theta=0.0005:
  line 1: Jan=9 Feb=9 Mar=9 Apr=9 May=9 Jun=9 Jul=9 Aug=9 Sep=9 Oct=9 Nov=9 Dec=9
  line 139: Jan=12 Feb=12 Mar=12 Apr=12 May=12 Jun=12 Jul=12 Aug=12 Sep=12 Oct=12 Nov=12 Dec=12
  line 140: Jan=16 Feb=16 Mar=16 Apr=16 May=16 Jun=16 Jul=16 Aug=16 Sep=16 Oct=16 Nov=16 Dec=16
"""


def test_warn_prints_the_pinned_summary(tmp_path: Path, capsys) -> None:
    assert main(["warn", "--model", MODEL, "--traffic", TRAFFIC, "--geometry", GEOMETRY,
                 "--theta-map", "0.001", "--month", "1", "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.replace(str(tmp_path), "<out>") == WARN_STDOUT
    assert captured.err == ""


def test_warn_rejects_map_options_without_geometry(tmp_path: Path, fitted: Path, capsys) -> None:
    # --theta-map, --month and --hour only shape warnings.geojson
    base = ["warn", "--model", str(fitted), "--traffic", TRAFFIC, "--out-dir", str(tmp_path)]
    for flag_args in (["--theta-map", "0.001"], ["--month", "1"], ["--hour", "3"],
                      ["--month", "1", "--theta-map", "0.001", "--hour", "3"]):
        assert_input_error(main(base + flag_args), capsys)
    for key, value in (("theta_map", 0.001), ("month", 1), ("hour", 3)):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({key: value}))
        assert_input_error(main(base + ["--config", str(config)]), capsys)
    assert not (tmp_path / "warnings.csv").exists()
    assert main(base) == 0


def test_warn_rejects_malformed_model_and_geometry(tmp_path: Path, fitted: Path, capsys) -> None:
    doc = json.loads(fitted.read_text())
    bad_models = {
        "seasons.json": {**doc, "seasons": [1, 2]},
        "nan.json": {**doc, "p_line": {**doc["p_line"], "139": float("nan")}},
        "tampered.json": {**doc, "mu": {**doc["mu"], "1": 0.5}},
    }
    for name, bad in bad_models.items():
        path = tmp_path / name
        path.write_text(json.dumps(bad))
        code = main(["warn", "--model", str(path), "--traffic", TRAFFIC, "--out-dir", str(tmp_path)])
        assert_input_error(code, capsys)
    geometry = tmp_path / "features.geojson"
    null_coordinate = {
        "type": "Feature",
        "properties": {"line": "1", "km": [0.0, 5.0]},
        "geometry": {"type": "LineString", "coordinates": [None, [19.1, 50.1]]},
    }
    for features in ([5], [null_coordinate]):
        geometry.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        code = main(
            ["warn", "--model", str(fitted), "--traffic", TRAFFIC, "--geometry", str(geometry),
             "--out-dir", str(tmp_path)]
        )
        assert_input_error(code, capsys)
    # the geometry is read before any output is written
    assert not (tmp_path / "warnings.csv").exists()


def test_warn_and_eval_reject_hour_bins_that_straddle_profile_pieces(tmp_path: Path, capsys) -> None:
    # 2 h bins divide the day, so fit takes them, but 2 h does not divide the
    # default profile's 9 h and 15 h boundaries
    model = tmp_path / "model2h.json"
    assert run_fit(tmp_path, "--delta-t", "2", "--out", str(model)) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    for command, *extra in (("warn", "--geometry", GEOMETRY), ("eval", "--test", TEST_ACCIDENTS)):
        code = main([command, "--model", str(model), "--traffic", TRAFFIC, *extra,
                     "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: delta_t=2.0 straddles"), err
    assert not out.exists() or not any(out.iterdir())


# --- map ---


def test_map_geocodes_and_bins(tmp_path: Path, capsys) -> None:
    code = main(
        ["map", "--accidents", ACCIDENTS, "--geometry", GEOMETRY,
         "--out-dir", str(tmp_path), *PERIOD_FLAGS]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "geocoded 877 of 877" in out
    doc = json.loads((tmp_path / "hexmap.geojson").read_text())
    assert sum(f["properties"]["count"] for f in doc["features"]) == 877


def test_map_skips_records_without_geometry(tmp_path: Path, capsys) -> None:
    partial = tmp_path / "partial.geojson"
    doc = json.loads(Path(GEOMETRY).read_text())
    doc["features"] = [f for f in doc["features"] if f["properties"]["line"] == "139"]
    partial.write_text(json.dumps(doc))
    code = main(
        ["map", "--accidents", ACCIDENTS, "--geometry", str(partial),
         "--out-dir", str(tmp_path), *PERIOD_FLAGS]
    )
    assert code == 0
    assert "geocoded 285 of 877" in capsys.readouterr().out


def test_map_places_nothing_when_no_logged_line_has_geometry(tmp_path: Path, capsys) -> None:
    other = tmp_path / "other.geojson"
    doc = json.loads(Path(GEOMETRY).read_text())
    doc["features"] = doc["features"][:1]
    doc["features"][0]["properties"]["line"] = "999"
    other.write_text(json.dumps(doc))
    code = main(
        ["map", "--accidents", ACCIDENTS, "--geometry", str(other),
         "--out-dir", str(tmp_path), *PERIOD_FLAGS]
    )
    assert code == 0
    assert "geocoded 0 of 877 accidents (877 not on a line geometry)" in capsys.readouterr().out
    hexmap = json.loads((tmp_path / "hexmap.geojson").read_text())
    assert hexmap == {"features": [], "type": "FeatureCollection"}


def test_map_skips_km_off_the_calibrated_range(tmp_path: Path, capsys, bundled_data) -> None:
    # line 140 without its first and last vertices: calibrated on [20, 65] km only
    short = tmp_path / "short.geojson"
    doc = json.loads(Path(GEOMETRY).read_text())
    (feature,) = [f for f in doc["features"] if f["properties"]["line"] == "140"]
    feature["geometry"]["coordinates"] = feature["geometry"]["coordinates"][1:-1]
    feature["properties"]["km"] = feature["properties"]["km"][1:-1]
    short.write_text(json.dumps(doc))
    code = main(
        ["map", "--accidents", ACCIDENTS, "--geometry", str(short),
         "--out-dir", str(tmp_path), *PERIOD_FLAGS]
    )
    assert code == 0
    ranges = {
        f["properties"]["line"]: (f["properties"]["km"][0], f["properties"]["km"][-1])
        for f in doc["features"]
    }
    placed = [r for r in bundled_data.records if r.line in ranges]
    placed = [r for r in placed if ranges[r.line][0] <= r.km <= ranges[r.line][1]]
    assert any(r.line == "140" and r.km > 65.0 for r in bundled_data.records)
    assert any(r.line == "140" and r.km < 20.0 for r in bundled_data.records)
    skipped = 877 - len(placed)
    expected = f"geocoded {len(placed)} of 877 accidents ({skipped} not on a line geometry)"
    assert expected in capsys.readouterr().out
    hexmap = json.loads((tmp_path / "hexmap.geojson").read_text())
    assert sum(f["properties"]["count"] for f in hexmap["features"]) == len(placed)


def test_map_rejects_non_finite_spacing(tmp_path: Path, capsys) -> None:
    base = ["map", "--accidents", ACCIDENTS, "--geometry", GEOMETRY, "--out-dir", str(tmp_path)]
    for value in ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300"):
        assert_input_error(main(base + [f"--spacing={value}"]), capsys)
    config = tmp_path / "config.json"
    for text in ('{"spacing": NaN}', '{"spacing": Infinity}', '{"spacing": 0}'):
        config.write_text(text)
        assert_input_error(main(base + ["--config", str(config)]), capsys)
    assert not (tmp_path / "hexmap.geojson").exists()


def test_map_spacing_range(tmp_path: Path, capsys) -> None:
    # at the ends of the range the map keeps six distinct corners per hexagon;
    # the spacings map refuses are cases of tests/cli_cases.py
    base = ["map", "--accidents", ACCIDENTS, "--geometry", GEOMETRY, "--out-dir", str(tmp_path)]
    for value in ("1e-6", "1000"):
        assert main(base + ["--spacing", value]) == 0
        doc = json.loads((tmp_path / "hexmap.geojson").read_text())
        assert sum(f["properties"]["count"] for f in doc["features"]) == 877
        for feature in doc["features"]:
            corners = feature["geometry"]["coordinates"][0][:-1]
            assert len({tuple(corner) for corner in corners}) == 6, (value, feature)


def test_map_rejects_line_names_that_are_not_strings(tmp_path: Path, capsys) -> None:
    geometry = tmp_path / "lines.geojson"
    doc = json.loads(Path(GEOMETRY).read_text())
    out = tmp_path / "out"
    for line in ([1], {"a": 1}, 5, True):
        doc["features"][0]["properties"]["line"] = line
        geometry.write_text(json.dumps(doc))
        code = main(["map", "--accidents", ACCIDENTS, "--geometry", str(geometry),
                     "--out-dir", str(out)])
        assert_input_error(code, capsys)
    assert not out.exists()


# --- profile ---


def test_profile_writes_species_and_hourly(tmp_path: Path, capsys) -> None:
    code = main(
        ["profile", "--accidents", ACCIDENTS, "--out-dir", str(tmp_path), *PERIOD_FLAGS]
    )
    assert code == 0
    species_rows = (tmp_path / "species.csv").read_text().splitlines()
    assert species_rows[0] == "species,count"
    assert species_rows[1].startswith("roe deer,")
    hourly_rows = (tmp_path / "hourly.csv").read_text().splitlines()
    assert hourly_rows[0] == "season,hour,count"
    assert len(hourly_rows) == 1 + 3 * 24
    assert "short,18,37" in hourly_rows
    out = capsys.readouterr().out
    assert "season short: 338 accidents" in out


def test_profile_species_csv_quotes_species_names(tmp_path: Path) -> None:
    names = ["a,b", 'say "hi"', "two\nlines", "roe deer", "a,b"]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["date", "time", "line", "km", "species"])
    for i, name in enumerate(names):
        writer.writerow([f"2021-0{i + 1}-01", "12:00", "9", "1.0", name])
    accidents = tmp_path / "acc.csv"
    accidents.write_text(text.getvalue())
    assert main(["profile", "--accidents", str(accidents), "--out-dir", str(tmp_path)]) == 0
    with (tmp_path / "species.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["species", "count"], ["a,b", "2"], ["roe deer", "1"], ['say "hi"', "1"],
                    ["two\nlines", "1"]]


# --- corr ---


def test_corr_reports_coefficients(tmp_path: Path, capsys) -> None:
    code = main(
        ["corr", "--accidents", ACCIDENTS, "--traffic", TRAFFIC, "--speeds", SPEEDS,
         "--out-dir", str(tmp_path), *PERIOD_FLAGS]
    )
    assert code == 0
    doc = json.loads((tmp_path / "correlation.json").read_text())
    assert doc["n"] == 37
    assert -1.0 <= doc["pearson"] <= 1.0
    assert "pearson:" in capsys.readouterr().out


def test_corr_constant_speed_is_a_computation_error(tmp_path: Path, capsys) -> None:
    flat = tmp_path / "flat.csv"
    flat.write_text(
        "line,km_from,km_to,vmax\n139,0.0,60.0,100\n1,0.0,45.0,100\n140,0.0,80.0,100\n"
    )
    code = main(
        ["corr", "--accidents", ACCIDENTS, "--traffic", TRAFFIC, "--speeds", str(flat),
         "--out-dir", str(tmp_path), *PERIOD_FLAGS]
    )
    assert code == 1
    assert "constant" in capsys.readouterr().err


# --- eval ---


def test_eval_scores_holdout(tmp_path: Path, fitted: Path, capsys) -> None:
    code = main(
        ["eval", "--model", str(fitted), "--traffic", TRAFFIC, "--test", TEST_ACCIDENTS,
         "--theta", "0.001", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "eval.json").read_text())
    assert doc["theta"] == 0.001
    assert doc["n_test"] == 120
    assert doc["n_unmapped"] == 0
    out = capsys.readouterr().out
    assert "hit_rate=" in out
    assert "curve" in out


def test_eval_counts_unmappable_accidents(tmp_path: Path, fitted: Path) -> None:
    stray = tmp_path / "stray.csv"
    stray.write_text(
        "date,time,line,km,species\n"
        "2023-02-01,18:30,999,1.0,roe deer\n"
        "2023-02-02,05:15,139,12.0,roe deer\n"
    )
    code = main(
        ["eval", "--model", str(fitted), "--traffic", TRAFFIC, "--test", str(stray),
         "--out-dir", str(tmp_path)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "eval.json").read_text())
    assert doc["n_unmapped"] == 1
    assert doc["n_mapped"] == 1


def test_eval_adjacent_flag(tmp_path: Path, fitted: Path) -> None:
    code = main(
        ["eval", "--model", str(fitted), "--traffic", TRAFFIC, "--test", TEST_ACCIDENTS,
         "--adjacent", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "eval.json").read_text())
    assert doc["include_adjacent"] is True


def test_eval_rejects_non_finite_theta(tmp_path: Path, fitted: Path, capsys) -> None:
    base = ["eval", "--model", str(fitted), "--traffic", TRAFFIC, "--test", TEST_ACCIDENTS,
            "--out-dir", str(tmp_path)]
    for value in ("nan", "inf", "-inf"):
        assert_input_error(main(base + [f"--theta={value}"]), capsys)
    config = tmp_path / "config.json"
    for text in ('{"theta": NaN}', '{"theta": Infinity}', '{"theta": "nan"}'):
        config.write_text(text)
        assert_input_error(main(base + ["--config", str(config)]), capsys)
    assert not (tmp_path / "eval.json").exists()


def test_eval_adjacent_from_config_must_be_boolean(tmp_path: Path, fitted: Path, capsys) -> None:
    base = ["eval", "--model", str(fitted), "--traffic", TRAFFIC, "--test", TEST_ACCIDENTS,
            "--out-dir", str(tmp_path)]
    config = tmp_path / "config.json"
    for value in ("no", "false", 0, 1, None, []):
        config.write_text(json.dumps({"adjacent": value}))
        assert_input_error(main(base + ["--config", str(config)]), capsys)
    assert not (tmp_path / "eval.json").exists()
    for value in (False, True):
        config.write_text(json.dumps({"adjacent": value}))
        assert main(base + ["--config", str(config)]) == 0
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert doc["include_adjacent"] is value


def test_no_command_builds_records(tmp_path: Path, capsys) -> None:
    # every command reads the accident columns only
    out = str(tmp_path)
    commands = (*GOLDEN_COMMANDS, ("profile", ["--accidents", ACCIDENTS], ()))
    with no_records():
        for command, args, _ in commands:
            argv = [command, *(a.replace("{out}", out) for a in args), "--out-dir", out]
            assert main(argv) == 0, capsys.readouterr().err


# --- argument plumbing ---


def test_benchmark_api_resolves() -> None:
    # perfbench/ read as text: these are the names it calls
    bench = DATA_DIR.parent / "perfbench"
    worker = ast.parse((bench / "worker.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(worker)
        if isinstance(node, ast.ImportFrom) and node.module == "wildrail"
        for alias in node.names
    ]
    assert imported and all(hasattr(wildrail, name) for name in imported), imported
    shim = ast.parse((bench / "clishim.py").read_text(encoding="utf-8"))
    [traced] = [
        ast.literal_eval(node.value)
        for node in shim.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["TRACED"]
    ]
    assert all(hasattr(wildrail.cli, name) for names in traced.values() for name in names)
    for module in (wildrail, wildrail.ingest, wildrail.model, wildrail.warn, wildrail.analysis,
                   wildrail.cli):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_benchmark_pass_runs_on_a_tiny_network(tmp_path: Path, monkeypatch) -> None:
    # one holdout-analytics pass of the benchmark worker, on 4 lines of 40 km
    monkeypatch.syspath_prepend(str(DATA_DIR.parent / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    synth = importlib.import_module("synth")
    worker = importlib.import_module("worker")
    workload = worker.HoldoutAnalytics(synth.generate(str(tmp_path), 3, 4, 40.0, 600, 300))
    checks = worker.Checks()
    workload.check(workload.run_pass(worker.direct), checks)
    assert checks.failed == 0 and checks.messages == [], checks.messages


def json_paths(node, path: tuple = ()):
    """The path to every value of a JSON document, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_paths(child, path + (key,))


def replaced(doc, path: tuple, value):
    """A copy of ``doc`` with the value at ``path`` replaced."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# the committed files a hostile value goes into, and the commands that read each
HOSTILE_FILES = {"model": (MODEL, ("warn", "eval")), "geometry": (GEOMETRY, ("warn", "map"))}
# small values only, so no example can ask for a huge grid
HOSTILE_VALUES = (None, True, "x", [], {}, -1, 0, 1.5)


@settings(max_examples=40, derandomize=True)
@given(data=st.data())
def test_hostile_file_contents_fail_in_one_line(data) -> None:
    option = data.draw(st.sampled_from(sorted(HOSTILE_FILES)))
    source, commands = HOSTILE_FILES[option]
    doc = json.loads(Path(source).read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    value = data.draw(st.sampled_from(HOSTILE_VALUES))
    command = data.draw(st.sampled_from(commands))
    with tempfile.TemporaryDirectory() as tmp:
        files = {"model": MODEL, "geometry": GEOMETRY, option: str(Path(tmp) / "hostile.json")}
        Path(files[option]).write_text(json.dumps(replaced(doc, path, value)))
        inputs = {
            "warn": ["--model", files["model"], "--traffic", TRAFFIC,
                     "--geometry", files["geometry"]],
            "eval": ["--model", files["model"], "--traffic", TRAFFIC, "--test", TEST_ACCIDENTS],
            "map": ["--accidents", ACCIDENTS, "--geometry", files["geometry"]],
        }[command]
        out_dir = Path(tmp) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([command, *inputs, "--out-dir", str(out_dir)])
        if code != 0:
            err = stderr.getvalue().splitlines()
            assert code in (1, 2), (path, value, code)
            assert len(err) == 1 and err[0].startswith("error:"), (path, value, err)
            assert not out_dir.exists(), (path, value)


LINES = ("139", "140", "1", "999")
# per CSV input: its header and, for each field, values a valid row may hold
CSV_FIELDS = {
    "accidents": ("date,time,line,km,species", (
        ("2020-01-05", "2021-07-31", "2022-12-31", "2020-02-29"),
        ("00:00", "18:45", "23:59", "7:5"),
        LINES,
        ("0", "3", "12.5", "40"),
        ("roe deer", "", '"boar, wild"'))),
    "traffic": ("line,km_from,count", (LINES, ("0", "5", "10.0", "40"), ("0", "12", "131.5"))),
    "traffic_runs": ("line,km_from,km_to,departure", (
        LINES, ("0", "5", "12.5"), ("20", "40.5", "60"), ("06:00", "23:59"))),
    "speeds": ("line,km_from,km_to,vmax", (LINES, ("0", "30"), ("30", "60"), ("80", "120.5"))),
}
# what a field may hold instead: malformed, out of range, or off any small grid
HOSTILE_FIELDS = ("", " ", "x", "nan", "inf", "-inf", "-1", "0x10", '"1,2"', '"', "\u00e9",
                  "1e308", "1e-320", "1e6", "7.5", "2019-12-31", "2020-02-30", "24:00")


def csv_text(kind: str) -> st.SearchStrategy[str]:
    """CSV text for one of the four CSV inputs: mostly well-formed rows, a few mangled."""
    header, fields = CSV_FIELDS[kind]
    valid = st.tuples(*(st.sampled_from(values) for values in fields)).map(list)
    hostile = st.builds(
        lambda cells, i, value: cells[:i] + [value] + cells[i + 1:],
        valid, st.integers(0, len(fields) - 1), st.sampled_from(HOSTILE_FIELDS),
    )
    row = st.one_of(valid, valid, hostile).map(",".join)
    broken_row = st.sampled_from(["", "139", ",".join(["1"] * (len(fields) + 1)), '"open'])
    head = st.sampled_from([header] * 9 + [header.upper(), header.replace(",", ";"), ""])
    rows = st.lists(st.one_of(row, row, row, row, broken_row), min_size=1, max_size=6)
    return st.builds(lambda h, body: "\n".join([h, *body]) + "\n", head, rows)


# the command forms that read generated CSV, and the inputs each reads
GENERATED_FORMS = {
    "fit": ["fit", "--accidents", "{accidents}"],
    "warn --traffic": ["warn", "--model", MODEL, "--traffic", "{traffic}"],
    "warn --traffic runs": ["warn", "--model", MODEL, "--traffic", "{traffic_runs}"],
    "eval": ["eval", "--model", MODEL, "--traffic", "{traffic}", "--test", "{accidents}"],
    "map": ["map", "--accidents", "{accidents}", "--geometry", GEOMETRY],
    "corr --traffic": ["corr", "--accidents", "{accidents}", "--traffic", "{traffic}",
                       "--speeds", "{speeds}"],
    "corr --traffic runs": ["corr", "--accidents", "{accidents}", "--traffic", "{traffic_runs}",
                            "--speeds", "{speeds}"],
    "profile": ["profile", "--accidents", "{accidents}"],
}


# a failing example is reported as drawn, unshrunk, so a failure reads in seconds
@settings(max_examples=300, derandomize=True, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(data=st.data())
def test_generated_csv_inputs_keep_the_exit_code_contract(data) -> None:
    form = data.draw(st.sampled_from(sorted(GENERATED_FORMS)))
    period = data.draw(st.sampled_from([[], PERIOD_FLAGS]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: str(Path(tmp) / f"{kind}.csv") for kind in CSV_FIELDS}
        argv = [arg.format(**paths) for arg in GENERATED_FORMS[form]]
        for kind, path in paths.items():
            if path in argv:
                Path(path).write_text(data.draw(csv_text(kind)), encoding="utf-8")
        if "--accidents" in argv or "--test" in argv:
            argv += period
        out_dir = Path(tmp) / "out"
        stderr = io.StringIO()
        # a grid a little larger than the bundled model's 10,656 cells
        with mock.patch.object(wildrail.model, "MAX_GRID_CELLS", 20_000), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out-dir", str(out_dir)])
        event(f"{form}: exit {code}")
        assert code in (0, 1, 2), (argv, code)
        if code != 0:
            err = stderr.getvalue().splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), (argv, err)
            assert not out_dir.exists(), argv


def test_no_command_prints_help() -> None:
    assert main([]) == 2


def test_parse_seasons_spec() -> None:
    scheme = parse_seasons_spec("short=11,12,1,2;long=5,6,7,8;mid=3,4,9,10")
    assert scheme.season_of(12) == "short"
    assert scheme.season_of(7) == "long"
    with pytest.raises(ValueError):
        parse_seasons_spec("")
    with pytest.raises(ValueError):
        parse_seasons_spec("a=1,2,3")  # months missing
    with pytest.raises(ValueError):
        parse_seasons_spec("a=1,x")
    with pytest.raises(ValueError):
        parse_seasons_spec("a=1,2;a=3,4")


def test_parse_thresholds_spec() -> None:
    assert parse_thresholds_spec("0.0005,0.001") == (0.0005, 0.001)
    assert parse_thresholds_spec([0.001, 0.002]) == (0.001, 0.002)
    with pytest.raises(ValueError):
        parse_thresholds_spec("0.002,0.001")
    with pytest.raises(ValueError):
        parse_thresholds_spec("0.001,0.001")
    with pytest.raises(ValueError):
        parse_thresholds_spec("")
    with pytest.raises(ValueError):
        parse_thresholds_spec("-0.1,0.2")
    with pytest.raises(ValueError):  # a config value that is neither a string nor a list
        parse_thresholds_spec(5)


# --- the option table ---


def flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_exactly_the_options_a_command_reads(command: str, capsys) -> None:
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.M)
    assert sorted(listed) == sorted(["--help", "--config", *map(flag, COMMANDS[command][2])])


# one flag per command that the command has no use for
UNREAD_FLAGS = {
    "fit": ["--thresholds", "0.001"],
    "warn": ["--delta-x", "5"],
    "map": ["--delta-t", "7"],
    "profile": ["--days-per-year", "365"],
    "corr": ["--seasons", "a=1,2,3,4,5,6;b=7,8,9,10,11,12"],
    "eval": ["--delta-x", "5"],
}


SMALL_ACCIDENTS = "date,time,line,km,species\n" + "".join(
    f"{year}-{month:02d}-{day:02d},{hour:02d}:30,9,{km},roe deer\n"
    for year in (2021, 2022)
    for month in range(1, 13)
    for day, hour, km in ((3, month + 4, (month * 1.7) % 20), (17, 23 - month, (month * 3.1) % 20))
)


@pytest.fixture(scope="module")
def small_config(tmp_path_factory) -> dict[str, dict]:
    """A base config per command on a one-line, 20 km network; every run exits 0."""
    root = tmp_path_factory.mktemp("small")
    train = "".join(row for row in SMALL_ACCIDENTS.splitlines(True) if not row.startswith("2022"))
    test = "".join(row for row in SMALL_ACCIDENTS.splitlines(True) if not row.startswith("2021"))
    files = {
        "train.csv": train,
        "test.csv": test,
        "traffic.csv": "line,km_from,count\n9,0,40\n9,5,60\n9,10,20\n9,15,90\n",
        "speeds.csv": "line,km_from,km_to,vmax\n9,0,5,80\n9,5,10,100\n9,10,15,140\n9,15,20,60\n",
        "lines.geojson": json.dumps({"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"line": "9", "km": [0.0, 20.0]},
            "geometry": {"type": "LineString", "coordinates": [[19.0, 50.0], [19.2, 50.1]]},
        }]}),
    }
    paths = {name: str(root / name) for name in files}
    for name, text in files.items():
        (root / name).write_text(text)
    train_period = {"period_start": "2021-01-01", "period_end": "2021-12-31"}
    accidents = {"accidents": paths["train.csv"], **train_period}
    paths["model.json"] = str(root / "model.json")
    assert main(["fit", "--accidents", paths["train.csv"], "--out", paths["model.json"]]) == 0
    grid_inputs = {"model": paths["model.json"], "traffic": paths["traffic.csv"]}
    return {
        "fit": {**accidents, "out_dir": "out"},
        "warn": {**grid_inputs, "geometry": paths["lines.geojson"], "out_dir": "out"},
        "map": {**accidents, "geometry": paths["lines.geojson"], "out_dir": "out"},
        "profile": {**accidents, "out_dir": "out"},
        "corr": {**accidents, "traffic": paths["traffic.csv"], "speeds": paths["speeds.csv"],
                 "out_dir": "out"},
        "eval": {**grid_inputs, "test": paths["test.csv"], "period_start": "2022-01-01",
                 "period_end": "2022-12-31", "out_dir": "out"},
    }


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_flags_a_command_does_not_read_are_rejected(
    command: str, small_config, tmp_path: Path, monkeypatch, capsys
) -> None:
    assert UNREAD_FLAGS[command][0] not in map(flag, COMMANDS[command][2])
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_config[command]))
    assert_input_error(main([command, "--config", str(config), *UNREAD_FLAGS[command]]), capsys)
    assert not (tmp_path / "out").exists()
    assert main([command, "--config", str(config)]) == 0


# one value of every JSON type
JSON_VALUES = (None, True, 3, 0.5, "x", [1], {"x": 1})


@pytest.mark.parametrize(
    "command,name", [(command, name) for command in COMMANDS for name in COMMANDS[command][2]]
)
def test_every_config_value_is_used_or_rejected_in_one_line(
    command: str, name: str, small_config, tmp_path: Path, monkeypatch, capsys
) -> None:
    def guarded_open(file, *args, **kwargs):
        assert isinstance(file, str), f"open({file!r})"  # never a file descriptor
        return open(file, *args, **kwargs)

    monkeypatch.setattr(wildrail.cli, "open", guarded_open, raising=False)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_config[command]))
    assert main([command, "--config", str(config)]) == 0, capsys.readouterr().err
    for value in JSON_VALUES:
        for path in sorted(work.rglob("*"), reverse=True):
            path.unlink() if path.is_file() else path.rmdir()
        capsys.readouterr()
        config.write_text(json.dumps({**small_config[command], name: value}))
        code = main([command, "--config", str(config)])
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2), (value, err)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error:"), (value, err)
            assert not any(work.iterdir()), value
    # a present null is never taken for "use the default"
    config.write_text(json.dumps({**small_config[command], name: None}))
    assert_input_error(main([command, "--config", str(config)]), capsys)


def test_config_keys_a_command_does_not_read_are_ignored(
    small_config, tmp_path: Path, monkeypatch
) -> None:
    # one config file can serve every command
    monkeypatch.chdir(tmp_path)
    for command, base in small_config.items():
        unread = {name: {"x": [None]} for name in OPTIONS if name not in COMMANDS[command][2]}
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps({**unread, **base}))
        assert main([command, "--config", str(config)]) == 0, command

"""End-to-end command-line runs against the bundled example data."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from wildrail import (
    DEFAULT_PROFILE,
    FLAG_EXCEEDS_UNITY,
    FLAG_INSUFFICIENT_DATA,
    FLAG_NO_TRAFFIC,
    TrafficTable,
    model_from_json,
    sweep_all,
)
from wildrail.cli import DEFAULT_THRESHOLDS, main, parse_seasons_spec, parse_thresholds_spec
from conftest import DATA_DIR, no_records
from test_golden import COMMANDS as GOLDEN_COMMANDS

ACCIDENTS = str(DATA_DIR / "accidents_2020_2022.csv")
TEST_ACCIDENTS = str(DATA_DIR / "accidents_2023_test.csv")
TRAFFIC = str(DATA_DIR / "traffic.csv")
SPEEDS = str(DATA_DIR / "speeds.csv")
GEOMETRY = str(DATA_DIR / "lines.geojson")

FLAGS = (FLAG_NO_TRAFFIC, FLAG_INSUFFICIENT_DATA, FLAG_EXCEEDS_UNITY)

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


def test_fit_rejects_malformed_rows_with_location(tmp_path: Path, capsys) -> None:
    bad = tmp_path / "bad.csv"
    bad.write_text("date,time,line,km,species\n2020-01-01,25:00,139,1.0,\n")
    assert main(["fit", "--accidents", str(bad), *PERIOD_FLAGS]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert str(bad) in err


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
        ["warn", "--model", str(fitted), "--traffic-runs", str(runs), "--out-dir", str(tmp_path)]
    )
    assert code == 0
    with (tmp_path / "warnings.csv").open() as fh:
        rows = list(csv.reader(fh))
    by_line = {r[0] for r in rows[1:]}
    assert by_line == {"1", "139", "140"}  # model lines survive even without runs


def test_warn_traffic_source_must_be_unambiguous(tmp_path: Path, fitted: Path) -> None:
    assert main(["warn", "--model", str(fitted), "--out-dir", str(tmp_path)]) == 2
    assert (
        main(
            ["warn", "--model", str(fitted), "--traffic", TRAFFIC,
             "--traffic-runs", TRAFFIC, "--out-dir", str(tmp_path)]
        )
        == 2
    )


def test_warn_rejects_traffic_on_a_different_grid(tmp_path: Path, fitted: Path, capsys) -> None:
    off_grid = tmp_path / "traffic25.csv"
    off_grid.write_text("line,km_from,count\n139,2.5,100\n")
    code = main(
        ["warn", "--model", str(fitted), "--traffic", str(off_grid), "--out-dir", str(tmp_path)]
    )
    assert code == 2
    assert "aligned" in capsys.readouterr().err


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
        TrafficTable(counts={("139", 10.0): 131.0}, delta_x=5.0),
        DEFAULT_PROFILE,
        DEFAULT_THRESHOLDS,
    )
    counts = {flag: grid.flagged_cells(flag) for flag in FLAGS}
    assert counts[FLAG_NO_TRAFFIC] == grid.n_cells() - grid.traffic_positive_cells()
    assert counts[FLAG_NO_TRAFFIC] > 0
    expected = "flagged cells: " + " ".join(f"{flag}={n}" for flag, n in counts.items())
    assert expected in capsys.readouterr().out.splitlines()


def test_warn_rejects_map_filters_that_match_nothing(tmp_path: Path, fitted: Path, capsys) -> None:
    base = ["warn", "--model", str(fitted), "--traffic", TRAFFIC, "--geometry", GEOMETRY,
            "--out-dir", str(tmp_path)]
    assert_input_error(main(base + ["--month", "13"]), capsys)
    assert_input_error(main(base + ["--hour", "25"]), capsys)
    for key, value in (("month", 13), ("hour", 25), ("month", [1]), ("hour", "noon")):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({key: value}))
        assert_input_error(main(base + ["--config", str(config)]), capsys)
    assert not (tmp_path / "warnings.geojson").exists()


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

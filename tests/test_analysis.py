"""Hex binning, profiles, speed correlation, hold-out evaluation."""

from __future__ import annotations

import datetime as dt
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildrail import (
    DEFAULT_PROFILE,
    DEFAULT_SEASONS,
    AccidentRecord,
    BinConfig,
    Dataset,
    SpeedProfile,
    TrafficTable,
    UndefinedCorrelationError,
    correlation_to_json,
    eval_report_to_json,
    evaluate_holdout,
    fit,
    hex_bin,
    hex_grid_to_geojson,
    hourly_profile,
    parse_accidents,
    species_profile,
    speed_correlation,
    sweep_all,
)
from wildrail import analysis
from wildrail.analysis import EvalReport, HexGrid, KM_PER_DEGREE, _pearson, _spearman
from oracles import (
    cell_of,
    evaluate_holdout_loop,
    hex_bin_loop,
    nearest_center_exhaustive,
    pearson_manual,
    spearman_manual,
)
from conftest import DATA_DIR, make_synthetic, no_records

PERIOD = (dt.date(2020, 1, 1), dt.date(2022, 12, 31))


def record(month: int = 1, hour: int = 18, line: str = "139", km: float = 12.0,
           species: str = "roe deer", minute: int = 0, day: int = 5) -> AccidentRecord:
    return AccidentRecord(
        date=dt.date(2020, month, day), time=hour * 60 + minute, line=line, km=km, species=species
    )


def dataset(records) -> Dataset:
    return Dataset.from_records(tuple(records), *PERIOD)


# --- hexagonal binning ---


def test_hex_lattice_geometry() -> None:
    grid = HexGrid(spacing=2.0, lat0=50.0, lon0=19.0, cells={})
    v = grid.vertical_step
    assert v == pytest.approx(4.0 / math.sqrt(3.0))
    assert grid.center_xy(0, 0) == (0.0, 0.0)
    assert grid.center_xy(2, 1) == (4.0, v)
    assert grid.center_xy(1, 0) == (2.0, 0.5 * v)  # odd columns shift half a step


def assign_one(grid: HexGrid, x: float, y: float) -> tuple[int, int]:
    """``HexGrid.assign`` on a one-element array."""
    cols, rows = grid.assign(np.array([x]), np.array([y]))
    return (int(cols[0]), int(rows[0]))


def test_hex_projection_round_trip() -> None:
    grid = HexGrid(spacing=2.5, lat0=50.1, lon0=19.2, cells={})
    for lat, lon in [(50.1, 19.2), (50.0, 18.9), (50.3, 19.5)]:
        x, y = grid.project(lat, lon)
        back = grid.unproject(x, y)
        assert back[0] == pytest.approx(lat, abs=1e-12)
        assert back[1] == pytest.approx(lon, abs=1e-12)
    x, y = grid.project(50.1, 19.2)
    assert (x, y) == (0.0, 0.0)
    # one degree of latitude spans the same km at any longitude
    assert grid.project(51.1, 19.2)[1] == pytest.approx(KM_PER_DEGREE)


@given(
    x=st.floats(min_value=-80.0, max_value=80.0, allow_nan=False),
    y=st.floats(min_value=-80.0, max_value=80.0, allow_nan=False),
    spacing=st.sampled_from([1.0, 2.5, 5.0]),
)
def test_hex_assignment_matches_exhaustive_search(x: float, y: float, spacing: float) -> None:
    grid = HexGrid(spacing=spacing, lat0=50.0, lon0=19.0, cells={})
    assert assign_one(grid, x, y) == nearest_center_exhaustive(x, y, spacing)


@given(
    x=st.floats(min_value=-80.0, max_value=80.0, allow_nan=False),
    y=st.floats(min_value=-80.0, max_value=80.0, allow_nan=False),
)
def test_hex_assignment_is_within_cover_radius(x: float, y: float) -> None:
    grid = HexGrid(spacing=2.5, lat0=50.0, lon0=19.0, cells={})
    col, row = assign_one(grid, x, y)
    cx, cy = grid.center_xy(col, row)
    cover = grid.vertical_step / math.sqrt(3.0)  # circumradius of the hex cell
    assert math.hypot(x - cx, y - cy) <= cover * (1 + 1e-9)


@pytest.mark.parametrize("spacing", [1.0, 2.5, 5.0])
def test_hex_assignment_breaks_exact_ties_toward_smallest_cell(spacing: float) -> None:
    grid = HexGrid(spacing=spacing, lat0=50.0, lon0=19.0, cells={})
    v = grid.vertical_step
    # points on the edges between neighbouring cells, on both sides of the
    # origin; most are exactly equidistant from two centres in floating point,
    # so the tie rule decides them
    ties = []
    for col in (-3, -2, -1, 0, 1, 2):
        for row in (-2, -1, 0, 1):
            cx, cy = grid.center_xy(col, row)
            ties += [
                (cx, cy + v / 2),  # between (col, row) and (col, row + 1)
                (cx + spacing / 2, cy + v / 4),  # between two columns
                (cx + spacing / 2, cy - v / 4),
                (cx - spacing / 2, cy + v / 4),
            ]
    xs = np.array([x for x, _ in ties])
    ys = np.array([y for _, y in ties])
    cols, rows = grid.assign(xs, ys)
    expected = [nearest_center_exhaustive(x, y, spacing) for x, y in ties]
    assert list(zip(cols.tolist(), rows.tolist())) == expected
    assert [assign_one(grid, x, y) for x, y in ties] == expected


def assert_same_hex_grid(points, spacing: float) -> None:
    grid = hex_bin(points, spacing)
    assert grid == HexGrid(**hex_bin_loop(points, spacing))
    assert list(grid.cells) == list(hex_bin_loop(points, spacing)["cells"])


@given(
    points=st.lists(
        st.tuples(
            st.floats(min_value=49.0, max_value=51.0, allow_nan=False),
            st.floats(min_value=18.0, max_value=21.0, allow_nan=False),
        ),
        max_size=40,
    ),
    repeats=st.integers(min_value=1, max_value=3),
    spacing=st.sampled_from([0.5, 2.5, 10.0]),
    block=st.sampled_from([1, 3, 1 << 15]),
)
def test_hex_bin_matches_point_loop(points, repeats: int, spacing: float, block: int) -> None:
    # repeated points share cells; small blocks put seams between them
    points = points * repeats
    with mock.patch.object(analysis, "_BLOCK", block):
        assert_same_hex_grid(points, spacing)


def test_hex_bin_matches_point_loop_across_block_seams() -> None:
    rng = np.random.default_rng(11)
    n = 2 * analysis._BLOCK + 5
    lats = 50.0 + rng.normal(0.0, 0.2, n)
    lons = 19.0 + rng.normal(0.0, 0.3, n)
    assert_same_hex_grid(list(zip(lats.tolist(), lons.tolist())), 2.5)


def test_hex_bin_empty_and_single_point() -> None:
    assert_same_hex_grid([], 2.5)
    assert_same_hex_grid([(50.2, 19.7)], 2.5)
    assert hex_bin([(50.2, 19.7)], 2.5).cells == {(0, 0): 1}


def test_hex_bin_counts_points() -> None:
    center = (50.0, 19.0)
    near = (50.001, 19.001)
    far = (50.3, 19.4)
    grid = hex_bin([center, near, far], spacing=2.5)
    assert grid.total == 3
    assert len(grid.cells) == 2
    assert sorted(grid.cells.values()) == [1, 2]
    assert hex_bin([], spacing=2.5).total == 0
    with pytest.raises(ValueError):
        hex_bin([center], spacing=0.0)


def test_hex_geojson_rings() -> None:
    grid = hex_bin([(50.0, 19.0), (50.001, 19.001), (50.3, 19.4)], spacing=2.5)
    doc = json.loads(hex_grid_to_geojson(grid))
    assert doc["type"] == "FeatureCollection"
    assert sum(f["properties"]["count"] for f in doc["features"]) == 3
    radius = grid.vertical_step / math.sqrt(3.0)
    for feature in doc["features"]:
        ring = feature["geometry"]["coordinates"][0]
        assert len(ring) == 7
        assert ring[0] == ring[-1]
        cx, cy = grid.center_xy(feature["properties"]["col"], feature["properties"]["row"])
        for lon, lat in ring[:-1]:
            x, y = grid.project(lat, lon)
            assert math.hypot(x - cx, y - cy) == pytest.approx(radius, rel=1e-9)


# --- species and hourly profiles ---


def test_species_profile_orders_and_groups() -> None:
    data = dataset(
        [record(species="roe deer"), record(species="roe deer"), record(species="wild boar"),
         record(species=" "), record(species=""), record(species="boar", day=6)]
    )
    profile = species_profile(data)
    assert list(profile.items())[0] == ("roe deer", 2)
    assert profile["unknown"] == 2
    assert list(profile) == ["roe deer", "unknown", "boar", "wild boar"]


def test_hourly_profile_is_dense(bundled_data) -> None:
    profile = hourly_profile(bundled_data, DEFAULT_SEASONS)
    labels = DEFAULT_SEASONS.labels
    assert set(profile) == {(label, h) for label in labels for h in range(24)}
    assert sum(profile.values()) == bundled_data.n
    short_label = DEFAULT_SEASONS.season_of(1)
    assert profile[(short_label, 18)] == 37
    assert sum(profile[(short_label, h)] for h in range(24)) == 338


# --- speed correlation ---


def linear_setup(n_bins: int = 6):
    # acc-per-train rises exactly linearly with speed
    traffic = TrafficTable(
        counts={("7", i * 5.0): 50.0 for i in range(n_bins)}, delta_x=5.0
    )
    speeds = {
        "7": SpeedProfile(
            line="7",
            intervals=tuple((i * 5.0, (i + 1) * 5.0, 60.0 + 10.0 * i) for i in range(n_bins)),
        )
    }
    records = []
    for i in range(n_bins):
        for k in range(5 + 5 * i):  # 5 accidents per 10 km/h step
            records.append(
                record(month=1 + k % 12, line="7", km=i * 5.0 + 0.5 + (k % 4), day=1 + k % 28)
            )
    return dataset(records), traffic, speeds


def test_speed_correlation_exact_linear_relation() -> None:
    data, traffic, speeds = linear_setup()
    report = speed_correlation(data, traffic, speeds, delta_x=5.0)
    assert report.n == 6
    assert report.pearson == pytest.approx(1.0, abs=1e-12)
    assert report.spearman == pytest.approx(1.0, abs=1e-12)
    for i, (line, x_from, speed, risk) in enumerate(report.pairs):
        assert (line, x_from, speed) == ("7", i * 5.0, 60.0 + 10.0 * i)
        assert risk == (5 + 5 * i) / 50.0


def test_speed_correlation_matches_manual_formulas(bundled_data, bundled_traffic, bundled_speeds) -> None:
    report = speed_correlation(bundled_data, bundled_traffic, bundled_speeds, delta_x=5.0)
    xs = [pair[2] for pair in report.pairs]
    ys = [pair[3] for pair in report.pairs]
    assert report.pearson == pytest.approx(pearson_manual(xs, ys), rel=1e-12)
    assert report.spearman == pytest.approx(spearman_manual(xs, ys), rel=1e-12)
    assert report.n == len(report.pairs) == 37  # every bundled traffic bin has a speed


def test_correlations_reproduce_scipy_bit_for_bit() -> None:
    # the coefficients follow scipy's own arithmetic; scipy is not a dependency,
    # so this cross-check runs only where it happens to be installed
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(20240601)
    for i in range(400):
        n = int(rng.integers(3, 120))
        if i % 2:  # few distinct speeds and many zero risks: heavy ties
            x = rng.choice([60.0, 80.0, 100.0, 120.0, 160.0], n)
            y = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.integers(1, 9, n) / rng.integers(10, 300, n))
        else:
            x = rng.standard_normal(n) * 1e3
            y = rng.exponential(size=n) * 1e-4 + 1e-7 * x
        if x.min() == x.max() or y.min() == y.max():
            continue
        assert _pearson(x, y) == float(stats.pearsonr(x, y).statistic)
        assert _spearman(x, y) == float(stats.spearmanr(x, y).statistic)


def test_speed_correlation_drops_uncovered_bins() -> None:
    data, traffic, speeds = linear_setup()
    # no speed interval past km 20: bins 4 and 5 fall out
    speeds_short = {"7": SpeedProfile(line="7", intervals=speeds["7"].intervals[:4])}
    report = speed_correlation(data, traffic, speeds_short, delta_x=5.0)
    assert report.n == 4
    assert all(pair[1] < 20.0 for pair in report.pairs)


def test_speed_correlation_guards() -> None:
    data, traffic, speeds = linear_setup()
    with pytest.raises(ValueError):
        speed_correlation(data, traffic, speeds, delta_x=2.5)
    with pytest.raises(ValueError):  # zero usable bins
        speed_correlation(data, traffic, {}, delta_x=5.0)
    flat_speed = {
        "7": SpeedProfile(line="7", intervals=((0.0, 30.0, 100.0),))
    }
    with pytest.raises(UndefinedCorrelationError):
        speed_correlation(data, traffic, flat_speed, delta_x=5.0)
    flat_risk = dataset([record(line="7", km=i * 5.0 + 1.0, day=1 + i) for i in range(6)])
    with pytest.raises(UndefinedCorrelationError):
        speed_correlation(flat_risk, traffic, speeds, delta_x=5.0)


def test_correlation_json_layout() -> None:
    data, traffic, speeds = linear_setup()
    report = speed_correlation(data, traffic, speeds, delta_x=5.0)
    doc = json.loads(correlation_to_json(report))
    assert set(doc) == {"n", "pearson", "spearman", "pairs"}
    assert doc["n"] == 6
    assert doc["pairs"][0] == ["7", 0.0, 60.0, 0.1]


# --- hold-out evaluation ---


@pytest.fixture(scope="module")
def eval_grid(bundled_model, bundled_traffic):
    return sweep_all(bundled_model, bundled_traffic, DEFAULT_PROFILE, (0.0005, 0.001, 0.002))


def test_holdout_maps_and_scores(eval_grid, bundled_test_data) -> None:
    report = evaluate_holdout(eval_grid, bundled_test_data, 0.0005)
    assert report.n_test == 120
    assert report.n_mapped + report.n_unmapped == 120
    assert report.n_unmapped == 0
    assert report.hits == round(report.hit_rate * report.n_mapped)
    assert 0.0 <= report.warned_fraction <= 1.0
    thetas = [point[0] for point in report.curve]
    assert thetas == sorted(thetas)
    assert 0.0005 in thetas and 0.001 in thetas and 0.002 in thetas
    # warned_fraction must fall as the threshold rises
    fractions = [point[1] for point in report.curve]
    assert fractions == sorted(fractions, reverse=True)


def test_holdout_counts_unknown_locations_as_unmapped(eval_grid) -> None:
    strays = dataset(
        [
            record(line="999"),  # unknown line
            record(line="139", km=500.0),  # beyond any bin
            record(line="139", km=12.0),  # maps fine
        ]
    )
    report = evaluate_holdout(eval_grid, strays, 0.001)
    assert report.n_mapped == 1
    assert report.n_unmapped == 2


def test_holdout_adjacent_mode_can_only_help(eval_grid, bundled_test_data) -> None:
    exact = evaluate_holdout(eval_grid, bundled_test_data, 0.001)
    relaxed = evaluate_holdout(eval_grid, bundled_test_data, 0.001, include_adjacent=True)
    assert relaxed.hit_rate >= exact.hit_rate
    assert relaxed.warned_fraction == exact.warned_fraction
    assert relaxed.include_adjacent


def test_holdout_requested_theta_joins_the_curve(eval_grid, bundled_test_data) -> None:
    report = evaluate_holdout(eval_grid, bundled_test_data, 0.00071)
    match = [point for point in report.curve if point[0] == 0.00071]
    assert len(match) == 1
    assert match[0][1] == report.warned_fraction
    assert match[0][2] == report.hit_rate


def test_holdout_guards(eval_grid) -> None:
    empty = Dataset.from_records((), *PERIOD)
    with pytest.raises(ValueError):
        evaluate_holdout(eval_grid, empty, 0.001)
    strays = dataset([record()])
    with pytest.raises(ValueError):
        evaluate_holdout(eval_grid, strays, -0.1)


def test_holdout_respects_final_edge_clamp(eval_grid) -> None:
    # km exactly at the end of the last bin maps into it rather than off-grid
    edge = dataset([record(line="139", km=60.0)])
    report = evaluate_holdout(eval_grid, edge, 0.001)
    assert report.n_mapped == 1


def test_holdout_rejects_non_finite_theta(eval_grid) -> None:
    strays = dataset([record()])
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            evaluate_holdout(eval_grid, strays, theta)


def assert_same_report(grid, test: Dataset, theta: float) -> None:
    for adjacent in (False, True):
        report = evaluate_holdout(grid, test, theta, include_adjacent=adjacent)
        assert report == EvalReport(**evaluate_holdout_loop(grid, test.records, theta, adjacent))


@settings(max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    delta_t=st.sampled_from([1.0, 0.5, 0.25]),
    block=st.sampled_from([1, 4, 1 << 15]),
    data=st.data(),
)
def test_holdout_matches_record_loop(seed: int, delta_t: float, block: int, data) -> None:
    train, traffic = make_synthetic(np.random.default_rng(seed), max_records=200)
    model = fit(train, bins=BinConfig(delta_x=5.0, delta_t=delta_t))
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, (0.0005, 0.001, 0.002))
    # km choices: every bin start, each line's final edge and a step past it,
    # so adjacent bins at both ends of a line and the end-edge clamp are hit
    edges = sorted({x for starts in grid.x_starts.values() for x in starts + (starts[-1] + 5.0,)})
    km = st.one_of(
        st.sampled_from(edges + [edges[-1] + 5.0, edges[-1] + 0.1]),
        st.floats(min_value=0.0, max_value=edges[-1] + 10.0),
    )
    rows = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(grid.lines + ("999",)),  # "999" is unknown
                km,
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=0, max_value=24 * 60 - 1),
            ),
            min_size=1,
            max_size=30,
        )
    )
    records = [
        AccidentRecord(date=dt.date(2023, month, 1), time=time, line=line, km=km)
        for line, km, month, time in rows
    ]
    test = Dataset.from_records(tuple(records), dt.date(2023, 1, 1), dt.date(2023, 12, 31))
    # theta equal to a test accident's own p_pt checks that hits are strict;
    # flagged cells carry NaN and never hit
    own = [
        float(grid.p_pt[rec.line][cell])
        for rec in records
        if (cell := cell_of(grid, rec.line, rec.km, rec.date.month, rec.time / 60.0)) is not None
    ]
    thetas = [p for p in own if not math.isnan(p)] + [0.0, 0.001]
    theta = data.draw(st.sampled_from(thetas))
    with mock.patch.object(analysis, "_BLOCK", block):
        assert_same_report(grid, test, theta)


def test_holdout_matches_record_loop_across_block_seams(eval_grid, bundled_test_data) -> None:
    # the bundled hold-out set, moved along its lines and around the clock,
    # past two block seams
    rng = np.random.default_rng(5)
    base = bundled_test_data.records
    n = 2 * analysis._BLOCK + 7
    records = tuple(
        AccidentRecord(
            date=base[i % len(base)].date,
            time=int(t),
            line=base[i % len(base)].line,
            km=float(km),
        )
        for i, t, km in zip(range(n), rng.integers(0, 24 * 60, n), rng.uniform(0.0, 70.0, n))
    )
    period = (bundled_test_data.period_start, bundled_test_data.period_end)
    test = Dataset.from_records(records, *period)
    assert_same_report(eval_grid, test, 0.001)


def test_holdout_single_record_matches_record_loop(eval_grid) -> None:
    for rec in (record(), record(line="999"), record(km=60.0), record(km=0.0, hour=0)):
        assert_same_report(eval_grid, dataset([rec]), 0.0005)


def test_holdout_and_profiles_read_columns_only(eval_grid, bundled_traffic, bundled_speeds) -> None:
    # a log is parsed, scored and profiled without building any records
    with no_records(), open(DATA_DIR / "accidents_2023_test.csv", encoding="utf-8") as fh:
        test = parse_accidents(fh, (dt.date(2023, 1, 1), dt.date(2023, 12, 31)))
        evaluate_holdout(eval_grid, test, 0.001, include_adjacent=True)
        speed_correlation(test, bundled_traffic, bundled_speeds)
        species_profile(test)
        hourly_profile(test, DEFAULT_SEASONS)
        fit(test)


def test_eval_json_layout(eval_grid, bundled_test_data) -> None:
    report = evaluate_holdout(eval_grid, bundled_test_data, 0.001)
    doc = json.loads(eval_report_to_json(report))
    assert set(doc) == {
        "theta", "hit_rate", "warned_fraction", "n_test", "n_mapped",
        "n_unmapped", "hits", "include_adjacent", "curve",
    }
    assert doc["n_test"] == 120
    assert doc["theta"] == 0.001

"""Hex binning, profiles, speed correlation, hold-out evaluation."""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import math
import tracemalloc
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
    evaluate_holdout,
    fit,
    geocode,
    hex_bin,
    hex_grid_to_geojson,
    hourly_profile,
    parse_accidents,
    report_to_json,
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
    hex_geojson_loop,
    hex_grid_to_geojson_loop,
    nearest_center_exhaustive,
    pearson_manual,
    spearman_manual,
)
from conftest import DATA_DIR, dataset_of, make_synthetic, no_records, traffic_of

PERIOD = (dt.date(2020, 1, 1), dt.date(2022, 12, 31))


def record(month: int = 1, hour: int = 18, line: str = "139", km: float = 12.0,
           species: str = "roe deer", minute: int = 0, day: int = 5) -> AccidentRecord:
    return AccidentRecord(
        date=dt.date(2020, month, day), time=hour * 60 + minute, line=line, km=km, species=species
    )


def dataset(records) -> Dataset:
    return dataset_of(records, *PERIOD)


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


def test_hex_bin_matches_point_loop_past_32_bit_cells() -> None:
    # at the finest spacing, 1e-6 km, points spread over 90 degrees of longitude
    # and 50 of latitude span more than 2**32 cell columns and rows, past what a
    # 32-bit cell index could hold
    rng = np.random.default_rng(12)
    lats = 50.0 + rng.uniform(-25.0, 25.0, 150)
    lons = 19.0 + rng.uniform(-45.0, 45.0, 150)
    points = list(zip(lats.tolist(), lons.tolist()))
    points = points + points[::3] + [(50.0, 19.0)] * 4  # repeated points share a cell
    grid = hex_bin(points, 1e-6)
    cols = [col for col, _ in grid.cells]
    rows = [row for _, row in grid.cells]
    assert max(cols) - min(cols) > 2**32 and max(rows) - min(rows) > 2**32
    assert min(cols) < 0 and min(rows) < 0
    assert_same_hex_grid(points, 1e-6)


def test_hex_bin_counts_cells_that_a_packed_key_would_merge() -> None:
    # cells whose (col, row) pairs collide when packed into one int64 as
    # col * 2**32 + row, row * 2**32 + col or with 32-bit halves
    cells = [
        (0, 0), (1, -(2**32)), (-(2**32), 1), (0, 2**32), (2**32, 0),
        (2**31, 7), (-(2**31), 7), (3, 2**40), (3, -(2**40)), (0, 0), (2**32, 0),
    ]
    cols = np.array([col for col, _ in cells], dtype=np.int64)
    rows = np.array([row for _, row in cells], dtype=np.int64)
    with mock.patch.object(HexGrid, "assign", lambda grid, x, y: (cols, rows)):
        grid = hex_bin([(50.0, 19.0)] * len(cells), 2.5)
    expected: dict[tuple[int, int], int] = {}
    for cell in cells:
        expected[cell] = expected.get(cell, 0) + 1
    assert list(grid.cells.items()) == list(expected.items())


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


def test_hex_bin_rejects_spacings_the_lattice_cannot_index() -> None:
    # two input rules: a spacing from 1e-6 to 1e6 km, and geographic points
    points = [(50.0, 19.0), (50.5, 19.5)]  # about 45 km from their centroid
    below, above = math.nextafter(1e-6, 0.0), math.nextafter(1e6, math.inf)
    for spacing in (below, above, 1e-13, 1e-300, 1e300, 0.0, -2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="^spacing must be from 1e-06 to 1e"):
            hex_bin(points, spacing)
    assert_same_hex_grid(points, 1e-6)
    assert_same_hex_grid(points, 1e6)
    for bad in ((91.0, 19.0), (-90.5, 19.0), (50.0, 180.5), (math.nan, 19.0), (50.0, math.nan)):
        with pytest.raises(ValueError, match="^points must be geographic"):
            hex_bin([*points, bad], 2.5)
    assert_same_hex_grid([(90.0, 180.0), (-90.0, -180.0)], 2.5)
    for shape in ([(50.0, 19.0, 3.0)], [50.0, 19.0], np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="^points must be \\(lat, lon\\) pairs"):
            hex_bin(shape, 2.5)


def test_hex_bin_takes_an_array_of_points() -> None:
    rng = np.random.default_rng(13)
    latlon = np.column_stack([50.0 + rng.normal(0.0, 0.2, 300), 19.0 + rng.normal(0.0, 0.3, 300)])
    assert hex_bin(latlon, 2.5) == HexGrid(**hex_bin_loop(latlon.tolist(), 2.5))
    assert hex_bin(np.empty((0, 2)), 2.5) == hex_bin([], 2.5)


def test_hex_centre_is_the_sequential_sum_on_every_python(bundled_data, bundled_geometries) -> None:
    # the built-in sum compensates from Python 3.12 on and reads lat0
    # 50.06098979972517 on the bundled map, which would move every corner of
    # hexmap.geojson; the centre is the sum of the points added one at a time
    points = geocode(bundled_data, bundled_geometries)
    grid = hex_bin(points, 2.5)
    assert (grid.lat0, grid.lon0) == (50.06098979972518, 18.833800300558426)
    assert grid == HexGrid(**hex_bin_loop(points, 2.5))
    rng = np.random.default_rng(14)
    compensated_differs = 0
    for n in (2, 3, 10, 1000, analysis._BLOCK + 3):
        # mixed magnitudes and signs, so the order of the additions shows
        latlon = np.column_stack([
            rng.uniform(-90.0, 90.0, n) * 10.0 ** rng.integers(-12, 1, n),
            rng.uniform(-180.0, 180.0, n) * 10.0 ** rng.integers(-12, 1, n),
        ])
        lat_total = lon_total = 0.0
        for lat, lon in latlon.tolist():
            lat_total += lat
            lon_total += lon
        lat0, lon0 = lat_total / n, lon_total / n
        grid = hex_bin(latlon, 1e6)
        assert (grid.lat0, grid.lon0) == (lat0, lon0)
        compensated_differs += math.fsum(latlon[:, 0]) / n != lat0
    assert compensated_differs  # the arrays tell a compensated sum from a sequential one
    # an all -0.0 column sums to 0.0, as the loop's 0.0 + -0.0 does
    for latlon in ([(-0.0, -0.0)] * 3, [(-0.0, 1.0), (-0.0, -1.0)]):
        grid = hex_bin(latlon, 2.5)
        assert grid == HexGrid(**hex_bin_loop(latlon, 2.5))
        assert math.copysign(1.0, grid.lat0) == math.copysign(1.0, grid.lon0) == 1.0


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


@settings(max_examples=40)
@given(
    cells=st.dictionaries(
        st.tuples(st.integers(-60, 60), st.integers(-60, 60)), st.integers(1, 10**6), max_size=25
    ),
    lat0=st.one_of(
        st.floats(min_value=79.0, max_value=80.5),
        st.floats(min_value=-80.5, max_value=-79.0),
        st.floats(min_value=-60.0, max_value=60.0),
    ),
    lon0=st.floats(min_value=-180.0, max_value=180.0),
    spacing=st.sampled_from([0.01, 0.5, 2.5, 7.3, 100.0]),
)
def test_hex_geojson_matches_dict_writer(cells, lat0: float, lon0: float, spacing: float) -> None:
    # negative and odd columns always present: odd ones sit half a step lower
    cells = {(-3, -2): 5, (-2, 7): 1, (1, 0): 2, **cells}
    grid = HexGrid(spacing=spacing, lat0=lat0, lon0=lon0, cells=cells)
    assert_same_geojson(grid, hex_grid_to_geojson_loop(grid))


def assert_same_geojson(grid: HexGrid, expected: str) -> bool:
    """``hex_grid_to_geojson`` writes ``expected``, or refuses the grid when a
    corner of ``expected`` lies off the globe.  True when it wrote the text."""
    rings = [feature["geometry"]["coordinates"][0] for feature in json.loads(expected)["features"]]
    if all(abs(lat) <= 90.0 and abs(lon) <= 180.0 for ring in rings for lon, lat in ring):
        assert hex_grid_to_geojson(grid) == expected
        return True
    with pytest.raises(ValueError, match="^a hexagon corner at spacing .* lies off the globe"):
        hex_grid_to_geojson(grid)
    return False


@pytest.mark.parametrize("spacing", [1e-6, 2.5, 1e6])
@pytest.mark.parametrize("lat0", [-60.3, 59.7, 60.0])
def test_hex_geojson_matches_corner_loop(spacing: float, lat0: float) -> None:
    # negative, odd and large indices; 4e10 is about the largest a 1e-6 km
    # lattice reaches on Earth.  Each cell alone, and all together, is
    # written as the loop writes it or refused when a corner leaves the globe
    big = 4 * 10**10
    cells = {(-3, -2): 5, (-2, 7): 1, (1, 0): 2, (0, 0): 3, (big + 1, -big): 4,
             (-big - 1, big - 1): 6, (2**33 + 1, 2**31 - 1): 7, (-(2**31) - 1, -(2**33) + 1): 8}
    written = set()
    for lon0 in (-179.9, 0.0, 19.2, 180.0):
        for cell in [*cells, None]:
            one = cells if cell is None else {cell: cells[cell]}
            grid = HexGrid(spacing=spacing, lat0=lat0, lon0=lon0, cells=one)
            if assert_same_geojson(grid, hex_geojson_loop(grid)):
                written.add(cell)
    # the small cells are written at 1e-6 and 2.5 km, and at 1e-6 km a 2**33 index too
    assert ({(0, 0), (1, 0)} <= written) == (spacing < 1e6)
    assert ((2**33 + 1, 2**31 - 1) in written) == (spacing == 1e-6)
    assert None not in written  # the 4e10 indices leave the globe at any spacing
    grid = hex_bin([(lat0 + 0.01 * i, 19.0 - 0.02 * i) for i in range(-20, 21)], spacing)
    assert assert_same_geojson(grid, hex_geojson_loop(grid)) == (spacing < 1e6)


@pytest.mark.parametrize("lat0", [50.06098979972518, -33.9])
def test_hex_geojson_of_a_dense_lattice_matches_corner_loop(lat0: float) -> None:
    # every cell of a 40 x 40 block, negative and odd columns among them, so
    # nearly every corner is shared by three cells and written from one text
    cells = {(col, row): 1 + (3 * col + row) % 5 for col in range(-21, 19) for row in range(-17, 23)}
    grid = HexGrid(spacing=2.5, lat0=lat0, lon0=18.833800300558426, cells=cells)
    assert hex_grid_to_geojson(grid) == hex_geojson_loop(grid)


def test_hex_geojson_keeps_the_sign_of_zero() -> None:
    # 0.0 and -0.0 are equal floats with different texts; each corner keeps its own
    lats = np.array([[0.0, -0.0, 0.5, -0.0, 0.0, 1.0], [-0.0, 0.0, -0.0, 0.5, 1.0, 0.0]])
    lons = np.array([[-0.0, 0.0, 0.0, -0.0, 2.0, -0.0], [0.0, 0.0, -0.0, -0.0, 2.0, 0.0]])
    grid = HexGrid(spacing=2.5, lat0=0.0, lon0=0.0, cells={(0, 0): 1, (0, 1): 2})
    with mock.patch.object(HexGrid, "unproject", lambda self, x, y: (lats, lons)):
        doc = json.loads(hex_grid_to_geojson(grid))
    for feature, lat6, lon6 in zip(doc["features"], lats.tolist(), lons.tolist()):
        ring = [[repr(lon), repr(lat)] for lon, lat in zip(lon6, lat6)]
        got = [[repr(c) for c in corner] for corner in feature["geometry"]["coordinates"][0]]
        assert got == [*ring, ring[0]]


def test_hex_geojson_refuses_corners_off_the_globe() -> None:
    # a corner past lat 90, past lon 180 across the antimeridian, or NaN
    for lat0, lon0, cells in ((89.99, 19.0, {(0, 0): 1}), (50.0, 179.99, {(0, 0): 1}),
                              (50.0, -179.99, {(-1, 0): 1}), (math.nan, 19.0, {(0, 0): 1})):
        grid = HexGrid(spacing=2.5, lat0=lat0, lon0=lon0, cells=cells)
        with pytest.raises(ValueError, match="lies off the globe"):
            hex_grid_to_geojson(grid)
    # a hexagon near both the pole and the antimeridian is still written
    grid = HexGrid(spacing=2.5, lat0=89.0, lon0=179.0, cells={(0, 0): 1})
    assert hex_grid_to_geojson(grid) == hex_geojson_loop(grid)


def test_hex_geojson_of_empty_grid() -> None:
    grid = hex_bin([], 2.5)
    assert hex_grid_to_geojson(grid) == hex_grid_to_geojson_loop(grid) == hex_geojson_loop(grid)
    assert json.loads(hex_grid_to_geojson(grid)) == {"type": "FeatureCollection", "features": []}


# --- species and hourly profiles ---


def test_species_profile_orders_and_groups() -> None:
    # a species field of spaces is blank once parsed, and counts as unknown
    fields = ("roe deer", "roe deer", "wild boar", " ", "", "boar")
    text = "date,time,line,km,species\n" + "".join(f"2020-01-05,18:00,139,12.0,{s}\n" for s in fields)
    profile = species_profile(parse_accidents(text, PERIOD))
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
    traffic = traffic_of({("7", i): 50.0 for i in range(n_bins)})
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
    doc = json.loads(report_to_json(report))
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
    empty = dataset_of((), *PERIOD)
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
        assert report == EvalReport(**evaluate_holdout_loop(grid, tuple(test.records), theta, adjacent))


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
    edges = sorted(
        {
            k * 5.0
            for line, first in grid.x_first.items()
            for k in range(first, first + grid.m_window[line].shape[0] + 1)
        }
    )
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
    test = dataset_of(records, dt.date(2023, 1, 1), dt.date(2023, 12, 31))
    # theta equal to a test accident's own p_pt checks that hits are strict;
    # flagged cells carry NaN and never hit
    p_pt = {line: grid.line_cells(line) for line in grid.lines}
    own = [
        float(p_pt[rec.line][cell])
        for rec in records
        if (cell := cell_of(grid, rec.line, rec.km, rec.date.month, rec.time / 60.0)) is not None
    ]
    thetas = [p for p in own if not math.isnan(p)] + [0.0, 0.001]
    theta = data.draw(st.sampled_from(thetas))
    with mock.patch.object(analysis, "_BLOCK", block):
        assert_same_report(grid, test, theta)


def test_holdout_matches_record_loop_across_block_seams(
    bundled_model, bundled_traffic, bundled_test_data
) -> None:
    # the bundled hold-out set, moved along its lines and around the clock,
    # past two block seams
    rng = np.random.default_rng(5)
    base = tuple(bundled_test_data.records)
    block = analysis._BLOCK
    n = 2 * block + 7
    records = [
        AccidentRecord(
            date=base[i % len(base)].date,
            time=int(t),
            line=base[i % len(base)].line,
            km=float(km),
        )
        for i, t, km in zip(range(n), rng.integers(0, 24 * 60, n), rng.uniform(0.0, 70.0, n))
    ]
    # line 139 in all three blocks, at its first and last km bin, where the
    # adjacent bins are clipped; and a line the grid lacks.  A quarter of the
    # traffic in the last bin lifts its p_pt above the first bins', so a read
    # wrapping from one end of the line to the other would change the hits
    counts = dict(bundled_traffic.counts)
    counts["139"] = counts["139"].copy()
    counts["139"][-1] /= 4.0
    last = bundled_traffic.x_first["139"] + len(counts["139"]) - 1
    traffic = TrafficTable(bundled_traffic.x_first, counts, bundled_traffic.delta_x)
    grid = sweep_all(bundled_model, traffic, DEFAULT_PROFILE, (0.0005, 0.001, 0.002))
    first, n_x = grid.x_first["139"], grid.m_window["139"].shape[0]
    assert first + n_x - 1 == last
    ends = ((first + 0.5) * grid.delta_x, (first + n_x - 0.5) * grid.delta_x)
    for i in [*range(0, n, 40), *range(41, n, 40), block - 1, block, n - 1]:
        records[i] = records[i]._replace(line="139", km=ends[i % 2])
    for i in range(3, n, 1001):
        records[i] = records[i]._replace(line="999")
    period = (bundled_test_data.period_start, bundled_test_data.period_end)
    test = dataset_of(records, *period)
    cells = [cell_of(grid, r.line, r.km, r.date.month, r.time / 60.0) for r in records]
    assert cells[0][0] == cells[block][0] == cells[n - 1][0] == 0
    assert cells[block - 1][0] == cells[41][0] == n_x - 1
    assert "999" in test.line_names and cells[3] is None
    # theta equal to the p_pt of a test accident's own cell checks that hits are strict
    p_pt = {line: grid.line_cells(line) for line in grid.lines}
    own = next(p for r, cell in zip(records, cells) if cell is not None
               and not math.isnan(p := float(p_pt[r.line][cell])))
    for theta in (0.001, own):
        assert_same_report(grid, test, theta)


@pytest.mark.parametrize("adjacent", [False, True])
def test_holdout_peak_memory_per_test_row(eval_grid, adjacent: bool) -> None:
    # the evaluation holds one copy of the grid's factors and one block of
    # located cells, and nothing per test row: its traced peak over 8 blocks
    # is no higher than over 2
    rng = np.random.default_rng(11)
    names = tuple(sorted(eval_grid.lines))
    peaks = []
    for blocks in (2, 8):
        n = blocks * analysis._BLOCK + 7
        codes, kms = rng.integers(0, len(names), n), rng.uniform(0.0, 45.0, n)
        months, minutes = rng.integers(1, 13, n), rng.integers(0, 24 * 60, n)
        days = np.full(n, PERIOD[0].toordinal())
        test = Dataset(*PERIOD, names, codes, kms, months, minutes, days, ("",) * n)
        tracemalloc.start()
        try:
            report = evaluate_holdout(eval_grid, test, 0.001, include_adjacent=adjacent)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.n_mapped == n
    assert peaks[1] <= peaks[0] + 4096, peaks


def test_holdout_single_record_matches_record_loop(eval_grid) -> None:
    for rec in (record(), record(line="999"), record(km=60.0), record(km=0.0, hour=0)):
        assert_same_report(eval_grid, dataset([rec]), 0.0005)


def test_holdout_maps_lines_by_name_not_position(eval_grid) -> None:
    # the grid lists its lines in reverse; the test set adds lines the grid
    # lacks, so its sorted line_names interleave known and unknown names
    reordered = dataclasses.replace(eval_grid, **{
        name: dict(reversed(getattr(eval_grid, name).items()))
        for name in ("x_first", "spatial", "m_window")
    })
    assert reordered.lines == ("140", "139", "1")
    lines = ("0", "1", "10", "139", "1390", "140", "999")
    records = [
        record(line=line, km=km, hour=hour, month=month)
        for line in lines
        for km, hour, month in ((0.0, 0, 1), (12.0, 18, 6), (37.5, 7, 11), (60.0, 23, 12))
    ]
    test = dataset(records)
    assert test.line_names == tuple(sorted(lines))
    for grid in (eval_grid, reordered):
        for theta in (0.0, 0.0005, 0.001):
            assert_same_report(grid, test, theta)
    plain = evaluate_holdout(reordered, test, 0.0005)
    assert plain == evaluate_holdout(eval_grid, test, 0.0005)
    # all four records of each unknown line, and km 60 past the end of line 1
    assert plain.n_unmapped == 4 * 4 + 1


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
    doc = json.loads(report_to_json(report))
    assert set(doc) == {
        "theta", "hit_rate", "warned_fraction", "n_test", "n_mapped",
        "n_unmapped", "hits", "include_adjacent", "curve",
    }
    assert doc["n_test"] == 120
    assert doc["theta"] == 0.001

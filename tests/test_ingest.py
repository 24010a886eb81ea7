"""Parsing, validation, binning, and geometry interpolation."""

from __future__ import annotations

import datetime as dt
import io
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wildrail import (
    AccidentRecord,
    Dataset,
    LineGeometry,
    ParseError,
    SpeedProfile,
    bin_index,
    bin_start,
    count_days,
    dataset_to_csv,
    geometries_to_geojson,
    km_to_geo,
    parse_accidents,
    parse_geometries,
    parse_speed_profiles,
    parse_traffic,
    parse_traffic_runs,
)
from oracles import count_days_loop, floor_bin

PERIOD = (dt.date(2020, 1, 1), dt.date(2022, 12, 31))

GOOD_CSV = """date,time,line,km,species
2020-01-15,18:23,139,12.4,roe deer
2021-07-02,04:05,1,0.0,
2022-12-31,23:59,140,79.9,wild boar
"""


# --- day counting ---


def test_count_days_calendar_vs_365() -> None:
    assert count_days(*PERIOD) == 1096
    assert count_days(*PERIOD, "365") == 1095
    one_year = (dt.date(2021, 1, 1), dt.date(2021, 12, 31))
    assert count_days(*one_year) == 365
    assert count_days(*one_year, "365") == 365
    assert count_days(dt.date(2020, 2, 29), dt.date(2020, 2, 29)) == 1
    assert count_days(dt.date(2020, 2, 29), dt.date(2020, 2, 29), "365") == 0


def test_count_days_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        count_days(dt.date(2021, 1, 2), dt.date(2021, 1, 1))
    with pytest.raises(ValueError):
        count_days(dt.date(2021, 1, 1), dt.date(2021, 1, 2), "366")


@given(
    start_ord=st.integers(dt.date(2016, 1, 1).toordinal(), dt.date(2024, 12, 31).toordinal()),
    span=st.integers(0, 2000),
    mode=st.sampled_from(["calendar", "365"]),
)
def test_count_days_matches_day_by_day_walk(start_ord: int, span: int, mode: str) -> None:
    start = dt.date.fromordinal(start_ord)
    end = start + dt.timedelta(days=span)
    assert count_days(start, end, mode) == count_days_loop(start, end, mode)


# --- binning ---


@pytest.mark.parametrize(
    "value,delta,expected",
    [
        (0.0, 5.0, 0),
        (4.999, 5.0, 0),
        (5.0, 5.0, 1),
        (12.4, 5.0, 2),
        (-0.1, 5.0, -1),
        (23.0, 1.0, 23),
        (0.5, 0.5, 1),
    ],
)
def test_bin_index_basic(value: float, delta: float, expected: int) -> None:
    assert bin_index(value, delta) == expected
    assert bin_start(value, delta) == expected * delta


@given(
    value=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    delta=st.sampled_from([0.5, 1.0, 2.5, 5.0, 10.0]),
)
def test_bin_membership_invariant(value: float, delta: float) -> None:
    idx = bin_index(value, delta)
    assert idx * delta <= value < (idx + 1) * delta
    assert idx == floor_bin(value, delta)


# --- records and datasets ---


def test_record_validation() -> None:
    rec = AccidentRecord(date=dt.date(2020, 1, 15), time=18 * 60 + 23, line="139", km=12.4)
    assert rec.month == 1
    assert rec.hour == pytest.approx(18.3833333333)
    with pytest.raises(ValueError):
        AccidentRecord(date=rec.date, time=1440, line="139", km=0.0)
    with pytest.raises(ValueError):
        AccidentRecord(date=rec.date, time=-1, line="139", km=0.0)
    with pytest.raises(ValueError):
        AccidentRecord(date=rec.date, time=0, line="", km=0.0)
    with pytest.raises(ValueError):
        AccidentRecord(date=rec.date, time=0, line="139", km=-2.0)
    with pytest.raises(ValueError):
        AccidentRecord(date=rec.date, time=0, line="139", km=math.inf)


def test_dataset_validation() -> None:
    rec = AccidentRecord(date=dt.date(2019, 6, 1), time=0, line="1", km=1.0)
    with pytest.raises(ValueError):
        Dataset(records=(rec,), period_start=PERIOD[0], period_end=PERIOD[1])
    with pytest.raises(ValueError):
        Dataset(records=(), period_start=PERIOD[1], period_end=PERIOD[0])
    empty = Dataset(records=(), period_start=PERIOD[0], period_end=PERIOD[1])
    assert empty.n == 0
    assert empty.total_days == 1096


# --- accident CSV ---


def test_parse_accidents_good() -> None:
    data = parse_accidents(io.StringIO(GOOD_CSV), PERIOD)
    assert data.n == 3
    assert data.records[0].line == "139"
    assert data.records[0].time == 18 * 60 + 23
    assert data.records[1].species == ""
    assert data.records[2].km == 79.9


def test_parse_accidents_accepts_plain_string() -> None:
    assert parse_accidents(GOOD_CSV, PERIOD).n == 3


def test_parse_accidents_round_trip() -> None:
    data = parse_accidents(io.StringIO(GOOD_CSV), PERIOD)
    again = parse_accidents(io.StringIO(dataset_to_csv(data)), PERIOD)
    assert again.records == data.records


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("2020-13-01,10:00,139,1.0,", "date"),
        ("2020-01-01,24:00,139,1.0,", "time"),
        ("2020-01-01,10:61,139,1.0,", "time"),
        ("2020-01-01,1000,139,1.0,", "time"),
        ("2020-01-01,10:00,,1.0,", "line"),
        ("2020-01-01,10:00,139,-1.0,", "km"),
        ("2020-01-01,10:00,139,abc,", "km"),
        ("2020-01-01,10:00,139,1.0", "fields"),
        ("2019-12-31,10:00,139,1.0,", "period"),
    ],
)
def test_parse_accidents_rejects_bad_rows(row: str, fragment: str) -> None:
    text = "date,time,line,km,species\n" + row + "\n"
    with pytest.raises(ParseError) as err:
        parse_accidents(io.StringIO(text), PERIOD)
    assert err.value.line_no == 2
    assert fragment in str(err.value)


def test_parse_accidents_error_names_physical_line() -> None:
    text = GOOD_CSV + "2020-01-01,99:00,139,1.0,\n"
    with pytest.raises(ParseError) as err:
        parse_accidents(io.StringIO(text), PERIOD)
    assert err.value.line_no == 5


def test_parse_accidents_header_and_empty() -> None:
    with pytest.raises(ParseError):
        parse_accidents(io.StringIO("a,b,c\n1,2,3\n"), PERIOD)
    with pytest.raises(ParseError):
        parse_accidents(io.StringIO(""), PERIOD)
    with pytest.raises(ParseError):
        parse_accidents(io.StringIO("date,time,line,km,species\n"), PERIOD)


# --- traffic CSV ---


def test_parse_traffic_sums_duplicates() -> None:
    text = "line,km_from,count\n139,10.0,100\n139,10.0,31\n1,0,80\n"
    table = parse_traffic(io.StringIO(text), 5.0)
    assert table.count("139", 12.3) == 131.0
    assert table.count("1", 4.9) == 80.0
    assert table.count("1", 5.0) == 0.0
    assert table.lines == ("1", "139")
    assert table.bins_for("139") == (10.0,)


def test_parse_traffic_rejects_bad_rows() -> None:
    with pytest.raises(ParseError):
        parse_traffic(io.StringIO("line,km_from,count\n139,10.0,-3\n"), 5.0)
    with pytest.raises(ParseError):
        parse_traffic(io.StringIO("line,km_from,count\n139,12.0,5\n"), 5.0)  # misaligned
    with pytest.raises(ParseError):
        parse_traffic(io.StringIO("line,km_from,count\n,10.0,5\n"), 5.0)
    with pytest.raises(ParseError):
        parse_traffic(io.StringIO("wrong,header,here\n"), 5.0)


def test_parse_traffic_rejects_negative_km_from() -> None:
    with pytest.raises(ParseError, match="line 2: km_from must be non-negative"):
        parse_traffic(io.StringIO("line,km_from,count\n139,-5.0,10\n"), 5.0)


@pytest.mark.parametrize("delta_x", [0.0, -5.0, math.nan, math.inf])
def test_traffic_parsers_reject_bad_bin_width(delta_x: float) -> None:
    # checked before any row is read, so no division by zero can happen
    for parse, text in (
        (parse_traffic, "line,km_from,count\n139,10.0,5\n"),
        (parse_traffic_runs, "line,km_from,km_to,departure\n139,5.0,10.0,06:00\n"),
    ):
        for stream in (text, ""):
            with pytest.raises(ValueError, match="delta_x must be positive and finite") as info:
                parse(io.StringIO(stream), delta_x)
            assert not isinstance(info.value, ParseError)


def test_parse_traffic_empty_inputs() -> None:
    assert parse_traffic(io.StringIO(""), 5.0).counts == {}
    assert parse_traffic(io.StringIO("line,km_from,count\n"), 5.0).counts == {}


def test_traffic_table_validation() -> None:
    from wildrail import TrafficTable

    with pytest.raises(ValueError):
        TrafficTable(counts={("1", 3.0): 5.0}, delta_x=5.0)
    with pytest.raises(ValueError):
        TrafficTable(counts={("1", 5.0): -1.0}, delta_x=5.0)
    with pytest.raises(ValueError):
        TrafficTable(counts={}, delta_x=0.0)


def test_parse_traffic_runs_half_open_overlap() -> None:
    text = (
        "line,km_from,km_to,departure\n"
        "139,7.5,22.5,05:10\n"
        "139,5.0,10.0,06:00\n"
        "139,5.0,10.0,07:00\n"
    )
    table = parse_traffic_runs(io.StringIO(text), 5.0)
    # the long run clips bins 5..20; the short runs touch only bin 5
    assert table.count("139", 0.0) == 0.0
    assert table.count("139", 5.0) == 3.0
    assert table.count("139", 10.0) == 1.0
    assert table.count("139", 15.0) == 1.0
    assert table.count("139", 20.0) == 1.0
    assert table.count("139", 25.0) == 0.0


def test_parse_traffic_runs_rejects_empty_span() -> None:
    with pytest.raises(ParseError):
        parse_traffic_runs(io.StringIO("line,km_from,km_to,departure\n139,10.0,10.0,05:00\n"), 5.0)


# --- geometry ---


def make_geometry() -> LineGeometry:
    return LineGeometry(
        line="139",
        vertices=((50.0, 19.0, 0.0), (50.1, 19.2, 10.0), (50.1, 19.5, 30.0)),
    )


def test_geometry_validation() -> None:
    geo = make_geometry()
    assert geo.km_min == 0.0 and geo.km_max == 30.0
    with pytest.raises(ValueError):
        LineGeometry(line="x", vertices=((50.0, 19.0, 0.0),))
    with pytest.raises(ValueError):
        LineGeometry(line="x", vertices=((50.0, 19.0, 5.0), (50.1, 19.1, 5.0)))
    with pytest.raises(ValueError):
        LineGeometry(line="x", vertices=((99.0, 19.0, 0.0), (50.1, 19.1, 5.0)))


def test_km_to_geo_interpolates() -> None:
    geo = make_geometry()
    assert km_to_geo(geo, 0.0) == (50.0, 19.0)
    assert km_to_geo(geo, 30.0) == (50.1, 19.5)
    lat, lon = km_to_geo(geo, 5.0)
    assert lat == pytest.approx(50.05)
    assert lon == pytest.approx(19.1)
    lat, lon = km_to_geo(geo, 20.0)
    assert lat == pytest.approx(50.1)
    assert lon == pytest.approx(19.35)
    with pytest.raises(ValueError):
        km_to_geo(geo, -0.1)
    with pytest.raises(ValueError):
        km_to_geo(geo, 30.1)


@given(km=st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
def test_km_to_geo_stays_inside_bounding_box(km: float) -> None:
    geo = make_geometry()
    lat, lon = km_to_geo(geo, km)
    assert 50.0 <= lat <= 50.1
    assert 19.0 <= lon <= 19.5


@given(
    a=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    b=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)
def test_km_to_geo_longitude_monotone(a: float, b: float) -> None:
    # this polyline only ever heads east, so lon must follow km order
    geo = make_geometry()
    if a > b:
        a, b = b, a
    assert km_to_geo(geo, a)[1] <= km_to_geo(geo, b)[1]


def test_parse_geometries_round_trip() -> None:
    geos = {"139": make_geometry()}
    parsed = parse_geometries(io.StringIO(geometries_to_geojson(geos)))
    assert parsed.keys() == geos.keys()
    assert parsed["139"].vertices == geos["139"].vertices


def test_parse_geometries_rejects_bad_documents() -> None:
    with pytest.raises(ParseError):
        parse_geometries(io.StringIO("not json"))
    with pytest.raises(ParseError):
        parse_geometries(io.StringIO('{"type": "FeatureCollection"}'))
    doc = (
        '{"type": "FeatureCollection", "features": [{"type": "Feature", '
        '"properties": {"line": "1", "km": [0.0]}, '
        '"geometry": {"type": "LineString", "coordinates": [[19.0, 50.0], [19.1, 50.1]]}}]}'
    )
    with pytest.raises(ParseError):  # km list length mismatching coordinates
        parse_geometries(io.StringIO(doc))
    point = (
        '{"type": "FeatureCollection", "features": [{"type": "Feature", '
        '"properties": {"line": "1", "km": [0.0]}, '
        '"geometry": {"type": "Point", "coordinates": [19.0, 50.0]}}]}'
    )
    with pytest.raises(ParseError):
        parse_geometries(io.StringIO(point))
    with pytest.raises(ParseError):  # a feature that is not an object
        parse_geometries(io.StringIO('{"type": "FeatureCollection", "features": [5]}'))


def geometry_doc(coords: str, kms: str = "[0.0, 5.0]") -> io.StringIO:
    return io.StringIO(
        '{"type": "FeatureCollection", "features": [{"type": "Feature", '
        f'"properties": {{"line": "1", "km": {kms}}}, '
        f'"geometry": {{"type": "LineString", "coordinates": {coords}}}}}]}}'
    )


def test_parse_geometries_ignores_altitude() -> None:
    parsed = parse_geometries(geometry_doc("[[19.0, 50.0, 210.5], [19.1, 50.1, 198]]"))
    assert parsed["1"].vertices == ((50.0, 19.0, 0.0), (50.1, 19.1, 5.0))


@pytest.mark.parametrize(
    "coords, kms",
    [
        ("[null, [19.1, 50.1]]", "[0.0, 5.0]"),
        ("[[19.0], [19.1, 50.1]]", "[0.0, 5.0]"),  # short
        ("[[19.0, 50.0, 1.0, 2.0], [19.1, 50.1]]", "[0.0, 5.0]"),  # too long
        ("[19.0, 50.0]", "[0.0, 5.0]"),  # positions not lists
        ('[["19.0", 50.0], [19.1, 50.1]]', "[0.0, 5.0]"),
        ("[[true, 50.0], [19.1, 50.1]]", "[0.0, 5.0]"),
        ("[[NaN, 50.0], [19.1, 50.1]]", "[0.0, 5.0]"),
        ("[[19.0, 50.0, null], [19.1, 50.1]]", "[0.0, 5.0]"),
        ("[[19.0, 50.0], [19.1, 50.1]]", '[0.0, "5"]'),  # km not a number
        ("[[19.0, 50.0], [19.1, 50.1]]", "[0.0, NaN]"),
        ("5", "[0.0, 5.0]"),  # coordinates not an array
    ],
)
def test_parse_geometries_rejects_bad_coordinates(coords: str, kms: str) -> None:
    with pytest.raises(ParseError, match="feature 0"):
        parse_geometries(geometry_doc(coords, kms))


def test_parse_geometries_rejects_duplicate_lines() -> None:
    one = (
        '{"type": "Feature", "properties": {"line": "1", "km": [0.0, 5.0]}, '
        '"geometry": {"type": "LineString", "coordinates": [[19.0, 50.0], [19.1, 50.1]]}}'
    )
    doc = f'{{"type": "FeatureCollection", "features": [{one}, {one}]}}'
    with pytest.raises(ParseError):
        parse_geometries(io.StringIO(doc))


# --- speed profiles ---


def test_speed_profile_lookup() -> None:
    profile = SpeedProfile(line="139", intervals=((0.0, 10.0, 100.0), (10.0, 15.0, 70.0)))
    assert profile.speed_at(0.0) == 100.0
    assert profile.speed_at(9.999) == 100.0
    assert profile.speed_at(10.0) == 70.0
    assert profile.speed_at(15.0) is None
    assert profile.speed_at(-1.0) is None


def test_speed_profile_validation() -> None:
    with pytest.raises(ValueError):
        SpeedProfile(line="x", intervals=((0.0, 10.0, 100.0), (5.0, 15.0, 70.0)))
    with pytest.raises(ValueError):
        SpeedProfile(line="x", intervals=((10.0, 10.0, 100.0),))
    with pytest.raises(ValueError):
        SpeedProfile(line="x", intervals=((0.0, 10.0, 0.0),))


def test_parse_speed_profiles() -> None:
    text = "line,km_from,km_to,vmax\n139,0.0,10.0,100\n139,10.0,15.0,70\n1,0.0,20.0,140\n"
    speeds = parse_speed_profiles(io.StringIO(text))
    assert set(speeds) == {"1", "139"}
    assert speeds["139"].speed_at(12.0) == 70.0
    with pytest.raises(ParseError):
        parse_speed_profiles(io.StringIO("line,km_from,km_to,vmax\n139,5.0,5.0,100\n"))

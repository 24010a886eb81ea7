"""Parsing, validation, binning, and geometry interpolation."""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildrail import (
    DEFAULT_SEASONS,
    AccidentRecord,
    BinConfig,
    Dataset,
    LineGeometry,
    ParseError,
    SpeedProfile,
    bin_index,
    TrafficTable,
    UndefinedCorrelationError,
    count_days,
    dataset_to_csv,
    fit,
    geometries_to_geojson,
    hourly_profile,
    km_to_geo,
    parse_accidents,
    parse_geometries,
    parse_speed_profiles,
    parse_traffic,
    parse_traffic_runs,
    species_profile,
    speed_correlation,
)
from conftest import no_records
from oracles import (
    LoopParseError,
    count_days_loop,
    fit_counts_loop,
    floor_bin,
    hourly_profile_loop,
    parse_accidents_loop,
    species_profile_loop,
    speed_pairs_loop,
)

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
    if value >= 0:
        assert BinConfig(delta_x=delta).x_bin(value) == expected * delta


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
    assert rec.date.month == 1
    assert rec.time / 60.0 == pytest.approx(18.3833333333)
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
        Dataset.from_records((rec,), *PERIOD)
    with pytest.raises(ValueError):
        Dataset.from_records((), PERIOD[1], PERIOD[0])
    empty = Dataset.from_records((), *PERIOD)
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
    with no_records():  # written from the columns
        text = dataset_to_csv(data)
    again = parse_accidents(io.StringIO(text), PERIOD)
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


# --- columnar parsing against the row loop ---

# valid field texts, repeated across rows so the per-text memos are reused
DATE_TEXTS = ("2020-01-01", "2022-12-31", "2021-02-28", "2020-02-29", " 2021-07-02 ", "20210703")
TIME_TEXTS = ("00:00", "23:59", "18:23", "7:05", "06:0", " 12:30 ", "\uff11\uff12:00")
LINE_TEXTS = ("1", "139", "a,b", '"q"', " 7 ")
SPECIES_TEXTS = ("", "roe deer", " fox ", "a,b", 'say "hi"', "two\nlines")
# malformed or out-of-period texts per field
BAD_TEXTS = (
    ("2020-13-01", "2020-02-30", "x", "", "2019-12-31", "2023-01-01"),
    ("24:00", "10:61", "1000", "ab:cd", "", "1:2:3", "-1:00"),
    ("", "  "),
    ("-1.0", "-1e-300", "nan", "inf", "-inf", "abc", "", "1e999"),
)


def km_texts(delta: float) -> st.SearchStrategy[str]:
    """Bin edges, their float neighbours, plain values and other spellings.

    Short decimal spellings of edges such as "1.7" with 0.1 km bins are where
    the plain floor of km / delta is one bin too high.
    """
    edges = [k * delta for k in range(9)]
    near = [math.nextafter(e, -math.inf) for e in edges[1:]] + [
        math.nextafter(e, math.inf) for e in edges
    ]
    return st.one_of(
        st.sampled_from([repr(v) for v in edges + near]),
        st.integers(0, 40).map(lambda k: f"{k * delta:.10g}"),
        st.floats(min_value=0.0, max_value=50.0).map(repr),
        st.sampled_from(["-0.0", "1e1", " 5 ", "0", "2.50"]),
    )


@st.composite
def accident_csv(draw, delta: float) -> str:
    rows = draw(
        st.lists(
            st.lists(
                st.one_of(
                    st.tuples(
                        st.sampled_from(DATE_TEXTS),
                        st.sampled_from(TIME_TEXTS),
                        st.sampled_from(LINE_TEXTS),
                        km_texts(delta),
                        st.sampled_from(SPECIES_TEXTS),
                    ).map(list),
                    st.just([]),  # a blank line
                ),
                min_size=1,
                max_size=3,
            ),
            max_size=25,
        )
    )
    rows = [row for group in rows for row in group]
    # now and then put bad texts into a few rows; one bad text may recur
    filled = [row for row in rows if row]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3])) if filled else 0):
        row = draw(st.sampled_from(filled))
        column = draw(st.integers(0, len(BAD_TEXTS)))
        if column == len(BAD_TEXTS):
            row.append("extra")  # wrong field count
        else:
            row[column] = draw(st.sampled_from(BAD_TEXTS[column]))
    # a leading row that spans two physical lines, so every later row's
    # line number differs from its row count
    if draw(st.booleans()):
        rows.insert(0, ["2021-03-04", "05:06", "1", "1.0", "two\nlines"])
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    out = io.StringIO()
    writer = csv.writer(out, quoting=quoting, lineterminator="\n")
    writer.writerow(["date", "time", "line", "km", "species"])
    for row in rows:
        if row:
            writer.writerow(row)
        else:
            out.write("\n")
    return out.getvalue()


@given(
    delta_x=st.sampled_from([5.0, 2.5, 0.1]),
    delta_t=st.sampled_from([1.0, 0.5, 0.25]),
    data=st.data(),
)
def test_parse_accidents_matches_row_loop(delta_x: float, delta_t: float, data) -> None:
    text = data.draw(accident_csv(delta_x))
    try:
        expected = parse_accidents_loop(text, PERIOD)
    except LoopParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_accidents(text, PERIOD)
        assert (str(err.value), err.value.line_no) == (str(exc), exc.line_no)
        return
    parsed = parse_accidents(text, PERIOD)
    records = [AccidentRecord(*row) for row in expected]

    # columns
    assert parsed.n == len(records)
    assert parsed.line_names == tuple(sorted({r.line for r in records}))
    assert [parsed.line_names[c] for c in parsed.line_codes.tolist()] == [r.line for r in records]
    assert parsed.kms.tolist() == [r.km for r in records]
    assert parsed.months.tolist() == [r.date.month for r in records]
    assert parsed.minutes.tolist() == [r.time for r in records]
    assert parsed.dates.tolist() == [r.date.toordinal() for r in records]
    assert parsed.species == tuple(r.species for r in records)

    # results, which read the columns and build no records
    with no_records():
        model = fit(parsed, bins=BinConfig(delta_x=delta_x, delta_t=delta_t))
        counts = fit_counts_loop(records, DEFAULT_SEASONS.groups, delta_x, delta_t)
        assert {key: getattr(model.counts, key) for key in counts} == counts
        assert model.counts.n == len(records)
        assert hourly_profile(parsed, DEFAULT_SEASONS) == hourly_profile_loop(
            records, DEFAULT_SEASONS.groups
        )
        species = species_profile(parsed)
        assert list(species.items()) == list(species_profile_loop(records).items())
        traffic, speeds = speed_inputs(counts["by_line_xbin"], delta_x)
        pairs = speed_pairs_loop(records, traffic, speeds, delta_x)
        try:
            report = speed_correlation(parsed, traffic, speeds, delta_x)
        except (UndefinedCorrelationError, ValueError):
            # fewer than 3 pairs, or one of the variables constant
            assert len(pairs) < 3 or any(len({p[k] for p in pairs}) == 1 for k in (2, 3))
        else:
            assert report.pairs == tuple(pairs)

    # records, and the dataset built back from them
    assert parsed.records == tuple(records)
    assert parsed == Dataset.from_records(records, *PERIOD)
    assert_same_columns(Dataset.from_records(parsed.records, *PERIOD), parsed)


def assert_same_columns(built: Dataset, parsed: Dataset) -> None:
    assert (built.period_start, built.period_end) == (parsed.period_start, parsed.period_end)
    for name in ("line_names", "species"):
        assert getattr(built, name) == getattr(parsed, name)
    for name in ("line_codes", "kms", "months", "minutes", "dates"):
        assert np.array_equal(getattr(built, name), getattr(parsed, name))


def speed_inputs(by_line_xbin: dict, delta_x: float):
    """Traffic over each line's accident bins and one past them, some bins without
    trains, and a speed step per bin."""
    counts, speeds = {}, {}
    for line, table in by_line_xbin.items():
        indices = [round(x / delta_x) for x in table] + [round(max(table) / delta_x) + 1]
        for i in indices:
            counts[(line, i * delta_x)] = 0.0 if i % 5 == 4 else 10.0 + i % 7
        speeds[line] = SpeedProfile(
            line=line,
            intervals=tuple((i * delta_x, (i + 1) * delta_x, 50.0 + 10 * (i % 3)) for i in indices),
        )
    return TrafficTable(counts=counts, delta_x=delta_x), speeds


@pytest.mark.parametrize(
    "rows,line_no,fragment",
    [
        # the second and fourth rows share a bad text: the error names the first
        (["2020-01-05,25:00,1,1.0,", "2020-01-05,10:00,1,1.0,", "2020-01-05,25:00,1,1.0,"], 2, "25:00"),
        (["2020-01-05,10:00,1,1.0,", "2020-13-05,10:00,1,1.0,", "2020-13-05,10:00,1,1.0,"], 3, "2020-13-05"),
        (["2019-06-01,10:00,1,1.0,", "2019-06-01,10:00,1,1.0,"], 2, "2019-06-01"),
        # a memoised good date still gets the later checks of its own row
        (["2020-01-05,10:00,1,1.0,", "2020-01-05,10:00,,1.0,"], 3, "line"),
        # a time error comes before an out-of-period date in the same row
        (["2019-06-01,10:61,1,1.0,"], 2, "time"),
        # a quoted newline makes the first row span lines 2-3
        (['2020-01-05,10:00,1,1.0,"two\nlines"', "2020-01-05,25:00,1,1.0,"], 4, "25:00"),
        (['2020-01-05,10:00,1,1.0,"two\nlines"', "2020-01-05,25:00,1,1.0,\"a\nb\""], 4, "25:00"),
    ],
)
def test_parse_error_names_first_row_of_repeated_value(rows, line_no: int, fragment: str) -> None:
    text = "date,time,line,km,species\n" + "\n".join(rows) + "\n"
    with pytest.raises(ParseError) as err:
        parse_accidents(text, PERIOD)
    with pytest.raises(LoopParseError) as loop_err:
        parse_accidents_loop(text, PERIOD)
    assert err.value.line_no == line_no == loop_err.value.line_no
    assert str(err.value) == str(loop_err.value)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "parse,header,rows",
    [
        (lambda text: parse_traffic(text, 5.0), "line,km_from,count", ('"a\nb",0,10', "1,abc,5")),
        (
            lambda text: parse_traffic_runs(text, 5.0),
            "line,km_from,km_to,departure",
            ('"a\nb",0,5,10:00', "1,0,5,25:00"),
        ),
        (parse_speed_profiles, "line,km_from,km_to,vmax", ('"a\nb",0,5,80', "1,0,5,-3")),
    ],
    ids=("traffic", "traffic_runs", "speeds"),
)
def test_csv_parsers_name_first_physical_line(parse, header: str, rows) -> None:
    # the first row spans lines 2-3, so the bad second row starts on line 4
    with pytest.raises(ParseError) as err:
        parse("\n".join((header, *rows)) + "\n")
    assert err.value.line_no == 4 and str(err.value).startswith("line 4: ")


def test_dataset_from_records_builds_columns() -> None:
    parsed = parse_accidents(GOOD_CSV, PERIOD)
    records = parse_accidents(GOOD_CSV, PERIOD).records
    built = Dataset.from_records(records, *PERIOD)
    assert built.records == records
    assert built == parsed and hash(built) == hash(parsed)
    assert_same_columns(built, parsed)
    assert parsed.line_names == ("1", "139", "140")
    assert parsed.line_codes.tolist() == [1, 0, 2]
    with pytest.raises(ValueError):
        parsed.kms[0] = 1.0  # the columns are read-only


def test_dataset_replace_and_equality() -> None:
    parsed = parse_accidents(GOOD_CSV, PERIOD)
    moved = Dataset.from_records(
        (dataclasses.replace(r, km=r.km + 1.0) for r in parsed.records), *PERIOD
    )
    assert moved.kms.tolist() == [13.4, 1.0, 80.9]
    assert moved.period_start == parsed.period_start and moved != parsed
    longer = dataclasses.replace(parsed, period_end=dt.date(2023, 6, 30))
    assert longer.records == parsed.records and longer != parsed
    assert longer.total_days == parsed.total_days + 181
    with pytest.raises(ValueError, match="outside period"):
        dataclasses.replace(parsed, period_end=dt.date(2022, 12, 30))
    assert parsed != parse_accidents(GOOD_CSV.replace("roe deer", "fox"), PERIOD)


def test_dataset_with_period() -> None:
    parsed = parse_accidents(GOOD_CSV, PERIOD)
    span = parsed.with_period(dt.date(2020, 1, 15), dt.date(2022, 12, 31))
    assert span.period_start == dt.date(2020, 1, 15)
    assert span.kms is parsed.kms
    assert span.records == parsed.records
    with pytest.raises(ValueError, match="record dated 2020-01-15 falls outside"):
        parsed.with_period(dt.date(2020, 1, 16), dt.date(2022, 12, 31))
    with pytest.raises(ValueError, match="precedes"):
        parsed.with_period(dt.date(2022, 1, 1), dt.date(2021, 1, 1))


# --- traffic CSV ---


def test_parse_traffic_sums_duplicates() -> None:
    text = "line,km_from,count\n139,10.0,100\n139,10.0,31\n1,0,80\n"
    table = parse_traffic(io.StringIO(text), 5.0)
    assert table.count("139", 12.3) == 131.0
    assert table.count("1", 4.9) == 80.0
    assert table.count("1", 5.0) == 0.0
    assert sorted({line for line, _ in table.counts}) == ["1", "139"]
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


def run_end(delta_x: float):
    """A km on a bin edge, one ulp either side of one, or anywhere in [0, 200]."""
    edge = st.integers(0, int(200 / delta_x)).map(lambda k: k * delta_x)
    return st.one_of(
        edge,
        edge.map(lambda e: math.nextafter(e, -math.inf)),
        edge.map(lambda e: math.nextafter(e, math.inf)),
        st.floats(min_value=0.0, max_value=200.0),
    )


@given(delta_x=st.sampled_from([5.0, 2.5, 0.1, 0.3]), data=st.data())
@settings(max_examples=300)  # a run starting one ulp below an edge is rare among the draws
def test_parse_traffic_runs_matches_bin_loop(delta_x: float, data) -> None:
    ends = data.draw(st.lists(st.tuples(run_end(delta_x), run_end(delta_x)), max_size=8))
    runs = [(min(a, b), max(a, b)) for a, b in ends if a != b and min(a, b) >= 0]
    text = "line,km_from,km_to,departure\n" + "".join(
        f"139,{km_from!r},{km_to!r},06:00\n" for km_from, km_to in runs
    )
    # +1 on every bin b >= 0 whose open interior meets the run's extent
    expected: dict[tuple[str, float], float] = {}
    for km_from, km_to in runs:
        for b in range(math.ceil(km_to / delta_x) + 1):
            if b * delta_x < km_to and (b + 1) * delta_x > km_from:
                expected[("139", b * delta_x)] = expected.get(("139", b * delta_x), 0.0) + 1.0
    assert parse_traffic_runs(io.StringIO(text), delta_x).counts == expected


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

"""Parsing, validation, binning, and geometry interpolation."""

from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import datetime as dt
import io
import itertools
import math
import pickle
import re
import runpy
import shutil
import tracemalloc
from pathlib import Path
from types import MappingProxyType
from typing import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, event, example, given, settings
from hypothesis import strategies as st

import wildrail.model
from wildrail import ingest
from wildrail import (
    DEFAULT_PROFILE,
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
    fit,
    geocode,
    hourly_profile,
    km_to_geo,
    parse_accidents,
    parse_geometries,
    parse_speed_profiles,
    parse_traffic,
    species_profile,
    speed_correlation,
    sweep_all,
)
from conftest import DATA_DIR, dataset_of, no_records, traffic_of
from oracles import (
    LoopParseError,
    count_days_loop,
    fit_counts_loop,
    floor_bin,
    hourly_profile_loop,
    km_to_geo_loop,
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
        (-1.0, 5.0, -1),
        (23.0, 1.0, 23),
        (0.5, 0.5, 1),
    ],
)
def test_bin_index_basic(value: float, delta: float, expected: int) -> None:
    assert bin_index(value, delta) == expected


# a finite value can be too large for its bin width to index
@pytest.mark.parametrize(
    "value,delta", [(math.inf, 5.0), (-math.inf, 5.0), (math.nan, 5.0), (1e308, 1e-10)]
)
def test_bin_index_names_a_value_without_a_finite_bin(value: float, delta: float) -> None:
    message = f"{value!r} has no finite bin index at bin width {delta!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bin_index(value, delta)


@given(
    value=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    delta=st.sampled_from([0.5, 1.0, 2.5, 5.0, 10.0]),
)
def test_bin_membership_invariant(value: float, delta: float) -> None:
    idx = bin_index(value, delta)
    assert idx * delta <= value < (idx + 1) * delta
    assert idx == floor_bin(value, delta)


@pytest.mark.parametrize("delta", [5.0, 0.5])
def test_km_bin_counts_matches_record_loop_in_order(delta: float) -> None:
    # fit's dense km-bin runs: more than two blocks of interleaved lines;
    # -0.0 and 0.0 and exact bin edges on one line, and a line with a single
    # record.  Lists, not dicts, so the order of lines is compared too.  The
    # bin widths are exact binary fractions, where bin_index is the exact floor
    rng = np.random.default_rng(23)
    n = 2 * ingest._BLOCK + 11
    codes = rng.integers(0, 4, n)
    kms = rng.uniform(0.0, 400.0, n)
    special = rng.choice(n - 1, 8, replace=False)
    kms[special] = [-0.0, 0.0, delta, 3 * delta, 80 * delta, 0.3, 400.0, 400.0]
    codes[special] = 2
    codes[-1] = 4
    names = ("0", "1", "2", "3", "4")
    ints = np.ones(n, dtype=np.int64)
    data = Dataset(*PERIOD, names, codes, kms, ints, ints * PERIOD[0].toordinal(), ("",) * n)
    loop: dict[str, dict[int, int]] = {}
    for code, km in zip(codes.tolist(), kms.tolist()):
        bins = loop.setdefault(names[code], {})
        k = floor_bin(km, delta)
        bins[k] = bins.get(k, 0) + 1
    runs = []
    for line in sorted(loop):
        first, last = min(loop[line]), max(loop[line])
        runs.append((line, first, tuple(loop[line].get(k, 0) for k in range(first, last + 1))))
    model = fit(data, bins=BinConfig(delta_x=delta))
    counts = model.counts
    assert [(line, first, counts.by_line_xbin[line]) for line, first in counts.x_first.items()] == runs
    assert counts.by_line_xbin["4"] == (1,)
    # a km of 1e15 on line 2 would stretch its run over 1e14 bins or more
    far = kms.copy()
    far[special[-2:]] = 1e15
    with pytest.raises(ValueError, match=r"^line '2' spans km 0\.0\.\.1000000000000"):
        fit(dataclasses.replace(data, kms=far), bins=BinConfig(delta_x=delta))


# --- records and datasets ---


def test_dataset_validation() -> None:
    rec = AccidentRecord(date=dt.date(2019, 6, 1), time=0, line="1", km=1.0)
    with pytest.raises(ValueError):
        dataset_of((rec,), *PERIOD)
    with pytest.raises(ValueError):
        dataset_of((), PERIOD[1], PERIOD[0])
    empty = dataset_of((), *PERIOD)
    assert empty.n == 0
    assert empty.total_days == 1096


def with_km(data, km: float) -> np.ndarray:
    kms = data.kms.copy()
    kms[3] = km
    return kms


def test_dataset_refuses_columns_parsing_never_gives(bundled_data) -> None:
    data, names = bundled_data, bundled_data.line_names
    cases = [
        # at the parent, the first three failed only later: OverflowError in
        # fit, IndexError, and a numpy broadcast error
        ({"line_names": (*names, "zzz")}, "line_names entry 'zzz' has no record"),
        ({"line_codes": data.line_codes + 5}, f"line_codes must lie in 0..{len(names) - 1}"),
        ({"minutes": data.minutes[:-1]}, f"minutes holds {data.n - 1} entries, line_codes {data.n}"),
        ({"species": data.species + ("",)}, f"species holds {data.n + 1} entries"),
        ({"line_names": names[::-1]}, "line_names must be distinct and sorted"),
        ({"line_names": (names[0], *names)}, "line_names must be distinct and sorted"),
        ({"line_codes": data.line_codes - 1}, "line_codes must lie in"),
        ({"minutes": data.minutes + 1440}, "minutes must lie in 0..1439"),
        ({"minutes": data.minutes - 1440}, "minutes must lie in 0..1439"),
        ({"kms": with_km(data, -0.5)}, "kms must lie in 0.0.."),
        ({"kms": with_km(data, math.nan)}, "kms must lie in 0.0.."),
        ({"kms": with_km(data, math.inf)}, "kms must lie in 0.0.."),
    ]
    for changes, message in cases:
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            dataclasses.replace(data, **changes)
    # float line codes, minutes or dates, or bool kms, built a Dataset that
    # failed only when read or gave km=False
    for name in ("line_codes", "minutes", "dates"):
        with pytest.raises(TypeError, match=f"^{name} must hold integers, got dtype float64$"):
            dataclasses.replace(data, **{name: getattr(data, name) + 0.5})
    with pytest.raises(TypeError, match="^kms must hold floats, got dtype bool$"):
        dataclasses.replace(data, kms=data.kms > 5.0)
    # -0.0 is a km parse_accidents accepts
    assert dataclasses.replace(data, kms=with_km(data, -0.0)).n == data.n
    # the months are derived from the dates, so they cannot be passed in
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(data, months=np.full(data.n, 7))
    with pytest.raises(ValueError, match="read-only"):
        data.months[0] = 7


def test_a_dataset_keeps_no_array_its_caller_can_write(bundled_data) -> None:
    kms = bundled_data.kms.copy()
    data = dataclasses.replace(bundled_data, kms=kms)
    kms[0] = -7.0
    assert data.kms[0] == bundled_data.kms[0]
    with pytest.raises(ValueError, match="read-only"):
        data.kms[0] = -7.0
    # the columns parse_accidents gives are read-only, so they are kept, not copied
    same = dataclasses.replace(bundled_data)
    assert all(getattr(same, name) is getattr(bundled_data, name)
               for name in ("line_codes", "kms", "minutes", "dates"))


def test_a_dataset_keeps_no_container_its_caller_can_edit(bundled_data) -> None:
    species, names = list(bundled_data.species), list(bundled_data.line_names)
    data = dataclasses.replace(bundled_data, species=species, line_names=names)
    species.append("ghost")
    names[0] = "zzz"
    assert data.species == bundled_data.species and data.line_names == bundled_data.line_names
    assert sum(species_profile(data).values()) == data.n
    # the tuples parse_accidents gives are kept, not copied
    same = dataclasses.replace(bundled_data)
    assert same.species is bundled_data.species and same.line_names is bundled_data.line_names


def assert_same_and_read_only(value, copied, where: str) -> None:
    """``copied`` equals ``value`` field by field, and its arrays and mappings are read-only."""
    if dataclasses.is_dataclass(value):
        assert type(copied) is type(value), where
        for f in dataclasses.fields(value):
            if not f.name.startswith("_"):
                assert_same_and_read_only(getattr(value, f.name), getattr(copied, f.name), f"{where}.{f.name}")
    elif isinstance(value, Mapping):
        assert isinstance(copied, MappingProxyType) and list(copied) == list(value), where
        for key in value:
            assert_same_and_read_only(value[key], copied[key], f"{where}[{key!r}]")
    elif isinstance(value, np.ndarray):
        assert not copied.flags.writeable, where
        assert copied.dtype == value.dtype and np.array_equal(copied, value), where
    else:
        assert type(copied) is type(value) and copied == value, where


COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", sorted(COPIERS))
def test_every_checked_table_survives_a_copy_and_a_pickle(
    how: str, bundled_data, bundled_traffic, bundled_model
) -> None:
    # a copy made without the constructor keeps writable columns: an edited km then
    # reaches fit, which refuses an x_first the caller never passed
    grid = sweep_all(bundled_model, bundled_traffic, DEFAULT_PROFILE, (0.001, 0.002))
    tables = (bundled_data, bundled_traffic, bundled_model.counts, bundled_model, grid,
              bundled_model.seasons, DEFAULT_PROFILE)
    for table in tables:
        assert_same_and_read_only(table, COPIERS[how](table), type(table).__name__)


@settings(max_examples=200)
@given(dates=st.lists(st.dates(), min_size=1, max_size=50))
@example(dates=[dt.date.min, dt.date.max])  # ordinals 1 and 3,652,059
@example(dates=[dt.date(1600, 2, 29), dt.date(1900, 2, 28), dt.date(2000, 2, 29), dt.date(2024, 2, 29)])
def test_dataset_months_are_the_months_of_its_dates(dates: list[dt.date]) -> None:
    n = len(dates)
    ordinals = np.array([date.toordinal() for date in dates], dtype=np.int64)
    no_ints = np.zeros(n, dtype=np.int64)
    data = Dataset(dt.date.min, dt.date.max, ("1",), no_ints, np.zeros(n), no_ints, ordinals, ("",) * n)
    assert data.months.tolist() == [dt.date.fromordinal(d).month for d in ordinals.tolist()]


# --- accident CSV ---


def test_parse_accidents_good() -> None:
    data = parse_accidents(io.StringIO(GOOD_CSV), PERIOD)
    assert data.n == 3
    records = tuple(data.records)
    assert records[0].line == "139"
    assert records[0].time == 18 * 60 + 23
    assert records[1].species == ""
    assert records[2].km == 79.9
    # each access is a new one-pass iterator over the same records
    assert tuple(data.records) == records and data.records is not data.records
    assert data.line_names == ("1", "139", "140")
    assert data.line_codes.tolist() == [1, 0, 2]
    with pytest.raises(ValueError):
        data.kms[0] = 1.0  # the columns are read-only


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_records_read_the_columns_block_by_block(bundled_data, block: int) -> None:
    data = bundled_data
    expected = [
        AccidentRecord(dt.date.fromordinal(day), minute, data.line_names[code], km, species)
        for day, minute, code, km, species in zip(
            data.dates.tolist(), data.minutes.tolist(), data.line_codes.tolist(),
            data.kms.tolist(), data.species,
        )
    ]
    with mock.patch.object(ingest, "_BLOCK", block):
        records = data.records
        assert list(records) == expected
        assert list(records) == []  # one pass per access


def test_records_stream_in_memory_of_one_block() -> None:
    # 200k rows; as one tuple the records took 28.5 MiB, and building it
    # peaked at 40 MiB.  Streamed, the columns of one block are converted
    # at a time (about 4 MiB measured), whatever the number of rows
    rng = np.random.default_rng(3)
    n = 200_000
    names = tuple(str(100 + i) for i in range(200))
    days = rng.integers(PERIOD[0].toordinal(), PERIOD[1].toordinal() + 1, n)
    data = Dataset(
        *PERIOD, names, rng.permutation(np.arange(n) % len(names)), rng.uniform(0.0, 400.0, n),
        rng.integers(0, 24 * 60, n), days, ("roe deer", "") * (n // 2),
    )
    tracemalloc.start()
    try:
        seen = sum(1 for _ in data.records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == n
    # 192 bytes a row of one block
    assert peak <= 192 * ingest._BLOCK


def test_parse_accidents_accepts_plain_string() -> None:
    assert parse_accidents(GOOD_CSV, PERIOD).n == 3


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


def test_parse_accidents_checks_the_period_order_before_any_row() -> None:
    reversed_period = (PERIOD[1], PERIOD[0])
    for text in (GOOD_CSV, "", "not,a,header\n"):
        with pytest.raises(ValueError, match="period end 2020-01-01 precedes start 2022-12-31"):
            parse_accidents(text, reversed_period)


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


HEADER = "date,time,line,km,species"
ROW = "2020-01-15,18:23,139,12.4,roe deer"


def km_row(km: str) -> str:
    return f"{HEADER}\n{ROW}\n2021-07-02,04:05,1,{km},fox\n"


def species_row(species: str) -> str:
    return f"{HEADER}\n{ROW}\n2021-07-02,04:05,1,0.5,{species}\n"


# edge texts, each checked against the row-loop oracle on the running Python,
# with whether the array route takes them
EDGE_CASES = {
    "crlf": (f"{HEADER}\r\n{ROW}\r\n{ROW}\r\n", False),
    "lone_cr_line_end": (f"{HEADER}\n{ROW}\r{ROW}\n", False),
    "lone_cr_in_field": (f"{HEADER}\n2020-01-15,18:23,139,12.4,roe\rdeer\n", False),
    "nul": (f"{HEADER}\n2020-01-15,18:23,139,12.4,roe\0deer\n", False),
    "quoted": (f'{HEADER}\n"2020-01-15","18:23","139","12.4","roe deer"\n', False),
    "field_over_limit": (f"{HEADER}\n{ROW}\n{ROW},{'x' * 200_000}\n", False),
    "padded_cells": (
        " date , time,line ,km,species \n 2020-01-15 ,\t18:23 , 139 ,12.4, fox \n",
        False,
    ),
    "whitespace_line": (f"{HEADER}\n{ROW}\n   \n{ROW}\n", False),
    "tab_line": (f"{HEADER}\n{ROW}\n\t\n", False),
    "blank_lines": (f"{HEADER}\n\n{ROW}\n\n\n{ROW}\n\n", True),
    # characters str.splitlines breaks on, inside one field
    "splitlines_breaks": (f"{HEADER}\n2020-01-15,18:23,139,12.4,a\x0bb\x1cc\u2028d\x85e\n", True),
    "blank_first_line": (f"\n{HEADER}\n{ROW}\n", False),
    # no rows after a plain header, or no text: refused without the row loop
    "header_only": (f"{HEADER}\n", True),
    "header_only_no_newline": (HEADER, False),
    "empty": ("", True),
    "no_final_newline": (f"{HEADER}\n{ROW}\n2021-07-02,04:05,1,0.0,fox", True),
    "bad_header": (f"date,time,line,km\n{ROW}\n", False),
    "bad_row_after_valid_rows": (f"{HEADER}\n{ROW}\n\n{ROW}\n2020-01-15,24:00,139,12.4,\n", False),
    "out_of_period_after_valid_rows": (f"{HEADER}\n{ROW}\n{ROW}\n2023-01-01,10:00,1,1.0,\n", False),
    # one row short of a field and the next one over: the cell total is right
    "field_counts_that_balance": (f"{HEADER}\n{ROW}\n2020-01-15,18:23,139,12.4\n{ROW},x\n", False),
    "three_commas": (f"{HEADER}\n{ROW}\n2020-01-15,18:23,139,12.4\n", False),
    "negative_km": (f"{HEADER}\n{ROW}\n2020-01-15,18:23,139,-0.5,\n", False),
    "empty_line_id": (f"{HEADER}\n{ROW}\n2020-01-15,18:23, ,12.4,\n", False),
    "no_line_id": (f"{HEADER}\n{ROW}\n2020-01-15,18:23,,12.4,\n", False),
    # km texts: the array route reads [-]digits[.digits] of at most 15 digits
    "km_15_digits": (km_row("12345678901234.5"), True),
    "km_15_digit_fraction": (km_row("0.00000000000001"), True),
    "km_16_digits": (km_row("123456789012345.6"), False),
    "km_16_digit_fraction": (km_row("0.000000000000001"), False),
    "km_plus_sign": (km_row("+1.5"), False),
    "km_leading_point": (km_row(".5"), False),
    "km_trailing_point": (km_row("5."), False),
    "km_leading_zeros": (km_row("007.50"), True),
    "km_negative_zero": (km_row("-0.0"), True),
    "km_negative_zero_integer": (km_row("-00"), True),
    "km_exponent": (km_row("1e1"), False),
    "km_two_points": (km_row("1.2.3"), False),
    "km_bare_minus": (km_row("-"), False),
    "non_ascii_species": (species_row("Rehwild \u00e9lan \u72d0 \U0001f98c"), True),
    "lone_surrogate_species": (species_row("roe\udc80deer"), True),
    "nbsp_padded_species": (species_row("\u00a0fox"), False),
    "nbsp_inside_species": (species_row("red\u00a0fox"), True),
    "species_at_field_limit": (species_row("x" * csv.field_size_limit()), True),
    "species_over_field_limit": (species_row("x" * (csv.field_size_limit() + 1)), False),
    "header_over_field_limit": (f"{HEADER}{' ' * csv.field_size_limit()}\n{ROW}\n", False),
    "padded_date": (f"{HEADER}\n 2020-01-15,18:23,139,12.4,fox\n", False),
    "date_with_slashes": (f"{HEADER}\n2020/01/15,18:23,139,12.4,fox\n", False),
    "leap_day_of_a_common_year": (f"{HEADER}\n{ROW}\n2021-02-29,18:23,139,12.4,\n", False),
    "short_time": (f"{HEADER}\n2020-01-15,8:23,139,12.4,fox\n", False),
    "time_with_point": (f"{HEADER}\n2020-01-15,18.23,139,12.4,fox\n", False),
    # str.isdigit takes a superscript digit, which int() refuses
    "superscript_digit_time": (f"{HEADER}\n2020-01-15,1\u00b2:00,139,12.4,fox\n", False),
    "fullwidth_digit_time": (f"{HEADER}\n2020-01-15,\uff11\uff18:23,139,12.4,fox\n", False),
    # date.fromisoformat reads these from Python 3.11 on
    "basic_format_date": (f"{HEADER}\n20200115,18:23,139,12.4,fox\n", False),
    "week_date": (f"{HEADER}\n2020-W03-3,18:23,139,12.4,fox\n", False),
}


@pytest.mark.parametrize("text,array_route", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_parse_accidents_edge_texts_match_oracle(text: str, array_route: bool) -> None:
    assert_parses_like_row_loop(text, array_route)


def test_stream_is_split_by_its_own_newline_setting() -> None:
    # a file opened with newline="" hands csv.reader lines that end in a lone
    # "\r", and the csv module ends the row there
    lf = f"{HEADER}\n{ROW}\n2021-07-02,04:05,1,0.0,fox\n"
    cr = lf.replace("\n", "\r")
    assert_same_columns(parse_accidents(io.StringIO(cr, newline=""), PERIOD), parse_accidents(lf, PERIOD))
    with pytest.raises(ParseError):
        parse_accidents(cr, PERIOD)


def test_parsed_species_share_one_str_per_distinct_text() -> None:
    names = ("fox", " fox", "fox ", "", "boar", " ") * 3
    text = f"{HEADER}\n" + "".join(f"2020-01-15,18:23,139,12.4,{name}\n" for name in names)
    quoted = text.replace(",fox", ',"fox"')
    for source in (text, quoted):
        data = parse_accidents(source, PERIOD)
        assert set(data.species) == {"fox", "", "boar"}
        assert len({id(s) for s in data.species}) == len(set(data.species))
    with open(DATA_DIR / "accidents_2020_2022.csv", encoding="utf-8") as fh:
        data = parse_accidents(fh, PERIOD)
    assert len({id(s) for s in data.species}) == len(set(data.species))


def test_quoted_crlf_copy_parses_to_the_same_columns() -> None:
    text = (DATA_DIR / "accidents_2020_2022.csv").read_text(encoding="utf-8")
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(
        csv.reader(io.StringIO(text))
    )
    copy = out.getvalue()
    assert copy.startswith('"date","time","line","km","species"\r\n"')
    assert_same_columns(parse_accidents(copy, PERIOD), parse_accidents(text, PERIOD))


def read_all(lines) -> list:
    """Each row the csv module reads from ``lines`` with its ``line_num``, then its error if any."""
    reader = csv.reader(lines)
    out: list = []
    try:
        for row in reader:
            out.append((row, reader.line_num))
    except csv.Error as exc:
        out.append((str(exc), reader.line_num))
    return out


LINE_TEXTS = ("", "\n", "a", "a\nb", "a\r\nb\r\n", "a\rb\n", '"a\nb",c\n', '"a\r\nb"\r\n',
              '"unterminated\n', '"unterminated', "a\n\n\nb", 'x"y,"z"\rq\n')


@given(st.one_of(st.sampled_from(LINE_TEXTS), st.text(alphabet='a,"\r\n ', max_size=40)))
def test_text_lines_read_like_a_string_io(text: str) -> None:
    assert list(ingest._text_lines(text)) == list(io.StringIO(text))
    assert read_all(ingest._text_lines(text)) == read_all(io.StringIO(text))


def test_text_lines_read_like_a_string_io_across_pieces() -> None:
    # quoted fields spanning lines, CRLF and lone CR, repeated over three pieces
    unit = 'a,b\r\n"x\ny",z\n"q\r\nr"\r\nplain\rcr\n\n'
    text = unit * (3 * ingest._TEXT_PIECE // len(unit) + 1)
    for shift in range(len(unit)):  # moves every piece boundary against the unit
        assert list(ingest._text_lines(text[shift:])) == list(io.StringIO(text[shift:]))
        assert read_all(ingest._text_lines(text[shift:])) == read_all(io.StringIO(text[shift:]))


def test_a_quoted_log_is_parsed_without_a_copy_of_its_text() -> None:
    # a quoted field sends the whole log to the row loop; a copy of the text
    # in io.StringIO takes about four bytes a character on its own
    rows = 50_000
    text = f"{HEADER}\n" + "".join(
        f'2021-{1 + i % 12:02d}-{1 + i % 28:02d},{i % 24:02d}:{i % 60:02d},{100 + i % 7},'
        f'{(i % 4000) / 10!r},"roe deer"\n'
        for i in range(rows)
    )
    with row_loop_watched() as row_loop:
        tracemalloc.start()
        try:
            data = parse_accidents(text, PERIOD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert row_loop.called
    assert data.n == rows and set(data.species) == {"roe deer"}
    assert peak <= 5 * len(text)


def plain_log(rows: int) -> str:
    """A log of ``rows`` plain rows, about 50 characters each."""
    return f"{HEADER}\n" + "".join(
        f"2021-{1 + i % 12:02d}-{1 + i % 28:02d},{i % 24:02d}:{i % 60:02d},{100 + i % 7},"
        f"{(i % 4000) / 10!r},red deer (Cervus elaphus)\n"
        for i in range(rows)
    )


# bytes a parsed row keeps: five 8-byte columns, and a species pointer in
# the list that fills and in the tuple the Dataset holds
COLUMN_BYTES_PER_ROW = 5 * 8 + 8 + 8


def test_a_plain_log_parses_from_a_str_in_memory_of_its_columns() -> None:
    # encoding the whole text at once would take a further byte or more a
    # character; piece by piece one piece's arrays are live at a time (3.2 MB
    # measured at 256 Ki characters a piece, most of it the character indices
    # _cut builds for the species texts)
    rows = 100_000
    text = plain_log(rows)
    assert len(text) > 10 * ingest._TEXT_PIECE
    with row_loop_unused():
        tracemalloc.start()
        try:
            data = parse_accidents(text, PERIOD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert data.n == rows
    assert peak <= COLUMN_BYTES_PER_ROW * rows + 16 * ingest._TEXT_PIECE


def test_a_plain_log_parses_from_a_file_without_holding_its_text(tmp_path: Path) -> None:
    # reading the file whole (readlines() and a join) took 41 MiB traced for a
    # 7 MB log.  A stream's row count is not known ahead, so the columns
    # double in place as they fill and may hold twice the room
    rows = 100_000
    path = tmp_path / "accidents.csv"
    path.write_text(plain_log(rows), encoding="utf-8")
    with row_loop_unused(), open(path, encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            data = parse_accidents(fh, PERIOD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert data.n == rows
    # twice the room in the columns and species list, and the species tuple
    assert peak <= (2 * COLUMN_BYTES_PER_ROW - 8) * rows + 16 * ingest._TEXT_PIECE


# rows that send the last piece of a plain log to the row loop, each with
# the physical line of its error, counted from the first of these rows
REFUSED_LAST_ROWS = {
    "quoted": ('2021-03-04,05:06,7,1.5,"lynx"\n', None),
    "crlf": ("2021-03-04,05:06,7,1.5,lynx\r\n", None),
    "malformed": ("2021-03-04,24:00,7,1.5,lynx\n", 0),
    "out_of_period": ("2023-03-04,05:06,7,1.5,lynx\n", 0),
    "quoted_newline_then_malformed": (
        '2021-03-04,05:06,7,1.5,"two\nlines"\n2021-03-04,05:06,7,1.5,lynx,\n', 2
    ),
}


@pytest.mark.parametrize("stream", [False, True], ids=["str", "stream"])
@pytest.mark.parametrize(
    "last_rows,error_line", REFUSED_LAST_ROWS.values(), ids=REFUSED_LAST_ROWS.keys()
)
def test_a_refused_last_piece_hands_only_the_rest_to_the_row_loop(
    last_rows: str, error_line: int | None, stream: bool
) -> None:
    bundled = (DATA_DIR / "accidents_2020_2022.csv").read_text(encoding="utf-8")
    text = bundled + last_rows
    with mock.patch.object(ingest, "_TEXT_PIECE", 1000), mock.patch.object(ingest, "_BLOCK", 7):
        starts = [0]  # where each piece of the text starts
        while starts[-1] < len(bundled):
            starts.append(ingest._piece_end(text, starts[-1]))
        skipped = text.count("\n", 0, starts[-2])  # the lines before the last piece
        assert skipped > 800
        source = io.StringIO(text, newline="") if stream else text
        with row_loop_watched() as row_loop:
            if error_line is None:
                parsed = parse_accidents(source, PERIOD)
            else:
                with pytest.raises(ParseError) as err:
                    parse_accidents(source, PERIOD)
    # the row loop ran once, from the start of the last piece on
    assert row_loop.call_count == 1 and row_loop.call_args.args[1].skipped == skipped
    try:
        expected = parse_accidents_loop(text, PERIOD)
    except LoopParseError as exc:
        assert (str(err.value), err.value.line_no) == (str(exc), exc.line_no)
        assert exc.line_no == bundled.count("\n") + 1 + error_line
    else:
        assert error_line is None
        assert_columns_hold(parsed, [AccidentRecord(*row) for row in expected])


# --- columnar parsing against the row loop ---

# valid field texts, repeated across rows so the per-text memos are reused
DATE_TEXTS = ("2020-01-01", "2022-12-31", "2021-02-28", "2020-02-29", " 2021-07-02 ")
TIME_TEXTS = ("00:00", "23:59", "18:23", "7:05", "06:0", " 12:30 ", "\uff11\uff12:00")
LINE_TEXTS = ("1", "139", " 7 ", "a,b", '"q"')
SPECIES_TEXTS = ("", "roe deer", " fox ", "a,b", 'say "hi"', "two\nlines")
# the texts csv.writer leaves unquoted
PLAIN_LINE_TEXTS = LINE_TEXTS[:3]
PLAIN_SPECIES_TEXTS = SPECIES_TEXTS[:3]
# malformed or out-of-period texts per field
BAD_TEXTS = (
    ("2020-13-01", "2020-02-30", "x", "", "2019-12-31", "2023-01-01", "20210703", "2021-W01-3"),
    ("24:00", "10:61", "1000", "ab:cd", "", "1:2:3", "-1:00", "1\u00b2:00"),
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
    # half the texts need no quotes, as most logs do; the others quote some
    # or all cells
    plain = draw(st.booleans())
    rows = draw(
        st.lists(
            st.lists(
                st.one_of(
                    st.tuples(
                        st.sampled_from(DATE_TEXTS),
                        st.sampled_from(TIME_TEXTS),
                        st.sampled_from(PLAIN_LINE_TEXTS if plain else LINE_TEXTS),
                        km_texts(delta),
                        st.sampled_from(PLAIN_SPECIES_TEXTS if plain else SPECIES_TEXTS),
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
    if not plain and draw(st.booleans()):
        rows.insert(0, ["2021-03-04", "05:06", "1", "1.0", "two\nlines"])
    quoting = csv.QUOTE_MINIMAL
    if not plain:
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


# a failing example is reported as drawn: shrinking these CSV texts took minutes
report_as_drawn = settings(phases=[phase for phase in Phase if phase is not Phase.shrink])


@report_as_drawn
@given(
    delta_x=st.sampled_from([5.0, 2.5, 0.1]),
    delta_t=st.sampled_from([1.0, 0.5, 0.25]),
    data=st.data(),
)
def test_parse_accidents_matches_row_loop(delta_x: float, delta_t: float, data) -> None:
    text = data.draw(accident_csv(delta_x))
    event("quoted" if '"' in text else "quote-free")
    with row_loop_watched() as row_loop, contextlib.suppress(ParseError):
        parse_accidents(text, PERIOD)
    event("row loop" if row_loop.called else "array route")
    try:
        expected = parse_accidents_loop(text, PERIOD)
    except LoopParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_accidents(text, PERIOD)
        assert (str(err.value), err.value.line_no) == (str(exc), exc.line_no)
        return
    parsed = parse_accidents(text, PERIOD)
    records = [AccidentRecord(*row) for row in expected]
    assert_columns_hold(parsed, records)

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
        traffic, speeds = speed_inputs(counts["x_first"], counts["by_line_xbin"], delta_x)
        pairs = speed_pairs_loop(records, traffic, speeds, delta_x)
        try:
            report = speed_correlation(parsed, traffic, speeds, delta_x)
        except (UndefinedCorrelationError, ValueError):
            # fewer than 3 pairs, or one of the variables constant
            assert len(pairs) < 3 or any(len({p[k] for p in pairs}) == 1 for k in (2, 3))
        else:
            assert report.pairs == tuple(pairs)

    # records, and the dataset parsed back from them
    assert tuple(parsed.records) == tuple(records)
    assert_same_columns(dataset_of(records, *PERIOD), parsed)


def test_accident_csv_draws_quote_free_and_quoted_texts() -> None:
    drawn = []

    @settings(max_examples=60, derandomize=True, database=None)
    @given(accident_csv(5.0))
    def draw(text: str) -> None:
        drawn.append(text)

    draw()
    rows = [text for text in drawn if text.count("\n") > 2]
    assert any('"' not in text for text in rows) and any('"' in text for text in rows)


def assert_same_columns(built: Dataset, parsed: Dataset) -> None:
    assert (built.period_start, built.period_end) == (parsed.period_start, parsed.period_end)
    for name in ("line_names", "species"):
        assert getattr(built, name) == getattr(parsed, name)
    for name in ("line_codes", "kms", "months", "minutes", "dates"):
        # bit for bit: -0.0 == 0.0 would hide a lost sign
        built_column, parsed_column = getattr(built, name), getattr(parsed, name)
        assert built_column.dtype == parsed_column.dtype
        assert built_column.tobytes() == parsed_column.tobytes()


def assert_columns_hold(parsed: Dataset, records: list[AccidentRecord]) -> None:
    """``parsed`` holds ``records`` in its columns, kms bit for bit."""
    assert parsed.n == len(records)
    assert parsed.line_names == tuple(sorted({r.line for r in records}))
    assert [parsed.line_names[c] for c in parsed.line_codes.tolist()] == [r.line for r in records]
    assert parsed.kms.tobytes() == np.array([r.km for r in records], dtype=float).tobytes()
    assert parsed.months.tolist() == [r.date.month for r in records]
    assert parsed.minutes.tolist() == [r.time for r in records]
    assert parsed.dates.tolist() == [r.date.toordinal() for r in records]
    assert parsed.species == tuple(r.species for r in records)
    assert len({id(s) for s in parsed.species}) == len(set(parsed.species))


def row_loop_unused():
    """A context in which the csv.reader row loop of ``parse_accidents`` fails the test."""
    ran = AssertionError("the row loop ran")
    return mock.patch.object(ingest, "_accident_rows", side_effect=ran)


def row_loop_watched():
    """A context that records each call of the csv.reader row loop of ``parse_accidents``."""
    return mock.patch.object(ingest, "_accident_rows", wraps=ingest._accident_rows)


def assert_parses_like_row_loop(text: str, array_route: bool) -> Dataset | None:
    """``parse_accidents`` of ``text``, as a str and as a stream, gives the row-loop
    oracle's records, returned, or its exact error, and runs no row loop exactly
    when ``array_route``."""
    try:
        expected = parse_accidents_loop(text, PERIOD)
    except LoopParseError as exc:
        expected = exc
    parsed = None
    for source in (text, io.StringIO(text)):
        with row_loop_watched() as row_loop:
            if isinstance(expected, LoopParseError):
                with pytest.raises(ParseError) as err:
                    parse_accidents(source, PERIOD)
                assert (str(err.value), err.value.line_no) == (str(expected), expected.line_no)
            else:
                data = parse_accidents(source, PERIOD)
                assert_columns_hold(data, [AccidentRecord(*row) for row in expected])
                if parsed is not None:
                    assert_same_columns(data, parsed)
                parsed = data
        assert row_loop.called != array_route
    return parsed


# --- the array route ---

# characters a plain field may hold: csv.reader splits such a line on every comma
PLAIN_CHARS = st.characters(blacklist_characters=',"\r\n\0')


def plain_texts(min_size: int) -> st.SearchStrategy[str]:
    return st.text(PLAIN_CHARS, min_size=min_size, max_size=5).filter(lambda s: s == s.strip())


PLAIN_KM_TEXTS = st.one_of(
    st.from_regex(r"[0-9]{1,8}(\.[0-9]{1,7})?", fullmatch=True),  # up to 15 digits
    st.tuples(st.floats(0.0, 1000.0), st.integers(0, 6)).map(lambda vk: f"{vk[0]:.{vk[1]}f}"),
    st.from_regex(r"-0{1,3}(\.0{1,3})?", fullmatch=True),
)


@st.composite
def plain_accident_csv(draw) -> str:
    """A log whose every text takes the array route: no quote, CR or NUL,
    ``YYYY-MM-DD`` dates, ``HH:MM`` times, ``[-]digits[.digits]`` km, and
    line and species fields equal to their own strip."""
    lines = draw(st.lists(plain_texts(1), min_size=1, max_size=4, unique=True))
    species = draw(st.lists(plain_texts(0), min_size=1, max_size=4, unique=True))
    row = st.tuples(
        st.dates(*PERIOD).map(dt.date.isoformat),
        st.tuples(st.integers(0, 23), st.integers(0, 59)).map(lambda hm: "%02d:%02d" % hm),
        st.sampled_from(lines),
        PLAIN_KM_TEXTS,
        st.sampled_from(species),
    ).map(",".join)
    rows = draw(st.lists(st.one_of(row, row, st.just("")), min_size=1, max_size=30))
    rows.append(draw(row))
    draw(st.randoms()).shuffle(rows)
    header = draw(st.sampled_from([HEADER, " date , time,line ,km,species "]))
    return "\n".join([header, *rows]) + draw(st.sampled_from(["\n", ""]))


@report_as_drawn
@given(text=plain_accident_csv(), piece=st.sampled_from([1, 30, ingest._TEXT_PIECE]))
def test_plain_logs_take_the_array_route(text: str, piece: int) -> None:
    with mock.patch.object(ingest, "_TEXT_PIECE", piece):
        assert_parses_like_row_loop(text, array_route=True)


@pytest.mark.parametrize(
    "last_row,array_route",
    [
        ("2021-03-04,05:06,7,1.5,lynx", True),
        ("2021-03-04,24:00,7,1.5,lynx", False),
        ("2023-03-04,05:06,7,1.5,lynx", False),
        ("2021-03-04,05:06,7,-1.5,lynx", False),
        ("2021-03-04,05:06, ,1.5,lynx", False),
        ("2021-03-04,05:06,7,1234567890123456,lynx", False),
    ],
)
def test_a_last_block_of_one_row_matches_the_row_loop(last_row: str, array_route: bool) -> None:
    # a first piece of rows with a blank line among them, then a piece of one
    # row with a new line, a new date and a new species, good or bad
    rows = [ROW] * 999 + ["", "2020-06-07,08:09,139,3.5,roe deer"]
    first_piece = "\n".join([HEADER, *rows]) + "\n"
    with mock.patch.object(ingest, "_TEXT_PIECE", len(first_piece) - 1):
        assert_parses_like_row_loop(first_piece + last_row + "\n", array_route)


def test_a_stream_without_cr_takes_the_array_route() -> None:
    text = (DATA_DIR / "accidents_2020_2022.csv").read_text(encoding="utf-8")
    with row_loop_unused():
        from_text = parse_accidents(text, PERIOD)
        with open(DATA_DIR / "accidents_2020_2022.csv", encoding="utf-8") as fh:
            assert_same_columns(parse_accidents(fh, PERIOD), from_text)
    # a file opened with newline="" keeps CRLF line ends, which the row loop reads
    crlf = io.StringIO(text.replace("\n", "\r\n"), newline="")
    assert_same_columns(parse_accidents(crlf, PERIOD), from_text)


def speed_inputs(x_first: dict, by_line_xbin: dict, delta_x: float):
    """Traffic over each line's accident bins and one past them, some bins without
    trains, and a speed step per bin."""
    counts, speeds = {}, {}
    for line, table in by_line_xbin.items():
        indices = range(x_first[line], x_first[line] + len(table) + 1)
        for i in indices:
            counts[(line, i)] = 0.0 if i % 5 == 4 else 10.0 + i % 7
        speeds[line] = SpeedProfile(
            line=line,
            intervals=tuple((i * delta_x, (i + 1) * delta_x, 50.0 + 10 * (i % 3)) for i in indices),
        )
    return traffic_of(counts, delta_x), speeds


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
        # a missing line comes before an out-of-period date too: the period is checked last
        (["2019-06-01,10:00,,1.0,"], 2, "line"),
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
            lambda text: parse_traffic(text, 5.0),
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


# each table parser, its header, and a row whose {value} is the named field
TABLE_PARSERS = {
    "traffic": (
        lambda text: parse_traffic(text, 5.0), "line,km_from,count", "{line},0,{value}", "count"
    ),
    "traffic_runs": (
        lambda text: parse_traffic(text, 5.0),
        "line,km_from,km_to,departure",
        "{line},0,{value},10:00",
        "km_to",
    ),
    "speeds": (parse_speed_profiles, "line,km_from,km_to,vmax", "{line},0,5,{value}", "vmax"),
}


@pytest.mark.parametrize("as_input", [str, io.StringIO], ids=("str", "stream"))
@pytest.mark.parametrize("parse,header,row,field", TABLE_PARSERS.values(), ids=TABLE_PARSERS.keys())
def test_table_parsers_read_empty_input_and_reject_bad_cells(
    as_input, parse, header: str, row: str, field: str
) -> None:
    for text in ("", header + "\n"):
        parsed = parse(as_input(text))
        assert (parsed.counts if isinstance(parsed, TrafficTable) else parsed) == {}
    for line, value, message in (
        ("139", "inf", f"line 2: {field} must be finite, got 'inf'"),
        ("", "6", "line 2: line identifier must be non-empty"),
        ("", "nan", "line 2: line identifier must be non-empty"),  # checked before the cells
    ):
        with pytest.raises(ParseError) as err:
            parse(as_input(f"{header}\n{row.format(line=line, value=value)}\n"))
        assert str(err.value) == message and err.value.line_no == 2


def test_dataset_replace_and_equality() -> None:
    parsed = parse_accidents(GOOD_CSV, PERIOD)
    moved = dataset_of((r._replace(km=r.km + 1.0) for r in parsed.records), *PERIOD)
    assert moved.kms.tolist() == [13.4, 1.0, 80.9]
    assert moved.period_start == parsed.period_start
    longer = dataclasses.replace(parsed, period_end=dt.date(2023, 6, 30))
    assert tuple(longer.records) == tuple(parsed.records) and longer.kms is parsed.kms
    assert longer.total_days == parsed.total_days + 181
    with pytest.raises(ValueError, match="outside period"):
        dataclasses.replace(parsed, period_end=dt.date(2022, 12, 30))
    # datasets compare and hash by identity, as plain objects do
    again = parse_accidents(GOOD_CSV, PERIOD)
    assert_same_columns(again, parsed)
    assert parsed == parsed and again != parsed and len({parsed, again}) == 2


def test_dataset_with_period() -> None:
    def with_period(data: Dataset, start: dt.date, end: dt.date) -> Dataset:
        return dataclasses.replace(data, period_start=start, period_end=end)

    parsed = parse_accidents(GOOD_CSV, PERIOD)
    span = with_period(parsed, dt.date(2020, 1, 15), dt.date(2022, 12, 31))
    assert span.period_start == dt.date(2020, 1, 15)
    assert span.kms is parsed.kms
    assert tuple(span.records) == tuple(parsed.records)
    with pytest.raises(ValueError, match="record dated 2020-01-15 falls outside"):
        with_period(parsed, dt.date(2020, 1, 16), dt.date(2022, 12, 31))
    with pytest.raises(ValueError, match="precedes"):
        with_period(parsed, dt.date(2022, 1, 1), dt.date(2021, 1, 1))


# --- traffic CSV ---


def test_parse_traffic_sums_duplicates() -> None:
    text = "line,km_from,count\n139,10.0,100\n139,10.0,31\n1,0,80\n"
    table = parse_traffic(io.StringIO(text), 5.0)
    assert table.x_first == {"139": 2, "1": 0}
    assert table.counts["139"].tolist() == [131.0] and table.counts["1"].tolist() == [80.0]
    assert table == traffic_of({("139", 2): 131.0, ("1", 0): 80.0})
    with pytest.raises(ValueError, match="read-only"):
        table.counts["139"][0] = -5.0  # the runs are read-only, so no rule can be broken after


def test_parse_traffic_refuses_counts_that_sum_to_inf() -> None:
    # each count is finite; the row whose addition overflows is named
    text = "line,km_from,count\n139,10,1e308\n1,0,1e308\n139,10,1e308\n139,10,1\n"
    with pytest.raises(ParseError, match="^line 4: counts of line 139 in km bin 2 sum to inf$"):
        parse_traffic(io.StringIO(text), 5.0)
    largest = parse_traffic(io.StringIO("line,km_from,count\n139,10,1e308\n139,10,7e307\n"), 5.0)
    assert largest == traffic_of({("139", 2): 1e308 + 7e307})


def test_parse_traffic_sums_duplicate_rows_in_row_order() -> None:
    # fractional counts whose sum depends on the order of the additions, with
    # rows of another bin and another line between them
    counts = [0.01] * 30 + [0.1] * 10 + [0.7, 1e-3] + [0.01] * 30
    rows = [f"7,5,{count!r}\n" for count in counts]
    rows[10:10] = ["7,0,0.01\n", "8,5,0.01\n"]
    table = parse_traffic("line,km_from,count\n" + "".join(rows), 5.0)
    total = 0.0
    for count in counts:
        total += count
    assert total != math.fsum(counts)
    assert table.x_first["7"] == 0 and table.counts["7"].tolist() == [0.01, total]
    assert table == traffic_of({("7", 0): 0.01, ("7", 1): total, ("8", 1): 0.01})


def test_count_rows_past_the_grid_bound_are_refused_in_row_order(monkeypatch) -> None:
    # with room for 10 km bins (120 cells), count rows obey the bound that runs
    # do: the row taking the summed spans past it is named, before any later
    # malformed row, and so is a row whose sum overflowed
    monkeypatch.setattr(wildrail.model, "MAX_GRID_CELLS", 120)
    fits = "line,km_from,count\n1,0,5\n1,45,1\n"
    assert sum(len(run) for run in parse_traffic(fits, 5.0).counts.values()) == 10
    for tail in ("2,0,1\n", "2,0,1\n1,x,1\n", "2,0,1\n1,0,1e308\n1,0,1e308\n"):
        with pytest.raises(ParseError, match=r"^line 4: traffic spans 11 km bins of 5\.0 km"):
            parse_traffic(fits + tail, 5.0)
    overflow = fits + "1,0,1e308\n1,0,1e308\n1,x,1\n"
    with pytest.raises(ParseError, match="^line 5: counts of line 1 in km bin 0 sum to inf$"):
        parse_traffic(overflow, 5.0)


def test_a_bad_traffic_header_names_both_forms() -> None:
    with pytest.raises(ParseError) as err:
        parse_traffic("line,km_from,km_to\n1,0,5\n", 5.0)
    assert str(err.value) == (
        "line 1: traffic header must be 'line,km_from,count' or"
        " 'line,km_from,km_to,departure', got 'line,km_from,km_to'"
    )


def test_long_runs_parse_in_memory_of_one_float_per_bin() -> None:
    # 3 runs of 400,000 bins of 0.5 km; counted bin by bin into a dict they
    # took over 160 MiB
    text = "line,km_from,km_to,departure\n" + "".join(
        f"{line},0,200000,06:00\n" for line in ("1", "2", "3")
    )
    tracemalloc.start()
    try:
        table = parse_traffic(text, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(run) for run in table.counts.values()] == [400_000] * 3
    # every run covers [0, 200000) km, one train in each bin
    assert table.x_first == {"1": 0, "2": 0, "3": 0}
    assert all(np.all(run == 1.0) for run in table.counts.values())
    assert peak < 40 * 2**20


def test_parse_traffic_rejects_bad_rows() -> None:
    with pytest.raises(ParseError):
        parse_traffic(io.StringIO("line,km_from,count\n139,10.0,-3\n"), 5.0)
    with pytest.raises(ParseError):
        parse_traffic(io.StringIO("line,km_from,count\n139,12.0,5\n"), 5.0)  # misaligned
    with pytest.raises(ParseError):
        parse_traffic(io.StringIO("line,km_from,count\n,10.0,5\n"), 5.0)
    with pytest.raises(ParseError):
        parse_traffic(io.StringIO("wrong,header,here\n"), 5.0)


def test_a_departure_with_a_superscript_digit_is_a_parse_error() -> None:
    # str.isdigit takes "²", so int() once raised a bare ValueError with no line
    with pytest.raises(ParseError, match=r"^line 3: time must be HH:MM, got '1²:00'$"):
        parse_traffic("line,km_from,km_to,departure\n1,0,5,08:00\n1,0,5,1\u00b2:00\n", 5.0)
    runs = parse_traffic("line,km_from,km_to,departure\n1,0,5,\uff10\uff18:00\n", 5.0)
    assert runs.counts["1"].tolist() == [1.0]  # full-width digits are decimal digits


def test_parse_traffic_rejects_negative_km_from() -> None:
    with pytest.raises(ParseError, match="line 2: km_from must be non-negative"):
        parse_traffic(io.StringIO("line,km_from,count\n139,-5.0,10\n"), 5.0)


@pytest.mark.parametrize("delta_x", [0.0, -5.0, math.nan, math.inf])
def test_traffic_parsers_reject_bad_bin_width(delta_x: float) -> None:
    # checked before any row is read, so no division by zero can happen
    for parse, text in (
        (parse_traffic, "line,km_from,count\n139,10.0,5\n"),
        (parse_traffic, "line,km_from,km_to,departure\n139,5.0,10.0,06:00\n"),
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

    with pytest.raises(ValueError, match=r"^counts\['1'\] entries must be finite and >= 0, got -1.0$"):
        TrafficTable(x_first={"1": 1}, counts={"1": np.array([1.0, 0.0, -1.0])}, delta_x=5.0)
    with pytest.raises(ValueError):
        TrafficTable(x_first={}, counts={}, delta_x=0.0)
    with pytest.raises(ValueError, match=r"^counts\['1'\] must have shape \(n_x,\) with n_x >= 1, got \(2, 2\)$"):
        TrafficTable(x_first={"1": 1}, counts={"1": np.ones((2, 2))}, delta_x=5.0)
    with pytest.raises(ValueError, match=r"^counts must name the lines of x_first in its order \['1', '2'\], got \['1'\]$"):
        TrafficTable(x_first={"1": 1, "2": 0}, counts={"1": np.ones(2)}, delta_x=5.0)


def test_traffic_table_refuses_non_finite_counts() -> None:
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"^counts\['1'\] entries must be finite and >= 0, got {value}$"):
            TrafficTable(x_first={"1": 1}, counts={"1": np.array([value])}, delta_x=5.0)
    with pytest.raises(ValueError, match=r"^counts\['1'\] entries must be finite and >= 0, got -inf$"):
        TrafficTable(x_first={"1": 1}, counts={"1": np.array([-math.inf])}, delta_x=5.0)


def test_a_traffic_table_keeps_no_array_its_caller_can_write() -> None:
    run = np.array([0.0, 2.0])
    table = TrafficTable({"a": 0}, {"a": run}, 5.0)
    run[0] = -5.0
    assert table.counts["a"].tolist() == [0.0, 2.0]
    with pytest.raises(ValueError, match="read-only"):
        table.counts["a"][0] = -5.0
    for mapping in (table.x_first, table.counts):
        with pytest.raises(TypeError):
            mapping["a"] = mapping["a"]
    assert pickle.loads(pickle.dumps(table)) == copy.deepcopy(table) == table
    # parse_traffic's runs are read-only views of one array, so they are kept, not copied
    parsed = parse_traffic(io.StringIO("line,km_from,count\n1,0,3\n2,5,4\n"), 5.0)
    same = dataclasses.replace(parsed)
    assert all(same.counts[line] is run for line, run in parsed.counts.items())


def test_traffic_table_rejects_starts_no_lookup_reads() -> None:
    # lookups read runs from a first bin index; a km start such as 10.0 would
    # equal bin 10 (km 50), so any first bin but a non-negative int is refused
    for k in (10.0, 10.000000000000002, 3.0, 0.3, True, np.int64(2), -1, "2"):
        with pytest.raises(ValueError, match=r"^x_first\['139'\] must be an int >= 0, got "):
            TrafficTable(x_first={"139": k}, counts={"139": np.array([131.0])}, delta_x=5.0)
    # parse_traffic writes the bin index a lookup reads, for starts within 1e-9 of a bin
    text = "line,km_from,count\n139,10.000000000000002,131\n"
    table = parse_traffic(io.StringIO(text), 5.0)
    assert table == traffic_of({("139", 2): 131.0})
    assert table.x_first == {"139": 2} and table.counts["139"].tolist() == [131.0]
    table = parse_traffic(io.StringIO("line,km_from,count\n1,0.3,1\n"), 0.1)
    assert table == traffic_of({("1", 3): 1.0}, 0.1)
    assert table.x_first == {"1": 3} and table.counts["1"].tolist() == [1.0]


def test_parse_traffic_runs_half_open_overlap() -> None:
    text = (
        "line,km_from,km_to,departure\n"
        "139,7.5,22.5,05:10\n"
        "139,5.0,10.0,06:00\n"
        "139,5.0,10.0,07:00\n"
    )
    table = parse_traffic(io.StringIO(text), 5.0)
    # the long run clips bins 5..20; the short runs touch only bin 5
    # so the run spans bins 1..4: km 0 and km 25 are off it
    assert table.x_first == {"139": 1}
    assert table.counts["139"].tolist() == [3.0, 1.0, 1.0, 1.0]


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
    expected: dict[tuple[str, int], float] = {}
    for km_from, km_to in runs:
        for b in range(math.ceil(km_to / delta_x) + 1):
            if b * delta_x < km_to and (b + 1) * delta_x > km_from:
                expected[("139", b)] = expected.get(("139", b), 0.0) + 1.0
    assert parse_traffic(io.StringIO(text), delta_x) == traffic_of(expected, delta_x)


def test_parse_traffic_runs_rejects_empty_span() -> None:
    with pytest.raises(ParseError):
        parse_traffic(io.StringIO("line,km_from,km_to,departure\n139,10.0,10.0,05:00\n"), 5.0)


def test_parse_traffic_runs_refuses_spans_no_grid_holds(monkeypatch) -> None:
    # with room for 10 km bins (120 cells), the lines' summed spans may reach
    # 10 bins but not 11; checked first, so a missing check fails here and
    # never counts the far runs below
    header = "line,km_from,km_to,departure\n"
    monkeypatch.setattr(wildrail.model, "MAX_GRID_CELLS", 120)
    fits = header + "1,0,30,06:00\n2,0,10,06:00\n2,15,20,06:00\n1,10,15,07:00\n"
    runs = parse_traffic(io.StringIO(fits), 5.0).counts
    assert sum(len(run) for run in runs.values()) == 10
    for extra in ("2,20,20.5,08:00", "3,0,1,08:00", "1,30,35,08:00"):
        with pytest.raises(ParseError, match=r"line 6: traffic spans 11 km bins of 5\.0 km, more than the 10 "):
            parse_traffic(io.StringIO(fits + extra + "\n"), 5.0)
    monkeypatch.undo()
    # 2e8 bins of 5 km, 6e7 bins of 1e-6 km, and a bin index past any float
    for row, delta_x, match in (
        ("139,0,1e9,08:00", 5.0, r"traffic spans 200,000,000 km bins"),
        ("139,0,60,08:00", 1e-6, r"traffic spans 60,000,00\d km bins"),
        ("139,1e10,2e10,08:00", 1e-300, r"km_to 2e10 has no finite 1e-300 km bin index"),
    ):
        with pytest.raises(ParseError, match=f"line 2: {match}"):
            parse_traffic(io.StringIO(header + row + "\n"), delta_x)


# --- geometry ---


def make_geometry() -> LineGeometry:
    return LineGeometry(
        line="139",
        vertices=((50.0, 19.0, 0.0), (50.1, 19.2, 10.0), (50.1, 19.5, 30.0)),
    )


def test_geometry_validation() -> None:
    geo = make_geometry()
    assert geo.km_min == 0.0 and geo.km_max == 30.0
    with pytest.raises(ValueError, match=r"^line 'x': need at least 2 vertices$"):
        LineGeometry(line="x", vertices=((50.0, 19.0, 0.0),))
    with pytest.raises(ValueError):
        LineGeometry(line="x", vertices=((50.0, 19.0, 5.0), (50.1, 19.1, 5.0)))
    with pytest.raises(ValueError):
        LineGeometry(line="x", vertices=((99.0, 19.0, 0.0), (50.1, 19.1, 5.0)))


def test_a_geometry_keeps_no_container_its_caller_can_edit() -> None:
    vertices = [(50.0, 19.0, 0), (50.1, 19.1, 10.0)]
    geo = LineGeometry("x", vertices)
    vertices.append((50.2, 19.2, 5.0))  # km 5 after km 10
    assert geo.vertices == ((50.0, 19.0, 0.0), (50.1, 19.1, 10.0))
    assert {type(v) for vertex in geo.vertices for v in vertex} == {float}


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


def edge_kms(geometry: LineGeometry) -> list[float]:
    """Every vertex km, and one ulp either side of it inside [km_min, km_max]."""
    kms = [v[2] for v in geometry.vertices]
    below = [math.nextafter(k, -math.inf) for k in kms[1:]]
    above = [math.nextafter(k, math.inf) for k in kms[:-1]]
    return kms + below + above


def assert_km_to_geo_matches_loop(geometry: LineGeometry) -> None:
    assert geometry.kms == tuple(v[2] for v in geometry.vertices)
    assert (geometry.km_min, geometry.km_max) == (geometry.kms[0], geometry.kms[-1])
    for km in edge_kms(geometry):
        assert km_to_geo(geometry, km) == km_to_geo_loop(geometry, km), km
    for km in (math.nextafter(geometry.km_min, -math.inf), math.nextafter(geometry.km_max, math.inf)):
        with pytest.raises(ValueError, match="outside calibrated range"):
            km_to_geo(geometry, km)


def test_km_to_geo_matches_loop_at_vertices(bundled_geometries) -> None:
    for geometry in (make_geometry(), *bundled_geometries.values()):
        assert_km_to_geo_matches_loop(geometry)


def off_range_kms(geometry: LineGeometry) -> list[float]:
    """Non-negative kms just and well outside [km_min, km_max]."""
    below = [math.nextafter(geometry.km_min, -math.inf), geometry.km_min / 2]
    above = [math.nextafter(geometry.km_max, math.inf), geometry.km_max + 1.0]
    return [km for km in below if 0 <= km < geometry.km_min] + above


@report_as_drawn
@given(
    polylines=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=500.0),
            st.lists(st.floats(min_value=1e-6, max_value=50.0), min_size=1, max_size=8),
        ),
        min_size=1,
        max_size=3,
    ),
    data=st.data(),
)
def test_km_to_geo_matches_loop_on_random_polylines(polylines, data) -> None:
    coord = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))
    geometries = {}
    candidates = [("none", 0.0), ("none", 12.5)]  # a line without geometry
    for i, (start, steps) in enumerate(polylines):
        # steps far above an ulp: strictly increasing
        kms = list(itertools.accumulate([start, *steps]))
        coords = data.draw(st.lists(coord, min_size=len(kms), max_size=len(kms)))
        vertices = tuple((lat, lon, km) for (lat, lon), km in zip(coords, kms))
        geometry = geometries[f"g{i}"] = LineGeometry(line=f"g{i}", vertices=vertices)
        assert_km_to_geo_matches_loop(geometry)
        inside = data.draw(st.floats(geometry.km_min, geometry.km_max))
        for km in (*edge_kms(geometry), inside, *off_range_kms(geometry)):
            candidates.append((geometry.line, km))
    # geocode places a log over these lines: kms below, at, inside and above
    # each range, in the order drawn
    picks = data.draw(st.lists(st.sampled_from(candidates), max_size=20))
    records = tuple(AccidentRecord(PERIOD[0], 0, line, km) for line, km in picks)
    log = dataset_of(records, *PERIOD)
    expected = [
        km_to_geo_loop(geometries[r.line], r.km)
        for r in records
        if r.line in geometries
        and geometries[r.line].vertices[0][2] <= r.km <= geometries[r.line].vertices[-1][2]
    ]
    with no_records():
        assert geocode(log, geometries) == expected
        assert geocode(log, {}) == []


def test_parse_geometries_round_trip() -> None:
    text = (
        '{"type": "FeatureCollection", "features": [{"type": "Feature", '
        '"properties": {"line": "139", "km": [0.0, 10.0, 30.0]}, '
        '"geometry": {"type": "LineString", '
        '"coordinates": [[19.0, 50.0], [19.2, 50.1], [19.5, 50.1]]}}]}'
    )
    parsed = parse_geometries(io.StringIO(text))
    assert parsed.keys() == {"139"}
    assert parsed["139"].vertices == make_geometry().vertices


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
    for line in ('""', "null", "[1]", '{"a": 1}', "5", "true"):
        with pytest.raises(ParseError, match="feature 0: 'line' must be a non-empty string"):
            parse_geometries(io.StringIO(doc.replace('"1"', line).replace("[0.0]", "[0.0, 5.0]")))


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
    # speed_correlation reads the step [km_from, km_to) holding each 5 km bin's
    # midpoint (2.5, 7.5, 12.5, ...): midpoints on a step's start and on its
    # end, gaps between steps, a profile without steps, a line with speeds but
    # no traffic and one with traffic but no speeds.  Accidents just past a
    # run (line 4, km 21) or far off it count in no bin.  The oracle scans the steps
    speeds = {
        "1": SpeedProfile("1", ((2.5, 7.5, 100.0), (7.5, 12.5, 70.0), (20.0, 27.5, 90.0),
                                (32.5, 40.0, 60.0))),
        "2": SpeedProfile("2", ()),
        "3": SpeedProfile("3", ((0.0, 50.0, 80.0),)),
        "5": SpeedProfile("5", ((0.0, 12.5, 120.0), (12.5, 30.0, 140.0))),
    }
    runs = {"1": [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 0.0, 2.0], "2": [1.0] * 4, "4": [1.0] * 4,
            "5": [10.0, 20.0, 30.0, 40.0, 50.0]}
    firsts = {"1": 0, "2": 0, "4": 0, "5": 1}
    traffic = traffic_of(
        {(line, firsts[line] + i): m for line, run in runs.items() for i, m in enumerate(run)}
    )
    kms = {"1": (1.0, 6.0, 6.5, 21.0, 33.0, 33.0, 36.0, 100.0), "2": (1.0,), "3": (3.0,),
           "4": (2.0, 21.0), "5": (8.0, 13.0, 13.0, 13.0, 27.0, 2.0), "9": (4.0,)}
    records = [AccidentRecord(dt.date(2020, 1, 1), 0, line, km) for line in kms for km in kms[line]]
    report = speed_correlation(dataset_of(records, *PERIOD), traffic, speeds, 5.0)
    assert report.pairs == tuple(speed_pairs_loop(records, traffic, speeds, 5.0))
    assert [pair[:3] for pair in report.pairs] == [
        ("1", 0.0, 100.0), ("1", 5.0, 70.0), ("1", 20.0, 90.0), ("1", 30.0, 60.0),
        ("5", 5.0, 120.0), ("5", 10.0, 140.0), ("5", 15.0, 140.0), ("5", 20.0, 140.0),
        ("5", 25.0, 140.0),
    ]
    assert report.pairs[1][3] == 2 / 4.0 and report.pairs[5][3] == 3 / 20.0


def test_speed_profile_validation() -> None:
    with pytest.raises(ValueError):
        SpeedProfile(line="x", intervals=((0.0, 10.0, 100.0), (5.0, 15.0, 70.0)))
    with pytest.raises(ValueError):
        SpeedProfile(line="x", intervals=((10.0, 10.0, 100.0),))
    with pytest.raises(ValueError):
        SpeedProfile(line="x", intervals=((0.0, 10.0, 0.0),))


def test_a_speed_profile_keeps_no_container_its_caller_can_edit() -> None:
    steps = [(0.0, 5.0, 100)]
    profile = SpeedProfile("x", steps)
    steps.append((5.0, 6.0, -1.0))  # a vmax of -1
    assert profile.intervals == ((0.0, 5.0, 100.0),)
    assert {type(v) for step in profile.intervals for v in step} == {float}


def test_parse_speed_profiles() -> None:
    text = "line,km_from,km_to,vmax\n139,0.0,10.0,100\n139,10.0,15.0,70\n1,0.0,20.0,140\n"
    speeds = parse_speed_profiles(io.StringIO(text))
    assert set(speeds) == {"1", "139"}
    assert speeds["139"].intervals == ((0.0, 10.0, 100.0), (10.0, 15.0, 70.0))
    with pytest.raises(ParseError, match=r"^line '139': empty interval 5\.0\.\.5\.0$"):
        parse_speed_profiles(io.StringIO("line,km_from,km_to,vmax\n139,5.0,5.0,100\n"))
    # the line is quoted, so it cannot pass for a row number of the file
    overlap = "line,km_from,km_to,vmax\n139,0.0,10.0,100\n139,5.0,15.0,70\n"
    with pytest.raises(ParseError, match=r"^line '139': overlapping interval at km 5\.0$"):
        parse_speed_profiles(overlap)


# --- bundled fixtures ---


def test_generate_fixtures_reproduces_data(tmp_path: Path) -> None:
    # the script writes next to itself, so run a copy
    script = shutil.copy(DATA_DIR / "generate_fixtures.py", tmp_path)
    runpy.run_path(script, run_name="__main__")
    written = sorted(path.name for path in tmp_path.iterdir() if path.suffix != ".py")
    bundled = sorted(path.name for path in DATA_DIR.iterdir() if path.suffix != ".py")
    assert written == bundled and len(written) == 5
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name

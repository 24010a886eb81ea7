"""Input records, CSV/GeoJSON parsing, and linear referencing for railway lines."""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator, NamedTuple, Union

import numpy as np

__all__ = [
    "ParseError",
    "AccidentRecord",
    "Dataset",
    "TrafficTable",
    "LineGeometry",
    "SpeedProfile",
    "bin_index",
    "count_days",
    "parse_accidents",
    "parse_traffic",
    "parse_geometries",
    "km_to_geo",
    "geocode",
    "parse_speed_profiles",
]

ACCIDENT_HEADER = ("date", "time", "line", "km", "species")
TRAFFIC_HEADER = ("line", "km_from", "count")
TRAFFIC_RUN_HEADER = ("line", "km_from", "km_to", "departure")
SPEED_HEADER = ("line", "km_from", "km_to", "vmax")

MINUTES_PER_DAY = 24 * 60

# rows or points handled per array block, here and in analysis, so the
# short-lived arrays stay a few MB however long the input is
_BLOCK = 1 << 15

# characters of input that the parsers take at a time, in whole lines
_TEXT_PIECE = 1 << 18


class ParseError(ValueError):
    """Raised when an input stream violates its schema.

    ``line_no`` is the 1-based physical line of the offending row when the
    error is row-level, ``None`` for stream-level problems.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _bin_floor(values: np.ndarray, delta: float) -> np.ndarray:
    """Index k of the half-open bin [k*delta, (k+1)*delta) holding each value, as floats.

    Bins are anchored at 0.  The floor is corrected so that start <= value <
    start+delta holds even when value/delta rounds across an integer, and a
    float index cannot overflow however large the value.
    """
    with np.errstate(over="ignore"):
        idx = np.floor(values / delta)
    down = idx * delta > values
    up = ~down & ((idx + 1) * delta <= values)
    return idx - down + up


def _real(value, name: str) -> float:
    """``value`` as a float: a TypeError naming ``name`` unless it is an int, a float or a
    numpy real (not a bool), and a ValueError naming it for an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be an integer or a float, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # the int's repr can be too long to print
        raise ValueError(f"{name} must fit a float, got an int of {value.bit_length()} bits") from None


def _positive(value, name: str) -> float:
    """``_real(value, name)``, and a ValueError naming ``name`` unless it is positive and finite."""
    number = _real(value, name)
    if not 0 < number < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return number


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; a TypeError naming ``name`` unless they are ints or floats."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":  # bools, strings and objects such as None are refused
        raise TypeError(f"{name} values must be integers or floats, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def bin_index(value: float, delta: float) -> int:
    """Index k of the bin [k*delta, (k+1)*delta) holding ``value``, as ``_bin_floor`` finds it;
    a ValueError where there is no finite index (NaN, infinite or too large a value) or
    ``delta`` is not positive and finite, and a TypeError where either is not a number."""
    index = _bin_floor(_real(value, "value"), _positive(delta, "delta"))
    if not math.isfinite(index):
        raise ValueError(f"{value!r} has no finite bin index at bin width {delta!r}")
    return int(index)


def count_days(start: dt.date, end: dt.date, days_per_year: str = "calendar") -> int:
    """Number of days in the inclusive span [start, end].

    ``days_per_year="365"`` skips leap days (Feb 29), so every year
    contributes at most 365 days; ``"calendar"`` counts real days.
    """
    if end < start:
        raise ValueError(f"period end {end} precedes start {start}")
    if days_per_year not in ("calendar", "365"):
        raise ValueError(f"days_per_year must be 'calendar' or '365', got {days_per_year!r}")
    days = (end - start).days + 1
    if days_per_year == "365":
        for year in range(start.year, end.year + 1):
            try:
                leap_day = dt.date(year, 2, 29)
            except ValueError:
                continue
            if start <= leap_day <= end:
                days -= 1
    return days


class AccidentRecord(NamedTuple):
    """One wildlife-train collision report, as iterating a Dataset's ``records`` yields it.

    An immutable named tuple.  ``time`` is minutes since midnight in [0,
    1440); ``km`` is the position along the line in kilometres (any
    non-negative real); ``species`` is free-form and may be empty.
    ``parse_accidents`` checks these rules on the input rows; no function
    takes records as input.
    """

    date: dt.date
    time: int
    line: str
    km: float
    species: str = ""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Accident records as columns, together with the observation period.

    The period is what the exposure time T is computed from, so it must be
    stated even when no accident falls on its first or last day.
    ``__post_init__`` holds the rules ``parse_accidents`` gives its datasets
    for ``dataclasses.replace`` of one too, with a ValueError naming the
    field at fault: columns of equal length, every date inside the period,
    and the column rules below.

    The columns hold one entry per record, in input order: ``line_codes``
    indexes ``line_names`` (the distinct lines, sorted, each with a record);
    ``kms`` (finite, >= 0), ``months`` (1..12), ``minutes`` (since midnight)
    and ``dates`` (``date.toordinal()``) are read-only numpy arrays;
    ``species`` is a tuple of str.  ``records`` reads the columns back as
    AccidentRecord named tuples: each access returns a new one-pass
    iterator, so wrap it in ``tuple()`` to keep or index the records.
    Datasets compare and hash by identity.
    """

    period_start: dt.date
    period_end: dt.date
    line_names: tuple[str, ...]
    line_codes: np.ndarray
    kms: np.ndarray
    months: np.ndarray
    minutes: np.ndarray
    dates: np.ndarray
    species: tuple[str, ...]

    def __post_init__(self) -> None:
        start, end = self.period_start, self.period_end
        if end < start:
            raise ValueError("period_end precedes period_start")
        n, names = len(self.line_codes), self.line_names
        for name in ("kms", "months", "minutes", "dates", "species"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} holds {len(getattr(self, name))} entries, line_codes {n}")
        if list(names) != sorted(set(names)):
            raise ValueError("line_names must be distinct and sorted")
        bounds = (("line_codes", 0, len(names) - 1), ("months", 1, 12),
                  ("minutes", 0, MINUTES_PER_DAY - 1), ("kms", 0.0, np.finfo(float).max))
        for name, lo, hi in bounds:
            column = getattr(self, name)
            if n and not (lo <= column.min() and column.max() <= hi):  # NaN fails both
                raise ValueError(f"{name} must lie in {lo}..{hi}")
        unused = np.flatnonzero(np.bincount(self.line_codes, minlength=len(names)) == 0)
        if unused.size:
            raise ValueError(f"line_names entry {names[unused[0]]!r} has no record")
        outside = np.flatnonzero((self.dates < start.toordinal()) | (self.dates > end.toordinal()))
        if outside.size:
            date = dt.date.fromordinal(int(self.dates[outside[0]]))
            raise ValueError(f"record dated {date} falls outside period {start}..{end}")

    @property
    def records(self) -> Iterator[AccidentRecord]:
        """The columns as AccidentRecord named tuples, one pass per access.

        Each access returns a fresh iterator that builds the records block by
        block as it is read, so no more than a block of them is held at once;
        ``tuple(data.records)`` keeps them all.
        """
        days: dict[int, dt.date] = {}  # one date object per distinct day
        for first in range(0, self.n, _BLOCK):
            block = slice(first, first + _BLOCK)
            dates = self.dates[block].tolist()
            days.update((day, dt.date.fromordinal(day)) for day in set(dates).difference(days))
            yield from map(
                AccidentRecord._make,
                zip(
                    map(days.__getitem__, dates),
                    self.minutes[block].tolist(),
                    map(self.line_names.__getitem__, self.line_codes[block].tolist()),
                    self.kms[block].tolist(),
                    self.species[block],
                ),
            )

    @property
    def n(self) -> int:
        """Total number of records (N)."""
        return len(self.kms)

    @property
    def total_days(self) -> int:
        """Calendar days in the observation period, inclusive."""
        return count_days(self.period_start, self.period_end)


def _piece_end(text: str, start: int) -> int:
    """The end of the piece of ``text`` from ``start``: its fewest whole lines that
    pass ``_TEXT_PIECE`` characters, as ``readlines(_TEXT_PIECE)`` reads a stream."""
    return text.find("\n", start + _TEXT_PIECE) + 1 or len(text)


def _text_lines(text: str, start: int = 0) -> Iterator[str]:
    """The lines of ``text[start:]`` as io.StringIO yields them, each up to and with its "\\n".

    The text goes through io.StringIO one ``_piece_end`` piece at a time, so
    the lines are the same and the text is never copied whole.
    """
    while start < len(text):
        end = _piece_end(text, start)
        yield from io.StringIO(text[start:end])
        start = end


def _read_header(reader, headers: tuple, what: str) -> tuple[str, ...] | None:
    """Consume the header row and return which of ``headers`` it is; None for an empty stream."""
    try:
        header = next(reader)
    except StopIteration:
        return None
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None
    got = tuple(cell.strip() for cell in header)
    if got not in headers:
        accepted = " or ".join(repr(",".join(expected)) for expected in headers)
        raise ParseError(f"{what} header must be {accepted}, got {','.join(got)!r}", line_no=1)
    return got


def _rows(reader, n_fields: int, skipped: int = 0) -> Iterator[tuple[int, list[str]]]:
    """Each remaining non-blank row, its cells stripped, with its first physical line.

    ``skipped`` counts the physical lines of the input before the reader's
    first.  A quoted newline makes a row span several lines.  A row without
    exactly ``n_fields`` cells is a ParseError, and so is text the csv module
    rejects (a field over ``csv.field_size_limit()``, or a NUL before Python
    3.11), named by the physical line where the csv module stopped.
    """
    first = skipped + reader.line_num + 1
    try:
        for row in reader:
            if row:
                if len(row) != n_fields:
                    raise ParseError(f"expected {n_fields} fields, got {len(row)}", first)
                yield first, [cell.strip() for cell in row]
            first = skipped + reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(str(exc), skipped + reader.line_num) from None


def _table_rows(stream, headers: tuple, what: str) -> Iterator[tuple[int, str, list]]:
    """``(line_no, line, other cells)`` of each ``_rows`` row of CSV text or a text stream.

    The header must read one of ``headers`` (``what`` names the table), as
    wide as every row, and each line identifier must be non-empty, or a
    ParseError says so.  An empty stream yields no rows.
    """
    reader = csv.reader(_text_lines(stream) if isinstance(stream, str) else stream)
    header = _read_header(reader, headers, what)
    if header:
        for line_no, (line, *cells) in _rows(reader, len(header)):
            if not line:
                raise ParseError("line identifier must be non-empty", line_no)
            yield line_no, line, cells


def _iso_date(text: str) -> dt.date:
    """The date ``text`` spells as exactly ``YYYY-MM-DD`` in ASCII digits; a ValueError otherwise.

    ``date.fromisoformat`` also reads ``20200102`` and ``2020-W01-3`` from
    Python 3.11 on, so it would accept different dates on different Pythons.
    """
    digits = text[:4] + text[5:7] + text[8:]
    if len(text) != 10 or text[4] + text[7] != "--" or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"date must be YYYY-MM-DD, got {text!r}")
    return dt.date(int(text[:4]), int(text[5:7]), int(text[8:]))


def _parse_time_field(text: str, line_no: int) -> int:
    parts = text.split(":")
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise ParseError(f"time must be HH:MM, got {text!r}", line_no)
    hh, mm = int(parts[0]), int(parts[1])
    if hh > 23 or mm > 59:
        raise ParseError(f"time out of range, got {text!r}", line_no)
    return hh * 60 + mm


def _parse_float_field(text: str, name: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{name} must be a number, got {text!r}", line_no) from None
    if not math.isfinite(value):
        raise ParseError(f"{name} must be finite, got {text!r}", line_no)
    return value


class _AccidentColumns:
    """The accident columns of one parse as they fill, and the state both routes share.

    The array route and the row loop each add rows with ``put``.  ``lines``
    gives each line name its code in order of first appearance, and
    ``shared_species`` maps each species text to the one str kept for it.
    ``days`` maps each date the array route has checked, as the integer
    ``YYYYMMDD``, to its ordinal and month; the row loop keeps its own map
    from each date text to that pair, or to None for a date outside the
    period, and puts its rows as lists.  ``skipped`` counts the physical
    lines the array route has taken, the header among them.  The columns
    start with room for ``capacity`` rows and double in place when full.
    """

    def __init__(self, capacity: int) -> None:
        self.n = 0
        self.skipped = 0
        self.lines: dict[str, int] = {}
        self.shared_species: dict[str, str] = {}
        self.days: dict[int, tuple[int, int]] = {}
        # line codes, kms, months, minutes and dates, as the Dataset orders them
        dtypes = (np.int64, float, np.int64, np.int64, np.int64)
        self.columns = [np.empty(capacity, dtype) for dtype in dtypes]
        self.species = [""] * capacity

    def put(self, codes, kms, months, minutes, dates, species: list[str]) -> None:
        """Append rows, one array or list per column."""
        first, end = self.n, self.n + len(species)
        if end > len(self.species):
            size = max(2 * len(self.species), end)
            for column in self.columns:
                column.resize(size, refcheck=False)  # nothing else refers to it
            self.species.extend([""] * (size - len(self.species)))
        for column, values in zip(self.columns, (codes, kms, months, minutes, dates)):
            column[first:end] = values
        self.species[first:end] = species
        self.n = end

    def dataset(self, period: tuple[dt.date, dt.date]) -> Dataset:
        """The rows put so far as a Dataset, its line codes indexing the sorted names."""
        if not self.n:
            raise ParseError("no accident records in input")
        for column in self.columns:
            column.resize(self.n, refcheck=False)
        del self.species[self.n :]
        position = {name: i for i, name in enumerate(sorted(self.lines))}
        codes = self.columns[0]
        codes[:] = np.array([position[name] for name in self.lines], dtype=np.int64)[codes]
        for column in self.columns:
            column.setflags(write=False)
        return Dataset(period[0], period[1], tuple(position), *self.columns, tuple(self.species))


def _accident_rows(
    lines: Iterable[str], columns: _AccidentColumns, period: tuple[dt.date, dt.date]
) -> None:
    """Put the rows of ``lines`` into ``columns``, checked one by one with a csv.reader.

    ``lines`` are the input's physical lines from line ``columns.skipped + 1``
    on, so the header comes first when nothing was skipped.  Rows go into
    the columns ``_BLOCK`` at a time.  This row loop raises every ParseError
    of ``parse_accidents`` that names a line, and parses each distinct date
    and time text once.
    """
    reader = csv.reader(lines)
    if not columns.skipped:  # a piece is never empty, so the header is read or refused
        _read_header(reader, (ACCIDENT_HEADER,), "accident")
    start, end = period
    known_lines, shared_species = columns.lines, columns.shared_species
    day_of_text: dict[str, tuple[int, int] | None] = {}  # None: outside the period
    minute_of_text: dict[str, int] = {}
    block = codes, kms, months, minutes, dates, species = [], [], [], [], [], []
    for line_no, fields in _rows(reader, len(ACCIDENT_HEADER), columns.skipped):
        date_text, time_text, line, km_text, species_text = fields
        if date_text not in day_of_text:
            try:
                date = _iso_date(date_text)
            except ValueError:
                raise ParseError(f"invalid calendar date {date_text!r}", line_no) from None
            day_of_text[date_text] = (date.toordinal(), date.month) if start <= date <= end else None
        minute = minute_of_text.get(time_text)
        if minute is None:
            minute = minute_of_text[time_text] = _parse_time_field(time_text, line_no)
        km = _parse_float_field(km_text, "km", line_no)
        if km < 0:
            raise ParseError(f"km must be non-negative, got {km_text!r}", line_no)
        if not line:
            raise ParseError("line identifier must be non-empty", line_no)
        day = day_of_text[date_text]
        if day is None:  # _iso_date read the text, so it is the date's ISO form
            raise ParseError(f"record dated {date_text} outside period {start}..{end}", line_no)
        codes.append(known_lines.setdefault(line, len(known_lines)))
        kms.append(km)
        dates.append(day[0])
        months.append(day[1])
        minutes.append(minute)
        species.append(shared_species.setdefault(species_text, species_text))
        if len(kms) == _BLOCK:
            columns.put(*block)
            for column in block:
                column.clear()
    columns.put(*block)


_NEWLINE, _COMMA = ord("\n"), ord(",")
# 10.0**k as exact doubles, for the km texts with k digits after the point
_POW10 = np.array([float(10**k) for k in range(16)])


def _number(
    buf: np.ndarray, begins: np.ndarray, ends: np.ndarray, form: bytes
) -> np.ndarray | None:
    """The digits of fields spelled like ``form``, whose "0"s stand for digits, read
    as one integer (``YYYYMMDD`` for ``b"0000-00-00"``); None if a field differs."""
    if (ends - begins != len(form)).any():
        return None
    number = np.zeros(len(begins), dtype=np.int64)
    for offset, char in enumerate(form):
        column = buf[begins + offset]
        if char == ord("0"):
            column = column - np.uint8(ord("0"))  # wraps below "0", so a non-digit is over 9
            if (column > 9).any():
                return None
            number = number * 10 + column
        elif (column != char).any():
            return None
    return number


def _kms(buf: np.ndarray, begins: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """``float(text)`` of km texts ``[-]digits[.digits]`` with at most 15 digits; else None.

    The digits make an integer mantissa and ``k`` of them follow the point.
    Both the mantissa and 10**k are exact doubles, so the one rounding of
    ``mantissa / 10.0**k`` gives the double nearest the text, as ``float``
    does.  A negative km other than -0.0 is None: the row loop rejects it.
    """
    sizes = ends - begins
    if sizes.min() < 1 or sizes.max() > 17:  # "-", 15 digits and "."
        return None
    negative = buf[begins] == ord("-")
    mantissa = np.zeros(len(sizes), dtype=np.int64)
    point = np.full(len(sizes), -1)  # where the "." is
    for offset in range(sizes.max()):
        inside = offset < sizes
        column = buf.take(begins + offset, mode="clip")
        value = column - np.uint8(ord("0"))  # wraps below "0", so a non-digit is over 9
        digit = inside & (value <= 9)
        dot = inside & (column == ord("."))
        other = inside & ~digit & ~dot
        if offset == 0:
            other &= ~negative
        if other.any() or (dot & (point >= 0)).any():
            return None
        mantissa = np.where(digit, mantissa * 10 + value, mantissa)
        point[dot] = offset
    has_point = point >= 0
    n_digits = sizes - negative - has_point  # every other character is a digit
    if (
        (n_digits < 1).any()
        or (n_digits > 15).any()
        or (has_point & ((point <= negative) | (point >= sizes - 1))).any()
        or (negative & (mantissa != 0)).any()
    ):
        return None
    kms = mantissa / _POW10[np.where(has_point, sizes - 1 - point, 0)]
    return np.where(negative, -kms, kms)


def _cut(buf: np.ndarray, begins: np.ndarray, ends: np.ndarray) -> list[str]:
    """The text of each byte range ``[begins, ends)`` of ``buf``, with one decode for all."""
    sizes = ends - begins + 1  # and a separator
    stops = np.cumsum(sizes)
    chars = buf.take(np.arange(stops[-1]) + np.repeat(begins - (stops - sizes), sizes), mode="clip")
    chars[stops - 1] = _NEWLINE
    return chars.tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]


def _accident_piece(piece: str, columns: _AccidentColumns, period: tuple[dt.date, dt.date]) -> bool:
    """Put the rows of ``piece``, whole lines of the input, into ``columns`` as byte arrays.

    The piece opens with the header when ``columns.skipped`` is 0.  Only text
    with no quote, CR or NUL is taken: csv.reader would split each of its
    lines on every comma.  Its rows are parsed with digit arithmetic: a date
    must read ``YYYY-MM-DD``, a time ``HH:MM`` and a km ``[-]digits[.digits]``
    (see ``_kms``); a line name must be non-empty and, like a species, equal
    its own ``.strip()``.  Each distinct date is checked once.  False means
    the row loop must parse the piece, and puts no row, line or species: it
    breaks one of these forms or a row-loop rule (and the row loop names the
    row), or has a field over ``csv.field_size_limit()``.
    """
    if '"' in piece or "\r" in piece or "\0" in piece:
        return False
    limit = csv.field_size_limit()
    if not columns.skipped:
        header_end = piece.find("\n")
        if header_end < 0 or header_end > limit:
            return False
        if tuple(map(str.strip, piece[:header_end].split(","))) != ACCIDENT_HEADER:
            return False
    buf = np.frombuffer(piece.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    newlines = np.flatnonzero(buf == _NEWLINE)
    line_starts, line_ends = np.append(0, newlines + 1), np.append(newlines, len(buf))
    if not columns.skipped:  # past the header
        line_starts, line_ends = line_starts[1:], line_ends[1:]
    filled = line_ends > line_starts  # csv.reader skips blank lines
    row_starts, row_ends = line_starts[filled], line_ends[filled]
    if len(row_starts):
        commas = np.flatnonzero(buf[row_starts[0] : row_ends[-1]] == _COMMA) + row_starts[0]
        if len(commas) != 4 * len(row_starts):
            return False
        commas = commas.reshape(-1, 4)
        # each row's four commas lie inside it, so it holds exactly four
        if (commas[:, 0] < row_starts).any() or (commas[:, 3] >= row_ends).any():
            return False
        begins = np.column_stack((row_starts, commas + 1))
        stops = np.column_stack((commas, row_ends))
        if (stops - begins).max() > limit:
            return False
        ymd = _number(buf, begins[:, 0], stops[:, 0], b"0000-00-00")
        hhmm = _number(buf, begins[:, 1], stops[:, 1], b"00:00")
        kms = _kms(buf, begins[:, 3], stops[:, 3])
        if ymd is None or hhmm is None or kms is None:
            return False
        hours, mins = np.divmod(hhmm, 100)
        if (hours > 23).any() or (mins > 59).any():
            return False
        start, end = period
        days = columns.days
        keys, day_index = np.unique(ymd, return_inverse=True)
        for key in keys.tolist():
            if key not in days:
                try:
                    date = dt.date(key // 10000, key // 100 % 100, key % 100)
                except ValueError:
                    return False
                if not start <= date <= end:
                    return False
                days[key] = (date.toordinal(), date.month)
        day_ordinals, day_months = np.array([days[key] for key in keys.tolist()], dtype=np.int64).T
        names = _cut(buf, begins[:, 2], stops[:, 2])
        new_names = set(names).difference(columns.lines)
        if any(not name or name != name.strip() for name in new_names):
            return False
        texts = _cut(buf, begins[:, 4], stops[:, 4])
        new_species = set(texts).difference(columns.shared_species)
        if any(value != value.strip() for value in new_species):
            return False
        lines, shared_species = columns.lines, columns.shared_species
        for name in new_names:
            lines[name] = len(lines)
        shared_species.update(zip(new_species, new_species))
        columns.put(
            np.fromiter(map(lines.__getitem__, names), dtype=np.int64, count=len(names)), kms,
            day_months[day_index], hours * 60 + mins, day_ordinals[day_index],
            list(map(shared_species.__getitem__, texts)),
        )
    columns.skipped += len(newlines)
    return True


def _pieces(stream: Union[str, IO[str]]) -> Iterator[tuple[str, Iterator[str]]]:
    """The input in pieces of whole lines, each with its lines and every later one.

    A str is cut as ``_text_lines`` cuts it.  A stream gives pieces of
    ``stream.readlines(_TEXT_PIECE)``, so its own newline setting splits it.
    The lines run from the start of the piece to the end of the input, as
    the row loop reads them; they are read only if iterated.
    """
    if isinstance(stream, str):
        start = 0
        while start < len(stream):
            end = _piece_end(stream, start)
            yield stream[start:end], _text_lines(stream, start)
            start = end
    else:
        while lines := stream.readlines(_TEXT_PIECE):
            yield "".join(lines), (line for part in (lines, stream) for line in part)


def parse_accidents(stream: Union[str, IO[str]], period: tuple[dt.date, dt.date]) -> Dataset:
    """Parse accident CSV (``date,time,line,km,species``) into a Dataset.

    Parsing is strict: any malformed row aborts with a ParseError naming the
    offending physical line, as does a record dated outside ``period``.  A
    date must read exactly ``YYYY-MM-DD``.  An input with no data rows is an
    error.  Equal species values share one str object.

    The input is read one piece of whole lines at a time (see ``_pieces``),
    so neither the text nor a copy of it is held whole beyond what the
    caller passed.  A piece with no quote, CR or NUL whose every row is
    plain (``YYYY-MM-DD`` dates, ``HH:MM`` times, ``[-]digits[.digits]`` km
    of at most 15 digits, and line and species fields without padding) goes
    into the columns as byte arrays.  The first piece that is not, and every
    error, hands that piece and the rest of the input to a csv.reader row
    loop, which goes on with the lines, species and physical line numbers
    the pieces before it left and parses each distinct date and time text
    once.  A stream's own newline setting splits its lines: a file opened
    with ``newline=""`` may end them in a lone CR.

    Args:
        stream: CSV text or an open text stream.
        period: inclusive (start, end) observation dates.

    Raises:
        ValueError: ``period`` ends before it starts.
        ParseError: malformed header, row, field, or out-of-period record.
    """
    if period[1] < period[0]:
        raise ValueError(f"period end {period[1]} precedes start {period[0]}")
    # rows of a str are fewer than its lines, so its columns never grow
    columns = _AccidentColumns(stream.count("\n") + 1 if isinstance(stream, str) else 0)
    for piece, lines in _pieces(stream):
        if not _accident_piece(piece, columns, period):
            _accident_rows(lines, columns, period)
            break
    else:
        if not columns.skipped:
            raise ParseError("empty accident file")
    return columns.dataset(period)


def _grid_index(start: float, delta: float) -> int | None:
    """k when ``start`` is the bin start k*delta, up to a 1e-9 bin tolerance; else None."""
    ratio = start / delta
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
        return None
    return round(ratio)


@dataclass(frozen=True)
class TrafficTable:
    """Daily train counts per line as one dense run of km bins, the layout of ``ModelCounts``.

    ``counts[line][i]`` counts km bin k = ``x_first[line] + i``, which is
    [k * delta_x, (k + 1) * delta_x); bins off a line's run count as zero.
    ``x_first`` values must be plain non-negative ints, so a start such as
    10.0 is not read as bin 10, and runs 1-D arrays of finite, non-negative
    counts.  Tables are equal when their bin widths and runs are.
    """

    x_first: dict[str, int]
    counts: dict[str, np.ndarray]
    delta_x: float

    def __post_init__(self) -> None:
        _positive(self.delta_x, "delta_x")
        if self.x_first.keys() != self.counts.keys():
            raise ValueError("x_first and counts must name the same lines")
        for line, run in self.counts.items():
            k = self.x_first[line]
            if type(k) is not int or k < 0:
                raise ValueError(f"km bin {k!r} on line {line} must be a non-negative int index")
            if not isinstance(run, np.ndarray) or run.ndim != 1:
                raise ValueError(f"counts of line {line} must be a 1-D numpy array")
            bad = np.flatnonzero(~((run >= 0) & (run < math.inf)))
            if bad.size:
                value, kind = float(run[bad[0]]), "negative" if run[bad[0]] < 0 else "non-finite"
                raise ValueError(f"{kind} count {value} on line {line} in km bin {k + int(bad[0])}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficTable):
            return NotImplemented
        same = self.delta_x == other.delta_x and self.x_first == other.x_first
        return same and all(np.array_equal(r, other.counts[ln]) for ln, r in self.counts.items())


def parse_traffic(stream: Union[str, IO[str]], delta_x: float) -> TrafficTable:
    """Parse traffic CSV, in the form its header names, into a TrafficTable.

    ``line,km_from,count`` rows give trains per day by km bin: km_from must be
    non-negative and on the ``delta_x`` grid, and a bin's rows are summed in
    row order.  ``line,km_from,km_to,departure`` rows are the train runs of a
    day: each adds one train to every bin its [km_from, km_to) overlaps, and
    the departure is checked, not kept (the traffic profile shapes the day).
    Rows whose per-line bin spans sum past ``model.MAX_GRID_CELLS // 12``,
    more km bins than any warning grid holds, are refused before any bin is
    counted.  An error names its row: a malformed row is reported once the
    rows before it pass that bound and sum without overflow.  An empty stream
    yields an empty table.

    Raises:
        TypeError: delta_x is not an int or a float.
        ValueError: delta_x not positive and finite.
        ParseError: malformed header, row or field, rows past that bound, or
            a sum that overflows.
    """
    from . import model  # the grid bound lives there, and model imports this module

    _positive(delta_x, "delta_x")
    lines: dict[str, int] = {}  # line -> its code
    # per row: its line's code, physical line, and bin index (counts) or km_from (runs);
    # then the count of each count row and the km_to of each run
    codes, line_nos, starts, counts, stops = [], [], [], [], []
    error = None
    rows = _table_rows(stream, (TRAFFIC_HEADER, TRAFFIC_RUN_HEADER), "traffic")
    try:
        for line_no, line, cells in rows:
            km_from = _parse_float_field(cells[0], "km_from", line_no)
            if len(cells) == 2:  # line,km_from,count
                if km_from < 0:
                    raise ParseError(f"km_from must be non-negative, got {cells[0]!r}", line_no)
                index = _grid_index(km_from, delta_x)
                if index is None:
                    raise ParseError(
                        f"km_from {cells[0]} is not aligned to the {delta_x} km grid", line_no
                    )
                count = _parse_float_field(cells[1], "count", line_no)
                if count < 0:
                    raise ParseError(f"count must be non-negative, got {cells[1]!r}", line_no)
                starts.append(index)
                counts.append(count)
            else:  # line,km_from,km_to,departure
                km_to = _parse_float_field(cells[1], "km_to", line_no)
                if km_from < 0 or km_to <= km_from:
                    raise ParseError(
                        f"need 0 <= km_from < km_to, got {cells[0]}..{cells[1]}", line_no
                    )
                _parse_time_field(cells[2], line_no)
                if not math.isfinite(km_to / delta_x):
                    raise ParseError(
                        f"km_to {cells[1]} has no finite {delta_x!r} km bin index", line_no
                    )
                starts.append(km_from)
                stops.append(km_to)
            codes.append(lines.setdefault(line, len(lines)))
            line_nos.append(line_no)
    except ParseError as exc:
        error = exc  # raised once the rows before it pass the checks below
    code = np.array(codes, dtype=np.int64)
    kms = np.array(starts + stops, dtype=float)
    if stops:  # a run's bins first..last; a km_to on a bin's start edge leaves that bin out
        firsts, lasts = np.split(_bin_floor(kms, delta_x), 2)
        lasts -= lasts * delta_x == kms[len(starts) :]
    else:
        firsts = lasts = kms  # the bin index of each count row
    lo = np.full(len(lines), math.inf)
    np.minimum.at(lo, code, firsts)
    hi = np.full(len(lines), -math.inf)
    np.maximum.at(hi, code, lasts)
    bound = model.MAX_GRID_CELLS // 12
    if (hi - lo + 1).sum() > bound:  # replay the rows to name the one that passed it
        spans = {}  # line code -> its first and last bin so far
        total = 0.0
        for row, line in enumerate(code.tolist()):
            a, b = spans.get(line, (firsts[row], firsts[row] - 1))  # a new line holds no bins
            spans[line] = (min(a, firsts[row]), max(b, lasts[row]))
            total += spans[line][1] - spans[line][0] - (b - a)
            if total > bound:
                raise ParseError(
                    f"traffic spans {int(total):,} km bins of {delta_x!r} km, more than the"
                    f" {bound:,} that a {model.MAX_GRID_CELLS:,}-cell grid holds", line_nos[row]
                )
    sizes = (hi - lo + 1).astype(np.int64)
    ends = np.cumsum(sizes)
    # each row's first bin in one array of every line's run, line after line; within
    # a line both bin indices are whole floats less than a span apart, so their difference is exact
    pos = (firsts - lo[code]).astype(np.int64) + (ends - sizes)[code]
    flat = np.zeros(int(sizes.sum()) + 1)
    with np.errstate(over="ignore"):  # unbuffered, so a bin adds its rows in row order
        np.add.at(flat, pos, counts or 1.0)
    if stops:  # and -1 past each run's last bin, so a running sum counts the runs over a bin
        np.add.at(flat, pos + (lasts - firsts).astype(np.int64) + 1, -1.0)
        np.cumsum(flat, out=flat)
    sums: dict[int, float] = {}
    for row in np.flatnonzero(np.isinf(flat[pos])).tolist():  # the row whose addition overflowed
        sums[pos[row]] = total = sums.get(pos[row], 0.0) + counts[row]
        if total == math.inf:
            line, k = list(lines)[code[row]], int(firsts[row])
            raise ParseError(f"counts of line {line} in km bin {k} sum to inf", line_nos[row])
    if error is not None:
        raise error
    x_first = {line: int(k) for line, k in zip(lines, lo.tolist())}
    return TrafficTable(x_first, dict(zip(lines, np.split(flat[:-1], ends[:-1]))), delta_x)


@dataclass(frozen=True)
class LineGeometry:
    """Calibrated polyline of one railway line.

    ``vertices`` are (lat, lon, km) triples with strictly increasing finite
    km; the km values tie track positions to the map, so at least two are
    required.
    """

    line: str
    vertices: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        where = f"line {self.line!r}"  # quoted, so it cannot pass for a row number
        if len(self.vertices) < 2:
            raise ValueError(f"{where}: need at least 2 vertices")
        vertices = [
            (_real(lat, f"{where}: lat"), _real(lon, f"{where}: lon"), _real(km, f"{where}: km"))
            for lat, lon, km in self.vertices
        ]
        for (_, _, a), (_, _, b) in zip(vertices, vertices[1:]):
            if not a < b:
                raise ValueError(f"{where}: km values must strictly increase ({a} -> {b})")
        for lat, lon, km in vertices:
            if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
                raise ValueError(f"{where}: coordinate ({lat}, {lon}) out of range")
            if math.isinf(km):  # NaN fails the order check
                raise ValueError(f"{where}: km must be finite, got {km}")

    @cached_property
    def kms(self) -> tuple[float, ...]:
        """The vertex kms, ascending."""
        return tuple(v[2] for v in self.vertices)

    @cached_property
    def km_min(self) -> float:
        return self.kms[0]

    @cached_property
    def km_max(self) -> float:
        return self.kms[-1]


def km_to_geo(geometry: LineGeometry, km: float) -> tuple[float, float]:
    """Map a km post on a line to (lat, lon) by linear interpolation.

    Positions between calibration vertices interpolate both coordinates
    linearly in km, which keeps the mapping continuous and monotone along
    each polyline segment.  ``geocode`` places a whole Dataset.

    Raises:
        ValueError: km outside the calibrated [km_min, km_max] range.
    """
    if not geometry.km_min <= km <= geometry.km_max:
        raise ValueError(
            f"km {km} outside calibrated range "
            f"[{geometry.km_min}, {geometry.km_max}] of line {geometry.line}"
        )
    vertices = geometry.vertices
    idx = bisect_right(geometry.kms, km) - 1
    if idx == len(vertices) - 1:
        lat, lon, _ = vertices[-1]
        return (lat, lon)
    lat0, lon0, k0 = vertices[idx]
    lat1, lon1, k1 = vertices[idx + 1]
    if km == k0:
        return (lat0, lon0)
    t = (km - k0) / (k1 - k0)
    return (lat0 + t * (lat1 - lat0), lon0 + t * (lon1 - lon0))


def geocode(data: Dataset, geometries: dict[str, LineGeometry]) -> list[tuple[float, float]]:
    """(lat, lon) of every accident that can be placed on the map, in record order.

    A record is placed when its line has a geometry and its km lies in that
    geometry's calibrated [km_min, km_max]; every other record is skipped, so
    ``data.n - len(points)`` counts the skipped ones.  Each point is
    ``km_to_geo`` of the record's km.  ``hex_bin`` takes the list as it is.
    """
    by_code = [geometries.get(name) for name in data.line_names]
    points = []
    for code, km in zip(data.line_codes.tolist(), data.kms.tolist()):
        geometry = by_code[code]
        if geometry is not None and geometry.km_min <= km <= geometry.km_max:
            points.append(km_to_geo(geometry, km))
    return points


def _json_number(value: object) -> float | None:
    """A finite JSON number as a float; None for anything else."""
    try:
        number = _real(value, "JSON number")
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


def _vertex(coord: object, km: object, feature: int) -> tuple[float, float, float]:
    """(lat, lon, km) from a GeoJSON [lon, lat] or [lon, lat, alt] position; alt is ignored."""
    parts = [_json_number(v) for v in coord] if isinstance(coord, list) else []
    if len(parts) not in (2, 3) or None in parts:
        raise ParseError(
            f"feature {feature}: coordinate {coord!r} must be [lon, lat] or [lon, lat, alt] numbers"
        )
    km_value = _json_number(km)
    if km_value is None:
        raise ParseError(f"feature {feature}: km {km!r} must be a finite number")
    return (parts[1], parts[0], km_value)


def parse_geometries(stream: Union[str, IO[str]]) -> dict[str, LineGeometry]:
    """Parse line geometries from GeoJSON.

    Expects a FeatureCollection of LineString features; each feature carries
    ``properties.line`` and a ``properties.km`` array parallel to the
    coordinate list (GeoJSON coordinates are [lon, lat], or [lon, lat, alt]
    with the altitude ignored).  Every coordinate and km must be a finite
    number.
    """
    text = stream if isinstance(stream, str) else stream.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid GeoJSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError("geometry document must be a GeoJSON FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise ParseError("FeatureCollection must carry a 'features' array")
    result: dict[str, LineGeometry] = {}
    for i, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise ParseError(f"feature {i}: must be a GeoJSON Feature object")
        geom = feature.get("geometry") or {}
        props = feature.get("properties") or {}
        if not isinstance(geom, dict) or geom.get("type") != "LineString":
            raise ParseError(f"feature {i}: geometry must be a LineString")
        if not isinstance(props, dict):
            raise ParseError(f"feature {i}: properties must be an object")
        line = props.get("line")
        kms = props.get("km")
        coords = geom.get("coordinates") or []
        if not isinstance(line, str) or not line:
            raise ParseError(f"feature {i}: 'line' must be a non-empty string, got {line!r}")
        if not isinstance(coords, list):
            raise ParseError(f"feature {i}: coordinates must be an array")
        if not isinstance(kms, list) or len(kms) != len(coords):
            raise ParseError(f"feature {i}: 'km' array must parallel the coordinates")
        if line in result:
            raise ParseError(f"feature {i}: duplicate geometry for line {line}")
        vertices = tuple(_vertex(coord, km, i) for coord, km in zip(coords, kms))
        result[line] = LineGeometry(line=line, vertices=vertices)
    return result


@dataclass(frozen=True)
class SpeedProfile:
    """Maximum permitted speed along one line as disjoint, finite [km_from, km_to) steps."""

    line: str
    intervals: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        where = f"line {self.line!r}"
        prev_end = -math.inf
        for step in self.intervals:
            km_from, km_to, vmax = (
                _real(value, f"{where}: {name}") for value, name in zip(step, SPEED_HEADER[1:])
            )
            if not km_from < km_to:
                raise ValueError(f"{where}: empty interval {km_from}..{km_to}")
            for name, km in (("km_from", km_from), ("km_to", km_to)):
                if math.isinf(km):
                    raise ValueError(f"{where}: {name} must be finite, got {km}")
            if km_from < prev_end:
                raise ValueError(f"{where}: overlapping interval at km {km_from}")
            if not 0.0 < vmax < math.inf:
                raise ValueError(f"{where}: vmax must be positive and finite, got {vmax}")
            prev_end = km_to


def parse_speed_profiles(stream: Union[str, IO[str]]) -> dict[str, SpeedProfile]:
    """Parse speed CSV (``line,km_from,km_to,vmax``) into per-line SpeedProfiles."""
    rows: dict[str, list[tuple[float, float, float]]] = {}
    steps = _table_rows(stream, (SPEED_HEADER,), "speed")
    for line_no, line, (from_text, to_text, vmax_text) in steps:
        km_from = _parse_float_field(from_text, "km_from", line_no)
        km_to = _parse_float_field(to_text, "km_to", line_no)
        vmax = _parse_float_field(vmax_text, "vmax", line_no)
        if vmax <= 0:
            raise ParseError(f"vmax must be positive, got {vmax_text!r}", line_no)
        rows.setdefault(line, []).append((km_from, km_to, vmax))
    profiles: dict[str, SpeedProfile] = {}
    for line, intervals in rows.items():
        intervals.sort(key=lambda iv: iv[0])
        try:
            profiles[line] = SpeedProfile(line=line, intervals=tuple(intervals))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return profiles

"""Input records, CSV/GeoJSON parsing, and linear referencing for railway lines."""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import IO, Iterable, Iterator, Union

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
    "dataset_to_csv",
    "parse_traffic",
    "parse_traffic_runs",
    "parse_geometries",
    "geometries_to_geojson",
    "km_to_geo",
    "parse_speed_profiles",
]

ACCIDENT_HEADER = ("date", "time", "line", "km", "species")
TRAFFIC_HEADER = ("line", "km_from", "count")
TRAFFIC_RUN_HEADER = ("line", "km_from", "km_to", "departure")
SPEED_HEADER = ("line", "km_from", "km_to", "vmax")

MINUTES_PER_DAY = 24 * 60


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


def bin_index(value: float, delta: float) -> int:
    """Index k of the half-open bin [k*delta, (k+1)*delta) containing ``value``.

    Bins are anchored at 0.  The floor is corrected so that the result is
    always consistent with interval membership (start <= value < start+delta)
    even when value/delta rounds across an integer.
    """
    idx = math.floor(value / delta)
    if idx * delta > value:
        idx -= 1
    elif (idx + 1) * delta <= value:
        idx += 1
    return idx


def _bin_floor(values: np.ndarray, delta: float) -> np.ndarray:
    """``bin_index`` over an array, kept as floats so a huge value cannot overflow."""
    idx = np.floor(values / delta)
    down = idx * delta > values
    up = ~down & ((idx + 1) * delta <= values)
    return idx - down + up


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


@dataclass(frozen=True)
class AccidentRecord:
    """One wildlife-train collision report.

    ``time`` is minutes since midnight in [0, 1440); ``km`` is the position
    along the line in kilometres (any non-negative real); ``species`` is
    free-form and may be empty.
    """

    date: dt.date
    time: int
    line: str
    km: float
    species: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.time, int) or not 0 <= self.time < MINUTES_PER_DAY:
            raise ValueError(f"time must be an int in [0, {MINUTES_PER_DAY}), got {self.time!r}")
        if not self.line:
            raise ValueError("line identifier must be non-empty")
        if not math.isfinite(self.km) or self.km < 0:
            raise ValueError(f"km must be a finite non-negative number, got {self.km!r}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Accident records as columns, together with the observation period.

    The period is what the exposure time T is computed from, so it must be
    stated even when no accident falls on its first or last day.  Every date
    must lie inside it; ``__post_init__`` holds that rule for every way a
    Dataset is made (``parse_accidents``, ``from_records``, ``with_period``,
    ``dataclasses.replace``).

    The columns hold one entry per record, in input order: ``line_codes``
    indexes ``line_names`` (the distinct lines, sorted); ``kms``, ``months``
    (1..12), ``minutes`` (since midnight) and ``dates`` (``date.toordinal()``)
    are read-only numpy arrays; ``species`` is a tuple of str.  Records exist
    only as explicit conversions: ``from_records`` builds the columns from
    them, and ``records`` builds them from the columns on each access.  Two
    datasets are equal when their periods and records are.
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
        outside = np.flatnonzero((self.dates < start.toordinal()) | (self.dates > end.toordinal()))
        if outside.size:
            date = dt.date.fromordinal(int(self.dates[outside[0]]))
            raise ValueError(f"record dated {date} falls outside period {start}..{end}")

    @classmethod
    def from_records(
        cls, records: Iterable[AccidentRecord], period_start: dt.date, period_end: dt.date
    ) -> Dataset:
        """The Dataset whose columns hold ``records``, in order.

        Raises:
            ValueError: end before start, or a record dated outside the period.
        """
        records = tuple(records)
        lines: dict[str, int] = {}
        days: dict[dt.date, int] = {}
        columns = _columns(
            lines,
            [lines.setdefault(rec.line, len(lines)) for rec in records],
            days,
            [days.setdefault(rec.date, len(days)) for rec in records],
            [rec.time for rec in records],
            [rec.km for rec in records],
            tuple(rec.species for rec in records),
        )
        return cls(period_start, period_end, **columns)

    @property
    def records(self) -> tuple[AccidentRecord, ...]:
        """The columns as AccidentRecords, built anew on each access."""
        days = {day: dt.date.fromordinal(day) for day in set(self.dates.tolist())}
        names = self.line_names
        return tuple(
            AccidentRecord(days[day], minute, names[code], km, species)
            for day, minute, code, km, species in zip(
                self.dates.tolist(),
                self.minutes.tolist(),
                self.line_codes.tolist(),
                self.kms.tolist(),
                self.species,
            )
        )

    def _key(self) -> tuple:
        return (self.period_start, self.period_end, self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def n(self) -> int:
        """Total number of records (N)."""
        return len(self.kms)

    @property
    def total_days(self) -> int:
        """Calendar days in the observation period, inclusive."""
        return count_days(self.period_start, self.period_end)

    def with_period(self, start: dt.date, end: dt.date) -> Dataset:
        """The same records over another observation period.

        Raises:
            ValueError: end before start, or a record dated outside [start, end].
        """
        return replace(self, period_start=start, period_end=end)

    def km_bin_counts(self, delta: float) -> dict[str, dict[int, int]]:
        """Records per line and km bin: line -> ``bin_index(km, delta)`` -> count.

        Only occupied bins are listed; lines and bins ascend.
        """
        if not self.n:
            return {}
        bins = _bin_floor(self.kms, delta)
        order = np.lexsort((bins, self.line_codes))
        codes, bins = self.line_codes[order], bins[order]
        firsts = np.flatnonzero(
            np.concatenate(([True], (codes[1:] != codes[:-1]) | (bins[1:] != bins[:-1])))
        )
        sizes = np.diff(firsts, append=len(order))
        counts: dict[str, dict[int, int]] = {name: {} for name in self.line_names}
        for code, index, size in zip(codes[firsts].tolist(), bins[firsts].tolist(), sizes.tolist()):
            counts[self.line_names[code]][int(index)] = size
        return counts


def _columns(
    lines: Iterable[str],
    line_codes: list[int],
    days: Iterable[dt.date],
    day_codes: list[int],
    minutes: list[int],
    kms: list[float],
    species: tuple[str, ...],
) -> dict:
    """The Dataset columns, by name.

    ``lines`` and ``days`` list the distinct values in the order that
    ``line_codes`` and ``day_codes`` number them.
    """
    lines = list(lines)
    position = {name: i for i, name in enumerate(sorted(lines))}
    renumber = np.array([position[name] for name in lines], dtype=np.int64)
    days = list(days)
    day_codes_arr = np.array(day_codes, dtype=np.int64)
    columns = {
        "line_names": tuple(position),
        "line_codes": renumber[np.array(line_codes, dtype=np.int64)],
        "kms": np.array(kms, dtype=float),
        "months": np.array([day.month for day in days], dtype=np.int64)[day_codes_arr],
        "minutes": np.array(minutes, dtype=np.int64),
        "dates": np.array([day.toordinal() for day in days], dtype=np.int64)[day_codes_arr],
        "species": species,
    }
    for column in columns.values():
        if isinstance(column, np.ndarray):
            column.setflags(write=False)
    return columns


def _open_text(stream: Union[str, IO[str]]) -> IO[str]:
    if isinstance(stream, str):
        return io.StringIO(stream)
    return stream


def _read_header(reader: Iterable[list[str]], expected: tuple[str, ...], what: str) -> bool:
    """Consume and check the header row.  Returns False when the stream is empty."""
    try:
        header = next(iter(reader))
    except StopIteration:
        return False
    got = tuple(cell.strip() for cell in header)
    if got != expected:
        raise ParseError(
            f"{what} header must be {','.join(expected)!r}, got {','.join(got)!r}",
            line_no=1,
        )
    return True


def _rows(reader, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """Each remaining non-blank row, its cells stripped, with its first physical line.

    A quoted newline makes a row span several lines.  A row without exactly
    ``n_fields`` cells is a ParseError.
    """
    first = reader.line_num + 1
    for row in reader:
        if row:
            if len(row) != n_fields:
                raise ParseError(f"expected {n_fields} fields, got {len(row)}", first)
            yield first, [cell.strip() for cell in row]
        first = reader.line_num + 1


def _parse_time_field(text: str, line_no: int) -> int:
    parts = text.strip().split(":")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
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


def parse_accidents(stream: Union[str, IO[str]], period: tuple[dt.date, dt.date]) -> Dataset:
    """Parse accident CSV (``date,time,line,km,species``) into a Dataset.

    Parsing is strict: any malformed row aborts with a ParseError naming the
    offending physical line, as does a record dated outside ``period``.  An
    input with no data rows is an error.  The rows go straight into the
    Dataset columns; each distinct date and time text is parsed once.

    Args:
        stream: CSV text or an open text stream.
        period: inclusive (start, end) observation dates.

    Raises:
        ParseError: malformed header, row, field, or out-of-period record.
    """
    start, end = period
    reader = csv.reader(_open_text(stream))
    if not _read_header(reader, ACCIDENT_HEADER, "accident"):
        raise ParseError("empty accident file")
    lines: dict[str, int] = {}
    day_of_text: dict[str, int] = {}  # date text -> its position in days
    days: list[dt.date] = []
    in_period: list[bool] = []
    minute_of_text: dict[str, int] = {}
    line_codes: list[int] = []
    day_codes: list[int] = []
    minutes: list[int] = []
    kms: list[float] = []
    species: list[str] = []
    for line_no, fields in _rows(reader, len(ACCIDENT_HEADER)):
        date_text, time_text, line, km_text, species_text = fields
        day = day_of_text.get(date_text)
        if day is None:
            try:
                date = dt.date.fromisoformat(date_text)
            except ValueError:
                raise ParseError(f"invalid calendar date {date_text!r}", line_no) from None
            day = day_of_text[date_text] = len(days)
            days.append(date)
            in_period.append(start <= date <= end)
        minute = minute_of_text.get(time_text)
        if minute is None:
            minute = minute_of_text[time_text] = _parse_time_field(time_text, line_no)
        km = _parse_float_field(km_text, "km", line_no)
        if km < 0:
            raise ParseError(f"km must be non-negative, got {km_text!r}", line_no)
        if not line:
            raise ParseError("line identifier must be non-empty", line_no)
        if not in_period[day]:
            raise ParseError(f"record dated {days[day]} outside period {start}..{end}", line_no)
        line_codes.append(lines.setdefault(line, len(lines)))
        day_codes.append(day)
        minutes.append(minute)
        kms.append(km)
        species.append(species_text)
    if not kms:
        raise ParseError("no accident records in input")
    columns = _columns(lines, line_codes, days, day_codes, minutes, kms, tuple(species))
    return Dataset(start, end, **columns)


def dataset_to_csv(data: Dataset) -> str:
    """Serialize a Dataset back to accident CSV.  Round-trips via parse_accidents."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ACCIDENT_HEADER)
    days = {day: dt.date.fromordinal(day).isoformat() for day in set(data.dates.tolist())}
    rows = zip(data.dates.tolist(), data.minutes.tolist(), data.line_codes.tolist(),
               data.kms.tolist(), data.species)
    for day, minute, code, km, species in rows:
        hh, mm = divmod(minute, 60)
        writer.writerow([days[day], f"{hh:02d}:{mm:02d}", data.line_names[code], repr(km), species])
    return out.getvalue()


def _check_bin_width(delta_x: float) -> None:
    if not (math.isfinite(delta_x) and delta_x > 0):
        raise ValueError(f"delta_x must be positive and finite, got {delta_x!r}")


@dataclass(frozen=True)
class TrafficTable:
    """Daily train counts per (line, km bin).

    Keys are (line, bin start); bin starts are multiples of ``delta_x``.
    Unknown cells count as zero traffic.
    """

    counts: dict[tuple[str, float], float]
    delta_x: float

    def __post_init__(self) -> None:
        _check_bin_width(self.delta_x)
        for (line, start), value in self.counts.items():
            ratio = start / self.delta_x
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(f"bin start {start} on line {line} is not a multiple of {self.delta_x}")
            if value < 0:
                raise ValueError(f"negative count {value} on line {line} at km {start}")

    def count(self, line: str, km: float) -> float:
        """Trains per day through the bin containing ``km`` on ``line`` (0 if unknown)."""
        return self.counts.get((line, bin_index(km, self.delta_x) * self.delta_x), 0.0)

    def bins_for(self, line: str) -> tuple[float, ...]:
        return tuple(sorted(start for ln, start in self.counts if ln == line))


def parse_traffic(stream: Union[str, IO[str]], delta_x: float) -> TrafficTable:
    """Parse traffic CSV (``line,km_from,count``) into a TrafficTable.

    km_from must be non-negative and sit on the ``delta_x`` grid.  Duplicate
    (line, bin) rows are summed.  An empty stream yields an empty table (all
    lookups return 0).

    Raises:
        ValueError: delta_x not positive and finite.
        ParseError: malformed header, row or field.
    """
    _check_bin_width(delta_x)
    reader = csv.reader(_open_text(stream))
    counts: dict[tuple[str, float], float] = {}
    if not _read_header(reader, TRAFFIC_HEADER, "traffic"):
        return TrafficTable(counts={}, delta_x=delta_x)
    for line_no, (line, km_text, count_text) in _rows(reader, len(TRAFFIC_HEADER)):
        if not line:
            raise ParseError("line identifier must be non-empty", line_no)
        km_from = _parse_float_field(km_text, "km_from", line_no)
        if km_from < 0:
            raise ParseError(f"km_from must be non-negative, got {km_text!r}", line_no)
        ratio = km_from / delta_x
        if abs(ratio - round(ratio)) > 1e-9:
            raise ParseError(f"km_from {km_text} is not aligned to the {delta_x} km grid", line_no)
        count = _parse_float_field(count_text, "count", line_no)
        if count < 0:
            raise ParseError(f"count must be non-negative, got {count_text!r}", line_no)
        key = (line, round(ratio) * delta_x)
        counts[key] = counts.get(key, 0.0) + count
    return TrafficTable(counts=counts, delta_x=delta_x)


def parse_traffic_runs(stream: Union[str, IO[str]], delta_x: float) -> TrafficTable:
    """Aggregate per-train run records into a daily-count TrafficTable.

    Input CSV is ``line,km_from,km_to,departure`` with one row per train run
    on a representative day.  A run adds one train to every delta_x bin its
    [km_from, km_to) extent overlaps; the departure time is validated but not
    retained (time-of-day shaping is owned by the traffic profile).

    Raises:
        ValueError: delta_x not positive and finite.
        ParseError: malformed header, row or field.
    """
    _check_bin_width(delta_x)
    reader = csv.reader(_open_text(stream))
    counts: dict[tuple[str, float], float] = {}
    if not _read_header(reader, TRAFFIC_RUN_HEADER, "traffic run"):
        return TrafficTable(counts={}, delta_x=delta_x)
    for line_no, (line, from_text, to_text, dep_text) in _rows(reader, len(TRAFFIC_RUN_HEADER)):
        if not line:
            raise ParseError("line identifier must be non-empty", line_no)
        km_from = _parse_float_field(from_text, "km_from", line_no)
        km_to = _parse_float_field(to_text, "km_to", line_no)
        if km_from < 0 or km_to <= km_from:
            raise ParseError(f"need 0 <= km_from < km_to, got {from_text}..{to_text}", line_no)
        _parse_time_field(dep_text, line_no)
        idx = bin_index(km_from, delta_x)
        while idx * delta_x < km_to:
            # open-interval overlap: a run touching a bin only at its edge adds nothing
            if (idx + 1) * delta_x > km_from:
                key = (line, idx * delta_x)
                counts[key] = counts.get(key, 0.0) + 1.0
            idx += 1
    return TrafficTable(counts=counts, delta_x=delta_x)


@dataclass(frozen=True)
class LineGeometry:
    """Calibrated polyline of one railway line.

    ``vertices`` are (lat, lon, km) triples with strictly increasing km; the
    km values tie track positions to the map, so at least two are required.
    """

    line: str
    vertices: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise ValueError(f"line {self.line}: need at least 2 vertices")
        kms = tuple(v[2] for v in self.vertices)
        for a, b in zip(kms, kms[1:]):
            if b <= a:
                raise ValueError(f"line {self.line}: km values must strictly increase ({a} -> {b})")
        for lat, lon, _ in self.vertices:
            if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
                raise ValueError(f"line {self.line}: coordinate ({lat}, {lon}) out of range")

    @property
    def km_min(self) -> float:
        return self.vertices[0][2]

    @property
    def km_max(self) -> float:
        return self.vertices[-1][2]


def km_to_geo(geometry: LineGeometry, km: float) -> tuple[float, float]:
    """Map a km post on a line to (lat, lon) by linear interpolation.

    Positions between calibration vertices interpolate both coordinates
    linearly in km, which keeps the mapping continuous and monotone along
    each polyline segment.

    Raises:
        ValueError: km outside the calibrated [km_min, km_max] range.
    """
    if not geometry.km_min <= km <= geometry.km_max:
        raise ValueError(
            f"km {km} outside calibrated range "
            f"[{geometry.km_min}, {geometry.km_max}] of line {geometry.line}"
        )
    idx = bisect_right(geometry.vertices, km, key=itemgetter(2)) - 1
    if idx == len(geometry.vertices) - 1:
        lat, lon, _ = geometry.vertices[-1]
        return (lat, lon)
    lat0, lon0, k0 = geometry.vertices[idx]
    lat1, lon1, k1 = geometry.vertices[idx + 1]
    if km == k0:
        return (lat0, lon0)
    t = (km - k0) / (k1 - k0)
    return (lat0 + t * (lat1 - lat0), lon0 + t * (lon1 - lon0))


def _json_number(value: object) -> float | None:
    """A finite JSON number as a float; None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
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
        if not line:
            raise ParseError(f"feature {i}: missing 'line' property")
        if not isinstance(coords, list):
            raise ParseError(f"feature {i}: coordinates must be an array")
        if not isinstance(kms, list) or len(kms) != len(coords):
            raise ParseError(f"feature {i}: 'km' array must parallel the coordinates")
        if line in result:
            raise ParseError(f"feature {i}: duplicate geometry for line {line}")
        vertices = tuple(_vertex(coord, km, i) for coord, km in zip(coords, kms))
        result[str(line)] = LineGeometry(line=str(line), vertices=vertices)
    return result


def geometries_to_geojson(geometries: dict[str, LineGeometry]) -> str:
    """Serialize line geometries to the GeoJSON form parse_geometries reads."""
    features = []
    for line in sorted(geometries):
        geom = geometries[line]
        features.append(
            {
                "type": "Feature",
                "properties": {"line": geom.line, "km": [v[2] for v in geom.vertices]},
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[v[1], v[0]] for v in geom.vertices],
                },
            }
        )
    return json.dumps({"type": "FeatureCollection", "features": features}, sort_keys=True)


@dataclass(frozen=True)
class SpeedProfile:
    """Maximum permitted speed along one line as disjoint [km_from, km_to) steps."""

    line: str
    intervals: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        prev_end = -math.inf
        for km_from, km_to, vmax in self.intervals:
            if km_to <= km_from:
                raise ValueError(f"line {self.line}: empty interval {km_from}..{km_to}")
            if km_from < prev_end:
                raise ValueError(f"line {self.line}: overlapping interval at km {km_from}")
            if vmax <= 0:
                raise ValueError(f"line {self.line}: vmax must be positive, got {vmax}")
            prev_end = km_to

    def speed_at(self, km: float) -> float | None:
        """vmax of the interval containing ``km``, or None where undefined."""
        for km_from, km_to, vmax in self.intervals:
            if km_from <= km < km_to:
                return vmax
        return None


def parse_speed_profiles(stream: Union[str, IO[str]]) -> dict[str, SpeedProfile]:
    """Parse speed CSV (``line,km_from,km_to,vmax``) into per-line SpeedProfiles."""
    reader = csv.reader(_open_text(stream))
    if not _read_header(reader, SPEED_HEADER, "speed"):
        return {}
    rows: dict[str, list[tuple[float, float, float]]] = {}
    for line_no, (line, from_text, to_text, vmax_text) in _rows(reader, len(SPEED_HEADER)):
        if not line:
            raise ParseError("line identifier must be non-empty", line_no)
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

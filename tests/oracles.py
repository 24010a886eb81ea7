"""Independent brute-force recomputations used to cross-check the package.

Everything here is written the slow, obvious way: filter-and-count loops,
exact rational arithmetic via Fraction, exhaustive candidate search.  Nothing
imports from wildrail, so an implementation bug cannot hide in a shared
helper.  Time-of-day binning works on integer minutes, so the oracle bin
widths must be whole numbers of minutes.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

# --- day counting ---


def count_days_loop(start: dt.date, end: dt.date, mode: str) -> int:
    """Walk the span one date at a time."""
    days = 0
    current = start
    one = dt.timedelta(days=1)
    while current <= end:
        if not (mode == "365" and current.month == 2 and current.day == 29):
            days += 1
        current += one
    return days


# --- binning ---


def floor_bin(value: float, delta: float) -> int:
    """Floor of the exact rational value/delta."""
    return math.floor(Fraction(value) / Fraction(delta))


# --- accident CSV ---


class LoopParseError(ValueError):
    """The loop parser's error; formatted like the package's ParseError."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _time_minutes(text: str, line_no: int) -> int:
    parts = text.strip().split(":")
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise LoopParseError(f"time must be HH:MM, got {text!r}", line_no)
    hh, mm = int(parts[0]), int(parts[1])
    if hh > 23 or mm > 59:
        raise LoopParseError(f"time out of range, got {text!r}", line_no)
    return hh * 60 + mm


def parse_accidents_loop(text: str, period: tuple[dt.date, dt.date]) -> list[tuple]:
    """Accident CSV parsed row by row, every field of every row parsed on its own.

    Returns one (date, time, line, km, species) tuple per record, the fields
    of the package's AccidentRecord, and raises LoopParseError where the
    package raises ParseError.  Text the csv module rejects is an error at the
    physical line where the csv module stopped.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        return _accident_loop(reader, period)
    except csv.Error as exc:
        raise LoopParseError(str(exc), reader.line_num) from None


def _accident_loop(reader, period: tuple[dt.date, dt.date]) -> list[tuple]:
    header = ("date", "time", "line", "km", "species")
    start, end = period
    try:
        got = tuple(cell.strip() for cell in next(reader))
    except StopIteration:
        raise LoopParseError("empty accident file") from None
    if got != header:
        raise LoopParseError(
            f"accident header must be {','.join(header)!r}, got {','.join(got)!r}", line_no=1
        )
    records = []
    next_line = reader.line_num + 1
    for row in reader:
        # a row's first physical line; a quoted newline makes a row span more
        line_no, next_line = next_line, reader.line_num + 1
        if not row:
            continue
        if len(row) != len(header):
            raise LoopParseError(f"expected {len(header)} fields, got {len(row)}", line_no)
        date_text, time_text, line, km_text, species = (cell.strip() for cell in row)
        try:
            # fromisoformat takes more forms from Python 3.11 on: hold it to YYYY-MM-DD
            if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", date_text, flags=re.ASCII):
                raise ValueError(date_text)
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            raise LoopParseError(f"invalid calendar date {date_text!r}", line_no) from None
        time = _time_minutes(time_text, line_no)
        try:
            km = float(km_text)
        except ValueError:
            raise LoopParseError(f"km must be a number, got {km_text!r}", line_no) from None
        if not math.isfinite(km):
            raise LoopParseError(f"km must be finite, got {km_text!r}", line_no)
        if km < 0:
            raise LoopParseError(f"km must be non-negative, got {km_text!r}", line_no)
        if not line:
            raise LoopParseError("line identifier must be non-empty", line_no)
        if not start <= date <= end:
            raise LoopParseError(f"record dated {date} outside period {start}..{end}", line_no)
        records.append((date, time, line, km, species))
    if not records:
        raise LoopParseError("no accident records in input")
    return records


# --- probability tables ---
# records are the implementation's AccidentRecord dataclasses, but only their
# plain fields (date, time, line, km) are touched


def table_counts(
    records: Iterable,
    season_groups: dict[str, tuple[int, ...]],
    delta_x: float,
    delta_t_minutes: int,
) -> dict:
    """Raw counts behind every table, by filtering the records per cell."""
    records = list(records)
    by_month = {m: sum(1 for r in records if r.date.month == m) for m in range(1, 13)}
    month_season = {m: lab for lab, months in season_groups.items() for m in months}
    n_t = (24 * 60) // delta_t_minutes
    by_season = {
        lab: sum(1 for r in records if month_season[r.date.month] == lab)
        for lab in season_groups
    }
    by_season_tbin = {
        lab: {
            ti: sum(
                1
                for r in records
                if month_season[r.date.month] == lab and r.time // delta_t_minutes == ti
            )
            for ti in range(n_t)
        }
        for lab in season_groups
    }
    lines = sorted({r.line for r in records})
    by_line = {ln: sum(1 for r in records if r.line == ln) for ln in lines}
    by_line_xbin = {}
    for ln in lines:
        kms = [r.km for r in records if r.line == ln]
        indices = [floor_bin(km, delta_x) for km in kms]
        lo, hi = min(indices), max(indices)
        by_line_xbin[ln] = {i: indices.count(i) for i in range(lo, hi + 1)}
    return {
        "n": len(records),
        "by_month": by_month,
        "by_season": by_season,
        "by_season_tbin": by_season_tbin,
        "by_line": by_line,
        "by_line_xbin": by_line_xbin,
    }


def fit_counts_loop(
    records: Iterable, season_groups: dict[str, tuple[int, ...]], delta_x: float, delta_t: float
) -> dict:
    """The counts behind a fitted model, one record at a time, in the package's shapes.

    A record falls in hour bin ``i`` and km bin ``k`` for the corrected-floor
    indices.  ``by_season_tbin`` holds one count per hour bin; each line's km
    bins are dense over its observed range, from ``x_first[line]`` on.
    """
    month_season = {m: lab for lab, months in season_groups.items() for m in months}
    by_month = {m: 0 for m in range(1, 13)}
    by_season_tbin = {lab: [0] * round(24.0 / delta_t) for lab in season_groups}
    by_line: dict[str, int] = {}
    indices: dict[str, dict[int, int]] = {}
    for r in records:
        by_month[r.date.month] += 1
        by_season_tbin[month_season[r.date.month]][_bin_index(r.time / 60.0, delta_t)] += 1
        by_line[r.line] = by_line.get(r.line, 0) + 1
        per_line = indices.setdefault(r.line, {})
        idx = _bin_index(r.km, delta_x)
        per_line[idx] = per_line.get(idx, 0) + 1
    x_first, by_line_xbin = {}, {}
    for line in sorted(indices):
        lo, hi = min(indices[line]), max(indices[line])
        x_first[line] = lo
        by_line_xbin[line] = tuple(indices[line].get(i, 0) for i in range(lo, hi + 1))
    return {
        "by_month": by_month,
        "by_season_tbin": {lab: tuple(table) for lab, table in by_season_tbin.items()},
        "by_line": {line: by_line[line] for line in sorted(by_line)},
        "x_first": x_first,
        "by_line_xbin": by_line_xbin,
    }


def expected_tables(counts: dict, total_days: int) -> dict:
    """Exact-rational probability tables from the raw counts (no smoothing)."""
    month_denom = Fraction(total_days, 12)
    mu = {m: Fraction(c) / month_denom for m, c in counts["by_month"].items()}
    p_time = {}
    for lab, total in counts["by_season"].items():
        if total > 0:
            p_time[lab] = {
                ti: Fraction(c, total) for ti, c in counts["by_season_tbin"][lab].items()
            }
    n = counts["n"]
    p_line = {ln: Fraction(c, n) for ln, c in counts["by_line"].items()}
    p_segment = {
        ln: {i: Fraction(c, counts["by_line"][ln]) for i, c in table.items()}
        for ln, table in counts["by_line_xbin"].items()
    }
    return {"mu": mu, "p_time": p_time, "p_line": p_line, "p_segment": p_segment}


# --- traffic profile ---


def alpha_fraction(
    t: Fraction, delta_t: Fraction, groups: Sequence[tuple[float, Sequence[tuple[float, float]]]]
) -> Fraction:
    """Overlap-weighted average rate over [t, t+delta_t), exactly."""
    total = Fraction(0)
    for mass, windows in groups:
        hours = sum(Fraction(end) - Fraction(startw) for startw, end in windows)
        rate = Fraction(mass) / hours
        for startw, end in windows:
            lo = max(Fraction(startw), t)
            hi = min(Fraction(end), t + delta_t)
            if hi > lo:
                total += (hi - lo) * rate
    return total / delta_t


def partition_mass(delta_t: Fraction, groups) -> Fraction:
    """Sum of alpha * delta_t over the day partitioned into delta_t windows."""
    total = Fraction(0)
    t = Fraction(0)
    while t < 24:
        total += alpha_fraction(t, delta_t, groups) * delta_t
        t += delta_t
    return total


# --- per-cell warning arithmetic ---

NO_TRAFFIC = "no_traffic"
EXCEEDS = "exceeds_unity"


def cell_expectation(
    tables: dict,
    month_season: dict[int, str],
    traffic_count: float,
    alpha_value: Fraction,
    delta_t_hours: Fraction,
    tau: int,
    t_index: int,
    line: str,
    x_index: int,
) -> tuple[Fraction | None, set[str]]:
    """p_pt and flags for one cell, from first principles.

    Returns (None, flags) where the probability is undefined.  Mirrors the
    contract: zero expected trains blocks the cell; a zero-accident month
    gives probability 0 without needing its season, whose table may be absent.
    """
    flags: set[str] = set()
    m_window = Fraction(traffic_count) * alpha_value * delta_t_hours
    if m_window == 0:
        flags.add(NO_TRAFFIC)
    mu = tables["mu"][tau]
    temporal = Fraction(0) if mu == 0 else tables["p_time"][month_season[tau]][t_index] * mu
    p_line = tables["p_line"].get(line, Fraction(0))
    if p_line == 0:
        spatial = Fraction(0)
    else:
        spatial = tables["p_segment"][line].get(x_index, Fraction(0)) * p_line
    if flags:
        return (None, flags)
    p = temporal * spatial / m_window
    if p > 1:
        flags.add(EXCEEDS)
    return (p, flags)



def _run_bins(run, first: int, lo: int, hi: int):
    """Bins lo..hi of a run whose first bin is ``first``, one at a time; 0.0 off the run."""
    return np.array([float(run[k - first]) if 0 <= k - first < len(run) else 0.0
                     for k in range(lo, hi + 1)])


def dense_grid_cells(model, traffic, alpha_vec: Sequence[float], spans: dict) -> dict:
    """Each line's (p_pt, flags, m_window), every cell of the grid laid out at once.

    A dense build straight from the model and traffic tables, with the numpy
    arithmetic ``WarningGrid.line_cells`` uses in the same order, so the two
    must agree bit for bit.  ``alpha_vec`` holds alpha(ti * delta_t, delta_t)
    per hour bin and ``spans`` maps a line to its first and last km bin index.
    """
    n_t, delta_t = model.bins.n_t_bins, model.bins.delta_t
    temporal = np.zeros((12, n_t))
    for mi, tau in enumerate(range(1, 13)):
        mu = model.mu[tau]
        if mu != 0.0:
            temporal[mi, :] = np.array(model.p_time[model.seasons.season_of(tau)]) * mu
    out = {}
    for line, (lo, hi) in spans.items():
        segment = _run_bins(model.p_segment.get(line, ()), model.counts.x_first.get(line, 0), lo, hi)
        spatial = segment * model.p_line.get(line, 0.0)
        m_vec = _run_bins(traffic.counts.get(line, ()), traffic.x_first.get(line, 0), lo, hi)
        window = (m_vec[:, None] * np.asarray(alpha_vec)[None, :]) * delta_t
        p = temporal[None, :, :] * spatial[:, None, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(p, window[:, None, :], out=p)
        no_traffic = (window == 0.0)[:, None, :]
        np.copyto(p, np.nan, where=no_traffic)
        with np.errstate(invalid="ignore"):
            flags = (p > 1.0).view(np.uint8) * np.uint8(4)
        flags |= no_traffic.view(np.uint8) * np.uint8(1)
        out[line] = (p, flags, window)
    return out


# --- hexagonal lattice ---


def nearest_center_exhaustive(
    x: float, y: float, spacing: float, reach: int = 4
) -> tuple[int, int]:
    """Scan a (2*reach+1)^2 window of candidate centers, keep the closest.

    Ties break toward the smallest (distance, col, row) triple, matching the
    documented deterministic rule.
    """
    v = 2.0 * spacing / math.sqrt(3.0)
    col_mid = round(x / spacing)
    row_mid = round(y / v)
    best: tuple[float, int, int] | None = None
    for col in range(col_mid - reach, col_mid + reach + 1):
        for row in range(row_mid - reach, row_mid + reach + 1):
            cx = col * spacing
            cy = (row + 0.5 * (col & 1)) * v
            key = ((x - cx) ** 2 + (y - cy) ** 2, col, row)
            if best is None or key < best:
                best = key
    assert best is not None
    return (best[1], best[2])


def _bin_index(value: float, delta: float) -> int:
    """The package's corrected floor, written out per value."""
    idx = math.floor(value / delta)
    if idx * delta > value:
        idx -= 1
    elif (idx + 1) * delta <= value:
        idx += 1
    return idx


def nearest_center_loop(x: float, y: float, spacing: float) -> tuple[int, int]:
    """The 9-candidate nearest-centre search, one point at a time."""
    v = 2.0 * spacing / math.sqrt(3.0)
    col0 = round(x / spacing)
    best: tuple[float, int, int] | None = None
    for col in (col0 - 1, col0, col0 + 1):
        offset = 0.5 * (col & 1)
        row0 = round(y / v - offset)
        for row in (row0 - 1, row0, row0 + 1):
            cx, cy = col * spacing, (row + offset) * v
            key = ((x - cx) ** 2 + (y - cy) ** 2, col, row)
            if best is None or key < best:
                best = key
    assert best is not None
    return (best[1], best[2])


KM_PER_DEGREE = math.pi * 6371.0 / 180.0


def hex_bin_loop(points: Sequence[tuple[float, float]], spacing: float) -> dict:
    """Hex counts point by point: the fields of the package's HexGrid.

    The centroid is the sequential sum of the points, added one at a time
    from 0.0 (not ``sum``, which compensates from Python 3.12 on), the
    projection is equirectangular around it, and ``cells`` keeps
    first-appearance order.
    """
    if not points:
        return {"spacing": spacing, "lat0": 0.0, "lon0": 0.0, "cells": {}}
    lat_total = lon_total = 0.0
    for lat, lon in points:
        lat_total += lat
        lon_total += lon
    lat0 = lat_total / len(points)
    lon0 = lon_total / len(points)
    cos0 = math.cos(math.radians(lat0))
    cells: dict[tuple[int, int], int] = {}
    for lat, lon in points:
        x = (lon - lon0) * KM_PER_DEGREE * cos0
        y = (lat - lat0) * KM_PER_DEGREE
        key = nearest_center_loop(x, y, spacing)
        cells[key] = cells.get(key, 0) + 1
    return {"spacing": spacing, "lat0": lat0, "lon0": lon0, "cells": cells}


def hex_grid_to_geojson_loop(grid) -> str:
    """The hex map built as one dict per cell, then one ``json.dumps(sort_keys=True)``.

    Reads only the grid's ``spacing``, ``lat0``, ``lon0`` and ``cells``.
    """
    v = 2.0 * grid.spacing / math.sqrt(3.0)
    radius = v / math.sqrt(3.0)
    features = []
    for col, row in sorted(grid.cells):
        cx, cy = col * grid.spacing, (row + 0.5 * (col & 1)) * v
        ring = []
        for i in range(6):
            angle = math.radians(60.0 * i)
            x, y = cx + radius * math.cos(angle), cy + radius * math.sin(angle)
            lon = grid.lon0 + x / (KM_PER_DEGREE * math.cos(math.radians(grid.lat0)))
            lat = grid.lat0 + y / KM_PER_DEGREE
            ring.append([lon, lat])
        ring.append(ring[0])
        features.append(
            {
                "type": "Feature",
                "properties": {"col": col, "row": row, "count": grid.cells[(col, row)]},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }
        )
    return json.dumps({"type": "FeatureCollection", "features": features}, sort_keys=True)


def hex_geojson_loop(grid) -> str:
    """The hex map text written corner by corner, each coordinate by its ``repr``.

    Reads only the grid's ``spacing``, ``lat0``, ``lon0`` and ``cells``.
    """
    v = 2.0 * grid.spacing / math.sqrt(3.0)
    radius = v / math.sqrt(3.0)
    corners = [
        (radius * math.cos(angle), radius * math.sin(angle))
        for angle in (math.radians(60.0 * i) for i in range(6))
    ]
    lon_scale = KM_PER_DEGREE * math.cos(math.radians(grid.lat0))
    features = []
    for (col, row), count in sorted(grid.cells.items()):
        cx, cy = col * grid.spacing, (row + 0.5 * (col & 1)) * v
        ring = [
            f"[{grid.lon0 + (cx + dx) / lon_scale!r}, {grid.lat0 + (cy + dy) / KM_PER_DEGREE!r}]"
            for dx, dy in corners
        ]
        ring.append(ring[0])
        features.append(
            f'{{"geometry": {{"coordinates": [[{", ".join(ring)}]], "type": "Polygon"}}, '
            f'"properties": {{"col": {col}, "count": {count}, "row": {row}}}, '
            '"type": "Feature"}'
        )
    return f'{{"features": [{", ".join(features)}], "type": "FeatureCollection"}}'


# --- hold-out scoring ---


def cell_of(grid, line: str, km: float, month: int, hour: float) -> tuple[int, int, int] | None:
    """(xi, mi, ti) of one accident in a WarningGrid, by per-value index arithmetic; None off-grid."""
    if line not in grid.x_first:
        return None
    first, n_x = grid.x_first[line], grid.m_window[line].shape[0]
    xi = _bin_index(km, grid.delta_x) - first
    if not 0 <= xi < n_x:
        if xi == n_x and km == (first + n_x) * grid.delta_x:
            xi = n_x - 1  # the final bin's end edge clamps into it
        else:
            return None
    if month not in grid.months or not 0.0 <= hour < 24.0:
        return None
    ti = _bin_index(hour, grid.delta_t)
    if ti >= grid.n_t:
        return None
    return (xi, grid.months.index(month), ti)


def evaluate_holdout_loop(grid, records, theta: float, include_adjacent: bool = False) -> dict:
    """Hold-out scoring one accident at a time: the fields of the package's EvalReport.

    Warned and traffic-positive cell counts are read from the grid's own
    ``warned_cells`` and ``traffic_positive_cells``.
    """
    mapped_ps: list[list[float]] = []
    p_pt = {line: grid.line_cells(line)[0] for line in grid.lines}  # each line computed once
    for rec in records:
        cell = cell_of(grid, rec.line, rec.km, rec.date.month, rec.time / 60.0)
        if cell is None:
            continue
        xi, mi, ti = cell
        arr = p_pt[rec.line]
        candidates = [xi]
        if include_adjacent:
            candidates.extend(i for i in (xi - 1, xi + 1) if 0 <= i < arr.shape[0])
        ps = [float(arr[i, mi, ti]) for i in candidates]
        mapped_ps.append([p for p in ps if not math.isnan(p)])
    n_mapped = len(mapped_ps)
    traffic_positive = grid.traffic_positive_cells()

    def point(th: float) -> tuple[float, float, int]:
        hits = sum(1 for ps in mapped_ps if any(p > th for p in ps))
        hit_rate = hits / n_mapped if n_mapped else 0.0
        warned_fraction = grid.warned_cells(th) / traffic_positive if traffic_positive else 0.0
        return (warned_fraction, hit_rate, hits)

    warned_fraction, hit_rate, hits = point(theta)
    return {
        "theta": float(theta),
        "hit_rate": hit_rate,
        "warned_fraction": warned_fraction,
        "n_test": len(records),
        "n_mapped": n_mapped,
        "n_unmapped": len(records) - n_mapped,
        "hits": hits,
        "curve": tuple(
            (th,) + point(th)[:2] for th in sorted(set(grid.thresholds) | {float(theta)})
        ),
        "include_adjacent": include_adjacent,
    }


# --- grid export ---
# the per-cell exporters: every cell is materialized as a record with its own
# warned dict, the representation the package's column exporters replaced

FLAG_BITS = ((1, NO_TRAFFIC), (4, EXCEEDS))


def cell_record(grid, line: str, cells, xi: int, mi: int, ti: int) -> dict:
    """The cell at array indices (xi, mi, ti) of ``line``, with p_pt None where undefined.

    ``cells`` is the line's ``(p_pt, flags)`` pair, read once per line by the caller.
    """
    p = float(cells[0][xi, mi, ti])
    bits = int(cells[1][xi, mi, ti])
    p_out = None if math.isnan(p) else p
    x_from = (grid.x_first[line] + xi) * grid.delta_x
    t_from = ti * grid.delta_t
    return {
        "line": line,
        "x_from": x_from,
        "x_to": x_from + grid.delta_x,
        "month": grid.months[mi],
        "t_from": t_from,
        "t_to": t_from + grid.delta_t,
        "m_window": float(grid.m_window[line][xi, ti]),
        "p_pt": p_out,
        "flags": tuple(name for bit, name in FLAG_BITS if bits & bit),
        "warned": {th: (p_out is not None and p_out > th) for th in grid.thresholds},
    }


def warnings_to_csv_loop(grid) -> str:
    """The warnings CSV written one materialized cell at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["line", "x_from", "x_to", "month", "hour_from", "hour_to", "m_window", "p_pt", "flags"]
        + [f"warned@{theta!r}" for theta in grid.thresholds]
    )
    for line in grid.lines:
        cells = grid.line_cells(line)
        for xi in range(cells[0].shape[0]):
            for mi in range(len(grid.months)):
                for ti in range(grid.n_t):
                    cell = cell_record(grid, line, cells, xi, mi, ti)
                    writer.writerow(
                        [
                            cell["line"],
                            repr(cell["x_from"]),
                            repr(cell["x_to"]),
                            cell["month"],
                            repr(cell["t_from"]),
                            repr(cell["t_to"]),
                            repr(cell["m_window"]),
                            "" if cell["p_pt"] is None else repr(cell["p_pt"]),
                            ";".join(cell["flags"]),
                        ]
                        + [int(cell["warned"][theta]) for theta in grid.thresholds]
                    )
    return out.getvalue()


def km_to_geo_loop(geometry, km: float) -> tuple[float, float]:
    """(lat, lon) at a km post: linear interpolation after the last vertex at or before km."""
    vertices = geometry.vertices
    idx = max(i for i, (_, _, vkm) in enumerate(vertices) if vkm <= km)
    if idx == len(vertices) - 1:
        return (vertices[idx][0], vertices[idx][1])
    lat0, lon0, k0 = vertices[idx]
    lat1, lon1, k1 = vertices[idx + 1]
    if km == k0:
        return (lat0, lon0)
    t = (km - k0) / (k1 - k0)
    return (lat0 + t * (lat1 - lat0), lon0 + t * (lon1 - lon0))


def warnings_to_geojson_loop(grid, geometries, theta: float, month=None, hour=None) -> str:
    """Warned track segments found by visiting every (month, hour) cell of each km bin."""
    features = []
    for line in grid.lines:
        geometry = geometries.get(line)
        if geometry is None:
            continue
        cells = grid.line_cells(line)
        for xi in range(cells[0].shape[0]):
            x_from = (grid.x_first[line] + xi) * grid.delta_x
            hits = []
            for mi in range(len(grid.months)):
                for ti in range(grid.n_t):
                    cell = cell_record(grid, line, cells, xi, mi, ti)
                    if cell["p_pt"] is None or not cell["p_pt"] > theta:
                        continue
                    if month is not None and cell["month"] != month:
                        continue
                    if hour is not None and cell["t_from"] != _bin_index(hour, grid.delta_t) * grid.delta_t:
                        continue
                    hits.append(cell)
            if not hits:
                continue
            x_to = x_from + grid.delta_x
            seg_a = max(x_from, geometry.km_min)
            seg_b = min(x_to, geometry.km_max)
            if seg_a >= seg_b:
                continue
            lat, lon = km_to_geo_loop(geometry, seg_a)
            coords = [[lon, lat]]
            coords.extend([vlon, vlat] for vlat, vlon, vkm in geometry.vertices if seg_a < vkm < seg_b)
            lat, lon = km_to_geo_loop(geometry, seg_b)
            coords.append([lon, lat])
            features.append(
                {
                    "type": "Feature",
                    "properties": {
                        "line": line,
                        "x_from": x_from,
                        "x_to": x_to,
                        "theta": theta,
                        "months": sorted({c["month"] for c in hits}),
                        "hours": sorted({c["t_from"] for c in hits}),
                        "p_pt_max": max(c["p_pt"] for c in hits),
                    },
                    "geometry": {"type": "LineString", "coordinates": coords},
                }
            )
    return json.dumps({"type": "FeatureCollection", "features": features}, sort_keys=True)


# --- profiles and speed correlation ---


def species_profile_loop(records: Iterable) -> dict[str, int]:
    """Records per stripped species label ("unknown" when empty), most frequent first."""
    counts: dict[str, int] = {}
    for r in records:
        label = r.species.strip() or "unknown"
        counts[label] = counts.get(label, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def hourly_profile_loop(records: Iterable, season_groups: dict[str, tuple[int, ...]]) -> dict:
    """Records per (season label, hour of day), dense over all 24 hours."""
    month_season = {m: lab for lab, months in season_groups.items() for m in months}
    counts = {(lab, hour): 0 for lab in season_groups for hour in range(24)}
    for r in records:
        counts[(month_season[r.date.month], r.time // 60)] += 1
    return counts


def speed_pairs_loop(records: Iterable, traffic, speeds: dict, delta_x: float) -> list[tuple]:
    """(line, x_from, speed, accidents per train) per usable traffic bin, counted record by record.

    ``traffic`` holds a run of counts per line from bin ``x_first[line]``;
    ``speeds`` maps a line to an object with ``intervals`` of (km_from,
    km_to, vmax) steps, scanned here one by one for the bin midpoint.
    """
    acc_counts: dict[tuple[str, int], int] = {}
    for r in records:
        key = (r.line, _bin_index(r.km, delta_x))
        acc_counts[key] = acc_counts.get(key, 0) + 1
    pairs = []
    for line in sorted(traffic.counts):
        intervals = speeds[line].intervals if line in speeds else ()
        for k, m in enumerate(traffic.counts[line].tolist(), traffic.x_first[line]):
            x_from = k * delta_x
            mid = x_from + delta_x / 2.0
            speed = next((v for lo, hi, v in intervals if lo <= mid < hi), None)
            if m > 0 and speed is not None:
                pairs.append((line, x_from, speed, acc_counts.get((line, k), 0) / m))
    return pairs


# --- correlation helpers ---


def pearson_manual(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = sum((a - mx) ** 2 for a in xs)
    vy = sum((b - my) ** 2 for b in ys)
    return cov / math.sqrt(vx * vy)


def rankdata_manual(values: Sequence[float]) -> list[float]:
    """Average ranks, 1-based, ties shared."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_manual(xs: Sequence[float], ys: Sequence[float]) -> float:
    return pearson_manual(rankdata_manual(xs), rankdata_manual(ys))

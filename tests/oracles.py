"""Independent brute-force recomputations used to cross-check the package.

Everything here is written the slow, obvious way: filter-and-count loops,
exact rational arithmetic via Fraction, exhaustive candidate search.  Nothing
imports from wildrail, so an implementation bug cannot hide in a shared
helper.  Time-of-day binning works on integer minutes, so the oracle bin
widths must be whole numbers of minutes.
"""

from __future__ import annotations

import datetime as dt
import math
from fractions import Fraction
from typing import Iterable, Sequence

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
INSUFFICIENT = "insufficient_data"
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
    contract: zero expected trains or a missing season table blocks the cell;
    a zero-accident month gives probability 0 without needing its season.
    """
    flags: set[str] = set()
    m_window = Fraction(traffic_count) * alpha_value * delta_t_hours
    if m_window == 0:
        flags.add(NO_TRAFFIC)
    mu = tables["mu"][tau]
    temporal: Fraction | None
    if mu == 0:
        temporal = Fraction(0)
    else:
        season = month_season[tau]
        if season not in tables["p_time"]:
            temporal = None
            flags.add(INSUFFICIENT)
        else:
            temporal = tables["p_time"][season][t_index] * mu
    p_line = tables["p_line"].get(line, Fraction(0))
    if p_line == 0:
        spatial = Fraction(0)
    else:
        spatial = tables["p_segment"][line].get(x_index, Fraction(0)) * p_line
    if flags:
        return (None, flags)
    assert temporal is not None
    p = temporal * spatial / m_window
    if p > 1:
        flags.add(EXCEEDS)
    return (p, flags)


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

    The centroid is the sequential sum of the points, the projection is
    equirectangular around it, and ``cells`` keeps first-appearance order.
    """
    if not points:
        return {"spacing": spacing, "lat0": 0.0, "lon0": 0.0, "cells": {}}
    lat0 = sum(lat for lat, _ in points) / len(points)
    lon0 = sum(lon for _, lon in points) / len(points)
    cos0 = math.cos(math.radians(lat0))
    cells: dict[tuple[int, int], int] = {}
    for lat, lon in points:
        x = (lon - lon0) * KM_PER_DEGREE * cos0
        y = (lat - lat0) * KM_PER_DEGREE
        key = nearest_center_loop(x, y, spacing)
        cells[key] = cells.get(key, 0) + 1
    return {"spacing": spacing, "lat0": lat0, "lon0": lon0, "cells": cells}


# --- hold-out scoring ---


def cell_of(grid, line: str, km: float, month: int, hour: float) -> tuple[int, int, int] | None:
    """(xi, mi, ti) of one accident in a WarningGrid, by tuple lookups; None off-grid."""
    starts = grid.x_starts.get(line)
    if not starts:
        return None
    first = round(starts[0] / grid.delta_x)
    xi = _bin_index(km, grid.delta_x) - first
    if not 0 <= xi < len(starts):
        if xi == len(starts) and km == (first + len(starts)) * grid.delta_x:
            xi = len(starts) - 1  # the final bin's end edge clamps into it
        else:
            return None
    if month not in grid.months or not 0.0 <= hour < 24.0:
        return None
    t_start = _bin_index(hour, grid.delta_t) * grid.delta_t
    if t_start not in grid.t_starts:
        return None
    return (xi, grid.months.index(month), grid.t_starts.index(t_start))


def evaluate_holdout_loop(grid, records, theta: float, include_adjacent: bool = False) -> dict:
    """Hold-out scoring one accident at a time: the fields of the package's EvalReport.

    Warned and traffic-positive cell counts are read from the grid's own
    ``warned_cells`` and ``traffic_positive_cells``.
    """
    mapped_ps: list[list[float]] = []
    for rec in records:
        cell = cell_of(grid, rec.line, rec.km, rec.date.month, rec.time / 60.0)
        if cell is None:
            continue
        xi, mi, ti = cell
        arr = grid.p_pt[rec.line]
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

"""Descriptive and evaluative analytics over accident data and warning grids."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from operator import itemgetter

import numpy as np

from .ingest import Dataset, SpeedProfile, TrafficTable
from .model import SeasonScheme
from .warn import WarningGrid

__all__ = [
    "UndefinedCorrelationError",
    "HexGrid",
    "CorrelationReport",
    "EvalReport",
    "hex_bin",
    "hex_grid_to_geojson",
    "species_profile",
    "hourly_profile",
    "speed_correlation",
    "evaluate_holdout",
    "report_to_json",
]

KM_PER_DEGREE = math.pi * 6371.0 / 180.0

UNKNOWN_SPECIES = "unknown"

# records or points handled per array block, so temporaries stay a few MB
_BLOCK = 1 << 15


class UndefinedCorrelationError(ValueError):
    """Correlation is undefined because one of the variables has zero variance."""


@dataclass(frozen=True)
class HexGrid:
    """Accident counts on a flat-top hexagonal lattice.

    Cells are keyed by (column, row).  Columns are ``spacing`` km apart
    horizontally; centers within a column are 2*spacing/sqrt(3) km apart
    vertically, with odd columns shifted down by half that step.  Coordinates
    live in a local equirectangular plane around (lat0, lon0), the centroid
    of the binned points, with longitude scaled by cos(lat0).
    """

    spacing: float
    lat0: float
    lon0: float
    cells: dict[tuple[int, int], int]

    @property
    def total(self) -> int:
        return sum(self.cells.values())

    @property
    def vertical_step(self) -> float:
        return 2.0 * self.spacing / math.sqrt(3.0)

    def project(self, lat: float, lon: float) -> tuple[float, float]:
        """(lat, lon) -> local (x, y) in km."""
        x = (lon - self.lon0) * KM_PER_DEGREE * math.cos(math.radians(self.lat0))
        y = (lat - self.lat0) * KM_PER_DEGREE
        return (x, y)

    def unproject(self, x: float, y: float) -> tuple[float, float]:
        lon = self.lon0 + x / (KM_PER_DEGREE * math.cos(math.radians(self.lat0)))
        lat = self.lat0 + y / KM_PER_DEGREE
        return (lat, lon)

    def center_xy(self, col: int, row: int) -> tuple[float, float]:
        v = self.vertical_step
        return (col * self.spacing, (row + 0.5 * (col & 1)) * v)

    def assign(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest hex centre to each projected point, as int64 (col, row) arrays.

        The candidates are the 9 centres in the columns next to round(x /
        spacing) and, in each, the rows next to its rounded row.  They are
        scored in ascending (col, row) order and the first strict minimum of
        the squared distance wins, so a tie goes to the smallest (col, row).
        """
        v = self.vertical_step
        col0 = np.round(x / self.spacing)
        best_d2 = best_col = best_row = None
        for col in (col0 - 1.0, col0, col0 + 1.0):
            offset = 0.5 * (col.astype(np.int64) & 1)  # odd columns sit half a step lower
            row0 = np.round(y / v - offset)
            for row in (row0 - 1.0, row0, row0 + 1.0):
                d2 = (x - col * self.spacing) ** 2 + (y - (row + offset) * v) ** 2
                if best_d2 is None:
                    best_d2, best_col, best_row = d2, col.copy(), row
                    continue
                closer = d2 < best_d2
                np.copyto(best_d2, d2, where=closer)
                np.copyto(best_col, col, where=closer)
                np.copyto(best_row, row, where=closer)
        return best_col.astype(np.int64), best_row.astype(np.int64)


def hex_bin(points: list[tuple[float, float]], spacing: float = 2.5) -> HexGrid:
    """Count (lat, lon) points into nearest-center hexagonal cells.

    The lattice is centred on (lat0, lon0), the mean of the points summed in
    input order.  Each point goes to its nearest centre with ties to the
    smallest (col, row), as ``HexGrid.assign``.  ``cells`` lists the occupied
    cells in the order of their first point.

    Args:
        points: geographic points as (lat, lon) pairs.
        spacing: horizontal center-to-center distance in km.

    Returns:
        HexGrid with one count per occupied cell; empty input yields an
        empty grid.
    """
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be positive and finite, got {spacing!r}")
    if not points:
        return HexGrid(spacing=spacing, lat0=0.0, lon0=0.0, cells={})
    lat0 = sum(map(itemgetter(0), points)) / len(points)
    lon0 = sum(map(itemgetter(1), points)) / len(points)
    grid = HexGrid(spacing=spacing, lat0=lat0, lon0=lon0, cells={})
    cols, rows = [], []
    for start in range(0, len(points), _BLOCK):
        block = np.array(points[start : start + _BLOCK], dtype=float)
        col, row = grid.assign(*grid.project(block[:, 0], block[:, 1]))
        cols.append(col)
        rows.append(row)
    cols, rows = np.concatenate(cols), np.concatenate(rows)
    # group equal cells; the sort is stable, so each group starts at its first point
    order = np.lexsort((rows, cols))
    cols, rows = cols[order], rows[order]
    new_cell = (cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1])
    starts = np.flatnonzero(np.concatenate(([True], new_cell)))
    counts = np.diff(starts, append=order.size)
    by_first = np.argsort(order[starts])
    firsts = starts[by_first]
    cells = dict(zip(zip(cols[firsts].tolist(), rows[firsts].tolist()), counts[by_first].tolist()))
    return HexGrid(spacing=spacing, lat0=lat0, lon0=lon0, cells=cells)


def hex_grid_to_geojson(grid: HexGrid) -> str:
    """Occupied hex cells as GeoJSON polygons with a ``count`` property.

    The text is the FeatureCollection as ``json.dumps(..., sort_keys=True)``
    writes it, one feature per cell in sorted (col, row) order.
    """
    # circumradius of a hexagon whose flat-to-flat width equals the
    # center-to-center distance between neighbors
    radius = grid.vertical_step / math.sqrt(3.0)
    corners = [
        (radius * math.cos(angle), radius * math.sin(angle))
        for angle in (math.radians(60.0 * i) for i in range(6))
    ]
    lat0, lon0 = grid.lat0, grid.lon0
    lon_scale = KM_PER_DEGREE * math.cos(math.radians(lat0))  # as in HexGrid.unproject
    features = []
    for (col, row), count in sorted(grid.cells.items()):
        cx, cy = grid.center_xy(col, row)
        ring = [
            f"[{lon0 + (cx + dx) / lon_scale!r}, {lat0 + (cy + dy) / KM_PER_DEGREE!r}]"
            for dx, dy in corners
        ]
        ring.append(ring[0])
        features.append(
            f'{{"geometry": {{"coordinates": [[{", ".join(ring)}]], "type": "Polygon"}}, '
            f'"properties": {{"col": {col}, "count": {count}, "row": {row}}}, '
            '"type": "Feature"}'
        )
    return f'{{"features": [{", ".join(features)}], "type": "FeatureCollection"}}'


def species_profile(data: Dataset) -> dict[str, int]:
    """Accident counts per species, most frequent first (ties alphabetical).

    ``parse_accidents`` strips every field, so a blank species field is
    empty; such records are grouped under "unknown".
    """
    counts = Counter(data.species)
    if "" in counts:
        counts[UNKNOWN_SPECIES] += counts.pop("")
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def hourly_profile(data: Dataset, seasons: SeasonScheme) -> dict[tuple[str, int], int]:
    """Accident counts per (season label, hour of day), dense over all 24 hours."""
    labels = seasons.labels
    counts = np.bincount(
        seasons.label_indices(data.months) * 24 + data.minutes // 60, minlength=len(labels) * 24
    )
    keys = [(label, hour) for label in labels for hour in range(24)]
    return dict(zip(keys, counts.tolist()))


@dataclass(frozen=True)
class CorrelationReport:
    """Speed vs accidents-per-train pairing with its correlation coefficients."""

    n: int
    pearson: float
    spearman: float
    pairs: tuple[tuple[str, float, float, float], ...]  # (line, x_from, speed, acc_per_train)


def speed_correlation(
    data: Dataset,
    traffic: TrafficTable,
    speeds: dict[str, SpeedProfile],
    delta_x: float = 5.0,
) -> CorrelationReport:
    """Correlate track speed with accidents per train across km bins.

    For every traffic bin with trains, a defined speed at the bin midpoint
    pairs with accidents-per-train = accident count in the bin divided by its
    daily train count.  Bins without a covering speed interval are dropped.

    Raises:
        ValueError: delta_x mismatching the traffic table, or fewer than 3
            usable bins.
        UndefinedCorrelationError: zero variance in either variable.
    """
    if delta_x != traffic.delta_x:
        raise ValueError(
            f"delta_x={delta_x} does not match the traffic table bin width {traffic.delta_x}"
        )
    acc_counts = {
        (line, i * delta_x): count
        for line, per_bin in data.km_bin_counts(delta_x).items()
        for i, count in per_bin.items()
    }
    pairs: list[tuple[str, float, float, float]] = []
    for line, x_from in sorted(traffic.counts):
        m = traffic.counts[(line, x_from)]
        if m <= 0:
            continue
        profile = speeds.get(line)
        if profile is None:
            continue
        speed = profile.speed_at(x_from + delta_x / 2.0)
        if speed is None:
            continue
        pairs.append((line, x_from, speed, acc_counts.get((line, x_from), 0) / m))
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 usable bins for a correlation, got {len(pairs)}")
    speed_arr = np.array([p[2] for p in pairs])
    risk_arr = np.array([p[3] for p in pairs])
    if speed_arr.min() == speed_arr.max():
        raise UndefinedCorrelationError("speed is constant across bins; correlation undefined")
    if risk_arr.min() == risk_arr.max():
        raise UndefinedCorrelationError(
            "accidents-per-train is constant across bins; correlation undefined"
        )
    pearson = _pearson(speed_arr, risk_arr)
    spearman = _spearman(speed_arr, risk_arr)
    return CorrelationReport(n=len(pairs), pearson=pearson, spearman=spearman, pairs=tuple(pairs))


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r of two non-constant vectors, clipped to [-1, 1].

    Each centred vector is scaled by its largest magnitude before the norm,
    so squaring cannot overflow.
    """

    def unit(v: np.ndarray) -> np.ndarray:
        centred = v - v.mean()
        vmax = np.abs(centred).max()
        return centred / (vmax * np.linalg.norm(centred / vmax, axis=-1))

    return float(np.clip(np.dot(unit(x), unit(y)), -1.0, 1.0))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their ranks."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(starts, append=a.size)
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: the correlation of the average ranks."""
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])


@dataclass(frozen=True)
class EvalReport:
    """Hold-out evaluation of a warning grid against later accidents.

    ``hit_rate`` is the fraction of mappable test accidents whose exact
    (line, km bin, hour bin, month) cell was warned at ``theta``;
    ``warned_fraction`` is the fraction of traffic-positive cells warned.
    ``curve`` lists (theta, warned_fraction, hit_rate) for the grid's
    thresholds plus the requested theta, ascending.
    """

    theta: float
    hit_rate: float
    warned_fraction: float
    n_test: int
    n_mapped: int
    n_unmapped: int
    hits: int
    curve: tuple[tuple[float, float, float], ...]
    include_adjacent: bool = False


def evaluate_holdout(
    grid: WarningGrid,
    test: Dataset,
    theta: float,
    *,
    include_adjacent: bool = False,
) -> EvalReport:
    """Score a warning grid against a held-out accident set.

    Each test accident maps to its grid cell as ``WarningGrid.locate`` does:
    by line, km bin (the corrected floor of ``bin_index``; a km exactly at a
    line's final bin edge clamps into the final bin), month, and hour bin
    (0 <= hour < 24 and the bin start one of the grid's).  Accidents that
    miss the grid are counted as unmapped and excluded from the hit rate.
    A mapped accident is a hit at theta when its cell's p_pt is strictly
    above theta; flagged (NaN) cells never hit.  ``include_adjacent``
    also accepts the neighbouring km bins on the same line (off by default).

    Raises:
        ValueError: empty test set, or theta negative or not finite.
    """
    if test.n == 0:
        raise ValueError("empty test set")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta!r}")
    names = grid.lines
    hours = test.minutes / 60.0
    # per mapped accident, the largest p_pt among the cells that can make it a
    # hit, -inf when all of them are flagged
    best: list[np.ndarray] = []
    for start in range(0, test.n, _BLOCK):
        block = slice(start, start + _BLOCK)
        li, xi, mi, ti = grid.locate(
            test.line_names, test.line_codes[block], test.kms[block], test.months[block],
            hours[block],
        )
        mapped = np.flatnonzero((xi >= 0) & (mi >= 0) & (ti >= 0))
        mapped = mapped[np.argsort(li[mapped], kind="stable")]
        for group in np.split(mapped, np.flatnonzero(np.diff(li[mapped])) + 1):
            if group.size:
                p_pt = grid.p_pt[names[li[group[0]]]]
                best.append(_best_p(p_pt, xi[group], mi[group], ti[group], include_adjacent))
    ordered = np.sort(np.concatenate(best)) if best else np.empty(0)
    n_mapped = int(ordered.size)
    traffic_positive = grid.traffic_positive_cells()
    points: dict[float, tuple[float, float, int]] = {}
    for th in sorted(set(grid.thresholds) | {float(theta)}):
        # strictly above th: everything right of the last value <= th
        hits = n_mapped - int(np.searchsorted(ordered, th, side="right"))
        hit_rate = hits / n_mapped if n_mapped else 0.0
        warned_fraction = grid.warned_cells(th) / traffic_positive if traffic_positive else 0.0
        points[th] = (warned_fraction, hit_rate, hits)
    warned_fraction, hit_rate, hits_at_theta = points[float(theta)]
    return EvalReport(
        theta=float(theta),
        hit_rate=hit_rate,
        warned_fraction=warned_fraction,
        n_test=test.n,
        n_mapped=n_mapped,
        n_unmapped=test.n - n_mapped,
        hits=hits_at_theta,
        curve=tuple((th, wf, hr) for th, (wf, hr, _) in points.items()),
        include_adjacent=include_adjacent,
    )


def _best_p(
    p_pt: np.ndarray, xi: np.ndarray, mi: np.ndarray, ti: np.ndarray, include_adjacent: bool
) -> np.ndarray:
    """Largest p_pt over each accident's cell (and its km neighbours), NaN read as -inf."""
    best = p_pt[xi, mi, ti]
    if include_adjacent:
        last = p_pt.shape[0] - 1
        for near in (xi - 1, xi + 1):
            # at either end of the line the clip reads the accident's own cell again
            best = np.fmax(best, p_pt[np.clip(near, 0, last), mi, ti])
    return np.where(np.isnan(best), -np.inf, best)


def report_to_json(report: CorrelationReport | EvalReport) -> str:
    """A report's fields as one deterministic JSON document, keys sorted."""
    return json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"

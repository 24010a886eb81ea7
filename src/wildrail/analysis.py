"""Descriptive and evaluative analytics over accident data and warning grids."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .ingest import _BLOCK, Dataset, SpeedProfile, TrafficTable, _bin_floor, _positive, _real, _real_array
from .model import SeasonScheme
from .warn import WarningGrid, _p_pt, _warned

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

_SPACING_KM = (1e-6, 1e6)  # the hex spacings hex_bin accepts


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


def hex_bin(points: list[tuple[float, float]] | np.ndarray, spacing: float = 2.5) -> HexGrid:
    """Count (lat, lon) points into nearest-center hexagonal cells.

    The lattice is centred on (lat0, lon0), the mean of the points summed in
    input order.  Each point goes to its nearest centre with ties to the
    smallest (col, row), as ``HexGrid.assign``.  ``cells`` lists the occupied
    cells in the order of their first point.

    Args:
        points: geographic points, (lat, lon) pairs with |lat| <= 90 and
            |lon| <= 180, as a sequence or an (n, 2) array.
        spacing: horizontal center-to-center distance in km, from 1e-6 to
            1e6 km.  With geographic points this keeps squared distances
            finite, cell indices below about 4e10 and hexagon corners distinct.

    Returns:
        HexGrid with one count per occupied cell; empty input yields an
        empty grid.
    """
    lo, hi = _SPACING_KM
    if not lo <= (spacing := _real(spacing, "spacing")) <= hi:  # NaN fails too
        raise ValueError(f"spacing must be from {lo:g} to {hi:g} km, got {spacing!r}")
    latlon = _real_array(points, "points")
    if not latlon.size:
        return HexGrid(spacing=spacing, lat0=0.0, lon0=0.0, cells={})
    if latlon.ndim != 2 or latlon.shape[1] != 2:
        raise ValueError(f"points must be (lat, lon) pairs, got an array of shape {latlon.shape}")
    lat, lon = latlon.T
    if not (np.all(np.abs(lat) <= 90.0) and np.all(np.abs(lon) <= 180.0)):
        raise ValueError("points must be geographic: |lat| <= 90 and |lon| <= 180, none NaN")
    lat0, lon0 = (_sequential_sum(a) / len(a) for a in (lat, lon))
    grid = HexGrid(spacing=spacing, lat0=lat0, lon0=lon0, cells={})
    cols, rows = np.empty(len(lat), dtype=np.int64), np.empty(len(lat), dtype=np.int64)
    for i in range(0, len(lat), _BLOCK):
        cols[i : i + _BLOCK], rows[i : i + _BLOCK] = grid.assign(
            *grid.project(lat[i : i + _BLOCK], lon[i : i + _BLOCK])
        )
    del latlon, lat, lon  # a converted copy of the points, not read again
    # one int64 key per cell from the ranks of its column and row: it stays
    # below (number of points)**2, so it cannot overflow
    row_values, keys = np.unique(rows, return_inverse=True)
    col_ranks = np.unique(cols, return_inverse=True)[1]
    col_ranks *= len(row_values)
    keys += col_ranks
    del col_ranks
    order = np.argsort(keys)
    ordered = keys[order]
    del keys
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    del ordered
    counts = np.diff(starts, append=order.size)
    # a cell's first point is the smallest point index in its group
    firsts = np.minimum.reduceat(order, starts)
    by_first = np.argsort(firsts)
    firsts = firsts[by_first]
    cells = dict(zip(zip(cols[firsts].tolist(), rows[firsts].tolist()), counts[by_first].tolist()))
    return HexGrid(spacing=spacing, lat0=lat0, lon0=lon0, cells=cells)


def _sequential_sum(a: np.ndarray) -> float:
    """The left-to-right float sum of a non-empty ``a``, on every Python version.

    ``np.add.accumulate`` adds one element at a time, as ``sum`` does before
    Python 3.12; ``+ 0.0`` turns an all ``-0.0`` total into ``sum``'s
    ``0.0``.  ``sum`` from 3.12 on compensates and ``np.sum`` adds pairwise,
    so either could move the lattice by an ulp of its centre.
    """
    return float(np.add.accumulate(a)[-1]) + 0.0


def hex_grid_to_geojson(grid: HexGrid) -> str:
    """Occupied hex cells as GeoJSON polygons with a ``count`` property.

    The text is the FeatureCollection as ``json.dumps(..., sort_keys=True)``
    writes it, one feature per cell in sorted (col, row) order.

    Raises:
        ValueError: a hexagon corner lies off the globe (|lat| > 90 or
            |lon| > 180), as a coarse spacing or a lattice across the
            antimeridian puts it; GeoJSON positions cannot hold it.
    """
    # circumradius of a hexagon whose flat-to-flat width equals the
    # center-to-center distance between neighbors
    radius = grid.vertical_step / math.sqrt(3.0)
    angles = [math.radians(60.0 * i) for i in range(6)]
    dx, dy = radius * np.array([[math.cos(a) for a in angles], [math.sin(a) for a in angles]])
    items = sorted(grid.cells.items())
    cols, rows = np.array([cell for cell, _ in items], dtype=np.int64).reshape(-1, 2).T
    cx, cy = grid.center_xy(cols, rows)
    lats, lons = grid.unproject(cx[:, None] + dx, cy[:, None] + dy)
    off_globe = ~((np.abs(lats) <= 90.0) & (np.abs(lons) <= 180.0))  # NaN is off it too
    if off_globe.any():
        lat, lon = float(lats[off_globe][0]), float(lons[off_globe][0])
        raise ValueError(
            f"a hexagon corner at spacing {grid.spacing!r} km lies off the globe "
            f"(lat {lat!r}, lon {lon!r}); corners need |lat| <= 90 and |lon| <= 180"
        )
    # neighbouring cells share corners, so each distinct coordinate and each
    # distinct corner is formatted once; equal bits give equal repr texts,
    # where float equality would merge 0.0 and -0.0
    lat_bits, lat_at = np.unique(lats.ravel().view(np.int64), return_inverse=True)
    lon_bits, lon_at = np.unique(lons.ravel().view(np.int64), return_inverse=True)
    lat_texts = list(map(repr, lat_bits.view(float).tolist()))
    lon_texts = list(map(repr, lon_bits.view(float).tolist()))
    pairs, corner_at = np.unique(lon_at * len(lat_bits) + lat_at, return_inverse=True)
    lon_of, lat_of = np.divmod(pairs, len(lat_bits))
    corner_texts = [
        f"[{lon_texts[i]}, {lat_texts[j]}]" for i, j in zip(lon_of.tolist(), lat_of.tolist())
    ]
    corner_at = corner_at.reshape(lats.shape)
    features = []
    for ((col, row), count), six in zip(items, corner_at.tolist()):
        ring = [corner_texts[i] for i in six]
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

    For every bin of a traffic run with trains, a defined speed at the bin
    midpoint pairs with accidents-per-train = accident count in the bin
    divided by its daily train count.  The speed is that of the profile step
    [km_from, km_to) holding the midpoint; bins no step covers are dropped.
    Pairs run by line name, then by km bin.

    Raises:
        TypeError: delta_x is not an int or a float.
        ValueError: delta_x not positive and finite or mismatching the traffic
            table, or fewer than 3 usable bins.
        UndefinedCorrelationError: zero variance in either variable.
    """
    delta_x = _positive(delta_x, "delta_x")
    if delta_x != traffic.delta_x:
        raise ValueError(
            f"delta_x={delta_x} does not match the traffic table bin width {traffic.delta_x}"
        )
    names = sorted(traffic.counts)
    # accidents per bin of every run, the runs laid out one after another; a record
    # off its line's run, or on a line without one (the empty run last), is not counted
    firsts = np.array([traffic.x_first[name] for name in names] + [0], dtype=float)
    sizes = np.array([len(traffic.counts[name]) for name in names] + [0])
    starts = np.cumsum(sizes) - sizes
    run_of = {name: i for i, name in enumerate(names)}
    li = np.array([run_of.get(name, len(names)) for name in data.line_names], dtype=np.int64)
    li = li[data.line_codes]
    pos = _bin_floor(data.kms, delta_x) - firsts[li]
    inside = (pos >= 0) & (pos < sizes[li])
    acc = np.bincount((pos + starts[li])[inside].astype(np.int64), minlength=int(sizes.sum()))
    pairs: list[tuple[str, float, float, float]] = []
    for line, first, start in zip(names, firsts.tolist(), starts.tolist()):
        run, profile = traffic.counts[line], speeds.get(line)
        if profile is None or not profile.intervals:
            continue
        x_from = (first + np.arange(len(run))) * delta_x
        mid = x_from + delta_x / 2.0
        steps = np.array(profile.intervals)  # (km_from, km_to, vmax) rows, ascending and disjoint
        # the one step that can hold a midpoint is the last that starts at or before it
        i = np.searchsorted(steps[:, 0], mid, side="right") - 1
        keep = np.flatnonzero((run > 0) & (i >= 0) & (mid < steps[i, 1]))
        speed, risk = steps[i[keep], 2].tolist(), (acc[start + keep] / run[keep]).tolist()
        pairs.extend(zip([line] * len(keep), x_from[keep].tolist(), speed, risk))
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
    (0 <= hour < 24 and a bin index below the grid's ``n_t``).  Accidents
    that miss the grid are counted as unmapped and excluded from the hit
    rate.  A mapped accident is a hit at theta when its cell's p_pt is
    strictly above theta; flagged (NaN) cells never hit.  ``include_adjacent``
    also accepts the neighbouring km bins on the same line (off by default).
    ``warned_fraction`` is ``census.warned / census.traffic_positive`` of one
    ``grid.census``.  The evaluation holds one copy of the grid's factors and
    one block of located cells, and nothing per test row.

    Raises:
        TypeError: theta is not an int or a float.
        ValueError: empty test set, or theta negative or not finite.
    """
    if test.n == 0:
        raise ValueError("empty test set")
    theta = _real(theta, "theta")
    if not 0 <= theta < math.inf:
        raise ValueError(f"theta must be non-negative and finite, got {theta!r}")
    thetas = sorted(set(grid.thresholds) | {theta})
    census = grid.census(thetas)
    # the lines' km bins laid end to end: bin xi of line li is row offsets[li] + xi
    offsets = np.cumsum([0] + [grid.spatial[line].size for line in grid.lines])
    spatial = np.concatenate([grid.spatial[line] for line in grid.lines])
    m_window = np.concatenate([grid.m_window[line] for line in grid.lines])
    hits = [0] * len(thetas)
    n_mapped = 0
    for start in range(0, test.n, _BLOCK):
        block = slice(start, start + _BLOCK)
        li, xi, mi, ti = grid.locate(
            test.line_names, test.line_codes[block], test.kms[block], test.months[block],
            test.minutes[block] / 60.0,
        )
        mapped = (xi >= 0) & (mi >= 0) & (ti >= 0)
        li, xi, temporal, ti = li[mapped], xi[mapped], grid.temporal[mi[mapped], ti[mapped]], ti[mapped]
        k = offsets[li] + xi
        best = _p_pt(temporal, spatial[k], m_window[k, ti])
        if include_adjacent:
            # a neighbour off either end of the line reads the accident's own bin
            for inside, step in ((xi > 0, -1), (k < offsets[li + 1] - 1, 1)):
                j = np.where(inside, k + step, k)
                best = np.fmax(best, _p_pt(temporal, spatial[j], m_window[j, ti]))
        n_mapped += best.size
        hits = [a + int(np.count_nonzero(_warned(best, th))) for a, th in zip(hits, thetas)]
    curve = []
    for th, hits_th, warned_th in zip(thetas, hits, census.warned):
        hit_rate = hits_th / n_mapped if n_mapped else 0.0
        warned_fraction = warned_th / census.traffic_positive if census.traffic_positive else 0.0
        curve.append((th, warned_fraction, hit_rate))
    at = thetas.index(theta)
    return EvalReport(
        theta=theta,
        hit_rate=curve[at][2],
        warned_fraction=curve[at][1],
        n_test=test.n,
        n_mapped=n_mapped,
        n_unmapped=test.n - n_mapped,
        hits=hits[at],
        curve=tuple(curve),
        include_adjacent=include_adjacent,
    )


def report_to_json(report: CorrelationReport | EvalReport) -> str:
    """A report's fields as one deterministic JSON document, keys sorted."""
    return json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"

"""Per-train collision probabilities and threshold warnings on a space-time grid.

A cell is (line, km bin, month, hour bin).  Its per-train probability is

    p_pt = [p(t | season(month)) * mu(month)] * [p(x | line) * p(line)] / m_window

where m_window = m(line, x) * alpha(t, delta_t) * delta_t is the expected
number of trains in the window.  A warning is raised in a cell exactly when
p_pt exceeds a threshold (strictly).  Cells without traffic carry no p_pt and
are never warned; they are flagged instead.  p_pt is a ratio of an expected
event count to a train count and is deliberately not clamped: values above 1
get an "exceeds unity" flag so data problems stay visible.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Sequence, TextIO

import numpy as np

from .ingest import LineGeometry, TrafficTable, _bin_floor, _grid_index, bin_index, km_to_geo
from .model import MONTHS, FittedModel, InsufficientDataError

__all__ = [
    "FLAG_NO_TRAFFIC",
    "FLAG_INSUFFICIENT_DATA",
    "FLAG_EXCEEDS_UNITY",
    "NoTrafficError",
    "TrafficProfile",
    "DEFAULT_PROFILE",
    "WarningGrid",
    "alpha",
    "p_per_train",
    "bayes_warn_animals",
    "sweep_all",
    "warnings_to_csv",
    "warnings_to_geojson",
]

FLAG_NO_TRAFFIC = "no_traffic"
FLAG_INSUFFICIENT_DATA = "insufficient_data"
FLAG_EXCEEDS_UNITY = "exceeds_unity"

_NO_TRAFFIC_BIT = 1
_INSUFFICIENT_BIT = 2
_EXCEEDS_BIT = 4

_FLAG_NAMES = (
    (_NO_TRAFFIC_BIT, FLAG_NO_TRAFFIC),
    (_INSUFFICIENT_BIT, FLAG_INSUFFICIENT_DATA),
    (_EXCEEDS_BIT, FLAG_EXCEEDS_UNITY),
)


class NoTrafficError(ValueError):
    """A per-train probability was requested for a cell with zero expected trains."""


@dataclass(frozen=True)
class TrafficProfile:
    """Within-day distribution of train departures as piecewise-constant rates.

    ``groups`` is a tuple of (mass, windows) entries: each group's probability
    mass is spread evenly over the total hours of its windows.  The windows of
    all groups must tile [0, 24) exactly and the masses must sum to 1.  The
    default is the night / rush-hour / off-peak split: 5 % of trains in
    [0, 4), 40 % in [6, 9) and [15, 18), and the remaining 55 % over the other
    14 hours.
    """

    groups: tuple[tuple[float, tuple[tuple[float, float], ...]], ...]
    _segments: tuple[tuple[float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        segments: list[tuple[float, float, float]] = []
        total_mass = 0.0
        for mass, windows in self.groups:
            if mass < 0:
                raise ValueError(f"piece mass must be non-negative, got {mass!r}")
            if not windows:
                raise ValueError("every profile group needs at least one window")
            hours = 0.0
            for start, end in windows:
                if not 0.0 <= start < end <= 24.0:
                    raise ValueError(f"window [{start}, {end}) must lie within [0, 24)")
                hours += end - start
            rate = mass / hours
            for start, end in windows:
                segments.append((start, end, rate))
            total_mass += mass
        segments.sort()
        covered = 0.0
        for i, (start, end, _) in enumerate(segments):
            expected = segments[i - 1][1] if i else 0.0
            if abs(start - expected) > 1e-9:
                raise ValueError(f"profile windows leave a gap or overlap near hour {start}")
            covered = end
        if abs(covered - 24.0) > 1e-9:
            raise ValueError("profile windows must cover the full day")
        if abs(total_mass - 1.0) > 1e-9:
            raise ValueError(f"piece masses must sum to 1, got {total_mass!r}")
        object.__setattr__(self, "_segments", tuple(segments))

    @property
    def boundaries(self) -> tuple[float, ...]:
        return tuple(end for _, end, _ in self._segments)


DEFAULT_PROFILE = TrafficProfile(
    groups=(
        (0.05, ((0.0, 4.0),)),
        (0.4, ((6.0, 9.0), (15.0, 18.0))),
        (0.55, ((4.0, 6.0), (9.0, 15.0), (18.0, 24.0))),
    )
)


def alpha(t: float, delta_t: float, profile: TrafficProfile = DEFAULT_PROFILE) -> float:
    """Average per-hour traffic fraction over the window [t, t+delta_t).

    On a window inside a single profile piece this is exactly the piece's
    rate (e.g. 0.05/4 at night); windows spanning several pieces average the
    rates, so alpha(t, dt) * dt always sums to 1 over any partition of the
    day.

    Raises:
        ValueError: t outside [0, 24), non-positive delta_t, or a window
            reaching past midnight.
    """
    if not 0.0 <= t < 24.0:
        raise ValueError(f"t must be in [0, 24), got {t!r}")
    if delta_t <= 0:
        raise ValueError(f"delta_t must be positive, got {delta_t!r}")
    if t + delta_t > 24.0 + 1e-9:
        raise ValueError(f"window [{t}, {t + delta_t}) reaches past midnight")
    t_end = t + delta_t
    mass = 0.0
    for start, end, rate in profile._segments:
        overlap = min(end, t_end) - max(start, t)
        if overlap > 0.0:
            if overlap >= delta_t:
                # window fully inside one piece: return its rate untouched
                return rate
            mass += overlap * rate
    return mass / delta_t


def p_per_train(
    model: FittedModel,
    traffic: TrafficTable,
    profile: TrafficProfile,
    tau: int,
    t: float,
    line: str,
    x: float,
) -> float:
    """Per-train accident probability for one cell.

    The value is the cell containing (tau, t, line, x) of the grid that
    ``sweep_all`` computes: an expected event count per train, not clamped.

    Raises:
        NoTrafficError: the window has zero expected trains.
        InsufficientDataError: a required model probability is undefined.
        ValueError: a month, hour or km outside the grid, or traffic binned
            on a different km grid than the model.
    """
    bins = model.bins
    grid = _build_grid(
        model, traffic, profile, (), (tau,), (bins.t_bin(t),), {line: (bins.x_bin(x),)}
    )
    bits = int(grid.flags[line][0, 0, 0])
    if bits & _NO_TRAFFIC_BIT:
        raise NoTrafficError(f"no trains on line {line!r} km {x} in window starting {t} h")
    if bits & _INSUFFICIENT_BIT:
        label = model.seasons.season_of(tau)
        raise InsufficientDataError(f"no accidents in season {label!r}; p(t|season) undefined")
    return float(grid.p_pt[line][0, 0, 0])


@dataclass(frozen=True)
class WarningGrid:
    """Warning state over (line, km bin, month, hour bin) cells.

    ``x_starts`` maps each line, in grid order, to its km bin starts.  Per
    line, ``p_pt`` is a (n_x, n_months, n_t) float array with NaN in
    flagged cells, ``m_window`` a (n_x, n_t) array, and ``flags`` a bitmask
    array parallel to ``p_pt``.  ``warned`` state is derived on demand:
    a cell is warned at theta exactly when p_pt > theta.
    """

    delta_x: float
    delta_t: float
    thresholds: tuple[float, ...]
    months: tuple[int, ...]
    t_starts: tuple[float, ...]
    x_starts: dict[str, tuple[float, ...]]
    p_pt: dict[str, np.ndarray]
    m_window: dict[str, np.ndarray]
    flags: dict[str, np.ndarray]

    @property
    def lines(self) -> tuple[str, ...]:
        return tuple(self.x_starts)

    def locate(
        self,
        names: Sequence[str],
        codes: np.ndarray,
        km: np.ndarray,
        months: np.ndarray,
        hours: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The grid cell of each query, as int64 arrays (li, xi, mi, ti).

        Query i is on line ``names[codes[i]]``, the form a ``Dataset`` holds
        (``line_names``, ``line_codes``), at ``km[i]``, ``months[i]`` and
        ``hours[i]``.  ``li`` is the line's position in ``x_starts``, ``xi``
        its km bin, ``mi`` the month's position in ``months`` (exact match)
        and ``ti`` the hour bin whose start ``t_starts`` holds, for
        0 <= hour < 24.  Each part is -1 where it misses the grid, and an
        unknown line also gives xi = -1.  A km exactly at a line's final bin
        edge is clamped into the final bin; anything further out misses.
        """
        at = {line: i for i, line in enumerate(self.x_starts)}
        li = np.array([at.get(name, -1) for name in names], dtype=np.int64)[codes]
        # one (first bin, bin count) row per line, plus an empty row that li = -1 picks
        firsts = np.array(
            [round(s[0] / self.delta_x) if s else 0 for s in self.x_starts.values()] + [0],
            dtype=float,
        )
        sizes = np.array([len(s) for s in self.x_starts.values()] + [0], dtype=float)
        first, size = firsts[li], sizes[li]
        km = np.asarray(km, dtype=float)
        # positions stay floats until checked, so a huge km cannot overflow
        pos = _bin_floor(km, self.delta_x) - first
        inside = (pos >= 0) & (pos < size)
        end_edge = (size > 0) & (pos == size) & (km == (first + size) * self.delta_x)
        pos = np.where(end_edge, size - 1, pos)
        xi = np.where(inside | end_edge, pos, -1).astype(np.int64)
        hours = np.asarray(hours, dtype=float)
        in_day = (hours >= 0.0) & (hours < 24.0)
        starts = _bin_floor(hours, self.delta_t) * self.delta_t
        ti = np.where(in_day, _positions(self.t_starts, starts), -1)
        return li, xi, _positions(self.months, np.asarray(months, dtype=float)), ti

    def warned_mask(self, line: str, theta: float) -> np.ndarray:
        """Boolean (n_x, n_months, n_t) array: p_pt strictly above theta (NaN never warns)."""
        with np.errstate(invalid="ignore"):
            return self.p_pt[line] > theta

    def traffic_positive_cells(self) -> int:
        """Number of cells whose window holds at least one expected train."""
        total = 0
        for line in self.lines:
            total += int((self.m_window[line] > 0.0).sum()) * len(self.months)
        return total

    def flagged_cells(self, flag: str) -> int:
        """Number of cells carrying ``flag`` (one of the FLAG_* names)."""
        bit = {name: bit for bit, name in _FLAG_NAMES}[flag]
        return sum(int(np.count_nonzero(self.flags[line] & bit)) for line in self.lines)

    def warned_cells(self, theta: float) -> int:
        return sum(int(self.warned_mask(line, theta).sum()) for line in self.lines)

    def n_cells(self) -> int:
        return sum(arr.size for arr in self.p_pt.values())


def _positions(values: tuple[float, ...], query: np.ndarray) -> np.ndarray:
    """Index of each query in ``values`` by exact equality, as ``tuple.index``; -1 where absent."""
    if not values:
        return np.full(query.shape, -1, dtype=np.int64)
    table = np.asarray(values, dtype=float)
    order = np.argsort(table, kind="stable")
    ordered = table[order]
    at = np.minimum(np.searchsorted(ordered, query), len(values) - 1)
    return np.where(ordered[at] == query, order[at], -1)


def _check_thresholds(thresholds) -> tuple[float, ...]:
    out = tuple(sorted(set(float(th) for th in thresholds)))
    if not out:
        raise ValueError("at least one threshold is required")
    if not all(math.isfinite(th) for th in out):
        raise ValueError(f"thresholds must be finite, got {out!r}")
    if out[0] <= 0:
        raise ValueError(f"thresholds must be strictly positive, got {out[0]!r}")
    return out


def _build_grid(
    model: FittedModel,
    traffic: TrafficTable,
    profile: TrafficProfile,
    thresholds: tuple[float, ...],
    months: tuple[int, ...],
    t_starts: tuple[float, ...],
    x_starts: dict[str, tuple[float, ...]],
) -> WarningGrid:
    delta_t = model.bins.delta_t
    delta_x = model.bins.delta_x
    for boundary in profile.boundaries:
        if (_grid_index(boundary, delta_t) or 0) < 1:
            raise ValueError(
                f"delta_t={delta_t} straddles the traffic piece boundary at {boundary} h"
            )
    if traffic.counts and traffic.delta_x != delta_x:
        raise ValueError(
            f"traffic bin width {traffic.delta_x} does not match model bin width {delta_x}"
        )
    alpha_vec = np.array([alpha(t, delta_t, profile) for t in t_starts])

    # temporal part per (month, t-bin); months with an undefined season table
    # are flagged, months with mu=0 are plain zeros
    n_m, n_t = len(months), len(t_starts)
    temporal = np.zeros((n_m, n_t))
    month_insufficient = np.zeros(n_m, dtype=bool)
    for mi, tau in enumerate(months):
        mu = model.mu_at(tau)
        if mu == 0.0:
            continue
        table = model.p_time.get(model.seasons.season_of(tau))
        if table is None:
            month_insufficient[mi] = True
            continue
        temporal[mi, :] = np.array([table[ts] for ts in t_starts]) * mu

    p_pt: dict[str, np.ndarray] = {}
    m_window: dict[str, np.ndarray] = {}
    flags: dict[str, np.ndarray] = {}
    for line, starts in x_starts.items():
        p_line = model.p_line_at(line)
        segment_table = model.p_segment.get(line, {})
        if p_line == 0.0:
            spatial = np.zeros(len(starts))
        else:
            spatial = np.array([segment_table.get(xs, 0.0) for xs in starts]) * p_line
        m_vec = np.array([traffic.count(line, xs) for xs in starts])
        window = (m_vec[:, None] * alpha_vec[None, :]) * delta_t  # (n_x, n_t)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = (temporal[None, :, :] * spatial[:, None, None]) / window[:, None, :]
        cell_flags = np.zeros(p.shape, dtype=np.uint8)
        no_traffic = np.broadcast_to((window == 0.0)[:, None, :], p.shape)
        insufficient = np.broadcast_to(month_insufficient[None, :, None], p.shape)
        p = np.where(no_traffic | insufficient, np.nan, p)
        with np.errstate(invalid="ignore"):
            exceeds = p > 1.0
        cell_flags |= np.where(no_traffic, _NO_TRAFFIC_BIT, 0).astype(np.uint8)
        cell_flags |= np.where(insufficient, _INSUFFICIENT_BIT, 0).astype(np.uint8)
        cell_flags |= np.where(exceeds, _EXCEEDS_BIT, 0).astype(np.uint8)
        p_pt[line] = p
        m_window[line] = window
        flags[line] = cell_flags

    return WarningGrid(
        delta_x=delta_x,
        delta_t=delta_t,
        thresholds=thresholds,
        months=months,
        t_starts=t_starts,
        x_starts=x_starts,
        p_pt=p_pt,
        m_window=m_window,
        flags=flags,
    )


def bayes_warn_animals(
    model: FittedModel,
    traffic: TrafficTable,
    profile: TrafficProfile,
    line: str,
    tau: int,
    t: float,
    delta_t: float,
    thresholds,
    x0: float,
    xf: float,
) -> WarningGrid:
    """Warning sweep along one line for one month and one time window.

    Walks the km bins from the bin containing ``x0`` through the bin starting
    at ``xf`` and computes p_pt and per-threshold warnings in each.  Cells
    without traffic or with undefined probabilities are flagged, not warned.
    The quantities that do not depend on km (temporal part, line probability)
    are computed once for the whole sweep.

    Args:
        delta_t: window width in hours; must equal the model's time bin so
            the conditional hour distribution applies to the window.
    """
    if xf < x0:
        raise ValueError(f"need x0 <= xf, got {x0}..{xf}")
    if delta_t != model.bins.delta_t:
        raise ValueError(
            f"delta_t={delta_t} does not match the model's time bin {model.bins.delta_t}"
        )
    if tau not in MONTHS:
        raise ValueError(f"month must be 1..12, got {tau!r}")
    checked = _check_thresholds(thresholds)
    delta_x = model.bins.delta_x
    first = bin_index(x0, delta_x)
    last = bin_index(xf, delta_x)
    starts = tuple(i * delta_x for i in range(first, last + 1))
    return _build_grid(
        model,
        traffic,
        profile,
        checked,
        months=(tau,),
        t_starts=(model.bins.t_bin(t),),
        x_starts={line: starts},
    )


def sweep_all(
    model: FittedModel,
    traffic: TrafficTable,
    profile: TrafficProfile,
    thresholds,
) -> WarningGrid:
    """Full warning grid: every model line, all 12 months, all time bins.

    Per line the km range is the dense span of the model's observed bins
    united with the traffic table's bins.  Cell evaluation is vectorized and
    order-independent; the result is identical to evaluating cells one at a
    time.
    """
    checked = _check_thresholds(thresholds)
    delta_x = model.bins.delta_x
    # per model line: the model's bin indices, then the traffic table's, read in one pass
    indices = {line: [round(xs / delta_x) for xs in model.x_bins_for(line)] for line in model.lines}
    if traffic.delta_x == delta_x:
        for line, xs in traffic.counts:
            if line in indices:
                indices[line].append(round(xs / delta_x))
    x_starts = {
        line: tuple(i * delta_x for i in range(min(found), max(found) + 1))
        for line, found in indices.items()
    }
    return _build_grid(
        model,
        traffic,
        profile,
        checked,
        months=MONTHS,
        t_starts=model.bins.t_starts,
        x_starts=x_starts,
    )


def warnings_to_csv(grid: WarningGrid, out: TextIO) -> None:
    """Write a WarningGrid to the text stream ``out`` as CSV, one row per cell.

    Columns: line, x_from, x_to, month, hour_from, hour_to, m_window, p_pt,
    flags (semicolon-joined), then one warned@<theta> 0/1 column per
    threshold.  Cells without a defined p_pt leave that field empty.  Rows
    run over (line, x, month, t) and go out one line at a time.
    """
    # writerow returns what its file's write returns; with write=str, the row text
    row = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    header = "line x_from x_to month hour_from hour_to m_window p_pt flags".split()
    out.write(row(header + [f"warned@{theta!r}" for theta in grid.thresholds]))
    # the ",flags,warned@..." row end per (flag bitmask, thresholds strictly below p_pt)
    k = len(grid.thresholds)
    flag_texts = [";".join(name for bit, name in _FLAG_NAMES if bits & bit) for bits in range(8)]
    tails = np.array(
        [[f",{text}" + ",1" * below + ",0" * (k - below) + "\n" for below in range(k + 1)]
         for text in flag_texts],
        dtype=object,
    )
    hours = [f"{t!r},{t + grid.delta_t!r}" for t in grid.t_starts]
    for line in grid.lines:
        p = grid.p_pt[line]
        below = np.where(np.isnan(p), 0, np.searchsorted(grid.thresholds, p, side="left"))
        name = row([line, ""])[:-1]  # "<line>,", quoted as in a row
        rows: list[str] = []
        for x, p_x, tail_x, m_x in zip(
            grid.x_starts[line],
            p.tolist(),
            tails[grid.flags[line], below].tolist(),
            grid.m_window[line].tolist(),
        ):
            head = f"{name}{x!r},{x + grid.delta_x!r},"
            mids = [f"{hour},{m!r}," for hour, m in zip(hours, m_x)]
            for month, p_xm, tail_xm in zip(grid.months, p_x, tail_x):
                lead = f"{head}{month},"
                rows.extend(
                    f"{lead}{mid}{'' if math.isnan(v) else repr(v)}{tail}"
                    for mid, v, tail in zip(mids, p_xm, tail_xm)
                )
        out.writelines(rows)


def _segment_coordinates(geometry: LineGeometry, km_a: float, km_b: float) -> list[list[float]]:
    """[lon, lat] polyline between two km posts, keeping intermediate vertices."""
    coords: list[list[float]] = []
    lat, lon = km_to_geo(geometry, km_a)
    coords.append([lon, lat])
    for vlat, vlon, vkm in geometry.vertices:
        if km_a < vkm < km_b:
            coords.append([vlon, vlat])
    lat, lon = km_to_geo(geometry, km_b)
    coords.append([lon, lat])
    return coords


def warnings_to_geojson(
    grid: WarningGrid,
    geometries: dict[str, LineGeometry],
    theta: float,
    *,
    month: int | None = None,
    hour: float | None = None,
) -> str:
    """Warned track segments as GeoJSON LineStrings.

    A feature is emitted per (line, km bin) that is warned at ``theta`` in
    any surviving (month, hour) cell after the optional ``month``/``hour``
    filters; the warned months and window starts are listed in its
    properties.  Bins on lines without geometry, or falling entirely outside
    the calibrated km range, are omitted (they remain in the CSV export).

    Raises:
        ValueError: ``theta`` is not finite.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    # the (month, hour bin) cells the filters keep; a filter that matches nothing keeps none
    keep = np.ones((len(grid.months), len(grid.t_starts)), dtype=bool)
    if month is not None:
        keep &= np.array([m == month for m in grid.months], dtype=bool)[:, None]
    if hour is not None:
        start = bin_index(hour, grid.delta_t) * grid.delta_t if 0.0 <= hour < 24.0 else None
        keep &= np.array([t == start for t in grid.t_starts], dtype=bool)[None, :]
    features = []
    for line in grid.lines:
        geometry = geometries.get(line)
        if geometry is None:
            continue
        mask = grid.warned_mask(line, theta) & keep
        p_arr = grid.p_pt[line]
        starts = grid.x_starts[line]
        for xi in np.flatnonzero(mask.any(axis=(1, 2))).tolist():
            x_from = starts[xi]
            x_to = x_from + grid.delta_x
            seg_a = max(x_from, geometry.km_min)
            seg_b = min(x_to, geometry.km_max)
            if seg_a >= seg_b:
                continue
            cells = mask[xi]
            features.append(
                {
                    "type": "Feature",
                    "properties": {
                        "line": line,
                        "x_from": x_from,
                        "x_to": x_to,
                        "theta": theta,
                        "months": [grid.months[mi] for mi in np.flatnonzero(cells.any(axis=1))],
                        "hours": [grid.t_starts[ti] for ti in np.flatnonzero(cells.any(axis=0))],
                        "p_pt_max": float(p_arr[xi][cells].max()),
                    },
                    "geometry": {
                        "type": "LineString",
                        "coordinates": _segment_coordinates(geometry, seg_a, seg_b),
                    },
                }
            )
    return json.dumps({"type": "FeatureCollection", "features": features}, sort_keys=True)


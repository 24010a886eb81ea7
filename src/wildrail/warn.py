"""Per-train collision probabilities and threshold warnings on a space-time grid.

A cell is (line, km bin, month, hour bin), and every grid spans all 12 months
and every hour bin of the model.  Its per-train probability is

    p_pt = [p(t | season(month)) * mu(month)] * [p(x | line) * p(line)] / m_window

where m_window = m(line, x) * alpha(t, delta_t) * delta_t is the expected
number of trains in the window.  A warning is raised in a cell exactly when
p_pt exceeds a threshold (strictly).  Cells without traffic carry no p_pt and
are never warned; they are flagged instead.  p_pt is a ratio of an expected
event count to a train count and is deliberately not clamped: values above 1
get an "exceeds unity" flag so data problems stay visible.

A ``WarningGrid`` holds only the factors of that product: the temporal part
per (month, hour bin), and per line the spatial part per km bin and
m_window per (km bin, hour bin).  Each line's p_pt is computed from them
when read (``WarningGrid.line_cells``), and a cell's flag is read off m_window
(0: ``no_traffic``, where p_pt is NaN) or p_pt (> 1: ``exceeds_unity``).
"""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from types import MappingProxyType, SimpleNamespace
from typing import ClassVar, Mapping, Sequence, TextIO

import numpy as np

from .ingest import LineGeometry, TrafficTable, _bin_floor, _grid_index, bin_index, km_to_geo
from .ingest import _positive, _real, _real_array
from .model import MONTHS, BinConfig, FittedModel, _check_grid_size

__all__ = [
    "FLAG_NO_TRAFFIC",
    "FLAG_EXCEEDS_UNITY",
    "NoTrafficError",
    "TrafficProfile",
    "DEFAULT_PROFILE",
    "WarningGrid",
    "alpha",
    "p_per_train",
    "sweep_all",
    "warnings_to_csv",
    "warnings_to_geojson",
]

FLAG_NO_TRAFFIC = "no_traffic"
FLAG_EXCEEDS_UNITY = "exceeds_unity"


class NoTrafficError(ValueError):
    """A per-train probability was requested for a cell with zero expected trains."""


_Census = namedtuple("_Census", "cells traffic_positive flagged warned warned_bins")

_MONTH_MISS = "month must be 1..12, got {!r}"  # the refusals of p_per_train and warnings_to_geojson
_HOUR_MISS = "hour must be in [0, 24) and not past the last {!r} h bin, got {!r}"


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
            mass = _real(mass, "piece mass")
            if not 0.0 <= mass < math.inf:
                raise ValueError(f"piece mass must be non-negative and finite, got {mass!r}")
            if not windows:
                raise ValueError("every profile group needs at least one window")
            bounds = [
                (_real(start, "window start"), _real(end, "window end")) for start, end in windows
            ]
            hours = 0.0
            for start, end in bounds:
                if not 0.0 <= start < end <= 24.0:
                    raise ValueError(f"window [{start}, {end}) must lie within [0, 24)")
                hours += end - start
            rate = mass / hours
            for start, end in bounds:
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
        TypeError: t or delta_t is not an int or a float.
        ValueError: t outside [0, 24), delta_t not positive and finite, or a
            window reaching past midnight.
    """
    t, delta_t = _real(t, "t"), _positive(delta_t, "delta_t")
    if not 0.0 <= t < 24.0:
        raise ValueError(f"t must be in [0, 24), got {t!r}")
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

    The value is the cell of the grid that ``sweep_all`` computes where
    ``WarningGrid.locate`` puts (tau, t, line, x), read from a grid of that
    one km bin: an expected event count per train, not clamped.

    Raises:
        NoTrafficError: the window has zero expected trains.
        TypeError: a km ``x``, month ``tau`` or hour ``t`` that is not an int or a float.
        ValueError: an hour, km or month that ``locate`` finds off the grid,
            checked in that order, or traffic binned on a different km grid
            than the model.
    """
    x = _real(x, "km")
    # a negative or non-finite km has no bin, and locate misses it on any grid
    k = bin_index(x, model.bins.delta_x) if 0.0 <= x < math.inf else 0
    grid = _build_grid(model, traffic, profile, (), {line: (k, k)})
    _, (xi,), (mi,), (ti,) = grid.locate((line,), [0], [x], [tau], [t])
    if ti < 0:
        raise ValueError(_HOUR_MISS.format(grid.delta_t, t))
    if xi < 0:
        raise ValueError(f"km must be non-negative and finite, got {x!r}")
    if mi < 0:
        raise ValueError(_MONTH_MISS.format(tau))
    if grid.m_window[line][xi, ti] == 0.0:
        raise NoTrafficError(f"no trains on line {line!r} km {x} in window starting {t} h")
    return float(grid.line_cells(line)[xi, mi, ti])


@dataclass(frozen=True)
class WarningGrid:
    """Warning state over (line, km bin, month, hour bin) cells, held as its factors.

    Every grid spans all 12 months (the class constant ``months``, 1..12)
    and all ``n_t`` hour bins of its model; hour bin ti starts at
    ``ti * delta_t``.  ``x_first`` maps each line, in grid order, to the
    index of its first km bin, so km bin xi of a line starts at
    ``(x_first[line] + xi) * delta_x``.  A cell's p_pt is the product of
    three small tables: ``temporal`` is a (12, n_t) month x hour-bin array,
    and per line ``spatial`` is an (n_x,) array and ``m_window`` an
    (n_x, n_t) array of expected trains, so cell (xi, mi, ti) of a line is
    ``temporal[mi, ti] * spatial[xi] / m_window[xi, ti]``.  ``line_cells``
    computes a line's p_pt from them on each call; a cell is warned at theta
    exactly when p_pt > theta, ``no_traffic`` where ``m_window[xi, ti]`` is 0
    and ``exceeds_unity`` where p_pt > 1.  ``census`` counts the cells per
    flag and warned per threshold in one read of each line.  The per-line
    tables are read-only mappings and every stored array is a read-only
    view, so the caller's own arrays keep their flags.

    A grid is refused unless ``sweep_all`` could have built it: ``spatial``
    and ``m_window`` name the lines of ``x_first`` (at least one) in its
    order, ``delta_x`` and ``delta_t`` make a ``BinConfig`` whose
    ``n_t_bins`` is ``n_t``, the ``thresholds`` (possibly none) are positive,
    finite, sorted and distinct, each ``x_first`` is an int >= 0, the shapes
    are as above with n_x >= 1, and every factor is finite and >= 0.  A
    TypeError or ValueError names the field that breaks a rule.
    """

    months: ClassVar[tuple[int, ...]] = MONTHS
    delta_x: float
    delta_t: float
    thresholds: tuple[float, ...]
    n_t: int
    x_first: Mapping[str, int]
    temporal: np.ndarray
    spatial: Mapping[str, np.ndarray]
    m_window: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        lines = list(self.x_first)
        if not lines:
            raise ValueError("x_first must name at least one line")
        for name in ("spatial", "m_window"):
            if list(getattr(self, name)) != lines:
                raise ValueError(
                    f"{name} must name the lines of x_first in its order {lines!r},"
                    f" got {list(getattr(self, name))!r}"
                )
        n_t = BinConfig(self.delta_x, self.delta_t).n_t_bins  # the rules of delta_x and delta_t
        if type(self.n_t) is not int or self.n_t != n_t:
            raise ValueError(
                f"n_t must be the int {n_t}, the hour bins of delta_t={self.delta_t!r}, got {self.n_t!r}"
            )
        thresholds = tuple(_positive(theta, "thresholds") for theta in self.thresholds)
        if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError(f"thresholds must be sorted and distinct, got {self.thresholds!r}")
        for line, first in self.x_first.items():
            if type(first) is not int or first < 0:
                raise ValueError(f"x_first[{line!r}] must be an int >= 0, got {first!r}")
        temporal = _factor(self.temporal, "temporal")
        if temporal.shape != (len(self.months), self.n_t):
            raise ValueError(f"temporal must have shape (12, {self.n_t}), got {temporal.shape}")
        spatial, m_window = {}, {}
        for line in lines:
            spatial[line] = _factor(self.spatial[line], f"spatial[{line!r}]")
            m_window[line] = _factor(self.m_window[line], f"m_window[{line!r}]")
            if spatial[line].ndim != 1 or not spatial[line].size:
                raise ValueError(
                    f"spatial[{line!r}] must have shape (n_x,) with n_x >= 1,"
                    f" got {spatial[line].shape}"
                )
            if m_window[line].shape != (spatial[line].size, self.n_t):
                raise ValueError(
                    f"m_window[{line!r}] must have shape ({spatial[line].size}, {self.n_t}),"
                    f" got {m_window[line].shape}"
                )
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "temporal", temporal)
        object.__setattr__(self, "x_first", MappingProxyType(dict(self.x_first)))
        object.__setattr__(self, "spatial", MappingProxyType(spatial))
        object.__setattr__(self, "m_window", MappingProxyType(m_window))

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied, so rebuild from dict copies
        return type(self), (
            self.delta_x, self.delta_t, self.thresholds, self.n_t, dict(self.x_first),
            self.temporal, dict(self.spatial), dict(self.m_window),
        )

    @property
    def lines(self) -> tuple[str, ...]:
        return tuple(self.x_first)

    def line_cells(self, line: str) -> np.ndarray:
        """The p_pt of every cell of ``line``, computed from the factors on each call.

        A new (n_x, 12, n_t) float array with NaN in cells without traffic.
        It is the caller's own, so a caller that reads a line more than once
        should keep it rather than call again.
        """
        return _p_pt(
            self.temporal[None, :, :], self.spatial[line][:, None, None], self.m_window[line][:, None, :]
        )

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
        ``hours[i]``.  ``li`` is the line's position in ``lines``, ``xi``
        its km bin counted from ``x_first[line]``, ``mi`` = month - 1 for a
        month exactly 1..12 and ``ti`` the hour bin ``bin_index(hour,
        delta_t)`` for 0 <= hour < 24 and ti < n_t.  Each part is -1 where it
        misses the grid, and an unknown line also gives xi = -1.  A km
        exactly at a line's final bin edge is clamped into the final bin;
        anything further out misses.  km, months and hours must be integers
        or floats (not bools); a TypeError names the one that is not.
        """
        at = {line: i for i, line in enumerate(self.x_first)}
        li = np.array([at.get(name, -1) for name in names], dtype=np.int64)[codes]
        # one (first bin, bin count) row per line, plus an empty row that li = -1 picks
        firsts = np.array([*self.x_first.values(), 0], dtype=float)
        sizes = np.array([self.m_window[line].shape[0] for line in self.x_first] + [0], dtype=float)
        first, size = firsts[li], sizes[li]
        km = _real_array(km, "km")
        # positions stay floats until checked, so a huge km cannot overflow
        pos = _bin_floor(km, self.delta_x) - first
        inside = (pos >= 0) & (pos < size)
        end_edge = (size > 0) & (pos == size) & (km == (first + size) * self.delta_x)
        pos = np.where(end_edge, size - 1, pos)
        xi = np.where(inside | end_edge, pos, -1).astype(np.int64)
        return (li, xi, *self._time_cells(months, hours))

    def _time_cells(self, months, hours) -> tuple[np.ndarray, np.ndarray]:
        """The (mi, ti) parts of ``locate`` for months and hours of any shapes."""
        months = _real_array(months, "month")
        in_year = (months >= 1) & (months <= 12) & (months == np.floor(months))
        mi = np.where(in_year, months - 1, -1).astype(np.int64)
        hours = _real_array(hours, "hour")
        t_bins = _bin_floor(hours, self.delta_t)
        # n_t * delta_t can fall a rounding step short of 24 (delta_t = 24/47), so
        # the last stretch of the day is bin n_t, which the grid does not hold
        in_day = (hours >= 0.0) & (hours < 24.0) & (t_bins < self.n_t)
        ti = np.where(in_day, t_bins, -1).astype(np.int64)
        return mi, ti

    def census(self, thetas: Sequence[float] | None = None) -> _Census:
        """The number of ``cells``, of ``traffic_positive`` cells, of cells ``flagged`` per
        FLAG_* name and ``warned`` per theta (the grid's thresholds by default), and per
        line ``warned_bins``, the km bins warned in any hour of each month at the first
        theta; from one ``line_cells`` read per line."""
        thetas = self.thresholds if thetas is None else tuple(thetas)
        traffic_positive = no_traffic = 0
        above = [0] * (len(thetas) + 1)  # cells above each theta, then above 1 (exceeds_unity)
        warned_bins = {}
        for line in self.lines:
            window, p = self.m_window[line], self.line_cells(line)
            traffic_positive += int(np.count_nonzero(window > 0.0)) * len(self.months)
            no_traffic += int(np.count_nonzero(window == 0.0)) * len(self.months)
            for i, theta in enumerate((*thetas, 1.0)):
                warned = _warned(p, theta)
                above[i] += int(np.count_nonzero(warned))
                if i == 0 and thetas:  # the first theta's mask also gives the warned km bins
                    warned_bins[line] = tuple(warned.any(axis=2).sum(axis=0).tolist())
        *warned, exceeds = above
        flagged = {FLAG_NO_TRAFFIC: no_traffic, FLAG_EXCEEDS_UNITY: exceeds}
        return _Census(self.n_cells(), traffic_positive, flagged, tuple(warned), warned_bins)

    def warned_cells(self, theta: float) -> int:
        return self.census((theta,)).warned[0]

    def n_cells(self) -> int:
        return sum(arr.shape[0] for arr in self.m_window.values()) * len(self.months) * self.n_t


def _factor(values, name: str) -> np.ndarray:
    """A read-only view of ``values`` as floats (a float array is not copied and keeps its
    own flags); a TypeError naming ``name`` unless they are ints or floats, and a
    ValueError naming it unless every entry is finite and >= 0."""
    arr = _real_array(values, name)
    if arr.size:
        # min is NaN where any entry is; two reductions, no temporary array
        with np.errstate(invalid="ignore"):
            low, high = float(arr.min()), float(arr.max())
        if not (low >= 0.0 and high < math.inf):
            bad = low if not low >= 0.0 else high
            raise ValueError(f"{name} entries must be finite and >= 0, got {bad!r}")
    view = arr.view()
    view.setflags(write=False)
    return view


def _p_pt(temporal: np.ndarray, spatial: np.ndarray, window: np.ndarray) -> np.ndarray:
    """``temporal * spatial / window`` broadcast, as a new array with NaN where window is 0."""
    p = temporal * spatial
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(p, window, out=p)
    np.copyto(p, np.nan, where=window == 0.0)
    return p


def _warned(p: np.ndarray, theta: float) -> np.ndarray:
    """Where ``p`` is strictly above theta; NaN never is."""
    with np.errstate(invalid="ignore"):
        return p > theta


def _check_thresholds(thresholds) -> tuple[float, ...]:
    out = tuple(sorted({_positive(th, "thresholds") for th in thresholds}))
    if not out:
        raise ValueError("at least one threshold is required")
    return out


def _bins(run: Sequence[float], first: int, lo: int, hi: int) -> np.ndarray:
    """Bins lo..hi of ``run``, whose first bin is ``first``, as floats; 0 outside the run."""
    out = np.zeros(hi - lo + 1)
    start = max(lo, first)
    stop = max(start, min(hi + 1, first + len(run)))  # start when the run misses lo..hi
    out[start - lo : stop - lo] = run[start - first : stop - first]
    return out


def _build_grid(
    model: FittedModel,
    traffic: TrafficTable,
    profile: TrafficProfile,
    thresholds: tuple[float, ...],
    spans: dict[str, tuple[int, int]],
) -> WarningGrid:
    """The factors of the grid over the km bins ``spans`` gives (line -> first,
    last bin index), all 12 months and every hour bin of the model."""
    n_t = model.bins.n_t_bins
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
    alpha_vec = np.array([alpha(i * delta_t, delta_t, profile) for i in range(n_t)])

    # temporal part per (month, t-bin); months with mu=0 are plain zeros, and
    # the season of any other month has accidents, so it has an hour table
    temporal = np.zeros((len(MONTHS), n_t))
    for mi, tau in enumerate(MONTHS):
        mu = model.mu[tau]
        if mu != 0.0:
            temporal[mi, :] = np.array(model.p_time[model.seasons.season_of(tau)]) * mu

    spatial: dict[str, np.ndarray] = {}
    m_window: dict[str, np.ndarray] = {}
    for line, (lo, hi) in spans.items():
        # the model's km bins of the line; a line it lacks has p_line = 0
        segment = _bins(model.p_segment.get(line, ()), model.counts.x_first.get(line, 0), lo, hi)
        spatial[line] = segment * model.p_line.get(line, 0.0)
        m_vec = _bins(traffic.counts.get(line, ()), traffic.x_first.get(line, 0), lo, hi)
        m_window[line] = (m_vec[:, None] * alpha_vec[None, :]) * delta_t  # (n_x, n_t)

    return WarningGrid(
        delta_x=delta_x,
        delta_t=delta_t,
        thresholds=thresholds,
        n_t=n_t,
        x_first={line: lo for line, (lo, _) in spans.items()},
        temporal=temporal,
        spatial=spatial,
        m_window=m_window,
    )


def sweep_all(
    model: FittedModel,
    traffic: TrafficTable,
    profile: TrafficProfile,
    thresholds,
) -> WarningGrid:
    """Full warning grid: every model line, all 12 months, all time bins.

    Per line the km range is the dense span of the model's observed bins
    united with the line's run of traffic bins; a ValueError names the line whose
    span takes the grid past ``model.MAX_GRID_CELLS``.  The grid keeps the
    factors of p_pt; ``WarningGrid.line_cells`` evaluates a line's cells
    vectorized, and each equals the cell evaluated on its own.
    """
    checked = _check_thresholds(thresholds)
    # per model line: its first and last model bin, widened to the traffic run's
    spans = {}
    for line in model.lines:
        lo = model.counts.x_first[line]
        hi = lo + len(model.p_segment[line]) - 1
        run = traffic.counts.get(line, ()) if traffic.delta_x == model.bins.delta_x else ()
        if len(run):
            lo, hi = min(lo, traffic.x_first[line]), max(hi, traffic.x_first[line] + len(run) - 1)
        spans[line] = (lo, hi)
    _check_grid_size(spans, model.bins)
    return _build_grid(model, traffic, profile, checked, spans)


def warnings_to_csv(grid: WarningGrid, out: TextIO) -> None:
    """Write a WarningGrid to the text stream ``out`` as CSV, one row per cell.

    Columns: line, x_from, x_to, month, hour_from, hour_to, m_window, p_pt,
    flags, then one warned@<theta> 0/1 column per threshold.  A cell without
    trains leaves p_pt empty and has the flags text ``no_traffic``, a cell
    with p_pt > 1 has ``exceeds_unity`` and any other cell an empty text.
    Rows run over (line, x, month, t) and go out one line at a time.
    """
    # writerow returns what its file's write returns; with write=str, the row text
    row = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    header = "line x_from x_to month hour_from hour_to m_window p_pt flags".split()
    out.write(row(header + [f"warned@{theta!r}" for theta in grid.thresholds]))
    # the ",flags,warned@..." row end per (flag, thresholds strictly below p_pt)
    k = len(grid.thresholds)
    tails = np.array(
        [[f",{text}" + ",1" * below + ",0" * (k - below) + "\n" for below in range(k + 1)]
         for text in ("", FLAG_NO_TRAFFIC, FLAG_EXCEEDS_UNITY)],
        dtype=object,
    )
    hours = [f"{t!r},{t + grid.delta_t!r}" for t in (np.arange(grid.n_t) * grid.delta_t).tolist()]
    for line in grid.lines:
        p = grid.line_cells(line)
        flags = np.where(np.isnan(p), 1, 2 * _warned(p, 1.0))  # a row of tails
        below = np.where(flags == 1, 0, np.searchsorted(grid.thresholds, p, side="left"))
        name = row([line, ""])[:-1]  # "<line>,", quoted as in a row
        rows: list[str] = []
        for k, (p_x, tail_x, m_x) in enumerate(
            zip(p.tolist(), tails[flags, below].tolist(), grid.m_window[line].tolist()),
            grid.x_first[line],
        ):
            x = k * grid.delta_x
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
    properties.  A filter keeps the month and hour bin that
    ``WarningGrid.locate`` finds for it.
    Bins on lines without geometry, or falling entirely outside the
    calibrated km range, are omitted (they remain in the CSV export).

    Raises:
        TypeError: ``theta``, ``month`` or ``hour`` is neither an integer nor a float.
        ValueError: ``theta`` not positive and finite, or an hour, then a month, on no cell.
    """
    theta = _positive(theta, "theta")
    # the (month, hour bin) cells the filters keep, by the rules of locate
    mi, ti = grid._time_cells(
        grid.months if month is None else [month],
        np.arange(grid.n_t) * grid.delta_t if hour is None else [hour],
    )
    if ti.min() < 0:
        raise ValueError(_HOUR_MISS.format(grid.delta_t, hour))
    if mi.min() < 0:
        raise ValueError(_MONTH_MISS.format(month))
    keep = np.zeros((len(grid.months), grid.n_t), dtype=bool)
    keep[np.ix_(mi, ti)] = True
    features = []
    for line in grid.lines:
        geometry = geometries.get(line)
        if geometry is None:
            continue
        p_arr = grid.line_cells(line)
        mask = _warned(p_arr, theta) & keep
        for xi in np.flatnonzero(mask.any(axis=(1, 2))).tolist():
            x_from = (grid.x_first[line] + xi) * grid.delta_x
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
                        "hours": (np.flatnonzero(cells.any(axis=0)) * grid.delta_t).tolist(),
                        "p_pt_max": float(p_arr[xi][cells].max()),
                    },
                    "geometry": {
                        "type": "LineString",
                        "coordinates": _segment_coordinates(geometry, seg_a, seg_b),
                    },
                }
            )
    return json.dumps({"type": "FeatureCollection", "features": features}, sort_keys=True)


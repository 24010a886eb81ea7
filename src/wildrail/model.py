"""Empirical accident-rate tables: monthly rate and conditional time/place distributions.

The model is a set of count ratios over a fixed binning: a monthly accident
rate mu(tau) = N_tau / (T/12), an hour-of-day distribution conditioned on the
daylight season containing the month, a line distribution p(l) = N_l / N, and
a km-bin distribution along each line p(x, dx | l).  The counts are the source
of truth: a FittedModel derives every table from them when it is built, both
when fitting and when loading a saved model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .ingest import MINUTES_PER_DAY, Dataset, _bin_floor, _grid_index, _positive, _real

__all__ = [
    "SeasonScheme",
    "DEFAULT_SEASONS",
    "BinConfig",
    "ModelCounts",
    "FittedModel",
    "fit",
    "model_to_json",
    "model_from_json",
]

MONTHS = tuple(range(1, 13))
MONTHS_PER_YEAR = 12

MAX_GRID_CELLS = 50_000_000
"""Largest warning grid, in (line, km bin, month, hour bin) cells, that ``fit``
and ``sweep_all`` lay out.  A grid spans each line densely from its lowest to
its highest km bin, so one stray km or a mistyped bin width can ask for
billions of cells; 50M is about ten times a 200-line x 400 km network at
5 km x 1 h, whose every reader computes each cell and whose CSV export
would run to about 3.6 GB."""


@dataclass(frozen=True)
class SeasonScheme:
    """Partition of the twelve months into labeled daylight seasons.

    The default groups months by daylight length: short days (Nov-Feb), long
    days (May-Aug), and the transitional months in between.  Every month must
    belong to exactly one group.
    """

    groups: dict[str, tuple[int, ...]]
    _by_month: dict[int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_month: dict[int, str] = {}
        for label, months in self.groups.items():
            if not label:
                raise ValueError("season label must be non-empty")
            if not months:
                raise ValueError(f"season {label!r} has no months")
            for m in months:
                if type(m) is not int or m not in MONTHS:
                    raise ValueError(f"season {label!r} lists invalid month {m!r}")
                if m in by_month:
                    raise ValueError(f"month {m} appears in both {by_month[m]!r} and {label!r}")
                by_month[m] = label
        if len(by_month) != 12:
            missing = sorted(set(MONTHS) - set(by_month))
            raise ValueError(f"months {missing} are not assigned to any season")
        object.__setattr__(self, "_by_month", by_month)

    def season_of(self, month: int) -> str:
        if _real(month, "month") not in MONTHS:
            raise ValueError(f"month must be 1..12, got {month!r}")
        return self._by_month[month]

    def label_indices(self, months: np.ndarray) -> np.ndarray:
        """Position in ``labels`` of the season of each month; months must be 1..12."""
        table = [0] + [self.labels.index(self._by_month[m]) for m in MONTHS]
        return np.array(table, dtype=np.int64)[months]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.groups)


DEFAULT_SEASONS = SeasonScheme(
    groups={
        "short": (11, 12, 1, 2),
        "long": (5, 6, 7, 8),
        "mid": (3, 4, 9, 10),
    }
)


@dataclass(frozen=True)
class BinConfig:
    """Grid resolution: km bin width and hour-of-day bin width.

    ``delta_t`` must divide 24 so the day splits into whole bins, and be at
    least one minute, the accident log's time resolution.  A sweep
    further needs it to divide every piece boundary of the traffic profile in
    use, so no time bin straddles a piece; the default profile allows 1, 0.5,
    0.25, ... hour bins.  Bin k is [k * delta, (k + 1) * delta), up to hour
    bin ``n_t_bins - 1``; ``WarningGrid.locate`` finds the bins of a point.
    """

    delta_x: float = 5.0
    delta_t: float = 1.0

    def __post_init__(self) -> None:
        _positive(self.delta_x, "delta_x")
        _positive(self.delta_t, "delta_t")
        if not 1 <= (_grid_index(24.0, self.delta_t) or 0) <= MINUTES_PER_DAY:
            raise ValueError(f"delta_t={self.delta_t} must divide 24 hours into bins of at least a minute")

    @property
    def n_t_bins(self) -> int:
        return _grid_index(24.0, self.delta_t)


def _check_grid_size(spans: dict[str, tuple[int, int]], bins: BinConfig) -> None:
    """Raise ValueError if the dense km spans (line -> first, last bin index)
    make a grid of more than MAX_GRID_CELLS cells, naming the line that tips it."""
    cells = 0
    for line, (lo, hi) in spans.items():
        cells += (hi - lo + 1) * len(MONTHS) * bins.n_t_bins
        if cells > MAX_GRID_CELLS:
            raise ValueError(
                f"line {line!r} spans km {lo * bins.delta_x!r}..{(hi + 1) * bins.delta_x!r},"
                f" so the {bins.delta_x!r} km x {bins.delta_t!r} h warning grid would exceed"
                f" {MAX_GRID_CELLS:,} cells"
            )


@dataclass(frozen=True)
class ModelCounts:
    """Raw counts behind a FittedModel; every table entry is a ratio of these.

    ``by_season_tbin[label][i]`` counts hour bin i, for every bin of the day;
    ``by_line_xbin[line][k]`` counts km bin ``x_first[line] + k``, densely
    from the line's first to its last occupied bin.  Each table is kept as a
    read-only mapping over a copy of the one passed in.
    """

    n: int
    total_days: float
    by_month: Mapping[int, int]
    by_season_tbin: Mapping[str, tuple[int, ...]]
    by_line: Mapping[str, int]
    x_first: Mapping[str, int]
    by_line_xbin: Mapping[str, tuple[int, ...]]

    _TABLES = ("by_month", "by_season_tbin", "by_line", "x_first", "by_line_xbin")

    def __post_init__(self) -> None:
        for name in self._TABLES:
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied, so rebuild from dict copies
        return type(self), (self.n, self.total_days, *(dict(getattr(self, t)) for t in self._TABLES))

    @property
    def by_season(self) -> dict[str, int]:
        """Accidents per season label: the sum of its hour bins."""
        return {label: sum(run) for label, run in self.by_season_tbin.items()}


@dataclass(frozen=True)
class FittedModel:
    """Immutable probability tables, derived from ``counts`` when the model is built.

    ``fit``, ``model_from_json`` and ``dataclasses.replace`` all build one
    through ``FittedModel(counts, seasons, bins, smoothing)``, which raises
    ValueError on counts no dataset could give; the tables cannot be passed in.

    ``mu`` maps month -> accidents per average month; ``p_time`` maps season
    label -> one probability per hour bin index (a season with zero
    accidents and zero smoothing is absent; its months have ``mu`` 0);
    ``p_line`` maps line -> probability; ``p_segment`` maps line ->
    probabilities of its observed km bins from ``counts.x_first[line]`` on,
    so ``p_segment[line][k - counts.x_first[line]]`` is km bin k.  The tables
    are read-only mappings, so a model cannot be edited into disagreeing
    with its counts.
    """

    counts: ModelCounts
    seasons: SeasonScheme
    bins: BinConfig
    smoothing: float = 0.0
    mu: Mapping[int, float] = field(init=False)
    p_time: Mapping[str, tuple[float, ...]] = field(init=False)
    p_line: Mapping[str, float] = field(init=False)
    p_segment: Mapping[str, tuple[float, ...]] = field(init=False)

    def __post_init__(self) -> None:
        counts, smoothing = self.counts, _real(self.smoothing, "smoothing")
        T = _positive(counts.total_days, "total_days")
        n, by_month, by_line = counts.n, counts.by_month, counts.by_line
        if not 0 <= smoothing < math.inf:
            raise ValueError(f"smoothing must be non-negative and finite, got {smoothing!r}")
        if set(by_month) != set(MONTHS) or min(by_month.values()) < 0:
            raise ValueError("monthly counts must cover months 1..12 and be non-negative")
        if sum(by_month.values()) != n or sum(by_line.values()) != n or n <= 0:
            raise ValueError(f"monthly and per-line counts must both sum to n={n} > 0")
        if counts.by_season_tbin.keys() != self.seasons.groups.keys():
            raise ValueError("hour-bin counts must cover exactly the season labels")
        p_time: dict[str, tuple[float, ...]] = {}
        for label, months in self.seasons.groups.items():
            run = counts.by_season_tbin[label]
            in_season = sum(by_month[m] for m in months)
            if len(run) != self.bins.n_t_bins or min(run) < 0 or sum(run) != in_season:
                raise ValueError(f"hour-bin counts of season {label!r} disagree with its months")
            denom = in_season + smoothing * len(run)
            if denom > 0:
                p_time[label] = tuple((cnt + smoothing) / denom for cnt in run)
        if not counts.by_line_xbin.keys() == counts.x_first.keys() == by_line.keys():
            raise ValueError("km-bin counts must cover exactly the counted lines")
        p_segment: dict[str, tuple[float, ...]] = {}
        for line, run in counts.by_line_xbin.items():
            if counts.x_first[line] < 0 or not run or run[0] == 0 or run[-1] == 0:
                raise ValueError(
                    f"km-bin counts of line {line!r} must be one run of {self.bins.delta_x} km bins"
                    " with records in both end bins"
                )
            if sum(run) != by_line[line] or min(run) < 0:
                raise ValueError(f"km-bin counts of line {line!r} disagree with its count")
            denom = by_line[line] + smoothing * len(run)
            p_segment[line] = tuple((cnt + smoothing) / denom for cnt in run)
        line_denom = n + smoothing * len(by_line)
        month_denom = T / MONTHS_PER_YEAR
        if month_denom == 0.0 or n / month_denom == math.inf:
            raise ValueError(f"total_days is too small for a finite monthly rate, got {T!r}")
        tables = {
            "mu": {m: by_month[m] / month_denom for m in MONTHS},
            "p_time": p_time,
            "p_line": {line: (cnt + smoothing) / line_denom for line, cnt in by_line.items()},
            "p_segment": p_segment,
        }
        object.__setattr__(self, "smoothing", smoothing)
        for name, table in tables.items():
            object.__setattr__(self, name, MappingProxyType(table))

    def __reduce__(self):
        # the tables are read-only mappings, which cannot be pickled; rebuild them
        return type(self), (self.counts, self.seasons, self.bins, self.smoothing)

    @property
    def lines(self) -> tuple[str, ...]:
        return tuple(sorted(self.p_line))


def fit(
    data: Dataset,
    seasons: SeasonScheme = DEFAULT_SEASONS,
    bins: BinConfig | None = None,
    *,
    total_days: float | None = None,
    smoothing: float = 0.0,
) -> FittedModel:
    """Count the dataset into probability tables.

    Each line's km bins are counted as one dense run from its lowest to its
    highest occupied bin (``ModelCounts.x_first`` and ``by_line_xbin``), once
    the runs are known to fit a grid of MAX_GRID_CELLS cells.

    Args:
        data: accident records with their observation period.
        seasons: month grouping for the hour-of-day distribution.
        bins: km/hour bin widths (defaults to 5 km x 1 h).
        total_days: override for the exposure T in days; defaults to the
            dataset's calendar day count.
        smoothing: optional additive (Laplace) count added to every cell of
            the three probability tables; 0 keeps the raw ratios.

    Raises:
        TypeError: ``total_days`` or ``smoothing`` is not an int or a float.
        ValueError: empty dataset, an exposure not positive or too small for a
            finite monthly rate, negative smoothing, a km without a finite bin
            index, or km spans whose grid would exceed MAX_GRID_CELLS.
    """
    if bins is None:
        bins = BinConfig()
    if data.n == 0:
        raise ValueError("cannot fit a model on an empty dataset")

    labels = seasons.labels
    n_t = bins.n_t_bins
    month_counts = np.bincount(data.months, minlength=MONTHS_PER_YEAR + 1)
    by_month = {m: int(month_counts[m]) for m in MONTHS}
    # one (season, hour bin) key per record
    t_bins = _bin_floor(data.minutes / 60.0, bins.delta_t).astype(np.int64)
    tbin_counts = np.bincount(
        seasons.label_indices(data.months) * n_t + t_bins, minlength=len(labels) * n_t
    ).reshape(len(labels), n_t)
    by_season_tbin = dict(zip(labels, map(tuple, tbin_counts.tolist())))
    line_counts = np.bincount(data.line_codes, minlength=len(data.line_names))
    by_line = dict(zip(data.line_names, line_counts.tolist()))
    # dense per-line bins over the observed index range, zeros in the gaps
    x_bins = _bin_floor(data.kms, bins.delta_x)
    if not np.isfinite(x_bins).all():
        km = float(data.kms[~np.isfinite(x_bins)][0])
        raise ValueError(f"km {km!r} has no finite bin index at bin width {bins.delta_x!r}")
    lo = np.full(len(data.line_names), np.inf)
    np.minimum.at(lo, data.line_codes, x_bins)
    hi = np.full(len(data.line_names), -np.inf)
    np.maximum.at(hi, data.line_codes, x_bins)
    spans = {line: (int(a), int(b)) for line, a, b in zip(data.line_names, lo, hi)}
    _check_grid_size(spans, bins)
    # every line's bins in one bincount, line after line; within a line both bin
    # indices are whole floats less than a span apart, so their difference is exact
    sizes = (hi - lo + 1).astype(np.int64)
    starts = np.cumsum(sizes) - sizes
    flat = np.bincount((x_bins - lo[data.line_codes]).astype(np.int64) + starts[data.line_codes])
    by_line_xbin = {
        line: tuple(flat[start : start + size].tolist())
        for line, start, size in zip(data.line_names, starts.tolist(), sizes.tolist())
    }
    counts = ModelCounts(
        n=data.n,
        total_days=_real(data.total_days if total_days is None else total_days, "total_days"),
        by_month=by_month,
        by_season_tbin=by_season_tbin,
        by_line=by_line,
        x_first={line: lo for line, (lo, _) in spans.items()},
        by_line_xbin=by_line_xbin,
    )
    return FittedModel(counts, seasons, bins, smoothing)


_FORMAT_TAG = "wildrail.model/1"


def _by_start(table: tuple, first: int, delta: float) -> dict[str, float]:
    """A per-bin table keyed by the repr of each bin start, as model JSON holds it."""
    return {repr((first + k) * delta): value for k, value in enumerate(table)}


def model_to_json(model: FittedModel) -> str:
    """Serialize a FittedModel to a single deterministic JSON document, keyed by bin start."""
    dx, dt, x_first = model.bins.delta_x, model.bins.delta_t, model.counts.x_first
    doc = {
        "format": _FORMAT_TAG,
        "bins": {"delta_x": model.bins.delta_x, "delta_t": model.bins.delta_t},
        "seasons": {label: list(months) for label, months in model.seasons.groups.items()},
        "smoothing": model.smoothing,
        "mu": {str(m): v for m, v in model.mu.items()},
        "p_time": {label: _by_start(table, 0, dt) for label, table in model.p_time.items()},
        "p_line": dict(model.p_line),
        "p_segment": {
            line: _by_start(table, x_first[line], dx) for line, table in model.p_segment.items()
        },
        "counts": {
            "n": model.counts.n,
            "total_days": model.counts.total_days,
            "by_month": {str(m): c for m, c in model.counts.by_month.items()},
            "by_season": dict(model.counts.by_season),
            "by_season_tbin": {
                label: _by_start(table, 0, dt)
                for label, table in model.counts.by_season_tbin.items()
            },
            "by_line": dict(model.counts.by_line),
            "by_line_xbin": {
                line: _by_start(table, x_first[line], dx)
                for line, table in model.counts.by_line_xbin.items()
            },
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def model_from_json(text: str) -> FittedModel:
    """Rebuild a FittedModel from model_to_json output.

    Only the bins, seasons, smoothing and counts are read; every table is
    derived from the counts as ``fit`` derives it.  The document must be
    exactly what ``model_to_json`` writes for the rebuilt model, down to the
    JSON type of each value, so a table that disagrees with its counts
    (tampered, NaN, negative), a count written as ``false`` or ``877.0``, or
    a stray key is rejected.

    Raises:
        ValueError: malformed JSON, wrong document format, counts no dataset
            could produce, or tables that disagree with the counts.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid model JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_TAG:
        raise ValueError(f"model document must have format={_FORMAT_TAG!r}")
    try:
        seasons = SeasonScheme(
            groups={label: tuple(months) for label, months in doc["seasons"].items()}
        )
        bins = BinConfig(delta_x=doc["bins"]["delta_x"], delta_t=doc["bins"]["delta_t"])
        model = FittedModel(_read_counts(doc["counts"], bins), seasons, bins, doc["smoothing"])
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed model document: {exc!r}") from None
    canonical = json.loads(model_to_json(model))
    # values compared as JSON text, where false differs from 0 and 877.0 from 877
    got, want = ({k: json.dumps(v, sort_keys=True) for k, v in d.items()} for d in (doc, canonical))
    differing = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    if differing:
        raise ValueError(f"model document disagrees with its counts in {differing}")
    return model


def _bin_run(table: dict, delta: float) -> tuple[int, tuple[int, ...]]:
    """The first bin index and the counts of a document table keyed by bin start;
    (-1, ()) unless the keys are one gap-free run of bins."""
    indexed = {_grid_index(float(start), delta): int(count) for start, count in table.items()}
    if not indexed or None in indexed or max(indexed) - min(indexed) + 1 != len(indexed):
        return -1, ()
    first = min(indexed)
    return first, tuple(indexed[i] for i in range(first, first + len(indexed)))


def _read_counts(raw: dict, bins: BinConfig) -> ModelCounts:
    """The counts of a model document, each bin table read as a run of bins.

    Keys off the grid or with a gap give a km run ``-1, ()`` and an hour run
    ``()``, as does an hour run not starting at bin 0; FittedModel refuses both.
    """
    by_season_tbin = {}
    for label, table in raw["by_season_tbin"].items():
        first, run = _bin_run(table, bins.delta_t)
        by_season_tbin[label] = run if first == 0 else ()
    x_first, by_line_xbin = {}, {}
    for line, table in raw["by_line_xbin"].items():
        x_first[line], by_line_xbin[line] = _bin_run(table, bins.delta_x)
    return ModelCounts(
        n=int(raw["n"]),
        total_days=float(raw["total_days"]),
        by_month={int(m): int(c) for m, c in raw["by_month"].items()},
        by_season_tbin=by_season_tbin,
        by_line={line: int(c) for line, c in raw["by_line"].items()},
        x_first=x_first,
        by_line_xbin=by_line_xbin,
    )

"""Empirical accident-rate tables: monthly rate and conditional time/place distributions.

The model is a set of count ratios over a fixed binning: a monthly accident
rate mu(tau) = N_tau / (T/12), an hour-of-day distribution conditioned on the
daylight season containing the month, a line distribution p(l) = N_l / N, and
a km-bin distribution along each line p(x, dx | l).  The counts are the source
of truth: every table is derived from them by one function, both when fitting
and when loading a saved model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .ingest import Dataset, _bin_floor, bin_index

__all__ = [
    "InsufficientDataError",
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

class InsufficientDataError(ValueError):
    """A requested probability is undefined because its conditioning count is zero."""


def _divides(whole: float, part: float) -> bool:
    ratio = whole / part
    return abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1


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
                if m not in MONTHS:
                    raise ValueError(f"season {label!r} lists invalid month {m!r}")
                if m in by_month:
                    raise ValueError(f"month {m} appears in both {by_month[m]!r} and {label!r}")
                by_month[m] = label
        if len(by_month) != 12:
            missing = sorted(set(MONTHS) - set(by_month))
            raise ValueError(f"months {missing} are not assigned to any season")
        object.__setattr__(self, "_by_month", by_month)

    def season_of(self, month: int) -> str:
        if month not in MONTHS:
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

    ``delta_t`` must divide 24 so the day splits into whole bins.  A sweep
    further needs it to divide every piece boundary of the traffic profile in
    use, so no time bin straddles a piece; the default profile allows 1, 0.5,
    0.25, ... hour bins.
    """

    delta_x: float = 5.0
    delta_t: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta_x) and self.delta_x > 0):
            raise ValueError(f"delta_x must be positive, got {self.delta_x!r}")
        if not (math.isfinite(self.delta_t) and self.delta_t > 0):
            raise ValueError(f"delta_t must be positive, got {self.delta_t!r}")
        if not _divides(24.0, self.delta_t):
            raise ValueError(f"delta_t={self.delta_t} must divide 24 hours")

    @property
    def n_t_bins(self) -> int:
        return round(24.0 / self.delta_t)

    @property
    def t_starts(self) -> tuple[float, ...]:
        return tuple(i * self.delta_t for i in range(self.n_t_bins))

    def t_bin(self, hour: float) -> float:
        """Start of the time bin containing the fractional hour ``hour``."""
        if not 0.0 <= hour < 24.0:
            raise ValueError(f"hour must be in [0, 24), got {hour!r}")
        return bin_index(hour, self.delta_t) * self.delta_t

    def x_bin(self, km: float) -> float:
        """Start of the km bin containing ``km``."""
        if km < 0:
            raise ValueError(f"km must be non-negative, got {km!r}")
        return bin_index(km, self.delta_x) * self.delta_x


@dataclass(frozen=True)
class ModelCounts:
    """Raw counts behind a FittedModel; every table entry is a ratio of these."""

    n: int
    total_days: float
    by_month: dict[int, int]
    by_season: dict[str, int]
    by_season_tbin: dict[str, dict[float, int]]
    by_line: dict[str, int]
    by_line_xbin: dict[str, dict[float, int]]


@dataclass(frozen=True)
class FittedModel:
    """Immutable probability tables fitted from a Dataset.

    ``mu`` maps month -> accidents per average month; ``p_time`` maps season
    label -> time-bin start -> probability (a season with zero accidents and
    zero smoothing is absent, and lookups for it raise
    InsufficientDataError); ``p_line`` maps line -> probability; ``p_segment``
    maps line -> km-bin start -> probability over the line's observed bin
    range.  Treat all tables as read-only.
    """

    mu: dict[int, float]
    p_time: dict[str, dict[float, float]]
    p_line: dict[str, float]
    p_segment: dict[str, dict[float, float]]
    seasons: SeasonScheme
    bins: BinConfig
    counts: ModelCounts
    smoothing: float = 0.0

    @property
    def lines(self) -> tuple[str, ...]:
        return tuple(sorted(self.p_line))

    def x_bins_for(self, line: str) -> tuple[float, ...]:
        return tuple(sorted(self.p_segment.get(line, {})))

    def mu_at(self, tau: int) -> float:
        if tau not in MONTHS:
            raise ValueError(f"month must be 1..12, got {tau!r}")
        return self.mu[tau]

    def p_time_at(self, tau: int, t: float) -> float:
        """p(t, t+delta_t | season containing tau)."""
        label = self.seasons.season_of(tau)
        table = self.p_time.get(label)
        if table is None:
            raise InsufficientDataError(f"no accidents in season {label!r}; p(t|season) undefined")
        return table[self.bins.t_bin(t)]

    def p_line_at(self, line: str) -> float:
        return self.p_line.get(line, 0.0)

    def p_segment_at(self, line: str, x: float) -> float:
        """p(x, x+delta_x | line); 0 for bins outside the observed range."""
        table = self.p_segment.get(line)
        if table is None:
            raise InsufficientDataError(f"no accidents on line {line!r}; p(x|line) undefined")
        return table.get(self.bins.x_bin(x), 0.0)


def fit(
    data: Dataset,
    seasons: SeasonScheme = DEFAULT_SEASONS,
    bins: BinConfig | None = None,
    *,
    total_days: float | None = None,
    smoothing: float = 0.0,
) -> FittedModel:
    """Count the dataset into probability tables.

    Args:
        data: accident records with their observation period.
        seasons: month grouping for the hour-of-day distribution.
        bins: km/hour bin widths (defaults to 5 km x 1 h).
        total_days: override for the exposure T in days; defaults to the
            dataset's calendar day count.
        smoothing: optional additive (Laplace) count added to every cell of
            the three probability tables; 0 keeps the raw ratios.

    Raises:
        ValueError: empty dataset, non-positive exposure, negative smoothing.
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
    by_season_tbin = {
        label: dict(zip(bins.t_starts, row)) for label, row in zip(labels, tbin_counts.tolist())
    }
    line_counts = np.bincount(data.line_codes, minlength=len(data.line_names))
    by_line = dict(zip(data.line_names, line_counts.tolist()))
    # dense per-line bins over the observed index range, zeros in the gaps
    by_line_xbin: dict[str, dict[float, int]] = {}
    for line, indices in data.km_bin_counts(bins.delta_x).items():
        lo, hi = min(indices), max(indices)
        by_line_xbin[line] = {
            i * bins.delta_x: indices.get(i, 0) for i in range(lo, hi + 1)
        }
    counts = {
        "n": data.n,
        "total_days": float(data.total_days if total_days is None else total_days),
        "by_month": by_month,
        "by_season_tbin": by_season_tbin,
        "by_line": by_line,
        "by_line_xbin": by_line_xbin,
    }
    return _model_from_counts(counts, seasons, bins, smoothing)


def _model_from_counts(
    counts: dict, seasons: SeasonScheme, bins: BinConfig, smoothing: float
) -> FittedModel:
    """Derive the per-season totals and every probability table from raw counts.

    ``counts`` holds the ModelCounts fields except ``by_season``.  This is
    the only place the tables are computed, for fitted and loaded models alike.
    """
    T = counts["total_days"]
    if not 0 < T < math.inf:
        raise ValueError(f"total_days must be positive and finite, got {T!r}")
    if not 0 <= smoothing < math.inf:
        raise ValueError(f"smoothing must be non-negative and finite, got {smoothing!r}")
    by_month = counts["by_month"]
    by_season = {
        label: sum(by_month[m] for m in months) for label, months in seasons.groups.items()
    }
    month_denom = T / MONTHS_PER_YEAR
    mu = {m: by_month[m] / month_denom for m in MONTHS}
    p_time: dict[str, dict[float, float]] = {}
    for label, table in counts["by_season_tbin"].items():
        denom = by_season[label] + smoothing * len(table)
        if denom > 0:
            p_time[label] = {ts: (cnt + smoothing) / denom for ts, cnt in table.items()}
    by_line = counts["by_line"]
    line_denom = counts["n"] + smoothing * len(by_line)
    p_line = {line: (cnt + smoothing) / line_denom for line, cnt in by_line.items()}
    p_segment: dict[str, dict[float, float]] = {}
    for line, table in counts["by_line_xbin"].items():
        denom = by_line[line] + smoothing * len(table)
        p_segment[line] = {xs: (cnt + smoothing) / denom for xs, cnt in table.items()}
    return FittedModel(
        mu=mu,
        p_time=p_time,
        p_line=p_line,
        p_segment=p_segment,
        seasons=seasons,
        bins=bins,
        counts=ModelCounts(by_season=by_season, **counts),
        smoothing=smoothing,
    )


_FORMAT_TAG = "wildrail.model/1"


def model_to_json(model: FittedModel) -> str:
    """Serialize a FittedModel to a single deterministic JSON document."""
    doc = {
        "format": _FORMAT_TAG,
        "bins": {"delta_x": model.bins.delta_x, "delta_t": model.bins.delta_t},
        "seasons": {label: list(months) for label, months in model.seasons.groups.items()},
        "smoothing": model.smoothing,
        "mu": {str(m): v for m, v in model.mu.items()},
        "p_time": {
            label: {repr(ts): p for ts, p in table.items()}
            for label, table in model.p_time.items()
        },
        "p_line": dict(model.p_line),
        "p_segment": {
            line: {repr(xs): p for xs, p in table.items()}
            for line, table in model.p_segment.items()
        },
        "counts": {
            "n": model.counts.n,
            "total_days": model.counts.total_days,
            "by_month": {str(m): c for m, c in model.counts.by_month.items()},
            "by_season": dict(model.counts.by_season),
            "by_season_tbin": {
                label: {repr(ts): c for ts, c in table.items()}
                for label, table in model.counts.by_season_tbin.items()
            },
            "by_line": dict(model.counts.by_line),
            "by_line_xbin": {
                line: {repr(xs): c for xs, c in table.items()}
                for line, table in model.counts.by_line_xbin.items()
            },
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def model_from_json(text: str) -> FittedModel:
    """Rebuild a FittedModel from model_to_json output.

    Only the bins, seasons, smoothing and counts are read; every table is
    derived from the counts as ``fit`` derives it.  The document must be
    exactly what ``model_to_json`` writes for the rebuilt model, so a table
    that disagrees with its counts (tampered, NaN, negative) or a stray key
    is rejected.

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
        smoothing = float(doc["smoothing"])
        raw = doc["counts"]
        counts = {
            "n": int(raw["n"]),
            "total_days": float(raw["total_days"]),
            "by_month": {int(m): int(c) for m, c in raw["by_month"].items()},
            "by_season_tbin": {
                label: {float(ts): int(c) for ts, c in table.items()}
                for label, table in raw["by_season_tbin"].items()
            },
            "by_line": {line: int(c) for line, c in raw["by_line"].items()},
            "by_line_xbin": {
                line: {float(xs): int(c) for xs, c in table.items()}
                for line, table in raw["by_line_xbin"].items()
            },
        }
        _check_counts(counts, seasons, bins)
        model = _model_from_counts(counts, seasons, bins, smoothing)
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed model document: {exc!r}") from None
    canonical = json.loads(model_to_json(model))
    differing = sorted(k for k in doc.keys() | canonical.keys() if doc.get(k) != canonical.get(k))
    if differing:
        raise ValueError(f"model document disagrees with its counts in {differing}")
    return model


def _check_counts(counts: dict, seasons: SeasonScheme, bins: BinConfig) -> None:
    """Reject counts that no dataset could produce; fit's own always pass."""
    by_month, by_line, by_line_xbin = counts["by_month"], counts["by_line"], counts["by_line_xbin"]
    n = counts["n"]
    if set(by_month) != set(MONTHS) or min(by_month.values()) < 0:
        raise ValueError("monthly counts must cover months 1..12 and be non-negative")
    if sum(by_month.values()) != n or sum(by_line.values()) != n or n <= 0:
        raise ValueError(f"monthly and per-line counts must both sum to n={n} > 0")
    for label, months in seasons.groups.items():
        table = counts["by_season_tbin"][label]
        if (
            tuple(sorted(table)) != bins.t_starts
            or min(table.values()) < 0
            or sum(table.values()) != sum(by_month[m] for m in months)
        ):
            raise ValueError(f"hour-bin counts of season {label!r} disagree with its months")
    if set(by_line_xbin) != set(by_line):
        raise ValueError("km-bin counts must cover exactly the counted lines")
    for line, table in by_line_xbin.items():
        if by_line[line] <= 0 or sum(table.values()) != by_line[line] or min(table.values()) < 0:
            raise ValueError(f"km-bin counts of line {line!r} disagree with its count")

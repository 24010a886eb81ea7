"""Command-line workflows: fit, warn, map, profile, corr, eval.

Every command is deterministic for identical inputs and configuration; file
outputs are byte-stable across reruns.  Options may also be supplied through
a single JSON config file (``--config``); explicit flags win over the file.

Exit codes: 0 success, 1 computation error (undefined probability, no
traffic, undefined correlation), 2 input error (missing or malformed files,
bad flags).
"""

from __future__ import annotations

import argparse
import calendar
import datetime as dt
import json
import os
import sys
from typing import Any

from .analysis import (
    UndefinedCorrelationError,
    correlation_to_json,
    eval_report_to_json,
    evaluate_holdout,
    hex_bin,
    hex_grid_to_geojson,
    hourly_profile,
    species_profile,
    speed_correlation,
)
from .ingest import (
    Dataset,
    ParseError,
    count_days,
    km_to_geo,
    parse_accidents,
    parse_geometries,
    parse_speed_profiles,
    parse_traffic,
    parse_traffic_runs,
)
from .model import (
    DEFAULT_SEASONS,
    BinConfig,
    InsufficientDataError,
    SeasonScheme,
    fit,
    model_from_json,
    model_to_json,
)
from .warn import (
    DEFAULT_PROFILE,
    FLAG_EXCEEDS_UNITY,
    NoTrafficError,
    sweep_all,
    warnings_to_csv,
    warnings_to_geojson,
)

__all__ = ["main", "run", "build_parser", "DEFAULT_THRESHOLDS"]

DEFAULT_THRESHOLDS = (0.0005, 0.001, 0.002)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"config {path}: top level must be an object")
    return doc


def _get(args: argparse.Namespace, config: dict[str, Any], key: str, default: Any = None) -> Any:
    """Effective option value: explicit flag, then config file, then default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _get_number(
    args: argparse.Namespace, config: dict[str, Any], key: str, default: Any = None, kind=float
) -> Any:
    """Effective numeric option value; a config value of the wrong type is an input error."""
    value = _get(args, config, key, default)
    if value is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"--{key.replace('_', '-')} must be a number, got {value!r}") from None


def _require(args: argparse.Namespace, config: dict[str, Any], key: str) -> Any:
    value = _get(args, config, key)
    if value is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return value


def parse_seasons_spec(spec: str) -> SeasonScheme:
    """Parse ``label=m1,m2,...;label2=...`` into a SeasonScheme."""
    groups: dict[str, tuple[int, ...]] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        label, _, months_text = part.partition("=")
        label = label.strip()
        if not months_text:
            raise ValueError(f"season group {part!r} must look like label=1,2,3")
        try:
            months = tuple(int(m) for m in months_text.split(","))
        except ValueError:
            raise ValueError(f"season group {part!r} has a non-integer month") from None
        if label in groups:
            raise ValueError(f"season label {label!r} given twice")
        groups[label] = months
    if not groups:
        raise ValueError("empty season specification")
    return SeasonScheme(groups=groups)


def parse_thresholds_spec(spec: Any) -> tuple[float, ...]:
    """Comma-separated (or config list of) thresholds; must ascend strictly."""
    if isinstance(spec, str):
        parts = [p for p in (s.strip() for s in spec.split(",")) if p]
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            raise ValueError(f"thresholds must be numbers, got {spec!r}") from None
    else:
        try:
            values = tuple(float(v) for v in spec)
        except (TypeError, ValueError):
            raise ValueError(f"thresholds must be a list of numbers, got {spec!r}") from None
    if not values:
        raise ValueError("at least one threshold is required")
    for a, b in zip(values, values[1:]):
        if b <= a:
            raise ValueError("thresholds must be sorted strictly ascending")
    if values[0] <= 0:
        raise ValueError("thresholds must be strictly positive")
    return values


def _as_date(value: Any, name: str) -> dt.date:
    if isinstance(value, dt.date):
        return value
    try:
        return dt.date.fromisoformat(str(value))
    except ValueError:
        raise ValueError(f"{name} must be YYYY-MM-DD, got {value!r}") from None


def _resolve_seasons(args: argparse.Namespace, config: dict[str, Any]) -> SeasonScheme:
    spec = _get(args, config, "seasons")
    return parse_seasons_spec(spec) if spec is not None else DEFAULT_SEASONS


def _resolve_bins(args: argparse.Namespace, config: dict[str, Any]) -> BinConfig:
    return BinConfig(
        delta_x=_get_number(args, config, "delta_x", 5.0),
        delta_t=_get_number(args, config, "delta_t", 1.0),
    )


def _resolve_thresholds(args: argparse.Namespace, config: dict[str, Any]) -> tuple[float, ...]:
    spec = _get(args, config, "thresholds")
    return parse_thresholds_spec(spec) if spec is not None else DEFAULT_THRESHOLDS


def _load_dataset(path: str, args: argparse.Namespace, config: dict[str, Any]) -> Dataset:
    start = _get(args, config, "period_start")
    end = _get(args, config, "period_end")
    if (start is None) != (end is None):
        raise ValueError("provide both --period-start and --period-end, or neither")
    text = _read_text(path)
    try:
        if start is not None:
            return parse_accidents(
                text, (_as_date(start, "period-start"), _as_date(end, "period-end"))
            )
        data = parse_accidents(text, (dt.date.min, dt.date.max))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    # no explicit period: use the span of the data itself
    dates = [rec.date for rec in data.records]
    return Dataset(records=data.records, period_start=min(dates), period_end=max(dates))


def _load_traffic(args: argparse.Namespace, config: dict[str, Any], delta_x: float):
    table_path = _get(args, config, "traffic")
    runs_path = _get(args, config, "traffic_runs")
    if (table_path is None) == (runs_path is None):
        raise ValueError("provide exactly one of --traffic or --traffic-runs")
    try:
        if table_path is not None:
            return parse_traffic(_read_text(table_path), delta_x)
        return parse_traffic_runs(_read_text(runs_path), delta_x)
    except ParseError as exc:
        raise ParseError(f"{table_path or runs_path}: {exc}") from None


def _out_path(args: argparse.Namespace, config: dict[str, Any], filename: str) -> str:
    out_dir = str(_get(args, config, "out_dir", "."))
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, filename)


def cmd_fit(args: argparse.Namespace, config: dict[str, Any]) -> int:
    accidents_path = _require(args, config, "accidents")
    data = _load_dataset(accidents_path, args, config)
    days_per_year = str(_get(args, config, "days_per_year", "calendar"))
    total_days = count_days(data.period_start, data.period_end, days_per_year)
    seasons = _resolve_seasons(args, config)
    bins = _resolve_bins(args, config)
    smoothing = _get_number(args, config, "smoothing", 0.0)
    model = fit(data, seasons, bins, total_days=total_days, smoothing=smoothing)
    out = _get(args, config, "out") or _out_path(args, config, "model.json")
    _write_text(out, model_to_json(model))
    print(f"records: {data.n}")
    print(f"period: {data.period_start}..{data.period_end} (T={total_days} days)")
    print("monthly accident rate:")
    for month in range(1, 13):
        print(
            f"  {calendar.month_abbr[month]}: mu={model.mu[month]:.2f}"
            f" (n={model.counts.by_month[month]})"
        )
    print(f"model written to {out}")
    return 0


def _print_warn_summary(grid) -> None:
    theta = grid.thresholds[0]
    print(f"cells: {grid.n_cells()} ({grid.traffic_positive_cells()} with traffic)")
    for theta_i in grid.thresholds:
        print(f"warned cells at theta={theta_i!r}: {grid.warned_cells(theta_i)}")
    print(f"warned km-bins per line and month at theta={theta!r}:")
    for line in grid.lines:
        mask = grid.warned_mask(line, theta)
        by_month = mask.any(axis=2).sum(axis=0)  # per month: bins warned in any hour
        if not by_month.any():
            continue
        cells = " ".join(
            f"{calendar.month_abbr[grid.months[mi]]}={int(by_month[mi])}"
            for mi in range(len(grid.months))
            if by_month[mi]
        )
        print(f"  line {line}: {cells}")


def cmd_warn(args: argparse.Namespace, config: dict[str, Any]) -> int:
    month = _get_number(args, config, "month", kind=int)
    hour = _get_number(args, config, "hour")
    if month is not None and not 1 <= month <= 12:
        raise ValueError(f"--month must be 1..12, got {month!r}")
    if hour is not None and not 0.0 <= hour < 24.0:
        raise ValueError(f"--hour must be in [0, 24), got {hour!r}")
    model = model_from_json(_read_text(_require(args, config, "model")))
    traffic = _load_traffic(args, config, model.bins.delta_x)
    thresholds = _resolve_thresholds(args, config)
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, thresholds)
    exceeds = grid.flagged_cells(FLAG_EXCEEDS_UNITY)
    if exceeds:
        print(
            f"warning: {exceeds} cells have p_pt > 1 ({FLAG_EXCEEDS_UNITY});"
            " check the traffic table",
            file=sys.stderr,
        )
    csv_path = _out_path(args, config, "warnings.csv")
    _write_text(csv_path, warnings_to_csv(grid))
    print(f"warning grid written to {csv_path}")
    geometry_path = _get(args, config, "geometry")
    if geometry_path is not None:
        geometries = parse_geometries(_read_text(geometry_path))
        theta_map = _get_number(args, config, "theta_map", grid.thresholds[0])
        geojson = warnings_to_geojson(grid, geometries, theta_map, month=month, hour=hour)
        geo_path = _out_path(args, config, "warnings.geojson")
        _write_text(geo_path, geojson)
        print(f"warned segments written to {geo_path}")
    _print_warn_summary(grid)
    return 0


def cmd_map(args: argparse.Namespace, config: dict[str, Any]) -> int:
    data = _load_dataset(_require(args, config, "accidents"), args, config)
    geometries = parse_geometries(_read_text(_require(args, config, "geometry")))
    spacing = _get_number(args, config, "spacing", 2.5)
    points: list[tuple[float, float]] = []
    skipped = 0
    for rec in data.records:
        geometry = geometries.get(rec.line)
        if geometry is None or not geometry.km_min <= rec.km <= geometry.km_max:
            skipped += 1
            continue
        points.append(km_to_geo(geometry, rec.km))
    grid = hex_bin(points, spacing)
    out = _out_path(args, config, "hexmap.geojson")
    _write_text(out, hex_grid_to_geojson(grid))
    print(f"geocoded {len(points)} of {data.n} accidents ({skipped} without geometry)")
    print(f"occupied hex cells: {len(grid.cells)}")
    if grid.cells:
        print(f"densest cell count: {max(grid.cells.values())}")
    print(f"hex map written to {out}")
    return 0


def cmd_profile(args: argparse.Namespace, config: dict[str, Any]) -> int:
    data = _load_dataset(_require(args, config, "accidents"), args, config)
    seasons = _resolve_seasons(args, config)
    species = species_profile(data)
    hourly = hourly_profile(data, seasons)
    species_lines = ["species,count"] + [f"{name},{count}" for name, count in species.items()]
    _write_text(_out_path(args, config, "species.csv"), "\n".join(species_lines) + "\n")
    hourly_lines = ["season,hour,count"] + [
        f"{label},{hour},{hourly[(label, hour)]}"
        for label in seasons.labels
        for hour in range(24)
    ]
    _write_text(_out_path(args, config, "hourly.csv"), "\n".join(hourly_lines) + "\n")
    print(f"records: {data.n}")
    print("most frequent species:")
    for name, count in list(species.items())[:5]:
        print(f"  {name}: {count}")
    for label in seasons.labels:
        total = sum(hourly[(label, hour)] for hour in range(24))
        peak = max(range(24), key=lambda h: (hourly[(label, h)], -h))
        print(f"season {label}: {total} accidents, busiest hour {peak:02d}:00")
    return 0


def cmd_corr(args: argparse.Namespace, config: dict[str, Any]) -> int:
    data = _load_dataset(_require(args, config, "accidents"), args, config)
    delta_x = _get_number(args, config, "delta_x", 5.0)
    traffic = _load_traffic(args, config, delta_x)
    speeds = parse_speed_profiles(_read_text(_require(args, config, "speeds")))
    report = speed_correlation(data, traffic, speeds, delta_x)
    out = _out_path(args, config, "correlation.json")
    _write_text(out, correlation_to_json(report))
    print(f"bins: {report.n}")
    print(f"pearson: {report.pearson:.4f}")
    print(f"spearman: {report.spearman:.4f}")
    print(f"correlation report written to {out}")
    return 0


def cmd_eval(args: argparse.Namespace, config: dict[str, Any]) -> int:
    model = model_from_json(_read_text(_require(args, config, "model")))
    traffic = _load_traffic(args, config, model.bins.delta_x)
    test_path = _require(args, config, "test")
    test = _load_dataset(test_path, args, config)
    thresholds = _resolve_thresholds(args, config)
    theta = _get_number(args, config, "theta", thresholds[0])
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, thresholds)
    include_adjacent = _get(args, config, "adjacent", False)
    if not isinstance(include_adjacent, bool):
        raise ValueError(f"--adjacent must be true or false, got {include_adjacent!r}")
    report = evaluate_holdout(grid, test, theta, include_adjacent=include_adjacent)
    out = _out_path(args, config, "eval.json")
    _write_text(out, eval_report_to_json(report))
    print(f"test accidents: {report.n_test} ({report.n_unmapped} unmapped)")
    print(f"theta={report.theta!r}: hit_rate={report.hit_rate:.4f}"
          f" warned_fraction={report.warned_fraction:.4f}")
    print("curve (theta, warned_fraction, hit_rate):")
    for th, wf, hr in report.curve:
        print(f"  {th!r}: {wf:.4f} {hr:.4f}")
    print(f"evaluation report written to {out}")
    return 0


def _add_common_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; explicit flags win")
    sp.add_argument("--out-dir", dest="out_dir", help="directory for output files (default .)")
    sp.add_argument("--delta-x", dest="delta_x", type=float, help="km bin width (default 5)")
    sp.add_argument("--delta-t", dest="delta_t", type=float, help="hour bin width (default 1)")
    sp.add_argument(
        "--thresholds",
        help="comma-separated warning thresholds, ascending (default 0.0005,0.001,0.002)",
    )
    sp.add_argument(
        "--days-per-year",
        dest="days_per_year",
        choices=("calendar", "365"),
        help="exposure day counting: real calendar or 365-day years (skip Feb 29)",
    )
    sp.add_argument(
        "--seasons",
        help="month grouping, e.g. 'short=11,12,1,2;long=5,6,7,8;mid=3,4,9,10'",
    )
    sp.add_argument("--period-start", dest="period_start", help="observation start, YYYY-MM-DD")
    sp.add_argument("--period-end", dest="period_end", help="observation end, YYYY-MM-DD")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wildrail",
        description="Wildlife-train collision risk: fit rate tables, raise per-train warnings, analyze hotspots.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_fit = sub.add_parser("fit", help="fit probability tables from accident records")
    p_fit.add_argument("--accidents", help="accident CSV (date,time,line,km,species)")
    p_fit.add_argument("--smoothing", type=float, help="additive smoothing count (default 0)")
    p_fit.add_argument("--out", help="model JSON output path (default <out-dir>/model.json)")
    _add_common_options(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_warn = sub.add_parser("warn", help="compute the warning grid from a model and traffic")
    p_warn.add_argument("--model", help="fitted model JSON")
    p_warn.add_argument("--traffic", help="traffic CSV (line,km_from,count)")
    p_warn.add_argument(
        "--traffic-runs", dest="traffic_runs", help="per-train run CSV (line,km_from,km_to,departure)"
    )
    p_warn.add_argument("--geometry", help="line geometry GeoJSON for the map export")
    p_warn.add_argument(
        "--theta-map", dest="theta_map", type=float,
        help="threshold for the GeoJSON export (default: smallest threshold)",
    )
    p_warn.add_argument("--month", type=int, help="restrict the GeoJSON export to one month")
    p_warn.add_argument("--hour", type=float, help="restrict the GeoJSON export to one hour bin")
    _add_common_options(p_warn)
    p_warn.set_defaults(func=cmd_warn)

    p_map = sub.add_parser("map", help="hex-bin accident locations into a hotspot map")
    p_map.add_argument("--accidents", help="accident CSV")
    p_map.add_argument("--geometry", help="line geometry GeoJSON")
    p_map.add_argument("--spacing", type=float, help="hex center spacing in km (default 2.5)")
    _add_common_options(p_map)
    p_map.set_defaults(func=cmd_map)

    p_profile = sub.add_parser("profile", help="species and hour-of-day accident profiles")
    p_profile.add_argument("--accidents", help="accident CSV")
    _add_common_options(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_corr = sub.add_parser("corr", help="correlate track speed with accidents per train")
    p_corr.add_argument("--accidents", help="accident CSV")
    p_corr.add_argument("--traffic", help="traffic CSV")
    p_corr.add_argument(
        "--traffic-runs", dest="traffic_runs", help="per-train run CSV alternative to --traffic"
    )
    p_corr.add_argument("--speeds", help="speed profile CSV (line,km_from,km_to,vmax)")
    _add_common_options(p_corr)
    p_corr.set_defaults(func=cmd_corr)

    p_eval = sub.add_parser("eval", help="evaluate a warning grid against held-out accidents")
    p_eval.add_argument("--model", help="fitted model JSON")
    p_eval.add_argument("--traffic", help="traffic CSV")
    p_eval.add_argument(
        "--traffic-runs", dest="traffic_runs", help="per-train run CSV alternative to --traffic"
    )
    p_eval.add_argument("--test", help="held-out accident CSV")
    p_eval.add_argument("--theta", type=float, help="threshold to report (default: smallest)")
    p_eval.add_argument(
        "--adjacent",
        action="store_const",
        const=True,
        help="count warnings in neighbouring km bins as hits",
    )
    _add_common_options(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config)
    except (InsufficientDataError, NoTrafficError, UndefinedCorrelationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

"""Command-line workflows: fit, warn, map, profile, corr, eval.

Every command is deterministic for identical inputs and configuration; file
outputs are byte-stable across reruns.

``OPTIONS`` declares each option once; ``COMMANDS`` lists the options each
command reads (``wildrail COMMAND --help`` shows them), and a command takes no
other flag.  ``--config`` names a JSON object keyed by option name with ``_``
for ``-``.  An option comes from its flag, else the config file, else its
default; flag text and config value pass through the same converter, so a key
that is present must have the option's type (a path is a string, a number is
never ``true``/``false``, ``null`` is rejected).  Keys a command does not read
are ignored, so one config file can serve every command.

Exit codes: 0 success, 1 undefined correlation, 2 input error (missing or
malformed files, bad flags or config values), with one ``error:`` line on
stderr.  An error in an input file names the file first: ``error: <path>:
...``.
"""

from __future__ import annotations

import argparse
import calendar
import csv
import dataclasses
import datetime as dt
import json
import os
import sys
from typing import Any, Callable, TextIO

from .analysis import (
    UndefinedCorrelationError,
    evaluate_holdout,
    hex_bin,
    hex_grid_to_geojson,
    hourly_profile,
    report_to_json,
    species_profile,
    speed_correlation,
)
from .ingest import (
    Dataset,
    _iso_date,
    _positive,
    _real,
    count_days,
    geocode,
    km_to_geo,  # not called here: perfbench/clishim.py traces it as cli.km_to_geo
    parse_accidents,
    parse_geometries,
    parse_speed_profiles,
    parse_traffic,
)
from .model import (
    DEFAULT_SEASONS,
    BinConfig,
    SeasonScheme,
    fit,
    model_from_json,
    model_to_json,
)
from .warn import (
    DEFAULT_PROFILE,
    FLAG_EXCEEDS_UNITY,
    FLAG_NO_TRAFFIC,
    _check_thresholds,
    sweep_all,
    warnings_to_csv,
    warnings_to_geojson,
)

__all__ = ["main", "run", "build_parser", "resolve", "OPTIONS", "COMMANDS", "DEFAULT_THRESHOLDS"]

DEFAULT_THRESHOLDS = (0.0005, 0.001, 0.002)


def _parse(path: str, parse: Callable[..., Any], *args: Any) -> Any:
    """``parse(text, *args)`` on the UTF-8 text of ``path``; its errors name the file once.

    An error keeps its class, so its exit code, and gains a ``<path>: `` prefix.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:  # its message ignores args
        raise ValueError(f"{path}: {exc}") from None
    try:
        return parse(text, *args)
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _open_out(path: str) -> TextIO:
    """``path`` opened for writing UTF-8 text, its parent directories created."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def _write_text(path: str, text: str) -> None:
    with _open_out(path) as fh:
        fh.write(text)


def _config_doc(text: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("config top level must be an object")
    return doc


# --- converters: flag text or config value -> option value, or ValueError ---


def _path(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a path string, got {value!r}")
    return value


def _number(value: Any) -> float:
    try:
        return float(value) if isinstance(value, str) else _real(value, "value")
    except (TypeError, ValueError):
        raise ValueError(f"must be a number, got {value!r}") from None


def _bin_width(value: Any) -> float:
    return _positive(_number(value), "bin width")


def _boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _days_per_year(value: Any) -> str:
    text = str(value) if type(value) is int else value  # config 365 means "365"
    if text not in ("calendar", "365"):
        raise ValueError(f"must be 'calendar' or '365', got {value!r}")
    return text


def _date(value: Any) -> dt.date:
    try:
        return _iso_date(_path(value))
    except ValueError:
        raise ValueError(f"must be YYYY-MM-DD, got {value!r}") from None


def parse_seasons_spec(spec: Any) -> SeasonScheme:
    """Parse ``label=m1,m2,...;label2=...`` into a SeasonScheme."""
    if not isinstance(spec, str):
        raise ValueError(f"must look like label=1,2,3;label2=..., got {spec!r}")
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
        spec = [p for p in (s.strip() for s in spec.split(",")) if p]
    elif not isinstance(spec, list):
        raise ValueError(f"must be a list of numbers or comma-separated text, got {spec!r}")
    values = tuple(_number(p) for p in spec)
    if _check_thresholds(values) != values:
        raise ValueError("thresholds must be sorted strictly ascending")
    return values


# option name (the config key; the flag swaps "_" for "-") -> (converter, default, help)
OPTIONS: dict[str, tuple[Callable[[Any], Any], Any, str]] = {
    "accidents": (_path, None, "accident CSV (date,time,line,km,species)"),
    "test": (_path, None, "held-out accident CSV"),
    "period_start": (_date, None, "observation start, YYYY-MM-DD (default: first record)"),
    "period_end": (_date, None, "observation end, YYYY-MM-DD (default: last record)"),
    "days_per_year": (_days_per_year, "calendar", "day counting: calendar (default) or 365"),
    "seasons": (parse_seasons_spec, DEFAULT_SEASONS,
                "month grouping (default 'short=11,12,1,2;long=5,6,7,8;mid=3,4,9,10')"),
    "delta_x": (_bin_width, 5.0, "km bin width (default 5)"),
    "delta_t": (_bin_width, 1.0, "hour bin width (default 1)"),
    "smoothing": (_number, 0.0, "additive smoothing count (default 0)"),
    "model": (_path, None, "fitted model JSON"),
    "traffic": (_path, None,
                "traffic CSV, daily counts (line,km_from,count) or train runs"
                " (line,km_from,km_to,departure)"),
    "speeds": (_path, None, "speed profile CSV (line,km_from,km_to,vmax)"),
    "geometry": (_path, None, "line geometry GeoJSON"),
    "thresholds": (parse_thresholds_spec, DEFAULT_THRESHOLDS,
                   "comma-separated warning thresholds, ascending (default 0.0005,0.001,0.002)"),
    "theta_map": (_number, None, "threshold of the GeoJSON export (default: smallest)"),
    "month": (_number, None, "restrict the GeoJSON export to one month"),
    "hour": (_number, None, "restrict the GeoJSON export to one hour bin"),
    "theta": (_number, None, "threshold to report (default: smallest)"),
    "adjacent": (_boolean, False, "count warnings in neighbouring km bins as hits"),
    "spacing": (_number, 2.5, "hex center spacing in km, 1e-6 to 1e6 (default 2.5)"),
    "out": (_path, None, "model JSON path (default <out-dir>/model.json)"),
    "out_dir": (_path, ".", "directory for output files (default .)"),
}


def _require(opts: argparse.Namespace, name: str) -> Any:
    value = getattr(opts, name)
    if value is None:
        raise ValueError(f"missing required option --{name.replace('_', '-')}")
    return value


def _load_dataset(path: str, opts: argparse.Namespace) -> Dataset:
    start, end = opts.period_start, opts.period_end
    if (start is None) != (end is None):
        raise ValueError("provide both --period-start and --period-end, or neither")
    if start is not None:
        if end < start:
            raise ValueError(f"--period-end {end} precedes --period-start {start}")
        return _parse(path, parse_accidents, (start, end))
    data = _parse(path, parse_accidents, (dt.date.min, dt.date.max))
    # no explicit period: use the span of the data itself
    first, last = (dt.date.fromordinal(int(day)) for day in (data.dates.min(), data.dates.max()))
    return dataclasses.replace(data, period_start=first, period_end=last)


def _out_path(opts: argparse.Namespace, filename: str) -> str:
    return os.path.join(opts.out_dir, filename)


def _write_csv(opts: argparse.Namespace, filename: str, header: list[str], rows) -> None:
    with _open_out(_out_path(opts, filename)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_fit(opts: argparse.Namespace) -> int:
    data = _load_dataset(_require(opts, "accidents"), opts)
    total_days = count_days(data.period_start, data.period_end, opts.days_per_year)
    bins = BinConfig(delta_x=opts.delta_x, delta_t=opts.delta_t)
    model = fit(data, opts.seasons, bins, total_days=total_days, smoothing=opts.smoothing)
    out = opts.out or _out_path(opts, "model.json")
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


def _print_warn_summary(grid, census) -> None:
    print(f"cells: {census.cells} ({census.traffic_positive} with traffic)")
    print("flagged cells: " + " ".join(f"{flag}={n}" for flag, n in census.flagged.items()))
    for theta, n_warned in zip(grid.thresholds, census.warned):
        print(f"warned cells at theta={theta!r}: {n_warned}")
    print(f"warned km-bins per line and month at theta={grid.thresholds[0]!r}:")
    for line, by_month in census.warned_bins.items():
        cells = " ".join(
            f"{calendar.month_abbr[month]}={n}" for month, n in zip(grid.months, by_month) if n
        )
        if cells:
            print(f"  line {line}: {cells}")


def cmd_warn(opts: argparse.Namespace) -> int:
    map_only = [name for name in ("theta_map", "month", "hour") if getattr(opts, name) is not None]
    if map_only and opts.geometry is None:
        given = ", ".join("--" + name.replace("_", "-") for name in map_only)
        raise ValueError(f"{given}: used only by the GeoJSON export, which needs --geometry")
    model = _parse(_require(opts, "model"), model_from_json)
    traffic = _parse(_require(opts, "traffic"), parse_traffic, model.bins.delta_x)
    theta_map = opts.thresholds[0] if opts.theta_map is None else opts.theta_map
    geometries = None if opts.geometry is None else _parse(opts.geometry, parse_geometries)
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, opts.thresholds)
    # built before anything is said or written, so a refused --month or --hour leaves no trace
    geojson = None if geometries is None else warnings_to_geojson(
        grid, geometries, theta_map, month=opts.month, hour=opts.hour
    )
    census = grid.census()
    exceeds = census.flagged[FLAG_EXCEEDS_UNITY]
    if exceeds:
        print(
            f"warning: {exceeds} cells have p_pt > 1 ({FLAG_EXCEEDS_UNITY});"
            " check the traffic table",
            file=sys.stderr,
        )
    no_traffic = census.flagged[FLAG_NO_TRAFFIC]
    if no_traffic > census.cells / 2:
        print(
            f"warning: {no_traffic} of {census.cells} cells have no trains ({FLAG_NO_TRAFFIC});"
            " check the traffic table",
            file=sys.stderr,
        )
    csv_path = _out_path(opts, "warnings.csv")
    with _open_out(csv_path) as fh:
        warnings_to_csv(grid, fh)
    print(f"warning grid written to {csv_path}")
    if geojson is not None:
        geo_path = _out_path(opts, "warnings.geojson")
        _write_text(geo_path, geojson)
        print(f"warned segments written to {geo_path}")
    _print_warn_summary(grid, census)
    return 0


def cmd_map(opts: argparse.Namespace) -> int:
    data = _load_dataset(_require(opts, "accidents"), opts)
    geometries = _parse(_require(opts, "geometry"), parse_geometries)
    points = geocode(data, geometries)
    grid = hex_bin(points, opts.spacing)
    out = _out_path(opts, "hexmap.geojson")
    _write_text(out, hex_grid_to_geojson(grid))
    skipped = data.n - len(points)
    print(f"geocoded {len(points)} of {data.n} accidents ({skipped} not on a line geometry)")
    print(f"occupied hex cells: {len(grid.cells)}")
    if grid.cells:
        print(f"densest cell count: {max(grid.cells.values())}")
    print(f"hex map written to {out}")
    return 0


def cmd_profile(opts: argparse.Namespace) -> int:
    data = _load_dataset(_require(opts, "accidents"), opts)
    seasons = opts.seasons
    species = species_profile(data)
    hourly = hourly_profile(data, seasons)
    _write_csv(opts, "species.csv", ["species", "count"], species.items())
    hourly_rows = [(label, h, hourly[(label, h)]) for label in seasons.labels for h in range(24)]
    _write_csv(opts, "hourly.csv", ["season", "hour", "count"], hourly_rows)
    print(f"records: {data.n}")
    print("most frequent species:")
    for name, count in list(species.items())[:5]:
        print(f"  {name}: {count}")
    for label in seasons.labels:
        total = sum(hourly[(label, hour)] for hour in range(24))
        peak = max(range(24), key=lambda h: (hourly[(label, h)], -h))
        print(f"season {label}: {total} accidents, busiest hour {peak:02d}:00")
    return 0


def cmd_corr(opts: argparse.Namespace) -> int:
    data = _load_dataset(_require(opts, "accidents"), opts)
    traffic = _parse(_require(opts, "traffic"), parse_traffic, opts.delta_x)
    speeds = _parse(_require(opts, "speeds"), parse_speed_profiles)
    report = speed_correlation(data, traffic, speeds, opts.delta_x)
    out = _out_path(opts, "correlation.json")
    _write_text(out, report_to_json(report))
    print(f"bins: {report.n}")
    print(f"pearson: {report.pearson:.4f}")
    print(f"spearman: {report.spearman:.4f}")
    print(f"correlation report written to {out}")
    return 0


def cmd_eval(opts: argparse.Namespace) -> int:
    model = _parse(_require(opts, "model"), model_from_json)
    traffic = _parse(_require(opts, "traffic"), parse_traffic, model.bins.delta_x)
    test = _load_dataset(_require(opts, "test"), opts)
    theta = opts.thresholds[0] if opts.theta is None else opts.theta
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, opts.thresholds)
    report = evaluate_holdout(grid, test, theta, include_adjacent=opts.adjacent)
    out = _out_path(opts, "eval.json")
    _write_text(out, report_to_json(report))
    print(f"test accidents: {report.n_test} ({report.n_unmapped} unmapped)")
    print(f"theta={report.theta!r}: hit_rate={report.hit_rate:.4f}"
          f" warned_fraction={report.warned_fraction:.4f}")
    print("curve (theta, warned_fraction, hit_rate):")
    for th, wf, hr in report.curve:
        print(f"  {th!r}: {wf:.4f} {hr:.4f}")
    print(f"evaluation report written to {out}")
    return 0


_ACCIDENTS = ("accidents", "period_start", "period_end")
_GRID = ("model", "traffic")

# command -> (handler, help, the options it reads)
COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], str, tuple[str, ...]]] = {
    "fit": (cmd_fit, "fit probability tables from accident records", (
        *_ACCIDENTS, "days_per_year", "seasons", "delta_x", "delta_t", "smoothing", "out",
        "out_dir")),
    "warn": (cmd_warn, "compute the warning grid from a model and traffic", (
        *_GRID, "thresholds", "geometry", "theta_map", "month", "hour", "out_dir")),
    "map": (cmd_map, "hex-bin accident locations into a hotspot map", (
        *_ACCIDENTS, "geometry", "spacing", "out_dir")),
    "profile": (cmd_profile, "species and hour-of-day accident profiles", (
        *_ACCIDENTS, "seasons", "out_dir")),
    "corr": (cmd_corr, "correlate track speed with accidents per train", (
        *_ACCIDENTS, "delta_x", "traffic", "speeds", "out_dir")),
    "eval": (cmd_eval, "evaluate a warning grid against held-out accidents", (
        *_GRID, "test", "period_start", "period_end", "thresholds", "theta", "adjacent",
        "out_dir")),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (one line, exit 2)."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """A subcommand per ``COMMANDS`` entry taking ``--config`` and its options, kept as text."""
    parser = _Parser(
        prog="wildrail",
        description="Wildlife-train collision risk: fit rate tables, raise per-train warnings, analyze hotspots.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (_, command_help, names) in COMMANDS.items():
        sp = sub.add_parser(command, help=command_help)
        sp.add_argument("--config", help="JSON config file keyed by option name; flags win")
        for name in names:
            convert, _, option_help = OPTIONS[name]
            kwargs = {"action": "store_const", "const": True} if convert is _boolean else {}
            sp.add_argument("--" + name.replace("_", "-"), help=option_help, **kwargs)
    return parser


def resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The options ``args.command`` reads, each from its flag, else the config, else its default."""
    config = {} if args.config is None else _parse(args.config, _config_doc)
    opts = argparse.Namespace()
    for name in COMMANDS[args.command][2]:
        convert, default, _ = OPTIONS[name]
        flag_value = getattr(args, name)
        if flag_value is not None:
            value, source = flag_value, "--" + name.replace("_", "-")
        elif name in config:
            value, source = config[name], f"{args.config}: {name}"
        else:
            setattr(opts, name, default)
            continue
        try:
            setattr(opts, name, convert(value))
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
    return opts


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
        return COMMANDS[args.command][0](resolve(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UndefinedCorrelationError) else 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

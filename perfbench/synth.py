"""Seeded synthetic railway network for the benchmark, written as wildrail inputs.

A network is ``n_lines`` lines of ``km_len`` km each.  Accidents cluster in
time (seasonal months, dawn and dusk hours) and in space (a few hotspots per
line over a uniform background), like the bundled fixtures in
``data/generate_fixtures.py``, but drawn from ``numpy.random.default_rng(seed)``
so any size can be built.  The same seed and sizes give the same files byte
for byte.  Sizes, not the seed, fix the amount of work: every seed gives the
same number of lines, km bins and records, so the grid has exactly
``n_lines * km_len / 5 * 12 * 24`` cells.

The traffic table gives some km bins no trains and some a tiny count, so the
``no_traffic`` and ``exceeds_unity`` flags both occur.  A small share of the
test accidents sits on an unknown line or past the end of its line, so the
hold-out evaluation has unmapped records.
"""

from __future__ import annotations

import calendar
import hashlib
import json
import os

import numpy as np

DELTA_X = 5.0
TRAIN_PERIOD = ("2020-01-01", "2022-12-31")
TEST_PERIOD = ("2023-01-01", "2023-12-31")

SPECIES = ("roe deer", "wild boar", "red deer", "fox", "hare", "badger", "")
SPECIES_WEIGHTS = (0.45, 0.22, 0.12, 0.08, 0.06, 0.03, 0.04)
# seasonal month weights (rut in autumn, young animals in May-June)
MONTH_WEIGHTS = (9, 7, 6, 6, 9, 9, 7, 7, 8, 11, 12, 10)
# dawn and dusk peaks over a low night and midday floor
HOUR_WEIGHTS = (2, 2, 2, 3, 6, 10, 12, 9, 5, 3, 3, 3, 3, 3, 3, 4, 6, 9, 12, 11, 8, 5, 3, 2)
UNKNOWN_LINE = "X999"


def line_ids(n_lines: int) -> list[str]:
    return [f"R{i:03d}" for i in range(1, n_lines + 1)]


def _draw_dates(rng: np.random.Generator, n: int, years: tuple[int, ...]) -> list[str]:
    year = rng.choice(np.array(years), size=n)
    month = rng.choice(np.arange(1, 13), size=n, p=np.array(MONTH_WEIGHTS) / sum(MONTH_WEIGHTS))
    days_in = np.array([[calendar.monthrange(y, m)[1] for m in range(1, 13)] for y in years])
    year_idx = np.searchsorted(np.array(years), year)
    day = 1 + (rng.random(n) * days_in[year_idx, month - 1]).astype(int)
    return [f"{y:04d}-{m:02d}-{d:02d}" for y, m, d in zip(year.tolist(), month.tolist(), day.tolist())]


def _draw_times(rng: np.random.Generator, n: int) -> list[str]:
    hour = rng.choice(np.arange(24), size=n, p=np.array(HOUR_WEIGHTS) / sum(HOUR_WEIGHTS))
    minute = rng.integers(0, 60, size=n)
    return [f"{h:02d}:{m:02d}" for h, m in zip(hour.tolist(), minute.tolist())]


def _draw_places(
    rng: np.random.Generator, n: int, lines: list[str], hotspots: np.ndarray, km_len: float
) -> tuple[np.ndarray, np.ndarray]:
    """Line index and km per record: 60 % uniform background, 40 % near a hotspot."""
    weights = rng.gamma(2.0, 1.0, size=len(lines))
    line_idx = rng.choice(len(lines), size=n, p=weights / weights.sum())
    km = rng.random(n) * km_len
    near = rng.random(n) < 0.4
    which = rng.integers(0, hotspots.shape[1], size=n)
    km_hot = hotspots[line_idx, which] + rng.normal(0.0, 3.0, size=n)
    km = np.where(near, km_hot, km)
    # one decimal, kept strictly inside [0, km_len) so the km-bin span is fixed
    km = np.clip(np.round(km, 1), 0.0, km_len - 0.1)
    return line_idx, km


def _accident_rows(
    rng: np.random.Generator,
    n: int,
    years: tuple[int, ...],
    lines: list[str],
    hotspots: np.ndarray,
    km_len: float,
) -> list[str]:
    dates = _draw_dates(rng, n, years)
    times = _draw_times(rng, n)
    line_idx, km = _draw_places(rng, n, lines, hotspots, km_len)
    species = rng.choice(len(SPECIES), size=n, p=np.array(SPECIES_WEIGHTS))
    rows = [
        f"{d},{t},{lines[li]},{k!r},{SPECIES[s]}"
        for d, t, li, k, s in zip(dates, times, line_idx.tolist(), km.tolist(), species.tolist())
    ]
    rows.sort()
    return rows


def _mark_unmapped(rng: np.random.Generator, rows: list[str], km_len: float) -> int:
    """Move 1 % of test rows to an unknown line or past the line's end."""
    picked = np.sort(rng.choice(len(rows), size=len(rows) // 100, replace=False)).tolist()
    for k, i in enumerate(picked):
        date, time, line, km, species = rows[i].split(",")
        if k % 2:
            line = UNKNOWN_LINE
        else:
            km = repr(km_len + DELTA_X + float(km))
        rows[i] = ",".join((date, time, line, km, species))
    return len(picked)


def _traffic_rows(rng: np.random.Generator, lines: list[str], km_len: float) -> list[str]:
    n_bins = int(round(km_len / DELTA_X))
    rows = []
    for line in lines:
        base = float(rng.integers(30, 160))
        for b in range(n_bins):
            u = rng.random()
            if u < 0.02:
                count = "0"  # no_traffic cells
            elif u < 0.03:
                count = "0.01"  # exceeds_unity cells: far too few trains for the accidents
            else:
                count = str(int(base * (0.6 + 0.8 * rng.random())))
            rows.append(f"{line},{b * DELTA_X!r},{count}")
    return rows


def _speed_rows(rng: np.random.Generator, lines: list[str], km_len: float) -> list[str]:
    rows = []
    for line in lines:
        cuts = np.sort(rng.choice(np.arange(1, int(km_len)), size=4, replace=False)).tolist()
        edges = [0.0] + [float(c) for c in cuts] + [km_len]
        for a, b in zip(edges, edges[1:]):
            rows.append(f"{line},{a!r},{b!r},{int(rng.choice([60, 80, 100, 120, 140, 160]))}")
    return rows


def _geometry(rng: np.random.Generator, lines: list[str], km_len: float) -> dict:
    features = []
    n_vertices = 12
    for i, line in enumerate(lines):
        lat0 = 45.0 + (i % 20) * 0.4
        lon0 = 5.0 + (i // 20) * 0.6
        steps = rng.normal(0.0, 0.05, size=(n_vertices, 2)) + np.array([0.02, 0.08])
        coords = np.vstack([[lon0, lat0], np.array([lon0, lat0]) + np.cumsum(steps, axis=0)])
        kms = np.linspace(0.0, km_len, n_vertices + 1)
        features.append(
            {
                "type": "Feature",
                "properties": {"line": line, "km": [round(k, 3) for k in kms.tolist()]},
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[round(x, 6), round(y, 6)] for x, y in coords.tolist()],
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}


def _write(path: str, text: str) -> dict:
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def generate(out_dir: str, seed: int, n_lines: int, km_len: float, n_train: int, n_test: int) -> dict:
    """Write the network's input files to ``out_dir`` and describe them.

    Returns a dict with the sizes and, per file, its path, row count and
    sha256, for the benchmark's result.
    """
    rng = np.random.default_rng(seed)
    lines = line_ids(n_lines)
    hotspots = rng.random((n_lines, 3)) * km_len
    train = _accident_rows(rng, n_train, (2020, 2021, 2022), lines, hotspots, km_len)
    test = _accident_rows(rng, n_test, (2023,), lines, hotspots, km_len)
    n_unmapped = _mark_unmapped(rng, test, km_len)
    tables = {
        "accidents": ("date,time,line,km,species", train),
        "test": ("date,time,line,km,species", test),
        "traffic": ("line,km_from,count", _traffic_rows(rng, lines, km_len)),
        "speeds": ("line,km_from,km_to,vmax", _speed_rows(rng, lines, km_len)),
    }
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name, (header, rows) in tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        files[name] = {"path": path, "rows": len(rows), **_write(path, "\n".join([header, *rows]) + "\n")}
    geo = _geometry(rng, lines, km_len)
    path = os.path.join(out_dir, "lines.geojson")
    files["geometry"] = {
        "path": path,
        "rows": len(geo["features"]),
        **_write(path, json.dumps(geo, sort_keys=True) + "\n"),
    }
    return {
        "seed": seed,
        "n_lines": n_lines,
        "km_len": km_len,
        "n_cells": n_lines * int(round(km_len / DELTA_X)) * 12 * 24,
        "n_test_moved_off_grid": n_unmapped,
        "train_period": TRAIN_PERIOD,
        "test_period": TEST_PERIOD,
        "files": files,
    }


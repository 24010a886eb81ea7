"""
Sweeping the full warning grid and exporting warned track segments
==================================================================

Builds the per-train probability over every (line, km bin, month, hour)
cell, applies strict thresholds, and writes the grid as CSV plus the
warned segments as GeoJSON for a map client.
"""

import datetime as dt
from pathlib import Path

import numpy as np

from wildrail import (
    DEFAULT_PROFILE,
    count_days,
    fit,
    parse_accidents,
    parse_geometries,
    parse_traffic,
    sweep_all,
    warnings_to_csv,
    warnings_to_geojson,
)

DATA = Path(__file__).resolve().parents[1] / "data"
OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

period = (dt.date(2020, 1, 1), dt.date(2022, 12, 31))
with open(DATA / "accidents_2020_2022.csv", encoding="utf-8") as fh:
    model = fit(parse_accidents(fh, period), total_days=count_days(*period, "365"))
with open(DATA / "traffic.csv", encoding="utf-8") as fh:
    traffic = parse_traffic(fh, model.bins.delta_x)

thresholds = (0.0005, 0.001, 0.002)
grid = sweep_all(model, traffic, DEFAULT_PROFILE, thresholds)
print(f"grid: {grid.n_cells()} cells over lines {', '.join(grid.lines)}")
print(f"cells with traffic: {grid.traffic_positive_cells()}")

# a warning is strict: p_pt must exceed theta, equality never warns
for theta in thresholds:
    print(f"warned at theta={theta!r}: {grid.warned_cells(theta)} cells")

# the hottest cells, by raw per-train probability
flat = []
for line in grid.lines:
    p, _ = grid.line_cells(line)  # computed from the grid's factors on each call
    for idx in np.argsort(np.nan_to_num(p, nan=-1.0), axis=None)[-3:]:
        xi, mi, ti = np.unravel_index(idx, p.shape)
        flat.append((float(p[xi, mi, ti]), line, int(xi), int(mi), int(ti)))
print("\ntop cells per line:")
for value, line, xi, mi, ti in sorted(flat, reverse=True):
    x_from, t_from = (grid.x_first[line] + xi) * grid.delta_x, ti * grid.delta_t
    print(
        f"  line {line} km [{x_from:.0f},{x_from + grid.delta_x:.0f}) "
        f"month {grid.months[mi]:2d} {t_from:.0f}-{t_from + grid.delta_t:.0f} h: p_pt={value:.6f}"
    )

csv_path = OUT / "warnings.csv"
with open(csv_path, "w", encoding="utf-8", newline="") as fh:
    warnings_to_csv(grid, fh)
print(f"\nfull grid written to {csv_path}")

# GeoJSON keeps only warned bins that fall on a known geometry
with open(DATA / "lines.geojson", encoding="utf-8") as fh:
    geometries = parse_geometries(fh)
geo_path = OUT / "warnings.geojson"
geo_path.write_text(
    warnings_to_geojson(grid, geometries, theta=0.001, month=1), encoding="utf-8"
)
print(f"January warned segments written to {geo_path}")

"""
Hexagonal hotspot map of geocoded accident locations
====================================================

Turns (line, km) accident positions into coordinates via the line
geometries, bins them on a flat-top hexagonal lattice, and writes the
occupied cells as GeoJSON polygons with counts.
"""

import datetime as dt
from pathlib import Path

from wildrail import (
    geocode,
    hex_bin,
    hex_grid_to_geojson,
    parse_accidents,
    parse_geometries,
)

DATA = Path(__file__).resolve().parents[1] / "data"
OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

period = (dt.date(2020, 1, 1), dt.date(2022, 12, 31))
with open(DATA / "accidents_2020_2022.csv", encoding="utf-8") as fh:
    data = parse_accidents(fh, period)
with open(DATA / "lines.geojson", encoding="utf-8") as fh:
    geometries = parse_geometries(fh)

# linear referencing: a km post interpolates along the line's polyline; a
# record on a line without geometry, or off its calibrated km range, is skipped
points = geocode(data, geometries)
skipped = data.n - len(points)
print(f"geocoded {len(points)} of {data.n} accidents ({skipped} not on a line geometry)")

# 2.5 km flat-top hexagons; counts never change when points are reordered
grid = hex_bin(points, spacing=2.5)
print(f"occupied hex cells: {len(grid.cells)}")

top = sorted(grid.cells.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
print("densest cells (col, row -> count):")
for (col, row), count in top:
    lat, lon = grid.unproject(*grid.center_xy(col, row))
    print(f"  ({col:3d},{row:3d}) at {lat:.4f}N {lon:.4f}E: {count}")

out = OUT / "hexmap.geojson"
out.write_text(hex_grid_to_geojson(grid), encoding="utf-8")
print(f"hex map written to {out}")

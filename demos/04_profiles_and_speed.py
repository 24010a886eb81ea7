"""
Species and hour-of-day profiles, plus the speed question
=========================================================

Summarizes who gets hit and when, then asks whether faster track is more
dangerous per train by correlating line speed with accidents-per-train
across km bins.
"""

import datetime as dt
from pathlib import Path

from wildrail import (
    DEFAULT_SEASONS,
    hourly_profile,
    parse_accidents,
    parse_speed_profiles,
    parse_traffic,
    report_to_json,
    species_profile,
    speed_correlation,
)

DATA = Path(__file__).resolve().parents[1] / "data"
OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

period = (dt.date(2020, 1, 1), dt.date(2022, 12, 31))
with open(DATA / "accidents_2020_2022.csv", encoding="utf-8") as fh:
    data = parse_accidents(fh, period)

# species, most frequent first; blank fields group under "unknown"
species = species_profile(data)
print("species counts:")
for name, count in species.items():
    print(f"  {name:12s} {count}")

# hour-of-day by daylight season; the dusk peak moves with the season
hourly = hourly_profile(data, DEFAULT_SEASONS)
print("\naccidents by (season, hour), 16-21 h:")
for label in DEFAULT_SEASONS.labels:
    row = "  ".join(f"{h:02d}h={hourly[(label, h)]:3d}" for h in range(16, 22))
    total = sum(hourly[(label, h)] for h in range(24))
    print(f"  {label:5s} {row}  (season total {total})")

# speed vs accidents-per-train: exposure-adjusted, so busy bins don't
# masquerade as dangerous ones
with open(DATA / "traffic.csv", encoding="utf-8") as fh:
    traffic = parse_traffic(fh, 5.0)
with open(DATA / "speeds.csv", encoding="utf-8") as fh:
    speeds = parse_speed_profiles(fh)
report = speed_correlation(data, traffic, speeds, delta_x=5.0)
print(f"\nspeed correlation over {report.n} km bins:")
print(f"  pearson  = {report.pearson:+.4f}")
print(f"  spearman = {report.spearman:+.4f}")
fastest = max(report.pairs, key=lambda pair: pair[2])
print(
    f"  fastest bin: line {fastest[0]} km {fastest[1]:.0f} "
    f"at {fastest[2]:.0f} km/h, {fastest[3]:.4f} accidents per train"
)

out = OUT / "correlation.json"
out.write_text(report_to_json(report), encoding="utf-8")
print(f"pairs written to {out}")

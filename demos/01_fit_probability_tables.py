"""
Fitting accident probability tables from a CSV of collision records
====================================================================

Reads the bundled 2020-2022 accident records, fits the four empirical
tables (monthly rate, hour-of-day by daylight season, line share, km-bin
share along each line), and then composes them by hand into a single
per-train collision probability for one concrete cell.
"""

import datetime as dt
from pathlib import Path

from wildrail import (
    DEFAULT_PROFILE,
    alpha,
    bin_index,
    count_days,
    fit,
    model_to_json,
    parse_accidents,
    parse_traffic,
    p_per_train,
)

DATA = Path(__file__).resolve().parents[1] / "data"
OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

# ingest: every row is validated, bad rows abort with a line number
period = (dt.date(2020, 1, 1), dt.date(2022, 12, 31))
with open(DATA / "accidents_2020_2022.csv", encoding="utf-8") as fh:
    data = parse_accidents(fh, period)
print(f"records: {data.n} between {data.period_start} and {data.period_end}")

# exposure: "365" counts days as if every year had 365 of them
total_days = count_days(*period, "365")
print(f"exposure T = {total_days} days")

model = fit(data, total_days=total_days)

# table 1: accidents per average month, by calendar month
print("\nmonthly rate mu(tau):")
for tau in range(1, 13):
    month = dt.date(2000, tau, 1).strftime("%b")
    print(f"  {month}: {model.mu[tau]:.4f}  (n={model.counts.by_month[tau]})")

# table 2: hour-of-day distribution, conditioned on the daylight season
print("\np(hour | season), evening hours only:")
for label in model.seasons.labels:
    # p_time[label][i] is hour bin i; at 1 h bins that is the hour itself
    row = "  ".join(f"{h:02d}h={model.p_time[label][h]:.3f}" for h in (16, 17, 18, 19))
    print(f"  {label:5s} {row}")

# tables 3 and 4: where accidents happen
print("\nline shares p(l):")
for line in model.lines:
    print(f"  line {line}: {model.p_line[line]:.4f}")
print("\nkm-bin shares on line 139 (first five bins):")
# p_segment[line] runs from the line's first occupied km bin, x_first[line], on;
# km bin k starts at k * delta_x
for k, share in enumerate(model.p_segment["139"][:5], model.counts.x_first["139"]):
    xs = k * model.bins.delta_x
    print(f"  [{xs:.0f}, {xs + 5:.0f}) km: {share:.4f}")

# compose one cell by hand: line 139, km 12, January, 18:00-19:00
with open(DATA / "traffic.csv", encoding="utf-8") as fh:
    traffic = parse_traffic(fh, model.bins.delta_x)
# km 12 is in km bin k = 2, [10, 15); January's season is "short", and at
# 1 h bins the 18-19 h window is hour bin 18
k = bin_index(12.0, model.bins.delta_x)
mu = model.mu[1]
p_t = model.p_time[model.seasons.season_of(1)][18]
p_l = model.p_line["139"]
p_x = model.p_segment["139"][k - model.counts.x_first["139"]]
# expected trains in the window: daily count n times the hourly share alpha times dt
n = traffic.counts["139"][k - traffic.x_first["139"]]
m = (n * alpha(18.0, 1.0, DEFAULT_PROFILE)) * 1.0
print("\nworked cell (line 139, km bin [10, 15), January, 18-19 h):")
print(f"  mu(Jan)            = {mu:.4f} accidents / month")
print(f"  p(18-19h | short)  = {p_t:.4f}")
print(f"  p(line 139)        = {p_l:.4f}")
print(f"  p([10,15) | 139)   = {p_x:.4f}")
print(f"  m = n * alpha * dt = {m:.3f} expected trains")
p = p_per_train(model, traffic, DEFAULT_PROFILE, 1, 18.0, "139", 12.0)
print(f"  p_pt = (p_t * mu) * (p_x * p_l) / m = {p:.6f}")
print(f"  warns at theta=0.001: {p > 0.001}")

# the fitted model serializes to a single JSON document, counts included
out = OUT / "model.json"
out.write_text(model_to_json(model), encoding="utf-8")
print(f"\nmodel written to {out}")

"""
Scoring the warning grid against held-out 2023 accidents
========================================================

Fits on 2020-2022, warns, then checks how many accidents from the 2023
hold-out set fall inside warned cells, against the fraction of cells the
warnings cover.  A useful grid hits far more than it covers.
"""

import datetime as dt
from pathlib import Path

from wildrail import (
    DEFAULT_PROFILE,
    count_days,
    evaluate_holdout,
    fit,
    parse_accidents,
    parse_traffic,
    report_to_json,
    sweep_all,
)

DATA = Path(__file__).resolve().parents[1] / "data"
OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

train_period = (dt.date(2020, 1, 1), dt.date(2022, 12, 31))
with open(DATA / "accidents_2020_2022.csv", encoding="utf-8") as fh:
    train = parse_accidents(fh, train_period)
with open(DATA / "accidents_2023_test.csv", encoding="utf-8") as fh:
    test = parse_accidents(fh, (dt.date(2023, 1, 1), dt.date(2023, 12, 31)))
with open(DATA / "traffic.csv", encoding="utf-8") as fh:
    traffic = parse_traffic(fh, 5.0)

model = fit(train, total_days=count_days(*train_period, "365"))
grid = sweep_all(model, traffic, DEFAULT_PROFILE, (0.0005, 0.001, 0.002))

report = evaluate_holdout(grid, test, theta=0.001)
print(f"test accidents: {report.n_test} ({report.n_unmapped} off-grid)")
print(f"at theta={report.theta!r}:")
print(f"  warned cell fraction: {report.warned_fraction:.4f}")
print(f"  hit rate:             {report.hit_rate:.4f}  ({report.hits} hits)")

# sweep the grid's thresholds: stricter theta warns less and hits less
print("\ntheta        warned   hit_rate")
for theta, warned_fraction, hit_rate in report.curve:
    print(f"{theta:<12g} {warned_fraction:.4f}   {hit_rate:.4f}")

# counting a warning in a neighbouring km bin as a hit is more forgiving
adjacent = evaluate_holdout(grid, test, theta=0.001, include_adjacent=True)
print(f"\nwith adjacent bins: hit_rate {report.hit_rate:.4f} -> {adjacent.hit_rate:.4f}")

out = OUT / "eval.json"
out.write_text(report_to_json(report), encoding="utf-8")
print(f"report written to {out}")

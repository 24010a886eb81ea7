"""Formal acceptance suite: one test per release criterion.

Each test is self-contained and carries its tolerance in the assertions, so
the ``pytest -v`` output reads as one pass/fail line per criterion.
"""

from __future__ import annotations

import datetime as dt
import filecmp
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import wildrail.warn
from wildrail import (
    DEFAULT_PROFILE,
    DEFAULT_SEASONS,
    AccidentRecord,
    SpeedProfile,
    alpha,
    count_days,
    fit,
    p_per_train,
    parse_accidents,
    parse_traffic,
    speed_correlation,
    sweep_all,
)
from wildrail.cli import main
from conftest import DATA_DIR, PERIOD, dataset_of, make_synthetic, traffic_of
from oracles import alpha_fraction, cell_expectation, expected_tables, table_counts

MONTH_SEASON = {m: DEFAULT_SEASONS.season_of(m) for m in range(1, 13)}


def rel_err(value: float, exact: Fraction) -> float:
    if exact == 0:
        return abs(value)
    return abs((Fraction(value) - exact) / exact)


def test_criterion_1_worked_example_reproduction() -> None:
    """Bundled fixture reproduces the documented end-to-end example.

    Every unrounded estimate must sit within 1e-3 relative of its exact
    fraction, the rounded readings must recombine into the quoted
    0.00108..0.00112 band, the 0.001 warning must fire, and the whole run
    must finish inside 100 ms.
    """
    started = time.perf_counter()
    with open(DATA_DIR / "accidents_2020_2022.csv", encoding="utf-8") as fh:
        data = parse_accidents(fh, PERIOD)
    with open(DATA_DIR / "traffic.csv", encoding="utf-8") as fh:
        traffic = parse_traffic(fh, 5.0)
    total_days = count_days(*PERIOD, "365")
    model = fit(data, total_days=total_days)
    # January is a short-day month; km 10.0 and 12.0 lie in km bin 2, [10, 15)
    mu_jan = model.mu[1]
    p_time = model.p_time["short"][18]
    p_line = model.p_line["139"]
    p_segment = model.p_segment["139"][2 - model.counts.x_first["139"]]
    trains = traffic.counts["139"][2 - traffic.x_first["139"]]
    m_window = (trains * alpha(18.0, 1.0, DEFAULT_PROFILE)) * 1.0
    p_pt = p_per_train(model, traffic, DEFAULT_PROFILE, 1, 18.0, "139", 12.0)
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, (0.001,))
    _, (xi,), (mi,), (ti,) = grid.locate(
        ("139",), np.array([0]), np.array([10.0]), np.array([1]), np.array([18.0])
    )
    elapsed = time.perf_counter() - started

    assert total_days == 1095
    exact_mu = Fraction(81 * 12, 1095)
    exact_p_time = Fraction(37, 338)
    exact_p_line = Fraction(285, 877)
    exact_p_segment = Fraction(50, 285)
    exact_m = 131 * Fraction(0.55) / 14
    exact_p_pt = exact_p_time * exact_mu * exact_p_segment * exact_p_line / exact_m
    assert rel_err(mu_jan, exact_mu) <= 1e-3
    assert rel_err(p_time, exact_p_time) <= 1e-3
    assert rel_err(p_line, exact_p_line) <= 1e-3
    assert rel_err(p_segment, exact_p_segment) <= 1e-3
    assert rel_err(m_window, exact_m) <= 1e-3
    assert rel_err(p_pt, exact_p_pt) <= 1e-3
    # sanity against the quoted decimal readings
    assert mu_jan == pytest.approx(0.8877, abs=5e-5)
    assert p_time == pytest.approx(0.1095, abs=5e-5)
    assert p_line == pytest.approx(0.3250, abs=5e-5)
    assert p_segment == pytest.approx(0.1754, abs=5e-5)
    assert m_window == pytest.approx(5.146, abs=5e-4)
    # the published example chains the rounded readings; that arithmetic must
    # land in the quoted probability band
    quoted = 0.11 * 0.89 * 0.33 * 0.175 / 5.15
    assert 0.00108 <= quoted <= 0.00112
    assert p_pt > 0.001
    assert grid.warned_mask("139", 0.001)[xi, mi, ti]
    assert elapsed < 0.1


def test_criterion_2_traffic_profile_normalization() -> None:
    """alpha hits the documented piece rates exactly and integrates to one.

    Partition sums must hold within 1e-12 for 1, 2, and 3 hour windows.
    """
    assert alpha(2.0, 1.0) == 0.0125
    assert alpha(7.0, 1.0) == 0.4 / 6
    assert alpha(12.0, 1.0) == 0.55 / 14
    for delta in (1.0, 2.0, 3.0):
        total = sum(alpha(i * delta, delta) * delta for i in range(int(24 / delta)))
        assert abs(total - 1.0) <= 1e-12


def _oracle_grid_check(model, traffic, grid, tables, alpha_floats, alpha_fracs) -> int:
    """Compare every grid cell against an independent recomputation.

    Bulk pass uses float arithmetic in a different association order (at most
    a few ulp from exact, far inside 1e-12); every 17th cell is re-done in
    exact rational arithmetic as an anchor.
    """
    checked = 0
    temporal = {}
    for tau in range(1, 13):
        mu = tables["mu"][tau]
        if mu == 0:
            temporal[tau] = [0.0] * 24
        else:
            table = tables["p_time"][MONTH_SEASON[tau]]
            temporal[tau] = [float(table[ti] * mu) for ti in range(24)]
    flat_index = 0
    for line in grid.lines:
        # km bin indices of the grid's bins on the line
        bins = range(grid.x_first[line], grid.x_first[line] + grid.m_window[line].shape[0])
        p_pt, flags = grid.line_cells(line)
        p_line = tables["p_line"].get(line, Fraction(0))
        seg = tables["p_segment"].get(line, {})
        spatial = [0.0 if p_line == 0 else float(seg.get(k, Fraction(0)) * p_line) for k in bins]
        run, run_first = traffic.counts.get(line, ()), traffic.x_first.get(line, 0)
        for xi, k in enumerate(bins):
            count = float(run[k - run_first]) if 0 <= k - run_first < len(run) else 0.0
            for mi, tau in enumerate(grid.months):
                rows = temporal[tau]
                for ti in range(24):
                    got = float(p_pt[xi, mi, ti])
                    bits = int(flags[xi, mi, ti])
                    window = count * (alpha_floats[ti] * 1.0)
                    if window == 0.0:
                        assert math.isnan(got)
                        assert bits == 1
                    else:
                        want = rows[ti] * (spatial[xi] / window)
                        if want == 0.0:
                            assert got == 0.0
                        else:
                            assert abs(got - want) <= 1e-12 * abs(want)
                        assert bits == (4 if got > 1.0 else 0)
                    if flat_index % 17 == 0:
                        exact_p, exact_flags = cell_expectation(
                            tables, MONTH_SEASON, count, alpha_fracs[ti], Fraction(1),
                            tau, ti, line, k,
                        )
                        if exact_p is None:
                            assert math.isnan(got)
                        elif exact_p == 0:
                            assert got == 0.0
                        else:
                            assert rel_err(got, exact_p) <= 1e-12
                            assert ("exceeds_unity" in exact_flags) == bool(bits & 4)
                    flat_index += 1
                    checked += 1
    return checked


def _table_check(model, tables) -> None:
    for tau in range(1, 13):
        exact = tables["mu"][tau]
        assert rel_err(model.mu[tau], exact) <= 1e-12
    assert set(model.p_time) == set(tables["p_time"])
    for label, table in tables["p_time"].items():
        for ti, exact in table.items():
            assert rel_err(model.p_time[label][ti], exact) <= 1e-12
    assert set(model.p_line) == set(tables["p_line"])
    for line, exact in tables["p_line"].items():
        assert rel_err(model.p_line[line], exact) <= 1e-12
    for line, table in tables["p_segment"].items():
        got, first = model.p_segment[line], model.counts.x_first[line]
        assert range(first, first + len(got)) == range(min(table), max(table) + 1)
        for i, exact in table.items():
            assert rel_err(got[i - first], exact) <= 1e-12


def test_criterion_3_oracle_equivalence() -> None:
    """100 random datasets: tables and every grid cell match brute force.

    Tolerance 1e-12 relative; the whole sweep must finish inside 10 s.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    alpha_fracs = [alpha_fraction(Fraction(h), Fraction(1), DEFAULT_PROFILE.groups) for h in range(24)]
    alpha_floats = [alpha(float(h), 1.0) for h in range(24)]
    cells_checked = 0
    for k in range(100):
        data, traffic = make_synthetic(rng, max_records=1000, max_lines=5)
        mode = "calendar" if k % 2 else "365"
        total_days = count_days(data.period_start, data.period_end, mode)
        model = fit(data, total_days=total_days)
        counts = table_counts(data.records, DEFAULT_SEASONS.groups, 5.0, 60)
        tables = expected_tables(counts, total_days)
        _table_check(model, tables)
        grid = sweep_all(model, traffic, DEFAULT_PROFILE, (0.001,))
        cells_checked += _oracle_grid_check(model, traffic, grid, tables, alpha_floats, alpha_fracs)
    elapsed = time.perf_counter() - started
    assert cells_checked > 100_000
    assert elapsed < 10.0


def test_criterion_4_normalization_suite() -> None:
    """Probability tables normalize and rates integrate back to the count.

    Within 1e-9 on each of the 100 synthetic datasets.
    """
    rng = np.random.default_rng(31)
    for k in range(100):
        data, _ = make_synthetic(rng, max_records=1000, max_lines=5)
        mode = "calendar" if k % 2 else "365"
        total_days = count_days(data.period_start, data.period_end, mode)
        model = fit(data, total_days=total_days)
        for label, table in model.p_time.items():
            assert abs(sum(table) - 1.0) <= 1e-9
        assert abs(sum(model.p_line.values()) - 1.0) <= 1e-9
        for line, table in model.p_segment.items():
            assert abs(sum(table) - 1.0) <= 1e-9
        recovered = sum(model.mu.values()) * (total_days / 12.0)
        assert abs(recovered - data.n) <= 1e-9 * data.n


def test_criterion_5_threshold_and_traffic_monotonicity() -> None:
    """Warnings shrink as theta grows; p_pt strictly falls as traffic rises.

    10,000 generated cases, zero counterexamples allowed.
    """
    rng = np.random.default_rng(52)
    cases = 0
    # warned-set shrinkage across random grids
    for _ in range(25):
        data, traffic = make_synthetic(rng, max_records=400)
        grid = sweep_all(fit(data), traffic, DEFAULT_PROFILE, (1e-4,))
        p_pt = [grid.line_cells(line)[0] for line in grid.lines]
        values = np.concatenate([p.ravel() for p in p_pt])
        values = values[np.isfinite(values)]
        top = float(values.max()) if values.size else 1.0
        for _ in range(200):
            pair = np.sort(rng.uniform(0.0, top * 1.1, size=2))
            lo = float(pair[0]) + 1e-300  # thresholds must stay positive
            hi = float(pair[1]) + 2e-300
            for p in p_pt:
                tight, loose = wildrail.warn._warned(p, hi), wildrail.warn._warned(p, lo)
                assert not (tight & ~loose).any()
            cases += 1
    # strict decrease in m for positive numerators
    for _ in range(5000):
        temporal = float(rng.uniform(1e-4, 5.0))
        spatial = float(rng.uniform(1e-6, 1.0))
        hour = float(rng.integers(0, 24))
        rate = alpha(hour, 1.0)
        m1 = float(rng.uniform(0.1, 500.0))
        m2 = m1 * float(rng.uniform(1.0001, 10.0))
        p1 = (temporal * spatial) / ((m1 * rate) * 1.0)
        p2 = (temporal * spatial) / ((m2 * rate) * 1.0)
        assert p2 < p1
        cases += 1
    assert cases == 10_000


def _structured_draw(rng: np.random.Generator, n: int, year_from: int, year_to: int,
                     lines, p_line, seg_w, month_w, hour_w) -> list[AccidentRecord]:
    records = []
    line_idx = rng.choice(len(lines), size=n, p=p_line)
    months = rng.choice(12, size=n, p=month_w) + 1
    hours = rng.choice(24, size=n, p=hour_w)
    for i in range(n):
        line = lines[int(line_idx[i])]
        x_bin = int(rng.choice(len(seg_w[line]), p=seg_w[line]))
        km = x_bin * 5.0 + float(rng.uniform(0.0, 4.999))
        date = dt.date(int(rng.integers(year_from, year_to + 1)), int(months[i]), int(rng.integers(1, 29)))
        time_min = int(hours[i]) * 60 + int(rng.integers(0, 60))
        records.append(AccidentRecord(date=date, time=time_min, line=line, km=km))
    return records


def test_criterion_6_holdout_informativeness() -> None:
    """Warnings fitted on sampled data catch later samples beyond coverage.

    1000 held-out accidents from the same generator (fixed seed); at a theta
    with warned_fraction inside [0.1, 0.5], hit_rate must exceed it.
    """
    rng = np.random.default_rng(6)
    lines = ["201", "202", "203"]
    p_line = [0.6, 0.3, 0.1]
    seg_w = {
        "201": np.array([0.30, 0.22, 0.15, 0.10, 0.07, 0.05, 0.04, 0.03, 0.02, 0.02]),
        "202": np.array([0.02, 0.02, 0.03, 0.04, 0.05, 0.07, 0.10, 0.15, 0.22, 0.30]),
        "203": np.array([0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10]),
    }
    month_w = np.array([0.14, 0.12, 0.06, 0.05, 0.05, 0.04, 0.04, 0.05, 0.06, 0.09, 0.14, 0.16])
    hour_w = np.full(24, 0.5)
    for h, boost in ((5, 2.5), (6, 2.0), (17, 1.5), (18, 3.5), (19, 2.5), (20, 1.0), (22, 0.5)):
        hour_w[h] += boost
    hour_w /= hour_w.sum()

    train = _structured_draw(rng, 4000, 2020, 2022, lines, p_line, seg_w, month_w, hour_w)
    test = _structured_draw(rng, 1000, 2023, 2023, lines, p_line, seg_w, month_w, hour_w)
    model = fit(dataset_of(train, dt.date(2020, 1, 1), dt.date(2022, 12, 31)))
    traffic = traffic_of({(line, i): 100.0 for line in lines for i in range(10)})
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, (1e-6,))
    values = np.concatenate([grid.line_cells(line)[0].ravel() for line in grid.lines])
    theta = float(np.quantile(values[np.isfinite(values)], 0.75))
    report = evaluate_holdout_for_acceptance(grid, test, theta)
    assert 0.1 <= report.warned_fraction <= 0.5
    assert report.hit_rate > report.warned_fraction


def evaluate_holdout_for_acceptance(grid, test_records, theta):
    from wildrail import evaluate_holdout

    test = dataset_of(test_records, dt.date(2023, 1, 1), dt.date(2023, 12, 31))
    return evaluate_holdout(grid, test, theta)


def test_criterion_7_speed_correlation_behavior() -> None:
    """|Pearson| < 0.2 on speed-independent risk; exactly 1 on linear risk.

    Plus: a 10-line x 100 km grid sweep must finish inside 1 s.
    """
    rng = np.random.default_rng(7)
    lines = [str(300 + i) for i in range(8)]
    period = (dt.date(2020, 1, 1), dt.date(2020, 12, 31))

    def build(counts_fn, speeds_fn, m_per_bin):
        records, speed_map, counts = [], {}, {}
        bin_no = 0
        for line in lines:
            intervals = []
            for i in range(25):
                speed = speeds_fn(bin_no, rng)
                intervals.append((i * 5.0, (i + 1) * 5.0, speed))
                counts[(line, i)] = m_per_bin
                for k in range(counts_fn(bin_no, rng)):
                    records.append(
                        AccidentRecord(
                            date=dt.date(2020, 1 + (k + bin_no) % 12, 1 + k % 28),
                            time=(bin_no * 37 + k * 11) % 1440,
                            line=line,
                            km=i * 5.0 + (k % 5),
                        )
                    )
                bin_no += 1
            speed_map[line] = SpeedProfile(line=line, intervals=tuple(intervals))
        data = dataset_of(records, *period)
        return data, traffic_of(counts), speed_map

    independent = build(
        lambda b, r: int(r.poisson(4.0)), lambda b, r: float(r.uniform(60.0, 160.0)), 100.0
    )
    report = speed_correlation(*independent, delta_x=5.0)
    assert report.n == 200
    assert abs(report.pearson) < 0.2

    linear = build(lambda b, r: 20 + b, lambda b, r: 60.0 + 0.5 * b, 50.0)
    report = speed_correlation(*linear, delta_x=5.0)
    assert report.n == 200
    assert abs(report.pearson - 1.0) <= 1e-9

    # sweep performance on a 10-line network, 100 km at 5 km bins, 12 months, 24 hours
    rng2 = np.random.default_rng(70)
    sweep_lines = [str(400 + i) for i in range(10)]
    records = [
        AccidentRecord(
            date=dt.date(2020, int(rng2.integers(1, 13)), int(rng2.integers(1, 29))),
            time=int(rng2.integers(0, 1440)),
            line=sweep_lines[int(rng2.integers(0, 10))],
            km=float(rng2.uniform(0.0, 100.0)),
        )
        for _ in range(2000)
    ]
    data = dataset_of(records, *period)
    model = fit(data)
    traffic = traffic_of({(line, i): 120.0 for line in sweep_lines for i in range(20)})
    started = time.perf_counter()
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, (0.0005, 0.001, 0.002))
    elapsed = time.perf_counter() - started
    assert grid.n_cells() == 10 * 20 * 12 * 24
    assert elapsed < 1.0


def test_criterion_8_byte_identical_reruns(tmp_path: Path) -> None:
    """fit, warn, and eval run twice must produce byte-identical files."""
    accidents = str(DATA_DIR / "accidents_2020_2022.csv")
    traffic = str(DATA_DIR / "traffic.csv")
    test_csv = str(DATA_DIR / "accidents_2023_test.csv")
    geometry = str(DATA_DIR / "lines.geojson")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(
            ["fit", "--accidents", accidents, "--days-per-year", "365",
             "--period-start", "2020-01-01", "--period-end", "2022-12-31",
             "--out-dir", str(out)]
        ) == 0
        assert main(
            ["warn", "--model", str(out / "model.json"), "--traffic", traffic,
             "--geometry", geometry, "--out-dir", str(out)]
        ) == 0
        assert main(
            ["eval", "--model", str(out / "model.json"), "--traffic", traffic,
             "--test", test_csv, "--theta", "0.001", "--out-dir", str(out)]
        ) == 0
        outs.append(out)
    for filename in ("model.json", "warnings.csv", "warnings.geojson", "eval.json"):
        a, b = outs[0] / filename, outs[1] / filename
        assert filecmp.cmp(a, b, shallow=False), filename
        assert a.read_bytes() == b.read_bytes()

"""Traffic profile, per-train probabilities, warning grids, exports."""

from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import datetime as dt
import hashlib
import io
import json
import math
import pickle
import re
import tempfile
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import wildrail.analysis
import wildrail.cli
import wildrail.model
import wildrail.warn
from wildrail import (
    DEFAULT_PROFILE,
    FLAG_EXCEEDS_UNITY,
    FLAG_NO_TRAFFIC,
    AccidentRecord,
    BinConfig,
    EvalReport,
    LineGeometry,
    NoTrafficError,
    TrafficProfile,
    TrafficTable,
    WarningGrid,
    alpha,
    bin_index,
    evaluate_holdout,
    fit,
    p_per_train,
    parse_traffic,
    sweep_all,
    warnings_to_csv,
    warnings_to_geojson,
)
from conftest import DATA_DIR, dataset_of, make_synthetic, traffic_of
from oracles import (
    alpha_fraction,
    cell_of,
    census_loop,
    dense_grid_cells,
    evaluate_holdout_loop,
    partition_mass,
    warnings_to_csv_loop,
    warnings_to_geojson_loop,
)

THRESHOLDS = (0.0005, 0.001, 0.002)


def csv_text(grid) -> str:
    out = io.StringIO()
    warnings_to_csv(grid, out)
    return out.getvalue()


@pytest.fixture(scope="module")
def bundled_grid(bundled_model, bundled_traffic):
    return sweep_all(bundled_model, bundled_traffic, DEFAULT_PROFILE, THRESHOLDS)


# --- traffic profile and alpha ---


def test_alpha_piece_rates_are_exact() -> None:
    assert alpha(2.0, 1.0) == 0.05 / 4
    assert alpha(7.0, 1.0) == 0.4 / 6
    assert alpha(16.0, 1.0) == 0.4 / 6
    assert alpha(12.0, 1.0) == 0.55 / 14
    assert alpha(4.0, 1.0) == 0.55 / 14
    assert alpha(23.0, 1.0) == 0.55 / 14
    # any window inside one piece sees that piece's rate, whatever its width
    assert alpha(6.0, 3.0) == 0.4 / 6
    assert alpha(9.5, 0.25) == 0.55 / 14


def test_alpha_matches_exact_overlap_average() -> None:
    for t in [Fraction(k, 2) for k in range(0, 48)]:
        for delta in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
            if t + delta > 24:
                continue
            want = alpha_fraction(t, delta, DEFAULT_PROFILE.groups)
            got = alpha(float(t), float(delta))
            assert got == pytest.approx(float(want), rel=1e-12)


def test_alpha_windows_partition_to_unit_mass() -> None:
    # the exact mass sum of the float group weights; a partition recovers it
    # without any discretization loss
    exact_total = sum(Fraction(mass) for mass, _ in DEFAULT_PROFILE.groups)
    for delta in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 24.0):
        total = sum(alpha(i * delta, delta) * delta for i in range(int(24 / delta)))
        assert abs(total - 1.0) <= 1e-12
        assert partition_mass(Fraction(delta), DEFAULT_PROFILE.groups) == exact_total


def test_alpha_rejects_bad_windows() -> None:
    with pytest.raises(ValueError):
        alpha(-0.5, 1.0)
    with pytest.raises(ValueError):
        alpha(24.0, 1.0)
    with pytest.raises(ValueError):
        alpha(23.0, 1.5)
    with pytest.raises(ValueError):
        alpha(0.0, 0.0)


def test_profile_validation() -> None:
    with pytest.raises(ValueError):  # hour 4..6 uncovered
        TrafficProfile(groups=((0.5, ((0.0, 4.0),)), (0.5, ((6.0, 24.0),))))
    with pytest.raises(ValueError):  # overlap at hour 4
        TrafficProfile(groups=((0.5, ((0.0, 5.0),)), (0.5, ((4.0, 24.0),))))
    with pytest.raises(ValueError):  # masses sum to 0.9
        TrafficProfile(groups=((0.4, ((0.0, 4.0),)), (0.5, ((4.0, 24.0),))))
    with pytest.raises(ValueError):
        TrafficProfile(groups=((-0.1, ((0.0, 4.0),)), (1.1, ((4.0, 24.0),))))
    with pytest.raises(ValueError):
        TrafficProfile(groups=((1.0, ((0.0, 25.0),)),))
    flat = TrafficProfile(groups=((1.0, ((0.0, 24.0),)),))
    assert alpha(13.0, 1.0, flat) == 1.0 / 24


def test_traffic_m_window(bundled_model) -> None:
    table = traffic_of({("139", 2): 131.0})
    grid = sweep_all(bundled_model, table, DEFAULT_PROFILE, THRESHOLDS)
    _, (x12, x20), _, (t18, t16) = grid.locate(
        ("139",), np.array([0, 0]), np.array([12.0, 20.0]), np.array([1, 1]),
        np.array([18.0, 16.0]),
    )
    assert min(x12, x20, t18, t16) >= 0
    m_window = grid.m_window["139"]
    # hour 18 sits in the evening off-peak piece, and 16 in the peak
    assert m_window[x12, t18] == (131.0 * (0.55 / 14)) * 1.0
    assert m_window[x12, t16] == (131.0 * (0.4 / 6)) * 1.0
    assert m_window[x20, t18] == 0.0


# --- scalar per-train probability ---


def test_p_per_train_composes_parts(bundled_model, bundled_traffic) -> None:
    p = p_per_train(bundled_model, bundled_traffic, DEFAULT_PROFILE, 1, 18.0, "139", 12.0)
    # January is a short-day month, and km 12.0 is in km bin 2
    temporal = bundled_model.p_time["short"][18] * bundled_model.mu[1]
    segment = bundled_model.p_segment["139"][2 - bundled_model.counts.x_first["139"]]
    spatial = segment * bundled_model.p_line["139"]
    trains = bundled_traffic.counts["139"][2 - bundled_traffic.x_first["139"]]
    m = (trains * alpha(18.0, 1.0, DEFAULT_PROFILE)) * 1.0
    assert p == temporal * spatial / m


def test_p_per_train_requires_traffic(bundled_model) -> None:
    empty = traffic_of({})
    with pytest.raises(NoTrafficError):
        p_per_train(bundled_model, empty, DEFAULT_PROFILE, 1, 18.0, "139", 12.0)


def test_p_per_train_rejects_cells_off_the_grid(bundled_model, bundled_traffic) -> None:
    def p(tau, t=18.0, x=12.0, traffic=bundled_traffic):
        return p_per_train(bundled_model, traffic, DEFAULT_PROFILE, tau, t, "139", x)

    for tau in (0, 13, 1.5):
        with pytest.raises(ValueError, match="month must be 1..12"):
            p(tau)
    for t in (24.0, -0.5):
        with pytest.raises(ValueError, match="hour must be in"):
            p(1, t=t)
    # nor has a non-finite km a bin
    for x in (-1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="km must be non-negative") as err:
            p(1, x=x)
        assert type(err.value) is ValueError
    # the hour is checked first, then the km, then the month, and a cell
    # without traffic is reported only for a month of the year
    with pytest.raises(ValueError, match="hour must be in"):
        p(13, t=24.0, x=-1.0)
    with pytest.raises(ValueError, match="km must be non-negative"):
        p(13, x=-1.0)
    with pytest.raises(ValueError, match="month must be 1..12"):
        p(13, traffic=traffic_of({}))
    assert p(1.0) == p(1)


FLAT_PROFILE = TrafficProfile(groups=((1.0, ((0.0, 24.0),)),))


@given(
    seed=st.integers(0, 5_000),
    delta_t=st.sampled_from([1.0, 24 / 47]),
    data=st.data(),
)
def test_p_per_train_reads_the_sweep_cell_that_locate_finds(seed: int, delta_t: float, data) -> None:
    train, traffic = make_synthetic(np.random.default_rng(seed), max_records=100)
    model = fit(train, bins=BinConfig(delta_x=5.0, delta_t=delta_t))
    # 24/47 h bins straddle the default profile's piece boundaries
    profile = DEFAULT_PROFILE if delta_t == 1.0 else FLAT_PROFILE
    grid = sweep_all(model, traffic, profile, (0.001,))
    edges = [
        k * 5.0
        for line, first in grid.x_first.items()
        for k in range(first, first + grid.m_window[line].shape[0] + 1)
    ]
    # bin edges and their neighbours, points off the bin starts, and kms without a bin
    km = st.one_of(
        st.sampled_from(edges).flatmap(
            lambda e: st.sampled_from([e, math.nextafter(e, -1.0), math.nextafter(e, 1e9)])
        ),
        st.floats(min_value=-10.0, max_value=60.0, allow_nan=False),
        st.sampled_from([-1.0, -0.0, -1e-300, math.inf, -math.inf, math.nan]),
    )
    # the stretch from n_t * delta_t to 24 h is past the last 24/47 h bin
    hour = st.one_of(
        st.sampled_from(
            [0.0, -0.0, 24.0, math.nextafter(24.0, 0.0), grid.n_t * delta_t, -1e-12, math.nan]
        ),
        st.floats(min_value=-2.0, max_value=26.0, allow_nan=False),
    )
    month = st.one_of(st.integers(1, 12), st.sampled_from([0, 13, -1, 1.5, 12.0, math.nan]))
    queries = data.draw(
        st.lists(
            st.tuples(st.sampled_from(grid.lines + ("999",)), km, month, hour),
            min_size=1,
            max_size=20,
        )
    )
    for line, x, tau, t in queries:
        _, _, (mi,), (ti,) = grid.locate((line,), [0], [x], [tau], [t])
        off_grid = [
            (ti < 0, "hour must be in"),
            (not 0.0 <= x < math.inf, "km must be non-negative and finite"),
            (mi < 0, "month must be 1..12"),
        ]
        missed = [message for miss, message in off_grid if miss]
        if missed:
            event(f"off the grid: {missed[0]}")
            # the hour is checked first, then the km, then the month
            with pytest.raises(ValueError, match=missed[0]) as err:
                p_per_train(model, traffic, profile, tau, t, line, x)
            assert type(err.value) is ValueError
            continue
        # the sweep's cell in the km bin holding x; an unknown line has no span
        n_x = grid.m_window[line].shape[0] if line in grid.x_first else 0
        xi = bin_index(x, grid.delta_x) - grid.x_first.get(line, 0)
        if not 0 <= xi < n_x:
            event("off the line's span")
            with pytest.raises(NoTrafficError):
                p_per_train(model, traffic, profile, tau, t, line, x)
            continue
        p = grid.line_cells(line)
        no_traffic = bool(grid.m_window[line][xi, ti] == 0.0)
        event(f"{delta_t!r} h bins, no traffic: {no_traffic}")
        if no_traffic:
            assert np.isnan(p[xi, mi, ti])
            with pytest.raises(NoTrafficError):
                p_per_train(model, traffic, profile, tau, t, line, x)
        else:
            assert p_per_train(model, traffic, profile, tau, t, line, x) == p[xi, mi, ti]


# --- grid construction ---


def test_sweep_covers_model_and_traffic_bins(bundled_grid, bundled_model, bundled_traffic) -> None:
    assert bundled_grid.lines == bundled_model.lines == ("1", "139", "140")
    assert bundled_grid.months == tuple(range(1, 13))
    assert bundled_grid.n_t == 24
    for line in bundled_grid.lines:
        first, n_x = bundled_grid.x_first[line], bundled_grid.m_window[line].shape[0]
        traffic_first = bundled_traffic.x_first[line]
        traffic_bins = set(range(traffic_first, traffic_first + len(bundled_traffic.counts[line])))
        model_first = bundled_model.counts.x_first[line]
        model_bins = set(range(model_first, model_first + len(bundled_model.p_segment[line])))
        covered = model_bins | traffic_bins
        assert covered <= set(range(first, first + n_x))
        assert bundled_grid.line_cells(line).shape == (n_x, 12, 24)
        assert bundled_grid.m_window[line].shape == (n_x, 24)
    assert bundled_grid.n_cells() == sum(
        bundled_grid.m_window[line].shape[0] * 12 * 24 for line in bundled_grid.lines
    )


def test_grid_cells_match_scalar_recomputation(bundled_grid, bundled_model, bundled_traffic) -> None:
    # bit-for-bit: the vectorized sweep must equal one-at-a-time evaluation
    for line in bundled_grid.lines:
        first = bundled_grid.x_first[line]
        p_pt = bundled_grid.line_cells(line)
        for xi in range(0, p_pt.shape[0], 3):
            for mi in range(0, 12, 5):
                for ti in range(0, 24, 7):
                    got = float(p_pt[xi, mi, ti])
                    want = p_per_train(
                        bundled_model,
                        bundled_traffic,
                        DEFAULT_PROFILE,
                        mi + 1,
                        float(ti),
                        line,
                        (first + xi) * 5.0,
                    )
                    assert got == want


def test_thresholds_are_sorted_and_deduplicated(bundled_model, bundled_traffic) -> None:
    grid = sweep_all(bundled_model, bundled_traffic, DEFAULT_PROFILE, (0.002, 0.0005, 0.002))
    assert grid.thresholds == (0.0005, 0.002)
    with pytest.raises(ValueError):
        sweep_all(bundled_model, bundled_traffic, DEFAULT_PROFILE, ())
    with pytest.raises(ValueError):
        sweep_all(bundled_model, bundled_traffic, DEFAULT_PROFILE, (0.0, 0.001))
    with pytest.raises(ValueError):
        sweep_all(bundled_model, bundled_traffic, DEFAULT_PROFILE, (-0.001,))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            sweep_all(bundled_model, bundled_traffic, DEFAULT_PROFILE, (0.001, bad))


def test_sweep_refuses_a_grid_past_the_cell_limit(
    bundled_model, bundled_traffic, monkeypatch
) -> None:
    # the bundled grid fits a limit of exactly its own size, and the line that
    # takes it one cell past that limit is named; checked first, so a missing
    # check fails here and never lays out the grid below
    monkeypatch.setattr(wildrail.model, "MAX_GRID_CELLS", 10_656)
    assert sweep_all(bundled_model, bundled_traffic, DEFAULT_PROFILE, THRESHOLDS).n_cells() == 10_656
    monkeypatch.setattr(wildrail.model, "MAX_GRID_CELLS", 10_655)
    with pytest.raises(ValueError, match="line '140' spans km"):
        sweep_all(bundled_model, bundled_traffic, DEFAULT_PROFILE, THRESHOLDS)
    monkeypatch.undo()
    # traffic at km 5,000,000 would stretch line 139 over a million 5 km bins
    far = traffic_of({("139", 1_000_000): 1.0})
    with pytest.raises(ValueError, match=r"line '139' spans km 0\.0\.\.5000005\.0, .* 50,000,000 cells"):
        sweep_all(bundled_model, far, DEFAULT_PROFILE, THRESHOLDS)


def test_bins_read_a_run_with_zeros_off_it() -> None:
    run = np.array([1.0, 2.0, 3.0])  # km bins 5..7
    assert wildrail.warn._bins(run, 5, 3, 9).tolist() == [0.0, 0.0, 1.0, 2.0, 3.0, 0.0, 0.0]
    assert wildrail.warn._bins(run, 5, 6, 6).tolist() == [2.0]
    # windows wholly before or after the run, some wider than the gap to it
    for lo, hi in ((0, 4), (0, 1), (8, 9), (10, 20), (100, 103)):
        assert wildrail.warn._bins(run, 5, lo, hi).tolist() == [0.0] * (hi - lo + 1)


def test_count_and_run_tables_of_the_same_counts_sweep_alike(bundled_model) -> None:
    runs = (("139", 0.0, 60.0), ("139", 12.5, 30.0), ("140", 3.0, 4.0), ("1", 0.0, 45.5),
            ("139", 55.0, 80.0), ("999", 7.5, 10.0))
    run_text = "line,km_from,km_to,departure\n" + "".join(
        f"{line},{km_from!r},{km_to!r},06:00\n" for line, km_from, km_to in runs
    )
    # one count row per (line, bin) a run overlaps, latest bins first
    counts: dict[tuple[str, int], float] = {}
    for line, km_from, km_to in runs:
        for k in range(math.floor(km_from / 5.0), math.ceil(km_to / 5.0)):
            counts[(line, k)] = counts.get((line, k), 0.0) + 1.0
    count_text = "line,km_from,count\n" + "".join(
        f"{line},{k * 5.0!r},{count!r}\n" for (line, k), count in reversed(counts.items())
    )
    from_runs, from_counts = parse_traffic(run_text, 5.0), parse_traffic(count_text, 5.0)
    assert from_runs == from_counts == traffic_of(counts)
    assert from_runs != traffic_of({**counts, ("139", 0): 2.0})
    grids = [sweep_all(bundled_model, table, DEFAULT_PROFILE, THRESHOLDS)
             for table in (from_runs, from_counts)]
    assert csv_text(grids[0]) == csv_text(grids[1])


def test_mismatched_traffic_bin_width_is_rejected(bundled_model) -> None:
    table = traffic_of({("139", 4): 131.0}, delta_x=2.5)
    with pytest.raises(ValueError):
        sweep_all(bundled_model, table, DEFAULT_PROFILE, THRESHOLDS)


# --- warned state ---


def test_warning_threshold_is_strict(bundled_grid) -> None:
    arr = bundled_grid.line_cells("139")
    finite = arr[np.isfinite(arr) & (arr > 0)]
    value = float(finite.max())
    at = bundled_grid.warned_cells(value)
    just_below = bundled_grid.warned_cells(value * (1 - 1e-12))
    assert at < just_below  # the maximum itself never warns at theta == p_pt


def test_warned_counts_match_cell_loop(bundled_grid) -> None:
    # thresholds equal to p_pt values of the grid check that each count is strict
    values = bundled_grid.line_cells("139")
    thetas = sorted(set(values[~np.isnan(values)].tolist()))[::25] + [0.0, 0.001, math.inf]
    cells = [p for line in bundled_grid.lines for p in bundled_grid.line_cells(line).ravel().tolist()]
    counts = bundled_grid.census(thetas).warned
    assert counts == tuple(sum(1 for p in cells if p > theta) for theta in thetas)
    assert counts == tuple(bundled_grid.warned_cells(theta) for theta in thetas)
    assert len(thetas) > 10 and counts[-1] == 0


def assert_census_matches_cell_loop(grid, thetas) -> None:
    census = grid.census(thetas)
    assert census._asdict() == census_loop(grid, thetas)
    assert census.cells == grid.n_cells()


def test_census_matches_cell_loop(bundled_grid) -> None:
    assert_census_matches_cell_loop(bundled_grid, bundled_grid.thresholds)
    census = bundled_grid.census()
    assert census == bundled_grid.census(bundled_grid.thresholds)
    assert census.warned == (1384, 301, 71)  # the bundled warn summary
    assert census.flagged == {FLAG_NO_TRAFFIC: 0, FLAG_EXCEEDS_UNITY: 0}


def test_census_matches_cell_loop_on_flagged_cells(bundled_model) -> None:
    # traffic in one bin leaves no_traffic cells; 1e-6 trains a day push p_pt past 1
    grid = sweep_all(
        bundled_model, traffic_of({("139", 2): 131.0, ("140", 1): 1e-6}), DEFAULT_PROFILE, THRESHOLDS
    )
    census = grid.census()
    assert census.flagged[FLAG_NO_TRAFFIC] > census.cells / 2
    assert census.flagged[FLAG_EXCEEDS_UNITY] > 0
    # unsorted thetas: warned_bins counts at the first one given
    for thetas in (THRESHOLDS, (0.002, 0.0, 1.0), (math.inf,)):
        assert_census_matches_cell_loop(grid, thetas)


@given(seed=st.integers(0, 5_000), delta_t=st.sampled_from([1.0, 0.5]))
@settings(max_examples=15)
def test_census_matches_cell_loop_on_synthetic_data(seed: int, delta_t: float) -> None:
    data, traffic = make_synthetic(np.random.default_rng(seed), max_records=200)
    # thin and missing traffic give exceeds_unity and no_traffic cells
    scale = (1.0, 1e-3, 0.0)[seed % 3]
    traffic = TrafficTable(traffic.x_first, {line: run * scale for line, run in traffic.counts.items()}, 5.0)
    grid = sweep_all(fit(data, bins=BinConfig(delta_x=5.0, delta_t=delta_t)), traffic, DEFAULT_PROFILE, THRESHOLDS)
    assert_census_matches_cell_loop(grid, THRESHOLDS)


def test_sweep_peak_memory_stays_near_its_output() -> None:
    # the grid stores its factors, a few numbers per km bin; array headers and
    # the per-line mappings add about 30 % to them, while laying out even one
    # byte per cell would add more than the bound's 50 %
    train, traffic = make_synthetic(np.random.default_rng(2), max_records=2000, max_lines=40)
    model = fit(train)
    tracemalloc.start()
    try:
        grid = sweep_all(model, traffic, DEFAULT_PROFILE, THRESHOLDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid.lines) >= 20
    tables = (grid.spatial, grid.m_window)
    factors = grid.temporal.nbytes + sum(arr.nbytes for table in tables for arr in table.values())
    assert grid.n_cells() > 0.5 * factors
    assert peak <= 1.5 * factors


def _assert_cells_equal_dense_build(model, traffic) -> None:
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, THRESHOLDS)
    alpha_vec = [alpha(ti * grid.delta_t, grid.delta_t, DEFAULT_PROFILE) for ti in range(grid.n_t)]
    spans = {line: (lo, lo + grid.m_window[line].shape[0] - 1) for line, lo in grid.x_first.items()}
    dense = dense_grid_cells(model, traffic, alpha_vec, spans)
    assert tuple(dense) == grid.lines
    for line, (p_pt, m_window) in dense.items():
        got_p = grid.line_cells(line)
        # bit for bit: NaN payloads, signed zeros and infinities included
        for got, want in ((got_p, p_pt), (grid.m_window[line], m_window)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # p_pt is NaN exactly in the no_traffic cells, where m_window is 0
        no_traffic = np.broadcast_to((m_window == 0.0)[:, None, :], got_p.shape)
        assert np.array_equal(np.isnan(got_p), no_traffic)


def test_line_cells_equal_the_dense_build(bundled_model, bundled_traffic) -> None:
    _assert_cells_equal_dense_build(bundled_model, bundled_traffic)
    # cells without traffic, and a p_pt that overflows to inf
    _assert_cells_equal_dense_build(bundled_model, traffic_of({("139", 2): 131.0, ("140", 1): 1e-320}))


@given(seed=st.integers(0, 5_000), delta_t=st.sampled_from([1.0, 0.5, 0.25]))
@settings(max_examples=25)
def test_line_cells_equal_the_dense_build_on_synthetic_data(seed: int, delta_t: float) -> None:
    data, traffic = make_synthetic(np.random.default_rng(seed), max_records=300)
    # thin and missing traffic give exceeds_unity and no_traffic cells
    scale = (1.0, 1e-3, 0.0)[seed % 3]
    traffic = TrafficTable(traffic.x_first, {line: run * scale for line, run in traffic.counts.items()}, 5.0)
    _assert_cells_equal_dense_build(fit(data, bins=BinConfig(delta_x=5.0, delta_t=delta_t)), traffic)


def test_each_reader_computes_a_line_at_most_once(
    bundled_grid, bundled_test_data, bundled_geometries, monkeypatch
) -> None:
    # every reader computes a line's p_pt through line_cells
    calls: list[str] = []
    line_cells = WarningGrid.line_cells

    def spy(grid, line):
        calls.append(line)
        return line_cells(grid, line)

    monkeypatch.setattr(WarningGrid, "line_cells", spy)
    grid = bundled_grid
    readers = {
        "evaluate_holdout": lambda: evaluate_holdout(grid, bundled_test_data, 0.001),
        "evaluate_holdout adjacent": lambda: evaluate_holdout(
            grid, bundled_test_data, 0.001, include_adjacent=True
        ),
        "census": lambda: grid.census(),
        "warned_cells": lambda: grid.warned_cells(0.001),
        "warnings_to_csv": lambda: warnings_to_csv(grid, CharCount()),
        "warnings_to_geojson": lambda: warnings_to_geojson(grid, bundled_geometries, 0.001),
    }
    for name, read in readers.items():
        calls.clear()
        read()
        assert sorted(calls) == sorted(grid.lines), name
    # warn reads each line once for its census, which its summary and stderr
    # warnings print, and once for the CSV
    calls.clear()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        model = DATA_DIR.parent / "demos" / "output" / "model.json"
        argv = ["warn", "--model", str(model), "--traffic", str(DATA_DIR / "traffic.csv"), "--out-dir", out]
        assert wildrail.cli.main(argv) == 0
    assert sorted(calls) == sorted(grid.lines * 2)


def test_a_grid_is_read_only(bundled_model, bundled_traffic) -> None:
    grid = sweep_all(bundled_model, bundled_traffic, DEFAULT_PROFILE, THRESHOLDS)
    text = csv_text(grid)
    for arr in (grid.temporal, grid.spatial["139"], grid.m_window["139"]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 5.0
    for table in (grid.x_first, grid.spatial, grid.m_window):
        with pytest.raises(TypeError):
            table["139"] = table["139"]
        with pytest.raises(TypeError):
            del table["139"]
    # the grid stores read-only views: the arrays it is built from keep their flags
    temporal, m_window = np.array(grid.temporal), np.array(grid.m_window["139"])
    built = dataclasses.replace(grid, temporal=temporal, m_window={**grid.m_window, "139": m_window})
    assert temporal.flags.writeable and m_window.flags.writeable
    assert not built.temporal.flags.writeable and not built.m_window["139"].flags.writeable
    # the arrays line_cells returns are the caller's own
    p_pt = grid.line_cells("139")
    kept = p_pt.copy()
    p_pt[...] = 5.0
    assert np.array_equal(grid.line_cells("139"), kept)
    assert csv_text(grid) == text
    # a mappingproxy cannot be pickled; the grid still can
    for copied in (pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid)):
        assert csv_text(copied) == text
        with pytest.raises(TypeError):
            copied.m_window["139"] = grid.m_window["139"]
        with pytest.raises(ValueError, match="read-only"):
            copied.temporal[0] = 5.0


def one_bin_grid(**changes) -> dict:
    """The fields of a valid grid of one line, one km bin and one hour bin, with ``changes``."""
    fields = {
        "delta_x": 5.0, "delta_t": 24.0, "thresholds": (0.001,), "n_t": 1, "x_first": {"a": 0},
        "temporal": np.full((12, 1), 0.5), "spatial": {"a": np.array([1.0])},
        "m_window": {"a": np.array([[2.0]])},
    }
    return {**fields, **changes}


# grids sweep_all could not have built, one broken rule each, and the error that
# names the field; the first two built unchecked once, and their census then
# counted NaN cells as traffic or raised KeyError: 'b'
BAD_GRIDS = {
    "NaN spatial over a window of -1 trains": (
        ValueError, r"spatial\['a'\] entries must be finite and >= 0, got nan",
        one_bin_grid(spatial={"a": np.array([np.nan])}, m_window={"a": np.array([[-1.0]])})),
    "line b without tables": (
        ValueError, r"spatial must name the lines of x_first in its order \['a', 'b'\]",
        one_bin_grid(x_first={"a": 0, "b": 0}, temporal=np.full((5, 2), 0.5), n_t=3,
                     m_window={"a": np.array([[2.0, 2.0]])})),
    "m_window lines in another order": (
        ValueError, "m_window must name the lines of x_first",
        one_bin_grid(x_first={"a": 0, "b": 4}, spatial={"a": np.ones(1), "b": np.ones(1)},
                     m_window={"b": np.ones((1, 1)), "a": np.ones((1, 1))})),
    "temporal not 12 x n_t": (
        ValueError, r"temporal must have shape \(12, 1\), got \(12, 2\)",
        one_bin_grid(temporal=np.full((12, 2), 0.5))),
    "temporal of bools": (TypeError, "temporal", one_bin_grid(temporal=np.ones((12, 1), bool))),
    "negative temporal": (
        ValueError, "temporal entries must be finite and >= 0, got -0.5",
        one_bin_grid(temporal=np.full((12, 1), -0.5))),
    "spatial of two dimensions": (
        ValueError, r"spatial\['a'\] must have shape \(n_x,\) with n_x >= 1, got \(1, 1\)",
        one_bin_grid(spatial={"a": np.ones((1, 1))})),
    "no km bins": (
        ValueError, r"spatial\['a'\] must have shape \(n_x,\) with n_x >= 1, got \(0,\)",
        one_bin_grid(spatial={"a": np.ones(0)}, m_window={"a": np.ones((0, 1))})),
    "m_window not n_x x n_t": (
        ValueError, r"m_window\['a'\] must have shape \(1, 1\), got \(2, 1\)",
        one_bin_grid(m_window={"a": np.ones((2, 1))})),
    "infinite m_window": (
        ValueError, r"m_window\['a'\] entries must be finite and >= 0, got inf",
        one_bin_grid(m_window={"a": np.array([[np.inf]])})),
    "m_window of strings": (
        TypeError, r"m_window\['a'\]", one_bin_grid(m_window={"a": np.array([["2"]])})),
    "no lines": (
        ValueError, "x_first must name at least one line", one_bin_grid(x_first={}, spatial={}, m_window={})),
    "negative delta_x, with thresholds and x_first that also break rules": (
        ValueError, "delta_x must be positive and finite, got -5.0",
        one_bin_grid(delta_x=-5.0, thresholds=(0.002, 0.001, 0.001), x_first={"a": -3})),
    "delta_t not dividing the day": (
        ValueError, "delta_t=7.0 must divide 24 hours", one_bin_grid(delta_t=7.0)),
    "n_t not the hour bins of delta_t": (
        ValueError, r"n_t must be the int 1, the hour bins of delta_t=24.0, got 2",
        one_bin_grid(n_t=2, temporal=np.full((12, 2), 0.5), m_window={"a": np.ones((1, 2))})),
    "n_t of a bool": (ValueError, "n_t must be the int 1, .* got True", one_bin_grid(n_t=True)),
    "thresholds out of order": (
        ValueError, r"thresholds must be sorted and distinct, got \(0.002, 0.001\)",
        one_bin_grid(thresholds=(0.002, 0.001))),
    "repeated threshold": (
        ValueError, r"thresholds must be sorted and distinct, got \(0.001, 0.001\)",
        one_bin_grid(thresholds=(0.001, 0.001))),
    "zero threshold": (
        ValueError, "thresholds must be positive and finite, got 0.0", one_bin_grid(thresholds=(0.0,))),
    "infinite threshold": (
        ValueError, "thresholds must be positive and finite, got inf", one_bin_grid(thresholds=(math.inf,))),
    "threshold of a string": (
        TypeError, "thresholds must be an integer or a float", one_bin_grid(thresholds=("0.001",))),
    "negative x_first": (
        ValueError, r"x_first\['a'\] must be an int >= 0, got -3", one_bin_grid(x_first={"a": -3})),
    "x_first of a float": (
        ValueError, r"x_first\['a'\] must be an int >= 0, got 3.0", one_bin_grid(x_first={"a": 3.0})),
}


@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_a_grid_sweep_all_could_not_build_is_refused(name: str) -> None:
    error, message, fields = BAD_GRIDS[name]
    with pytest.raises(error, match=message):
        WarningGrid(**fields)


def test_a_valid_grid_builds_from_its_factors_without_copying_them() -> None:
    fields = one_bin_grid()
    grid = WarningGrid(**fields)
    assert np.shares_memory(grid.temporal, fields["temporal"])
    assert np.shares_memory(grid.m_window["a"], fields["m_window"]["a"])
    assert grid.census().flagged == {FLAG_NO_TRAFFIC: 0, FLAG_EXCEEDS_UNITY: 0}
    assert np.array_equal(pickle.loads(pickle.dumps(grid)).line_cells("a"), grid.line_cells("a"))
    # no thresholds, as p_per_train builds its grid; numpy thresholds are kept as floats
    assert WarningGrid(**one_bin_grid(thresholds=())).census().warned == ()
    grid = WarningGrid(**one_bin_grid(thresholds=(np.float64(0.001), 1)))
    assert grid.thresholds == (0.001, 1.0) and {type(theta) for theta in grid.thresholds} == {float}
    assert pickle.loads(pickle.dumps(grid)).thresholds == grid.thresholds


# factors whose products and quotients are exact, so cells tie with thresholds
EXACT = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0])


@settings(max_examples=100, deadline=None)
@given(delta_t=st.sampled_from([24.0, 8.0, 6.0]), block=st.sampled_from([1, 3, 1 << 15]), data=st.data())
def test_grids_built_from_drawn_factors_agree_with_the_cell_loops(
    delta_t: float, block: int, data
) -> None:
    # valid grids straight from drawn factors: zero windows give no_traffic cells, small
    # windows p_pt above 1, and thresholds drawn from the cells' own p_pt tie with them
    n_t = BinConfig(5.0, delta_t).n_t_bins
    lines = data.draw(st.lists(st.sampled_from(["1", "139", "a b"]), min_size=1, max_size=3, unique=True))

    def factors(*shape: int) -> np.ndarray:
        size = math.prod(shape)
        values = st.lists(EXACT | st.floats(0.0, 4.0), min_size=size, max_size=size)
        return np.array(data.draw(values), dtype=float).reshape(shape)

    n_x = {line: data.draw(st.integers(1, 4)) for line in lines}
    probe = WarningGrid(
        delta_x=5.0, delta_t=delta_t, thresholds=(), n_t=n_t,
        x_first={line: data.draw(st.integers(0, 3)) for line in lines},
        temporal=factors(12, n_t),
        spatial={line: factors(n_x[line]) for line in lines},
        m_window={line: factors(n_x[line], n_t) for line in lines},
    )
    cells = [p for line in lines for p in probe.line_cells(line).ravel().tolist()]
    own = sorted({p for p in cells if 0.0 < p < math.inf})
    choices = st.sampled_from(own + [0.5, 1.0])
    grid = dataclasses.replace(probe, thresholds=tuple(sorted(set(data.draw(st.lists(choices, max_size=3))))))
    flagged = grid.census().flagged
    event(f"no_traffic: {flagged[FLAG_NO_TRAFFIC] > 0}, exceeds_unity: {flagged[FLAG_EXCEEDS_UNITY] > 0}")
    event(f"a cell equal to a threshold: {bool(set(grid.thresholds) & set(own))}")
    # census thetas in any order, repeats and 0 allowed
    assert_census_matches_cell_loop(grid, data.draw(st.lists(choices | st.just(0.0), max_size=4)))
    csv_rows = csv_text(grid).splitlines(keepends=True)
    assert_same_rows(csv_rows, warnings_to_csv_loop(grid).splitlines(keepends=True), "CSV row")
    # hold-out accidents on each line and on one the grid lacks, at bin edges, past
    # either end of a line and in between
    edges = [5.0 * (grid.x_first[line] + xi) for line in lines for xi in range(n_x[line] + 2)]
    rows = data.draw(st.lists(
        st.tuples(
            st.sampled_from([*lines, "999"]),
            st.sampled_from(edges) | st.floats(0.0, max(edges) + 5.0),
            st.integers(1, 12),
            st.integers(0, 24 * 60 - 1),
        ),
        min_size=1, max_size=20,
    ))
    records = [
        AccidentRecord(date=dt.date(2023, month, 1), time=time, line=line, km=km)
        for line, km, month, time in rows
    ]
    test = dataset_of(records, dt.date(2023, 1, 1), dt.date(2023, 12, 31))
    theta = data.draw(choices | st.just(0.0))
    with mock.patch.object(wildrail.analysis, "_BLOCK", block):
        for adjacent in (False, True):
            report = evaluate_holdout(grid, test, theta, include_adjacent=adjacent)
            assert report == EvalReport(**evaluate_holdout_loop(grid, records, theta, adjacent))


def test_census_never_warns_a_nan_cell(bundled_model) -> None:
    table = traffic_of({("139", 2): 131.0})
    grid = sweep_all(bundled_model, table, DEFAULT_PROFILE, THRESHOLDS)
    p_pt = [grid.line_cells(line) for line in grid.lines]
    assert sum(int(np.isnan(p).sum()) for p in p_pt) > 0
    # a NaN cell counts as a p_pt of zero, never as a warning
    census = grid.census((1e-12,))
    assert census.warned == (sum(int((np.nan_to_num(p, nan=0.0) > 1e-12).sum()) for p in p_pt),)
    assert census.warned_bins == {
        line: tuple((np.nan_to_num(p, nan=0.0) > 1e-12).any(axis=2).sum(axis=0).tolist())
        for line, p in zip(grid.lines, p_pt)
    }


def test_flags_mirror_undefined_cells(bundled_model) -> None:
    rng = np.random.default_rng(42)
    grids = [
        sweep_all(fit(data), traffic, DEFAULT_PROFILE, THRESHOLDS)
        for data, traffic in (make_synthetic(rng, max_records=250) for _ in range(5))
    ]
    # traffic in one bin leaves no_traffic cells; 1e-6 trains a day push p_pt past 1
    table = traffic_of({("139", 2): 131.0, ("140", 1): 1e-6})
    grids.append(sweep_all(bundled_model, table, DEFAULT_PROFILE, THRESHOLDS))
    for grid in grids:
        # the CSV's flags column, in the cell order of the lines' p_pt arrays
        flags = np.array([row[8] for row in list(csv.reader(io.StringIO(csv_text(grid))))[1:]])
        p = np.concatenate([grid.line_cells(line).ravel() for line in grid.lines])
        window = np.concatenate(
            [np.repeat(grid.m_window[line][:, None, :], 12, axis=1).ravel() for line in grid.lines]
        )
        # no cell has both flags: the column holds one name at most
        assert set(flags.tolist()) <= {"", FLAG_NO_TRAFFIC, FLAG_EXCEEDS_UNITY}
        no_traffic, exceeds = flags == FLAG_NO_TRAFFIC, flags == FLAG_EXCEEDS_UNITY
        assert np.array_equal(no_traffic, window == 0.0)
        assert np.array_equal(no_traffic, np.isnan(p))
        with np.errstate(invalid="ignore"):
            assert np.array_equal(exceeds, p > 1.0)
        counts = {FLAG_NO_TRAFFIC: int(no_traffic.sum()), FLAG_EXCEEDS_UNITY: int(exceeds.sum())}
        assert grid.census().flagged == counts
    assert all(grids[-1].census().flagged.values())  # the bundled-model grid has both flags


def test_exceeds_unity_flag_keeps_cell_warnable() -> None:
    # one accident over a week of exposure against a single daily train pushes
    # the per-train ratio far above 1; the cell must stay finite and warned
    record = AccidentRecord(date=dt.date(2021, 1, 5), time=12 * 60 + 30, line="9", km=2.0)
    data = dataset_of((record,), dt.date(2021, 1, 1), dt.date(2021, 1, 7))
    traffic = traffic_of({("9", 0): 1.0})
    grid = sweep_all(fit(data), traffic, DEFAULT_PROFILE, (0.001,))
    _, (xi,), (mi,), (ti,) = grid.locate(
        ("9",), np.array([0]), np.array([2.0]), np.array([1]), np.array([12.5])
    )
    p = float(grid.line_cells("9")[xi, mi, ti])
    assert p > 1.0
    assert grid.m_window["9"][xi, ti] > 0.0  # exceeds_unity alone
    assert grid.census().warned_bins["9"][mi] == 1  # the line's one km bin is warned
    row = list(csv.reader(io.StringIO(csv_text(grid))))[1 + (mi * 24) + ti]
    assert row[:5] == ["9", "0.0", "5.0", "1", "12.0"]
    assert row[7:] == [repr(p), FLAG_EXCEEDS_UNITY, "1"]


def test_an_overflowing_p_pt_is_flagged_without_a_warning(bundled_model) -> None:
    # 1e-320 trains a day is finite and non-negative, but dividing by it
    # overflows; the suite turns numpy's RuntimeWarning into an error
    traffic = traffic_of({("139", 2): 1e-320})
    grid = sweep_all(bundled_model, traffic, DEFAULT_PROFILE, THRESHOLDS)
    xi = 2 - grid.x_first["139"]
    p = grid.line_cells("139")[xi]
    assert np.isinf(p).any()
    # exceeds_unity alone: each such cell has trains
    assert (np.broadcast_to(grid.m_window["139"][xi], p.shape)[np.isinf(p)] > 0.0).all()


def test_doubling_traffic_halves_probabilities(bundled_model, bundled_traffic, bundled_grid) -> None:
    doubled = TrafficTable(
        x_first=bundled_traffic.x_first,
        counts={line: 2.0 * run for line, run in bundled_traffic.counts.items()},
        delta_x=5.0,
    )
    grid2 = sweep_all(bundled_model, doubled, DEFAULT_PROFILE, THRESHOLDS)
    for line in bundled_grid.lines:
        a = bundled_grid.line_cells(line)
        b = grid2.line_cells(line)
        ok = np.isfinite(a)
        # powers of two scale without rounding, so this comparison is exact
        assert np.array_equal(b[ok], a[ok] / 2.0)
        assert np.array_equal(grid2.m_window[line], bundled_grid.m_window[line] * 2.0)


# --- cell lookup and materialization ---


def test_cell_index_lookups(bundled_grid) -> None:
    lines = ("139",) * 6 + ("999",)
    kms = np.array([0.0, 12.4, 59.9, 60.0, 60.1, -0.1, 0.0])
    _, xi, _, _ = bundled_grid.locate(lines, np.arange(7), kms, np.ones(7), np.zeros(7))
    # 60.0 is the end edge of the last bin and clamps into it
    assert xi.tolist() == [0, 2, 11, 11, -1, -1, -1]
    _, _, mi, ti = bundled_grid.locate(
        ("139",), np.zeros(5, dtype=int), np.zeros(5), np.array([1, 13, 1, 1, 1]),
        np.array([0.0, 0.0, 18.75, 24.0, -0.1]),
    )
    assert mi.tolist() == [0, -1, 0, 0, 0]
    assert ti.tolist() == [0, 0, 18, -1, -1]


@given(
    seed=st.integers(0, 5_000),
    delta_t=st.sampled_from([1.0, 0.5, 0.25]),
    data=st.data(),
)
@settings(max_examples=30)
def test_locate_matches_tuple_lookups(seed: int, delta_t: float, data) -> None:
    train, traffic = make_synthetic(np.random.default_rng(seed), max_records=100)
    model = fit(train, bins=BinConfig(delta_x=5.0, delta_t=delta_t))
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, (0.001,))
    edges = [
        k * 5.0
        for line, first in grid.x_first.items()
        for k in range(first, first + grid.m_window[line].shape[0] + 1)
    ]
    # bin edges and their floating-point neighbours, negatives and far-off values
    km = st.one_of(
        st.sampled_from(edges).flatmap(
            lambda e: st.sampled_from([e, math.nextafter(e, -1.0), math.nextafter(e, 1e9)])
        ),
        st.floats(min_value=-10.0, max_value=1e300, allow_nan=False, allow_infinity=False),
    )
    hour = st.one_of(
        st.sampled_from([0.0, 24.0, -0.0, math.nextafter(24.0, 0.0), -1e-12, 23.999]),
        st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    )
    queries = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(grid.lines + ("999",)),
                km,
                st.one_of(st.integers(-1, 14), st.sampled_from([0.5, 1.5, 12.0])),
                hour,
            ),
            min_size=1,
            max_size=40,
        )
    )
    lines, kms, months, hours = zip(*queries)
    li, xi, mi, ti = grid.locate(
        lines, np.arange(len(lines)), np.array(kms), np.array(months), np.array(hours)
    )
    for q, line, k, month, hour_q in zip(range(len(queries)), lines, kms, months, hours):
        expected = cell_of(grid, line, k, month, hour_q)
        got = (int(xi[q]), int(mi[q]), int(ti[q]))
        assert (got if min(got) >= 0 else None) == expected
        assert int(li[q]) == (grid.lines.index(line) if line in grid.lines else -1)


def test_locate_misses_hours_past_the_last_whole_bin(bundled_data, bundled_traffic) -> None:
    # 47 bins of 24/47 h end a rounding step short of 24 h; that stretch has no bin
    bins = BinConfig(delta_t=24 / 47)
    end = bins.n_t_bins * bins.delta_t
    assert end < 24.0
    flat = TrafficProfile(groups=((1.0, ((0.0, 24.0),)),))
    model = fit(bundled_data, bins=bins)
    grid = sweep_all(model, bundled_traffic, flat, (0.001,))
    hours = [46 * bins.delta_t, math.nextafter(end, 0.0), end, math.nextafter(24.0, 0.0)]
    _, _, _, ti = grid.locate(("139",), np.zeros(4, dtype=int), np.full(4, 12.0), np.ones(4), np.array(hours))
    assert ti.tolist() == [46, 46, -1, -1]
    assert [cell_of(grid, "139", 12.0, 1, h) is None for h in hours] == [False, False, True, True]
    with pytest.raises(ValueError):
        p_per_train(model, bundled_traffic, flat, 1, end, "139", 12.0)


def test_locate_puts_non_finite_values_off_grid(bundled_grid) -> None:
    bad = [math.nan, math.inf, -math.inf]
    li, xi, mi, ti = bundled_grid.locate(
        ["139"], np.zeros(3, dtype=int), np.array(bad), np.array(bad), np.array(bad)
    )
    assert li.tolist() == [1, 1, 1]
    assert xi.tolist() == mi.tolist() == ti.tolist() == [-1, -1, -1]


def test_cell_materialization_is_consistent(bundled_grid) -> None:
    rows = list(csv.reader(io.StringIO(csv_text(bundled_grid))))
    assert len(rows) == bundled_grid.n_cells() + 1
    # rows run over (line, x, month, t); line "139" follows line "1"
    n_m, n_t = len(bundled_grid.months), bundled_grid.n_t
    xi, mi, ti = 2, 0, 18
    row = rows[1 + bundled_grid.line_cells("1").size + (xi * n_m + mi) * n_t + ti]
    assert row[0] == "139"
    assert (row[1], row[2]) == ("10.0", "15.0")
    assert row[3] == "1"
    assert (row[4], row[5]) == ("18.0", "19.0")
    p = float(bundled_grid.line_cells("139")[xi, mi, ti])
    assert row[7] == repr(p)
    assert row[9:] == [str(int(p > th)) for th in THRESHOLDS]


def test_traffic_positive_and_warned_counts(bundled_grid) -> None:
    census = bundled_grid.census((0.001, math.inf))
    positive = census.traffic_positive
    assert positive == bundled_grid.n_cells()  # the bundled table covers every bin
    n_warned = census.warned[0]
    assert 0 < n_warned < positive
    assert census.warned[1] == bundled_grid.warned_cells(math.inf) == 0


# --- CSV export ---


def test_warning_csv_layout(bundled_grid) -> None:
    text = csv_text(bundled_grid)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
        "line", "x_from", "x_to", "month", "hour_from", "hour_to",
        "m_window", "p_pt", "flags", "warned@0.0005", "warned@0.001", "warned@0.002",
    ]
    assert len(rows) == bundled_grid.n_cells() + 1
    by_key = {(r[0], r[1], r[3], r[4]): r for r in rows[1:]}
    hot = by_key[("139", "10.0", "1", "18.0")]
    assert hot[7] == repr(float(bundled_grid.line_cells("139")[2, 0, 18]))
    assert hot[8] == ""
    assert [hot[9], hot[10], hot[11]] == ["1", "1", "0"]


def test_warning_csv_marks_flagged_cells(bundled_model) -> None:
    table = traffic_of({("139", 2): 131.0})
    grid = sweep_all(bundled_model, table, DEFAULT_PROFILE, THRESHOLDS)
    rows = list(csv.reader(io.StringIO(csv_text(grid))))
    flagged = [r for r in rows[1:] if r[8]]
    assert flagged
    for row in flagged:
        assert row[7] == ""  # no probability where flagged undefined
        assert FLAG_NO_TRAFFIC in row[8].split(";")
        assert row[9:] == ["0", "0", "0"]


class CharCount:
    """A text sink that keeps only the number of characters written to it."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)

    def writelines(self, lines) -> None:
        for text in lines:
            self.write(text)


def test_warning_csv_streams_line_by_line() -> None:
    # 33 lines of at most eight km bins: a writer holding one line's rows at a
    # time stays far below the text it writes, one that builds it all first does not
    train, traffic = make_synthetic(np.random.default_rng(2), max_records=2000, max_lines=40)
    grid = sweep_all(fit(train), traffic, DEFAULT_PROFILE, THRESHOLDS)
    assert len(grid.lines) >= 20
    sink = CharCount()
    tracemalloc.start()
    try:
        warnings_to_csv(grid, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars == len(csv_text(grid))
    assert peak < sink.chars / 4


# --- GeoJSON export ---


def test_warning_geojson_features(bundled_grid, bundled_geometries) -> None:
    doc = json.loads(warnings_to_geojson(bundled_grid, bundled_geometries, 0.001))
    assert doc["type"] == "FeatureCollection"
    assert doc["features"]
    for feature in doc["features"]:
        props = feature["properties"]
        assert props["theta"] == 0.001
        assert props["p_pt_max"] > 0.001
        assert props["months"] and props["hours"]
        geometry = bundled_geometries[props["line"]]
        for lon, lat in feature["geometry"]["coordinates"]:
            assert 17.0 <= lon <= 20.0
            assert 49.0 <= lat <= 51.0
        assert props["x_from"] >= 0.0
        assert props["x_to"] <= geometry.km_max + bundled_grid.delta_x


def test_warning_geojson_month_and_hour_filters(bundled_grid, bundled_geometries) -> None:
    everything = json.loads(warnings_to_geojson(bundled_grid, bundled_geometries, 0.001))
    january = json.loads(
        warnings_to_geojson(bundled_grid, bundled_geometries, 0.001, month=1)
    )
    assert len(january["features"]) <= len(everything["features"])
    for feature in january["features"]:
        assert feature["properties"]["months"] == [1]
    dusk = json.loads(
        warnings_to_geojson(bundled_grid, bundled_geometries, 0.001, month=1, hour=18.5)
    )
    for feature in dusk["features"]:
        assert feature["properties"]["hours"] == [18.0]


def test_warning_geojson_refuses_filters_off_the_grid(bundled_grid, bundled_geometries) -> None:
    assert json.loads(warnings_to_geojson(bundled_grid, bundled_geometries, 0.001))["features"]
    for hour in (math.nan, math.inf, 24.0, -1.0):
        message = f"hour must be in [0, 24) and not past the last 1.0 h bin, got {hour!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            warnings_to_geojson(bundled_grid, bundled_geometries, 0.001, hour=hour)
    for month in (13, 0, 1.5, math.nan):
        with pytest.raises(ValueError, match=f"^month must be 1..12, got {re.escape(repr(month))}$"):
            warnings_to_geojson(bundled_grid, bundled_geometries, 0.001, month=month)
    # the hour is checked first, as p_per_train checks it
    with pytest.raises(ValueError, match="^hour must be in"):
        warnings_to_geojson(bundled_grid, bundled_geometries, 0.001, month=13, hour=24.0)


# sha256 of the GeoJSON texts at theta 0.0002, joined by newlines, for months
# 1..12 and None crossed with each hour-bin start, None, 24 and hours past the
# last bin: the cells the month and hour filters keep, pinned per bin width.
# An hour past the last bin is refused; it stands as EMPTY_COLLECTION, the text
# the export gave for it before it refused it, so the pins hold the hits as they were
GEOJSON_FILTER_DIGESTS = {
    1.0: "d8834af9b0c69f865020e1489a5330c21c768d78fa75ff608b3d97f880a7595e",
    24 / 47: "9c320888c7eedcec600cc4f9f8d018db8b511c58a0c34ed8b67a74a9031ff52e",
}
EMPTY_COLLECTION = '{"features": [], "type": "FeatureCollection"}'


@pytest.mark.parametrize("delta_t", sorted(GEOJSON_FILTER_DIGESTS))
def test_warning_geojson_filters_keep_the_pinned_cells(
    delta_t, bundled_grid, bundled_data, bundled_traffic, bundled_geometries
) -> None:
    if delta_t == 1.0:
        grid = bundled_grid
    else:
        grid = sweep_all(fit(bundled_data, bins=BinConfig(delta_t=delta_t)), bundled_traffic, FLAT_PROFILE, (0.001,))
    end = grid.n_t * grid.delta_t
    assert grid.n_t == round(24 / delta_t) and (end < 24.0) == (delta_t != 1.0)
    hours = [*(ti * grid.delta_t for ti in range(grid.n_t)), None, 24.0, end, math.nextafter(24.0, 0.0)]

    def text(month, hour) -> str:
        if hour is not None and hour >= end:  # past the last bin
            with pytest.raises(ValueError, match=f"^hour must be in .* got {re.escape(repr(hour))}$"):
                warnings_to_geojson(grid, bundled_geometries, 0.0002, month=month, hour=hour)
            return EMPTY_COLLECTION
        return warnings_to_geojson(grid, bundled_geometries, 0.0002, month=month, hour=hour)

    texts = [text(month, hour) for month in [*range(1, 13), None] for hour in hours]
    assert sum(json.loads(text)["features"] != [] for text in texts) > len(texts) / 3
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == GEOJSON_FILTER_DIGESTS[delta_t]


def test_month_hour_and_km_must_be_numbers(
    bundled_model, bundled_traffic, bundled_grid, bundled_geometries
) -> None:
    def p(tau=1, t=18.0, x=12.0):
        return p_per_train(bundled_model, bundled_traffic, DEFAULT_PROFILE, tau, t, "139", x)

    for bad in ("1", True, None):
        with pytest.raises(TypeError, match="^month values must be integers or floats"):
            p(tau=bad)
        with pytest.raises(TypeError, match="^hour values must be integers or floats"):
            p(t=bad)
    with pytest.raises(TypeError, match="^km must be an integer or a float, got True$"):
        p(x=True)
    for bad in ("3", True):
        with pytest.raises(TypeError, match="^month values"):
            warnings_to_geojson(bundled_grid, bundled_geometries, 0.001, month=bad)
        with pytest.raises(TypeError, match="^hour values"):
            warnings_to_geojson(bundled_grid, bundled_geometries, 0.001, hour=bad)
    # None is no filter
    everything = warnings_to_geojson(bundled_grid, bundled_geometries, 0.001)
    assert warnings_to_geojson(bundled_grid, bundled_geometries, 0.001, month=None, hour=None) == everything
    # ints, unsigned ints and floats of any width are numbers; object arrays are not
    for dtype in (np.int32, np.uint8, np.float32):
        assert p(tau=dtype(1), t=dtype(18)) == p()
    one = np.ones(1, dtype=int)
    for km, months, hours, name in (
        (np.array(["12"]), one, one, "km"),
        (one, np.array([1], dtype=object), one, "month"),
        (one, one, np.array([False]), "hour"),
    ):
        with pytest.raises(TypeError, match=f"^{name} values"):
            bundled_grid.locate(("139",), np.zeros(1, dtype=int), km, months, hours)


def test_warning_geojson_rejects_non_finite_theta(bundled_grid, bundled_geometries) -> None:
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            warnings_to_geojson(bundled_grid, bundled_geometries, theta)


def test_warning_geojson_skips_uncovered_lines(bundled_grid, bundled_geometries) -> None:
    only_139 = {"139": bundled_geometries["139"]}
    doc = json.loads(warnings_to_geojson(bundled_grid, only_139, 0.0005))
    assert {f["properties"]["line"] for f in doc["features"]} == {"139"}
    short = {
        "139": LineGeometry(
            line="139", vertices=((50.10, 19.00, 0.0), (50.01, 18.95, 12.0))
        )
    }
    clipped = json.loads(warnings_to_geojson(bundled_grid, short, 0.0005))
    for feature in clipped["features"]:
        assert feature["properties"]["x_from"] < 12.0
        for lon, lat in feature["geometry"]["coordinates"]:
            assert 18.90 <= lon <= 19.05


# --- exporters against the per-cell reference ---

# names that csv.writer must quote, plus a plain one
LINE_NAMES = ("a,b", '"q"', "plain")


def assert_same_rows(got: list[str], want: list[str], what: str) -> None:
    """Fail at the first differing row, naming it and showing both rows.

    pytest would diff the joined texts, about 100 KB each, which took over a
    minute per failure; a row takes no time.
    """
    for number, (row, expected) in enumerate(zip(got, want), 1):
        if row != expected:
            pytest.fail(f"{what} {number} differs:\n got  {row!r}\n want {expected!r}")
    if len(got) != len(want):
        pytest.fail(f"{what}s: {len(got)}, expected {len(want)}")


def feature_rows(geojson: str) -> list[str]:
    return [json.dumps(feature, sort_keys=True) for feature in json.loads(geojson)["features"]]


@given(
    seed=st.integers(0, 5_000),
    delta_t=st.sampled_from([1.0, 0.5, 0.25]),
    traffic_scale=st.sampled_from([1.0, 1e-4]),
    data=st.data(),
)
@settings(max_examples=40)
def test_exporters_match_cell_loops(
    seed: int, delta_t: float, traffic_scale: float, data
) -> None:
    rng = np.random.default_rng(seed)
    train, traffic = make_synthetic(rng, max_records=100, max_lines=3, km_span=20.0)
    names = {str(100 + i): name for i, name in enumerate(LINE_NAMES)}
    # a season without records has no hour table, and its zero-rate months
    # must still reach both exporters
    seasons = wildrail.model.DEFAULT_SEASONS
    dropped = data.draw(st.sampled_from([None, *seasons.labels]))
    kept = [
        r._replace(line=names[r.line])
        for r in train.records
        if seasons.season_of(r.date.month) != dropped
    ]
    assume(kept)
    train = dataset_of(kept, train.period_start, train.period_end)
    # thin traffic pushes p_pt past 1, so exceeds_unity cells appear
    traffic = TrafficTable(
        x_first={names[line]: first for line, first in traffic.x_first.items()},
        counts={names[line]: run * traffic_scale for line, run in traffic.counts.items()},
        delta_x=5.0,
    )
    model = fit(train, bins=BinConfig(delta_x=5.0, delta_t=delta_t))
    probe = sweep_all(model, traffic, DEFAULT_PROFILE, (1.0,))
    # thresholds equal to cells' own p_pt check that warnings stay strict
    p_pt = [probe.line_cells(line) for line in probe.lines]
    own = sorted({float(v) for p in p_pt for v in p[p > 0.0]})
    choices = st.sampled_from(own + [0.0005, 0.001, 1.0])
    thresholds = data.draw(st.lists(choices, min_size=1, max_size=3))
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, thresholds)
    assert_same_rows(
        csv_text(grid).splitlines(keepends=True),
        warnings_to_csv_loop(grid).splitlines(keepends=True),
        "CSV row",
    )

    # each line's geometry covers part of its km range; one line may have none
    without = data.draw(st.sampled_from([None, *grid.lines]))
    geometries = {}
    for i, line in enumerate(ln for ln in grid.lines if ln != without):
        k0 = float(rng.uniform(0.0, 6.0))
        k1 = k0 + float(rng.uniform(0.5, 10.0))
        k2 = k1 + float(rng.uniform(0.5, 20.0))
        geometries[line] = LineGeometry(
            line=line, vertices=((50.0, 19.0 + i, k0), (50.05, 19.1 + i, k1), (50.1, 19.15 + i, k2))
        )
    theta = data.draw(choices)
    # filters that keep a warned cell, and ones on no cell (month 13, hours 24 and -1), which are refused
    warned = sorted(
        {
            (grid.months[mi], ti * grid.delta_t)
            for line in grid.lines
            for mi, ti in zip(*np.nonzero((grid.line_cells(line) > theta).any(axis=0)))
        }
    )
    warned_month, warned_hour = data.draw(st.sampled_from(warned or [(1, 0.0)]))
    month = data.draw(st.sampled_from([None, warned_month, 13]))
    hour = data.draw(st.sampled_from([None, warned_hour, warned_hour + 0.5 * delta_t, 24.0, -1.0]))
    if month == 13 or hour in (24.0, -1.0):
        with pytest.raises(ValueError, match="^(hour|month) must be"):
            warnings_to_geojson(grid, geometries, theta, month=month, hour=hour)
        return
    got = warnings_to_geojson(grid, geometries, theta, month=month, hour=hour)
    want = warnings_to_geojson_loop(grid, geometries, theta, month=month, hour=hour)
    assert_same_rows(feature_rows(got), feature_rows(want), "GeoJSON feature")
    if got != want:
        pytest.fail("the GeoJSON texts differ outside their features")


# --- randomized consistency between scalar and grid paths ---


@given(seed=st.integers(0, 5_000))
@settings(max_examples=20)
def test_grid_matches_scalar_path_on_synthetic_data(seed: int) -> None:
    data, traffic = make_synthetic(np.random.default_rng(seed), max_records=200)
    model = fit(data)
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, (0.001,))
    line = grid.lines[seed % len(grid.lines)]
    p_pt = grid.line_cells(line)
    xi = seed % p_pt.shape[0]
    km = (grid.x_first[line] + xi) * 5.0
    mi, ti = seed % 12, seed % 24
    value = float(p_pt[xi, mi, ti])
    if math.isnan(value):
        with pytest.raises(NoTrafficError):
            p_per_train(model, traffic, DEFAULT_PROFILE, mi + 1, float(ti), line, km)
    else:
        assert value == p_per_train(model, traffic, DEFAULT_PROFILE, mi + 1, float(ti), line, km)

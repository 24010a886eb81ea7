"""Traffic profile, per-train probabilities, warning grids, exports."""

from __future__ import annotations

import copy
import csv
import dataclasses
import datetime as dt
import io
import json
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import wildrail.model
import wildrail.warn
from wildrail import (
    DEFAULT_PROFILE,
    FLAG_EXCEEDS_UNITY,
    FLAG_NO_TRAFFIC,
    AccidentRecord,
    BinConfig,
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
from conftest import dataset_of, make_synthetic, traffic_of
from oracles import (
    alpha_fraction,
    cell_of,
    dense_grid_cells,
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
        p, flags = grid.line_cells(line)
        event(f"{delta_t!r} h bins, no traffic: {bool(flags[xi, mi, ti] & 1)}")
        if flags[xi, mi, ti] & 1:
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
        assert all(cells.shape == (n_x, 12, 24) for cells in bundled_grid.line_cells(line))
        assert bundled_grid.m_window[line].shape == (n_x, 24)
    assert bundled_grid.n_cells() == sum(
        bundled_grid.m_window[line].shape[0] * 12 * 24 for line in bundled_grid.lines
    )


def test_grid_cells_match_scalar_recomputation(bundled_grid, bundled_model, bundled_traffic) -> None:
    # bit-for-bit: the vectorized sweep must equal one-at-a-time evaluation
    for line in bundled_grid.lines:
        first = bundled_grid.x_first[line]
        p_pt = bundled_grid.line_cells(line)[0]
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
    arr = bundled_grid.line_cells("139")[0]
    finite = arr[np.isfinite(arr) & (arr > 0)]
    value = float(finite.max())
    at = bundled_grid.warned_cells(value)
    just_below = bundled_grid.warned_cells(value * (1 - 1e-12))
    assert at < just_below  # the maximum itself never warns at theta == p_pt


def test_warned_counts_match_cell_loop(bundled_grid) -> None:
    # thresholds equal to p_pt values of the grid check that each count is strict
    values = bundled_grid.line_cells("139")[0]
    thetas = sorted(set(values[~np.isnan(values)].tolist()))[::25] + [0.0, 0.001, math.inf]
    cells = [p for line in bundled_grid.lines for p in bundled_grid.line_cells(line)[0].ravel().tolist()]
    counts = bundled_grid.warned_counts(thetas)
    assert counts == [sum(1 for p in cells if p > theta) for theta in thetas]
    assert counts == [bundled_grid.warned_cells(theta) for theta in thetas]
    assert len(thetas) > 10 and counts[-1] == 0


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


def _bits(arr: np.ndarray) -> np.ndarray:
    return arr.view(np.uint64) if arr.dtype == np.float64 else arr


def _assert_cells_equal_dense_build(model, traffic) -> None:
    grid = sweep_all(model, traffic, DEFAULT_PROFILE, THRESHOLDS)
    alpha_vec = [alpha(ti * grid.delta_t, grid.delta_t, DEFAULT_PROFILE) for ti in range(grid.n_t)]
    spans = {line: (lo, lo + grid.m_window[line].shape[0] - 1) for line, lo in grid.x_first.items()}
    dense = dense_grid_cells(model, traffic, alpha_vec, spans)
    assert tuple(dense) == grid.lines
    for line, (p_pt, flags, m_window) in dense.items():
        got_p, got_flags = grid.line_cells(line)
        # bit for bit: NaN payloads, signed zeros and infinities included
        for got, want in ((got_p, p_pt), (got_flags, flags), (grid.m_window[line], m_window)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))


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
    # every reader computes a line's p_pt through _line_p_pt, line_cells included
    calls: list[str] = []
    line_p_pt = WarningGrid._line_p_pt

    def spy(grid, line):
        calls.append(line)
        return line_p_pt(grid, line)

    monkeypatch.setattr(WarningGrid, "_line_p_pt", spy)
    grid = bundled_grid
    readers = {
        "evaluate_holdout": lambda: evaluate_holdout(grid, bundled_test_data, 0.001),
        "evaluate_holdout adjacent": lambda: evaluate_holdout(
            grid, bundled_test_data, 0.001, include_adjacent=True
        ),
        "warned_counts": lambda: grid.warned_counts(THRESHOLDS),
        "warned_cells": lambda: grid.warned_cells(0.001),
        "flagged_cells": lambda: grid.flagged_cells(FLAG_EXCEEDS_UNITY),
        "warnings_to_csv": lambda: warnings_to_csv(grid, CharCount()),
        "warnings_to_geojson": lambda: warnings_to_geojson(grid, bundled_geometries, 0.001),
    }
    for name, read in readers.items():
        calls.clear()
        read()
        assert sorted(calls) == sorted(grid.lines), name


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
    p_pt, flags = grid.line_cells("139")
    kept = p_pt.copy(), flags.copy()
    p_pt[...] = 5.0
    flags[...] = 5
    for again, want in zip(grid.line_cells("139"), kept):
        assert np.array_equal(again, want)
    assert csv_text(grid) == text
    # a mappingproxy cannot be pickled; the grid still can
    for copied in (pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid)):
        assert csv_text(copied) == text
        with pytest.raises(TypeError):
            copied.m_window["139"] = grid.m_window["139"]
        with pytest.raises(ValueError, match="read-only"):
            copied.temporal[0] = 5.0


def test_warned_mask_ignores_nan(bundled_model) -> None:
    table = traffic_of({("139", 2): 131.0})
    grid = sweep_all(bundled_model, table, DEFAULT_PROFILE, THRESHOLDS)
    for line in grid.lines:
        mask = grid.warned_mask(line, 1e-12)
        assert not mask[np.isnan(grid.line_cells(line)[0])].any()


def test_flags_mirror_undefined_cells() -> None:
    rng = np.random.default_rng(42)
    for _ in range(5):
        data, traffic = make_synthetic(rng, max_records=250)
        grid = sweep_all(fit(data), traffic, DEFAULT_PROFILE, THRESHOLDS)
        for line in grid.lines:
            p, flags = grid.line_cells(line)
            window = grid.m_window[line][:, None, :]
            no_traffic = (flags & 1) > 0
            assert np.array_equal(no_traffic, np.broadcast_to(window == 0.0, p.shape))
            undefined = ((flags & 1) | (flags & 2)) > 0
            assert np.array_equal(np.isnan(p), undefined)
            exceeds = (flags & 4) > 0
            assert np.all(p[exceeds] > 1.0)


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
    p_pt, flags = grid.line_cells("9")
    p = float(p_pt[xi, mi, ti])
    assert p > 1.0
    assert int(flags[xi, mi, ti]) == 4  # exceeds_unity alone
    assert grid.warned_mask("9", 0.001)[xi, mi, ti]
    row = list(csv.reader(io.StringIO(csv_text(grid))))[1 + (mi * 24) + ti]
    assert row[:5] == ["9", "0.0", "5.0", "1", "12.0"]
    assert row[7:] == [repr(p), FLAG_EXCEEDS_UNITY, "1"]


def test_an_overflowing_p_pt_is_flagged_without_a_warning(bundled_model) -> None:
    # 1e-320 trains a day is finite and non-negative, but dividing by it
    # overflows; the suite turns numpy's RuntimeWarning into an error
    traffic = traffic_of({("139", 2): 1e-320})
    grid = sweep_all(bundled_model, traffic, DEFAULT_PROFILE, THRESHOLDS)
    p, flags = (cells[2 - grid.x_first["139"]] for cells in grid.line_cells("139"))
    assert np.isinf(p).any()
    assert (flags[np.isinf(p)] == 4).all()  # exceeds_unity alone


def test_doubling_traffic_halves_probabilities(bundled_model, bundled_traffic, bundled_grid) -> None:
    doubled = TrafficTable(
        x_first=bundled_traffic.x_first,
        counts={line: 2.0 * run for line, run in bundled_traffic.counts.items()},
        delta_x=5.0,
    )
    grid2 = sweep_all(bundled_model, doubled, DEFAULT_PROFILE, THRESHOLDS)
    for line in bundled_grid.lines:
        a = bundled_grid.line_cells(line)[0]
        b = grid2.line_cells(line)[0]
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
    row = rows[1 + bundled_grid.line_cells("1")[0].size + (xi * n_m + mi) * n_t + ti]
    assert row[0] == "139"
    assert (row[1], row[2]) == ("10.0", "15.0")
    assert row[3] == "1"
    assert (row[4], row[5]) == ("18.0", "19.0")
    p = float(bundled_grid.line_cells("139")[0][xi, mi, ti])
    assert row[7] == repr(p)
    assert row[9:] == [str(int(p > th)) for th in THRESHOLDS]


def test_traffic_positive_and_warned_counts(bundled_grid) -> None:
    positive = bundled_grid.traffic_positive_cells()
    assert positive == bundled_grid.n_cells()  # the bundled table covers every bin
    n_warned = bundled_grid.warned_cells(0.001)
    assert 0 < n_warned < positive
    assert bundled_grid.warned_cells(math.inf) == 0


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
    assert hot[7] == repr(float(bundled_grid.line_cells("139")[0][2, 0, 18]))
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


def test_warning_geojson_filters_outside_the_day_keep_nothing(
    bundled_grid, bundled_geometries
) -> None:
    assert json.loads(warnings_to_geojson(bundled_grid, bundled_geometries, 0.001))["features"]
    for hour in (math.nan, math.inf, 24.0, -1.0):
        doc = json.loads(warnings_to_geojson(bundled_grid, bundled_geometries, 0.001, hour=hour))
        assert doc["features"] == [], hour
    doc = json.loads(warnings_to_geojson(bundled_grid, bundled_geometries, 0.001, month=13))
    assert doc["features"] == []


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
    p_pt = [probe.line_cells(line)[0] for line in probe.lines]
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
    # filters that keep a warned cell, and ones that match nothing (month 13, hours 24 and -1)
    warned = sorted(
        {
            (grid.months[mi], ti * grid.delta_t)
            for line in grid.lines
            for mi, ti in zip(*np.nonzero(grid.warned_mask(line, theta).any(axis=0)))
        }
    )
    warned_month, warned_hour = data.draw(st.sampled_from(warned or [(1, 0.0)]))
    month = data.draw(st.sampled_from([None, warned_month, 13]))
    hour = data.draw(st.sampled_from([None, warned_hour, warned_hour + 0.5 * delta_t, 24.0, -1.0]))
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
    p_pt = grid.line_cells(line)[0]
    xi = seed % p_pt.shape[0]
    km = (grid.x_first[line] + xi) * 5.0
    mi, ti = seed % 12, seed % 24
    value = float(p_pt[xi, mi, ti])
    if math.isnan(value):
        with pytest.raises(NoTrafficError):
            p_per_train(model, traffic, DEFAULT_PROFILE, mi + 1, float(ti), line, km)
    else:
        assert value == p_per_train(model, traffic, DEFAULT_PROFILE, mi + 1, float(ti), line, km)

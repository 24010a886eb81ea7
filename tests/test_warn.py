"""Traffic profile, per-train probabilities, warning grids, exports."""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildrail import (
    DEFAULT_PROFILE,
    FLAG_EXCEEDS_UNITY,
    FLAG_INSUFFICIENT_DATA,
    FLAG_NO_TRAFFIC,
    AccidentRecord,
    BinConfig,
    InsufficientDataError,
    LineGeometry,
    NoTrafficError,
    TrafficProfile,
    TrafficTable,
    alpha,
    bayes_warn_animals,
    fit,
    p_per_train,
    sweep_all,
    warnings_to_csv,
    warnings_to_geojson,
)
from conftest import dataset_of, make_synthetic
from oracles import (
    alpha_fraction,
    cell_of,
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
    table = TrafficTable(counts={("139", 10.0): 131.0}, delta_x=5.0)
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
    temporal = bundled_model.p_time_at(1, 18.0) * bundled_model.mu_at(1)
    spatial = bundled_model.p_segment_at("139", 12.0) * bundled_model.p_line_at("139")
    m = (bundled_traffic.count("139", 12.0) * alpha(18.0, 1.0, DEFAULT_PROFILE)) * 1.0
    assert p == temporal * spatial / m


def test_p_per_train_requires_traffic(bundled_model) -> None:
    empty = TrafficTable(counts={}, delta_x=5.0)
    with pytest.raises(NoTrafficError):
        p_per_train(bundled_model, empty, DEFAULT_PROFILE, 1, 18.0, "139", 12.0)


def test_p_per_train_reports_no_traffic_before_insufficient_data(bundled_model, bundled_traffic) -> None:
    # a hand-built model whose January season lost its hour table
    label = bundled_model.seasons.season_of(1)
    broken = dataclasses.replace(
        bundled_model, p_time={k: v for k, v in bundled_model.p_time.items() if k != label}
    )
    with pytest.raises(InsufficientDataError):
        p_per_train(broken, bundled_traffic, DEFAULT_PROFILE, 1, 18.0, "139", 12.0)
    empty = TrafficTable(counts={}, delta_x=5.0)
    with pytest.raises(NoTrafficError):
        p_per_train(broken, empty, DEFAULT_PROFILE, 1, 18.0, "139", 12.0)


# --- grid construction ---


def test_sweep_covers_model_and_traffic_bins(bundled_grid, bundled_model, bundled_traffic) -> None:
    assert bundled_grid.lines == bundled_model.lines == ("1", "139", "140")
    assert bundled_grid.months == tuple(range(1, 13))
    assert bundled_grid.t_starts == tuple(float(h) for h in range(24))
    for line in bundled_grid.lines:
        starts = bundled_grid.x_starts[line]
        assert starts == tuple(starts[0] + 5.0 * i for i in range(len(starts)))
        traffic_bins = {x for ln, x in bundled_traffic.counts if ln == line}
        covered = set(bundled_model.x_bins_for(line)) | traffic_bins
        assert covered <= set(starts)
        assert bundled_grid.p_pt[line].shape == (len(starts), 12, 24)
        assert bundled_grid.m_window[line].shape == (len(starts), 24)
    assert bundled_grid.n_cells() == sum(
        len(bundled_grid.x_starts[line]) * 12 * 24 for line in bundled_grid.lines
    )


def test_grid_cells_match_scalar_recomputation(bundled_grid, bundled_model, bundled_traffic) -> None:
    # bit-for-bit: the vectorized sweep must equal one-at-a-time evaluation
    for line in bundled_grid.lines:
        starts = bundled_grid.x_starts[line]
        for xi in range(0, len(starts), 3):
            for mi in range(0, 12, 5):
                for ti in range(0, 24, 7):
                    got = float(bundled_grid.p_pt[line][xi, mi, ti])
                    want = p_per_train(
                        bundled_model,
                        bundled_traffic,
                        DEFAULT_PROFILE,
                        mi + 1,
                        float(ti),
                        line,
                        starts[xi],
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


def test_mismatched_traffic_bin_width_is_rejected(bundled_model) -> None:
    table = TrafficTable(counts={("139", 10.0): 131.0}, delta_x=2.5)
    with pytest.raises(ValueError):
        sweep_all(bundled_model, table, DEFAULT_PROFILE, THRESHOLDS)


def test_single_window_sweep_is_a_slice_of_the_full_grid(
    bundled_grid, bundled_model, bundled_traffic
) -> None:
    grid = bayes_warn_animals(
        bundled_model, bundled_traffic, DEFAULT_PROFILE,
        line="139", tau=1, t=18.0, delta_t=1.0, thresholds=THRESHOLDS, x0=0.0, xf=55.0,
    )
    assert grid.lines == ("139",)
    assert grid.months == (1,)
    assert grid.t_starts == (18.0,)
    assert grid.x_starts["139"] == bundled_grid.x_starts["139"]
    full = bundled_grid.p_pt["139"][:, 0, 18]
    np.testing.assert_array_equal(grid.p_pt["139"][:, 0, 0], full)
    np.testing.assert_array_equal(
        grid.flags["139"][:, 0, 0], bundled_grid.flags["139"][:, 0, 18]
    )


def test_single_window_sweep_validates_arguments(bundled_model, bundled_traffic) -> None:
    good = dict(
        line="139", tau=1, t=18.0, delta_t=1.0, thresholds=THRESHOLDS, x0=0.0, xf=10.0
    )
    with pytest.raises(ValueError):
        bayes_warn_animals(bundled_model, bundled_traffic, DEFAULT_PROFILE, **{**good, "xf": -1.0})
    with pytest.raises(ValueError):
        bayes_warn_animals(bundled_model, bundled_traffic, DEFAULT_PROFILE, **{**good, "delta_t": 0.5})
    with pytest.raises(ValueError):
        bayes_warn_animals(bundled_model, bundled_traffic, DEFAULT_PROFILE, **{**good, "tau": 0})
    with pytest.raises(ValueError, match="finite"):
        bayes_warn_animals(
            bundled_model, bundled_traffic, DEFAULT_PROFILE, **{**good, "thresholds": (math.nan,)}
        )


# --- warned state ---


def test_warning_threshold_is_strict(bundled_grid) -> None:
    arr = bundled_grid.p_pt["139"]
    finite = arr[np.isfinite(arr) & (arr > 0)]
    value = float(finite.max())
    at = bundled_grid.warned_cells(value)
    just_below = bundled_grid.warned_cells(value * (1 - 1e-12))
    assert at < just_below  # the maximum itself never warns at theta == p_pt


def test_warned_mask_ignores_nan(bundled_model) -> None:
    table = TrafficTable(counts={("139", 10.0): 131.0}, delta_x=5.0)
    grid = sweep_all(bundled_model, table, DEFAULT_PROFILE, THRESHOLDS)
    for line in grid.lines:
        mask = grid.warned_mask(line, 1e-12)
        assert not mask[np.isnan(grid.p_pt[line])].any()


def test_flags_mirror_undefined_cells() -> None:
    rng = np.random.default_rng(42)
    for _ in range(5):
        data, traffic = make_synthetic(rng, max_records=250)
        grid = sweep_all(fit(data), traffic, DEFAULT_PROFILE, THRESHOLDS)
        for line in grid.lines:
            p = grid.p_pt[line]
            flags = grid.flags[line]
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
    traffic = TrafficTable(counts={("9", 0.0): 1.0}, delta_x=5.0)
    grid = sweep_all(fit(data), traffic, DEFAULT_PROFILE, (0.001,))
    _, (xi,), (mi,), (ti,) = grid.locate(
        ("9",), np.array([0]), np.array([2.0]), np.array([1]), np.array([12.5])
    )
    p = float(grid.p_pt["9"][xi, mi, ti])
    assert p > 1.0
    assert int(grid.flags["9"][xi, mi, ti]) == 4  # exceeds_unity alone
    assert grid.warned_mask("9", 0.001)[xi, mi, ti]
    row = list(csv.reader(io.StringIO(csv_text(grid))))[1 + (mi * 24) + ti]
    assert row[:5] == ["9", "0.0", "5.0", "1", "12.0"]
    assert row[7:] == [repr(p), FLAG_EXCEEDS_UNITY, "1"]


def test_doubling_traffic_halves_probabilities(bundled_model, bundled_traffic, bundled_grid) -> None:
    doubled = TrafficTable(
        counts={key: 2.0 * value for key, value in bundled_traffic.counts.items()},
        delta_x=5.0,
    )
    grid2 = sweep_all(bundled_model, doubled, DEFAULT_PROFILE, THRESHOLDS)
    for line in bundled_grid.lines:
        a = bundled_grid.p_pt[line]
        b = grid2.p_pt[line]
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
    edges = [x for starts in grid.x_starts.values() for x in starts + (starts[-1] + 5.0,)]
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
            st.tuples(st.sampled_from(grid.lines + ("999",)), km, st.integers(-1, 14), hour),
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
    n_m, n_t = len(bundled_grid.months), len(bundled_grid.t_starts)
    xi, mi, ti = 2, 0, 18
    row = rows[1 + bundled_grid.p_pt["1"].size + (xi * n_m + mi) * n_t + ti]
    assert row[0] == "139"
    assert (row[1], row[2]) == ("10.0", "15.0")
    assert row[3] == "1"
    assert (row[4], row[5]) == ("18.0", "19.0")
    p = float(bundled_grid.p_pt["139"][xi, mi, ti])
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
    assert hot[7] == repr(float(bundled_grid.p_pt["139"][2, 0, 18]))
    assert hot[8] == ""
    assert [hot[9], hot[10], hot[11]] == ["1", "1", "0"]


def test_warning_csv_marks_flagged_cells(bundled_model) -> None:
    table = TrafficTable(counts={("139", 10.0): 131.0}, delta_x=5.0)
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
    train = dataset_of(
        (r._replace(line=names[r.line]) for r in train.records),
        train.period_start,
        train.period_end,
    )
    # thin traffic pushes p_pt past 1, so exceeds_unity cells appear
    traffic = TrafficTable(
        counts={(names[line], x): c * traffic_scale for (line, x), c in traffic.counts.items()},
        delta_x=5.0,
    )
    model = fit(train, bins=BinConfig(delta_x=5.0, delta_t=delta_t))
    # a season without its hour table makes its months insufficient_data
    dropped = data.draw(st.sampled_from([None, *sorted(model.p_time)]))
    model = dataclasses.replace(
        model, p_time={k: v for k, v in model.p_time.items() if k != dropped}
    )
    probe = sweep_all(model, traffic, DEFAULT_PROFILE, (1.0,))
    # thresholds equal to cells' own p_pt check that warnings stay strict
    own = sorted({float(v) for p in probe.p_pt.values() for v in p[p > 0.0]})
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
            (grid.months[mi], grid.t_starts[ti])
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
    starts = grid.x_starts[line]
    xi = seed % len(starts)
    mi, ti = seed % 12, seed % 24
    value = float(grid.p_pt[line][xi, mi, ti])
    if math.isnan(value):
        with pytest.raises(NoTrafficError):
            p_per_train(model, traffic, DEFAULT_PROFILE, mi + 1, float(ti), line, starts[xi])
    else:
        assert value == p_per_train(
            model, traffic, DEFAULT_PROFILE, mi + 1, float(ti), line, starts[xi]
        )

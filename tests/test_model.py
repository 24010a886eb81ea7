"""Probability-table fitting: estimators, normalization, serialization."""

from __future__ import annotations

import datetime as dt
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildrail import (
    DEFAULT_SEASONS,
    AccidentRecord,
    BinConfig,
    Dataset,
    InsufficientDataError,
    SeasonScheme,
    DEFAULT_PROFILE,
    TrafficProfile,
    TrafficTable,
    alpha,
    bayes_warn_animals,
    count_days,
    fit,
    model_from_json,
    model_to_json,
    p_per_train,
    sweep_all,
)
from conftest import PERIOD, make_synthetic
from oracles import expected_tables, table_counts


# --- season scheme ---


def test_default_seasons_group_months_by_daylight() -> None:
    assert DEFAULT_SEASONS.season_of(12) == DEFAULT_SEASONS.season_of(1)
    assert DEFAULT_SEASONS.season_of(6) == DEFAULT_SEASONS.season_of(7)
    assert DEFAULT_SEASONS.season_of(3) == DEFAULT_SEASONS.season_of(10)
    assert len(DEFAULT_SEASONS.labels) == 3
    assert {m for months in DEFAULT_SEASONS.groups.values() for m in months} == set(range(1, 13))


def test_season_scheme_requires_partition() -> None:
    with pytest.raises(ValueError):  # month 12 missing
        SeasonScheme(groups={"a": (1, 2, 3, 4, 5, 6), "b": (7, 8, 9, 10, 11)})
    with pytest.raises(ValueError):  # month repeated across groups
        SeasonScheme(groups={"a": tuple(range(1, 13)), "b": (1,)})
    with pytest.raises(ValueError):
        SeasonScheme(groups={"a": (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)})
    two = SeasonScheme(groups={"cold": (11, 12, 1, 2, 3, 4), "warm": (5, 6, 7, 8, 9, 10)})
    assert two.season_of(4) == "cold"


# --- bin config ---


def test_bin_config_defaults_and_bins() -> None:
    bins = BinConfig()
    assert bins.delta_x == 5.0 and bins.delta_t == 1.0
    assert bins.n_t_bins == 24
    assert bins.t_starts[:3] == (0.0, 1.0, 2.0)
    assert bins.t_bin(18.99) == 18.0
    assert bins.x_bin(12.4) == 10.0
    assert bins.x_bin(0.0) == 0.0


def test_bin_config_rejects_widths_that_split_profile_pieces(bundled_data, bundled_traffic) -> None:
    # hour bins must divide the day, and a sweep's bins must also land on the
    # piece boundaries of its traffic profile (4/6/9/15/18 h by default)
    BinConfig(delta_t=0.5)
    BinConfig(delta_t=0.25)
    with pytest.raises(ValueError, match="must divide 24"):
        BinConfig(delta_t=0.7)
    flat = TrafficProfile(groups=((1.0, ((0.0, 24.0),)),))
    for bad in (2.0, 3.0, 1.5, 24.0):
        model = fit(bundled_data, bins=BinConfig(delta_t=bad))
        with pytest.raises(ValueError, match="straddles the traffic piece boundary"):
            sweep_all(model, bundled_traffic, DEFAULT_PROFILE, (0.001,))
        with pytest.raises(ValueError, match="straddles"):
            p_per_train(model, bundled_traffic, DEFAULT_PROFILE, 1, 0.0, "139", 12.0)
        with pytest.raises(ValueError, match="straddles"):
            bayes_warn_animals(
                model, bundled_traffic, DEFAULT_PROFILE, "139", 1, 0.0, bad, (0.001,), 0.0, 20.0
            )
        # a profile without those boundaries takes the same width
        assert sweep_all(model, bundled_traffic, flat, (0.001,)).t_starts == model.bins.t_starts
    with pytest.raises(ValueError):
        BinConfig(delta_x=0.0)
    with pytest.raises(ValueError):
        BinConfig(delta_t=-1.0)


def test_bin_config_rejects_out_of_range_lookups() -> None:
    bins = BinConfig()
    with pytest.raises(ValueError):
        bins.t_bin(24.0)
    with pytest.raises(ValueError):
        bins.t_bin(-0.5)
    with pytest.raises(ValueError):
        bins.x_bin(-1.0)


# --- fitted tables on the bundled example data ---


def test_bundled_counts_match_reference_totals(bundled_data, bundled_model) -> None:
    T = count_days(*PERIOD, "365")
    assert T == 1095
    assert bundled_data.n == 877
    assert bundled_model.mu_at(1) == 81 / (1095 / 12)
    assert bundled_model.p_time_at(1, 18.0) == 37 / 338
    assert bundled_model.p_line_at("139") == 285 / 877
    assert bundled_model.p_segment_at("139", 10.0) == 50 / 285


def test_estimator_guards() -> None:
    empty = Dataset.from_records((), *PERIOD)
    rec = AccidentRecord(date=dt.date(2020, 1, 5), time=0, line="1", km=0.0)
    tiny = Dataset.from_records((rec,), *PERIOD)
    with pytest.raises(ValueError):
        fit(tiny, total_days=1095).mu_at(13)
    with pytest.raises(ValueError):
        fit(empty)
    with pytest.raises(ValueError):
        fit(tiny, total_days=0)
    with pytest.raises(ValueError):
        fit(tiny, smoothing=-0.5)


# --- fitted tables against the counting oracle ---


def test_fit_tables_match_counting_oracle(bundled_data, bundled_model) -> None:
    # the oracle's exact fractions round to exactly the fitted doubles
    counts = table_counts(bundled_data.records, DEFAULT_SEASONS.groups, 5.0, 60)
    tables = expected_tables(counts, 1095)
    for tau in range(1, 13):
        assert bundled_model.mu_at(tau) == float(tables["mu"][tau])
    for label, per_bin in tables["p_time"].items():
        assert set(bundled_model.p_time[label]) == {float(ti) for ti in per_bin}
        for ti, value in per_bin.items():
            assert bundled_model.p_time[label][float(ti)] == float(value)
    assert set(bundled_model.p_line) == set(tables["p_line"])
    for line, p in tables["p_line"].items():
        assert bundled_model.p_line_at(line) == float(p)
    for line, per_bin in tables["p_segment"].items():
        got = bundled_model.p_segment[line]
        assert set(got) == {i * 5.0 for i in per_bin}
        for i, value in per_bin.items():
            assert bundled_model.p_segment_at(line, i * 5.0) == float(value)


def test_fit_supports_are_dense_per_line(bundled_model) -> None:
    for line in bundled_model.lines:
        xs = bundled_model.x_bins_for(line)
        assert xs == tuple(xs[0] + 5.0 * i for i in range(len(xs)))
    for label in bundled_model.seasons.labels:
        assert set(bundled_model.p_time[label]) == set(bundled_model.bins.t_starts)


def test_fit_is_permutation_invariant(bundled_data) -> None:
    shuffled = list(bundled_data.records)
    random.Random(7).shuffle(shuffled)
    reshuffled = Dataset.from_records(tuple(shuffled), *PERIOD)
    a = fit(bundled_data, total_days=1095)
    b = fit(reshuffled, total_days=1095)
    assert a.mu == b.mu
    assert a.p_time == b.p_time
    assert a.p_line == b.p_line
    assert a.p_segment == b.p_segment


# --- normalization properties ---


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25)
def test_fitted_tables_normalize(seed: int) -> None:
    data, _ = make_synthetic(np.random.default_rng(seed), max_records=300)
    model = fit(data)
    for label, table in model.p_time.items():
        assert abs(sum(table.values()) - 1.0) <= 1e-9
    assert abs(sum(model.p_line.values()) - 1.0) <= 1e-9
    for line, table in model.p_segment.items():
        assert abs(sum(table.values()) - 1.0) <= 1e-9
    # monthly rates times the exposure must add back up to the record count
    total = sum(model.mu.values()) * (model.counts.total_days / 12.0)
    assert abs(total - data.n) <= 1e-9 * data.n


@given(seed=st.integers(0, 10_000), smoothing=st.sampled_from([0.5, 1.0, 10.0]))
@settings(max_examples=15)
def test_smoothing_keeps_normalization_and_shrinks_extremes(seed: int, smoothing: float) -> None:
    data, _ = make_synthetic(np.random.default_rng(seed), max_records=200)
    raw = fit(data)
    smooth = fit(data, smoothing=smoothing)
    for label, table in smooth.p_time.items():
        assert abs(sum(table.values()) - 1.0) <= 1e-9
        uniform = 1.0 / len(table)
        for ts, value in table.items():
            lo = min(raw.p_time[label][ts], uniform) - 1e-12
            hi = max(raw.p_time[label][ts], uniform) + 1e-12
            assert lo <= value <= hi
    assert abs(sum(smooth.p_line.values()) - 1.0) <= 1e-9
    for line, table in smooth.p_segment.items():
        assert abs(sum(table.values()) - 1.0) <= 1e-9


# --- per-train probability at the edges of the tables ---

# trains on the one-month model's line and on a line without accidents
ONE_MONTH_TRAFFIC = TrafficTable(
    counts={("7", 0.0): 120.0, ("7", 5.0): 120.0, ("999", 0.0): 80.0}, delta_x=5.0
)


def make_one_month_model():
    records = tuple(
        AccidentRecord(date=dt.date(2020, 1, 1 + i % 20), time=(18 * 60 + i) % 1440, line="7", km=float(i % 9))
        for i in range(40)
    )
    data = Dataset.from_records(records, *PERIOD)
    return fit(data, total_days=1095)


def one_month_p(model, tau: int, t: float, line: str, x: float) -> float:
    return p_per_train(model, ONE_MONTH_TRAFFIC, DEFAULT_PROFILE, tau, t, line, x)


def test_zero_rate_month_short_circuits_missing_season() -> None:
    model = make_one_month_model()
    # June never occurs: mu=0, and its season has no hour table at all
    assert model.mu_at(6) == 0.0
    with pytest.raises(InsufficientDataError):
        model.p_time_at(6, 12.0)
    assert one_month_p(model, 6, 12.0, "7", 0.0) == 0.0
    m = (ONE_MONTH_TRAFFIC.count("7", 0.0) * alpha(18.0, 1.0, DEFAULT_PROFILE)) * 1.0
    temporal = model.p_time_at(1, 18.0) * model.mu_at(1)
    spatial = model.p_segment_at("7", 0.0) * model.p_line_at("7")
    assert one_month_p(model, 1, 18.0, "7", 0.0) == temporal * spatial / m


def test_spatial_part_handles_unknown_locations() -> None:
    model = make_one_month_model()
    assert model.p_line_at("999") == 0.0
    assert one_month_p(model, 1, 18.0, "999", 0.0) == 0.0
    with pytest.raises(InsufficientDataError):
        model.p_segment_at("999", 0.0)
    assert model.p_segment_at("7", 500.0) == 0.0
    assert one_month_p(model, 1, 18.0, "7", 5.0) > 0.0


# --- serialization ---


def test_model_json_round_trip_is_exact(bundled_model) -> None:
    text = model_to_json(bundled_model)
    back = model_from_json(text)
    assert back.mu == bundled_model.mu
    assert back.p_time == bundled_model.p_time
    assert back.p_line == bundled_model.p_line
    assert back.p_segment == bundled_model.p_segment
    assert back.seasons == bundled_model.seasons
    assert back.bins == bundled_model.bins
    assert model_to_json(back) == text


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20)
def test_model_json_round_trip_synthetic(seed: int) -> None:
    data, _ = make_synthetic(np.random.default_rng(seed), max_records=150)
    model = fit(data)
    back = model_from_json(model_to_json(model))
    assert model_to_json(back) == model_to_json(model)


def tamper(model, edit) -> str:
    doc = json.loads(model_to_json(model))
    edit(doc)
    return json.dumps(doc)


def test_model_from_json_rejects_malformed_input(bundled_model) -> None:
    with pytest.raises(ValueError):
        model_from_json("not json")
    with pytest.raises(ValueError):
        model_from_json("{}")
    with pytest.raises(ValueError):
        model_from_json('{"format": "something.else/9"}')
    text = model_to_json(bundled_model).replace('"mu"', '"nu"', 1)
    with pytest.raises(ValueError):
        model_from_json(text)
    # tables are derived from the counts, so any table, key or count that
    # disagrees with them, or counts no dataset could give, are rejected
    edits = (
        lambda d: d.update(seasons=[1, 2]),
        lambda d: d["p_line"].update({"139": float("nan")}),
        lambda d: d["p_line"].update({"139": -0.25}),
        lambda d: d["mu"].update({"1": d["mu"]["1"] * 2}),
        lambda d: d["p_segment"]["139"].pop("10.0"),
        lambda d: d.update(notes="stray key"),
        lambda d: d["counts"]["by_line"].update({"139": d["counts"]["by_line"]["139"] + 1}),
        lambda d: d["counts"]["by_month"].update({"1": -81}),
        lambda d: d["counts"]["by_month"].update({"1": float("inf")}),
        lambda d: d["counts"].update(total_days=0),
        lambda d: d["counts"].update(n="877"),
        lambda d: d["counts"]["by_season_tbin"]["short"].pop("18.0"),
        lambda d: d["counts"]["by_line_xbin"].pop("139"),
    )
    for edit in edits:
        with pytest.raises(ValueError):
            model_from_json(tamper(bundled_model, edit))

"""Probability-table fitting: estimators, normalization, serialization."""

from __future__ import annotations

import copy
import dataclasses
import datetime as dt
import json
import math
import pickle
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wildrail.model
from wildrail import (
    DEFAULT_SEASONS,
    AccidentRecord,
    BinConfig,
    FittedModel,
    SeasonScheme,
    DEFAULT_PROFILE,
    TrafficProfile,
    alpha,
    bin_index,
    count_days,
    fit,
    model_from_json,
    model_to_json,
    p_per_train,
    sweep_all,
)
from wildrail.cli import main
from conftest import DATA_DIR, PERIOD, dataset_of, make_synthetic, traffic_of
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
    # months are ints: true and 1.0 are not month 1
    for one in (True, 1.0, np.int64(1)):
        with pytest.raises(ValueError, match="invalid month"):
            SeasonScheme(groups={"a": (one, 2, 3, 4, 5, 6), "b": (7, 8, 9, 10, 11, 12)})
    two = SeasonScheme(groups={"cold": (11, 12, 1, 2, 3, 4), "warm": (5, 6, 7, 8, 9, 10)})
    assert two.season_of(4) == "cold"


def test_a_season_scheme_keeps_no_container_its_caller_can_edit(bundled_data) -> None:
    groups = {"short": [11, 12, 1, 2], "long": (5, 6, 7, 8), "mid": (3, 4, 9, 10)}
    seasons = SeasonScheme(groups)
    groups["short"].append(3)
    groups["long"] = (11, 12)
    assert seasons.groups == DEFAULT_SEASONS.groups and seasons.groups["short"] == (11, 12, 1, 2)
    # the default is shared by every caller, so no one may edit it for the rest
    for scheme in (seasons, DEFAULT_SEASONS):
        with pytest.raises(TypeError):
            scheme.groups["short"] = (11, 12)
    assert model_to_json(fit(bundled_data, seasons)) == model_to_json(fit(bundled_data))


# --- bin config ---


def test_bin_config_defaults_and_bins() -> None:
    bins = BinConfig()
    assert bins.delta_x == 5.0 and bins.delta_t == 1.0
    assert bins.n_t_bins == 24
    # lookups return bin indices as ints
    assert type(bin_index(18.99, bins.delta_t)) is int and bin_index(18.99, bins.delta_t) == 18
    assert type(bin_index(12.4, bins.delta_x)) is int and bin_index(12.4, bins.delta_x) == 2
    assert bin_index(0.0, bins.delta_x) == 0


def test_bin_config_rejects_widths_that_split_profile_pieces(bundled_data, bundled_traffic) -> None:
    # hour bins must divide the day, and a sweep's bins must also land on the
    # piece boundaries of its traffic profile (4/6/9/15/18 h by default)
    BinConfig(delta_t=0.5)
    BinConfig(delta_t=0.25)
    with pytest.raises(ValueError, match="must divide 24"):
        BinConfig(delta_t=0.7)
    # and be at least a minute, the accident log's time resolution
    assert BinConfig(delta_t=1 / 60).n_t_bins == 24 * 60
    for fine in (1 / 120, 1e-300):
        with pytest.raises(ValueError, match="at least a minute"):
            BinConfig(delta_t=fine)
    flat = TrafficProfile(groups=((1.0, ((0.0, 24.0),)),))
    for bad in (2.0, 3.0, 1.5, 24.0):
        model = fit(bundled_data, bins=BinConfig(delta_t=bad))
        with pytest.raises(ValueError, match="straddles the traffic piece boundary"):
            sweep_all(model, bundled_traffic, DEFAULT_PROFILE, (0.001,))
        with pytest.raises(ValueError, match="straddles"):
            p_per_train(model, bundled_traffic, DEFAULT_PROFILE, 1, 0.0, "139", 12.0)
        # a profile without those boundaries takes the same width
        assert sweep_all(model, bundled_traffic, flat, (0.001,)).n_t == model.bins.n_t_bins
    with pytest.raises(ValueError):
        BinConfig(delta_x=0.0)
    with pytest.raises(ValueError):
        BinConfig(delta_t=-1.0)


def test_fit_refuses_a_grid_past_the_cell_limit(bundled_data, monkeypatch) -> None:
    # the bundled model fits a limit of exactly its grid's size, and the line
    # that takes it one cell past is named; checked first, so a missing check
    # fails here and never lays out the bins below
    model = fit(bundled_data)
    cells = sum(len(model.p_segment[line]) for line in model.lines) * 12 * 24
    monkeypatch.setattr(wildrail.model, "MAX_GRID_CELLS", cells)
    assert fit(bundled_data) == model
    monkeypatch.setattr(wildrail.model, "MAX_GRID_CELLS", cells - 1)
    with pytest.raises(ValueError, match=f"line {model.lines[-1]!r} spans km"):
        fit(bundled_data)
    monkeypatch.undo()
    # a mistyped 1e-9 km bin spreads line 1's 0..44.9 km over 4.5e10 bins
    with pytest.raises(ValueError, match=r"line '1' spans km .*, .* 50,000,000 cells"):
        fit(bundled_data, bins=BinConfig(delta_x=1e-9))


def test_bin_config_rejects_out_of_range_lookups(bundled_data, bundled_traffic) -> None:
    # a grid of the default bins holds no hour 24.0 or -0.5 and no km -1.0
    model = fit(bundled_data, bins=BinConfig())
    grid = sweep_all(model, bundled_traffic, DEFAULT_PROFILE, (0.001,))
    _, xi, _, ti = grid.locate(
        ("139",), np.zeros(4, dtype=int), np.array([12.0, 12.0, -1.0, 12.0]), np.ones(4),
        np.array([24.0, -0.5, 18.0, 18.0]),
    )
    k = 2 - grid.x_first["139"]  # km 12.0 is in km bin 2
    assert ti.tolist() == [-1, -1, 18, 18] and xi.tolist() == [k, k, -1, k]
    for t, x in ((24.0, 12.0), (-0.5, 12.0), (18.0, -1.0)):
        with pytest.raises(ValueError):
            p_per_train(model, bundled_traffic, DEFAULT_PROFILE, 1, t, "139", x)


def test_hours_past_the_last_bin_are_rejected(bundled_data, bundled_traffic) -> None:
    # 47 bins of 24/47 h end a rounding step short of 24 h, so the grid holds
    # no bin for the last stretch of the day
    bins = BinConfig(delta_t=24 / 47)
    end = bins.n_t_bins * bins.delta_t
    assert end < 24.0
    assert bin_index(math.nextafter(end, 0.0), bins.delta_t) == bins.n_t_bins - 1
    flat = TrafficProfile(groups=((1.0, ((0.0, 24.0),)),))
    model = fit(bundled_data, bins=bins)
    assert p_per_train(model, bundled_traffic, flat, 1, math.nextafter(end, 0.0), "139", 12.0) > 0.0
    for hour in (end, math.nextafter(24.0, 0.0)):
        with pytest.raises(ValueError, match=r"past the last 0\.51\d* h bin") as err:
            p_per_train(model, bundled_traffic, flat, 1, hour, "139", 12.0)
        assert type(err.value) is ValueError


# --- fitted tables on the bundled example data ---


def test_bundled_counts_match_reference_totals(bundled_data, bundled_model) -> None:
    T = count_days(*PERIOD, "365")
    assert T == 1095
    assert bundled_data.n == 877
    assert bundled_model.mu[1] == 81 / (1095 / 12)
    assert bundled_model.p_time["short"][18] == 37 / 338
    assert bundled_model.p_line["139"] == 285 / 877
    # km 10.0 starts km bin 2
    assert bundled_model.p_segment["139"][2 - bundled_model.counts.x_first["139"]] == 50 / 285


def test_estimator_guards() -> None:
    empty = dataset_of((), *PERIOD)
    rec = AccidentRecord(date=dt.date(2020, 1, 5), time=0, line="1", km=0.0)
    tiny = dataset_of((rec,), *PERIOD)
    assert tuple(fit(tiny, total_days=1095).mu) == tuple(range(1, 13))
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
        assert bundled_model.mu[tau] == float(tables["mu"][tau])
    for label, per_bin in tables["p_time"].items():
        assert len(bundled_model.p_time[label]) == len(per_bin)
        for ti, value in per_bin.items():
            assert bundled_model.p_time[label][ti] == float(value)
    assert set(bundled_model.p_line) == set(tables["p_line"])
    for line, p in tables["p_line"].items():
        assert bundled_model.p_line[line] == float(p)
    for line, per_bin in tables["p_segment"].items():
        first, got = bundled_model.counts.x_first[line], bundled_model.p_segment[line]
        assert range(first, first + len(got)) == range(min(per_bin), max(per_bin) + 1)
        for i, value in per_bin.items():
            assert got[i - first] == float(value)


def test_fit_supports_are_dense_per_line(bundled_model) -> None:
    # each line's km bins run from its first to its last occupied bin
    for line in bundled_model.lines:
        table = bundled_model.counts.by_line_xbin[line]
        assert len(bundled_model.p_segment[line]) == len(table)
        assert table[0] > 0 and table[-1] > 0
    for label in bundled_model.seasons.labels:
        assert len(bundled_model.p_time[label]) == bundled_model.bins.n_t_bins


def test_fit_is_permutation_invariant(bundled_data) -> None:
    shuffled = list(bundled_data.records)
    random.Random(7).shuffle(shuffled)
    reshuffled = dataset_of(shuffled, *PERIOD)
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
        assert abs(sum(table) - 1.0) <= 1e-9
    assert abs(sum(model.p_line.values()) - 1.0) <= 1e-9
    for line, table in model.p_segment.items():
        assert abs(sum(table) - 1.0) <= 1e-9
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
        assert abs(sum(table) - 1.0) <= 1e-9
        uniform = 1.0 / len(table)
        for ti, value in enumerate(table):
            lo = min(raw.p_time[label][ti], uniform) - 1e-12
            hi = max(raw.p_time[label][ti], uniform) + 1e-12
            assert lo <= value <= hi
    assert abs(sum(smooth.p_line.values()) - 1.0) <= 1e-9
    for line, table in smooth.p_segment.items():
        assert abs(sum(table) - 1.0) <= 1e-9


# --- per-train probability at the edges of the tables ---

# trains on the one-month model's line and on a line without accidents
ONE_MONTH_TRAFFIC = traffic_of({("7", 0): 120.0, ("7", 1): 120.0, ("999", 0): 80.0})


def make_one_month_model():
    records = tuple(
        AccidentRecord(date=dt.date(2020, 1, 1 + i % 20), time=(18 * 60 + i) % 1440, line="7", km=float(i % 9))
        for i in range(40)
    )
    data = dataset_of(records, *PERIOD)
    return fit(data, total_days=1095)


def one_month_p(model, tau: int, t: float, line: str, x: float) -> float:
    return p_per_train(model, ONE_MONTH_TRAFFIC, DEFAULT_PROFILE, tau, t, line, x)


def test_zero_rate_month_short_circuits_missing_season() -> None:
    model = make_one_month_model()
    # June never occurs: mu=0, and its season has no hour table at all
    assert model.mu[6] == 0.0
    assert model.seasons.season_of(6) == "long" and "long" not in model.p_time
    assert one_month_p(model, 6, 12.0, "7", 0.0) == 0.0
    # km 0.0 is km bin 0, the first of line 7's model and traffic runs
    assert model.counts.x_first["7"] == ONE_MONTH_TRAFFIC.x_first["7"] == 0
    m = (ONE_MONTH_TRAFFIC.counts["7"][0] * alpha(18.0, 1.0, DEFAULT_PROFILE)) * 1.0
    temporal = model.p_time["short"][18] * model.mu[1]
    spatial = model.p_segment["7"][0] * model.p_line["7"]
    assert one_month_p(model, 1, 18.0, "7", 0.0) == temporal * spatial / m


def test_spatial_part_handles_unknown_locations() -> None:
    model = make_one_month_model()
    # a line without accidents has no p_line or p_segment entry, and its cells are 0
    assert "999" not in model.p_line and "999" not in model.p_segment
    assert one_month_p(model, 1, 18.0, "999", 0.0) == 0.0
    # line 7's km-bin run ends well before km 500 (bin 100)
    assert model.counts.x_first["7"] + len(model.p_segment["7"]) <= 100
    assert one_month_p(model, 1, 18.0, "7", 5.0) > 0.0


# --- construction from counts ---


def broken_counts(c) -> list[tuple[dict, str]]:
    """Changes to the counts ``c`` that each break one rule, with the start of its error."""
    hours, kms = c.by_season_tbin["short"], c.by_line_xbin["139"]

    def hour_run(run) -> dict:
        return {"by_season_tbin": {**c.by_season_tbin, "short": run}}

    def km_run(run) -> dict:
        return {"by_line_xbin": {**c.by_line_xbin, "139": run}}

    sums = "monthly and per-line counts must both sum"
    seasons, lines = "hour-bin counts must cover exactly", "km-bin counts must cover exactly"
    off_hours = "hour-bin counts of season 'short' disagree"
    one_run = "km-bin counts of line '139' must be one run"
    no_months = dict.fromkeys(c.by_month, 0)
    return [
        ({"total_days": 0.0}, "total_days must be positive and finite"),
        ({"total_days": math.inf}, "total_days must be positive and finite"),
        ({"by_month": {m: v for m, v in c.by_month.items() if m != 12}}, "monthly counts must cover"),
        ({"by_month": {**c.by_month, 1: -c.by_month[1]}}, "monthly counts must cover"),
        ({"by_month": {**c.by_month, 1: c.by_month[1] + 1}}, sums),
        ({"by_month": no_months}, sums),
        ({"by_month": no_months, "x_first": {}, "by_line_xbin": {}}, sums),
        ({"by_season_tbin": {k: v for k, v in c.by_season_tbin.items() if k != "short"}}, seasons),
        ({"by_season_tbin": {**c.by_season_tbin, "spare": hours}}, seasons),
        (hour_run(hours[:-1]), off_hours),
        (hour_run((hours[0] + 1, *hours[1:])), off_hours),
        (hour_run((hours[0] + hours[1] + 1, -1, *hours[2:])), off_hours),
        ({"by_line_xbin": {k: v for k, v in c.by_line_xbin.items() if k != "139"}}, lines),
        ({"x_first": {k: v for k, v in c.x_first.items() if k != "139"}}, lines),
        *(({"x_first": {**c.x_first, "139": k}}, f"x_first['139'] must be an int >= 0, got {k!r}")
          for k in (-1, 1.5, True)),
        (km_run(()), one_run),
        (km_run((0, *kms)), one_run),
        (km_run((*kms, 0)), one_run),
        (km_run((kms[0] + 1, *kms[1:])), sums),
        (km_run((kms[0] + kms[1] + 1, -1, *kms[2:])), one_run),
    ]


def test_fitted_model_refuses_counts_no_dataset_gives(bundled_model) -> None:
    seasons, bins = bundled_model.seasons, bundled_model.bins
    assert FittedModel(bundled_model.counts, seasons, bins) == bundled_model
    for changes, message in broken_counts(bundled_model.counts):
        broken = dataclasses.replace(bundled_model.counts, **changes)
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            FittedModel(broken, seasons, bins)
    for smoothing in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="^smoothing must be non-negative and finite"):
            dataclasses.replace(bundled_model, smoothing=smoothing)


def test_model_tables_and_counts_are_read_only(bundled_data) -> None:
    # a fresh model, so a table that did change could not leak into other tests
    model = fit(bundled_data, total_days=count_days(*PERIOD, "365"))
    text = model_to_json(model)
    with pytest.raises(TypeError):
        model.counts.by_month[1] += 1
    with pytest.raises(TypeError):
        model.mu[2] = 99.0
    counts = model.counts
    for table in (counts.by_month, counts.by_season_tbin, counts.x_first, counts.by_line_xbin,
                  model.mu, model.p_time, model.p_line, model.p_segment):
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = table[key]
        with pytest.raises(TypeError):
            del table[key]
    assert model_to_json(model) == text
    # the counts keep a copy of the tables they are given
    by_month = dict(counts.by_month)
    kept = dataclasses.replace(counts, by_month=by_month)
    by_month[1] += 1
    assert kept.by_month == counts.by_month
    assert model_to_json(FittedModel(kept, model.seasons, model.bins)) == text
    # a mappingproxy cannot be pickled; the model and its counts still can
    for copied in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert copied == model and model_to_json(copied) == text
        with pytest.raises(TypeError):
            copied.p_line["139"] = 1.0


def test_fitted_model_tables_cannot_be_passed_in(bundled_model) -> None:
    for name in ("mu", "p_time", "p_line", "p_segment"):
        table = getattr(bundled_model, name)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(bundled_model, **{name: table})
        with pytest.raises(TypeError):
            FittedModel(bundled_model.counts, bundled_model.seasons, bundled_model.bins, **{name: table})


def test_replacing_the_smoothing_derives_the_tables_anew(bundled_data, bundled_model) -> None:
    smooth = dataclasses.replace(bundled_model, smoothing=1.0)
    assert model_to_json(smooth) == model_to_json(fit(bundled_data, total_days=1095, smoothing=1.0))
    assert model_to_json(dataclasses.replace(smooth, smoothing=0.0)) == model_to_json(bundled_model)


def test_season_counts_sum_their_months(bundled_model) -> None:
    counts = bundled_model.counts
    assert counts.by_season == {
        label: sum(counts.by_month[m] for m in months)
        for label, months in bundled_model.seasons.groups.items()
    }


def test_the_count_totals_are_the_records_counted(bundled_data, bundled_model) -> None:
    counts = bundled_model.counts
    assert counts.n == bundled_data.n == 877
    names, codes = bundled_data.line_names, bundled_data.line_codes.tolist()
    assert counts.by_line == {line: codes.count(i) for i, line in enumerate(names)}
    # n and by_line are sums of the tables, so they cannot be passed in
    for name in ("n", "by_line"):
        with pytest.raises(TypeError):
            dataclasses.replace(counts, **{name: getattr(counts, name)})


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


def km_bins_edit(line: str, edit):
    """Edit one line's km-bin counts and re-derive its p_segment, so only the bins are off."""

    def apply(doc) -> None:
        table = doc["counts"]["by_line_xbin"][line]
        edit(table)
        doc["p_segment"][line] = {xs: c / doc["counts"]["by_line"][line] for xs, c in table.items()}

    return apply


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
        lambda d: d["seasons"].update(short=[11, 12, True, 2]),
        lambda d: d["seasons"].update(short=[11, 12, 1.0, 2]),
        lambda d: d["p_line"].update({"139": float("nan")}),
        lambda d: d["p_line"].update({"139": -0.25}),
        lambda d: d["mu"].update({"1": d["mu"]["1"] * 2}),
        lambda d: d["p_segment"]["139"].pop("10.0"),
        lambda d: d.update(notes="stray key"),
        lambda d: d.update(notes=None),
        lambda d: d["counts"]["by_line"].update({"139": d["counts"]["by_line"]["139"] + 1}),
        lambda d: d["counts"]["by_month"].update({"1": -81}),
        lambda d: d["counts"]["by_month"].update({"1": float("inf")}),
        lambda d: d["counts"].update(total_days=0),
        lambda d: d["counts"].update(n="877"),
        lambda d: d["counts"]["by_season_tbin"]["short"].pop("18.0"),
        lambda d: d["counts"]["by_line_xbin"].pop("139"),
        # km bins fit cannot write: a bin off the grid, a gap, an empty end
        # bin at either end, bins below km 0
        km_bins_edit("139", lambda t: t.__setitem__("11.0", t.pop("10.0"))),
        km_bins_edit("139", lambda t: t.__setitem__("20.0", t["20.0"] + t.pop("25.0"))),
        km_bins_edit("139", lambda t: t.update({"60.0": 0})),
        km_bins_edit("139", lambda t: t.update({"5.0": t["5.0"] + t["0.0"], "0.0": 0})),
        km_bins_edit("139", lambda t: [
            t.__setitem__(repr(float(xs) - 5.0), t.pop(xs)) for xs in sorted(t, key=float)
        ]),
    )
    for edit in edits:
        with pytest.raises(ValueError):
            model_from_json(tamper(bundled_model, edit))
    assert model_from_json(tamper(bundled_model, km_bins_edit("139", lambda t: None)))


COMMITTED_MODEL = DATA_DIR.parent / "demos" / "output" / "model.json"


def retyped_models() -> list[str]:
    """The committed model.json with one count of the same value but another JSON type."""
    text = COMMITTED_MODEL.read_text(encoding="utf-8")
    edits = [('"0.0": 0,', '"0.0": false,'), ('"n": 877,', '"n": 877.0,')]
    for old, new in edits:
        assert old in text
    return [text.replace(old, new, 1) for old, new in edits]


def test_model_from_json_rejects_counts_of_another_type() -> None:
    # int() reads false as 0 and 877.0 as 877, but fit never writes either
    for text in retyped_models():
        json.loads(text)
        with pytest.raises(ValueError, match="disagrees with its counts"):
            model_from_json(text)


def test_warn_rejects_counts_of_another_type(tmp_path: Path, capsys) -> None:
    for text in retyped_models():
        model = tmp_path / "model.json"
        model.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["warn", "--model", str(model), "--traffic",
                     str(DATA_DIR / "traffic.csv"), "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {model}: "), err
        assert not out.exists()


def test_model_json_round_trips_an_integer_smoothing(bundled_data) -> None:
    model = fit(bundled_data, smoothing=1)
    assert model.smoothing == 1.0 and isinstance(model.smoothing, float)
    text = model_to_json(model)
    assert '"smoothing": 1.0' in text
    assert model_to_json(model_from_json(text)) == text

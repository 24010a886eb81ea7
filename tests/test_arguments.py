"""One rule for the numeric arguments of the library's entry points.

A number is an int, a float or a numpy real, never a bool, and an array of
numbers has an integer or float dtype.  Anything else is a TypeError, and an
int too large for a float or a value out of range a ValueError; either way
the text names the argument.
"""

from __future__ import annotations

import dataclasses
import math
import re
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wildrail import (
    DEFAULT_PROFILE,
    DEFAULT_SEASONS,
    BinConfig,
    LineGeometry,
    SpeedProfile,
    TrafficProfile,
    TrafficTable,
    alpha,
    bin_index,
    evaluate_holdout,
    fit,
    hex_bin,
    p_per_train,
    parse_traffic,
    speed_correlation,
    sweep_all,
    warnings_to_geojson,
)

TRAFFIC_ROWS = "line,km_from,count\n139,10.0,5\n"


@pytest.fixture(scope="module")
def bundled(
    bundled_data, bundled_test_data, bundled_traffic, bundled_model, bundled_geometries,
    bundled_speeds,
) -> SimpleNamespace:
    return SimpleNamespace(
        data=bundled_data, test=bundled_test_data, traffic=bundled_traffic, model=bundled_model,
        geometries=bundled_geometries, speeds=bundled_speeds,
        grid=sweep_all(bundled_model, bundled_traffic, DEFAULT_PROFILE, (0.001,)),
    )


class Row(NamedTuple):
    """An entry point called with one numeric argument set to ``value``, the rest fixed."""

    name: str  # the argument as the error text names it
    call: Callable[[SimpleNamespace, Any], Any]
    valid: Any  # a value of the argument the call returns for
    none_ok: bool = False  # None means "not given" here


def p(b, tau=1, t=18.0, x=12.0):
    return p_per_train(b.model, b.traffic, DEFAULT_PROFILE, tau, t, "139", x)


ROWS = {
    "bin_index value": Row("value", lambda b, v: bin_index(v, 5.0), 12.0),
    "bin_index delta": Row("delta", lambda b, v: bin_index(12.0, v), 5.0),
    "TrafficTable delta_x": Row("delta_x", lambda b, v: TrafficTable({}, {}, v), 5.0),
    "parse_traffic delta_x": Row("delta_x", lambda b, v: parse_traffic(TRAFFIC_ROWS, v), 5.0),
    "BinConfig delta_x": Row("delta_x", lambda b, v: BinConfig(delta_x=v), 5.0),
    "BinConfig delta_t": Row("delta_t", lambda b, v: BinConfig(delta_t=v), 1.0),
    "FittedModel smoothing": Row(
        "smoothing", lambda b, v: dataclasses.replace(b.model, smoothing=v), 1.0
    ),
    "FittedModel total_days": Row(
        "total_days",
        lambda b, v: dataclasses.replace(
            b.model, counts=dataclasses.replace(b.model.counts, total_days=v)
        ),
        1095,
    ),
    "fit total_days": Row("total_days", lambda b, v: fit(b.data, total_days=v), 1095, True),
    "fit smoothing": Row("smoothing", lambda b, v: fit(b.data, smoothing=v), 0.5),
    "alpha t": Row("t", lambda b, v: alpha(v, 1.0), 18.0),
    "alpha delta_t": Row("delta_t", lambda b, v: alpha(18.0, v), 1.0),
    "p_per_train km": Row("km", lambda b, v: p(b, x=v), 12.0),
    "p_per_train month": Row("month", lambda b, v: p(b, tau=v), 1),
    "p_per_train hour": Row("hour", lambda b, v: p(b, t=v), 18.0),
    "WarningGrid.locate km": Row(
        "km", lambda b, v: b.grid.locate(("139",), [0], v, [1], [18.0]), [12.0]
    ),
    "sweep_all thresholds": Row(
        "thresholds", lambda b, v: sweep_all(b.model, b.traffic, DEFAULT_PROFILE, (v,)), 0.001
    ),
    "warnings_to_geojson theta": Row(
        "theta", lambda b, v: warnings_to_geojson(b.grid, b.geometries, v), 0.001
    ),
    "warnings_to_geojson month": Row(
        "month", lambda b, v: warnings_to_geojson(b.grid, b.geometries, 0.001, month=v), 1, True
    ),
    "warnings_to_geojson hour": Row(
        "hour", lambda b, v: warnings_to_geojson(b.grid, b.geometries, 0.001, hour=v), 18.0, True
    ),
    "hex_bin spacing": Row("spacing", lambda b, v: hex_bin([(50.0, 19.0)], v), 2.5),
    "hex_bin points": Row("points", lambda b, v: hex_bin(v), [(50.0, 19.0)]),
    "speed_correlation delta_x": Row(
        "delta_x", lambda b, v: speed_correlation(b.data, b.traffic, b.speeds, v), 5.0
    ),
    "evaluate_holdout theta": Row("theta", lambda b, v: evaluate_holdout(b.grid, b.test, v), 0.001),
    "TrafficProfile piece mass": Row(
        "piece mass", lambda b, v: TrafficProfile(groups=((v, ((0.0, 24.0),)),)), 1.0
    ),
    "TrafficProfile window start": Row(
        "window start", lambda b, v: TrafficProfile(groups=((1.0, ((v, 24.0),)),)), 0.0
    ),
    "TrafficProfile window end": Row(
        "window end", lambda b, v: TrafficProfile(groups=((1.0, ((0.0, v),)),)), 24.0
    ),
    "SeasonScheme.season_of month": Row("month", lambda b, v: DEFAULT_SEASONS.season_of(v), 1),
    "LineGeometry km": Row(
        "km", lambda b, v: LineGeometry("139", ((50.0, 19.0, 0.0), (50.1, 19.1, v))), 10.0
    ),
    "SpeedProfile km_from": Row(
        "km_from", lambda b, v: SpeedProfile("139", ((v, 10.0, 100.0),)), 0.0
    ),
    "SpeedProfile km_to": Row("km_to", lambda b, v: SpeedProfile("139", ((0.0, v, 100.0),)), 10.0),
    "SpeedProfile vmax": Row("vmax", lambda b, v: SpeedProfile("139", ((0.0, 10.0, v),)), 100.0),
}

HUGE = 10**400  # an int no float can hold

# what is not a number: numeric strings, bools, None, object arrays and huge ints
NOT_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.booleans().flatmap(lambda b: st.sampled_from([b, np.bool_(b)])),
    st.none(),
    st.one_of(st.floats(), st.integers(-(2**70), 2**70)).flatmap(
        lambda v: st.sampled_from([np.array(v, dtype=object), np.array([v], dtype=object)])
    ),
    st.integers(min_value=2**1024, max_value=10**1000).flatmap(lambda v: st.sampled_from([v, -v])),
)


def assert_refused(row: Row, b: SimpleNamespace, value: Any) -> BaseException:
    with pytest.raises((TypeError, ValueError)) as info:
        row.call(b, value)
    text = str(info.value)
    assert re.search(rf"(^|\W){re.escape(row.name)}\W", text), text
    return info.value


@pytest.mark.parametrize("key", sorted(ROWS))
def test_each_entry_point_takes_a_number_and_a_numpy_real(key: str, bundled) -> None:
    row = ROWS[key]
    row.call(bundled, row.valid)
    row.call(bundled, np.asarray(row.valid)[()])  # a numpy scalar, or an array for an array


@pytest.mark.parametrize("key", sorted(ROWS))
@given(value=NOT_NUMBERS)
@example(value=True)  # fit(total_days=True) gave mu[1] == 972.0, BinConfig kept it,
# season_of(True) gave "short" and TrafficProfile kept it as a piece mass
@example(value="0.001")  # sweep_all took it as a threshold
@example(value="1")  # TrafficProfile failed on a bare "<" comparison
@example(value="12")  # p_per_train failed on a bare "<=" comparison
@example(value="5")  # speed_correlation said delta_x=5 did not match the bin width 5.0
@example(value=HUGE)  # BinConfig, fit and sweep_all raised OverflowError
@settings(max_examples=30)
def test_each_entry_point_refuses_what_is_not_a_number(key: str, bundled, value) -> None:
    row = ROWS[key]
    if value is None and row.none_ok:
        return
    assert_refused(row, bundled, value)


# each overflow was an OverflowError, and the filters an empty FeatureCollection
@pytest.mark.parametrize(
    "key,value",
    [
        ("BinConfig delta_x", HUGE),
        ("fit total_days", HUGE),
        # a month of T / 12 days underflowed to 0 (ZeroDivisionError) or gave mu = inf
        ("fit total_days", 5e-324),
        ("fit total_days", 4e-322),
        ("FittedModel total_days", 5e-324),
        ("FittedModel total_days", 4e-322),
        ("fit smoothing", HUGE),
        ("sweep_all thresholds", HUGE),
        ("warnings_to_geojson month", 13),
        ("warnings_to_geojson hour", 24.0),
    ],
    ids=lambda v: "HUGE" if v is HUGE else None,
)
def test_values_no_float_or_cell_holds_are_value_errors(key: str, value, bundled) -> None:
    error = assert_refused(ROWS[key], bundled, value)
    assert type(error) is ValueError


# one number where a collection of them is due was a bare "'float' object is not iterable"
@pytest.mark.parametrize("value", [0.001, 1, True, np.float64(0.001), np.array(0.001)])
def test_one_threshold_is_not_taken_for_a_collection_of_them(value, bundled) -> None:
    with pytest.raises(TypeError, match=r"^thresholds must be a collection of numbers, got "):
        sweep_all(bundled.model, bundled.traffic, DEFAULT_PROFILE, value)


def test_a_huge_int_is_named_without_printing_it() -> None:
    for value in (10**5000, -(10**5000)):  # past the int-to-str digit limit of Python 3.11+
        with pytest.raises(ValueError, match="^delta_x must fit a float, got an int of 16610 bits$"):
            BinConfig(delta_x=value)


# NaN passes no "<" test, so each was built: a profile whose every p_pt is NaN
# and unflagged, a line whose km_to_geo gives (nan, nan), and NaN speed steps
@pytest.mark.parametrize(
    "key,text",
    [
        ("TrafficProfile piece mass", "piece mass must be non-negative and finite, got nan"),
        ("LineGeometry km", r"km values must strictly increase \(0\.0 -> nan\)"),
        ("SpeedProfile km_to", r"empty interval 0\.0\.\.nan"),
        ("SpeedProfile vmax", "vmax must be positive and finite, got nan"),
    ],
)
def test_a_nan_fails_each_order_check(key: str, text: str, bundled) -> None:
    with pytest.raises(ValueError, match=text):
        ROWS[key].call(bundled, math.nan)


# inf passes every order check, so each was built, as parse_geometries and
# parse_speed_profiles refuse it
@pytest.mark.parametrize(
    "key,value,text",
    [
        ("LineGeometry km", math.inf, "km must be finite, got inf"),
        ("SpeedProfile km_from", -math.inf, "km_from must be finite, got -inf"),
        ("SpeedProfile km_to", math.inf, "km_to must be finite, got inf"),
    ],
)
def test_an_infinite_km_fails_its_finite_check(key: str, value: float, text: str, bundled) -> None:
    with pytest.raises(ValueError, match=f"^line '139': {text}$"):
        ROWS[key].call(bundled, value)


def test_a_whole_float_month_has_a_season_as_it_has_a_grid_cell() -> None:
    assert DEFAULT_SEASONS.season_of(1.0) == DEFAULT_SEASONS.season_of(1) == "short"
    with pytest.raises(ValueError, match="^month must be 1..12, got 1.5$"):
        DEFAULT_SEASONS.season_of(1.5)

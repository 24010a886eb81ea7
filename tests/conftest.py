"""Shared fixtures: the bundled example data and a synthetic dataset factory."""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from wildrail import (
    AccidentRecord,
    Dataset,
    FittedModel,
    TrafficTable,
    count_days,
    fit,
    parse_accidents,
    parse_geometries,
    parse_speed_profiles,
    parse_traffic,
)

# deterministic hypothesis runs so repeated test invocations are byte-identical
settings.register_profile("repo", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("repo")

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
PERIOD = (dt.date(2020, 1, 1), dt.date(2022, 12, 31))


@pytest.fixture(scope="session")
def bundled_data() -> Dataset:
    with open(DATA_DIR / "accidents_2020_2022.csv", encoding="utf-8") as fh:
        return parse_accidents(fh, PERIOD)


@pytest.fixture(scope="session")
def bundled_traffic() -> TrafficTable:
    with open(DATA_DIR / "traffic.csv", encoding="utf-8") as fh:
        return parse_traffic(fh, 5.0)


@pytest.fixture(scope="session")
def bundled_test_data() -> Dataset:
    with open(DATA_DIR / "accidents_2023_test.csv", encoding="utf-8") as fh:
        return parse_accidents(fh, (dt.date(2023, 1, 1), dt.date(2023, 12, 31)))


@pytest.fixture(scope="session")
def bundled_geometries():
    with open(DATA_DIR / "lines.geojson", encoding="utf-8") as fh:
        return parse_geometries(fh)


@pytest.fixture(scope="session")
def bundled_speeds():
    with open(DATA_DIR / "speeds.csv", encoding="utf-8") as fh:
        return parse_speed_profiles(fh)


@pytest.fixture(scope="session")
def bundled_model(bundled_data: Dataset) -> FittedModel:
    # 1095 days: three years with the 2020 leap day skipped
    return fit(bundled_data, total_days=count_days(*PERIOD, "365"))


def dataset_of(records, start: dt.date, end: dt.date) -> Dataset:
    """``parse_accidents`` of ``records`` written as accident CSV, over [start, end].

    Fails when the parsed records differ from ``records``.  No records give
    an empty Dataset, which ``parse_accidents`` refuses to make.
    """
    records = tuple(records)
    if not records:
        no_ints = np.zeros(0, dtype=np.int64)
        return Dataset(start, end, (), no_ints, np.zeros(0), no_ints, no_ints, ())
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("date", "time", "line", "km", "species"))
    for r in records:
        time = f"{r.time // 60:02d}:{r.time % 60:02d}"
        writer.writerow((r.date.isoformat(), time, r.line, repr(float(r.km)), r.species))
    data = parse_accidents(out.getvalue(), (start, end))
    assert tuple(data.records) == records
    return data


def traffic_of(counts: dict[tuple[str, int], float], delta_x: float = 5.0) -> TrafficTable:
    """The TrafficTable with ``counts[(line, k)]`` trains in km bin k of each line.

    Each line's run spans its lowest to its highest listed bin, with zeros in
    the gaps, as ``parse_traffic`` lays out rows of those bins.
    """
    x_first: dict[str, int] = {}
    runs: dict[str, np.ndarray] = {}
    for (line, k), count in counts.items():
        x_first[line] = min(x_first.get(line, k), k)
    for line, first in x_first.items():
        bins = {k - first: count for (name, k), count in counts.items() if name == line}
        runs[line] = np.zeros(max(bins) + 1)
        runs[line][list(bins)] = list(bins.values())
    return TrafficTable(x_first=x_first, counts=runs, delta_x=delta_x)


def make_synthetic(
    rng: np.random.Generator,
    max_records: int = 1000,
    max_lines: int = 5,
    km_span: float = 30.0,
) -> tuple[Dataset, TrafficTable]:
    """Random accident dataset plus a traffic table over the same lines.

    Traffic intentionally includes zero-count bins and bins past the observed
    km range so grids carry flagged cells too.
    """
    n_lines = int(rng.integers(1, max_lines + 1))
    lines = [str(100 + i) for i in range(n_lines)]
    years = int(rng.integers(1, 4))
    start = dt.date(int(rng.integers(2015, 2022)), 1, 1)
    end = dt.date(start.year + years - 1, 12, 31)
    span = (end - start).days
    n = int(rng.integers(20, max_records + 1))
    weights = rng.dirichlet(np.ones(n_lines))
    records = []
    for _ in range(n):
        date = start + dt.timedelta(days=int(rng.integers(0, span + 1)))
        time = int(rng.integers(0, 24 * 60))
        line = lines[int(rng.choice(n_lines, p=weights))]
        km = float(rng.uniform(0.0, km_span))
        records.append(AccidentRecord(date=date, time=time, line=line, km=km, species=""))
    data = dataset_of(records, start, end)
    counts: dict[tuple[str, int], float] = {}
    n_bins = int(km_span // 5.0) + 2
    for line in lines:
        for i in range(n_bins):
            draw = rng.uniform()
            if draw < 0.2:
                continue  # bin absent from the table
            counts[(line, i)] = 0.0 if draw < 0.35 else float(rng.integers(10, 200))
    return data, traffic_of(counts)


@contextlib.contextmanager
def no_records():
    """Fail any code that builds an AccidentRecord inside the block."""
    built = AssertionError("an AccidentRecord was built")
    record_type = mock.Mock(side_effect=built)
    record_type._make.side_effect = built  # the records view builds through _make
    with mock.patch("wildrail.ingest.AccidentRecord", record_type):
        yield

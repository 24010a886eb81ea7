"""Run holdout-analytics in a fresh interpreter and print its result as JSON.

``run.py`` starts this script after it has generated the inputs, so the
process's peak resident memory (``ru_maxrss``) is wildrail's and the
generator's is not counted.  The spec is a JSON file:
``{"workload", "seed", "seconds", "trace", "inputs", "trace_out"}``.

The timed body runs in passes for about ``seconds``.  With ``trace`` on,
passes alternate between untraced and traced, so the run yields both the
per-layer self times and the tracing overhead.  Correctness checks run on
the outputs of every pass, outside the timed region.  ``peak_rss_mb`` is
read after the first untraced pass: the memory one analysis needs, as in
one CLI invocation.  Later passes can add up to 19 MB to the heap, depending
on when the collector runs, and how many passes fit into a run depends on
how fast the host is.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os
import resource
import sys
import traceback

import wildrail
from wildrail import (
    DEFAULT_PROFILE,
    DEFAULT_SEASONS,
    count_days,
    evaluate_holdout,
    fit,
    hex_bin,
    hex_grid_to_geojson,
    hourly_profile,
    km_to_geo,
    parse_accidents,
    parse_geometries,
    parse_speed_profiles,
    parse_traffic,
    species_profile,
    speed_correlation,
    sweep_all,
)
from spans import Tracer, direct, now_ns

THRESHOLDS = (0.0005, 0.001, 0.002)
THETA = 0.001
DELTA_X = 5.0


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _period(pair) -> tuple[dt.date, dt.date]:
    return (dt.date.fromisoformat(pair[0]), dt.date.fromisoformat(pair[1]))


class Checks:
    """Counts checked operations and keeps the first few failure messages."""

    def __init__(self) -> None:
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


class HoldoutAnalytics:
    """Ingest, fit, score and hex-bin 200k + 200k records on 200 lines x 400 km.

    ``run_pass`` is the timed body; ``check`` tests one pass's outputs.  A pass
    is one operation, the base of the error rate, and does ``work_per_pass``
    records.
    """

    def __init__(self, inputs: dict) -> None:
        self.inputs = inputs
        self.counts: dict[str, float] = {}
        self.files = inputs["files"]
        self.work_per_pass = self.files["accidents"]["rows"] + self.files["test"]["rows"]
        self.train_period = _period(inputs["train_period"])
        self.test_period = _period(inputs["test_period"])

    def run_pass(self, call):
        files = self.files
        train = call("ingest.parse_accidents", parse_accidents, _read(files["accidents"]["path"]), self.train_period)
        test = call("ingest.parse_accidents", parse_accidents, _read(files["test"]["path"]), self.test_period)
        traffic = call("ingest.parse_traffic", parse_traffic, _read(files["traffic"]["path"]), DELTA_X)
        speeds = call("ingest.parse_speed_profiles", parse_speed_profiles, _read(files["speeds"]["path"]))
        geometries = call("ingest.parse_geometries", parse_geometries, _read(files["geometry"]["path"]))
        model = call("model.fit", fit, train, total_days=count_days(*self.train_period, "365"))
        grid = call("warn.sweep_all", sweep_all, model, traffic, DEFAULT_PROFILE, THRESHOLDS)
        plain = call("analysis.evaluate_holdout", evaluate_holdout, grid, test, THETA)
        adjacent = call("analysis.evaluate_holdout", evaluate_holdout, grid, test, THETA, include_adjacent=True)
        points = []
        for rec in train.records:
            geometry = geometries.get(rec.line)
            if geometry is not None and geometry.km_min <= rec.km <= geometry.km_max:
                points.append(call("ingest.km_to_geo", km_to_geo, geometry, rec.km))
        hexes = call("analysis.hex_bin", hex_bin, points, 2.5)
        hex_json = call("analysis.hex_grid_to_geojson", hex_grid_to_geojson, hexes)
        corr = call("analysis.speed_correlation", speed_correlation, train, traffic, speeds, DELTA_X)
        species = call("analysis.species_profile", species_profile, train)
        hourly = call("analysis.hourly_profile", hourly_profile, train, DEFAULT_SEASONS)
        return train, test, grid, plain, adjacent, points, hexes, hex_json, corr, species, hourly

    def check(self, out, checks: Checks) -> None:
        train, test, grid, plain, adjacent, points, hexes, hex_json, corr, species, hourly = out
        n_test = self.files["test"]["rows"]
        checks.expect(train.n == self.files["accidents"]["rows"] and test.n == n_test, "record counts")
        for report in (plain, adjacent):
            checks.expect(report.n_mapped + report.n_unmapped == report.n_test == n_test, "mapped + unmapped")
        checks.expect(plain.n_unmapped == self.inputs["n_test_moved_off_grid"], f"unmapped {plain.n_unmapped}")
        checks.expect(adjacent.hits >= plain.hits, "adjacent bins lost hits")
        checks.expect(len(points) == train.n, f"geocoded {len(points)} of {train.n}")
        checks.expect(hexes.total == len(points), "hex total differs from the geocoded count")
        checks.expect(len(json.loads(hex_json)["features"]) == len(hexes.cells), "hex GeoJSON features")
        checks.expect(math.isfinite(corr.pearson) and math.isfinite(corr.spearman), "correlation not finite")
        checks.expect(sum(species.values()) == train.n, "species profile sum")
        checks.expect(sum(hourly.values()) == train.n, "hourly profile sum")
        self.counts = {
            "ingest.records": train.n + test.n,
            "warn.cells": grid.n_cells(),
            "warn.warned_cells": grid.warned_cells(THETA),
            "analysis.mapped_ratio": plain.n_mapped / plain.n_test,
        }


def run(spec: dict) -> dict:
    workload = HoldoutAnalytics(spec["inputs"])
    trace = bool(spec["trace"])
    tracer = Tracer()
    checks = Checks()
    pass_ns: dict[bool, list[int]] = {False: [], True: []}
    failed_passes = 0
    peak_rss_mb = None
    deadline = now_ns() + int(spec["seconds"] * 1e9)
    n = last_ns = 0
    # a pass starts only if it should end nearer the deadline than its own length
    # before it, so a run measures about ``seconds`` even when passes are long
    while now_ns() + last_ns // 2 < deadline or n < (2 if trace else 1):
        traced = trace and n % 2 == 1
        before = checks.failed
        t0 = now_ns()
        try:
            if traced:
                out = tracer.call("bench.pass", workload.run_pass, tracer.call)
            else:
                out = workload.run_pass(direct)
        except Exception:  # a failing call is counted, reported and ends the run
            checks.expect(False, traceback.format_exc(limit=3))
            failed_passes += 1
            n += 1
            break
        pass_ns[traced].append(now_ns() - t0)
        workload.check(out, checks)
        del out  # so the next pass does not run with this one's outputs still alive
        failed_passes += checks.failed > before
        n += 1
        last_ns = now_ns() - t0
        if len(pass_ns[False]) == 1 and peak_rss_mb is None:
            peak_rss_mb = _max_rss_mb()
    if peak_rss_mb is None:
        peak_rss_mb = _max_rss_mb()
    result = {
        "wildrail_file": wildrail.__file__,
        "attempted": n,
        "failed": failed_passes,
        "messages": checks.messages,
        "pass_ns": pass_ns[False],
        "traced_pass_ns": pass_ns[True],
        "work_per_pass": workload.work_per_pass,
        "peak_rss_mb": peak_rss_mb,
        "counts": workload.counts,
    }
    if trace:
        result["self_s"] = tracer.self_times()
        result["n_spans"] = len(tracer.start)
        with open(spec["trace_out"], "w", encoding="utf-8") as fh:
            json.dump({"workload": spec["workload"], "seed": spec["seed"], **tracer.to_json()}, fh)
    return result


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    print(json.dumps(run(spec)))


if __name__ == "__main__":
    main()

"""wildrail benchmark: end-to-end and per-layer timings of the public API and the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

- ``bundled-cli``        the six CLI commands as subprocesses on ``data/``;
- ``holdout-analytics``  parse, fit, sweep, evaluate and hex-bin 200k + 200k records
  of a seeded synthetic network, in a worker process (``worker.py``).

The program is imported from ``src/`` of the checkout this script sits in;
nothing is installed.  Synthetic inputs are generated from ``--seed`` into a
scratch directory under ``.perfbench/`` before the measured process starts,
and removed at the end.  All load comes from one process at a time.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics:
self time per pass of each traced public call, counts, and the tracing
overhead.  The lines before it are a human-readable report: machine facts,
input digests and every named metric with its unit.  Only wall time and
``ru_maxrss`` of the benchmark's own processes are measurable here; there is
no system-wide tracing.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from importlib import metadata

import numpy as np

import synth
from spans import Tracer, now_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 150
CLI_TIMEOUT_S = 30
IMPORT_PROBES = (4, 3)  # fresh-interpreter imports before and after the measured body

HOLDOUT_SIZE = (200, 400.0, 200_000, 200_000)  # lines, km per line, training and test accidents

# --- bundled-cli -----------------------------------------------------------

PERIOD_FLAGS = ["--period-start", "2020-01-01", "--period-end", "2022-12-31"]
ACCIDENTS = ["--accidents", "data/accidents_2020_2022.csv", *PERIOD_FLAGS]
CLI_COMMANDS = {  # command -> (arguments before --out-dir, outputs compared with demos/output)
    "fit": ([*ACCIDENTS, "--days-per-year", "365"], ("model.json",)),
    "warn": (
        ["--model", "{out}/model.json", "--traffic", "data/traffic.csv", "--geometry",
         "data/lines.geojson", "--theta-map", "0.001", "--month", "1"],
        ("warnings.csv", "warnings.geojson"),
    ),
    "eval": (
        ["--model", "{out}/model.json", "--traffic", "data/traffic.csv", "--test",
         "data/accidents_2023_test.csv", "--theta", "0.001"],
        ("eval.json",),
    ),
    "map": ([*ACCIDENTS, "--geometry", "data/lines.geojson"], ("hexmap.geojson",)),
    "corr": ([*ACCIDENTS, "--traffic", "data/traffic.csv", "--speeds", "data/speeds.csv"], ("correlation.json",)),
    "profile": (ACCIDENTS, ()),
}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(seed % 2**32)  # string hashing, like the inputs, follows the seed
    return env


def _run_child(argv: list[str], env: dict, log_path: str) -> tuple[int, float, float]:
    """Run a child to completion; return its exit code, wall seconds and ru_maxrss in MB."""
    with open(log_path, "wb") as log:
        t0 = now_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)  # a hung command fails, it does not hang the run
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = (now_ns() - t0) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class BundledCli:
    """The six commands in sequence; fit first, the other five in a seeded order."""

    def __init__(self, work: str, seed: int) -> None:
        self.work = work
        self.env = _child_env(seed)
        rest = list(CLI_COMMANDS)[1:]
        np.random.default_rng(seed).shuffle(rest)
        self.order = ["fit", *rest]
        with open(os.path.join(HERE, "expected_outputs.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)  # sha256 of demos/output/*, fixed when the benchmark was written
        with open(os.path.join(ROOT, "data", "accidents_2020_2022.csv"), encoding="utf-8") as fh:
            self.n_records = sum(1 for _ in fh) - 1
        self.cmd_s: dict[str, list[float]] = {cmd: [] for cmd in CLI_COMMANDS}
        self.peak_rss_mb = 0.0
        self.messages: list[str] = []

    def _argv(self, cmd: str, out: str, spans_out: str | None) -> list[str]:
        args = [a.replace("{out}", out) for a in CLI_COMMANDS[cmd][0]] + ["--out-dir", out]
        if spans_out is None:
            return [sys.executable, "-m", "wildrail", cmd, *args]
        return [sys.executable, os.path.join(HERE, "clishim.py"), spans_out, cmd, *args]

    def run_pass(self, tracer: Tracer | None) -> tuple[float, int]:
        """One pass of all six commands; returns its wall seconds and failed commands."""
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        total, failed = 0.0, 0
        for cmd in self.order:
            log = os.path.join(self.work, f"{cmd}.log")
            if tracer is None:
                code, wall, rss = _run_child(self._argv(cmd, out, None), self.env, log)
            else:
                spans_out = os.path.join(self.work, f"{cmd}.spans.json")
                index = len(tracer.start)
                code, wall, rss = tracer.call(
                    f"cli.{cmd}", _run_child, self._argv(cmd, out, spans_out), self.env, log
                )
                if code == 0:
                    with open(spans_out, encoding="utf-8") as fh:
                        tracer.adopt(json.load(fh), index)
            total += wall
            if tracer is None:
                self.cmd_s[cmd].append(wall)
                self.peak_rss_mb = max(self.peak_rss_mb, rss)
            failed += not self._check(cmd, code, out, log)
        return total, failed

    def _check(self, cmd: str, code: int, out: str, log: str) -> bool:
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                self.messages.append(f"{cmd} exited {code}: {fh.read()[-500:]}")
            return False
        for name in CLI_COMMANDS[cmd][1]:
            path = os.path.join(out, name)
            if not os.path.exists(path) or _sha256(path) != self.expected[name]:
                self.messages.append(f"{cmd}: {name} differs from the committed digest of demos/output/{name}")
                return False
        if cmd == "profile":
            for name in ("species.csv", "hourly.csv"):
                try:
                    with open(os.path.join(out, name), encoding="utf-8") as fh:
                        total = sum(int(row.rsplit(",", 1)[1]) for row in fh.read().splitlines()[1:])
                except (OSError, ValueError, IndexError) as exc:
                    self.messages.append(f"profile: unreadable {name}: {exc}")
                    return False
                if total != self.n_records:
                    self.messages.append(f"profile: {name} sums to {total}, not {self.n_records}")
                    return False
        return True

    def counts(self) -> dict:
        out = os.path.join(self.work, "out")
        with open(os.path.join(out, "warnings.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        warned_col = rows[0].split(",").index("warned@0.001")
        with open(os.path.join(out, "warnings.geojson"), encoding="utf-8") as fh:
            features = json.load(fh)["features"]
        with open(os.path.join(out, "eval.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        accident_reads = sum(cmd in ("fit", "map", "corr", "profile") for cmd in self.order)
        return {
            "ingest.records": accident_reads * self.n_records + report["n_test"],
            "model.json_bytes": os.path.getsize(os.path.join(out, "model.json")),
            "warn.cells": len(rows) - 1,
            "warn.warned_cells": sum(row.split(",")[warned_col] == "1" for row in rows[1:]),
            "warn.csv_bytes": os.path.getsize(os.path.join(out, "warnings.csv")),
            "warn.geojson_features": len(features),
            "analysis.mapped_ratio": report["n_mapped"] / report["n_test"],
        }


def run_bundled_cli(work: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = BundledCli(work, seed)
    tracer = Tracer()
    pass_s: dict[bool, list[float]] = {False: [], True: []}
    failed = attempted = 0
    deadline = now_ns() + int(seconds * 1e9)
    n = last_ns = 0
    while now_ns() + last_ns // 2 < deadline or n < (2 if trace else 1):  # as in worker.run
        traced = trace and n % 2 == 1
        t0 = now_ns()
        if traced:
            wall, bad = tracer.call("bench.pass", bench.run_pass, tracer)
        else:
            wall, bad = bench.run_pass(None)
        pass_s[traced].append(wall)
        failed += bad
        attempted += len(bench.order)
        n += 1
        last_ns = now_ns() - t0
    cmd_s = [s for times in bench.cmd_s.values() for s in times]
    work_per_s = len(cmd_s) / sum(cmd_s)
    result = {
        "attempted": attempted,
        "failed": failed,
        "messages": bench.messages,
        "pass_s": pass_s[False],
        "traced_pass_s": pass_s[True],
        "end_to_end": {"work_per_s": work_per_s, "peak_rss_mb": bench.peak_rss_mb},
        "named": {
            "cmd_p50_s": (statistics.median(cmd_s), "s", len(cmd_s)),
            "pass_s": (statistics.median(pass_s[False]), "s", len(pass_s[False])),
            "peak_rss_mb": (bench.peak_rss_mb, "MB", len(cmd_s)),
            **{f"cli.{c}_wall_s": (statistics.median(v), "s", len(v)) for c, v in bench.cmd_s.items()},
        },
        "counts": bench.counts() if failed == 0 else {},
    }
    if trace:
        result["self_s"] = tracer.self_times()
        result["n_spans"] = len(tracer.start)
        result["trace_doc"] = tracer.to_json()
    return result


# --- holdout-analytics -----------------------------------------------------


def run_holdout(work: str, seed: int, seconds: float, trace: bool, trace_out: str) -> dict:
    inputs = synth.generate(os.path.join(work, "inputs"), seed, *HOLDOUT_SIZE)
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": "holdout-analytics", "seed": seed, "seconds": seconds, "trace": trace,
             "inputs": inputs, "trace_out": trace_out},
            fh,
        )
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        cwd=ROOT, env=_child_env(seed), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    raw = json.loads(proc.stdout.splitlines()[-1])
    _check_import_path(raw["wildrail_file"])
    untraced_s = [ns / 1e9 for ns in raw["pass_ns"]]
    if not untraced_s:
        raise RuntimeError("no untraced pass completed: " + " | ".join(raw["messages"]))
    result = {
        "inputs": inputs,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "messages": raw["messages"],
        "pass_s": untraced_s,
        "traced_pass_s": [ns / 1e9 for ns in raw["traced_pass_ns"]],
        "counts": raw["counts"],
    }
    work_per_s = raw["work_per_pass"] * len(untraced_s) / sum(untraced_s)
    named = {
        "records_per_s": (work_per_s, "1/s", len(untraced_s)),
        "pass_s": (statistics.median(untraced_s), "s", len(untraced_s)),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", 1),
    }
    result["end_to_end"] = {"work_per_s": work_per_s, "peak_rss_mb": raw["peak_rss_mb"]}
    result["named"] = named
    if trace:
        result["self_s"] = raw["self_s"]
        result["n_spans"] = raw["n_spans"]
    return result


# --- common -----------------------------------------------------------------


def _check_import_path(path: str) -> None:
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise RuntimeError(f"wildrail was imported from {path}, not from {SRC}")


def measure_setup(work: str, seed: int, n: int) -> list[float]:
    """Seconds to ``import wildrail`` in each of ``n`` fresh interpreters.

    The bytecode cache is filled first, as any earlier run would have done.
    """
    compileall.compile_dir(os.path.join(SRC, "wildrail"), quiet=1)
    probe = (
        "import time; t0 = time.perf_counter(); import wildrail; "
        "t1 = time.perf_counter(); print(t1 - t0, wildrail.__file__)"
    )
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=work, env=_child_env(seed), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import wildrail failed: {proc.stderr[-2000:]}")
        seconds, path = proc.stdout.split(maxsplit=1)
        _check_import_path(path.strip())
        times.append(float(seconds))
    return times


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "measurable": "wall time and ru_maxrss of the benchmark's own processes; no system-wide tracing",
    }


def per_layer_metrics(result: dict, manifest: dict) -> dict:
    """BENCHMARK.json's per-layer metrics: "<span>_s" is that span's self time per traced pass."""
    traced = result["traced_pass_s"]
    counts = dict(result["counts"])
    counts["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(result["pass_s"]) - 1.0
    counts["trace.spans_per_pass"] = result["n_spans"] / len(traced)
    metrics = {}
    for m in manifest["per_layer"]:
        name, unit = m["name"], m["unit"]
        if unit == "s":
            value = result["self_s"].get(name.removesuffix("_s"), 0.0) / len(traced)
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="wildrail benchmark")
    parser.add_argument("--workload", required=True, choices=["bundled-cli", "holdout-analytics"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "wildrail", "__init__.py")):
        print(f"error: no wildrail sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)  # the metric names and units to report
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    trace_out = os.path.join(scratch, f"trace-{args.workload}.json")
    try:
        facts = machine_facts()
        setup = measure_setup(work, args.seed, IMPORT_PROBES[0])
        if args.workload == "bundled-cli":
            result = run_bundled_cli(work, args.seed, args.seconds, bool(args.trace))
            if args.trace:
                with open(trace_out, "w", encoding="utf-8") as fh:
                    json.dump({"workload": args.workload, "seed": args.seed, **result.pop("trace_doc")}, fh)
        else:
            result = run_holdout(work, args.seed, args.seconds, bool(args.trace), trace_out)
        setup += measure_setup(work, args.seed, IMPORT_PROBES[1])
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = statistics.median(setup)
    error_rate = result["failed"] / result["attempted"]
    print(f"wildrail benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for name, info in result.get("inputs", {}).get("files", {}).items():
        print(f"input {name}: {info['rows']} rows, {info['bytes']} bytes, sha256 {info['sha256']}")
    named = {"setup_s": (setup_s, "s", len(setup)), **result["named"], "error_rate": (error_rate, "ratio", result["attempted"])}
    for name, (value, unit, n) in named.items():
        print(f"  {name:<24} {value:>16.6g} {unit:<6} (n={n})")
    for message in result["messages"]:
        print(f"FAILED: {message}")

    if args.trace:
        metrics = per_layer_metrics(result, manifest)
        print("per-layer self time per pass, traced:")
        for name, m in metrics.items():
            if m["value"]:
                print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        print(f"trace written to {os.path.relpath(trace_out, ROOT)}")
    else:
        values = {**result["end_to_end"], "setup_s": setup_s}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in manifest["end_to_end"]}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

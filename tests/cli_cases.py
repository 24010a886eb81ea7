"""The command line's exit-code contract as one table of cases, and two ways to run it.

Each ``Case`` writes its input files into an empty working directory, runs
its ``before`` commands there (each must exit 0), then runs ``argv`` and
checks what the contract promises:

- the exit code: 0 ok, 1 undefined computation, 2 bad input;
- stderr: a failed run prints one ``error:`` line and writes nothing, so the
  working directory holds what it held before the run; a run that exits 0
  prints nothing on stderr, or the one warning line its case names;
- the files written, outputs byte-equal to a committed file or to another
  output, and the ``count`` totals of CSV outputs;
- a time limit, so a check that stopped guarding a huge grid fails here
  instead of filling memory for minutes.

Run against the ``wildrail`` script on PATH, each case in a child process
killed at its time limit::

    python tests/cli_cases.py

This reports every failing case, with its exit code and stderr, and exits 1
if any failed.  It imports the standard library only, so it runs where the
package is installed without test extras.  ``tests/test_cli.py`` runs the
same table through ``wildrail.cli.main`` in the test process
(``in_process``).  A new command-line rule is one more ``Case``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
GOLDEN = ROOT / "demos" / "output"

ACCIDENTS = str(DATA / "accidents_2020_2022.csv")
TRAFFIC = str(DATA / "traffic.csv")
SPEEDS = str(DATA / "speeds.csv")
GEOMETRY = str(DATA / "lines.geojson")
MODEL = str(GOLDEN / "model.json")
PERIOD = ("--period-start", "2020-01-01", "--period-end", "2022-12-31")


# --- input builders: each returns the function that makes a file's bytes ---


def literal(text: str | bytes) -> Callable[[], bytes]:
    return lambda: text if isinstance(text, bytes) else text.encode("utf-8")


def appended(source: str, row: str) -> Callable[[], bytes]:
    """``source`` with one more line."""
    return lambda: Path(source).read_bytes() + row.encode("utf-8") + b"\n"


def quoted(source: str, *rows: tuple[str, ...]) -> Callable[[], bytes]:
    """``source`` and then ``rows``, every field quoted and every line ended by CRLF."""

    def build() -> bytes:
        with open(source, encoding="utf-8", newline="") as fh:
            table = [*csv.reader(fh), *rows]
        out = io.StringIO()
        csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(table)
        return out.getvalue().encode("utf-8")

    return build


def line_ends(source: str, end: bytes) -> Callable[[], bytes]:
    """``source``, whose lines must end in LF alone, with ``end`` in place of each LF."""

    def build() -> bytes:
        data = Path(source).read_bytes()
        if b"\r" in data:
            raise ValueError(f"{source} holds a CR; its copy would not end lines in {end!r} only")
        return data.replace(b"\n", end)

    return build


def long_log(quote_last: bool) -> Callable[[], bytes]:
    """The accident rows 24 times over, in plain text but for the last row when ``quote_last``."""

    def build() -> bytes:
        header, *rows = Path(ACCIDENTS).read_text(encoding="utf-8").splitlines()
        rows *= 24
        if quote_last:
            rows[-1] = ",".join(f'"{cell}"' for cell in rows[-1].split(","))
        text = "\n".join([header, *rows]) + "\n"
        # more than two 2**18-character pieces of the parser's array route
        if len(text) <= 600_000:
            raise ValueError(f"the long log is only {len(text)} characters")
        return text.encode("utf-8")

    return build


def tampered(path: tuple[str, ...], change: Callable[[Any], Any]) -> Callable[[], bytes]:
    """The committed model.json with ``change`` applied to the value at ``path``."""

    def build() -> bytes:
        doc = json.loads(Path(MODEL).read_text(encoding="utf-8"))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = change(parent[path[-1]])
        return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")

    return build


@dataclass(frozen=True)
class Case:
    """One command run and what it must do; the fields after ``code`` default to no input
    and no check."""

    name: str
    argv: tuple[str, ...]
    code: int = 2
    # file name in the working directory -> the function that makes its bytes
    inputs: Mapping[str, Callable[[], bytes]] = field(default_factory=dict)
    # commands run first, in the same directory; each must exit 0
    before: tuple[tuple[str, ...], ...] = ()
    # the whole of stderr, less its final newline; else texts its one line holds
    stderr: str | None = None
    stderr_has: tuple[str, ...] = ()
    # lines stdout holds, one after another
    stdout: tuple[str, ...] = ()
    # files the run writes, not empty
    written: tuple[str, ...] = ()
    # output -> the committed file (an absolute path) or other output it equals byte for byte
    same: Mapping[str, str] = field(default_factory=dict)
    # CSV output -> the sum of its count column
    count_totals: Mapping[str, int] = field(default_factory=dict)
    # seconds the run, and each command before it, may take
    limit: float = 20.0


def far_traffic(km: str) -> dict[str, Callable[[], bytes]]:
    """far.csv: the bundled traffic and one train a day at ``km`` on line 139, its row 39."""
    return {"far.csv": appended(TRAFFIC, f"139,{km},1")}


def map_filter(name: str, *flags: str, config: dict | None = None, far: bool = False) -> Case:
    """``warn --geometry`` with a --month or --hour filter, as flags or ``config``, that
    matches no cell; over far.csv when ``far``."""
    inputs = far_traffic("2000.0") if far else {}
    if config is not None:
        inputs["config.json"] = literal(json.dumps(config))
        flags += ("--config", "config.json")
    return Case(
        f"warn-{name}",
        ("warn", "--model", MODEL, "--traffic", "far.csv" if far else TRAFFIC,
         "--geometry", GEOMETRY, *flags, "--out-dir", "."),
        inputs=inputs,
    )


def hexmap(spacing: str) -> tuple[str, ...]:
    return ("map", "--accidents", ACCIDENTS, *PERIOD, "--geometry", GEOMETRY,
            "--spacing", spacing, "--out-dir", ".")


def fit(accidents: str, *flags: str) -> tuple[str, ...]:
    return ("fit", "--accidents", accidents, *PERIOD, *flags)


PAST_ANY_GRID = (
    "error: far.csv: line 39: traffic spans 1,000,000,026 km bins of 5.0 km,"
    " more than the 4,166,666 that a 50,000,000-cell grid holds"
)

CASES: tuple[Case, ...] = (
    # an input file every reader refuses is named first on the one error line
    Case(
        "corr-malformed-speeds",
        ("corr", "--accidents", ACCIDENTS, "--traffic", TRAFFIC, "--speeds", "bad_speeds.csv",
         "--out-dir", "."),
        inputs={"bad_speeds.csv": literal("line,km_from,km_to,vmax\n139,0,x,100\n")},
        stderr_has=("error: bad_speeds.csv: ",),
    ),
    Case(
        "warn-malformed-model",
        ("warn", "--model", "bad_model.json", "--traffic", TRAFFIC, "--out-dir", "."),
        inputs={"bad_model.json": literal('{"format": "nope"}\n')},
        stderr_has=("error: bad_model.json: ",),
    ),
    Case(
        "fit-invalid-utf8",
        ("fit", "--accidents", "bad.csv", *PERIOD, "--out-dir", "out"),
        inputs={"bad.csv": literal(b"\xff\xfe\n")},
        stderr_has=("error: bad.csv: ",),
    ),
    # 1e-9 km bins would span each bundled line with some 1e10 bins
    Case(
        "fit-bin-width-too-fine",
        fit(ACCIDENTS, "--delta-x", "1e-9", "--out-dir", "."),
        stderr_has=("error: line '1' spans km ", "warning grid would exceed 50,000,000 cells"),
    ),
    # outside 1e-6..1e6 km, and from 1e4 km on, where a hexagon of the bundled
    # map would reach past lat 90, map exits 2 and writes no map
    *(
        Case(f"map-spacing-{spacing}", hexmap(spacing))
        for spacing in ("1e-300", "1e-13", "9.99e-7", "10000", "1e6", "1.01e6", "1e7")
    ),
    Case("map-spacing-1000", hexmap("1000"), code=0, written=("hexmap.geojson",)),
    # 60 km runs over 1e-6 km bins: more bins than any warning grid holds
    Case(
        "corr-runs-past-any-grid",
        ("corr", "--accidents", ACCIDENTS, *PERIOD, "--traffic", "runs.csv", "--speeds", SPEEDS,
         "--delta-x", "1e-6", "--out-dir", "."),
        inputs={"runs.csv": literal("line,km_from,km_to,departure\n139,0,60,08:00\n")},
        stderr_has=("error: runs.csv: ",),
    ),
    # a row at km 5e9 stretches line 139 over a billion 5 km bins; corr, which
    # lays out no grid, refuses it too, and neither makes its out-dir
    Case(
        "warn-traffic-row-past-any-grid",
        ("warn", "--model", MODEL, "--traffic", "far.csv", "--out-dir", "out"),
        inputs=far_traffic("5000000000.0"),
        stderr=PAST_ANY_GRID,
    ),
    Case(
        "corr-traffic-row-past-any-grid",
        ("corr", "--accidents", ACCIDENTS, *PERIOD, "--speeds", SPEEDS, "--traffic", "far.csv",
         "--out-dir", "out"),
        inputs=far_traffic("5000000000.0"),
        stderr=PAST_ANY_GRID,
    ),
    # one train a day at km 2000 stretches line 139's grid over 400 km bins without traffic
    Case(
        "warn-grid-mostly-without-traffic",
        ("warn", "--model", MODEL, "--traffic", "far.csv", "--out-dir", "."),
        code=0,
        inputs=far_traffic("2000.0"),
        stderr="warning: 111744 of 122688 cells have no trains (no_traffic);"
        " check the traffic table",
        stdout=("cells: 122688 (10944 with traffic)",
                "flagged cells: no_traffic=111744 exceeds_unity=0"),
        written=("warnings.csv",),
    ),
    # a --month or --hour on no cell, from a flag or the config, is refused
    # before any warning or file; also over a table that would warn on stderr
    map_filter("month-13", "--month", "13"),
    map_filter("hour-24", "--hour", "24"),
    map_filter("hour-25", "--hour", "25"),
    map_filter("config-month-13", config={"month": 13}),
    map_filter("config-hour-25", config={"hour": 25}),
    map_filter("config-month-list", config={"month": [1]}),
    map_filter("config-hour-noon", config={"hour": "noon"}),
    map_filter("month-13-over-far-traffic", "--month", "13", far=True),
    # a model that fit could not have written fails before the sweep
    Case(
        "warn-model-tables-disagree-with-counts",
        ("warn", "--model", "doubled.json", "--traffic", TRAFFIC, "--out-dir", "."),
        inputs={"doubled.json": tampered(("mu", "1"), lambda mu: mu * 2)},
        stderr_has=("error: doubled.json: ",),
    ),
    # 5e-324 days made a month of 0 days (ZeroDivisionError), 4e-322 a rate of inf
    *(
        Case(
            f"warn-model-exposure-{days}-too-short",
            ("warn", "--model", "short.json", "--traffic", TRAFFIC, "--out-dir", "."),
            inputs={"short.json": tampered(("counts", "total_days"), lambda _, days=days: days)},
            stderr=f"error: short.json: total_days is too small for a finite monthly rate,"
            f" got {days!r}",
        )
        for days in (5e-324, 4e-322)
    ),
    # copies of the log, quoted throughout or with CRLF or lone-CR line ends,
    # fit to the committed model: quotes send the log through the csv.reader
    # row loop, and any line end must read as LF however the file is opened
    Case(
        "fit-quoted-crlf-copy",
        fit("quoted.csv", "--days-per-year", "365", "--out-dir", "."),
        code=0,
        inputs={"quoted.csv": quoted(ACCIDENTS)},
        same={"model.json": MODEL},
    ),
    Case(
        "fit-crlf-copy",
        fit("crlf.csv", "--days-per-year", "365", "--out-dir", "."),
        code=0,
        inputs={"crlf.csv": line_ends(ACCIDENTS, b"\r\n")},
        same={"model.json": MODEL},
    ),
    Case(
        "fit-lone-cr-copy",
        fit("cr.csv", "--days-per-year", "365", "--out-dir", "."),
        code=0,
        inputs={"cr.csv": line_ends(ACCIDENTS, b"\r")},
        same={"model.json": MODEL},
    ),
    Case(
        "fit-quoted-crlf-record-past-the-period",
        fit("late.csv", "--out-dir", "."),
        inputs={"late.csv": quoted(ACCIDENTS, ("2023-01-01", "10:00", "139", "5.0", "roe deer"))},
        stderr="error: late.csv: line 879: record dated 2023-01-01"
        " outside period 2020-01-01..2022-12-31",
    ),
    # the log spans several pieces of the array route; the quoted row hands
    # only the last piece to the row loop
    Case(
        "fit-long-log-last-row-quoted",
        fit("last_quoted.csv", "--out", "last_quoted.json"),
        code=0,
        inputs={"plain.csv": long_log(quote_last=False),
                "last_quoted.csv": long_log(quote_last=True)},
        before=(fit("plain.csv", "--out", "plain.json"),),
        same={"last_quoted.json": "plain.json"},
    ),
    # the streamed profile CSVs hold every record
    Case(
        "profile-counts-every-record",
        ("profile", "--accidents", ACCIDENTS, *PERIOD, "--out-dir", "."),
        code=0,
        count_totals={"species.csv": 877, "hourly.csv": 877},
    ),
)


class Result(NamedTuple):
    code: int | None  # None: killed at the time limit
    stdout: str
    stderr: str
    seconds: float


Runner = Callable[[tuple[str, ...], Path, float], Result]


def in_process(argv: tuple[str, ...], work: Path, limit: float) -> Result:
    """``wildrail.cli.main(argv)`` in this process with ``work`` as the working directory.

    It cannot stop a run at ``limit``; ``check`` compares the time taken instead.
    """
    from wildrail.cli import main

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(work)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(here)
    return Result(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def script(argv: tuple[str, ...], work: Path, limit: float) -> Result:
    """The ``wildrail`` script on PATH in ``work``, killed after ``limit`` seconds."""
    start = time.perf_counter()
    try:
        done = subprocess.run(["wildrail", *argv], cwd=work, capture_output=True, timeout=limit)
    except subprocess.TimeoutExpired as exc:
        code, out, err = None, exc.stdout or b"", exc.stderr or b""
    else:
        code, out, err = done.returncode, done.stdout, done.stderr
    text = (out.decode("utf-8", "replace"), err.decode("utf-8", "replace"))
    return Result(code, *text, time.perf_counter() - start)


def check(case: Case, run: Runner, work: Path) -> tuple[Result, list[str]]:
    """``case`` run by ``run`` in the empty directory ``work``: its result, and every way
    it breaks the case (none when it passes)."""
    for name, build in case.inputs.items():
        (work / name).write_bytes(build())
    for argv in case.before:
        result = run(argv, work, case.limit)
        if result.code != 0 or result.seconds > case.limit:
            return result, [f"{' '.join(argv)} exited {result.code} in {result.seconds:.1f} s"]
    present = sorted(work.iterdir())
    result = run(case.argv, work, case.limit)
    problems = []
    if result.code != case.code:
        problems.append(f"exit code {result.code}, expected {case.code}")
    if result.seconds > case.limit:
        problems.append(f"took {result.seconds:.1f} s, over the limit of {case.limit} s")
    err = result.stderr.splitlines()
    if case.code != 0 and not (len(err) == 1 and err[0].startswith("error: ")):
        problems.append("stderr is not one error: line")
    warned = case.stderr is not None or case.stderr_has
    if case.code == 0 and len(err) != (1 if warned else 0):
        problems.append(f"stderr has {len(err)} lines")
    if case.stderr is not None and result.stderr != case.stderr + "\n":
        problems.append(f"stderr is not {case.stderr!r}")
    problems += [f"stderr lacks {text!r}" for text in case.stderr_has if text not in result.stderr]
    if case.stdout and "\n".join(("", *case.stdout, "")) not in "\n" + result.stdout:
        problems.append(f"stdout lacks the lines {case.stdout!r}")
    if case.code != 0 and sorted(work.iterdir()) != present:
        problems.append("a failed run left files behind")
    for name in (*case.written, *case.same, *case.count_totals):
        if not (work / name).is_file() or not (work / name).stat().st_size:
            problems.append(f"{name} is missing or empty")
    for name, reference in case.same.items():
        if (work / name).is_file() and (work / name).read_bytes() != (work / reference).read_bytes():
            problems.append(f"{name} differs from {reference}")
    for name, total in case.count_totals.items():
        if (work / name).is_file():
            with open(work / name, encoding="utf-8", newline="") as fh:
                got = sum(int(row["count"]) for row in csv.DictReader(fh))
            if got != total:
                problems.append(f"{name} counts {got} records, not {total}")
    return result, problems


def main() -> int:
    if shutil.which("wildrail") is None:
        print("error: no wildrail script on PATH; install the package first", file=sys.stderr)
        return 2
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            result, problems = check(case, script, Path(tmp))
        if not problems:
            print(f"ok   {case.name}")
            continue
        failed += 1
        print(f"FAIL {case.name}: exit code {result.code}")
        print("".join(f"  stderr: {line}\n" for line in result.stderr.splitlines()), end="")
        print("".join(f"  - {problem}\n" for problem in problems), end="")
    print(f"{len(CASES) - failed} of {len(CASES)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

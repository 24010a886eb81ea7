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
(``in_process``).  Every command-line refusal is a ``Case`` here, and a new
command-line rule is one more; ``tests/test_cli.py`` keeps only what a case
cannot check: the contents of outputs, the option table, bounds it
monkeypatches, and generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
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
TEST = str(DATA / "accidents_2023_test.csv")
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


def tampered(source: str, path: tuple, change: Callable[[Any], Any]) -> Callable[[], bytes]:
    """The JSON file ``source`` with ``change`` applied to the value at ``path``."""

    def build() -> bytes:
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
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


def refused(name: str, argv: tuple[str, ...], option: str, flags=(), configs=()) -> tuple[Case, ...]:
    """``argv`` refused with each of ``flags`` as ``--option=value`` and each of ``configs``
    as the option's value in a config file."""
    key = option.replace("-", "_")
    return (
        *(Case(f"{name}-{option}-{value}", (*argv, f"--{option}={value}")) for value in flags),
        *(
            Case(f"{name}-config-{key}-{json.dumps(value)}", (*argv, "--config", "config.json"),
                 inputs={"config.json": literal(json.dumps({key: value}))})
            for value in configs
        ),
    )


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
            f"--spacing={spacing}", "--out-dir", ".")


def fit(accidents: str, *flags: str) -> tuple[str, ...]:
    return ("fit", "--accidents", accidents, *PERIOD, *flags)


FIT = fit(ACCIDENTS, "--out-dir", "out")
WARN = ("warn", "--model", MODEL, "--traffic", TRAFFIC, "--out-dir", "out")
EVAL = ("eval", "--model", MODEL, "--traffic", TRAFFIC, "--test", TEST, "--out-dir", "out")
MAP = ("map", "--accidents", ACCIDENTS, "--out-dir", "out")

PAST_ANY_GRID = (
    "error: far.csv: line 39: traffic spans 1,000,000,026 km bins of 5.0 km,"
    " more than the 4,166,666 that a 50,000,000-cell grid holds"
)

# each input file option, and a command that reads it with its other inputs
FILE_OPTIONS = {
    "accidents": ("profile", *PERIOD),
    "test": ("eval", "--model", MODEL, "--traffic", TRAFFIC),
    "traffic": ("eval", "--model", MODEL, "--test", TEST),
    "speeds": ("corr", "--accidents", ACCIDENTS, *PERIOD, "--traffic", TRAFFIC),
    "geometry": ("map", "--accidents", ACCIDENTS, *PERIOD),
    "model": ("warn", "--traffic", TRAFFIC),
    "config": ("fit", "--accidents", ACCIDENTS, *PERIOD),
}
# a file every reader rejects: a CSV row, not JSON, against no header a reader expects
MALFORMED = {"text": b"line,km_from,km_to\n1,0,x\n", "bytes": b"\xff\xfe\n", "missing": None}

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
    *(
        Case(
            f"{argv[0]}-{option}-{content}",
            (*argv, f"--{option}", "bad.input", "--out-dir", "out"),
            inputs={} if data is None else {"bad.input": literal(data)},
            stderr_has=("error: bad.input: ",),
        )
        for option, argv in FILE_OPTIONS.items()
        for content, data in MALFORMED.items()
    ),
    Case(
        "fit-malformed-row",
        fit("bad.csv"),
        inputs={"bad.csv": literal("date,time,line,km,species\n2020-01-01,25:00,139,1.0,\n")},
        stderr_has=("error: bad.csv: line 2: ",),
    ),
    # a field over csv.field_size_limit() on the third line
    *(
        Case(
            f"{argv[0]}-field-over-the-csv-limit",
            (*argv, "--out-dir", "out"),
            inputs={"bad.csv": literal(f"{header}\n{row.format('')}\n{row.format('x' * 200_000)}\n")},
            stderr=f"error: bad.csv: line 3: field larger than field limit ({csv.field_size_limit()})",
        )
        for argv, header, row in (
            (("profile", "--accidents", "bad.csv", *PERIOD), "date,time,line,km,species",
             "2020-01-01,10:00,139,1.0,{}"),
            (("eval", "--model", MODEL, "--traffic", "bad.csv", "--test", TEST),
             "line,km_from,count", "139,0,10{}"),
        )
    ),
    # missing, half-given or malformed options
    Case("fit-without-accidents", ("fit", "--out-dir", "out")),
    Case("fit-accidents-not-found", ("fit", "--accidents", "nope.csv")),
    Case("fit-period-start-alone", ("fit", "--accidents", ACCIDENTS, "--period-start", "2020-01-01")),
    Case("fit-seasons-leave-months-out", fit(ACCIDENTS, "--seasons", "odd=1,2")),
    Case("fit-period-end-not-a-date", fit(ACCIDENTS, "--period-end", "soon")),
    Case("warn-without-traffic", ("warn", "--model", MODEL, "--out-dir", "out"),
         stderr="error: missing required option --traffic"),
    # date.fromisoformat reads the first two from Python 3.11 on
    *(
        Case(
            f"fit-period-start-{value}",
            ("fit", "--accidents", ACCIDENTS, "--period-start", value, "--period-end", "2022-12-31",
             "--out-dir", "out"),
            stderr=f"error: --period-start: must be YYYY-MM-DD, got {value!r}",
        )
        for value in ("20200101", "2020-W01-3", "2020-1-01", "\uff12020-01-01")
    ),
    # a reversed period is refused before the accident file is read
    *(
        Case(
            f"{command}-reversed-period{suffix}",
            (command, "--accidents", accidents, "--period-start", "2022-01-01",
             "--period-end", "2020-01-01", "--out-dir", "out"),
            stderr="error: --period-end 2020-01-01 precedes --period-start 2022-01-01",
        )
        for command, accidents, suffix in (("fit", ACCIDENTS, ""),
                                           ("fit", "missing.csv", "-of-a-missing-file"),
                                           ("profile", ACCIDENTS, ""))
    ),
    # 24 h or a km post over 1e-320 is not a finite bin count; 24 h over 1e-300
    # is a whole number, of bins far shorter than a minute
    *refused("fit", FIT, "delta-t", ("1e-320", "1e-300"), (1e-320, 1e-300)),
    *refused("fit", FIT, "delta-x", ("1e-320",), (1e-320,)),
    # 1e-9 km bins would span each bundled line with some 1e10 bins
    Case(
        "fit-bin-width-too-fine",
        fit(ACCIDENTS, "--delta-x", "1e-9", "--out-dir", "."),
        stderr_has=("error: line '1' spans km ", "warning grid would exceed 50,000,000 cells"),
    ),
    *refused("warn", WARN, "thresholds",
             ("0.002,0.001", "0", "abc", "nan", "inf", "0.001,inf", "-inf"), (5,)),
    *refused("warn", (*WARN, "--geometry", GEOMETRY), "theta-map",
             ("nan", "inf", "-inf", "0", "-1", "-0.0", "-1e-300"), (math.nan, math.inf, 0, -1, -0.001)),
    *refused("eval", EVAL, "theta", ("nan", "inf", "-inf"), (math.nan, math.inf, "nan")),
    *refused("eval", EVAL, "adjacent", configs=("no", "false", 0, 1, None, [])),
    # --theta-map, --month and --hour only shape warnings.geojson, so they need --geometry
    *refused("warn-no-geometry", WARN, "theta-map", ("0.001",), (0.001,)),
    *refused("warn-no-geometry", WARN, "month", ("1",), (1,)),
    *refused("warn-no-geometry", WARN, "hour", ("3",), (3,)),
    Case("warn-no-geometry-all-map-options",
         (*WARN, "--month", "1", "--theta-map", "0.001", "--hour", "3")),
    Case("warn-no-geometry", WARN, code=0, written=("out/warnings.csv",)),
    # outside 1e-6..1e6 km, and from 1e4 km on, where a hexagon of the bundled
    # map would reach past lat 90, map exits 2 and writes no map
    *(
        Case(f"map-spacing-{spacing}", hexmap(spacing))
        for spacing in ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e-13", "9.99e-7", "10000",
                        "1e6", "1.01e6", "1e7", "1e300")
    ),
    *refused("map", (*MAP, "--geometry", GEOMETRY), "spacing", configs=(math.nan, math.inf, 0)),
    Case("map-spacing-1000", hexmap("1000"), code=0, written=("hexmap.geojson",)),
    # 60 km runs over 1e-6 km bins: more bins than any warning grid holds
    Case(
        "corr-runs-past-any-grid",
        ("corr", "--accidents", ACCIDENTS, *PERIOD, "--traffic", "runs.csv", "--speeds", SPEEDS,
         "--delta-x", "1e-6", "--out-dir", "."),
        inputs={"runs.csv": literal("line,km_from,km_to,departure\n139,0,60,08:00\n")},
        stderr_has=("error: runs.csv: ",),
    ),
    Case(
        "corr-constant-speed",
        ("corr", "--accidents", ACCIDENTS, *PERIOD, "--traffic", TRAFFIC, "--speeds", "flat.csv",
         "--out-dir", "out"),
        code=1,
        inputs={"flat.csv": literal(
            "line,km_from,km_to,vmax\n139,0.0,60.0,100\n1,0.0,45.0,100\n140,0.0,80.0,100\n"
        )},
        stderr_has=("constant",),
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
    # a row at km 5,000,000 would stretch line 139's grid over a million 5 km bins
    *(
        Case(
            f"{argv[0]}-traffic-row-past-the-grid-bound",
            argv,
            inputs=far_traffic("5000000.0"),
            stderr="error: line '139' spans km 0.0..5000005.0, so the 5.0 km x 1.0 h warning grid"
            " would exceed 50,000,000 cells",
        )
        for argv in (
            ("warn", "--model", MODEL, "--traffic", "far.csv", "--out-dir", "out"),
            ("eval", "--model", MODEL, "--traffic", "far.csv", "--test", TEST, "--out-dir", "out"),
        )
    ),
    Case(
        "warn-traffic-off-the-model-grid",
        ("warn", "--model", MODEL, "--traffic", "traffic25.csv", "--out-dir", "out"),
        inputs={"traffic25.csv": literal("line,km_from,count\n139,2.5,100\n")},
        stderr_has=("aligned",),
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
    # 2 h bins divide the day, so fit takes them, but 2 h does not divide the
    # default profile's 9 h and 15 h boundaries
    *(
        Case(
            f"{command}-hour-bins-straddle-profile-pieces",
            (command, "--model", "model2h.json", "--traffic", TRAFFIC, *extra, "--out-dir", "out"),
            before=(fit(ACCIDENTS, "--delta-t", "2", "--out", "model2h.json"),),
            stderr_has=("error: delta_t=2.0 straddles",),
        )
        for command, *extra in (("warn", "--geometry", GEOMETRY), ("eval", "--test", TEST))
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
    # an output path that is a directory fails the run with the path named, and
    # the outputs opened before it are removed
    *(
        Case(
            f"{argv[0]}-{blocked}-is-a-directory",
            (*argv, "--out-dir", "."),
            before=(fit(ACCIDENTS, "--out", f"{blocked}/model.json"),),
            stderr=f"error: ./{blocked}: Is a directory",
        )
        for argv, blocked in (
            (("warn", "--model", MODEL, "--traffic", TRAFFIC, "--geometry", GEOMETRY),
             "warnings.geojson"),
            (("profile", "--accidents", ACCIDENTS, *PERIOD), "hourly.csv"),
        )
    ),
    Case("fit-out-is-a-directory", fit(ACCIDENTS, "--out", "model"),
         before=(fit(ACCIDENTS, "--out", "model/model.json"),),
         stderr="error: model: Is a directory"),
    # a model that fit could not have written fails before the sweep
    Case(
        "warn-model-tables-disagree-with-counts",
        ("warn", "--model", "doubled.json", "--traffic", TRAFFIC, "--out-dir", "."),
        inputs={"doubled.json": tampered(MODEL, ("mu", "1"), lambda mu: mu * 2)},
        stderr_has=("error: doubled.json: ",),
    ),
    *(
        Case(
            f"warn-model-{name}",
            ("warn", "--model", "bad.json", "--traffic", TRAFFIC, "--out-dir", "out"),
            inputs={"bad.json": tampered(MODEL, path, change)},
        )
        for name, path, change in (
            ("seasons-a-list", ("seasons",), lambda _: [1, 2]),
            ("p-line-nan", ("p_line", "139"), lambda _: math.nan),
            ("mu-off-its-counts", ("mu", "1"), lambda _: 0.5),
        )
    ),
    # n and by_line are written beside the tables they sum, and must equal those sums
    *(
        Case(
            f"warn-model-{name}-tampered",
            ("warn", "--model", "tampered.json", "--traffic", TRAFFIC, "--out-dir", "."),
            inputs={"tampered.json": tampered(MODEL, ("counts", *path), lambda count: count + 1)},
            stderr="error: tampered.json: model document disagrees with its counts in ['counts']",
        )
        for name, path in (("count", ("n",)), ("line-count", ("by_line", "139")))
    ),
    # 5e-324 days made a month of 0 days (ZeroDivisionError), 4e-322 a rate of inf
    *(
        Case(
            f"warn-model-exposure-{days}-too-short",
            ("warn", "--model", "short.json", "--traffic", TRAFFIC, "--out-dir", "."),
            inputs={"short.json": tampered(MODEL, ("counts", "total_days"), lambda _, days=days: days)},
            stderr=f"error: short.json: total_days is too small for a finite monthly rate,"
            f" got {days!r}",
        )
        for days in (5e-324, 4e-322)
    ),
    # geometry that is not a line, or a line name that is not a string
    *(
        Case(f"{argv[0]}-geometry-{name}", (*argv, "--geometry", "bad.geojson"),
             inputs={"bad.geojson": tampered(GEOMETRY, path, lambda _, value=value: value)})
        for argv, name, path, value in (
            (WARN, "feature-5", ("features",), [5]),
            (WARN, "null-coordinate", ("features", 0, "geometry", "coordinates", 0), None),
            *((MAP, f"line-{json.dumps(line)}", ("features", 0, "properties", "line"), line)
              for line in ([1], {"a": 1}, 5, True)),
        )
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

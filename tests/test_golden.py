"""Golden gate: the CLI on the bundled data reproduces demos/output byte for byte."""

from __future__ import annotations

from pathlib import Path

from wildrail import model_from_json, model_to_json
from wildrail.cli import main
from conftest import DATA_DIR

GOLDEN_DIR = DATA_DIR.parent / "demos" / "output"

ACCIDENTS = [
    "--accidents", str(DATA_DIR / "accidents_2020_2022.csv"),
    "--period-start", "2020-01-01", "--period-end", "2022-12-31",
]
TRAFFIC = ["--traffic", str(DATA_DIR / "traffic.csv")]
GEOMETRY = ["--geometry", str(DATA_DIR / "lines.geojson")]

# the invocations of the benchmark's bundled-cli workload; fit runs first
# because warn and eval read its model
COMMANDS = (
    ("fit", [*ACCIDENTS, "--days-per-year", "365"], ("model.json",)),
    (
        "warn",
        ["--model", "{out}/model.json", *TRAFFIC, *GEOMETRY, "--theta-map", "0.001", "--month", "1"],
        ("warnings.csv", "warnings.geojson"),
    ),
    (
        "eval",
        ["--model", "{out}/model.json", *TRAFFIC, "--test",
         str(DATA_DIR / "accidents_2023_test.csv"), "--theta", "0.001"],
        ("eval.json",),
    ),
    ("map", [*ACCIDENTS, *GEOMETRY], ("hexmap.geojson",)),
    ("corr", [*ACCIDENTS, *TRAFFIC, "--speeds", str(DATA_DIR / "speeds.csv")], ("correlation.json",)),
)


def test_cli_outputs_match_committed_artifacts(tmp_path: Path, capsys) -> None:
    out = str(tmp_path)
    for command, args, outputs in COMMANDS:
        argv = [command, *(a.replace("{out}", out) for a in args), "--out-dir", out]
        assert main(argv) == 0, capsys.readouterr().err
        for name in outputs:
            got = (tmp_path / name).read_bytes()
            assert got == (GOLDEN_DIR / name).read_bytes(), f"{command}: {name} differs"


def test_committed_model_json_round_trips_byte_for_byte() -> None:
    text = (GOLDEN_DIR / "model.json").read_text(encoding="utf-8")
    assert model_to_json(model_from_json(text)) == text

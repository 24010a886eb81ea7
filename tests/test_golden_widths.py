"""Golden digests of fit, warn, eval and corr at bin widths that are not exact binary fractions.

``test_golden.py`` runs at 5 km x 1 h, where every ``i * delta`` is exact,
so it cannot tell ``(first + k) * delta`` from ``first * delta + k * delta``.
At 0.2 km or 0.2 h the two differ in the last bit, and these digests, taken
from the float-keyed implementation, pin every written bin start.  The
bundled traffic starts every line at km 0, so a second warn reads timetable
runs from km 0.5: at 0.2 km its lines 139 and 140 then start at bin 1.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from wildrail.cli import main
from conftest import DATA_DIR

ACCIDENTS = [
    "--accidents", str(DATA_DIR / "accidents_2020_2022.csv"),
    "--period-start", "2020-01-01", "--period-end", "2022-12-31",
]
TRAFFIC = ["--traffic", str(DATA_DIR / "traffic.csv")]
THRESHOLDS = ["--thresholds", "0.0001,0.0002,0.0005"]
RUNS = "line,km_from,km_to,departure\n1,0.5,44.9,06:00\n139,0.5,60,07:00\n140,0.5,80,08:00\n"

DIGESTS = {
    ("0.2", "1"): {
        "model.json": "be652ddb98afc1f3b794ac240c95149ec75b0608262e2e073d82416a11d31b4b",
        "warnings.csv": "7a9fcdc00e158e31cf717cf1f9c8eac790584c5dd3f8c8f96838b410d0bdb621",
        "warnings.geojson": "d333ed892ab473262bcd1eb7a0223485bc564b48e1770404c6717ead340466be",
        "runs/warnings.csv": "38a3a30e40306c69f9ea75ffd49a44afa3573c2430a0c0815b023b9ba2dd7284",
        "runs/warnings.geojson": "13e15175a68bdc38fb65fc4954acce21d9650dff1faa775ec7911edb35e65ba1",
        "eval.json": "41256bc6e89abec78f10ab96d93c0bf80297366ceaf59009450ec8d78e30f48b",
        "correlation.json": "d44826ce0e3170ca0c7fbfadd919d19ac512da55802bf13c2c70581ca2d13278",
    },
    ("1", "0.2"): {
        "model.json": "032b86ebf143c056830e646c314de2367b09915b46baaed28e4abfa23db70d4d",
        "warnings.csv": "9dc7227153067451cfee9f25ab7b4d6cce22aa60c78e2303ffa99d1aab232f9c",
        "warnings.geojson": "b7a5065fa9ce4215767ce514f0914c6167f385d9dca879785a9904f81ba37f7f",
        "runs/warnings.csv": "e43de288396d1cb866b9b081d6808d2db793732f98f323feea7a857615e17cb4",
        "runs/warnings.geojson": "28922a98b2050643b36c94daa38a802ceb99bb169fb6bf4417666c1b1ec6c32d",
        "eval.json": "c57ec28f33511aab373ba476d69101d00cfab60b2ef6fe60d17406e2f351370c",
        "correlation.json": "74aa653d0e3c947003df74819fcca24c3deed02eac249526f8d6836ce778a2fe",
    },
}


def _commands(delta_x: str, delta_t: str, out: str):
    model = ["--model", f"{out}/model.json"]
    geometry = ["--geometry", str(DATA_DIR / "lines.geojson"), "--theta-map", "0.0001"]
    return (
        ["fit", *ACCIDENTS, "--days-per-year", "365", "--delta-x", delta_x, "--delta-t", delta_t,
         "--out-dir", out],
        ["warn", *model, *TRAFFIC, *THRESHOLDS, *geometry, "--out-dir", out],
        ["warn", *model, "--traffic", f"{out}/runs.csv", *THRESHOLDS, *geometry,
         "--out-dir", f"{out}/runs"],
        ["eval", *model, *TRAFFIC, *THRESHOLDS, "--test", str(DATA_DIR / "accidents_2023_test.csv"),
         "--theta", "0.0001", "--adjacent", "--out-dir", out],
        ["corr", *ACCIDENTS, *TRAFFIC, "--speeds", str(DATA_DIR / "speeds.csv"),
         "--delta-x", delta_x, "--out-dir", out],
    )


@pytest.mark.parametrize("widths", sorted(DIGESTS), ids=lambda w: f"{w[0]}km-{w[1]}h")
def test_outputs_at_inexact_widths_match_digests(widths, tmp_path: Path, capsys) -> None:
    (tmp_path / "runs.csv").write_text(RUNS)
    for argv in _commands(*widths, str(tmp_path)):
        assert main(argv) == 0, capsys.readouterr().err
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS[widths]
    }
    assert got == DIGESTS[widths]

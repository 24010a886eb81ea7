"""The demo scripts regenerate demos/output byte for byte."""

from __future__ import annotations

import runpy
import shutil
from pathlib import Path

from conftest import DATA_DIR

DEMOS_DIR = DATA_DIR.parent / "demos"


def test_demos_reproduce_committed_outputs(tmp_path: Path) -> None:
    # each demo finds data/ and output/ relative to its own file
    demos = tmp_path / "demos"
    demos.mkdir()
    (tmp_path / "data").symlink_to(DATA_DIR, target_is_directory=True)
    scripts = sorted(DEMOS_DIR.glob("*.py"))
    assert scripts
    for script in scripts:
        shutil.copy(script, demos / script.name)
    for script in scripts:
        runpy.run_path(str(demos / script.name), run_name="__main__")
    written = sorted(path.name for path in (demos / "output").iterdir())
    assert written == sorted(path.name for path in (DEMOS_DIR / "output").iterdir())
    for name in written:
        got = (demos / "output" / name).read_bytes()
        assert got == (DEMOS_DIR / "output" / name).read_bytes(), f"{name} differs"

"""The README's Python snippets run, in order, in one namespace."""

from __future__ import annotations

import re
from pathlib import Path

from conftest import DATA_DIR

README = DATA_DIR.parent / "README.md"


def test_readme_python_blocks_run(tmp_path: Path, monkeypatch) -> None:
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 3
    (tmp_path / "data").symlink_to(DATA_DIR, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert (tmp_path / "warnings.csv").stat().st_size > 0

"""The modules the package imports: numpy and a pinned set of the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wildrail"

# every outside module that src/wildrail imports, at module level or inside a
# function.  Each CLI command pays for importing them, so a new one must be
# added here on purpose
PINNED = {
    "__future__", "argparse", "bisect", "calendar", "collections", "csv", "dataclasses",
    "datetime", "functools", "io", "json", "math", "numpy", "os", "sys", "types", "typing",
}


def test_the_package_imports_only_numpy_and_pinned_stdlib_modules() -> None:
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported == PINNED

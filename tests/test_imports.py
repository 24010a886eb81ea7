"""The modules the package imports (numpy and a pinned set of the standard library), the
public names it exports, and the standard-library-only imports of tests/cli_cases.py."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import wildrail

SRC = Path(__file__).resolve().parents[1] / "src" / "wildrail"
CLI_CASES = Path(__file__).resolve().with_name("cli_cases.py")

# every outside module that src/wildrail imports, at module level or inside a
# function.  Each CLI command pays for importing them, so a new one must be
# added here on purpose
PINNED = {
    "__future__", "argparse", "bisect", "calendar", "collections", "csv", "dataclasses",
    "datetime", "functools", "io", "json", "math", "numpy", "os", "sys", "types", "typing",
}


def imports(tree: ast.AST) -> list[str]:
    """The module each absolute import under ``tree`` names, once per import statement."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_the_package_imports_only_numpy_and_pinned_stdlib_modules() -> None:
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        imported.update(name.split(".")[0] for name in imports(ast.parse(path.read_text(encoding="utf-8"))))
    assert imported == PINNED


def test_the_cli_case_runner_imports_the_standard_library_and_wildrail_cli_only() -> None:
    # python tests/cli_cases.py runs where wildrail is installed without test extras,
    # so pytest, hypothesis or numpy there would break it; wildrail.cli is imported
    # only by the in-process runner, which the tests use
    tree = ast.parse(CLI_CASES.read_text(encoding="utf-8"))
    (runner,) = [node for node in tree.body if getattr(node, "name", None) == "in_process"]
    assert imports(runner) == ["wildrail.cli"]
    others = imports(tree)
    others.remove("wildrail.cli")
    assert others and all(name.split(".")[0] in sys.stdlib_module_names for name in others), others


# every public name of ``wildrail``; adding or removing one is an API change
# and must be made here on purpose
PUBLIC = {
    "__version__",
    # ingest
    "ParseError", "AccidentRecord", "Dataset", "TrafficTable", "LineGeometry", "SpeedProfile",
    "bin_index", "count_days", "parse_accidents", "parse_traffic", "parse_geometries",
    "km_to_geo", "geocode", "parse_speed_profiles",
    # model
    "SeasonScheme", "DEFAULT_SEASONS", "BinConfig", "ModelCounts", "FittedModel", "fit",
    "model_to_json", "model_from_json",
    # warn
    "FLAG_NO_TRAFFIC", "FLAG_EXCEEDS_UNITY", "NoTrafficError", "TrafficProfile",
    "DEFAULT_PROFILE", "WarningGrid", "alpha", "p_per_train", "sweep_all", "warnings_to_csv",
    "warnings_to_geojson",
    # analysis
    "CorrelationReport", "EvalReport", "HexGrid", "UndefinedCorrelationError",
    "evaluate_holdout", "hex_bin", "hex_grid_to_geojson", "hourly_profile", "report_to_json",
    "species_profile", "speed_correlation",
}


def test_the_package_exports_the_pinned_public_names() -> None:
    assert len(wildrail.__all__) == len(set(wildrail.__all__))
    assert set(wildrail.__all__) == PUBLIC
    assert all(hasattr(wildrail, name) for name in PUBLIC)

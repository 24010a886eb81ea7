"""Run one wildrail CLI command with spans around the import and the library calls.

Usage:  python perfbench/clishim.py SPANS_OUT COMMAND [ARGS...]

The traced bundled-cli passes start this script in place of
``python -m wildrail``.  It times ``import wildrail.cli``, replaces the
library functions that ``wildrail.cli`` imported by name with traced
wrappers, runs ``wildrail.cli.main`` on the arguments, writes the spans to
SPANS_OUT and exits with the command's exit code.  The program itself is not
changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys

from spans import Tracer

# library functions the CLI calls, by the layer that owns them
TRACED = {
    "ingest": (
        "parse_accidents",
        "parse_traffic",
        "parse_geometries",
        "parse_speed_profiles",
        "km_to_geo",
    ),
    "model": ("fit", "model_to_json", "model_from_json"),
    "warn": ("sweep_all", "warnings_to_csv", "warnings_to_geojson"),
    "analysis": (
        "evaluate_holdout",
        "hex_bin",
        "hex_grid_to_geojson",
        "speed_correlation",
        "species_profile",
        "hourly_profile",
    ),
}


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.call("cli.import", importlib.import_module, "wildrail.cli")
    for layer, names in TRACED.items():
        for name in names:
            fn = getattr(cli, name)
            setattr(cli, name, functools.partial(tracer.call, f"{layer}.{name}", fn))
    code = cli.main(argv)
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

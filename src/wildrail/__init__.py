"""Wildlife-train collision risk from accident records and timetable traffic.

The package fits empirical probability tables from collision reports (monthly
rate, hour-of-day by daylight season, line, and km segment), combines them
with daily traffic counts shaped by a within-day departure profile, and
thresholds the resulting per-train collision probability into warnings over a
(line, km bin, hour bin, month) grid.  Analytics cover hexagonal hotspot
maps, species and hourly profiles, speed correlation, and hold-out evaluation
of the warnings.
"""

from .analysis import (
    CorrelationReport,
    EvalReport,
    HexGrid,
    UndefinedCorrelationError,
    correlation_to_json,
    eval_report_to_json,
    evaluate_holdout,
    hex_bin,
    hex_grid_to_geojson,
    hourly_profile,
    species_profile,
    speed_correlation,
)
from .ingest import (
    AccidentRecord,
    Dataset,
    LineGeometry,
    ParseError,
    SpeedProfile,
    TrafficTable,
    bin_index,
    count_days,
    dataset_to_csv,
    geometries_to_geojson,
    km_to_geo,
    parse_accidents,
    parse_geometries,
    parse_speed_profiles,
    parse_traffic,
    parse_traffic_runs,
)
from .model import (
    DEFAULT_SEASONS,
    BinConfig,
    FittedModel,
    InsufficientDataError,
    ModelCounts,
    SeasonScheme,
    fit,
    model_from_json,
    model_to_json,
)
from .warn import (
    DEFAULT_PROFILE,
    FLAG_EXCEEDS_UNITY,
    FLAG_INSUFFICIENT_DATA,
    FLAG_NO_TRAFFIC,
    NoTrafficError,
    TrafficProfile,
    WarningGrid,
    alpha,
    bayes_warn_animals,
    p_per_train,
    sweep_all,
    warnings_to_csv,
    warnings_to_geojson,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # ingest
    "AccidentRecord",
    "Dataset",
    "TrafficTable",
    "LineGeometry",
    "SpeedProfile",
    "ParseError",
    "bin_index",
    "count_days",
    "parse_accidents",
    "dataset_to_csv",
    "parse_traffic",
    "parse_traffic_runs",
    "parse_geometries",
    "geometries_to_geojson",
    "km_to_geo",
    "parse_speed_profiles",
    # model
    "SeasonScheme",
    "DEFAULT_SEASONS",
    "BinConfig",
    "ModelCounts",
    "FittedModel",
    "InsufficientDataError",
    "fit",
    "model_to_json",
    "model_from_json",
    # warn
    "TrafficProfile",
    "DEFAULT_PROFILE",
    "FLAG_EXCEEDS_UNITY",
    "FLAG_INSUFFICIENT_DATA",
    "FLAG_NO_TRAFFIC",
    "NoTrafficError",
    "WarningGrid",
    "alpha",
    "p_per_train",
    "bayes_warn_animals",
    "sweep_all",
    "warnings_to_csv",
    "warnings_to_geojson",
    # analysis
    "HexGrid",
    "CorrelationReport",
    "EvalReport",
    "UndefinedCorrelationError",
    "hex_bin",
    "hex_grid_to_geojson",
    "species_profile",
    "hourly_profile",
    "speed_correlation",
    "correlation_to_json",
    "evaluate_holdout",
    "eval_report_to_json",
]

"""Wildlife-train collision risk from accident records and timetable traffic.

The package fits empirical probability tables from collision reports (monthly
rate, hour-of-day by daylight season, line, and km segment), combines them
with daily traffic counts shaped by a within-day departure profile, and
thresholds the resulting per-train collision probability into warnings over a
(line, km bin, hour bin, month) grid.  Analytics cover hexagonal hotspot
maps, species and hourly profiles, speed correlation, and hold-out evaluation
of the warnings.
"""

from . import analysis, ingest, model, warn
from .analysis import *
from .ingest import *
from .model import *
from .warn import *

__version__ = "0.1.0"

# a public name is declared once, in its module's __all__
__all__ = ["__version__", *ingest.__all__, *model.__all__, *warn.__all__, *analysis.__all__]

"""Deterministic software-ageing simulation and trend detection.

The package splits into a statistics layer (Mann-Kendall trend tests,
Sen's slope, hourly binning, ageing/rejuvenation deltas), a simulated
quota-limited cloud with leak and fault injection, a workload engine
that drives it, scenario orchestration, and reporting/ingest glue.
The import block below is the public surface: ``__all__`` lists every
name it binds, in import order.  Every other name is imported from its
module, such as ``agesim.trendstats`` or ``agesim.report``.
"""

import types

from .errors import AgesimError, ConfigError, ParseError
from .seeding import scenario_seed
from .trendstats import (
    IndicatorSeries,
    TrendVerdict,
    evaluate_indicator,
    mann_kendall,
    sens_slope,
)
from .cloud import EntityKind, ResourceParams
from .workload import TimingParams
from .scenario import (
    EarlyFailurePolicy,
    ScenarioConfig,
    default_matrix,
    run_scenario,
    run_suite,
)
from .ingest import ingest, serialize_series
from .report import render_tables, suite_trend_table, write_suite_bundle

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]

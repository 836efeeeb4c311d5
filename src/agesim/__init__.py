"""Deterministic software-ageing simulation and trend detection.

The package splits into a statistics layer (Mann-Kendall trend tests,
Sen's slope, hourly binning, ageing/rejuvenation deltas), a simulated
quota-limited cloud with leak and fault injection, a workload engine
that drives it, scenario orchestration, and reporting/ingest glue.
The import block below is the public surface: ``__all__`` lists every
name it binds, in import order.
"""

import types

from .errors import (
    AgesimError,
    ConfigError,
    DuplicateTimestampError,
    EmptyFileError,
    EmptySeriesError,
    InsufficientDataError,
    LedgerUnderflowError,
    MissingPhaseBinError,
    ParseError,
)
from .seeding import STREAM_IDS, scenario_seed, stream
from .trendstats import (
    AgeingSummary,
    HourlySeries,
    IndicatorAnalysis,
    IndicatorSeries,
    TrendTestResult,
    TrendVerdict,
    ageing_summary,
    bin_hourly,
    classify_z,
    evaluate_indicator,
    mann_kendall,
    rebased,
    sens_slope,
)
from .cloud import (
    DEFAULT_ERROR_CATALOG,
    DEFAULT_QUOTAS,
    OVERLOAD_INDICATOR_ERRORS,
    AgeingRule,
    CloudState,
    EntityKind,
    ErrorSpec,
    FaultModel,
    QuotaExceeded,
    ResourceParams,
    Topology,
)
from .workload import (
    DEFAULT_STEPS,
    StepAction,
    StepSpec,
    TimingParams,
    WorkloadDefinition,
    WorkloadResult,
    WorkloadStatus,
    run_stream,
)
from .scenario import (
    MATRIX_CONCURRENCIES,
    EarlyFailurePolicy,
    ScenarioConfig,
    ScenarioReport,
    SuiteResult,
    default_matrix,
    run_scenario,
    run_suite,
)
from .ingest import (
    WorkloadReportData,
    ingest,
    ingest_workload_report,
    serialize_series,
)
from .report import (
    analysis_document,
    error_distribution,
    render_tables,
    report_document,
    suite_trend_table,
    write_bundle,
    write_suite_bundle,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]

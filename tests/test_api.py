"""The public names other code relies on still resolve.

``agesim.__all__`` is the package's public surface: the 22 names the
README's "Public API" section lists, pinned name by name so that growing
or shrinking it takes a deliberate edit here and there.  Every other
name is imported from its module.  The benchmark and the demos take
names from the package top level, and the benchmark's traced pass wraps
the entry points listed in ``perfbench.tracing`` by name; a cut that
breaks either should fail here rather than in a benchmark run.  Short
scenarios, one failing on each clause of the failure predicate, also
run under the tracer, so an observer that stops counting fails here too.
"""

import ast
import functools
import importlib
import pickle
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import agesim
from agesim.errors import AgesimError, ParseError

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.tracing import ENTRY_POINTS, Tracer  # noqa: E402


PUBLIC_NAMES = [
    # errors
    "AgesimError",
    "ConfigError",
    "ParseError",
    # seeding
    "scenario_seed",
    # trendstats
    "IndicatorSeries",
    "TrendVerdict",
    "evaluate_indicator",
    "mann_kendall",
    "sens_slope",
    # cloud
    "EntityKind",
    "ResourceParams",
    # workload
    "TimingParams",
    # scenario
    "EarlyFailurePolicy",
    "ScenarioConfig",
    "default_matrix",
    "run_scenario",
    "run_suite",
    # ingest
    "ingest",
    "serialize_series",
    # report
    "render_tables",
    "suite_trend_table",
    "write_suite_bundle",
]

#: Names that left the package top level, each still defined by its module.
MODULE_NAMES = {
    "errors": [
        "DuplicateTimestampError",
        "EmptyFileError",
        "EmptySeriesError",
        "InsufficientDataError",
        "LedgerUnderflowError",
        "MissingPhaseBinError",
    ],
    "seeding": ["STREAM_IDS", "stream"],
    "trendstats": [
        "AgeingSummary",
        "HourlySeries",
        "IndicatorAnalysis",
        "TrendTestResult",
        "ageing_summary",
        "bin_hourly",
        "classify_z",
        "rebased",
    ],
    "cloud": [
        "DEFAULT_ERROR_CATALOG",
        "DEFAULT_QUOTAS",
        "OVERLOAD_INDICATOR_ERRORS",
        "AgeingRule",
        "CloudState",
        "ErrorSpec",
        "FaultModel",
        "QuotaExceeded",
        "Topology",
    ],
    "workload": [
        "DEFAULT_STEPS",
        "StepAction",
        "StepSpec",
        "WorkloadDefinition",
        "WorkloadResult",
        "WorkloadStatus",
        "run_stream",
    ],
    "scenario": ["MATRIX_CONCURRENCIES", "ScenarioReport", "SuiteResult"],
    "ingest": ["WorkloadReportData", "ingest_workload_report"],
    "report": ["analysis_document", "error_distribution", "report_document", "write_bundle"],
}


def test_public_surface_is_exactly_the_pinned_names():
    assert len(PUBLIC_NAMES) == 22
    assert agesim.__all__ == PUBLIC_NAMES


def test_every_name_off_the_surface_resolves_on_its_module():
    dropped = [name for names in MODULE_NAMES.values() for name in names]
    assert len(dropped) == 41
    assert set(dropped).isdisjoint(PUBLIC_NAMES)
    unresolved = [
        f"agesim.{module}.{name}"
        for module, names in MODULE_NAMES.items()
        for name in names
        if not hasattr(importlib.import_module(f"agesim.{module}"), name)
    ]
    assert unresolved == []


def test_readme_public_api_section_lists_exactly_the_surface():
    """The README's "Public API" section is the one statement of the API:
    its job bullets name each exported name once."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Public API\n(.*?)(?=^## )", readme, re.M | re.S)
    assert section is not None
    bullets = re.findall(r"^- \*\*\w+:\*\* (.*)$", section.group(1), re.M)
    assert len(bullets) == 4
    listed = [name for line in bullets for name in re.findall(r"`(\w+)`", line)]
    assert sorted(listed) == sorted(agesim.__all__)


def test_benchmark_and_demos_take_only_public_names_from_the_top_level():
    """``perfbench/workloads.py`` and the demos import from the package top
    level only names on the surface or submodules, so a cut that drops one
    they use fails here rather than in a benchmark run."""
    submodules = {info.name for info in pkgutil.iter_modules(agesim.__path__)}
    paths = [ROOT / "perfbench" / "workloads.py", *sorted((ROOT / "demos").glob("*.py"))]
    taken = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "agesim":
                taken.update((path.name, alias.name) for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "agesim"
            ):
                taken.add((path.name, node.attr))
    assert {name for _, name in taken} >= {"run_suite", "scenario_seed", "ScenarioConfig"}
    allowed = set(agesim.__all__) | submodules
    assert sorted(f"{file}: {name}" for file, name in taken if name not in allowed) == []


def test_every_public_name_resolves():
    assert [name for name in agesim.__all__ if not hasattr(agesim, name)] == []


def test_every_traced_entry_point_resolves_inside_agesim():
    unresolved = []
    for module_name, attr in ENTRY_POINTS.values():
        assert module_name.split(".")[0] == "agesim", module_name
        module = importlib.import_module(module_name)
        try:
            functools.reduce(getattr, attr.split("."), module)
        except AttributeError:
            unresolved.append(f"{module_name}:{attr}")
    assert unresolved == []


#: What the tracer records for each clause's scenario: its counters, and
#: the calls of every span name entered at least once.  A change to how
#: often the engine calls into a traced seam shows here.
TRACED = {
    "capacity": (
        {
            "failed": 1,
            "failed.wait-for-schedule": 1,
            "fault_draws": 14,
            "faults_fired": 4,
            "quota_rejects": 13,
            "results": 32,
            "samples": 376,
            "samples_binned": 376,
            "step_calls": 42,
            "steps": 647,
            "successes": 10,
            "tick_calls": 2,
        },
        {
            "cloud.add_leftover": 4,
            "cloud.apply_resource_effects": 44,
            "cloud.cache_cleanup": 1,
            "cloud.check_failed": 33,
            "cloud.draw": 14,
            "cloud.rejuvenate": 1,
            "cloud.try_create": 307,
            "scenario.hooks.error_hook": 22,
            "scenario.hooks.hour_hook": 1,
            "scenario.hooks.result_hook": 32,
            "scenario.run_scenario": 1,
            "trendstats.bin_hourly": 4,
            "trendstats.evaluate_indicator": 4,
            "trendstats.mann_kendall": 4,
            "workload.run_stream": 2,
        },
    ),
    "disk": (
        {
            "failed": 1,
            "failed.wait-for-schedule": 1,
            "fault_draws": 98,
            "faults_fired": 6,
            "quota_rejects": 41,
            "results": 101,
            "samples": 412,
            "samples_binned": 412,
            "step_calls": 151,
            "steps": 2356,
            "successes": 46,
            "tick_calls": 2,
        },
        {
            "cloud.apply_resource_effects": 153,
            "cloud.cache_cleanup": 1,
            "cloud.check_failed": 100,
            "cloud.draw": 98,
            "cloud.rejuvenate": 1,
            "cloud.try_create": 1012,
            "scenario.hooks.error_hook": 55,
            "scenario.hooks.hour_hook": 1,
            "scenario.hooks.result_hook": 101,
            "scenario.run_scenario": 1,
            "trendstats.bin_hourly": 4,
            "trendstats.evaluate_indicator": 4,
            "trendstats.mann_kendall": 4,
            "workload.run_stream": 2,
        },
    ),
    "memory": (
        {
            "failed": 1,
            "failed.wait-for-schedule": 1,
            "fault_draws": 54,
            "faults_fired": 5,
            "quota_rejects": 22,
            "results": 58,
            "samples": 390,
            "samples_binned": 390,
            "step_calls": 84,
            "steps": 1285,
            "successes": 24,
            "tick_calls": 2,
        },
        {
            "cloud.apply_resource_effects": 86,
            "cloud.cache_cleanup": 1,
            "cloud.check_failed": 55,
            "cloud.draw": 54,
            "cloud.rejuvenate": 1,
            "cloud.try_create": 555,
            "scenario.hooks.error_hook": 34,
            "scenario.hooks.hour_hook": 1,
            "scenario.hooks.result_hook": 58,
            "scenario.run_scenario": 1,
            "trendstats.bin_hourly": 4,
            "trendstats.evaluate_indicator": 4,
            "trendstats.mann_kendall": 4,
            "workload.run_stream": 2,
        },
    ),
}


@pytest.mark.parametrize(
    "clause, resources, faults",
    [
        (
            "capacity",
            agesim.ResourceParams(),
            {"boot server": {"server-error-status": 0.1}},
        ),
        (
            "disk",
            agesim.ResourceParams(disk_capacity_gb=1.0),
            {"create network": {"external-network-unreachable": 0.05}},
        ),
        (
            "memory",
            agesim.ResourceParams(leak_per_workload_gb=0.05, swap_capacity_gb=0.2),
            {"create network": {"external-network-unreachable": 0.05}},
        ),
    ],
    ids=["capacity", "disk", "memory"],
)
def test_tracer_observes_a_failing_scenario_with_faults(clause, resources, faults):
    """Each clause of the failure predicate is seen latching exactly once,
    although the engine evaluates the predicate only after its inputs
    change, and every traced count is the pinned one."""
    config = agesim.ScenarioConfig(
        scenario_id=clause,
        topology="all-in-one",
        concurrency=4,
        stress_hours=2,
        post_rejuvenation_hours=1,
        sample_interval_seconds=60.0,
        resources=resources,
        quotas={agesim.EntityKind.SERVER: 2},
        faults=faults,
    )
    original = agesim.run_scenario
    tracer = Tracer()
    tracer.install()
    try:
        report = agesim.run_scenario(config)
    finally:
        tracer.uninstall()
    assert agesim.run_scenario is original
    calls = {span: n for span, (n, _, _) in tracer.span_totals().items() if n}
    assert (tracer.counts, calls) == TRACED[clause]
    assert tracer.failed_predicates == [clause]
    assert report.failure_point is not None
    assert len(tracer.name) > 0


def test_no_module_imports_a_sibling_inside_a_function():
    """Every module of the package imports its siblings at module top,
    so an import cycle fails at import rather than hiding in a late
    import that runs on some first call."""
    late = []
    for path in sorted(Path(agesim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] if node.level == 0 else ["agesim"]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                if any(name.split(".")[0] == "agesim" for name in modules):
                    late.append(f"{path.name}:{node.lineno}")
    assert late == []


def test_no_module_imports_a_private_name_of_a_sibling():
    """A ``_``-prefixed name stays inside its module: a sibling that needs
    it takes a public name from the module that owns the format or rule."""
    private = []
    for path in sorted(Path(agesim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private.extend(
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert private == []


def test_no_class_lists_its_slots_by_hand():
    """A slotted class of the package declares its fields once, through
    ``@dataclass(slots=True)``, rather than in a ``__slots__`` tuple that
    must be kept in step with its ``__init__``."""
    by_hand = []
    for path in sorted(Path(agesim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                    by_hand.append(f"{path.name}:{node.lineno}")
    assert by_hand == []


def test_no_module_level_name_is_defined_in_two_modules():
    """A module-level ``def``, ``class`` or assignment lives in one module
    of the package; another module that needs the name imports it."""
    defined: dict[str, list[str]] = {}
    for path in sorted(Path(agesim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [
                    n.id
                    for t in node.targets
                    for n in ast.walk(t)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                names = [node.target.id] if isinstance(node.target, ast.Name) else []
            else:
                continue
            for name in names:
                defined.setdefault(name, []).append(f"{path.name}:{node.lineno}")
    assert {name: where for name, where in defined.items() if len(where) > 1} == {}


#: What the package stores but never loads, each with the reader that
#: keeps it.
READ_OUTSIDE_THE_PACKAGE = {
    "ParseError.line": "a public attribute of the error",
    "Topology.control_node": "_tick_gauges in tests/test_engine.py",
    "Topology.nodes": "the benchmark tracer's _failed_predicate",
    "WorkloadResult.leftovers_created": "acceptance criterion C5",
}


def test_every_stored_attribute_is_read():
    """What a class of the package keeps, the program reads: each field a
    class declares and each attribute its methods store on ``self`` is
    named by an attribute load somewhere in the package, but for the few
    that a reader outside the package keeps."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(agesim.__file__).parent.glob("*.py"))
    ]
    loaded = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    stored = set()
    for cls in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                stored.add(f"{cls.name}.{node.target.id}")
            elif isinstance(node, ast.FunctionDef) and node.args.args:
                me = node.args.args[0].arg
                stored.update(
                    f"{cls.name}.{target.attr}"
                    for target in ast.walk(node)
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.ctx, ast.Store)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == me
                )
    unread = sorted(name for name in stored if name.split(".")[1] not in loaded)
    assert unread == sorted(READ_OUTSIDE_THE_PACKAGE)


def test_every_module_parses_at_the_declared_python_floor():
    """The package and the benchmark use no syntax newer than the
    ``requires-python`` floor of ``pyproject.toml``, which is read with a
    regex because ``tomllib`` itself is newer than the floor."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    ((major, minor),) = re.findall(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    package = sorted(Path(agesim.__file__).parent.glob("*.py"))
    benchmark = sorted((ROOT / "perfbench").rglob("*.py"))
    assert package and benchmark
    for path in package + benchmark:
        source = path.read_text(encoding="utf-8")
        ast.parse(source, str(path), feature_version=(int(major), int(minor)))


def _error_types(base=AgesimError):
    yield base
    for sub in base.__subclasses__():
        yield from _error_types(sub)


@pytest.mark.parametrize(
    "error_type", sorted(set(_error_types()), key=lambda t: t.__name__), ids=lambda t: t.__name__
)
def test_every_error_survives_a_pickle_round_trip(error_type):
    """A worker process can send any of the package's errors back whole:
    the same type, text, arguments and attributes."""
    errors = [error_type("post-rejuvenation hour")]
    if issubclass(error_type, ParseError):
        errors.append(error_type("unreadable value 'x'", line=3))
    for error in errors:
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is error_type
        assert str(copy) == str(error)
        assert copy.args == error.args
        assert vars(copy) == vars(error)

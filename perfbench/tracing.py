"""Span tracer that times calls into agesim's layers from outside the package.

``Tracer.install`` replaces each public entry point listed in
``ENTRY_POINTS`` with a wrapper that records one span per call: the span's
name, start, end and the span that was open when it began.  Every module
binding of the same function object is replaced, so a call through an
imported name (``workload.check_failed``, ``scenario.evaluate_indicator``)
is timed like a call through the defining module.  The wrapper of
``run_stream`` also wraps the tick, hour, error and result hooks that the
scenario layer hands to the engine.

Spans stay in flat in-memory arrays until ``save`` writes them out.  A
span's self time is its duration minus the part covered by its children;
``layer_metrics`` sums self times per layer (the span name's first
component) and turns the counters kept beside the spans into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

#: Layers whose self time is reported, in report order.
LAYERS = ("cloud", "workload", "scenario", "trendstats", "ingest", "report", "cli")

#: Public entry points per span name: (module, attribute) where the
#: attribute may be ``Class.method``.
ENTRY_POINTS = {
    "cloud.check_failed": ("agesim.cloud", "check_failed"),
    "cloud.apply_resource_effects": ("agesim.cloud", "apply_resource_effects"),
    "cloud.cache_cleanup": ("agesim.cloud", "cache_cleanup"),
    "cloud.rejuvenate": ("agesim.cloud", "rejuvenate"),
    "cloud.try_create": ("agesim.cloud", "CloudState.try_create"),
    "cloud.add_leftover": ("agesim.cloud", "CloudState.add_leftover"),
    "cloud.draw": ("agesim.cloud", "FaultModel.draw"),
    "workload.run_stream": ("agesim.workload", "run_stream"),
    "scenario.run_scenario": ("agesim.scenario", "run_scenario"),
    "scenario.run_suite": ("agesim.scenario", "run_suite"),
    "trendstats.evaluate_indicator": ("agesim.trendstats", "evaluate_indicator"),
    "trendstats.bin_hourly": ("agesim.trendstats", "bin_hourly"),
    "trendstats.mann_kendall": ("agesim.trendstats", "mann_kendall"),
    "trendstats.sens_slope": ("agesim.trendstats", "sens_slope"),
    "ingest.ingest": ("agesim.ingest", "ingest"),
    "ingest.serialize_series": ("agesim.ingest", "serialize_series"),
    "report.write_suite_bundle": ("agesim.report", "write_suite_bundle"),
    "report.write_bundle": ("agesim.report", "write_bundle"),
    "report.render_tables": ("agesim.report", "render_tables"),
    "report.report_document": ("agesim.report", "report_document"),
    "cli.main": ("agesim.cli", "main"),
}

#: run_stream keyword arguments that carry scenario-layer callbacks.
HOOKS = ("tick_hook", "hour_hook", "error_hook", "result_hook")

#: Per-layer metrics with their units, in report order.
PER_LAYER_UNITS = {
    "cloud.check_failed.calls": "count",
    "cloud.check_failed.s": "s",
    "cloud.apply_resource_effects.tick_calls": "count",
    "cloud.apply_resource_effects.step_calls": "count",
    "cloud.apply_resource_effects.s": "s",
    "cloud.try_create.calls": "count",
    "cloud.quota_rejects": "count",
    "cloud.quota_reject_ratio": "fraction",
    "cloud.add_leftover.calls": "count",
    "cloud.rejuvenate.calls": "count",
    "cloud.cache_cleanup.s": "s",
    "cloud.fault_draws": "count",
    "cloud.faults_fired": "count",
    "cloud.failures.capacity": "count",
    "cloud.failures.disk": "count",
    "cloud.failures.memory": "count",
    "workload.run_stream.calls": "count",
    "workload.run_stream.s": "s",
    "workload.run_stream.self_s": "s",
    "workload.results": "count",
    "workload.steps": "count",
    "workload.steps_per_s": "1/s",
    "workload.success_ratio": "fraction",
    "scenario.run_scenario.calls": "count",
    "scenario.run_scenario.self_s": "s",
    "scenario.hooks.s": "s",
    "scenario.samples": "count",
    "scenario.run_suite.s": "s",
    "scenario.failed": "count",
    "scenario.failed.wait-for-schedule": "count",
    "scenario.failed.rejuvenate-on-failure": "count",
    "trendstats.evaluate_indicator.calls": "count",
    "trendstats.evaluate_indicator.s": "s",
    "trendstats.bin_hourly.s": "s",
    "trendstats.samples_binned": "count",
    "trendstats.mann_kendall.s": "s",
    "trendstats.sens_slope.s": "s",
    "trendstats.sens_slope.pairs": "count",
    "ingest.ingest.rows": "count",
    "ingest.ingest.s": "s",
    "ingest.rows_per_s": "1/s",
    "ingest.serialize_series.rows": "count",
    "ingest.serialize_series.s": "s",
    "report.write_suite_bundle.s": "s",
    "report.write_bundle.s": "s",
    "report.render_tables.s": "s",
    "report.report_document.s": "s",
    "report.bytes_written": "B",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(module, attr: str):
    """Return (owner, name) for ``attr``, descending into one class level."""
    owner = module
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(module, cls_name)
    return owner, attr


class Tracer:
    """Records spans around agesim's entry points for one pass."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.failed_predicates: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, span: str, fn, observe=None):
        """Return ``fn`` wrapped to record a span; ``observe(args, result)``
        runs after the span closes and may update counters."""
        nid = self._name_id(span)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point and every module binding of it."""
        observers = self._observers()
        for span, (module_name, attr) in ENTRY_POINTS.items():
            owner, name = _resolve(importlib.import_module(module_name), attr)
            original = getattr(owner, name)
            if span == "workload.run_stream":
                wrapped = self._wrap_run_stream(original)
            else:
                wrapped = self.wrap(span, original, observers.get(span))
            self._patch(owner, name, wrapped)
            if owner is not sys.modules[module_name]:
                continue  # methods are bound once, on their class
            for module in list(sys.modules.values()):
                if (
                    module is not owner
                    and getattr(module, "__name__", "").split(".")[0] == "agesim"
                    and getattr(module, name, None) is original
                ):
                    self._patch(module, name, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapped) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapped)

    def _wrap_run_stream(self, run_stream):
        traced = self.wrap("workload.run_stream", run_stream)
        wrap = self.wrap
        on_result = self._observe_result

        def run_stream_with_hooks(*args, **kwargs):
            for hook in HOOKS:
                if kwargs.get(hook) is not None:
                    observe = on_result if hook == "result_hook" else None
                    kwargs[hook] = wrap(f"scenario.hooks.{hook}", kwargs[hook], observe)
            return traced(*args, **kwargs)

        return functools.wraps(run_stream)(run_stream_with_hooks)

    # -- counters read at the layer boundaries -----------------------------------

    def _observers(self) -> dict:
        from agesim.cloud import IntervalElapsed, QuotaExceeded

        count = self.count

        def effects(args, _result):
            count("tick_calls" if isinstance(args[1], IntervalElapsed) else "step_calls")

        def create(_args, result):
            if isinstance(result, QuotaExceeded):
                count("quota_rejects")

        def draw(args, result):
            # A draw consumes the fault stream only for steps that have
            # configured probabilities; other steps return without one.
            if args[1] in args[0]._per_step:
                count("fault_draws")
            if result is not None:
                count("faults_fired")

        latched = weakref.WeakSet()

        def failed(args, result):
            state = args[0]
            if result and state not in latched:
                latched.add(state)
                self.failed_predicates.append(_failed_predicate(state))

        def scenario(_args, report):
            count("samples", sum(len(s.samples) for s in report.series.values()))
            if report.failure_point is not None:
                count("failed")
                count(f"failed.{report.policy}")

        return {
            "cloud.apply_resource_effects": effects,
            "cloud.try_create": create,
            "cloud.draw": draw,
            "cloud.check_failed": failed,
            "scenario.run_scenario": scenario,
            "trendstats.bin_hourly": lambda args, _r: count(
                "samples_binned", len(args[0].samples)
            ),
            "trendstats.sens_slope": lambda args, _r: count(
                "pairs", len(args[0]) * (len(args[0]) - 1) // 2
            ),
            "ingest.ingest": lambda _a, series: count(
                "ingest_rows", sum(len(s.samples) for s in series.values())
            ),
            "ingest.serialize_series": lambda args, _r: count(
                "serialize_rows", sum(len(s.samples) for s in args[0].values())
            ),
        }

    def _observe_result(self, args, _result) -> None:
        result = args[0]
        self.count("results")
        self.count("steps", result.steps_executed)
        if result.status.value == "success":
            self.count("successes")

    # -- output ------------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span as arrays: name id, start, end, parent, pass id."""
        np.savez(
            path,
            names=np.array(self.span_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_id=np.full(len(self.name), self.pass_id, dtype=np.int32),
        )

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        own = duration - covered
        k = len(self.span_names)
        calls = np.bincount(name, minlength=k)
        inclusive = np.bincount(name, weights=duration, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            span: (int(calls[i]), float(inclusive[i]), float(self_s[i]))
            for i, span in enumerate(self.span_names)
        }

    def layer_metrics(self, wall_s: float, bytes_written: int) -> dict[str, float]:
        """The per-layer metrics of one traced pass, ``trace.untraced_wall_s``
        and ``trace.overhead_s`` excepted (they need the untraced pass)."""
        totals = self.span_totals()

        def calls(span):
            return totals.get(span, (0, 0.0, 0.0))[0]

        def inclusive(span):
            return totals.get(span, (0, 0.0, 0.0))[1]

        def own(span):
            return totals.get(span, (0, 0.0, 0.0))[2]

        c = self.counts.get
        predicates = self.failed_predicates
        run_stream_s = inclusive("workload.run_stream")
        ingest_s = inclusive("ingest.ingest")
        layer_self = {layer: 0.0 for layer in LAYERS}
        for span, (_n, _inc, self_s) in totals.items():
            layer_self[span.split(".")[0]] += self_s
        metrics = {
            "cloud.check_failed.calls": calls("cloud.check_failed"),
            "cloud.check_failed.s": inclusive("cloud.check_failed"),
            "cloud.apply_resource_effects.tick_calls": c("tick_calls", 0),
            "cloud.apply_resource_effects.step_calls": c("step_calls", 0),
            "cloud.apply_resource_effects.s": inclusive("cloud.apply_resource_effects"),
            "cloud.try_create.calls": calls("cloud.try_create"),
            "cloud.quota_rejects": c("quota_rejects", 0),
            "cloud.quota_reject_ratio": _ratio(
                c("quota_rejects", 0), calls("cloud.try_create")
            ),
            "cloud.add_leftover.calls": calls("cloud.add_leftover"),
            "cloud.rejuvenate.calls": calls("cloud.rejuvenate"),
            "cloud.cache_cleanup.s": inclusive("cloud.cache_cleanup"),
            "cloud.fault_draws": c("fault_draws", 0),
            "cloud.faults_fired": c("faults_fired", 0),
            "cloud.failures.capacity": predicates.count("capacity"),
            "cloud.failures.disk": predicates.count("disk"),
            "cloud.failures.memory": predicates.count("memory"),
            "workload.run_stream.calls": calls("workload.run_stream"),
            "workload.run_stream.s": run_stream_s,
            "workload.run_stream.self_s": own("workload.run_stream"),
            "workload.results": c("results", 0),
            "workload.steps": c("steps", 0),
            "workload.steps_per_s": _ratio(c("steps", 0), run_stream_s),
            "workload.success_ratio": _ratio(c("successes", 0), c("results", 0)),
            "scenario.run_scenario.calls": calls("scenario.run_scenario"),
            "scenario.run_scenario.self_s": own("scenario.run_scenario"),
            "scenario.hooks.s": sum(
                inclusive(f"scenario.hooks.{hook}") for hook in HOOKS
            ),
            "scenario.samples": c("samples", 0),
            "scenario.run_suite.s": inclusive("scenario.run_suite"),
            "scenario.failed": c("failed", 0),
            "scenario.failed.wait-for-schedule": c("failed.wait-for-schedule", 0),
            "scenario.failed.rejuvenate-on-failure": c(
                "failed.rejuvenate-on-failure", 0
            ),
            "trendstats.evaluate_indicator.calls": calls("trendstats.evaluate_indicator"),
            "trendstats.evaluate_indicator.s": inclusive("trendstats.evaluate_indicator"),
            "trendstats.bin_hourly.s": inclusive("trendstats.bin_hourly"),
            "trendstats.samples_binned": c("samples_binned", 0),
            "trendstats.mann_kendall.s": inclusive("trendstats.mann_kendall"),
            "trendstats.sens_slope.s": inclusive("trendstats.sens_slope"),
            "trendstats.sens_slope.pairs": c("pairs", 0),
            "ingest.ingest.rows": c("ingest_rows", 0),
            "ingest.ingest.s": ingest_s,
            "ingest.rows_per_s": _ratio(c("ingest_rows", 0), ingest_s),
            "ingest.serialize_series.rows": c("serialize_rows", 0),
            "ingest.serialize_series.s": inclusive("ingest.serialize_series"),
            "report.write_suite_bundle.s": inclusive("report.write_suite_bundle"),
            "report.write_bundle.s": inclusive("report.write_bundle"),
            "report.render_tables.s": inclusive("report.render_tables"),
            "report.report_document.s": inclusive("report.report_document"),
            "report.bytes_written": bytes_written,
            "cli.main.s": inclusive("cli.main"),
            "cli.main.self_s": own("cli.main"),
            **{f"layer.{layer}.self_s": layer_self[layer] for layer in LAYERS},
            "trace.spans": len(self.name),
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(layer_self.values()),
        }
        return metrics

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _failed_predicate(state) -> str:
    """Which clause of the failure predicate holds on a just-failed cloud."""
    if state.capacity() == 0:
        return "capacity"
    if any(
        state.disk_used_gb(node) >= state.params.disk_capacity_gb
        for node in state.topology.nodes
    ):
        return "disk"
    if state.swap_used_gb() >= state.params.swap_capacity_gb:
        return "memory"
    return "unknown"

"""The benchmark's three workloads: inputs from a seed, one timed pass, checks.

Each workload is a closed loop with one caller: a pass runs its
operations one after another in one process.  An operation is one
scenario (``matrix``, ``ageing-failure``) or one ``agesim analyze``
invocation (``analyze``).

* ``prepare`` runs once per benchmark run, in the parent, untimed.  It
  writes inputs the program only reads (the analyze CSV).
* ``setup`` runs in the pass's fresh process after ``import agesim`` and
  is timed as set-up: it builds and validates the program's inputs.
* ``run`` is the timed pass.  It calls each operation through
  ``clock.op`` (``hostspeed.SpeedClock``), which times it.
* ``check`` verifies the outputs and sizes the work the pass did.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SECONDS_PER_HOUR = 3600.0


class Outcome:
    """What ``check`` learned about one pass."""

    def __init__(self, ops: int):
        self.ops = ops
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []
        self.items = 0  # simulated workloads (sum of report.totals), or CSV rows
        self.hours = 0.0  # simulated cloud-hours, or hours the CSV covers

    def fail(self, op: int, problem: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(problem)

    def fail_all(self, problem: str) -> None:
        """A problem of the whole pass, which no single operation owns."""
        self.failed_ops.update(range(self.ops))
        self.problems.append(problem)


# ── Suite workloads ──────────────────────────────────────────────────────


class _Suite:
    """Shared driver of ``matrix`` and ``ageing-failure``: run_suite, then
    write_suite_bundle into the pass's output directory."""

    op_name = "scenario"

    def prepare(self, seed: int, work_dir: Path) -> dict:
        return {}

    def run(self, configs, out_dir: Path, clock):
        import agesim
        from agesim import scenario

        run_scenario = scenario.run_scenario
        scenario.run_scenario = lambda config: clock.op(run_scenario, config)
        try:
            suite = agesim.run_suite(configs)
        finally:
            scenario.run_scenario = run_scenario
        agesim.write_suite_bundle(suite, out_dir)
        return suite

    def check(self, configs, suite, out_dir: Path) -> Outcome:
        outcome = Outcome(ops=len(configs))
        by_id = {r.scenario_id: r for r in suite.reports}
        for op, config in enumerate(configs):
            sid = config.scenario_id
            if sid in suite.errors:
                outcome.fail(op, f"scenario {sid} raised: {suite.errors[sid]}")
                continue
            report = by_id.get(sid)
            if report is None:
                outcome.fail(op, f"scenario {sid} has no report")
                continue
            if not (out_dir / f"scenario-{sid}" / "report.json").is_file():
                outcome.fail(op, f"scenario {sid} bundle missing")
            problem = self.check_report(config, report)
            if problem:
                outcome.fail(op, f"scenario {sid}: {problem}")
            outcome.items += sum(report.totals.values())
            outcome.hours += simulated_hours(report)
        return outcome

    def check_report(self, config, report) -> str | None:
        raise NotImplementedError


def simulated_hours(report) -> float:
    """Cloud-hours the engine actually ran: stress up to the stop, plus post."""
    if report.deploy_failed:
        return 0.0
    dead = sum(end - start for start, end in report.excluded_windows)
    stress = report.rejuvenation_started - dead
    return stress / SECONDS_PER_HOUR + report.post_rejuvenation_hours


class Matrix(_Suite):
    """The default 12-scenario matrix: the engine under a saturated quota gate."""

    name = "matrix"

    def setup(self, seed: int, prepared: dict):
        import agesim

        return agesim.default_matrix(seed)

    def check_report(self, config, report) -> str | None:
        if report.failure_point is not None:
            return f"cloud failed at {report.failure_point} with no faults configured"
        if sum(report.totals.values()) == 0:
            return "no workload ran"
        return None


#: Failure predicate each ageing-failure scenario is sized to trip, with
#: the scenario document that does it.  Every cloud fails late in the
#: stress day (hours 16.5-20 on eight seeds tried), one pass takes a few
#: seconds, and gauges are sampled every 5 s.
AGEING_SCENARIOS = (
    (
        "capacity",
        {
            "scenario_id": "capacity-multi-node-c4",
            "topology": "multi-node",
            "concurrency": 4,
            "policy": "wait-for-schedule",
            "quotas": {"server": 360},
            "faults": {"boot server": {"server-error-status": 0.3}},
        },
    ),
    (
        "capacity",
        {
            "scenario_id": "capacity-all-in-one-c8",
            "topology": "all-in-one",
            "concurrency": 8,
            "policy": "rejuvenate-on-failure",
            "quotas": {"volume": 360},
            "faults": {
                "create volume": {"volume-error-status": 0.3},
                "create network": {"external-network-unreachable": 0.01},
            },
        },
    ),
    (
        "disk",
        {
            "scenario_id": "disk-multi-node-c16",
            "topology": "multi-node",
            "concurrency": 16,
            "policy": "rejuvenate-on-failure",
            "resources": {"disk_capacity_gb": 23.0},
        },
    ),
    (
        "disk",
        {
            "scenario_id": "disk-all-in-one-c4",
            "topology": "all-in-one",
            "concurrency": 4,
            "policy": "wait-for-schedule",
            "resources": {"disk_capacity_gb": 46.0},
        },
    ),
    (
        "memory",
        {
            "scenario_id": "memory-multi-node-c8",
            "topology": "multi-node",
            "concurrency": 8,
            "policy": "wait-for-schedule",
            "resources": {"leak_per_workload_gb": 0.0145},
        },
    ),
    (
        "memory",
        {
            "scenario_id": "memory-all-in-one-c16",
            "topology": "all-in-one",
            "concurrency": 16,
            "policy": "rejuvenate-on-failure",
            "resources": {"leak_per_workload_gb": 0.0145},
        },
    ),
)


class AgeingFailure(_Suite):
    """Fault-injected scenarios that each drive the cloud to failure."""

    name = "ageing-failure"
    sample_interval_seconds = 5.0
    predicates = tuple(predicate for predicate, _doc in AGEING_SCENARIOS)

    def setup(self, seed: int, prepared: dict):
        from agesim import ScenarioConfig, scenario_seed

        return [
            ScenarioConfig.from_document(
                {
                    **doc,
                    "seed": scenario_seed(seed, i),
                    "sample_interval_seconds": self.sample_interval_seconds,
                }
            )
            for i, (_predicate, doc) in enumerate(AGEING_SCENARIOS, start=1)
        ]

    def check_report(self, config, report) -> str | None:
        if report.failure_point is None:
            return "the cloud never failed"
        stress_end = config.stress_hours * SECONDS_PER_HOUR
        if not report.failure_point < stress_end:
            return f"failure at {report.failure_point} s is not in the stress day"
        waited = config.policy.value == "wait-for-schedule"
        if waited != bool(report.excluded_windows):
            return f"policy {config.policy.value} but excluded windows {report.excluded_windows}"
        return None


# ── analyze ──────────────────────────────────────────────────────────────

#: Gauges the analyze CSV carries: name -> (level at hour 0, planted drift
#: direction, noise standard deviation).
ANALYZE_GAUGES = {
    "disk-used": (40.0, "upward", 0.8),
    "inodes-free": (90.0, "downward", 1.5),
    "memory-available": (12.0, "downward", 0.4),
    "swap-used": (0.5, "upward", 0.2),
}

#: About half a year of 2-minute samples: stress bins 0..4379, one hour of
#: rejuvenation, then eleven post-rejuvenation hours.
ANALYZE_HOURS = 4392
ANALYZE_STRESS_END_H = 4380
ANALYZE_REJUVENATION_END_H = 4381
ANALYZE_STEP_SECONDS = 120
ANALYZE_EPOCH = 1_700_000_000


def analyze_rows() -> int:
    samples = ANALYZE_HOURS * int(SECONDS_PER_HOUR) // ANALYZE_STEP_SECONDS
    return samples * len(ANALYZE_GAUGES)


def write_analyze_csv(seed: int, path: Path) -> None:
    """Write the gauge CSV for ``seed``.

    Each gauge drifts in its planted direction through the stress phase by
    25-50 % of its starting level, then returns to that level once
    rejuvenation is over.  Timestamps are numeric epoch seconds.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA9E)))
    n = ANALYZE_HOURS * int(SECONDS_PER_HOUR) // ANALYZE_STEP_SECONDS
    offsets = np.arange(n, dtype=np.int64) * ANALYZE_STEP_SECONDS
    hours = offsets / SECONDS_PER_HOUR
    stressed = hours < ANALYZE_STRESS_END_H
    columns = []
    for name, (level, direction, noise) in ANALYZE_GAUGES.items():
        sign = 1.0 if direction == "upward" else -1.0
        drift = sign * level * rng.uniform(0.25, 0.5) / ANALYZE_STRESS_END_H
        values = level + np.where(stressed, drift * hours, 0.0) + rng.normal(0.0, noise, n)
        columns.append((name, values.tolist()))
    stamps = (ANALYZE_EPOCH + offsets).tolist()
    lines = ["timestamp,metric,value"]
    for i, ts in enumerate(stamps):
        for name, values in columns:
            lines.append(f"{ts},{name},{values[i]:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Analyze:
    """``agesim analyze`` over a seeded half year of four drifting gauges."""

    name = "analyze"
    op_name = "analyze invocation"

    def prepare(self, seed: int, work_dir: Path) -> dict:
        csv_path = work_dir / f"gauges-{seed}.csv"
        write_analyze_csv(seed, csv_path)
        return {"csv": str(csv_path)}

    def setup(self, seed: int, prepared: dict):
        import agesim.cli  # noqa: F401 - part of set-up, as for a user

        return [
            "analyze",
            prepared["csv"],
            "--unit",
            "GB",
            "--stress-end",
            str(ANALYZE_STRESS_END_H * SECONDS_PER_HOUR),
            "--rejuvenation-end",
            str(ANALYZE_REJUVENATION_END_H * SECONDS_PER_HOUR),
        ]

    def run(self, argv, out_dir: Path, clock):
        import contextlib
        import io

        from agesim import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return clock.op(cli.main, [*argv, "--out", str(out_dir)])

    def check(self, argv, code, out_dir: Path) -> Outcome:
        outcome = Outcome(ops=1)
        outcome.items = analyze_rows()
        outcome.hours = float(ANALYZE_HOURS)
        if code != 0:
            outcome.fail(0, f"agesim analyze exited with {code}")
            return outcome
        try:
            document = json.loads((out_dir / "analysis.json").read_text(encoding="utf-8"))
            indicators = document["indicators"]
        except (OSError, ValueError, KeyError) as exc:
            outcome.fail(0, f"analysis.json unreadable: {exc}")
            return outcome
        if sorted(indicators) != sorted(ANALYZE_GAUGES):
            outcome.fail(0, f"indicators {sorted(indicators)} != {sorted(ANALYZE_GAUGES)}")
            return outcome
        for name, (_level, direction, _noise) in ANALYZE_GAUGES.items():
            verdict = indicators[name]["trend"]["verdict"]
            ageing = indicators[name]["ageing"] or {}
            sign = 1.0 if direction == "upward" else -1.0
            if verdict != direction:
                outcome.fail(0, f"{name}: verdict {verdict}, planted {direction}")
            elif not sign * (ageing.get("ageing_a") or 0.0) > 0:
                outcome.fail(0, f"{name}: ageing delta {ageing.get('ageing_a')} against the drift")
        return outcome


WORKLOADS = {w.name: w for w in (Matrix(), AgeingFailure(), Analyze())}

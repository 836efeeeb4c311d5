"""Command line interface, run in-process through main()."""

import dataclasses
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import types
import typing
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from agesim import scenario
from agesim.cli import build_parser, main
from agesim.scenario import ScenarioConfig


def write_json(path, document):
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_in_fresh_process(argv, cwd):
    """Run the command line in an interpreter of its own, the way the
    installed ``agesim`` script does, with ``src`` on the import path."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from agesim.cli import main; sys.exit(main())", *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def crash_at_run_time(monkeypatch, scenario_id):
    """Make the scenario with this id raise while it runs, past every config check."""
    run_scenario = scenario.run_scenario

    def crashing(config):
        if config.scenario_id == scenario_id:
            raise RuntimeError("engine crashed")
        return run_scenario(config)

    monkeypatch.setattr(scenario, "run_scenario", crashing)


@pytest.fixture()
def config_path(tmp_path):
    return write_json(
        tmp_path / "cfg.json",
        {
            "scenario_id": "cli",
            "concurrency": 2,
            "stress_hours": 2,
            "post_rejuvenation_hours": 1,
            "seed": 13,
        },
    )


def float_field_paths(cls, prefix=()):
    """The path of every ``float`` field of a config dataclass and of the
    config dataclasses nested in it."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) in (typing.Union, types.UnionType):
            (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
        if hint is float:
            yield (*prefix, f.name)
        elif dataclasses.is_dataclass(hint):
            yield from float_field_paths(hint, (*prefix, f.name))


FLOAT_FIELD_PATHS = list(float_field_paths(ScenarioConfig))


class TestRunCommand:
    def test_prints_tables(self, config_path, capsys):
        assert main(["run", config_path]) == 0
        out = capsys.readouterr().out
        assert "scenario cli" in out
        assert "workloads per hour" in out

    def test_writes_bundle(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        assert main(["run", config_path, "--out", str(out_dir)]) == 0
        assert (out_dir / "report.json").is_file()
        assert (out_dir / "tables.txt").is_file()
        assert "bundle written to" in capsys.readouterr().out

    def test_same_seed_reproduces_output(self, config_path, capsys):
        main(["run", config_path, "--seed", "99"])
        first = capsys.readouterr().out
        main(["run", config_path, "--seed", "99"])
        assert capsys.readouterr().out == first

    def test_phase_override(self, config_path, capsys):
        assert main(["run", config_path, "--phases", "stress:1,post:0"]) == 0
        out = capsys.readouterr().out
        assert "rejuvenation from 3600 s to 7200 s" in out

    def test_policy_override(self, config_path, capsys):
        code = main(["run", config_path, "--policy", "rejuvenate-on-failure"])
        assert code == 0
        assert "policy rejuvenate-on-failure" in capsys.readouterr().out

    def test_missing_config_is_exit_3(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 3
        assert "file not found" in capsys.readouterr().err

    def test_invalid_json_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        assert main(["run", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"scenario_id": "\xff"}')
        assert main(["run", str(bad)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_deeply_nested_config_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        assert main(["run", str(bad)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_unknown_config_field_is_exit_2(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "cfg.json", {"scenario_id": "x", "swank_factor": 9}
        )
        assert main(["run", path]) == 2

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"concurrency": "abc"}, "scenario.concurrency"),
            ({"concurrency": True}, "scenario.concurrency"),
            ({"resources": {"ageing_rate": "x"}}, "scenario.resources.ageing_rate"),
            (
                {"faults": {"boot server": {"server-error-status": "0.5"}}},
                "scenario.faults['boot server']['server-error-status']",
            ),
        ],
        ids=["concurrency-str", "concurrency-bool", "ageing-rate-str", "fault-p-str"],
    )
    def test_mistyped_config_field_is_exit_2(self, tmp_path, capsys, fields, named):
        path = write_json(tmp_path / "cfg.json", {"scenario_id": "x", **fields})
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: expected ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"resources": {"disk_capacity_gb": -1}}, "disk_capacity_gb must be positive"),
            ({"resources": {"disk_capacity_gb": 0}}, "disk_capacity_gb must be positive"),
            ({"resources": {"cache_image_gb": -0.04}}, "cache_image_gb must not be negative"),
            (
                {"timing": {"failed_launch_seconds": 0}},
                "scenario.timing.failed_launch_seconds: unknown field",
            ),
            (
                {"timing": {"step_seconds": {"boot srever": 30}}},
                "timing.step_seconds names unknown step 'boot srever'",
            ),
            (
                {"resources": {"cache_depositing_steps": ["boot srever"]}},
                "resources.cache_depositing_steps names unknown step 'boot srever'",
            ),
            ({"sample_interval_seconds": 1e-9}, "sample interval must lie in [1, 3600]"),
            ({"sample_interval_seconds": 0.5}, "sample interval must lie in [1, 3600]"),
            ({"sample_interval_seconds": 3601}, "sample interval must lie in [1, 3600]"),
            ({"resources": {"swap_capacity_gb": -1}}, "swap_capacity_gb must not be negative"),
            ({"resources": {"swap_threshold_gb": -0.5}}, "swap_threshold_gb must not be negative"),
            ({"seed": -1}, "seed must not be negative"),
            (
                {"resources": {"rejuvenation_seconds": -7200}},
                "rejuvenation_seconds must not be negative",
            ),
            (
                {"resources": {"cache_max_age_seconds": -1}},
                "cache_max_age_seconds must not be negative",
            ),
            ({"scenario_id": "../x"}, "scenario_id must be"),
        ],
        ids=[
            "disk-negative",
            "disk-zero",
            "cache-image-negative",
            "launch-zero",
            "step-seconds-misspelt",
            "cache-step-misspelt",
            "interval-nanosecond",
            "interval-half-second",
            "interval-over-an-hour",
            "swap-capacity-negative",
            "swap-threshold-negative",
            "seed-negative",
            "rejuvenation-negative",
            "cache-max-age-negative",
            "scenario-id-path",
        ],
    )
    def test_out_of_range_config_value_is_exit_2(self, tmp_path, capsys, fields, message):
        path = write_json(
            tmp_path / "cfg.json",
            {"scenario_id": "x", "stress_hours": 1, "post_rejuvenation_hours": 0, **fields},
        )
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert "cloud failed" not in captured.out

    @pytest.mark.parametrize("command", [["run"], ["suite", "--configs"]], ids=["run", "suite"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    @pytest.mark.parametrize("field_path", FLOAT_FIELD_PATHS, ids=".".join)
    def test_non_finite_float_field_is_exit_2(
        self, tmp_path, capsys, field_path, value, command
    ):
        document: dict = {"scenario_id": "x", "stress_hours": 1, "post_rejuvenation_hours": 0}
        inner = document
        for name in field_path[:-1]:
            inner = inner.setdefault(name, {})
        inner[field_path[-1]] = value
        path = write_json(tmp_path / "cfg.json", document)
        assert main([*command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: scenario.{'.'.join(field_path)}: ")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_float_in_a_mapping_is_exit_2(self, tmp_path, capsys, value):
        for fields, named in (
            ({"timing": {"step_seconds": {"boot server": value}}}, "['boot server']"),
            (
                {"faults": {"boot server": {"server-error-status": value}}},
                "['boot server']['server-error-status']",
            ),
        ):
            path = write_json(tmp_path / "cfg.json", {"scenario_id": "x", **fields})
            assert main(["suite", "--configs", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert named in captured.err.splitlines()[0]

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    def test_integer_past_the_digit_limit_is_exit_2(self, tmp_path, capsys):
        """json refuses to convert an integer of more than 4300 digits."""
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario_id": "x", "seed": 1' + "0" * 5000 + "}", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: invalid JSON: Exceeds the limit")

    def test_non_object_document_is_exit_2(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", [1, 2, 3])
        assert main(["run", path]) == 2

    @pytest.mark.parametrize("phase", ["stress", "post"])
    def test_phase_overflowing_a_float_in_seconds_is_exit_2(self, config_path, capsys, phase):
        assert main(["run", config_path, "--phases", f"{phase}:{10**400}"]) == 2
        assert "is too long to count in seconds" in capsys.readouterr().err

    def test_a_document_that_cannot_run_is_refused_whatever_its_phases_become(
        self, tmp_path, capsys
    ):
        """The document must be a config that can run, like under every
        other config rule, so a post phase the clock cannot resolve is
        refused even where ``--phases`` would leave no post phase."""
        config = {"scenario_id": "x", "stress_hours": 0, "resources": {"rejuvenation_seconds": 1e17}}
        path = write_json(tmp_path / "cfg.json", config)
        assert main(["run", path, "--phases", "post:0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot advance a clock at 1.000000000000036e+17 s" in captured.err

    def test_a_deposit_near_the_float_limit_is_exit_2_after_the_run(self, tmp_path, capsys):
        """A 1e308 GB image is a valid config; the disk gauge overflows to
        inf, and the series error, a ``ParseError``, is reported as exit 2.
        Pinned as it stands: no field has a cap below the float limit."""
        config = {"scenario_id": "x", "stress_hours": 1, "concurrency": 4}
        path = write_json(tmp_path / "cfg.json", {**config, "resources": {"cache_image_gb": 1e308}})
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: series 'disk-used-compute-1' has a non-finite mean in hour 0\n"
        )

    def test_bad_phase_syntax_is_argparse_error(self, config_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", config_path, "--phases", "night:3"])
        assert excinfo.value.code == 2

    def test_a_repeated_phase_is_an_argparse_error(self, config_path, capsys):
        """A phase given twice is refused, not settled by its last value."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", config_path, "--phases", "stress:1,stress:0,post:0"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "phase stress is given more than once" in captured.err


class TestSuiteCommand:
    @pytest.fixture()
    def configs_path(self, tmp_path):
        return write_json(
            tmp_path / "two.json",
            [
                {
                    "scenario_id": "a",
                    "stress_hours": 1,
                    "post_rejuvenation_hours": 1,
                    "seed": 1,
                },
                {
                    "scenario_id": "b",
                    "concurrency": 4,
                    "stress_hours": 1,
                    "post_rejuvenation_hours": 1,
                    "seed": 2,
                },
            ],
        )

    def test_runs_configs_file(self, configs_path, capsys):
        assert main(["suite", "--configs", configs_path]) == 0
        out = capsys.readouterr().out
        assert "       a " in out
        assert "       b " in out

    def test_writes_suite_bundle(self, configs_path, tmp_path):
        out_dir = tmp_path / "suite"
        assert main(["suite", "--configs", configs_path, "--out", str(out_dir)]) == 0
        assert (out_dir / "scenario-a" / "report.json").is_file()
        assert (out_dir / "scenario-b" / "report.json").is_file()
        assert (out_dir / "trend_table.txt").is_file()
        assert (out_dir / "suite.json").is_file()

    def test_seed_override_is_reproducible(self, configs_path, capsys):
        main(["suite", "--configs", configs_path, "--seed", "5"])
        first = capsys.readouterr().out
        main(["suite", "--configs", configs_path, "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_duplicate_ids_rejected(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "dup.json",
            [
                {"scenario_id": "same", "stress_hours": 0, "seed": 1},
                {"scenario_id": "same", "stress_hours": 0, "seed": 2},
            ],
        )
        assert main(["suite", "--configs", path]) == 2
        assert "unique" in capsys.readouterr().err

    def test_configs_without_a_document_are_refused(self, tmp_path, capsys):
        """Files that hold no config document are bad input (exit 2), not a
        suite in which no scenario completed (exit 1)."""
        empty = write_json(tmp_path / "empty.json", [])
        assert main(["suite", "--configs", empty, empty]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --configs holds no scenario document\n"

    def test_all_scenarios_failing_is_exit_1(self, tmp_path, capsys, monkeypatch):
        crash_at_run_time(monkeypatch, "x")
        path = write_json(
            tmp_path / "doomed.json", [{"scenario_id": "x", "stress_hours": 1, "seed": 1}]
        )
        assert main(["suite", "--configs", path]) == 1
        err = capsys.readouterr().err
        assert "scenario x failed" in err
        assert "no scenario completed" in err

    def test_partial_failure_still_reports_survivors(self, tmp_path, capsys, monkeypatch):
        crash_at_run_time(monkeypatch, "doomed")
        path = write_json(
            tmp_path / "mixed.json",
            [
                {
                    "scenario_id": "ok",
                    "stress_hours": 1,
                    "post_rejuvenation_hours": 1,
                    "seed": 1,
                },
                {"scenario_id": "doomed", "stress_hours": 1, "seed": 2},
            ],
        )
        assert main(["suite", "--configs", path]) == 0
        captured = capsys.readouterr()
        assert "scenario doomed failed" in captured.err
        assert "      ok " in captured.out

    @pytest.mark.parametrize(
        "table",
        [
            {"boot srever": {"server-error-status": 0.1}},
            {"boot server": {"no-such-error": 0.1}},
            {"boot server": {"server-error-status": 1.5}},
        ],
        ids=["unknown-step", "unknown-error", "probability-above-1"],
    )
    def test_bad_fault_table_is_exit_2_before_any_scenario_runs(
        self, tmp_path, capsys, table
    ):
        path = write_json(
            tmp_path / "faulty.json",
            [
                {"scenario_id": "a", "stress_hours": 1, "seed": 1},
                {"scenario_id": "c", "stress_hours": 1, "seed": 2, "faults": table},
            ],
        )
        assert main(["suite", "--configs", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "quotas", [{"server": 0}, {"volume": -3}], ids=["zero", "negative"]
    )
    def test_bad_quota_is_exit_2_before_any_scenario_runs(
        self, tmp_path, capsys, quotas
    ):
        path = write_json(
            tmp_path / "quotas.json",
            [
                {"scenario_id": "a", "stress_hours": 1, "seed": 1},
                {"scenario_id": "c", "stress_hours": 1, "seed": 2, "quotas": quotas},
            ],
        )
        assert main(["suite", "--configs", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "must be >= 1" in captured.err

    def test_scenario_id_cannot_lead_out_of_out(self, tmp_path, capsys):
        """Each bundle is written to ``scenario-{id}`` under ``--out``."""
        out = tmp_path / "a" / "b" / "out"
        path = write_json(
            tmp_path / "escape.json",
            [{"scenario_id": "/../../../escapedX", "stress_hours": 0, "post_rejuvenation_hours": 0}],
        )
        assert main(["suite", "--configs", path, "--out", str(out)]) == 2
        assert "scenario_id must be" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["escape.json"]

    def test_sources_are_mutually_exclusive(self, configs_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", "--configs", configs_path, "--default-matrix"])
        assert excinfo.value.code == 2

    def test_default_matrix_flag_parses(self):
        args = build_parser().parse_args(["suite", "--default-matrix"])
        assert args.default_matrix is True
        assert args.configs is None


def ramp_csv(tmp_path, name="memory-available", hours=26):
    """One sample per hour: declining through stress, recovering after."""
    rows = ["timestamp,metric,value"]
    for h in range(hours):
        value = 2.0 - 0.05 * h if h < 24 else 1.9
        rows.append(f"{5000 + h * 3600},{name},{value}")
    path = tmp_path / f"{name}.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


class TestAnalyzeCommand:
    def test_prints_trend_lines(self, tmp_path, capsys):
        path = ramp_csv(tmp_path)
        code = main(
            [
                "analyze",
                path,
                "--stress-end",
                "86400",
                "--rejuvenation-end",
                "90000",
                "--unit",
                "GB",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "memory-available:" in out
        assert "verdict=downward" in out
        assert "A=-1.150" in out

    def test_timestamps_are_rebased(self, tmp_path, capsys):
        # raw timestamps start at 5000 s; boundaries are post-rebase
        path = ramp_csv(tmp_path)
        main(["analyze", path, "--stress-end", "86400"])
        out = capsys.readouterr().out
        assert "n=24" in out

    def test_short_series_is_still_exit_0(self, tmp_path, capsys):
        path = ramp_csv(tmp_path, hours=3)
        assert main(["analyze", path]) == 0
        assert "verdict=insufficient-data" in capsys.readouterr().out

    def test_workload_report_joins_analysis(self, tmp_path, capsys):
        csv_path = ramp_csv(tmp_path)
        workloads = [
            {"start": i * 100.0, "end": i * 100.0 + 60 + i, "status": "success"}
            for i in range(40)
        ]
        report_path = write_json(tmp_path / "wl.json", {"workloads": workloads})
        code = main(["analyze", csv_path, "--workload-report", report_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload-duration:" in out

    def test_workloads_starting_in_one_epoch_second_are_exit_0(self, tmp_path, capsys):
        epoch = 1_700_000_000
        csv_path = tmp_path / "epoch.csv"
        rows = ["timestamp,metric,value"]
        rows += [f"{epoch + i * 600},memory-available,{8.0 - 0.01 * i}" for i in range(12)]
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        workloads = [
            {"start": epoch, "end": epoch + 60, "status": "success"},
            {"start": epoch, "end": epoch + 70, "status": "success"},
        ]
        report_path = write_json(tmp_path / "wl.json", {"workloads": workloads})
        code = main(["analyze", str(csv_path), "--workload-report", report_path])
        assert code == 0
        assert "workload-duration: n=1" in capsys.readouterr().out

    def test_non_finite_workload_times_are_rejected(self, tmp_path, capsys):
        csv_path = ramp_csv(tmp_path)
        workloads = [
            {"start": i * 100.0, "end": i * 100.0 + 60 + i, "status": "success"}
            for i in range(40)
        ]
        workloads += [
            {"start": 100, "end": "inf", "status": "success"},
            {"start": "-inf", "end": 100, "status": "success"},
            {"start": "nan", "end": 100, "status": "success"},
            {"start": 100, "end": float("nan"), "status": "success"},
            {"start": 100, "end": float("inf"), "status": "success"},
            {"start": 10**400, "end": 10**401, "status": "success"},
        ]
        report_path = write_json(tmp_path / "wl.json", {"workloads": workloads})
        out_dir = tmp_path / "analysis"
        code = main(
            [
                "analyze",
                csv_path,
                "--workload-report",
                report_path,
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "workload-duration:" in captured.out
        assert "6 malformed records skipped" in captured.err

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (out_dir / "analysis.json").read_text(encoding="utf-8")
        document = json.loads(text, parse_constant=reject)
        assert "workload-duration" in document["indicators"]

    def test_non_string_error_in_workload_report_is_a_skipped_record(
        self, tmp_path, capsys
    ):
        csv_path = ramp_csv(tmp_path)
        report_path = write_json(
            tmp_path / "wl.json",
            {"workloads": [{"start": 0, "end": 5, "status": "success", "error": ["x"]}]},
        )
        assert main(["analyze", csv_path, "--workload-report", report_path]) == 0
        assert "1 malformed records skipped" in capsys.readouterr().err

    def test_timestamps_collapsed_by_rebasing_are_exit_2(self, tmp_path, capsys):
        """Rebasing onto -1e300 maps both of b's timestamps to 1e300."""
        path = tmp_path / "far.csv"
        path.write_text(
            "timestamp,metric,value\n"
            "-1e300,a,1\n"
            "0,a,2\n"
            "100000000000000000,b,1\n"
            "100000000000000016,b,2\n",
            encoding="utf-8",
        )
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "strictly increasing" in captured.err
        assert captured.out == ""

    def test_duplicate_metric_across_files_is_exit_2(self, tmp_path, capsys):
        first = ramp_csv(tmp_path)
        second_dir = tmp_path / "other"
        second_dir.mkdir()
        second = ramp_csv(second_dir)
        assert main(["analyze", first, second]) == 2
        assert "more than one input" in capsys.readouterr().err

    def test_rejuvenation_end_requires_stress_end(self, tmp_path, capsys):
        path = ramp_csv(tmp_path)
        assert main(["analyze", path, "--rejuvenation-end", "90000"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "flags",
        [["--stress-end={}"], ["--stress-end=86400", "--rejuvenation-end={}"]],
        ids=["stress-end", "rejuvenation-end"],
    )
    def test_non_finite_phase_boundary_is_exit_2(self, tmp_path, capsys, flags, value):
        path = ramp_csv(tmp_path)
        out_dir = tmp_path / "analysis"
        argv = ["analyze", path, "--out", str(out_dir), *(f.format(value) for f in flags)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        flag = flags[-1].partition("=")[0]
        assert captured.err.startswith(f"error: {flag} must be a finite number")
        assert not out_dir.exists()

    def test_phase_flags_are_checked_before_any_input_is_read(self, tmp_path, capsys):
        """A bad flag is a usage error (exit 2), even where an input is
        missing (which alone would be exit 3)."""
        assert main(["analyze", str(tmp_path / "missing.csv"), "--stress-end", "nan"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --stress-end must be a finite number"
        )

    def test_an_empty_unit_is_refused_before_any_input_is_read(self, tmp_path, capsys):
        """An empty ``--unit`` is a usage error (exit 2) named by its flag,
        even where an input is missing."""
        assert main(["analyze", str(tmp_path / "missing.csv"), "--unit", ""]) == 2
        assert capsys.readouterr().err == "error: --unit must be non-empty\n"

    def test_boundaries_must_be_ordered(self, tmp_path):
        path = ramp_csv(tmp_path)
        code = main(
            ["analyze", path, "--stress-end", "86400", "--rejuvenation-end", "86400"]
        )
        assert code == 2

    def test_out_writes_analysis_json(self, tmp_path, capsys):
        path = ramp_csv(tmp_path)
        out_dir = tmp_path / "analysis"
        code = main(
            [
                "analyze",
                path,
                "--stress-end",
                "86400",
                "--rejuvenation-end",
                "90000",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        document = json.loads((out_dir / "analysis.json").read_text())
        assert document["rebased_from"] == 5000.0
        assert document["phase_boundaries"] == [86400.0, 90000.0]
        entry = document["indicators"]["memory-available"]
        assert entry["trend"]["verdict"] == "downward"

    def test_a_max_float_mean_is_written_as_standard_json(self, tmp_path, capsys):
        """Rounded to 10 digits, the largest float would pass it: it is kept as it is."""
        path = tmp_path / "huge.csv"
        path.write_text(
            "timestamp,metric,value\n0,m,1.7976931348623157e308\n3600,m,1\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "analysis"
        assert main(["analyze", str(path), "--out", str(out_dir)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (out_dir / "analysis.json").read_text(encoding="utf-8")
        document = json.loads(text, parse_constant=reject)
        assert document["indicators"]["m"]["hourly"]["means"] == [1.7976931348623157e308, 1.0]

    def test_missing_csv_is_exit_3(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "ghost.csv")]) == 3

    def test_error_line_counts_lines_of_a_quoted_multiline_cell(self, tmp_path, capsys):
        """The bad row is on line 4: the quoted cell above it spans two lines."""
        path = tmp_path / "multiline.csv"
        path.write_text('timestamp,metric,value\n0,"a\nb",1\n10,a,x\n', encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        assert "error: line 4: unreadable value 'x'" in capsys.readouterr().err

    def test_csv_that_is_not_utf8_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"timestamp,metric,value\n0,a,1\n\xff,a,2\n")
        assert main(["analyze", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_workload_report_that_is_not_utf8_is_exit_2(self, tmp_path, capsys):
        report = tmp_path / "wl.json"
        report.write_bytes(b'{"workloads": ["\xff"]}')
        code = main(["analyze", ramp_csv(tmp_path), "--workload-report", str(report)])
        assert code == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_workload_span_past_the_float_range_is_a_skipped_record(
        self, tmp_path, capsys
    ):
        top = 1.7976931348623157e308
        report_path = write_json(
            tmp_path / "wl.json",
            {"workloads": [{"start": -top, "end": top, "status": "success"}]},
        )
        assert main(["analyze", ramp_csv(tmp_path), "--workload-report", report_path]) == 0
        assert "1 malformed records skipped" in capsys.readouterr().err

    def test_workload_starts_tied_at_the_largest_float_are_exit_2(self, tmp_path, capsys):
        top = 1.7976931348623157e308
        record = {"start": top, "end": top, "status": "success"}
        report_path = write_json(tmp_path / "wl.json", {"workloads": [record, record]})
        assert main(["analyze", ramp_csv(tmp_path), "--workload-report", report_path]) == 2
        assert "largest float" in capsys.readouterr().err

    def test_timestamps_overflowing_when_rebased_are_exit_2(self, tmp_path, capsys):
        path = tmp_path / "far.csv"
        path.write_text(
            "timestamp,metric,value\n-1.7e308,a,1\n0,a,2\n1.7e308,b,1\n",
            encoding="utf-8",
        )
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert "overflow when rebased" in captured.err
        # 'a' analyses cleanly, but the command fails before printing it.
        assert captured.out == ""

    def test_hourly_mean_overflowing_is_exit_2(self, tmp_path, capsys):
        """Two samples of 1.5e308 in one hour sum past the largest float."""
        path = tmp_path / "huge.csv"
        rows = ["timestamp,metric,value"]
        rows += [f"{h * 3600 + k * 60},huge,1.5e308" for h in range(12) for k in range(2)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: series 'huge' has a non-finite mean")
        assert captured.out == ""

    def test_ageing_delta_overflowing_is_exit_2(self, tmp_path, capsys):
        """Hour means of +/-1.5e308 are finite, but A = vb - v0 is not."""
        path = tmp_path / "swing.csv"
        rows = ["timestamp,metric,value"]
        rows += [f"{h * 3600},swing,{1.5e308 if h % 2 == 0 else -1.5e308!r}" for h in range(12)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out_dir = tmp_path / "analysis"
        code = main(
            [
                "analyze",
                str(path),
                "--stress-end",
                "36000",
                "--rejuvenation-end",
                "39600",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: series 'swing' has a non-finite ageing summary")
        assert captured.out == ""
        assert not (out_dir / "analysis.json").exists()

    def test_deeply_nested_workload_report_is_exit_2(self, tmp_path, capsys):
        report = tmp_path / "wl.json"
        report.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code = main(["analyze", ramp_csv(tmp_path), "--workload-report", str(report)])
        assert code == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_malformed_csv_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,metric,value\nabc,m,1\n", encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err


def golden_analyze_inputs(tmp_path):
    """Two shuffled files: numeric stamps for two metrics, ISO stamps for one.

    Rows come from ``random.Random`` (stable across Python versions) and
    span 30 stress hours, one rejuvenation hour and three more, at
    irregular spacing with fractional seconds, so rebasing, sorting,
    binning and every statistic are exercised.
    """
    rng = random.Random(905)
    epoch = 1_700_000_000
    numeric = []
    for metric, level, drift, decimals in (
        ("disk-used", 40.0, 0.35, 3),
        ("memory-available", 12.0, -0.08, 1),
    ):
        t = float(epoch + rng.randint(0, 30))
        while t < epoch + 34 * 3600:
            hour = (t - epoch) / 3600
            trend = drift * hour if hour < 30 else 0.0
            value = round(level + trend + rng.random() - 0.5, decimals)
            numeric.append(f"{t!r},{metric},{value!r}")
            t += rng.choice((300, 450, 600, 900)) + rng.choice((0.0, 0.25, 0.5))
    rng.shuffle(numeric)

    iso = []
    start = datetime.fromtimestamp(epoch, tz=timezone.utc)
    offset = 0.0
    while offset < 34 * 3600:
        moment = start + timedelta(seconds=offset)
        hour = offset / 3600
        value = round(0.5 + (0.02 * hour if hour < 30 else 0.0) + 0.1 * rng.random(), 4)
        style = rng.randint(0, 2)
        if style == 0:
            stamp = moment.strftime("%Y-%m-%dT%H:%M:%S.%fZ")
        elif style == 1:
            stamp = moment.replace(tzinfo=None).isoformat()
        else:
            stamp = moment.astimezone(timezone(timedelta(hours=2))).isoformat()
        iso.append(f"{stamp},swap-used,{value!r}")
        offset += rng.choice((600, 1200, 1800)) + rng.choice((0.0, 0.5))
    rng.shuffle(iso)

    paths = []
    for name, rows in (("numeric.csv", numeric), ("iso.csv", iso)):
        path = tmp_path / name
        path.write_text("timestamp,metric,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


#: SHA-256 of ``analysis.json`` and of stdout (output directory masked) for
#: the golden inputs, computed before series were stored as arrays.
GOLDEN_ANALYSIS_SHA256 = "e1af921924a2f952f5bef1eb2e713d9a27ab42df7a792a5807343b5d6466cda3"
GOLDEN_STDOUT_SHA256 = "05aea32510a63798d267b89832ca9c070739d5ed116efeecda14d49ae108ca2a"


def test_analyze_golden_digests(tmp_path, capsys):
    """Byte-identical analysis of shuffled numeric and ISO inputs."""
    out_dir = tmp_path / "analysis"
    code = main(
        [
            "analyze",
            *golden_analyze_inputs(tmp_path),
            "--unit",
            "GB",
            "--stress-end",
            "108000",
            "--rejuvenation-end",
            "111600",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out.replace(str(out_dir), "<out>")
    analysis = (out_dir / "analysis.json").read_bytes()
    assert hashlib.sha256(analysis).hexdigest() == GOLDEN_ANALYSIS_SHA256
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_STDOUT_SHA256


@pytest.mark.parametrize("command", [["run"], ["suite", "--configs"]], ids=["run", "suite"])
def test_a_refused_config_leaves_no_out_directory(tmp_path, capsys, command):
    """A post phase this long has an unreachable deadline, so the config is
    refused before anything runs; ``--out`` is made only after a run."""
    config = {"scenario_id": "late", "concurrency": 64, "post_rejuvenation_hours": 10**300}
    path = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out" / "bundle"
    assert main([*command, path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_no_pass_loads_numpy_ma(tmp_path):
    """``np.median`` imports ``numpy.ma`` for its NaN check; neither a
    scenario nor ``analyze``, both of which take Sen's slopes, loads it."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "from agesim import ScenarioConfig, run_scenario\n"
        "from agesim.cli import main\n"
        "run_scenario(ScenarioConfig(scenario_id='s', stress_hours=2))\n"
        f"assert main(['analyze', {ramp_csv(tmp_path)!r}, '--stress-end', '86400',"
        " '--rejuvenation-end', '90000']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_analyze_does_not_load_numpy_random(tmp_path):
    """400 stress bins hold 79,800 pairs, more than the open bracket takes,
    so Sen's slope draws its bracket sample: from a hash, not ``numpy.random``."""
    rows = ["timestamp,metric,value"]
    rows += [f"{h * 3600},m,{(h * 7919) % 1009 + (h if h < 400 else 0)}" for h in range(403)]
    csv_path = tmp_path / "long.csv"
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "from agesim.cli import main\n"
        f"assert main(['analyze', {str(csv_path)!r}, '--stress-end', '1440000',"
        " '--rejuvenation-end', '1443600']) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "m: n=400 " in done.stdout and " slope=" in done.stdout
    assert done.stdout.splitlines()[-1] == "False"


class TestUnusablePaths:
    """A path that exists but is of the wrong kind ends in ``error: ...``
    and exit 2, like any other bad input."""

    @pytest.fixture()
    def paths(self, tmp_path):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("", encoding="utf-8")
        config = {"scenario_id": "p", "stress_hours": 1, "post_rejuvenation_hours": 0}
        return {
            "DIR": str(tmp_path / "dir"),
            "FILE": str(tmp_path / "file"),
            "UNDER_FILE": str(tmp_path / "file" / "out"),
            "CSV": ramp_csv(tmp_path),
            "CONFIG": write_json(tmp_path / "cfg.json", config),
        }

    @pytest.mark.parametrize(
        "argv, named, reason",
        [
            (["analyze", "DIR"], "DIR", "Is a directory"),
            (["analyze", "CSV", "--workload-report", "DIR"], "DIR", "Is a directory"),
            (["run", "DIR"], "DIR", "Is a directory"),
            (["suite", "--configs", "DIR"], "DIR", "Is a directory"),
            (["analyze", "CSV", "--out", "FILE"], "FILE", "File exists"),
            (["analyze", "CSV", "--out", "UNDER_FILE"], "UNDER_FILE", "Not a directory"),
            (["run", "CONFIG", "--out", "FILE"], "FILE", "File exists"),
            (["suite", "--configs", "CONFIG", "--out", "UNDER_FILE"], "UNDER_FILE",
             "Not a directory"),
        ],
    )
    def test_wrong_kind_of_path_is_exit_2(self, paths, capsys, argv, named, reason):
        assert main([paths.get(arg, arg) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: {paths[named]}: {reason}\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, named, reason",
        [
            (["run", "CONFIG", "--out", "UNDER_FILE"], "UNDER_FILE", "Not a directory"),
            (["suite", "--configs", "CONFIG", "--out", "FILE"], "FILE", "File exists"),
            (["analyze", "CSV", "--out", "FILE"], "FILE", "File exists"),
        ],
        ids=["run", "suite", "analyze"],
    )
    def test_blocked_out_fails_before_any_result(self, paths, capsys, argv, named, reason):
        """The ``--out`` directory is made before the first line of results,
        so a path that cannot be one leaves stdout empty."""
        assert main([paths.get(arg, arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {paths[named]}: {reason}\n"

    def test_missing_file_stays_exit_3(self, paths, capsys):
        missing = str(Path(paths["DIR"]) / "ghost.json")
        assert main(["run", missing]) == 3
        assert capsys.readouterr().err == f"error: file not found: {missing}\n"


#: One negative value for each resource parameter that had no lower bound.
NEGATIVE_RESOURCES = (
    ("ageing_rate", -0.01),
    ("warmup_noise_gb", -0.3),
    ("leak_per_workload_gb", -0.01),
    ("leftover_retention_gb", -0.01),
    ("warmup_alloc_gb", -0.25),
)

#: The step keys that named an entity kind by the step's action, each
#: with an action it went with; a step names its kind as ``kind`` alone.
OLD_STEP_KEYS = (("create", "creates"), ("delete", "deletes"), ("operate", "operates_on"))


class TestFreshProcess:
    """Hostile input given to the command in an interpreter of its own
    ends in exit 2 and an ``error:`` line that names the refusal, never
    in a traceback or a hang."""

    @pytest.mark.parametrize(
        "fields, flags, fragment",
        [
            ({"seed": -1}, [], "seed must not be negative, got -1"),
            ({}, ["--seed", "-1"], "argument --seed: seed must not be negative"),
            # Refused with the config, though both phases are empty.
            ({"concurrency": 10**30}, [], "concurrency must lie in [1, 10000]"),
            # A step so short that t + duration == t, in a cloud that never
            # fails (no leak, ageing, warm-up or cache), is refused by the
            # floor on step times.
            (
                {
                    "stress_hours": 1,
                    "timing": {"default_seconds": 1e-300, "step_seconds": {}},
                    "resources": {
                        "leak_per_workload_gb": 0.0,
                        "ageing_rate": 0.0,
                        "warmup_alloc_gb": 0.0,
                        "warmup_noise_gb": 0.0,
                        "cache_depositing_steps": [],
                    },
                },
                [],
                "default_seconds must be at least 0.001 s",
            ),
            # An empty plan indexed past its end on the first step.
            (
                {
                    "stress_hours": 1,
                    "timing": {"step_seconds": {}},
                    "resources": {"cache_depositing_steps": []},
                    "workload": {"steps": []},
                },
                [],
                "a workload needs at least one step",
            ),
            ({"stress_hours": 10**400}, [], "stress_hours is too long to count in seconds"),
            (
                {"post_rejuvenation_hours": 10**400},
                [],
                "post_rejuvenation_hours is too long to count in seconds",
            ),
            # Negative resource parameters: the ageing multiplier passed 0 and
            # ran the clock backwards, the noise could not be drawn, or the
            # run exited 0 with memory that grew under load.
            *(
                (
                    {"stress_hours": 2, "concurrency": 4, "resources": {field: value}},
                    [],
                    f"{field} must not be negative",
                )
                for field, value in NEGATIVE_RESOURCES
            ),
            # A noise range of 2e308 overflowed numpy's uniform draw.
            (
                {"stress_hours": 1, "resources": {"warmup_noise_gb": 1e308}},
                [],
                "warmup_noise_gb is too large to draw noise from",
            ),
            # Two cleanup steps undo one create step.
            (
                {
                    "workload": {
                        "steps": [
                            {"name": "a", "action": "create", "kind": "port"},
                            *(
                                {
                                    "name": name,
                                    "action": "delete",
                                    "kind": "port",
                                    "undo_of": "a",
                                }
                                for name in ("b", "c")
                            ),
                        ]
                    }
                },
                [],
                "step 'a' is undone twice",
            ),
            # A step names its entity kind as ``kind``, not by its action.
            *(
                (
                    {"workload": {"steps": [{"name": "a", "action": action, key: "port"}]}},
                    [],
                    f"scenario.workload.steps[0].{key}: unknown field",
                )
                for action, key in OLD_STEP_KEYS
            ),
        ],
        ids=[
            "config-seed",
            "seed-flag",
            "concurrency",
            "frozen-clock",
            "empty-steps",
            "stress-overflow",
            "post-overflow",
            *(f"negative-{field}" for field, _value in NEGATIVE_RESOURCES),
            "noise-overflow",
            "undone-twice",
            *(f"old-key-{key}" for _action, key in OLD_STEP_KEYS),
        ],
    )
    @pytest.mark.parametrize("command", [["run"], ["suite", "--configs"]], ids=["run", "suite"])
    def test_exit_2_with_an_error_line(self, tmp_path, command, fields, flags, fragment):
        config = {"scenario_id": "x", "stress_hours": 0, "post_rejuvenation_hours": 0, **fields}
        path = write_json(tmp_path / "cfg.json", config)
        done = run_in_fresh_process([*command, path, *flags], tmp_path)
        assert done.returncode == 2
        assert done.stdout == ""
        (line,) = re.findall(r"^(?:agesim \w+: )?error: .*$", done.stderr, re.MULTILINE)
        assert fragment in line
        assert "Traceback" not in done.stderr

    def test_a_step_too_short_for_a_late_clock_is_refused(self, tmp_path):
        """A rejuvenation of 1e17 s starts the post phase where the clock
        resolves only 16 s, so a 2 s step leaves ``t + duration == t`` and
        the stream never reached its deadline; it is refused before its
        first event."""
        steps = [
            {"name": "create user", "action": "create", "kind": "user"},
            {
                "name": "delete user",
                "action": "delete",
                "kind": "user",
                "undo_of": "create user",
            },
        ]
        config = {
            "scenario_id": "x",
            "stress_hours": 0,
            "post_rejuvenation_hours": 1,
            "resources": {"rejuvenation_seconds": 1e17, "cache_depositing_steps": []},
            "timing": {"step_seconds": {}},
            "workload": {"steps": steps},
        }
        path = write_json(tmp_path / "cfg.json", config)
        done = run_in_fresh_process(["run", path], tmp_path)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        (line,) = [line for line in done.stderr.splitlines() if "error: " in line]
        assert "cannot advance a clock at 1.000000000000036e+17 s" in line

    def test_suite_refuses_a_late_clock_as_run_does(self, tmp_path):
        """``suite`` refuses a config whose post phase starts where the
        clock resolves only 16 s with the ``error:`` line ``run`` prints,
        and exit 2, before any scenario runs."""
        config = {
            "scenario_id": "frozen",
            "seed": 1,
            "stress_hours": 1,
            "post_rejuvenation_hours": 1,
            "resources": {"rejuvenation_seconds": 1e17},
        }
        path = write_json(tmp_path / "cfg.json", config)
        lines = []
        for command in (["run"], ["suite", "--configs"]):
            done = run_in_fresh_process([*command, path], tmp_path)
            assert done.returncode == 2
            assert done.stdout == ""
            assert "Traceback" not in done.stderr
            (line,) = [line for line in done.stderr.splitlines() if "error: " in line]
            lines.append(line)
        run_line, suite_line = lines
        assert "cannot advance a clock at 1.000000000000072e+17 s" in suite_line
        assert suite_line == run_line

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seed", "9" * 5000),
            ("--seed", "-" + "9" * 5000),
            ("--phases", "stress:" + "9" * 5000),
            ("--seed", "x" * 5000),
        ],
        ids=["seed", "negative-seed", "phases", "not-an-integer"],
    )
    def test_an_overlong_value_is_named_and_cut_short(self, tmp_path, flag, value):
        """A value past the interpreter's digit limit is called too long,
        not "not an integer", and no error line echoes all of a value."""
        path = write_json(tmp_path / "cfg.json", {"scenario_id": "x"})
        done = run_in_fresh_process(["run", path, flag, value], tmp_path)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        (line,) = [line for line in done.stderr.splitlines() if "error: " in line]
        assert len(line) < 200
        if value[-1] == "9":
            assert "5,000 digits" in line
        else:
            assert "is not an integer" in line


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["explode"])
        assert excinfo.value.code == 2

    def test_overload_flag_is_unrecognised(self, capsys):
        """The error table always holds the overload indicator out, so
        ``run`` takes no flag that keeps it in."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "cfg.json", "--no-exclude-overload-errors"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --no-exclude-overload-errors" in capsys.readouterr().err

"""Every script under ``demos/`` runs in-process with its quickest
arguments and ends without an error, so a change to the API the demos
use cannot break them unnoticed."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

#: Each demo's command-line arguments that make its run the shortest.
QUICKEST_ARGUMENTS = {
    "ingest_and_analyze.py": [],
    "profile_analyze.py": ["13", "1"],  # 13 hours, the fewest with a stress phase
    "profile_scenario.py": ["1", "1"],  # scenario 1: concurrency 1
    "profile_sens_slope.py": ["10"],
    "scenario_matrix.py": ["1"],  # one stress hour per scenario
    "single_scenario.py": [],
    "trend_detection.py": [],
}


def test_every_demo_is_covered():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(QUICKEST_ARGUMENTS)


@pytest.mark.parametrize("name", sorted(QUICKEST_ARGUMENTS))
def test_demo_runs_cleanly(name, monkeypatch, capsys):
    path = DEMOS / name
    monkeypatch.setattr(sys, "argv", [str(path), *QUICKEST_ARGUMENTS[name]])
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), exc.code
    assert capsys.readouterr().out

"""Every script under ``demos/`` runs in-process with its quickest
arguments and ends without an error, so a change to the API the demos
use cannot break them unnoticed."""

import json
import re
import runpy
import sys
from pathlib import Path

import pytest

from agesim.scenario import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

#: Each demo's command-line arguments that make its run the shortest.
QUICKEST_ARGUMENTS = {
    "ingest_and_analyze.py": [],
    "profile_sens_slope.py": ["10"],
    "scenario_matrix.py": ["1"],  # one stress hour per scenario
    "single_scenario.py": [],
    "trend_detection.py": [],
}


def test_every_demo_is_covered():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(QUICKEST_ARGUMENTS)


def test_readme_names_every_demo_and_no_other():
    """The README's ``python3 demos/<name>.py`` commands name exactly the
    scripts in ``demos/``, so adding or deleting a demo cannot leave it stale."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = re.findall(r"python3 demos/([\w.-]+\.py)", readme)
    assert sorted(set(named)) == sorted(path.name for path in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(QUICKEST_ARGUMENTS))
def test_demo_runs_cleanly(name, monkeypatch, capsys):
    path = DEMOS / name
    monkeypatch.setattr(sys, "argv", [str(path), *QUICKEST_ARGUMENTS[name]])
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), exc.code
    assert capsys.readouterr().out


def test_readme_python_blocks_run_and_the_quick_start_verdict_holds(capsys):
    """README's ``python`` blocks run in order in one namespace, as a reader
    would paste them, and the quick start's commented verdict is the one the
    run gives."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out
    (commented,) = re.findall(r'print\(duration\.trend\.verdict\.value\)\s*# "(\w+)"', readme)
    duration = namespace["duration"]
    assert duration.trend.verdict.value == commented == "upward"
    assert duration.ageing.sens_slope > 0


def test_readme_json_blocks_are_scenario_configs():
    """Every ``json`` block of the README is a config document that
    ``ScenarioConfig.from_document`` builds, so the documented format
    cannot drift from the code."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```$", readme, flags=re.S | re.M)
    assert blocks
    for block in blocks:
        ScenarioConfig.from_document(json.loads(block))

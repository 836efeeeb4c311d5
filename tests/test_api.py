"""The public names other code relies on still resolve.

``agesim.__all__`` is the package's public surface, and the benchmark's
traced pass wraps the entry points listed in ``perfbench.tracing`` by
name; a deletion that breaks either should fail here rather than in a
benchmark run.
"""

import functools
import importlib
import sys
from pathlib import Path

import agesim

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.tracing import ENTRY_POINTS  # noqa: E402


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

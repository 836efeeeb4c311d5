"""Time ``agesim analyze`` phase by phase, then profile it under cProfile.

Writes a CSV of four gauges sampled every two minutes over ``hours``
hours (4392 by default: about half a year, 527,040 rows), with numeric
epoch timestamps, a planted drift through the stress phase and a
return to the start level after one hour of rejuvenation.  The values
come from numpy's seeded generator, so every run reads the same file.

It first prints an unprofiled wall split, best of three, of the phases
``agesim analyze`` runs: ``ingest`` once on its numpy path and once on
its row loop (through a handle that cannot seek), ``evaluate_indicator``
with its ``bin_hourly``, ``mann_kendall`` and ``sens_slope`` parts, and
the ``analysis.json`` write, with and without ``indent``.  Then it runs
``agesim analyze`` once unprofiled and once under cProfile, and prints
the functions that spend the most time in their own code.  cProfile
adds a cost to every Python call, which inflates the CSV row loop and
the JSON encoder most; read the split, not the profile, for how long a
phase takes, and confirm a candidate with the benchmark
(``perfbench/run.py``) with profiling off.

Run with:  python3 demos/profile_analyze.py [hours] [rows]
"""

import contextlib
import cProfile
import io
import json
import pstats
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from agesim import trendstats
from agesim.cli import main as agesim_main
from agesim.ingest import ingest
from agesim.report import analysis_document

#: Gauge name -> (level at hour 0, drift over the stress phase, noise).
GAUGES = {
    "disk-used": (40.0, 0.4, 0.8),
    "inodes-free": (90.0, -0.3, 1.5),
    "memory-available": (12.0, -0.35, 0.4),
    "swap-used": (0.5, 0.45, 0.2),
}
STEP_SECONDS = 120
EPOCH = 1_700_000_000


def write_csv(path: Path, hours: int) -> int:
    """Write the gauge CSV; returns its number of data rows."""
    stress_hours = hours - 12
    rng = np.random.default_rng(7)
    offsets = np.arange(hours * 3600 // STEP_SECONDS) * STEP_SECONDS
    elapsed = offsets / 3600.0
    columns = []
    for level, drift, noise in GAUGES.values():
        ramp = np.where(elapsed < stress_hours, drift * level * elapsed / stress_hours, 0.0)
        columns.append((level + ramp + rng.normal(0.0, noise, offsets.size)).tolist())
    lines = ["timestamp,metric,value"]
    for i, ts in enumerate((EPOCH + offsets).tolist()):
        for name, values in zip(GAUGES, columns):
            lines.append(f"{ts},{name},{values[i]:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


class FrontToBack:
    """A file handle that cannot seek, so ``ingest`` reads it row by row."""

    def __init__(self, handle):
        self._handle = handle

    def seekable(self) -> bool:
        return False

    def __iter__(self):
        return iter(self._handle)


def best_of(repeats: int, action) -> float:
    """The shortest wall time, in seconds, of ``repeats`` calls of ``action``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - started)
    return best


def phase_split(csv_path: Path, boundaries: tuple, out: Path, repeats: int = 3) -> dict:
    """Unprofiled wall seconds of each phase of ``agesim analyze``, best of
    ``repeats``; the parts of ``evaluate_indicator`` are summed over metrics."""

    def row_loop():
        with open(csv_path, newline="", encoding="utf-8") as handle:
            ingest(FrontToBack(handle), unit="GB")

    split = {
        "ingest, numpy path": best_of(repeats, lambda: ingest(csv_path, unit="GB")),
        "ingest, row loop": best_of(repeats, row_loop),
    }
    series = ingest(csv_path, unit="GB")
    t0 = min(float(s.timestamps[0]) for s in series.values())
    rebased = {name: trendstats.rebased(series[name], t0) for name in sorted(series)}

    parts = dict.fromkeys(("bin_hourly", "mann_kendall", "sens_slope"), float("inf"))
    analyses = {}

    def evaluate_all():
        spent = dict.fromkeys(parts, 0.0)
        originals = {name: getattr(trendstats, name) for name in parts}

        def timed(name):
            def call(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return originals[name](*args, **kwargs)
                finally:
                    spent[name] += time.perf_counter() - started

            return call

        try:
            for name in parts:
                setattr(trendstats, name, timed(name))
            for name, s in rebased.items():
                analyses[name] = trendstats.evaluate_indicator(s, phase_boundaries=boundaries)
        finally:
            for name, original in originals.items():
                setattr(trendstats, name, original)
        for name, seconds in spent.items():
            parts[name] = min(parts[name], seconds)

    split["evaluate_indicator"] = best_of(repeats, evaluate_all)
    split.update({f"  {name}": seconds for name, seconds in parts.items()})

    document = {
        "rebased_from": t0,
        "phase_boundaries": list(boundaries),
        "indicators": {name: analysis_document(a) for name, a in analyses.items()},
    }
    target = out / "analysis.json"
    out.mkdir(parents=True, exist_ok=True)
    split["analysis.json write, indent=2"] = best_of(
        repeats,
        lambda: target.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8"),
    )
    split["analysis.json write, no indent"] = best_of(
        repeats, lambda: target.write_text(json.dumps(document) + "\n", encoding="utf-8")
    )
    return split


def main(hours: int = 4392, rows: int = 25) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        csv_path = Path(scratch) / "gauges.csv"
        print(f"{write_csv(csv_path, hours)} rows over {hours} hours")
        stress_end = (hours - 12) * 3600
        out = Path(scratch) / "analysis"
        argv = [
            "analyze",
            str(csv_path),
            "--unit",
            "GB",
            "--stress-end",
            str(stress_end),
            "--rejuvenation-end",
            str(stress_end + 3600),
            "--out",
            str(out),
        ]
        print("unprofiled wall split, best of 3:")
        split = phase_split(csv_path, (float(stress_end), float(stress_end + 3600)), out)
        for phase, seconds in split.items():
            print(f"  {phase:<34} {seconds:6.3f} s")

        stdout = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = agesim_main(argv)
        if code:
            sys.exit(f"agesim analyze exited {code}")
        print(f"agesim analyze unprofiled: {time.perf_counter() - started:.2f} s")
        print(stdout.getvalue(), end="")

        profiler = cProfile.Profile()
        with contextlib.redirect_stdout(io.StringIO()):
            profiler.enable()
            agesim_main(argv)
            profiler.disable()
        pstats.Stats(profiler).sort_stats("tottime").print_stats(rows)


if __name__ == "__main__":
    hours = int(sys.argv[1]) if len(sys.argv) > 1 else 4392
    rows = int(sys.argv[2]) if len(sys.argv) > 2 else 25
    main(hours, rows)

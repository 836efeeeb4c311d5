"""Profile ``agesim analyze`` on a generated gauge CSV under cProfile.

Writes a CSV of four gauges sampled every two minutes over ``hours``
hours (4392 by default: about half a year, 527,040 rows), with numeric
epoch timestamps, a planted drift through the stress phase and a
return to the start level after one hour of rejuvenation.  It then runs
``agesim analyze`` on it once unprofiled and once under cProfile, and
prints the functions that spend the most time in their own code.  The
values come from numpy's seeded generator, so every run reads the same
file.  cProfile adds a cost to every Python call, which inflates the
CSV row loop most; confirm a candidate with the benchmark
(``perfbench/run.py``) with profiling off.

Run with:  python3 demos/profile_analyze.py [hours] [rows]
"""

import contextlib
import cProfile
import io
import pstats
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from agesim.cli import main as agesim_main

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


def main(hours: int = 4392, rows: int = 25) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        csv_path = Path(scratch) / "gauges.csv"
        print(f"{write_csv(csv_path, hours)} rows over {hours} hours")
        stress_end = (hours - 12) * 3600
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
            str(Path(scratch) / "analysis"),
        ]
        stdout = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            agesim_main(argv)
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

"""Time Sen's slope and measure its memory at growing series lengths.

For each length it builds a random walk with a small drift (numpy's
seeded generator, so every run uses the same series), times
``sens_slope`` on it (best of three calls) and measures the peak of
memory allocated during one more call with ``tracemalloc``.  The pair
count grows as n(n-1)/2, so the rate in pairs per second is the figure
to compare between lengths and between versions; the peak shows what
the slopes would cost held at once (8 bytes a pair) against what the
function allocates.

Run with:  python3 demos/profile_sens_slope.py [n ...]
"""

import sys
import time
import tracemalloc

import numpy as np

from agesim.trendstats import sens_slope

LENGTHS = (1_000, 4_380, 10_000, 20_000)


def profile(n: int) -> None:
    values = np.cumsum(np.random.default_rng(n).normal(0.01, 1.0, n))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        slope = sens_slope(values)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        sens_slope(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = n * (n - 1) // 2
    print(
        f"{n:>7,} {pairs:>12,} {best:>9.3f} {pairs / best / 1e6:>11.1f}"
        f" {peak / 2**20:>9.1f} {pairs * 8 / 2**20:>10.1f}  {slope:+.6f}"
    )


def main(lengths=LENGTHS) -> None:
    print(
        f"{'n':>7} {'pairs':>12} {'best s':>9} {'Mpairs/s':>11}"
        f" {'peak MB':>9} {'buffer MB':>10}  slope"
    )
    for n in lengths:
        profile(n)


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or LENGTHS)

"""Inputs at the edges of the chunks bundle CSVs are written in.

``errors.csv`` and the series files are rendered and written
``_CHUNK_ROWS`` rows at a time; these are the row counts on either side
of a chunk edge, and series that cross those edges.
"""

import math

import numpy as np

from agesim.ingest import _CHUNK_ROWS as CHUNK
from agesim.trendstats import IndicatorSeries

#: Row counts on either side of the first two chunk edges.
CHUNK_EDGE_ROWS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


def chunk_sizes(n: int) -> list[int]:
    """The rows of each chunk ``n`` rows are written in; one empty chunk for none."""
    full, rest = divmod(n, CHUNK)
    return ([CHUNK] * full + [rest] * (rest > 0)) or [0]


def chunk_edge_series(n: int) -> dict[str, IndicatorSeries]:
    """Four series of ``n`` rows: ``a`` and ``b`` share one stamp column,
    whole at even rows and fractional at odd ones; ``c1`` and ``c2`` share
    one holding a NaN stamp at the first chunk edge, or at the last row."""
    k = np.arange(n, dtype=np.float64)
    stamps = 2.5 * k
    nan_stamps = stamps.copy()
    if n:
        nan_stamps[min(CHUNK, n - 1)] = math.nan
    return {
        "a": IndicatorSeries("a", "x", stamps, 0.1 * (k // 3)),  # runs of 3 cross each edge
        "b": IndicatorSeries("b", "x", stamps, np.where(k % 2 == 1, -0.0, 0.0)),
        "c1": IndicatorSeries("c1", "x", nan_stamps, k),
        "c2": IndicatorSeries("c2", "x", nan_stamps, np.full(n, 7.25)),
    }

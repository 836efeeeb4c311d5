"""Host-speed sampling, so that timings taken on a shared machine compare.

On a shared virtual machine the same pure-Python code can run at two
speeds about 1.6x apart, switching every fraction of a second to every
minute as neighbours come and go.  A pass's host time then says more
about the neighbours than about agesim.

``SpeedClock`` runs a fixed pure-Python reference loop from a timer
signal every ``INTERVAL_S`` seconds of a pass and records how long each
run of the loop took.  A stretch of host time ``t`` covering samples
``r_1..r_k`` is worth ``t * mean(REFERENCE_S / r_i)`` seconds on a host
that runs the loop in ``REFERENCE_S``: the *scaled* time.  Time spent in
the signal handler is left out of both.  The end-to-end metrics report
scaled times; the raw host times are printed and recorded beside them.

Scaling assumes that the load slowing the reference loop comes from
outside the pass.  A change that makes the pass load the other CPU
itself (a worker pool) slows the loop too, and its scaled times then
flatter it: compare its raw times as well.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Seconds between reference samples.
INTERVAL_S = 0.1

#: Seconds the reference loop takes on a quiet 2-core Xeon VM (the fast
#: state of the machine the baseline was taken on).
REFERENCE_S = 0.0012


def reference_loop() -> int:
    """Fixed pure-Python work: heap pushes and pops plus dict updates."""
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    for i in range(1500):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            counts[j % 97] = counts.get(j % 97, 0) + t
    return len(counts)


class SpeedClock:
    """Timer-signal sampler of host speed; one per process."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, loop seconds)
        self.spent = 0.0
        self.ops: list[tuple[float, float]] = []  # (raw, scaled) per operation

    def _sample(self, _signum=None, _frame=None) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        t0 = time.perf_counter()
        reference_loop()  # warm the loop's code before the first sample
        self.spent += time.perf_counter() - t0
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.samples)

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """(raw, scaled) seconds from ``mark`` to now, handler time excluded."""
        t0, spent0, n0 = mark
        raw = time.perf_counter() - t0 - (self.spent - spent0)
        window = self.samples[n0:] or self.samples[max(0, n0 - 1):n0]
        if not window:  # never started: raw times only
            return raw, raw
        return raw, raw * statistics.fmean(REFERENCE_S / r for _t, r in window)

    def op(self, fn, *args):
        """Call ``fn(*args)`` as one operation and record its times."""
        mark = self.mark()
        try:
            return fn(*args)
        finally:
            self.ops.append(self.since(mark))

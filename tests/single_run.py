"""Run exactly one workload through the engine's stream driver.

``run_stream`` is the engine's only driver.  A test that wants one
workload's outcome runs it on a single slot with the largest finite
deadline and stops the stream from its result hook, so the cloud's
clock ends where that workload finished and nothing else is launched.
"""

import sys

from agesim.workload import run_stream


class _Finished(Exception):
    pass


def run_single(defn, cloud, faults=None, timing=None):
    """The result of one workload launched on ``cloud`` at its clock."""
    # A failed cloud parks the stream until its deadline, which here is
    # the largest float: the clock would jump there and no result would come.
    assert not cloud.failed, "a failed cloud launches no workload"
    results = []

    def stop(result):
        results.append(result)
        raise _Finished

    try:
        run_stream(
            defn, cloud, until=sys.float_info.max, faults=faults, timing=timing, result_hook=stop
        )
    except _Finished:
        pass
    return results[0]

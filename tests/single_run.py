"""Run exactly one workload through the engine's stream driver.

``run_stream`` is the engine's only driver.  A test that wants one
workload's outcome runs it on a single slot with a deadline far past
any workload's end and stops the stream from its result hook, so the
cloud's clock ends where that workload finished and nothing else is
launched.
"""

from agesim.workload import run_stream

#: Virtual seconds from the launch to the deadline: about 32 years, far
#: past the end of any workload, and short enough that the clock still
#: resolves every step there.
_DEADLINE_SECONDS = 1e9


class _Finished(Exception):
    pass


def run_single(defn, cloud, faults=None, timing=None):
    """The result of one workload launched on ``cloud`` at its clock."""
    # A failed cloud parks the stream until its deadline: the clock would
    # jump there and no result would come.
    assert not cloud.failed, "a failed cloud launches no workload"
    results = []

    def stop(result):
        results.append(result)
        raise _Finished

    try:
        run_stream(
            defn,
            cloud,
            until=cloud.clock + _DEADLINE_SECONDS,
            faults=faults,
            timing=timing,
            result_hook=stop,
        )
    except _Finished:
        pass
    return results[0]

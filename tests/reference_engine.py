"""A slow, plainly written reference for ``agesim.workload.run_stream``.

It follows the documented behaviour of ``run_stream``, ``_Execution`` and
``CloudState`` rather than the engine's code, and trades every shortcut
for something that is easy to check by reading:

* every sampling tick is an event, and reads the gauges live right after
  it has landed the warm-up allocation and drawn the warm-up noise;
* the failure predicate is evaluated after every step;
* steps are looked up by name in the definition, and a workload's undo
  stack holds step names;
* fault and noise draws are scalar calls, made as the events happen;
* the number of workloads holding the contention gate is counted afresh
  for each step;
* events go on a plain heap ordered by (time, priority, sequence number).

It touches the cloud only through its ledger primitives (``try_create``,
``try_delete``, ``add_leftover``), the public operations
(``apply_resource_effects`` for steps, ``check_failed``) and, for the
warm-up, the allocation and noise terms themselves.  ``run_stream`` here
takes the engine's arguments and returns the same readings, so the two
can be compared bit for bit.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from agesim.cloud import (
    SECONDS_PER_HOUR,
    AgeingRule,
    WorkloadStepCompleted,
    apply_resource_effects,
    check_failed,
    quota_error_name,
)
from agesim.errors import ConfigError
from agesim.workload import (
    CLOUD_UNAVAILABLE,
    LAUNCH_STAGGER_SECONDS,
    STOP_STREAM,
    StepAction,
    TimingParams,
    WorkloadResult,
    WorkloadStatus,
)

# At one instant, workload events run before ticks, and ticks before hour marks.
WORK, TICK, HOUR = 0, 1, 2


class Workload:
    """One workload in flight."""

    def __init__(self, slot: int, started_at: float):
        self.slot = slot
        self.started_at = started_at
        self.next_step = 0  # position of the next forward step
        self.undo: list[str] = []  # names of the steps that undo what is done
        self.aborted = False
        self.error: str | None = None
        self.failed_step: str | None = None
        self.steps_executed = 0
        self.last_step: str | None = None
        self.gated_held = 0  # live quota-limited entities this workload holds
        self.gated_kept = 0  # quota-limited entities it created and kept
        self.creates_done = 0  # creates that completed without an error
        self.leftover_kinds: list[str] = []


def run_stream(
    defn,
    cloud,
    *,
    until,
    concurrency=1,
    faults=None,
    timing=None,
    tick_seconds=None,
    hour_hook=None,
    error_hook=None,
    result_hook=None,
):
    """Run ``defn`` on ``cloud`` as ``agesim.workload.run_stream`` does,
    and return the same readings: one per tick, read live."""
    timing = timing or TimingParams()
    params = cloud.params
    steps = {spec.name: spec for spec in defn.steps}
    undone_by = {spec.undo_of: spec.name for spec in defn.steps if spec.undo_of}
    for name in faults._per_step if faults is not None else ():
        if name not in steps:
            raise ConfigError(f"fault probabilities name unknown step {name!r}")

    t0 = cloud.clock
    heap: list = []
    sequence = itertools.count()
    in_flight: list[Workload] = []
    columns = ["time", "memory-available", "swap-used"]
    columns += [f"disk-used-{node}" for node in cloud.topology.compute_nodes]
    rows: list[tuple] = []

    def push(t, priority, kind, payload):
        # Nothing at or past the deadline ever runs.
        if t < until:
            heapq.heappush(heap, (t, priority, next(sequence), kind, payload))

    def draw(name):
        return faults.draw(name) if faults is not None else None

    def fail(w, name, error, stranded):
        if w.error is None:
            w.error, w.failed_step = error, name
        w.aborted = True
        return (name, error, stranded)

    def strand(w, kind, undo_position):
        # A faulted delete has popped its undo entry already.
        if undo_position is not None:
            del w.undo[undo_position]
        cloud.add_leftover(kind, from_live=True)
        if kind in cloud.quotas:
            w.gated_held -= 1
        w.leftover_kinds.append(kind.value)

    def strand_held(w, kind):
        # The most recent entity of ``kind`` the workload holds: the undo
        # entry whose undone step created one.
        for position in range(len(w.undo) - 1, -1, -1):
            held = steps[steps[w.undo[position]].undo_of]
            if held.action is StepAction.CREATE and held.kind is kind:
                strand(w, kind, position)
                return True
        return False

    def apply_fault(w, spec, fault):
        if fault.rule is AgeingRule.AGEING:
            kind = fault.leftover_kind
            if strand_held(w, kind):
                return True
            if cloud.add_leftover(kind) is not None:
                return False
            w.leftover_kinds.append(kind.value)
            return True
        if spec.action is StepAction.CREATE:
            if fault.rule is AgeingRule.PHASE_DEPENDENT and w.creates_done > 0:
                strand(w, spec.kind, len(w.undo) - 1)
                return True
            w.undo.pop()
            cloud.try_delete(spec.kind)
            if spec.kind in cloud.quotas:
                w.gated_held -= 1
                w.gated_kept -= 1
            return False
        return (
            fault.rule is AgeingRule.PHASE_DEPENDENT
            and spec.kind is not None
            and strand_held(w, spec.kind)
        )

    def run_step(w, t):
        unwinding = w.aborted
        if unwinding:
            name = w.undo.pop()
        else:
            name = defn.steps[w.next_step].name
            w.next_step += 1
            if steps[name].undo_of is not None:
                assert w.undo.pop() == name
        spec = steps[name]
        kind = spec.kind
        error = None
        if spec.action is StepAction.CREATE:
            if cloud.try_create(kind) is not None:
                error = fail(w, name, quota_error_name(kind), False)
            else:
                w.undo.append(undone_by[name])
                if kind in cloud.quotas:
                    w.gated_held += 1
                    w.gated_kept += 1
                fault = draw(name)
                if fault is not None:
                    error = fail(w, name, fault.name, apply_fault(w, spec, fault))
                else:
                    w.creates_done += 1
        elif spec.action is StepAction.DELETE:
            fault = draw(name)
            if fault is not None:
                strand(w, kind, None)
                error = fail(w, name, fault.name, True)
            else:
                cloud.try_delete(kind)
                if kind in cloud.quotas:
                    w.gated_held -= 1
        else:
            fault = draw(name)
            if fault is not None:
                stranded = False if unwinding else apply_fault(w, spec, fault)
                error = fail(w, name, fault.name, stranded)
            elif name in undone_by and not unwinding:
                w.undo.append(undone_by[name])
        w.steps_executed += 1
        w.last_step = name
        if error is None and name in params.cache_depositing_steps:
            apply_resource_effects(cloud, WorkloadStepCompleted(name))
        holders = sum(1 for other in in_flight if other.gated_held > 0)
        ageing = 1.0 + params.ageing_rate * cloud.ageing_units
        contention = max(1.0, holders / params.contention_capacity)
        duration = timing.base_for(name) * ageing * contention
        if error is not None and error_hook is not None:
            error_hook(t, *error)
        check_failed(cloud)
        finished = not w.undo if w.aborted else w.next_step >= len(defn.steps)
        push(t + duration, WORK, "end" if finished else "step", w)

    def end(w, t):
        in_flight.remove(w)
        if w.steps_executed > 0:
            finish = WorkloadStepCompleted(
                w.last_step, workload_finished=True, did_real_work=w.gated_kept > 0
            )
            apply_resource_effects(cloud, finish)
        if w.error is None:
            status = WorkloadStatus.SUCCESS
        elif w.leftover_kinds:
            status = WorkloadStatus.AGEING_FAILURE
        else:
            status = WorkloadStatus.NON_AGEING_FAILURE
        result = WorkloadResult(
            w.started_at,
            t,
            status,
            w.error,
            w.failed_step,
            len(w.leftover_kinds),
            tuple(w.leftover_kinds),
            w.steps_executed,
        )
        if result_hook is not None:
            result_hook(result)
        push(t, WORK, "launch", w.slot)

    def tick(t):
        # The warm-up window: a pending allocation lands at its first
        # tick, and every tick in it draws the noise on the memory reading.
        start = cloud._warmup_start
        if start <= t < start + SECONDS_PER_HOUR:
            if cloud._warmup_alloc_pending:
                cloud._consume(params.warmup_alloc_gb)
                cloud._warmup_alloc_pending = False
            amplitude = params.warmup_noise_gb
            cloud._noise_gb = (
                float(cloud._noise_rng.uniform(-amplitude, amplitude)) if amplitude else 0.0
            )
        else:
            cloud._noise_gb = 0.0
        disks = [cloud.disk_used_gb(node) for node in cloud.topology.compute_nodes]
        rows.append((t, *cloud.control_memory_gb(), *disks))

    def readings():
        if tick_seconds is None:
            return {}
        values = list(zip(*rows)) if rows else [()] * len(columns)
        return {name: np.array(v, dtype=np.float64) for name, v in zip(columns, values)}

    for slot in range(concurrency):
        push(t0 + slot * LAUNCH_STAGGER_SECONDS, WORK, "launch", slot)
    if tick_seconds is not None:
        push(t0, TICK, "tick", 0)
    if hour_hook is not None:
        push(t0 + SECONDS_PER_HOUR, HOUR, "hour", 1)

    while heap:
        t, _, _, kind, payload = heapq.heappop(heap)
        cloud.clock = t
        if kind == "launch":
            if not cloud.failed:  # a failed cloud parks the slot
                w = Workload(payload, t)
                in_flight.append(w)
                run_step(w, t)
        elif kind == "step":
            w = payload
            if not cloud.failed:
                run_step(w, t)
            else:
                # Cut short by the failed cloud, at its next forward step.
                if w.error is None:
                    error = fail(w, defn.steps[w.next_step].name, CLOUD_UNAVAILABLE, False)
                    if error_hook is not None:
                        error_hook(t, *error)
                end(w, t)
        elif kind == "end":
            end(payload, t)
        elif kind == "tick":
            tick(t)
            push(t0 + (payload + 1) * tick_seconds, TICK, "tick", payload + 1)
        else:
            if hour_hook(t) is STOP_STREAM:
                return readings()
            push(t0 + (payload + 1) * SECONDS_PER_HOUR, HOUR, "hour", payload + 1)
    cloud.clock = until
    return readings()

"""Workload engine: multi-step provisioning runs against the simulated cloud.

A workload is an ordered list of steps that create entities, operate on
them and delete them again.  The default definition is a 29-step tour
through identity, network, image, compute and volume services whose
cleanup tail undoes every acquisition in strict reverse (LIFO) order.

Execution semantics of the engine, whose one driver is ``run_stream``:

* Create steps check quota first; a quota rejection is a domain error
  recorded without consuming a fault draw.
* After the quota gate, an injected error may strike any step.  Ageing
  errors strand an entity as a leftover (a fresh one, when the workload
  holds none of that kind, only while its quota has room);
  phase-dependent errors strand the entity the step was touching,
  unless nothing has been provisioned yet; non-ageing errors leave no
  trace beyond the failure record.
* A faulted delete step always strands the entity it was deleting.
* The first error aborts forward progress and unwinds the outstanding
  cleanup stack; unwind steps run (and may fault) like any others.

A workload is classified ``success`` when no error occurred,
``ageing-failure`` when it stranded at least one leftover, and
``non-ageing-failure`` otherwise.

Step durations model contention and ageing::

    duration = base_seconds * ageing_multiplier * max(1, holders / contention_capacity)

where ``holders`` counts in-flight workloads holding at least one live
quota-limited entity.  Workloads queueing at the quota gate therefore
slow down with the crowd but do not add to it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .cloud import (
    AgeingRule,
    CloudState,
    EntityKind,
    FaultModel,
    IntervalElapsed,
    WorkloadStepCompleted,
    apply_resource_effects,
    check_failed,
    in_warmup_window,
    quota_error_name,
)
from .errors import ConfigError
from .trendstats import SECONDS_PER_HOUR

#: Error name recorded for a workload cut short by a cloud failing under it.
CLOUD_UNAVAILABLE = "cloud-unavailable"

#: Sentinel an hour hook may return to stop a stream at that hour mark.
STOP_STREAM = object()

#: Virtual seconds between the launches of successive stream slots.
LAUNCH_STAGGER_SECONDS = 0.001

#: Most slots one stream may run.  ``run_stream`` schedules the launch of
#: every slot before its first event, so an unbounded count would hang
#: the run; the default quotas admit ten workloads at a time, and the
#: default matrix runs at most 64 slots.
MAX_CONCURRENCY = 10_000


class StepAction(Enum):
    CREATE = "create"
    OPERATE = "operate"
    DELETE = "delete"


# The engine reads enum members through these module constants, or
# through locals bound from them: loading a member by attribute from its
# class costs several times as much as a plain name.
_CREATE, _DELETE = StepAction.CREATE, StepAction.DELETE
_AGEING, _PHASE_DEPENDENT = AgeingRule.AGEING, AgeingRule.PHASE_DEPENDENT


@dataclass(frozen=True)
class StepSpec:
    """One step of a workload definition.

    ``kind`` names the entity kind the step creates, deletes or acts
    upon; a create or delete step must name one, and an operate step
    leaves it out for a pure control-plane call such as a role grant.
    ``undo_of`` marks cleanup steps with the step they reverse; a create
    step reverses nothing.
    """

    name: str
    action: StepAction
    kind: EntityKind | None = None
    undo_of: str | None = None

    def __post_init__(self):
        if self.action is not StepAction.OPERATE and self.kind is None:
            raise ConfigError(f"{self.action.value} step {self.name!r} names no entity kind")
        if self.action is StepAction.CREATE and self.undo_of is not None:
            raise ConfigError(f"create step {self.name!r} cannot undo a step")
        if self.action is StepAction.DELETE and self.undo_of is None:
            raise ConfigError(f"delete step {self.name!r} must undo a create step")


def _steps() -> tuple[StepSpec, ...]:
    create = StepAction.CREATE
    operate = StepAction.OPERATE
    delete = StepAction.DELETE
    K = EntityKind
    return (
        StepSpec("create user", create, K.USER),
        StepSpec("create role", create, K.ROLE),
        StepSpec("add role", operate),
        StepSpec("create security group", create, K.SECURITY_GROUP),
        StepSpec("create flavor", create, K.FLAVOR),
        StepSpec("create image", create, K.IMAGE),
        StepSpec("create network", create, K.NETWORK),
        StepSpec("create subnet", create, K.SUBNET),
        StepSpec("create port", create, K.PORT),
        StepSpec("create router", create, K.ROUTER),
        StepSpec("boot server", create, K.SERVER),
        StepSpec("create volume", create, K.VOLUME),
        StepSpec("attach volume", operate, K.VOLUME),
        StepSpec("rebuild server", operate, K.SERVER),
        StepSpec("pause server", operate, K.SERVER),
        StepSpec("unpause server", operate, K.SERVER, undo_of="pause server"),
        StepSpec("detach volume", operate, K.VOLUME, undo_of="attach volume"),
        StepSpec("delete volume", delete, K.VOLUME, undo_of="create volume"),
        StepSpec("delete server", delete, K.SERVER, undo_of="boot server"),
        StepSpec("delete router", delete, K.ROUTER, undo_of="create router"),
        StepSpec("delete port", delete, K.PORT, undo_of="create port"),
        StepSpec("delete subnet", delete, K.SUBNET, undo_of="create subnet"),
        StepSpec("delete network", delete, K.NETWORK, undo_of="create network"),
        StepSpec("delete image", delete, K.IMAGE, undo_of="create image"),
        StepSpec("delete flavor", delete, K.FLAVOR, undo_of="create flavor"),
        StepSpec(
            "delete security group", delete, K.SECURITY_GROUP, undo_of="create security group"
        ),
        StepSpec("revoke role", operate, undo_of="add role"),
        StepSpec("delete role", delete, K.ROLE, undo_of="create role"),
        StepSpec("delete user", delete, K.USER, undo_of="create user"),
    )


DEFAULT_STEPS: tuple[StepSpec, ...] = _steps()


@dataclass(frozen=True)
class TimingParams:
    """Base service times in seconds.

    Most control-plane calls share one base time; the slow paths (server
    boot, volume creation) carry overrides.  No base time may be shorter
    than ``LAUNCH_STAGGER_SECONDS``: a step so short that ``t + duration
    == t`` would freeze the virtual clock short of its deadline.
    """

    default_seconds: float = 2.0
    step_seconds: Mapping[str, float] = field(
        default_factory=lambda: {"boot server": 10.0, "create volume": 5.0}
    )

    def __post_init__(self):
        floor = LAUNCH_STAGGER_SECONDS
        if not self.default_seconds >= floor:
            raise ConfigError(f"default_seconds must be at least {floor} s")
        for name, seconds in self.step_seconds.items():
            if not seconds >= floor:
                raise ConfigError(f"step time for {name!r} must be at least {floor} s")

    def base_for(self, step_name: str) -> float:
        return self.step_seconds.get(step_name, self.default_seconds)


@dataclass(frozen=True)
class WorkloadDefinition:
    """An ordered, validated step list with a LIFO cleanup tail."""

    steps: tuple[StepSpec, ...]

    def __post_init__(self):
        if not self.steps:
            raise ConfigError("a workload needs at least one step")
        names = [s.name for s in self.steps]
        if len(set(names)) != len(names):
            raise ConfigError("step names must be unique")
        index = {name: i for i, name in enumerate(names)}
        undone: dict[str, int] = {}
        for i, step in enumerate(self.steps):
            if step.undo_of is not None:
                target = index.get(step.undo_of)
                if target is None or target >= i:
                    raise ConfigError(
                        f"step {step.name!r} undoes {step.undo_of!r} which does not precede it"
                    )
                if step.undo_of in undone:
                    raise ConfigError(f"step {step.undo_of!r} is undone twice")
                undone[step.undo_of] = i
                doer = self.steps[target]
                if doer.action is StepAction.CREATE and step.action is not StepAction.DELETE:
                    raise ConfigError(
                        f"step {step.name!r} undoes create step {doer.name!r}"
                        " but is not a delete step"
                    )
                # An operate step names a kind too, but creates none.
                made = doer.kind if doer.action is StepAction.CREATE else None
                if step.action is StepAction.DELETE and made is not step.kind:
                    raise ConfigError(
                        f"step {step.name!r} deletes {step.kind} but "
                        f"{doer.name!r} creates {made}"
                    )
        for step in self.steps:
            if step.action is StepAction.CREATE and step.name not in undone:
                raise ConfigError(f"create step {step.name!r} has no delete step")
        # Cleanup must be LIFO: scanning undo steps in order, the steps
        # they reverse must appear in strictly decreasing position.
        targets = [index[s.undo_of] for s in self.steps if s.undo_of is not None]
        if any(a <= b for a, b in zip(targets, targets[1:])):
            raise ConfigError("cleanup steps do not reverse acquisitions in LIFO order")


class WorkloadStatus(Enum):
    SUCCESS = "success"
    AGEING_FAILURE = "ageing-failure"
    NON_AGEING_FAILURE = "non-ageing-failure"

    # Members are singletons, so identity hashing is exact; it spares the
    # scenario layer's per-workload tallies Enum.__hash__.
    __hash__ = object.__hash__


_SUCCESS = WorkloadStatus.SUCCESS
_AGEING_FAILURE = WorkloadStatus.AGEING_FAILURE
_NON_AGEING_FAILURE = WorkloadStatus.NON_AGEING_FAILURE


class WorkloadResult(NamedTuple):
    """Outcome of one workload run."""

    started_at: float
    ended_at: float
    status: WorkloadStatus
    error: str | None
    failed_step: str | None
    leftovers_created: int
    leftover_kinds: tuple[str, ...]
    steps_executed: int

    @property
    def duration(self) -> float:
        return self.ended_at - self.started_at


def check_concurrency(concurrency: int) -> None:
    """Raise ``ConfigError`` unless ``concurrency`` lies in [1, MAX_CONCURRENCY]."""
    if not 1 <= concurrency <= MAX_CONCURRENCY:
        raise ConfigError(
            f"concurrency must lie in [1, {MAX_CONCURRENCY}], got {concurrency}"
        )


def check_deadline(start: float, until: float, shortest_step: float) -> None:
    """Raise ``ConfigError`` unless a stream from ``start`` can reach ``until``.

    The deadline must be finite and not before ``start``, and a step of
    ``shortest_step`` seconds must be no shorter than the clock's
    resolution at the deadline (``math.ulp(until)``): a shorter one gives
    ``t + duration == t`` and freezes the clock short of it.
    """
    if not math.isfinite(until):
        raise ConfigError(f"stream deadline must be finite, got {until!r}")
    if until < start:
        raise ConfigError("stream deadline precedes the cloud clock")
    if start < until and shortest_step < math.ulp(until):
        raise ConfigError(
            f"a {shortest_step} s step cannot advance a clock at {until} s: "
            f"its resolution there is {math.ulp(until)} s"
        )


@dataclass(slots=True, eq=False)
class _PlanStep:
    """One workload step resolved against a run's cloud, timing and faults.

    ``kind`` is the entity kind the step creates, deletes or operates on;
    ``undo`` is the record of the step that undoes this one, ``undoes``
    whether this step undoes an earlier one, and ``holds`` the kind of
    entity an undo-stack entry of this step keeps alive (what the step
    it undoes created, if anything).  ``draws`` is whether the fault
    model has probabilities for the step, so that a draw is worth a call.
    ``completed`` is the step's completion event and ``finished`` the
    pair of events that end a workload on this step, indexed by whether
    the workload did real work.  ``rejected`` is the error event of a
    quota rejection, ``(name, quota error name, False)``, for a
    quota-gated step and None otherwise.  All three events are built once
    per run.
    """

    name: str
    action: StepAction
    kind: EntityKind | None
    gated: bool
    base_seconds: float
    deposits_cache: bool
    draws: bool
    undoes: bool
    holds: EntityKind | None
    rejected: tuple[str, str, bool] | None
    completed: WorkloadStepCompleted
    finished: tuple[WorkloadStepCompleted, WorkloadStepCompleted]
    undo: _PlanStep | None = None


def _plan(
    defn: WorkloadDefinition,
    cloud: CloudState,
    timing: TimingParams,
    faults: FaultModel | None,
) -> tuple[_PlanStep, ...]:
    """Resolve every step of ``defn`` once for a run on ``cloud``; a fault
    table giving probabilities to a step ``defn`` lacks is a ``ConfigError``."""
    per_step = faults._per_step if faults is not None else {}
    by_name: dict[str, _PlanStep] = {}
    for spec in defn.steps:
        name, action, kind = spec.name, spec.action, spec.kind
        gated = kind in cloud.quotas
        # An undo step names an earlier step (``WorkloadDefinition``
        # checks it), so that step's record already exists.
        done = by_name[spec.undo_of] if spec.undo_of is not None else None
        step = by_name[name] = _PlanStep(
            name=name,
            action=action,
            kind=kind,
            gated=gated,
            base_seconds=timing.base_for(name),
            deposits_cache=name in cloud.params.cache_depositing_steps,
            draws=name in per_step,
            undoes=done is not None,
            holds=done.kind if done is not None and done.action is _CREATE else None,
            rejected=(name, quota_error_name(kind), False) if gated else None,
            completed=WorkloadStepCompleted(name),
            finished=tuple(
                WorkloadStepCompleted(name, workload_finished=True, did_real_work=real)
                for real in (False, True)
            ),
        )
        if done is not None:
            done.undo = step
    for name in per_step:
        if name not in by_name:
            raise ConfigError(f"fault probabilities name unknown step {name!r}")
    return tuple(by_name.values())


@dataclass(slots=True, eq=False)
class _Execution:
    """The state of the workload a stream slot is running.

    ``run_stream`` executes the steps itself, inline in its event loop,
    and settles a finished workload there too; it reads and writes these
    fields directly, and the methods here are the rare paths it calls
    into (a fault, a stranded entity, a cloud failing under a workload).

    A slot has one record for the whole ``run_stream`` call, built for
    its first launch; each later launch on the slot resets it in place
    for the next workload: ``started_at``, ``index``, ``steps_executed``,
    ``gated_creates``, ``completed_creates``, ``error``, ``failed_step``
    and ``leftover_kinds``.  ``stack`` and ``gated_live`` need no reset,
    because a workload that hands its slot on leaves the stack empty and
    ``gated_live`` at 0: its plan undoes every entry it pushes, and a
    stack entry holds every live quota-limited entity the workload has.
    A slot parked by a failed cloud keeps its record as its last workload
    left it.

    ``index`` is the position of the next forward step in the plan.
    ``stack`` holds the ``_PlanStep`` records of the steps that will undo
    what the workload has done so far, most recent last.  ``error`` is
    the workload's first error: once it is set, each step pops ``stack``
    and runs as an unwind step, and the workload finishes when the stack
    is empty.  ``gated_live`` counts the live quota-limited entities the
    workload holds; it holds the contention gate while that is positive.
    ``last_step`` is the record of the step executed most recently; a
    workload runs its first step in the event that launches it, so a
    finished workload always has one.  ``leftover_kinds`` is a tuple,
    grown by each stranding, that a result holds as it is.
    """

    cloud: CloudState
    started_at: float = field(default=0.0, init=False)
    index: int = field(default=0, init=False)
    stack: list[_PlanStep] = field(default_factory=list, init=False)
    error: str | None = field(default=None, init=False)
    failed_step: str | None = field(default=None, init=False)
    steps_executed: int = field(default=0, init=False)
    gated_live: int = field(default=0, init=False)
    gated_creates: int = field(default=0, init=False)
    completed_creates: int = field(default=0, init=False)
    leftover_kinds: tuple[str, ...] = field(default=(), init=False)
    last_step: _PlanStep | None = field(default=None, init=False)

    # -- helpers ------------------------------------------------------------

    def _fail(self, step_name: str, error_name: str, stranded: bool) -> tuple[str, str, bool]:
        """Record the workload's first error, which turns it to unwinding,
        and return the error event."""
        if self.error is None:
            self.error = error_name
            self.failed_step = step_name
        return (step_name, error_name, stranded)

    def _strand(self, kind: EntityKind, entry_index: int | None) -> None:
        """Move a live entity into the leftover ledger.

        ``entry_index`` removes the matching undo entry so the unwind
        will not try to delete what is now stranded; a faulted delete
        step, whose entry is already popped, passes None.
        """
        if entry_index is not None:
            del self.stack[entry_index]
        self.cloud.add_leftover(kind, from_live=True)
        if kind in self.cloud.quotas:
            self.gated_live -= 1
        self.leftover_kinds += (kind.value,)

    def _strand_held(self, kind: EntityKind) -> bool:
        """Strand the most recent entity of ``kind`` the workload holds, if any."""
        stack = self.stack
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].holds is kind:
                self._strand(kind, i)
                return True
        return False

    def _apply_fault(self, step: _PlanStep, spec) -> bool:
        """Resolve an injected error on a forward create or operate step;
        returns True if a leftover was stranded."""
        if spec.rule is _AGEING:
            # With no entity of that kind in hand, the error still strands
            # a fresh one in error state, if its quota has room for one.
            kind = spec.leftover_kind
            if self._strand_held(kind):
                return True
            if self.cloud.add_leftover(kind) is not None:
                return False
            self.leftover_kinds += (kind.value,)
            return True
        if step.action is _CREATE:
            # The entity being made is the top of the stack.  A phase-
            # dependent error strands it once the workload has provisioned
            # something (before that the call never reached the node);
            # otherwise the creation is rolled back.
            if spec.rule is _PHASE_DEPENDENT and self.completed_creates > 0:
                self._strand(step.kind, -1)
                return True
            self.stack.pop()
            self.cloud.try_delete(step.kind)
            if step.gated:
                self.gated_live -= 1
                self.gated_creates -= 1
            return False
        return (
            spec.rule is _PHASE_DEPENDENT
            and step.kind is not None
            and self._strand_held(step.kind)
        )


def _first_tick(t0: float, interval: float, t: float) -> int:
    """The least k >= 0 with ``t0 + k * interval >= t``, in the float
    arithmetic that places the engine's ticks."""
    if t <= t0:
        return 0
    k = math.ceil((t - t0) / interval)
    while k > 0 and t0 + (k - 1) * interval >= t:
        k -= 1
    while t0 + k * interval < t:
        k += 1
    return k


def run_stream(
    defn: WorkloadDefinition,
    cloud: CloudState,
    *,
    until: float,
    concurrency: int = 1,
    faults: FaultModel | None = None,
    timing: TimingParams | None = None,
    tick_seconds: float | None = None,
    hour_hook: Callable[[float], object] | None = None,
    error_hook: Callable[[float, str, str, bool], None] | None = None,
    result_hook: Callable[[WorkloadResult], None] | None = None,
) -> dict[str, np.ndarray]:
    """Run back-to-back workloads on ``concurrency`` slots until a deadline,
    and return the gauges sampled every ``tick_seconds``.

    Events are processed in virtual-time order; at equal times workload
    events run before interval ticks, and ticks before hour marks.  With
    ``tick_seconds`` set, tick k falls at ``t0 + k * tick_seconds`` for
    every k that puts it before ``until``, or at or before the hour mark
    that stopped the stream, and the result holds one reading per tick as
    float64 arrays: ``time``, then ``memory-available``, ``swap-used``
    and ``disk-used-{node}`` for each compute node (``CloudState``'s
    ``_readings``).  A tick reads the gauges as every workload event at
    or before it left them, and nothing an hour hook did at the same
    instant.  Without ``tick_seconds`` the result is empty.  ``hour_hook``
    runs at whole-hour marks and may return ``STOP_STREAM`` to end the
    run early (policy decisions live in the caller).  A stream runs on
    one deployment, sampled or not: ``rejuvenate`` refuses while it runs,
    so no hook may redeploy the cloud.  Each finished workload reaches
    the caller only through ``result_hook``; workloads still in flight at
    the deadline are discarded unrecorded.  Once the cloud has failed, a
    workload due to run another step is cut short there with
    ``CLOUD_UNAVAILABLE``, and every slot parks until the deadline.
    ``until`` must be finite and not before ``cloud.clock``, and
    ``tick_seconds``, when given, positive and finite.  A deadline so late
    that the shortest step base time is below the clock's resolution
    there (``math.ulp(until)``) would freeze the clock short of it.  Each
    of these is a ``ConfigError`` (see ``check_deadline``).

    A tick is a timestamp, not an event.  The cloud logs every change to
    its gauges in a journal (see ``CloudState``), opened for this call
    and closed when it returns or raises; a sampled stream gathers every
    tick's readings, warm-up noise included, from it after the loop.
    The one tick that lands a pending warm-up allocation, the first in
    the window, is an event, through ``apply_resource_effects``, queued
    once at the start.  What an hour hook logs is restamped just past its
    mark (``CloudState._call_after_readings``), so that a tick at the
    mark does not see it.

    After a step the failure predicate is evaluated, through
    ``check_failed``, only while ``cloud.failure_inputs_changed`` is set:
    by the step itself, or since the last evaluation by a finished
    workload's leak, the warm-up allocation or a hook (see
    ``CloudState``).  While the flag is clear an evaluation would change
    nothing, so ``failed`` and ``failed_at`` come out as if the predicate
    were evaluated after every step.

    The definition is resolved once into a step plan (``_plan``, which
    also checks the fault table's step names) shared by every workload of
    the call, so a step costs a read of its precomputed record rather
    than lookups by name.  Each slot's workloads keep their state in one
    ``_Execution`` for the whole call, reset in place as the slot launches
    each workload, but a step runs inline in the event loop, through one
    body for forward and unwind steps: unwinding picks the step from the
    undo stack rather than the plan, pushes no undo entry and strands
    nothing on a faulted operate.  A step makes no Python call beyond the
    ledger calls it needs (``try_create``, ``try_delete``), a fault draw
    where the step has configured probabilities, ``_Execution._fail`` on a
    fault or a failed cloud (and ``_apply_fault`` or ``_strand`` on a
    fault), a cache deposit through ``apply_resource_effects``,
    ``check_failed`` when its inputs changed, and the hooks.  A quota
    rejection, the commonest error under overload, makes none beyond
    ``try_create`` and ``error_hook``: the step records it in place, with
    the error event its plan record holds.  Enum members, the plan, its
    length, the two ledger methods and a table of the contention factor
    by gate count (the formula above, so the same bits) are bound once.
    Concurrency is capped at ``MAX_CONCURRENCY``, checked before any
    launch is scheduled.  Hour marks are scheduled lazily: the k-th falls
    at ``t0 + k * SECONDS_PER_HOUR``, and each queues its successor as it
    fires.  Slot k launches at ``t0 + k * LAUNCH_STAGGER_SECONDS``.

    Events are a slot's ``launch``, whose payload is the slot's record,
    a workload's next ``step``, its ``finish`` when its last step ends,
    an allocation ``tick`` and an ``hour`` mark.  A finish lands the
    workload's last completion event through ``apply_resource_effects``
    and, for ``result_hook``, builds its ``WorkloadResult`` inline.  It
    hands the slot on in the same event by running the next workload's
    first step, unless a work event already waits at that instant: a
    launch pushed then would run after it, so the launch is queued
    behind it.  A failed cloud parks the slot.  Each event costs one heap
    operation.  The first event is popped before the loop; an event that
    schedules a successor (a step, a finish's in-place launch, a launch
    queued behind a tie, an hour mark whose successor falls before
    ``until``) takes the next event with ``heappushpop``, and one that
    schedules nothing (a launch or finish on a failed cloud, an
    allocation tick, an hour mark whose successor would fall at or past
    ``until``) with ``heappop``.  ``heappushpop`` is "push, then pop the
    smallest", and events are tuples ordered by (time, priority,
    sequence number) with unique sequence numbers, so events run in
    exactly that order.  The loop ends at the first event at or past
    ``until``, when the heap is empty, or at an hour mark whose hook
    returned ``STOP_STREAM``; only that last exit leaves ``cloud.clock``
    short of ``until``.
    """
    check_concurrency(concurrency)
    if tick_seconds is not None and not (0.0 < tick_seconds < math.inf):
        raise ConfigError(f"tick_seconds must be positive and finite, got {tick_seconds!r}")
    timing = timing or TimingParams()
    t0 = cloud.clock
    check_deadline(t0, until, min(timing.base_for(step.name) for step in defn.steps))

    plan = _plan(defn, cloud, timing, faults)
    journal = cloud._journal = cloud._new_journal()
    try:
        heap: list[tuple[float, int, int, str, object]] = []
        # Bound per call rather than at import, so a patched heapq is seen.
        heappush = heapq.heappush
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        seq = itertools.count().__next__
        # Per-step reads, bound once per call.  ``check_failed`` and
        # ``apply_resource_effects`` are looked up as module globals at each
        # call instead, so a patched module function is seen.
        CREATE, DELETE = _CREATE, _DELETE
        # A C call, where ``WorkloadResult(...)`` runs a Python ``__new__``.
        new_result = tuple.__new__
        n_steps = len(plan)
        capacity = cloud.params.contention_capacity
        contention_of = [max(g / capacity, 1.0) for g in range(concurrency + 1)]
        try_create = cloud.try_create
        try_delete = cloud.try_delete
        PRIO_WORK, PRIO_TICK, PRIO_HOUR = 0, 1, 2

        gate_count = 0

        for slot in range(concurrency):
            t_launch = t0 + slot * LAUNCH_STAGGER_SECONDS
            if t_launch < until:
                heappush(heap, (t_launch, PRIO_WORK, seq(), "launch", _Execution(cloud)))
        # The first tick in the warm-up window lands its pending allocation,
        # if that tick falls before the deadline.
        if tick_seconds is not None and cloud._warmup_alloc_pending:
            start = cloud._warmup_start
            t = t0 + _first_tick(t0, tick_seconds, start) * tick_seconds
            if t < until and in_warmup_window(start, t):
                heappush(heap, (t, PRIO_TICK, seq(), "tick", None))
        if hour_hook is not None and (t := t0 + SECONDS_PER_HOUR) < until:
            heappush(heap, (t, PRIO_HOUR, seq(), "hour", 1))

        stopped_at = None
        event = heappop(heap) if heap else None
        while event is not None:
            t, prio, _seq, kind, payload = event
            if t >= until:
                break
            cloud.clock = t
            execution = payload
            if kind != "step" or cloud.failed:
                if kind == "tick":
                    apply_resource_effects(cloud, IntervalElapsed())
                    event = heappop(heap) if heap else None
                    continue
                if kind == "hour":
                    # Run the hook after the readings at the mark; queue mark k + 1.
                    if cloud._call_after_readings(hour_hook, t) is STOP_STREAM:
                        stopped_at = t
                        break
                    k = payload + 1
                    if (t_next := t0 + k * SECONDS_PER_HOUR) < until:
                        event = heappushpop(heap, (t_next, prio, seq(), kind, k))
                    else:
                        event = heappop(heap) if heap else None
                    continue
                if kind == "launch":
                    if cloud.failed:
                        # A failed cloud parks the slot.
                        event = heappop(heap) if heap else None
                        continue
                else:
                    # The workload ends (cut short at its next forward step,
                    # unless it had failed, if the cloud failed under it):
                    # release its gate, settle it, report it, and hand its
                    # slot on, behind any work event waiting at this instant.
                    if kind == "step" and execution.error is None:
                        name = plan[execution.index].name
                        error = execution._fail(name, CLOUD_UNAVAILABLE, False)
                        if error_hook is not None:
                            error_hook(t, *error)
                    if execution.gated_live > 0:
                        gate_count -= 1
                    apply_resource_effects(
                        cloud, execution.last_step.finished[execution.gated_creates > 0]
                    )
                    if result_hook is not None:
                        leftovers = execution.leftover_kinds
                        if execution.error is None:
                            status = _SUCCESS
                        elif leftovers:
                            status = _AGEING_FAILURE
                        else:
                            status = _NON_AGEING_FAILURE
                        fields = (execution.started_at, t, status, execution.error,
                                  execution.failed_step, len(leftovers), leftovers,
                                  execution.steps_executed)
                        result_hook(new_result(WorkloadResult, fields))
                    if cloud.failed:
                        event = heappop(heap) if heap else None
                        continue
                    # Only a work event at t sorts below (t, PRIO_TICK).
                    if heap and heap[0] < (t, PRIO_TICK):
                        event = heappushpop(heap, (t, PRIO_WORK, seq(), "launch", execution))
                        continue
                # The slot's record starts its next workload.
                execution.started_at = t
                execution.index = execution.steps_executed = 0
                execution.gated_creates = execution.completed_creates = 0
                execution.error = execution.failed_step = None
                execution.leftover_kinds = ()
            # One step.  The gate count excludes this workload while the
            # step runs, and counts it again if it holds the gate once the
            # step has resolved.
            if execution.gated_live > 0:
                gate_count -= 1
            error = None
            stack = execution.stack
            # A workload with an error unwinds the top of its stack;
            # otherwise an undo step in the plan pops its own entry.
            unwinding = execution.error is not None
            if unwinding:
                step = stack.pop()
            else:
                step = plan[execution.index]
                execution.index += 1
                if step.undoes:
                    entry = stack.pop()
                    assert entry is step, "cleanup order diverged from the stack"
            action = step.action
            if action is CREATE:  # only ever a forward step
                if try_create(step.kind) is not None:
                    # A quota rejection, on a forward step: the first error.
                    error = step.rejected
                    execution.error = error[1]
                    execution.failed_step = step.name
                else:
                    stack.append(step.undo)
                    if step.gated:
                        execution.gated_live += 1
                        execution.gated_creates += 1
                    if step.draws and (spec := faults.draw(step.name)) is not None:
                        error = execution._fail(
                            step.name, spec.name, execution._apply_fault(step, spec)
                        )
                    else:
                        execution.completed_creates += 1
            elif action is DELETE:
                # A fault strands the entity being deleted.
                if step.draws and (spec := faults.draw(step.name)) is not None:
                    execution._strand(step.kind, None)
                    error = execution._fail(step.name, spec.name, True)
                else:
                    try_delete(step.kind)
                    if step.gated:
                        execution.gated_live -= 1
            elif step.draws and (spec := faults.draw(step.name)) is not None:
                # A faulted operate strands nothing when unwinding.
                stranded = not unwinding and execution._apply_fault(step, spec)
                error = execution._fail(step.name, spec.name, stranded)
            elif step.undo is not None and not unwinding:
                stack.append(step.undo)
            # An error in this step turns the workload to unwinding; it
            # then finishes once its unwind stack is empty.
            finished = not stack if execution.error is not None else execution.index >= n_steps
            execution.steps_executed += 1
            execution.last_step = step
            if error is None and step.deposits_cache:
                apply_resource_effects(cloud, step.completed)
            if execution.gated_live > 0:
                gate_count += 1
            duration = step.base_seconds * cloud.ageing_multiplier * contention_of[gate_count]
            if error is not None and error_hook is not None:
                error_hook(t, *error)
            if cloud.failure_inputs_changed:
                check_failed(cloud)
            event = heappushpop(
                heap, (t + duration, PRIO_WORK, seq(), "finish" if finished else "step", execution)
            )
        if stopped_at is None:
            cloud.clock = until
    finally:
        cloud._journal = None
    if tick_seconds is None:
        return {}
    end = until if stopped_at is None else math.nextafter(stopped_at, math.inf)
    ticks = np.arange(_first_tick(t0, tick_seconds, end))
    return cloud._readings(t0 + ticks * tick_seconds, journal)

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
from typing import Callable, Iterable, Mapping

from .cloud import (
    SECONDS_PER_HOUR,
    AgeingRule,
    CloudState,
    EntityKind,
    FaultModel,
    IntervalElapsed,
    WorkloadStepCompleted,
    apply_resource_effects,
    check_failed,
    quota_error_name,
)
from .errors import ConfigError

#: Error name recorded for a workload cut short by a cloud failing under it.
CLOUD_UNAVAILABLE = "cloud-unavailable"

#: Sentinel an hour hook may return to stop a stream at that hour mark.
STOP_STREAM = object()

#: Virtual seconds between the launches of successive stream slots.
LAUNCH_STAGGER_SECONDS = 0.001


class StepAction(Enum):
    CREATE = "create"
    OPERATE = "operate"
    DELETE = "delete"


@dataclass(frozen=True)
class StepSpec:
    """One step of a workload definition.

    ``creates``/``deletes`` name the entity kind a create or delete step
    touches; ``operates_on`` names the entity an operate step acts upon
    (None for pure control-plane calls such as role grants).  ``undo_of``
    marks cleanup steps with the step they reverse.
    """

    name: str
    service: str
    action: StepAction
    creates: EntityKind | None = None
    deletes: EntityKind | None = None
    operates_on: EntityKind | None = None
    depends_on: tuple[str, ...] = ()
    undo_of: str | None = None

    def __post_init__(self):
        if self.action is StepAction.CREATE and self.creates is None:
            raise ConfigError(f"create step {self.name!r} names no entity kind")
        if self.action is StepAction.DELETE:
            if self.deletes is None:
                raise ConfigError(f"delete step {self.name!r} names no entity kind")
            if self.undo_of is None:
                raise ConfigError(f"delete step {self.name!r} must undo a create step")
        if self.action is not StepAction.CREATE and self.creates is not None:
            raise ConfigError(f"step {self.name!r} cannot create entities")
        if self.action is not StepAction.DELETE and self.deletes is not None:
            raise ConfigError(f"step {self.name!r} cannot delete entities")


def _steps() -> tuple[StepSpec, ...]:
    create = StepAction.CREATE
    operate = StepAction.OPERATE
    delete = StepAction.DELETE
    K = EntityKind
    return (
        StepSpec("create user", "identity", create, creates=K.USER),
        StepSpec("create role", "identity", create, creates=K.ROLE),
        StepSpec(
            "add role",
            "identity",
            operate,
            depends_on=("create user", "create role"),
        ),
        StepSpec("create security group", "network", create, creates=K.SECURITY_GROUP),
        StepSpec("create flavor", "compute", create, creates=K.FLAVOR),
        StepSpec("create image", "image", create, creates=K.IMAGE),
        StepSpec("create network", "network", create, creates=K.NETWORK),
        StepSpec(
            "create subnet",
            "network",
            create,
            creates=K.SUBNET,
            depends_on=("create network",),
        ),
        StepSpec(
            "create port",
            "network",
            create,
            creates=K.PORT,
            depends_on=("create network", "create subnet"),
        ),
        StepSpec(
            "create router",
            "network",
            create,
            creates=K.ROUTER,
            depends_on=("create network", "create subnet"),
        ),
        StepSpec(
            "boot server",
            "compute",
            create,
            creates=K.SERVER,
            depends_on=("create flavor", "create image", "create network"),
        ),
        StepSpec("create volume", "volume", create, creates=K.VOLUME),
        StepSpec(
            "attach volume",
            "volume",
            operate,
            operates_on=K.VOLUME,
            depends_on=("boot server", "create volume"),
        ),
        StepSpec(
            "rebuild server",
            "compute",
            operate,
            operates_on=K.SERVER,
            depends_on=("boot server", "create image"),
        ),
        StepSpec(
            "pause server",
            "compute",
            operate,
            operates_on=K.SERVER,
            depends_on=("boot server",),
        ),
        StepSpec(
            "unpause server",
            "compute",
            operate,
            operates_on=K.SERVER,
            depends_on=("pause server",),
            undo_of="pause server",
        ),
        StepSpec(
            "detach volume",
            "volume",
            operate,
            operates_on=K.VOLUME,
            depends_on=("attach volume",),
            undo_of="attach volume",
        ),
        StepSpec("delete volume", "volume", delete, deletes=K.VOLUME, undo_of="create volume"),
        StepSpec("delete server", "compute", delete, deletes=K.SERVER, undo_of="boot server"),
        StepSpec("delete router", "network", delete, deletes=K.ROUTER, undo_of="create router"),
        StepSpec("delete port", "network", delete, deletes=K.PORT, undo_of="create port"),
        StepSpec("delete subnet", "network", delete, deletes=K.SUBNET, undo_of="create subnet"),
        StepSpec("delete network", "network", delete, deletes=K.NETWORK, undo_of="create network"),
        StepSpec("delete image", "image", delete, deletes=K.IMAGE, undo_of="create image"),
        StepSpec("delete flavor", "compute", delete, deletes=K.FLAVOR, undo_of="create flavor"),
        StepSpec(
            "delete security group",
            "network",
            delete,
            deletes=K.SECURITY_GROUP,
            undo_of="create security group",
        ),
        StepSpec("revoke role", "identity", operate, undo_of="add role"),
        StepSpec("delete role", "identity", delete, deletes=K.ROLE, undo_of="create role"),
        StepSpec("delete user", "identity", delete, deletes=K.USER, undo_of="create user"),
    )


DEFAULT_STEPS: tuple[StepSpec, ...] = _steps()

#: Step names of the default definition; the fault model validates
#: configured step names against this list unless told otherwise.
DEFAULT_STEP_NAMES: tuple[str, ...] = tuple(s.name for s in DEFAULT_STEPS)


@dataclass(frozen=True)
class TimingParams:
    """Base service times in seconds.

    Most control-plane calls share one base time; the slow paths (server
    boot, volume creation) carry overrides.
    """

    default_seconds: float = 2.0
    step_seconds: Mapping[str, float] = field(
        default_factory=lambda: {"boot server": 10.0, "create volume": 5.0}
    )

    def __post_init__(self):
        if self.default_seconds <= 0:
            raise ConfigError("default_seconds must be positive")
        for name, seconds in self.step_seconds.items():
            if seconds <= 0:
                raise ConfigError(f"step time for {name!r} must be positive")

    def base_for(self, step_name: str) -> float:
        return self.step_seconds.get(step_name, self.default_seconds)


@dataclass(frozen=True)
class WorkloadDefinition:
    """An ordered, validated step list with a LIFO cleanup tail."""

    steps: tuple[StepSpec, ...]

    def __post_init__(self):
        names = [s.name for s in self.steps]
        if len(set(names)) != len(names):
            raise ConfigError("step names must be unique")
        index = {name: i for i, name in enumerate(names)}
        undone: dict[str, int] = {}
        for i, step in enumerate(self.steps):
            for dep in step.depends_on:
                if index.get(dep, i) >= i:
                    raise ConfigError(
                        f"step {step.name!r} depends on {dep!r} which does not precede it"
                    )
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
                if step.action is StepAction.DELETE and doer.creates != step.deletes:
                    raise ConfigError(
                        f"step {step.name!r} deletes {step.deletes} but "
                        f"{doer.name!r} creates {doer.creates}"
                    )
        for step in self.steps:
            if step.action is StepAction.CREATE and step.name not in undone:
                raise ConfigError(f"create step {step.name!r} has no delete step")
        # Cleanup must be LIFO: scanning undo steps in order, the steps
        # they reverse must appear in strictly decreasing position.
        targets = [index[s.undo_of] for s in self.steps if s.undo_of is not None]
        if any(a <= b for a, b in zip(targets, targets[1:])):
            raise ConfigError("cleanup steps do not reverse acquisitions in LIFO order")

    @classmethod
    def default(cls) -> "WorkloadDefinition":
        return cls(steps=DEFAULT_STEPS)


class WorkloadStatus(Enum):
    SUCCESS = "success"
    AGEING_FAILURE = "ageing-failure"
    NON_AGEING_FAILURE = "non-ageing-failure"

    # Members are singletons, so identity hashing is exact; it spares the
    # scenario layer's per-workload tallies Enum.__hash__.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class WorkloadResult:
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


def _new_result(
    started_at: float,
    ended_at: float,
    status: WorkloadStatus,
    error: str | None,
    failed_step: str | None,
    leftover_kinds: list[str],
    steps_executed: int,
) -> WorkloadResult:
    """Build a ``WorkloadResult`` with one dict update instead of the
    frozen dataclass's per-field ``object.__setattr__``; the result
    compares, hashes and refuses assignment like any other."""
    result = object.__new__(WorkloadResult)
    result.__dict__.update(
        started_at=started_at,
        ended_at=ended_at,
        status=status,
        error=error,
        failed_step=failed_step,
        leftovers_created=len(leftover_kinds),
        leftover_kinds=tuple(leftover_kinds),
        steps_executed=steps_executed,
    )
    return result


class _PlanStep:
    """One workload step resolved against a run's cloud, timing and faults.

    ``kind`` is the entity kind the step creates, deletes or operates on;
    ``undo`` is the record of the step that undoes this one, and
    ``holds`` the kind of entity an undo-stack entry of this step keeps
    alive (what the step it undoes created, if anything).  ``draws`` is
    False where the fault model would neither draw nor raise.
    ``completed`` is the step's completion event and ``finished`` the
    pair of events that end a workload on this step, indexed by whether
    the workload did real work; all three are built once per run.
    """

    __slots__ = (
        "spec",
        "name",
        "action",
        "kind",
        "gated",
        "base_seconds",
        "deposits_cache",
        "draws",
        "undo",
        "holds",
        "quota_error",
        "completed",
        "finished",
    )

    def __init__(
        self,
        spec: StepSpec,
        cloud: CloudState,
        timing: TimingParams,
        faults: FaultModel | None,
    ):
        self.spec = spec
        self.name = spec.name
        self.action = spec.action
        if spec.action is StepAction.CREATE:
            self.kind = spec.creates
        elif spec.action is StepAction.DELETE:
            self.kind = spec.deletes
        else:
            self.kind = spec.operates_on
        self.gated = self.kind in cloud.quotas
        self.base_seconds = timing.base_for(spec.name)
        self.deposits_cache = spec.name in cloud.params.cache_depositing_steps
        self.draws = faults is not None and faults.draws_for(spec.name)
        self.undo: _PlanStep | None = None
        self.holds: EntityKind | None = None
        self.quota_error = quota_error_name(self.kind) if self.gated else None
        self.completed = WorkloadStepCompleted(spec.name)
        self.finished = tuple(
            WorkloadStepCompleted(spec.name, workload_finished=True, did_real_work=real)
            for real in (False, True)
        )


def _plan(
    defn: WorkloadDefinition,
    cloud: CloudState,
    timing: TimingParams,
    faults: FaultModel | None,
) -> tuple[_PlanStep, ...]:
    """Resolve every step of ``defn`` once for a run on ``cloud``."""
    by_name: dict[str, _PlanStep] = {}
    for spec in defn.steps:
        step = _PlanStep(spec, cloud, timing, faults)
        if spec.undo_of is not None:  # validated to name an earlier step
            done = by_name[spec.undo_of]
            done.undo = step
            step.holds = done.spec.creates
        by_name[spec.name] = step
    return tuple(by_name.values())


class _Execution:
    """State machine advancing one workload through a step plan.

    ``plan`` is the tuple of ``_PlanStep`` records that ``_plan`` built
    once for the whole run, so a step reads its entity kind, quota gate,
    base time, cache deposit, fault draw and undo step from its record.
    ``stack`` holds the records of the steps that will undo what the
    workload has done so far, most recent last.  The first error sets
    ``aborted``: from then on each step pops ``stack`` and runs as an
    unwind step, and the workload finishes when the stack is empty.
    ``last_step`` is the record of the step executed most recently.
    """

    __slots__ = (
        "plan",
        "cloud",
        "faults",
        "started_at",
        "index",
        "stack",
        "aborted",
        "error",
        "failed_step",
        "steps_executed",
        "gated_live",
        "gated_creates",
        "completed_creates",
        "leftover_kinds",
        "last_step",
        "slot",
    )

    def __init__(
        self,
        plan: tuple[_PlanStep, ...],
        cloud: CloudState,
        faults: FaultModel | None,
        started_at: float,
        slot: int = 0,
    ):
        self.plan = plan
        self.cloud = cloud
        self.faults = faults
        self.started_at = started_at
        self.slot = slot
        self.index = 0
        self.stack: list[_PlanStep] = []
        self.aborted = False
        self.error: str | None = None
        self.failed_step: str | None = None
        self.steps_executed = 0
        # Live quota-limited entities held; the workload holds the gate
        # while this is positive.
        self.gated_live = 0
        self.gated_creates = 0
        self.completed_creates = 0
        self.leftover_kinds: list[str] = []
        self.last_step: _PlanStep | None = None

    # -- helpers ------------------------------------------------------------

    def _fail(self, step_name: str, error_name: str, stranded: bool) -> tuple[str, str, bool]:
        """Record the workload's first error, abort forward progress and
        return the error event."""
        if self.error is None:
            self.error = error_name
            self.failed_step = step_name
        self.aborted = True
        return (step_name, error_name, stranded)

    def _strand(self, kind: EntityKind, entry_index: int | None) -> None:
        """Move a live entity into the leftover ledger.

        ``entry_index`` removes the matching undo entry so the unwind
        will not try to delete what is now stranded; a delete step, whose
        entry is already popped, passes None.
        """
        if entry_index is not None:
            del self.stack[entry_index]
        self.cloud.add_leftover(kind, from_live=True)
        if kind in self.cloud.quotas:
            self.gated_live -= 1
        self.leftover_kinds.append(kind.value)

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
        if spec.rule is AgeingRule.AGEING:
            # With no entity of that kind in hand, the error still strands
            # a fresh one in error state, if its quota has room for one.
            kind = spec.leftover_kind
            if self._strand_held(kind):
                return True
            if self.cloud.add_leftover(kind) is not None:
                return False
            self.leftover_kinds.append(kind.value)
            return True
        if step.action is StepAction.CREATE:
            # The entity being made is the top of the stack.  A phase-
            # dependent error strands it once the workload has provisioned
            # something (before that the call never reached the node);
            # otherwise the creation is rolled back.
            if spec.rule is AgeingRule.PHASE_DEPENDENT and self.completed_creates > 0:
                self._strand(step.kind, -1)
                return True
            self.stack.pop()
            self.cloud.try_delete(step.kind)
            if step.gated:
                self.gated_live -= 1
                self.gated_creates -= 1
            return False
        return (
            spec.rule is AgeingRule.PHASE_DEPENDENT
            and step.kind is not None
            and self._strand_held(step.kind)
        )

    # -- one step ------------------------------------------------------------

    def run_one(self, ambient_gate_count: int) -> tuple[float, tuple[str, str, bool] | None, bool]:
        """Execute the next step.

        Returns (duration, error event or None, workload finished after
        this step).  ``ambient_gate_count`` counts gate-holding workloads
        other than this one; the duration includes this workload's own
        gate if it holds one once the step has resolved.
        """
        event = None
        if self.aborted:
            step = self.stack.pop()
            if step.action is StepAction.DELETE:
                event = self._delete_with_faults(step)
            elif step.draws and (spec := self.faults.draw(step.name)) is not None:
                # Undo of an operate step (role revoke, detach, unpause): a
                # fault here is recorded but strands nothing, and unwinding
                # continues.
                event = self._fail(step.name, spec.name, False)
        else:
            step = self.plan[self.index]
            self.index += 1
            action = step.action
            if action is StepAction.CREATE:
                if self.cloud.try_create(step.kind) is not None:
                    event = self._fail(step.name, step.quota_error, False)
                else:
                    self.stack.append(step.undo)
                    if step.gated:
                        self.gated_live += 1
                        self.gated_creates += 1
                    if step.draws and (spec := self.faults.draw(step.name)) is not None:
                        event = self._fail(step.name, spec.name, self._apply_fault(step, spec))
                    else:
                        self.completed_creates += 1
            elif action is StepAction.OPERATE:
                if step.spec.undo_of is not None:
                    entry = self.stack.pop()
                    assert entry is step, "cleanup order diverged from the stack"
                if step.draws and (spec := self.faults.draw(step.name)) is not None:
                    event = self._fail(step.name, spec.name, self._apply_fault(step, spec))
                elif step.undo is not None:
                    self.stack.append(step.undo)
            else:  # a delete step in the normal flow
                entry = self.stack.pop()
                assert entry is step, "cleanup order diverged from the stack"
                event = self._delete_with_faults(step)
        self.steps_executed += 1
        self.last_step = step
        cloud = self.cloud
        if event is None and step.deposits_cache:
            apply_resource_effects(cloud, step.completed)
        if self.gated_live > 0:
            ambient_gate_count += 1
        contention = ambient_gate_count / cloud.params.contention_capacity
        if contention < 1.0:
            contention = 1.0
        duration = step.base_seconds * cloud._ageing_multiplier * contention
        if self.aborted:
            return duration, event, not self.stack
        return duration, event, self.index >= len(self.plan)

    def _delete_with_faults(self, step: _PlanStep) -> tuple[str, str, bool] | None:
        """Run a delete step; any fault strands the delete target."""
        spec = self.faults.draw(step.name) if step.draws else None
        if spec is not None:
            self._strand(step.kind, None)
            return self._fail(step.name, spec.name, True)
        self.cloud.try_delete(step.kind)
        if step.gated:
            self.gated_live -= 1
        return None

    # -- completion ------------------------------------------------------------

    def abort_unavailable(self) -> tuple[str, str, bool] | None:
        """The cloud failed under this workload; cut it short.  Returns the
        error event, naming the next forward step, unless it had failed."""
        if self.error is not None:
            return None
        return self._fail(self.plan[self.index].name, CLOUD_UNAVAILABLE, False)

    def finalize(self, ended_at: float) -> WorkloadResult:
        if self.steps_executed > 0:
            did_real_work = self.gated_creates > 0
            apply_resource_effects(self.cloud, self.last_step.finished[did_real_work])
        if self.error is None:
            status = WorkloadStatus.SUCCESS
        elif self.leftover_kinds:
            status = WorkloadStatus.AGEING_FAILURE
        else:
            status = WorkloadStatus.NON_AGEING_FAILURE
        return _new_result(
            self.started_at,
            ended_at,
            status,
            self.error,
            self.failed_step,
            self.leftover_kinds,
            self.steps_executed,
        )


def run_stream(
    defn: WorkloadDefinition,
    cloud: CloudState,
    *,
    until: float,
    concurrency: int = 1,
    faults: FaultModel | None = None,
    timing: TimingParams | None = None,
    tick_seconds: float | None = None,
    tick_hook: Callable[[float], None] | None = None,
    hour_hook: Callable[[float], object] | None = None,
    error_hook: Callable[[float, str, str, bool], None] | None = None,
    result_hook: Callable[[WorkloadResult], None] | None = None,
) -> None:
    """Run back-to-back workloads on ``concurrency`` slots until a deadline.

    Events are processed in virtual-time order; at equal times workload
    events run before interval ticks, and ticks before hour marks, so
    samples and hooks observe completed state.  With ``tick_seconds``
    set, each elapsed sampling interval is folded into the gauges and
    then ``tick_hook(t)`` runs, reading whatever it records from
    ``cloud``'s gauge accessors.  ``hour_hook`` runs at whole-hour
    marks and may return ``STOP_STREAM`` to end the run early (policy
    decisions live in the caller).  Each finished workload reaches the
    caller only through ``result_hook``; workloads still in flight at
    the deadline are discarded unrecorded.  Once the cloud has failed, a
    workload due to run another step is cut short there with
    ``CLOUD_UNAVAILABLE``, and every slot parks until the deadline.
    ``until`` must be finite and not before ``cloud.clock``, and
    ``tick_seconds``, when given, positive and finite; anything else is
    a ``ConfigError``.

    After a step the failure predicate is evaluated, through
    ``check_failed``, only while ``cloud.failure_inputs_changed`` is set:
    by the step itself, or since the last evaluation by a finished
    workload's leak, a tick's warm-up allocation or a hook (see
    ``CloudState``).  While the flag is clear an evaluation would change
    nothing, so ``failed`` and ``failed_at`` come out as if the predicate
    were evaluated after every step.

    The definition is resolved once into a step plan (``_plan``) shared
    by every workload of the call, so a step costs a read of its
    precomputed record rather than lookups by name.  Clock events are
    scheduled lazily: the k-th tick fires at ``t0 + k * tick_seconds``
    and the k-th hour mark at ``t0 + k * SECONDS_PER_HOUR``, and each
    schedules its successor as it fires, so the event heap holds at most
    ``concurrency + 2`` entries.  Slot k launches at
    ``t0 + k * LAUNCH_STAGGER_SECONDS``.

    Each event costs one heap operation.  The first event is popped
    before the loop; an event that schedules a successor (a step, a
    finished workload's relaunch, a tick or hour mark whose successor
    falls before ``until``) takes the next event with ``heappushpop``,
    and one that schedules nothing (a launch parked on a failed cloud, a
    clock event whose successor would fall at or past ``until``) with
    ``heappop``.  ``heappushpop`` is "push, then pop the smallest", and
    events are tuples ordered by (time, priority, sequence number) with
    unique sequence numbers, so events run in exactly that order.  The
    loop ends at the first event at or past ``until``, or when the heap
    is empty.
    """
    if concurrency < 1:
        raise ConfigError("concurrency must be at least 1")
    if tick_seconds is not None and not (0.0 < tick_seconds < math.inf):
        raise ConfigError(f"tick_seconds must be positive and finite, got {tick_seconds!r}")
    if not math.isfinite(until):
        raise ConfigError(f"stream deadline must be finite, got {until!r}")
    timing = timing or TimingParams()
    t0 = cloud.clock
    if until < t0:
        raise ConfigError("stream deadline precedes the cloud clock")

    plan = _plan(defn, cloud, timing, faults)
    tick = IntervalElapsed(tick_seconds) if tick_seconds is not None else None
    heap: list[tuple[float, int, int, str, object]] = []
    # Bound per call rather than at import, so a patched heapq is seen.
    heappush = heapq.heappush
    heappop = heapq.heappop
    heappushpop = heapq.heappushpop
    seq = itertools.count().__next__
    PRIO_WORK, PRIO_TICK, PRIO_HOUR = 0, 1, 2

    gate_count = 0

    def push_clock(k: int, interval: float, prio: int, kind: str) -> None:
        # A clock event carries its index k, so its successor is k + 1.
        if (t := t0 + k * interval) < until:
            heappush(heap, (t, prio, seq(), kind, k))

    for slot in range(concurrency):
        t_launch = t0 + slot * LAUNCH_STAGGER_SECONDS
        if t_launch < until:
            heappush(heap, (t_launch, PRIO_WORK, seq(), "launch", slot))
    if tick_seconds is not None:
        push_clock(0, tick_seconds, PRIO_TICK, "tick")
    if hour_hook is not None:
        push_clock(1, SECONDS_PER_HOUR, PRIO_HOUR, "hour")

    event = heappop(heap) if heap else None
    while event is not None:
        t, _prio, _seq, kind, payload = event
        if t >= until:
            break
        cloud.clock = t
        if kind == "step" or kind == "launch":
            if kind == "launch":
                if cloud.failed:
                    # A failed cloud parks the slot.
                    event = heappop(heap) if heap else None
                    continue
                execution = _Execution(plan, cloud, faults, t, payload)
            else:
                execution = payload
            if not cloud.failed:
                # One step: the gate count excludes this workload while it runs.
                if execution.gated_live > 0:
                    gate_count -= 1
                duration, error, finished = execution.run_one(gate_count)
                if execution.gated_live > 0:
                    gate_count += 1
                if error is not None and error_hook is not None:
                    error_hook(t, *error)
                if cloud.failure_inputs_changed:
                    check_failed(cloud)
                event = heappushpop(
                    heap,
                    (t + duration, PRIO_WORK, seq(), "finish" if finished else "step", execution),
                )
                continue
            # The cloud failed under this workload: cut it short, and end
            # it below like a finished one.
            error = execution.abort_unavailable()
            if error is not None and error_hook is not None:
                error_hook(t, *error)
        elif kind == "finish":
            execution = payload
        elif kind == "tick":
            apply_resource_effects(cloud, tick)
            if tick_hook is not None:
                tick_hook(t)
            k = payload + 1
            if (t_next := t0 + k * tick_seconds) < until:
                event = heappushpop(heap, (t_next, PRIO_TICK, seq(), "tick", k))
            else:
                event = heappop(heap) if heap else None
            continue
        else:  # hour
            if hour_hook(t) is STOP_STREAM:
                return
            k = payload + 1
            if (t_next := t0 + k * SECONDS_PER_HOUR) < until:
                event = heappushpop(heap, (t_next, PRIO_HOUR, seq(), "hour", k))
            else:
                event = heappop(heap) if heap else None
            continue
        # The workload ends: release its gate, settle it, report it, and
        # hand the slot to its next launch, which a failed cloud parks.
        if execution.gated_live > 0:
            gate_count -= 1
        result = execution.finalize(t)
        if result_hook is not None:
            result_hook(result)
        event = heappushpop(heap, (t, PRIO_WORK, seq(), "launch", execution.slot))
    cloud.clock = until

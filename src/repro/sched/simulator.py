"""Event-driven multi-task NPU simulator (paper Secs III-V).

One NPU executes a multi-tasked workload under a (policy, preemption mode)
pair.  The scheduler wakes on the paper's three conditions -- task
dispatch, task completion, and scheduling-period expiry (Sec V-C) -- plus
the internal completion of a checkpoint trap.  Between wakes, the running
task advances analytically along its ground-truth execution profile.

The event machinery lives in :class:`DeviceSim`, a *stepwise* simulation
that accepts task injections at any point and processes one event per
:meth:`DeviceSim.step` call.  :class:`NPUSimulator` keeps the original
batch interface (``run()`` to completion) as a thin wrapper; the cluster
layer (:mod:`repro.sched.cluster`) interleaves many ``DeviceSim`` instances
under one global event loop and uses the live-state introspection hooks
(:meth:`DeviceSim.predicted_backlog`, :meth:`DeviceSim.stealable_tasks`,
:meth:`DeviceSim.remove_task`) for online dispatch and work stealing.
Pending events wait in an :class:`EventQueue`.  The devices of a cluster
run share one with the run's own wakes (router arrivals, batch flushes,
availability transitions, metric samples), whose head is the run's next
wake of any kind.

Per-event cost depends on the *live* task population only -- it does
not grow with the number of tasks the device has ever seen, which is
what makes open-arrival traces (thousands of requests per device,
:mod:`repro.workloads.trace`) tractable:

- pending due arrivals sit in a min-heap (`is_idle` peeks instead of
  scanning the event queue);
- the predicted backlog iterates an admission-ordered live-task set, so
  completed tasks stop costing anything;
- waiting/token accounting settles lazily from ``last_update_cycles`` at
  its read points (period ticks, dispatch, migration) instead of walking
  the ready queue at every wake;
- ready-queue selection scans the context table's incremental ready
  index (:mod:`repro.sched.policies`), never the completed rows;
- the scheduling-period clock fires only the ticks that can change a
  decision and replays the rest (below).

The period clock is a float chain: anchored one period after the first
admitted arrival, then ``tick + period_cycles`` repeated.  It lives while
the device holds an unfinished task or a placement still to come
(:attr:`DeviceSim.pending_placements`); the next arrival after a drain
re-anchors it.  An
every-period clock fires each instant of it; this one *arms* only the
next instant at which a tick can change a decision and lets the chain
sleep through the others.  ``_next_tick`` is the first instant not yet
processed.  At the next read of waits or tokens -- every device event,
before its handler; :meth:`DeviceSim.remove_task`; :meth:`DeviceSim.fail`
-- the device *replays* the skipped span.  It lists the span's instants
once, with the chain's own float steps (never ``anchor + k * period``,
which rounds differently).  Between two events a READY row's waits and
grants read that row alone (Algorithm 2 grants priority times waited
over estimated time), so each row walks the instants on its own
(:meth:`~repro.core.context.TaskContext.replay_ticks`), settling and
granting with the float operations of a tick-by-tick clock.  The span's
preemption checks are then decided once (:meth:`DeviceSim._hold_span`):
its ticks fall into a run inside the time quota, a run at which the
candidate outranks the running task, and the rest, so one Algorithm-3
choice and a bisection count its DRAIN re-decisions, and the running
task's ``executed_cycles`` is left at the span's last tick past the
quota.  Waits, tokens, progress, preemptions and the DRAIN count
therefore stay bit-identical to the every-period clock.  A skipped tick
at the reading event's own instant replays first only when that event
is a DISPATCH, the one device kind that ranks after PERIOD.  A replayed
tick that would dispatch or preempt is a planning bug and raises, and
so is a row that changes token bucket in a span whose decision is held.

Which ticks fire (:meth:`DeviceSim._next_decision_tick`):

- none while no row is READY: a tick grants tokens only to READY rows,
  so an idle or purely busy chain sleeps;
- every tick while the device is doomed (a churn warning window: the
  cluster re-plans its evacuation on the device's own events, so its
  ticks are the evacuation's polls) or while another component reads its
  ticks (:attr:`DeviceSim.ticks_read`: the cluster token ledger, and the
  preemptive-migration routing that polls after every device event);
- the next tick after a change no wake looked at: a reserved DISPATCH
  (it runs no wake), :meth:`DeviceSim.remove_task` and
  :meth:`DeviceSim.force_checkpoint`.  Under a token policy the tick
  after a reserved DISPATCH falls inside the new runner's time quota and
  ranks nothing, so the DISPATCH arms the first deciding tick of the
  rule below instead;
- under STATIC or DYNAMIC with a token policy: the first tick past the
  running task's time quota, and the first tick at which a READY row's
  tokens may cross a ``TOKEN_LEVELS`` value -- the threshold and the
  candidate group are step functions of the token buckets, so between
  crossings the decision cannot move.  The crossing instant is a lower
  bound from the row's linear token growth: arming early is safe, arming
  late is not;
- a device that drains (every injected task done, no placement pending)
  arms one real tick at its next chain instant; that tick decides, as
  before, whether the chain lives on or the next arrival re-anchors it.

Nothing else fires.  In NP mode a busy tick decides nothing, and under
FCFS/RRB/HPF/SJF it only settles waits and, under DYNAMIC, re-counts
DRAIN: for a fixed candidate the outrank test can only turn false and a
DRAIN choice stays DRAIN, because the running task's remaining time only
shrinks (Algorithm 3).

Preemption modes:

``NP``
    Non-preemptive: the policy is consulted only when the NPU idles.
``STATIC``
    Preempt whenever the policy's candidate outranks the running task,
    always via the configured static mechanism (CHECKPOINT or KILL).
``DYNAMIC``
    PREMA's Algorithm 3: per preemption intent, choose CHECKPOINT or
    DRAIN from the predicted remaining times.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import itertools
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.context import ContextTable, TaskContext, TaskState
from repro.core.mechanism import MechanismChoice, select_mechanism
from repro.core.scheduler import SchedulerConfig
from repro.core.tokens import PRIORITY_TOKENS, TOKEN_LEVELS, candidate_bucket
from repro.npu.config import NPUConfig
from repro.npu.preemption import (
    CheckpointMechanism,
    KillMechanism,
    PreemptionMechanism,
)
from repro.obs.trace import NULL_TRACER
from repro.sched.policies import Policy
from repro.sched.task import TaskRuntime
from repro.sched.timeline import SegmentKind, Timeline


class PreemptionMode(enum.Enum):
    NP = "np"
    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    """Everything one simulation run needs besides the workload itself."""

    npu: NPUConfig
    mode: PreemptionMode = PreemptionMode.NP
    #: Preemption mechanism: "CHECKPOINT" or "KILL".  STATIC mode always
    #: uses it; DYNAMIC mode lets Algorithm 3 pick between it and DRAIN
    #: (the paper's Fig 15 sensitivity swaps CHECKPOINT for KILL here).
    mechanism: str = "CHECKPOINT"
    scheduler: SchedulerConfig = dataclasses.field(default_factory=SchedulerConfig)

    def __post_init__(self) -> None:
        if self.mechanism.upper() not in ("CHECKPOINT", "KILL"):
            raise ValueError("mechanism must be CHECKPOINT or KILL")


class _EventKind(enum.IntEnum):
    """Event kinds, valued by their rank among same-time events.

    A device's own events are COMPLETE, ARRIVAL, PERIOD and DISPATCH:
    finish work before admitting new tasks, and let period ticks observe
    a settled state.  A cluster run queues its other wakes beside them
    (:class:`repro.sched.cluster._ClusterRun`):

    - TRANSITION, an availability transition: a task finishing at the
      failure instant finished, and same-time flushes and arrivals see
      the post-transition fleet;
    - FLUSH, a batch window's deadline: the flush sees settled devices,
      and an arrival at exactly the deadline misses its batch;
    - ROUTE, a router arrival or admission consideration: routing sees
      the device state a node agent would see at its instant, including
      same-time burst predecessors admitted moments before, and runs
      before same-time ticks and dispatches;
    - SAMPLE, a metrics sample: after everything else at its instant.
    """

    COMPLETE = 0
    TRANSITION = 1
    FLUSH = 2
    ARRIVAL = 3
    ROUTE = 4
    PERIOD = 5
    DISPATCH = 6
    SAMPLE = 7


_PERIOD_RANK = int(_EventKind.PERIOD)
#: The kinds a device steps; the others are cluster wakes.
_DEVICE_KINDS = frozenset({
    _EventKind.COMPLETE, _EventKind.ARRIVAL, _EventKind.PERIOD, _EventKind.DISPATCH
})


class EventQueue:
    """The pending events of one device, or every wake of a cluster run.

    Entries ``(time, kind rank, key, push order, kind, payload)`` fire in
    that order.  A device event's key is its device's id: each device's
    events fire in its own order, and across devices the earliest first,
    ties to the lowest device id.  Entries hold the device's id, never
    the device: that reference would make a cycle, and a finished device
    would outlive its run until the cyclic collector ran.  A cluster
    wake's key is None (ties in push order) or a tuple, never a device
    id, so :meth:`pop` refuses it to every device and :meth:`take` pops
    it.

    A cancelled entry stays queued until it reaches the head, where it is
    dropped, so the head is always live.  A device has at most one live
    PERIOD event: :meth:`arm` cancels the one it supersedes.
    """

    __slots__ = ("_heap", "_order", "_arms", "_cancelled")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, object, int, _EventKind, object]] = []
        self._order = itertools.count()
        #: Device id -> push order of its live queued PERIOD event.
        self._arms: Dict[int, int] = {}
        #: Push orders of cancelled entries still in the heap.
        self._cancelled: Set[int] = set()

    def push(
        self, time: float, kind: _EventKind, key: object, payload: object
    ) -> int:
        """Queue an event; returns its push order."""
        order = next(self._order)
        heapq.heappush(self._heap, (time, int(kind), key, order, kind, payload))
        return order

    def cancel(self, order: int) -> None:
        """Drop the queued entry of push order ``order``."""
        self._cancelled.add(order)
        self._drop_cancelled()

    def arm(self, time: float, device_id: int) -> None:
        """Queue device ``device_id``'s PERIOD event at ``time``,
        superseding its queued one (the caller arms only earlier)."""
        live = self._arms.get(device_id)
        if live is not None:
            self.cancel(live)
        self._arms[device_id] = self.push(time, _EventKind.PERIOD, device_id, None)

    def peek(self) -> Optional[Tuple[float, int, object]]:
        """``(time, kind rank, key)`` of the next event, or None."""
        heap = self._heap
        return heap[0][:3] if heap else None

    def pop(self, device_id: int) -> Tuple[float, int, object, int, _EventKind, object]:
        """Pop the next event, which must be device ``device_id``'s."""
        heap = self._heap
        if not heap:
            raise RuntimeError("no pending events")
        entry = heap[0]
        if entry[2] != device_id:
            owner = (
                f"belongs to device {entry[2]}" if entry[4] in _DEVICE_KINDS
                else f"is a {entry[4].name} wake"
            )
            raise RuntimeError(f"device {device_id} stepped; the next event {owner}")
        heapq.heappop(heap)
        if entry[1] == _PERIOD_RANK:
            del self._arms[device_id]
        if self._cancelled:
            self._drop_cancelled()
        return entry

    def take(self) -> Tuple[float, object]:
        """Pop the next event, which must be a cluster wake; returns its
        ``(time, payload)``."""
        heap = self._heap
        if not heap:
            raise RuntimeError("no pending events")
        if heap[0][4] in _DEVICE_KINDS:
            raise RuntimeError(
                f"the next event belongs to device {heap[0][2]}, not the cluster"
            )
        time, _, _, _, _, payload = heapq.heappop(heap)
        if self._cancelled:
            self._drop_cancelled()
        return time, payload

    def remove(self, device_id: int) -> None:
        """Drop every event of device ``device_id`` (a failed device
        fires none); the other events keep their order."""
        self._arms.pop(device_id, None)
        kept = [entry for entry in self._heap if entry[2] != device_id]
        self._cancelled.intersection_update(entry[3] for entry in kept)
        heapq.heapify(kept)
        self._heap = kept
        self._drop_cancelled()

    def _drop_cancelled(self) -> None:
        """Pop cancelled entries off the head."""
        heap = self._heap
        cancelled = self._cancelled
        while heap and heap[0][3] in cancelled:
            cancelled.remove(heapq.heappop(heap)[3])


class DeviceTaskState(enum.Enum):
    """Explicit per-device lifecycle of an injected task.

    The migration layer used to infer migratability from two sets
    ("queued" or nothing); with checkpoint migration in play the
    intermediate states matter -- in particular ``CHECKPOINTING``, whose
    tasks look READY in the context table while their checkpoint DMA is
    still in flight, and must not be shipped (the bytes are not durable
    yet) or double-stolen.
    """

    #: Injected, arrival event not yet processed.
    PENDING = "pending"
    #: Admitted and READY, never dispatched (no checkpoint state).
    QUEUED = "queued"
    #: Target of an in-flight post-preemption DISPATCH reservation.
    RESERVED = "reserved"
    #: Currently executing on the array.
    RUNNING = "running"
    #: Preempted; checkpoint trap/DMA still writing state to DRAM.
    CHECKPOINTING = "checkpointing"
    #: Preempted with a durable DRAM checkpoint -- safely migratable.
    PREEMPTED = "preempted"
    DONE = "done"


#: Lifecycle states a task may be migrated out of (see ``remove_task``).
MIGRATABLE_STATES = frozenset(
    {DeviceTaskState.QUEUED, DeviceTaskState.PREEMPTED}
)


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Outcome of one run: completed task runtimes + the NPU timeline."""

    tasks: Tuple[TaskRuntime, ...]
    timeline: Timeline
    makespan_cycles: float
    preemption_count: int
    drain_decisions: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_tasks_by_id",
            {task.task_id: task for task in self.tasks},
        )

    def task_by_id(self, task_id: int) -> TaskRuntime:
        try:
            return self._tasks_by_id[task_id]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"no task {task_id}") from None


class DeviceSim:
    """Stepwise, injectable single-NPU simulation (one cluster device).

    Holds the per-run mutable state the old monolithic ``run()`` kept in
    locals -- context table, runtimes, reservation bookkeeping -- and
    exposes it one event at a time.  Tasks may be injected before
    or during the run; the scheduling-period clock anchors itself at the
    first processed arrival and fires only the ticks that can change a
    decision, replaying the others at the next read, so an idle or purely
    busy device costs no ticks and a busy one few.  The module docstring
    has the chain rules.  Events wait in ``queue``: the device's own
    :class:`EventQueue`, unless a fleet of distinct ``device_id``s shares one.
    """

    def __init__(
        self,
        config: SimulationConfig,
        policy: Policy,
        device_id: int = 0,
        tracer=None,
        queue: Optional[EventQueue] = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.device_id = device_id
        #: Observability sink (:mod:`repro.obs.trace`).  Defaults to the
        #: no-op singleton; every emission site guards on
        #: ``self.tracer.enabled`` before building args, so the default
        #: costs one attribute load per potential event and allocates
        #: nothing.
        self.tracer = NULL_TRACER if tracer is None else tracer
        policy.reset()
        self._checkpoint = CheckpointMechanism(config.npu)
        self._kill = KillMechanism(config.npu)
        self._table = ContextTable()
        self._runtimes: Dict[int, TaskRuntime] = {}
        self._queue = EventQueue() if queue is None else queue
        self.timeline = Timeline()
        self._running_id: Optional[int] = None
        #: Wall-clock cycle until which the NPU is busy checkpointing.
        self._npu_reserved_until = 0.0
        #: Task with an in-flight DISPATCH reservation (post-preemption).
        self._reserved_task_id: Optional[int] = None
        #: First instant of the period chain not yet fired or replayed
        #: (None: no chain; the next admitted arrival anchors one).
        self._next_tick: Optional[float] = None
        #: Instant of the armed PERIOD event (None: the chain sleeps).
        self._armed_at: Optional[float] = None
        self._preemption_count = 0
        self._drain_decisions = 0
        self._completed = 0
        self._now = 0.0
        #: Kind of the most recently processed event (None before any).
        self.last_event_kind: Optional[_EventKind] = None
        #: Task completed by the most recent step() (None otherwise).
        #: The cluster layer's completion hook: admission budgeting and
        #: prediction feedback observe finished tasks through this
        #: without any per-event callback cost.
        self.last_completed: Optional[TaskRuntime] = None
        #: Total events processed (introspection / benchmarking).
        self.events_processed = 0
        #: Min-heap of unprocessed ARRIVAL timestamps.  Arrivals fire in
        #: time order, so the heap minimum is always the next one to
        #: fire; `is_idle` peeks it instead of scanning the event queue.
        self._pending_arrivals: List[float] = []
        #: Admitted, not-yet-completed tasks in admission order -- the
        #: population `predicted_backlog` sums over.  Completed tasks
        #: leave immediately, so backlog reads cost O(live), not O(ever).
        self._live_admitted: Dict[int, TaskRuntime] = {}
        #: Admitted, READY, never-dispatched tasks in admission order:
        #: the stealable population (modulo the reserved task).
        self._queued: Dict[int, TaskRuntime] = {}
        #: Admitted, READY, previously-dispatched tasks (they hold
        #: checkpoint state) in preemption order: the checkpoint-migration
        #: population, gated by ``_checkpoint_durable_at``.
        self._preempted: Dict[int, TaskRuntime] = {}
        #: Cycle at which a preempted task's checkpoint DMA finishes and
        #: its state becomes durable in DRAM.  Absent for tasks migrated
        #: *in* (their checkpoint arrived with them, already durable).
        self._checkpoint_durable_at: Dict[int, float] = {}
        #: Ids migrated out of this device: the only ids whose stale
        #: COMPLETE events may legitimately reference a missing runtime.
        self._migrated_out: set = set()
        #: Churn gate: False while the device is down, or (proactive
        #: mode) while a revocation/drain warning window is open.  The
        #: cluster layer's routing, stealing, and idle indexes all treat
        #: a non-accepting device as invisible; churn-free runs never
        #: clear it, so every historical code path is unchanged.  A
        #: warning closes it through :meth:`stop_accepting`, which also
        #: keeps the period clock ticking.
        self.accepts_work = True
        #: Set by the cluster when another component reads this device's
        #: ticks -- the cluster token ledger reads its grants, and
        #: preemptive migration polls after every device event -- so every
        #: tick of a busy chain must fire.
        self.ticks_read = False
        #: Placements the cluster's static pass made here whose ROUTE
        #: wake has not fired yet.  The chain lives and no drain tick is
        #: armed while any remain, as if those tasks were injected
        #: already, so how the router feeds a device never moves its clock.
        self.pending_placements = 0

    # ------------------------------------------------------------------
    # Event queue
    # ------------------------------------------------------------------
    def inject(self, task: TaskRuntime, arrival: Optional[float] = None) -> None:
        """Schedule ``task`` to arrive at ``arrival`` (default: its spec time).

        Callable before the run starts or at any point during it (cluster
        online dispatch and work-stealing migration inject mid-run).
        """
        when = task.spec.arrival_cycles if arrival is None else arrival
        if task.task_id in self._runtimes:
            raise ValueError(f"duplicate task id {task.task_id}")
        self._runtimes[task.task_id] = task
        heapq.heappush(self._pending_arrivals, when)
        self._queue.push(when, _EventKind.ARRIVAL, self.device_id, task.task_id)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next event in the device's queue (None when
        dormant).  On a queue shared by a fleet that is the fleet's next
        event, so only a standalone device reads its own next event here.
        """
        head = self._queue.peek()
        return None if head is None else head[0]

    def step(self) -> float:
        """Process the event at the queue head, which must be this
        device's (``RuntimeError`` otherwise); returns its timestamp."""
        now, _, _, _, kind, payload = self._queue.pop(self.device_id)
        tick = self._next_tick
        if tick is not None and (
            tick < now or (tick == now and kind is _EventKind.DISPATCH)
        ):
            self._replay(now, kind is _EventKind.DISPATCH)
        self._now = now
        self.last_event_kind = kind
        self.last_completed = None
        self.events_processed += 1
        if kind == _EventKind.ARRIVAL:
            self._on_arrival(now, payload)  # type: ignore[arg-type]
        elif kind == _EventKind.COMPLETE:
            self._on_complete(now, payload)  # type: ignore[arg-type]
        elif kind == _EventKind.PERIOD:
            self._on_period(now)
        elif kind == _EventKind.DISPATCH:
            self._on_dispatch(now, payload)  # type: ignore[arg-type]
        return now

    # ------------------------------------------------------------------
    # Introspection (cluster-level routing and stealing read these)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def completed_count(self) -> int:
        return self._completed

    @property
    def num_tasks(self) -> int:
        return len(self._runtimes)

    @property
    def has_live_tasks(self) -> bool:
        return self._completed < len(self._runtimes)

    @property
    def maybe_idle(self) -> bool:
        """The time-independent clauses of :meth:`is_idle` (O(1) fields).

        ``is_idle(now)`` implies ``maybe_idle`` for every ``now`` a
        cluster loop can observe: the two time-dependent clauses it adds
        (the NPU-reservation window and a due-but-unprocessed arrival)
        only ever *remove* idleness.  The cluster's idle-candidate set is
        therefore keyed on this property and re-checks ``is_idle(now)``
        on consumption.  A device that stopped accepting work (churn) is
        never an idle *candidate* -- it must not attract steals.
        """
        return (
            self.accepts_work
            and self._running_id is None
            and self._reserved_task_id is None
            and not self._table.has_ready
        )

    @property
    def has_queued(self) -> bool:
        """Any admitted, READY, never-dispatched task resident (O(1)).

        A superset test for :meth:`stealable_tasks` being non-empty (the
        reserved dispatch target still filters at read time).
        """
        return bool(self._queued)

    @property
    def has_preempted(self) -> bool:
        """Any preempted task resident (O(1)); durability still gates
        :meth:`migratable_preempted_tasks` at read time."""
        return bool(self._preempted)

    @property
    def queue_depth(self) -> int:
        """Resident not-running work: queued + preempted tasks (O(1)).

        The streaming-metrics gauge (:mod:`repro.obs.metrics`); purely
        observational.
        """
        return len(self._queued) + len(self._preempted)

    @property
    def is_busy(self) -> bool:
        """A task currently occupies the array (O(1), observational)."""
        return self._running_id is not None

    def is_idle(self, now: float) -> bool:
        """No running task, empty ready queue, no reservation in flight,
        and no admitted-but-unprocessed arrival already due.

        The last clause keeps work stealing fair: a thief that just
        received a stolen task (its ARRIVAL event still pending at
        ``now``) must not be counted idle again in the same instant and
        grab a second task from under another idle device.  All clauses
        are O(1) peeks.  A non-accepting device (churn) is never idle
        for the cluster's purposes -- it must not attract work.
        """
        return (
            self.accepts_work
            and self._running_id is None
            and self._reserved_task_id is None
            and now >= self._npu_reserved_until
            and not self._table.has_ready
            and not (
                self._pending_arrivals and self._pending_arrivals[0] <= now
            )
        )

    def predicted_backlog(
        self,
        now: float,
        min_priority: Optional[int] = None,
        sjf_within_cycles: Optional[float] = None,
    ) -> float:
        """Scheduler-visible predicted cycles left on this device.

        Sums ``Time_estimated`` minus accounted progress over every live
        task already *admitted* (tasks whose arrival event has not fired
        yet are invisible, as they would be to a real node agent).  The
        running task's progress is refreshed the same way the preemption
        check refreshes it, so routing and preemption see one state.
        Iterates the admission-ordered live set: completed tasks cost
        nothing, so the read is O(live tasks).

        ``min_priority`` restricts the sum to tasks of at least that
        priority -- the *class-aware* backlog the admission controller
        predicts with.  Under the preemptive priority-driven policies an
        arriving high-priority request neither waits behind queued
        low-priority work nor behind a running low-priority task (it
        preempts it at the next boundary), so counting either would
        over-reject exactly the class admission exists to protect.
        ``sjf_within_cycles`` refines the same-priority term: PREMA's
        Algorithm 2 serves the *shortest* candidate first among equal
        priorities, so an arrival only waits behind same-priority rows
        whose remaining estimate is at most its own.  None (the default,
        and the only form routing ever uses) keeps the historical total.
        """
        if min_priority is None and sjf_within_cycles is None:
            return self._backlog_sum(lambda task: task.progress_at(now))
        total = 0.0
        for task in self._live_admitted.values():
            context = task.context
            if min_priority is not None:
                level = int(context.priority)
                if level < min_priority:
                    continue
                remaining = max(
                    0.0, context.estimated_cycles - context.executed_cycles
                )
                if (
                    level == min_priority
                    and sjf_within_cycles is not None
                    and task.dispatch_time is None
                    and remaining > sjf_within_cycles
                ):
                    continue
            if task.dispatch_time is not None:
                executed = task.progress_at(now)
            else:
                executed = context.executed_cycles
            total += max(0.0, context.estimated_cycles - executed)
        return total

    def _backlog_sum(self, running_executed) -> float:
        """The unfiltered admission-order backlog summation.

        The single loop behind both :meth:`predicted_backlog`'s
        unfiltered read and :meth:`backlog_lower_bound` -- the backlog
        index's bit-for-bit guarantee requires those two to perform the
        *identical* IEEE-754 summation with only the running task's
        executed-cycles source swapped, so they must not drift apart as
        separate copies.  ``running_executed(task)`` supplies that
        source for dispatched tasks.
        """
        total = 0.0
        for task in self._live_admitted.values():
            context = task.context
            if task.dispatch_time is not None:
                executed = running_executed(task)
            else:
                executed = context.executed_cycles
            total += max(0.0, context.estimated_cycles - executed)
        return total

    def backlog_lower_bound(self) -> float:
        """A floor under :meth:`predicted_backlog` valid until the next
        device mutation -- the key of the cluster's backlog index.

        ``predicted_backlog(now)`` differs from the settled state only in
        the running task's term, which shrinks as ``now`` advances but
        never below ``max(0, Time_estimated - total profile cycles)``
        (progress caps at the profile end, and the COMPLETE event that
        would remove the task fires before any later routing decision).
        Substituting that floor for the running task's term -- in the
        *same* admission-order IEEE-754 summation, where replacing one
        non-negative term by a smaller one can only lower every partial
        sum -- yields a bound that provably never exceeds the exact
        backlog at any reachable ``now``, so a best-first search over
        these bounds reproduces the linear scan's argmin bit-for-bit.
        In-flight checkpoint deliveries (also non-negative add-ons) are
        deliberately excluded for the same reason.
        """
        return self._backlog_sum(lambda task: task.profile.total_cycles)

    def task_lifecycle(self, task_id: int, now: float) -> DeviceTaskState:
        """Explicit lifecycle state of an injected task at cycle ``now``.

        This is the migration layer's single source of truth: a task is
        exactly one of PENDING / QUEUED / RESERVED / RUNNING /
        CHECKPOINTING / PREEMPTED / DONE, and only QUEUED and PREEMPTED
        tasks may leave the device.
        """
        task = self._runtimes.get(task_id)
        if task is None:
            raise KeyError(f"no task {task_id}")
        if task.is_done:
            return DeviceTaskState.DONE
        if task_id == self._running_id:
            return DeviceTaskState.RUNNING
        if task_id == self._reserved_task_id:
            return DeviceTaskState.RESERVED
        if task_id in self._queued:
            return DeviceTaskState.QUEUED
        if task_id in self._preempted:
            if now < self._checkpoint_durable_at.get(task_id, 0.0):
                return DeviceTaskState.CHECKPOINTING
            return DeviceTaskState.PREEMPTED
        return DeviceTaskState.PENDING

    @property
    def running_task(self) -> Optional[TaskRuntime]:
        """The currently executing runtime (None when the array is free)."""
        if self._running_id is None:
            return None
        return self._runtimes.get(self._running_id)

    def stealable_tasks(self) -> List[TaskRuntime]:
        """Still-queued tasks safe to migrate: admitted, READY, never
        dispatched, and not the target of a reserved post-preemption
        dispatch.  Never-dispatched tasks carry no checkpoint state, so a
        migration moves only the context row.  O(queued): the set is
        maintained at admit/dispatch/remove."""
        reserved = self._reserved_task_id
        return [
            task
            for task in self._queued.values()
            if task.task_id != reserved
        ]

    def migratable_preempted_tasks(self, now: float) -> List[TaskRuntime]:
        """Preempted tasks whose checkpoint is durable in DRAM at ``now``.

        Excludes CHECKPOINTING tasks (their state is still streaming to
        DRAM -- shipping it would race the trap routine) and the reserved
        post-preemption dispatch target.  O(preempted): the set is
        maintained at preemption/dispatch/remove.
        """
        reserved = self._reserved_task_id
        return [
            task
            for task_id, task in self._preempted.items()
            if task_id != reserved
            and now >= self._checkpoint_durable_at.get(task_id, 0.0)
        ]

    def remove_task(self, task_id: int, now: float) -> TaskRuntime:
        """Migrate a QUEUED or PREEMPTED task out of this device.

        Waiting time is settled up to ``now`` first (the migration read
        point of the lazy wait accounting), so tokens and wait earned on
        this device travel with the context row to the new device;
        preempted tasks additionally carry their retained progress,
        pending restore cost, and resident checkpoint bytes on the
        runtime.  Every other lifecycle state refuses explicitly --
        RUNNING and RESERVED tasks own (or are promised) the array, and a
        CHECKPOINTING task's state is not yet durable, so moving any of
        them would double-book execution state across devices.
        """
        state = self.task_lifecycle(task_id, now)
        if state not in MIGRATABLE_STATES:
            raise ValueError(
                f"task {task_id} is {state.value}; only queued or "
                "(durably checkpointed) preempted tasks can migrate"
            )
        self._replay(now, False)
        task = self._runtimes[task_id]
        task.context.accrue_wait(now)
        self._table.remove(task_id)
        del self._runtimes[task_id]
        self._queued.pop(task_id, None)
        self._preempted.pop(task_id, None)
        self._checkpoint_durable_at.pop(task_id, None)
        del self._live_admitted[task_id]
        self._migrated_out.add(task_id)
        self.policy.on_remove(task.context, now)
        # The candidate may have left: the next tick decides afresh.
        if self._tick_can_matter():
            self._arm_period(now)
        return task

    def stop_accepting(self, now: float) -> None:
        """Close the churn gate at cycle ``now`` (a warning window opened).

        The doomed device keeps its period clock ticking every period
        from here on, ready rows or not: the cluster re-plans its
        evacuation only on the device's own events, so its ticks are the
        evacuation's polls.
        """
        self.accepts_work = False
        self._arm_period(now)

    def fail(self, now: float) -> List[TaskRuntime]:
        """Fail-stop this device at cycle ``now``.

        Everything resident dies with the device's DRAM: the running
        task's progress, in-flight and durable checkpoints, pending
        restores.  Every non-DONE task -- running, checkpointing,
        preempted, queued, reserved, or still pending arrival -- is
        reset to offset zero (:meth:`TaskRuntime.record_failure`) and
        returned as an orphan for the cluster to re-dispatch elsewhere.
        The device's events leave the queue (a dead device fires none)
        and the device stops accepting work; completed tasks stay
        resident so :meth:`result` still reports them.
        """
        self._replay(now, False)
        running = (
            self._runtimes.get(self._running_id)
            if self._running_id is not None
            else None
        )
        if running is not None and running.dispatch_time is not None:
            # Pin the timeline through the failure instant before the
            # runtime forgets its dispatch.
            self._record_run_segments(running, now)
        orphans: List[TaskRuntime] = []
        for task_id in list(self._runtimes):
            task = self._runtimes[task_id]
            if task.is_done:
                continue
            task.record_failure(now)
            del self._runtimes[task_id]
            if task_id in self._live_admitted:
                self._table.remove(task_id)
                del self._live_admitted[task_id]
                self.policy.on_remove(task.context, now)
            self._queued.pop(task_id, None)
            self._preempted.pop(task_id, None)
            self._checkpoint_durable_at.pop(task_id, None)
            self._migrated_out.add(task_id)
            orphans.append(task)
        self._queue.remove(self.device_id)
        self._pending_arrivals.clear()
        self._running_id = None
        self._reserved_task_id = None
        self._npu_reserved_until = now
        self._next_tick = None
        self._armed_at = None
        self.accepts_work = False
        if self.tracer.enabled:
            self.tracer.instant(
                "device_fail",
                f"fail dev{self.device_id}",
                now,
                device=self.device_id,
                args={"orphans": len(orphans)},
            )
        return orphans

    def preview_checkpoint(self, now: float):
        """Cost of checkpointing the running task, without committing.

        Returns ``(free_at, checkpoint_bytes)`` -- when the trap DMA
        would finish and how many bytes would need shipping -- or
        ``None`` when nothing is running.  The evacuation planner uses
        this to decide whether a checkpoint-then-migrate fits inside a
        revocation warning window.
        """
        if self._running_id is None:
            return None
        running = self._runtimes[self._running_id]
        outcome, _, free_at = self._trap(running, now, self._checkpoint)
        return free_at, outcome.checkpoint_bytes

    def force_checkpoint(self, now: float) -> Tuple[float, float]:
        """Checkpoint the running task with no reserved successor.

        The churn evacuation path: a WARNED device checkpoints its
        running task so the durable bytes can migrate out before the
        revocation deadline.  Identical bookkeeping to a policy-driven
        CHECKPOINT preemption except that no candidate is promised the
        array -- the DISPATCH event pushed at ``free_at`` carries no
        payload and simply re-runs the scheduler once the trap DMA
        lands.  Returns ``(free_at, checkpoint_bytes)``.
        """
        if self._running_id is None:
            raise RuntimeError("no running task to checkpoint")
        self._replay(now, False)
        trap = self._preempt(now, self._checkpoint, None)
        self._arm_period(now)  # the victim's row is READY again
        return trap

    def result(self) -> Optional[SimulationResult]:
        """Build the device's :class:`SimulationResult` (None if no tasks)."""
        if not self._runtimes:
            return None
        makespan = max(
            task.completion_time
            for task in self._runtimes.values()
            if task.completion_time is not None
        )
        return SimulationResult(
            tasks=tuple(self._runtimes.values()),
            timeline=self.timeline,
            makespan_cycles=makespan,
            preemption_count=self._preemption_count,
            drain_decisions=self._drain_decisions,
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, now: float, task_id: int) -> None:
        heapq.heappop(self._pending_arrivals)
        task = self._runtimes[task_id]
        if task.context.state is TaskState.MIGRATING:
            # Mid-flight re-admission: the checkpoint just landed over the
            # interconnect.  Transit wait was settled by the sender up to
            # this arrival, so the row re-enters READY with its accrued
            # wait/tokens intact and its checkpoint already durable here.
            task.context.state = TaskState.READY
        task.context.last_update_cycles = now
        self._table.add(task.context)
        self._live_admitted[task_id] = task
        if task.first_dispatch_time is None:
            self._queued[task_id] = task
        else:
            # Previously dispatched elsewhere: it carries checkpoint
            # state, so it joins the preempted (not the stealable) set.
            self._preempted[task_id] = task
        self.policy.on_admit(task.context, now)
        if self._next_tick is None:
            # Lazy period clock: first tick one period after the first
            # admitted arrival (matches the monolithic run()'s anchor).
            self._next_tick = now + self.config.scheduler.period_cycles
        self._wake(now)
        self._arm_decision_tick(now)

    def _on_complete(self, now: float, payload: object) -> None:
        task_id, epoch = payload  # type: ignore[misc]
        task = self._runtimes.get(task_id)
        if task is None:
            # Only a migrated-away task may leave a dangling COMPLETE
            # behind; anything else is a bookkeeping bug worth crashing on.
            if task_id not in self._migrated_out:
                raise KeyError(f"completion for unknown task {task_id}")
            return
        if task.epoch != epoch or task.context.state != TaskState.RUNNING:
            return  # stale completion from a preempted dispatch
        self._record_run_segments(task, now)
        task.complete(now)
        if self.tracer.enabled:
            self.tracer.instant(
                "complete",
                f"complete t{task_id}",
                now,
                device=self.device_id,
                args={"task": task_id, "turnaround": task.turnaround_cycles},
            )
        self.last_completed = task
        self._completed += 1
        self._live_admitted.pop(task_id, None)
        if task_id == self._running_id:
            self._running_id = None
        self._wake(now)
        self._arm_decision_tick(now)
        if self._completed == len(self._runtimes) and not self.pending_placements:
            # Drained: a sleeping chain still owes its next tick, which
            # decides whether the next arrival re-anchors the chain.
            self._arm_period(now)

    def _on_period(self, now: float) -> None:
        self._armed_at = None
        # The chain lives while any injected task is unfinished or a
        # placement is pending; once the device drains, the next admitted
        # arrival re-anchors it.
        self._next_tick = (
            now + self.config.scheduler.period_cycles
            if self._completed < len(self._runtimes) + self.pending_placements
            else None
        )
        # Lazy settlement: period ticks are the one wake that *reads*
        # waiting time (token grants), so they settle the ready queue.
        self._accrue_ready(now)
        if self.policy.uses_tokens:
            self.policy.on_period(self._table)
        self._wake(now)
        self._arm_decision_tick(now)

    def _on_dispatch(self, now: float, task_id: Optional[int]) -> None:
        self._reserved_task_id = None
        if task_id is None:
            # Forced-checkpoint wake (churn evacuation): the trap DMA just
            # finished with no reserved successor -- run the scheduler.
            self._wake(now)
            self._arm_decision_tick(now)
            return
        # Reserved candidates are excluded from stealable_tasks(), so the
        # dispatch target is always still resident; a KeyError here means
        # that invariant was violated.
        task = self._runtimes[task_id]
        if not (task.is_done or task.context.state == TaskState.RUNNING):
            self._running_id = self._dispatch(now, task)
        # No wake runs here, so a row that arrived during the trap has not
        # been ranked against the new runner: the next tick decides.  A
        # token policy's next tick falls inside the new runner's quota and
        # ranks nothing, so it plans the first deciding tick instead.
        if self.policy.uses_tokens:
            self._arm_decision_tick(now)
        elif self._tick_can_matter():
            self._arm_period(now)

    # ------------------------------------------------------------------
    # Scheduler core
    # ------------------------------------------------------------------
    def _tick_can_matter(self) -> bool:
        """Whether the chain's next tick may decide anything: a row is
        READY, or the device is doomed (its ticks poll the evacuation)."""
        return self._table.has_ready or not self.accepts_work

    def _next_decision_tick(self, now: float) -> Optional[float]:
        """The chain instant to arm after a wake at ``now`` (None: sleep).

        The first tick that can change a decision, per the module
        docstring's rules; every earlier one is replayed at the next read.
        """
        if not self.accepts_work:
            return self._next_tick
        if not self._table.has_ready:
            return None
        if self.ticks_read:
            return self._next_tick
        running_id = self._running_id
        if running_id is None:
            # A trap is in flight.  Its ticks cannot decide while a
            # candidate holds the reservation (the DISPATCH that ends it
            # arms the next tick); after a forced checkpoint the first
            # tick past the trap would dispatch, so keep ticking.
            return None if self._reserved_task_id is not None else self._next_tick
        if self.config.mode is PreemptionMode.NP or not self.policy.uses_tokens:
            return None
        return self._token_decision_tick(now, self._runtimes[running_id])

    def _token_decision_tick(
        self, now: float, running: TaskRuntime
    ) -> Optional[float]:
        """Token policies, preemptive modes: the first tick past the
        running task's time quota (when the wake at ``now`` stopped at
        it), or the first tick at which a READY row may cross a token
        level, whichever comes first (None: neither ever comes)."""
        period = self.config.scheduler.period_cycles
        dispatched = running.dispatch_time
        quota_open = dispatched is not None and now - dispatched < period
        # Row tokens after the grant at tick t: tokens + rate * (wsg +
        # max(0, t - last_update)).  A row on a level crosses at its
        # first positive grant.
        crossing = math.inf
        top = TOKEN_LEVELS[-1]
        for row in self._table.ready():
            tokens = row.tokens
            if tokens > top or row.estimated_cycles <= 0:
                continue
            for level in TOKEN_LEVELS:
                if level >= tokens:
                    break
            rate = PRIORITY_TOKENS[row.priority] / row.estimated_cycles
            gap = (level - tokens) / rate - row.waited_since_grant
            if gap <= 0:
                crossing = -math.inf
                break
            crossing = min(crossing, row.last_update_cycles + gap)
        if crossing == math.inf:
            if not quota_open:
                return None
            limit = math.inf
        else:
            # Float rounding in the grants may cross a little early: arm
            # early by a margin far above it.
            limit = crossing - 1e-6 * (period + abs(crossing - now))
        tick = self._next_tick
        while tick < limit and not (quota_open and tick - dispatched >= period):
            tick += period
        return tick

    def _arm_decision_tick(self, now: float) -> None:
        armed = self._armed_at
        if armed is not None and armed <= self._next_tick:
            return  # the chain's next instant is armed already
        tick = self._next_decision_tick(now)
        if tick is not None:
            self._arm(tick)

    def _arm(self, tick: float) -> None:
        """Arm the chain instant ``tick``, superseding a later arm."""
        armed = self._armed_at
        if armed is not None and armed <= tick:
            return
        self._armed_at = tick
        self._queue.arm(tick, self.device_id)

    def _arm_period(self, now: float) -> None:
        """Arm the chain's first tick at or after ``now``.

        Replays the skipped ticks before ``now`` first, so the armed tick
        is the chain's own next instant.  A no-op when an arm at or
        before that instant is queued or no chain exists.
        """
        if self._next_tick is None:
            return
        self._replay(now, False)
        self._arm(self._next_tick)

    def _replay(self, until: float, inclusive: bool) -> None:
        """Process the skipped chain ticks before ``until`` (and at it,
        when ``inclusive``), as the every-period clock would have.

        The ready set, the running task and the candidate are those of
        the whole span (any change is an event, and events replay first),
        so each ready row replays the span on its own
        (:meth:`TaskContext.replay_ticks`) and the span is decided once
        (:meth:`_hold_span`).
        """
        tick = self._next_tick
        if tick is None or tick > until or (tick == until and not inclusive):
            return
        period = self.config.scheduler.period_cycles
        table = self._table
        if not table.has_ready:
            # Nothing waits: a skipped tick changes nothing.
            while tick < until or (inclusive and tick == until):
                tick += period
            self._next_tick = tick
            return
        ticks = []
        while tick < until or (inclusive and tick == until):
            ticks.append(tick)
            tick += period
        self._next_tick = tick
        grants = self.policy.uses_tokens
        running = (
            self._runtimes[self._running_id]
            if self._running_id is not None
            else None
        )
        # With no decision to hold (NP mode, a trap in flight) nothing was
        # planned around token-level crossings, so a row may cross one.
        holds = running is not None and self.config.mode is not PreemptionMode.NP
        for row in table.ready():
            tokens = row.tokens
            row.replay_ticks(ticks, grants)
            if (
                holds
                and row.tokens != tokens
                and candidate_bucket(row.tokens) != candidate_bucket(tokens)
            ):
                raise RuntimeError(
                    f"device {self.device_id}: task {row.task_id} crossed "
                    f"a token level in the ticks skipped up to {ticks[-1]}"
                )
        if holds:
            self._hold_span(ticks, running)
        elif (
            running is None
            and self._reserved_task_id is None
            and ticks[-1] >= self._npu_reserved_until
        ):
            first = next(t for t in ticks if t >= self._npu_reserved_until)
            raise RuntimeError(
                f"device {self.device_id}: skipped tick at {first} "
                "would dispatch"
            )

    def _hold_span(self, ticks: List[float], running: TaskRuntime) -> None:
        """The preemption checks of the skipped ``ticks``, decided once.

        No row changed token bucket in the span (:meth:`_replay` checks),
        so the candidate and the token threshold are those of every tick,
        and the per-tick outcomes of :meth:`_keeps_running` come in three
        runs: ticks inside the time quota, then ticks at which the
        candidate outranks the running task, then the rest.  The outrank
        test can only turn false and a DRAIN choice stays DRAIN, because
        the running task's remaining time only shrinks.  So the first
        outranking tick decides the mechanism, a bisection finds the end
        of its run, and every tick of that run counts a DRAIN.
        """
        start = 0
        dispatched = running.dispatch_time
        if self.policy.uses_tokens and dispatched is not None:
            period = self.config.scheduler.period_cycles
            while start < len(ticks) and ticks[start] - dispatched < period:
                start += 1
        if start == len(ticks):
            return
        context = running.context
        table = self._table
        candidate = self.policy.select_ready(table)
        outranks = self.policy.outranks_running
        context.executed_cycles = running.progress_at(ticks[start])
        if outranks(candidate, context, table):
            if (
                self.config.mode is not PreemptionMode.DYNAMIC
                or select_mechanism(context, candidate) != MechanismChoice.DRAIN
            ):
                raise RuntimeError(
                    f"device {self.device_id}: skipped tick at {ticks[start]} "
                    "would preempt"
                )
            low, high = start + 1, len(ticks)
            while low < high:
                middle = (low + high) // 2
                context.executed_cycles = running.progress_at(ticks[middle])
                if outranks(candidate, context, table):
                    low = middle + 1
                else:
                    high = middle
            self._drain_decisions += low - start
        context.executed_cycles = running.progress_at(ticks[-1])

    def _accrue_ready(self, now: float) -> None:
        """Settle waiting time for every ready row up to ``now``.

        Called at read points only (period ticks); between reads, idle
        waiters cost nothing -- ``accrue_wait`` integrates the whole span
        since each row's ``last_update_cycles`` when it finally runs.
        """
        for row in self._table.ready():
            row.accrue_wait(now)

    def _dispatch(self, now: float, task: TaskRuntime) -> int:
        completion = task.dispatch(now)
        self._queued.pop(task.task_id, None)
        self._preempted.pop(task.task_id, None)
        self._checkpoint_durable_at.pop(task.task_id, None)
        self.policy.on_dispatch(task.context)
        self._queue.push(
            completion, _EventKind.COMPLETE, self.device_id, (task.task_id, task.epoch)
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "dispatch",
                f"dispatch t{task.task_id}",
                now,
                device=self.device_id,
                args={"task": task.task_id, "projected_end": completion},
            )
        return task.task_id

    def _record_run_segments(self, task: TaskRuntime, end: float) -> None:
        """Record the restore + run spans of the dispatch ending at ``end``."""
        start = task.dispatch_time
        if start is None:
            return
        # A device failure can end the dispatch inside its restore phase.
        restore_end = min(start + task.dispatch_restore, end)
        self.timeline.record(task.task_id, SegmentKind.RESTORE, start, restore_end)
        self.timeline.record(task.task_id, SegmentKind.RUN, restore_end, end)
        if self.tracer.enabled:
            # Zero-length restores become instants inside span(), mirroring
            # the Timeline's instants side list.
            self.tracer.span(
                "restore",
                f"restore t{task.task_id}",
                start,
                restore_end,
                device=self.device_id,
                args={"task": task.task_id},
            )
            self.tracer.span(
                "run",
                f"run t{task.task_id}",
                restore_end,
                end,
                device=self.device_id,
                args={"task": task.task_id},
            )

    def _keeps_running(
        self, now: float, running: TaskRuntime, candidate: TaskContext
    ) -> bool:
        """The preemption check of a wake at ``now``: whether ``running``
        keeps the array against ``candidate`` (a DYNAMIC DRAIN choice is
        counted here)."""
        # Token-driven policies re-rank on every period tick as waiting
        # tasks earn tokens; the scheduling-period time-quota (Table II)
        # guarantees the running task at least one quota of service so
        # token drift cannot ping-pong the NPU between two tasks.
        if self.policy.uses_tokens and running.dispatch_time is not None:
            if now - running.dispatch_time < self.config.scheduler.period_cycles:
                return True
        # Refresh the running task's accounted progress for ranking.
        running.context.executed_cycles = running.progress_at(now)
        if not self.policy.outranks_running(
            candidate, running.context, self._table
        ):
            return True
        if self.config.mode == PreemptionMode.DYNAMIC:
            if select_mechanism(running.context, candidate) == MechanismChoice.DRAIN:
                self._drain_decisions += 1
                return True
        return False

    def _wake(self, now: float) -> None:
        """Run the scheduler at a wake condition."""
        if self._running_id is None:
            if now < self._npu_reserved_until or self._reserved_task_id is not None:
                # A checkpoint trap is in flight, or the NPU is promised
                # to a preemption candidate whose DISPATCH event has not
                # fired yet (an arrival tying exactly with the trap's end
                # must not double-book the array -- it can preempt the
                # reserved task at the next wake instead).
                return
            candidate_ctx = self.policy.select_ready(self._table)
            if candidate_ctx is None:
                return
            self._running_id = self._dispatch(
                now, self._runtimes[candidate_ctx.task_id]
            )
            return

        if self.config.mode == PreemptionMode.NP:
            return

        candidate_ctx = self.policy.select_ready(self._table)
        if candidate_ctx is None:
            return
        running = self._runtimes[self._running_id]
        if self._keeps_running(now, running, candidate_ctx):
            return

        self._preempt(
            now,
            self._kill if self.config.mechanism.upper() == "KILL"
            else self._checkpoint,
            candidate_ctx.task_id,
        )

    @staticmethod
    def _trap(running: TaskRuntime, now: float, mechanism: PreemptionMechanism):
        """Apply ``mechanism`` at ``running``'s progress at ``now``: the
        outcome, the wall-clock instant the in-flight tile commits (the
        boundary), and the instant the trap frees the array.  A request
        arriving during the restore phase waits for it."""
        outcome = mechanism.preempt(running.profile, running.progress_at(now))
        boundary_wall = running.wall_time_at_offset(outcome.boundary_offset)
        return outcome, boundary_wall, boundary_wall + outcome.preemption_latency

    def _preempt(
        self,
        now: float,
        mechanism: PreemptionMechanism,
        candidate: Optional[int],
    ) -> Tuple[float, float]:
        """Trap the running task at ``now`` with ``mechanism`` and promise
        the array to ``candidate`` when the trap ends (None: a forced
        checkpoint, whose DISPATCH re-runs the scheduler).  Returns
        ``(free_at, checkpoint_bytes)``."""
        running = self._runtimes[self._running_id]
        victim = running.task_id
        outcome, boundary_wall, free_at = self._trap(running, now, mechanism)
        killed = isinstance(mechanism, KillMechanism)
        self._record_run_segments(running, boundary_wall)
        if outcome.preemption_latency > 0:
            self.timeline.record(
                victim, SegmentKind.CHECKPOINT, boundary_wall, free_at
            )
        if self.tracer.enabled:
            if candidate is None:
                label = f"evacuate t{victim}"
                args = {"victim": victim, "mechanism": "forced-checkpoint"}
            else:
                label = f"preempt t{victim}"
                args = {
                    "victim": victim,
                    "candidate": candidate,
                    "mechanism": "kill" if killed else "checkpoint",
                }
            args["checkpoint_bytes"] = outcome.checkpoint_bytes
            self.tracer.instant(
                "preemption", label, boundary_wall, device=self.device_id,
                args=args,
            )
            self.tracer.span(
                "checkpoint",
                f"checkpoint t{victim}",
                boundary_wall,
                free_at,
                device=self.device_id,
                args={"task": victim},
            )
        running.record_preemption(
            now=boundary_wall,
            retained_offset=outcome.retained_offset,
            restore_latency=outcome.restore_latency,
            checkpoint_bytes=outcome.checkpoint_bytes,
            killed=killed,
        )
        self.policy.on_requeue(running.context)
        # The victim is READY for accounting (it waits from the boundary
        # commit on) but its checkpoint is only durable once the trap DMA
        # finishes at ``free_at`` -- until then it is CHECKPOINTING in the
        # device lifecycle and must not be migrated.
        self._preempted[victim] = running
        self._checkpoint_durable_at[victim] = free_at
        self._npu_reserved_until = free_at
        self._preemption_count += 1
        self._running_id = None
        self._reserved_task_id = candidate
        self._queue.push(free_at, _EventKind.DISPATCH, self.device_id, candidate)
        return free_at, outcome.checkpoint_bytes


class NPUSimulator:
    """Simulate one workload on one NPU under one scheduling configuration.

    Batch interface over :class:`DeviceSim`: all arrivals are injected
    up-front and the event loop runs to completion.
    """

    def __init__(self, config: SimulationConfig, policy: Policy) -> None:
        self.config = config
        self.policy = policy

    def run(self, tasks: Sequence[TaskRuntime]) -> SimulationResult:
        """Execute the workload to completion and return the result."""
        if not tasks:
            raise ValueError("need at least one task")
        sim = DeviceSim(self.config, self.policy)
        for task in tasks:
            sim.inject(task)
        while sim.has_live_tasks and sim.next_event_time() is not None:
            sim.step()
        result = sim.result()
        assert result is not None
        return result

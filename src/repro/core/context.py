"""The inference task context table (paper Fig 4).

One :class:`TaskContext` row per co-located task, tracking exactly the
fields of Fig 4: TaskID, priority, token count, executed time, waited
time, estimated time, and state.  The multi-task simulator owns a table of
these; the PREMA policy core reads/writes it.  The TaskID doubles as the
ASID the MMU uses for memory protection (Sec IV-A) -- modeled here as the
table key.

The table keeps an **incremental ready-queue index**: ``ready()`` used to
scan and sort every row ever admitted (completed rows included), which
made each scheduler wake O(total tasks) on long arrival traces.  Rows now
notify their owning table on every ``state`` assignment (``state`` is a
property), so index maintenance costs O(log r) search plus a C-speed
list shift bounded by the *ready* population r -- never by how many
tasks have come and gone -- and ``ready()`` costs O(r).
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.tokens import PRIORITY_TOKENS, Priority, initial_tokens


class TaskState(enum.Enum):
    """Lifecycle of a dispatched inference task inside the NPU scheduler.

    ``MIGRATING`` marks a context row in flight between two devices'
    tables: its checkpoint is crossing the cluster interconnect, so it is
    owned by no table, yet it keeps *waiting* (transit time is part of
    the slowdown the token economy compensates).  The destination device
    flips it back to ``READY`` at re-admission.
    """

    READY = "ready"
    RUNNING = "running"
    CHECKPOINTING = "checkpointing"
    MIGRATING = "migrating"
    DONE = "done"


@dataclasses.dataclass
class TaskContext:
    """One row of the inference task context table (Fig 4)."""

    task_id: int
    priority: Priority
    #: Benchmark/model name (scheduler-visible request metadata).
    benchmark: str = ""
    #: Scheduling tokens (Algorithm 2); initialized from the priority.
    tokens: float = 0.0
    #: Cycles of useful execution retained so far.
    executed_cycles: float = 0.0
    #: Cycles spent waiting in the ready queue.
    waited_cycles: float = 0.0
    #: Predicted network-wide execution time (Algorithm 1 output).
    estimated_cycles: float = 0.0
    state: TaskState = TaskState.READY
    #: Simulation timestamp of the last waited/executed accounting update.
    last_update_cycles: float = 0.0
    #: Waiting accrued since the last token grant (Algorithm 2 line 7).
    waited_since_grant: float = 0.0

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError("task_id must be >= 0")
        if self.tokens == 0.0:
            self.tokens = float(initial_tokens(self.priority))

    @property
    def estimated_remaining_cycles(self) -> float:
        """Estimated work left (Algorithm 3 lines 1-2), floored at zero."""
        return max(0.0, self.estimated_cycles - self.executed_cycles)

    def grant_tokens(self, amount: float) -> None:
        if amount < 0:
            raise ValueError("token grants must be >= 0")
        self.tokens += amount
        self.waited_since_grant = 0.0

    def accrue_wait(self, now_cycles: float) -> None:
        """Account waiting time up to ``now_cycles`` (READY tasks only).

        ``last_update_cycles`` may legitimately sit in the future: a task
        preempted at scheduler-wake time re-enters the ready queue at the
        (later) tile-boundary commit, so accruals before that instant are
        no-ops rather than negative waits.

        ``MIGRATING`` rows accrue like ``READY`` ones: a task in transit
        over the interconnect is still waiting for service, and dropping
        that span would violate the "a migrated task never loses accrued
        wait" invariant the cluster tests pin.
        """
        delta = now_cycles - self.last_update_cycles
        if delta <= 0:
            return
        if self._state in (TaskState.READY, TaskState.MIGRATING):
            self.waited_cycles += delta
            self.waited_since_grant += delta
        self.last_update_cycles = now_cycles

    def replay_ticks(self, ticks: Sequence[float], grants: bool) -> None:
        """Replay skipped period ticks on this READY row.

        At each of ``ticks`` (ascending), :meth:`accrue_wait` and then,
        when ``grants`` and the estimate is positive, Algorithm 2's grant
        (:func:`~repro.core.tokens.token_increment` into
        :meth:`grant_tokens`): the same float operations in the same
        order, so the row ends bit-identical to ticking it one by one.  A
        tick before ``last_update_cycles`` accrues nothing.
        """
        estimated = self.estimated_cycles
        grants = grants and estimated > 0
        weight = PRIORITY_TOKENS[self.priority]
        last = self.last_update_cycles
        waited = self.waited_cycles
        since = self.waited_since_grant
        tokens = self.tokens
        for tick in ticks:
            delta = tick - last
            if delta > 0:
                waited += delta
                since += delta
                last = tick
            if grants:
                tokens += weight * (since / estimated)
                since = 0.0
        self.last_update_cycles = last
        self.waited_cycles = waited
        self.waited_since_grant = since
        self.tokens = tokens


def _state_get(self: TaskContext) -> TaskState:
    return self._state


def _state_set(self: TaskContext, value: TaskState) -> None:
    self.__dict__["_state"] = value
    table = self.__dict__.get("_owner")
    if table is not None:
        table._reindex(self)


# ``state`` stays a dataclass field (constructor keyword, repr, eq) but
# reads/writes go through a property so the owning ContextTable can keep
# its ready-queue index in sync with *direct* assignments -- the runtime
# layer (TaskRuntime.dispatch/record_preemption/complete) and tests both
# assign ``row.state`` without going through the table.
TaskContext.state = property(_state_get, _state_set)  # type: ignore[assignment]


class ContextTable:
    """The preemption module's task table: id -> row (Fig 4).

    Maintains an id-sorted index of READY rows (bisect over a compact
    int list: O(log r) search + memmove-cheap shift, r = ready rows) and
    the set of RUNNING rows, updated on every state assignment of an
    owned row.  A row can be owned by at most one table at a time
    (``add`` claims it, ``remove`` releases it) -- exactly the
    simulator's migration lifecycle.
    """

    def __init__(self) -> None:
        self._rows: Dict[int, TaskContext] = {}
        self._ready_ids: List[int] = []
        self._ready_set: set = set()
        self._running_ids: set = set()

    def add(self, context: TaskContext) -> None:
        if context.task_id in self._rows:
            raise ValueError(f"duplicate task id {context.task_id}")
        self._rows[context.task_id] = context
        context.__dict__["_owner"] = self
        self._reindex(context)

    def remove(self, task_id: int) -> TaskContext:
        if task_id not in self._rows:
            raise KeyError(f"no such task {task_id}")
        context = self._rows.pop(task_id)
        context.__dict__.pop("_owner", None)
        self._drop_from_index(task_id)
        return context

    def _discard_ready(self, task_id: int) -> None:
        if task_id in self._ready_set:
            self._ready_set.discard(task_id)
            index = bisect.bisect_left(self._ready_ids, task_id)
            self._ready_ids.pop(index)

    def _drop_from_index(self, task_id: int) -> None:
        self._discard_ready(task_id)
        self._running_ids.discard(task_id)

    def _reindex(self, context: TaskContext) -> None:
        """Reconcile the indices with ``context``'s current state."""
        task_id = context.task_id
        if self._rows.get(task_id) is not context:
            return  # stale ownership backref; not our row anymore
        if context.state is TaskState.READY:
            if task_id not in self._ready_set:
                self._ready_set.add(task_id)
                bisect.insort(self._ready_ids, task_id)
        else:
            self._discard_ready(task_id)
        if context.state is TaskState.RUNNING:
            self._running_ids.add(task_id)
        else:
            self._running_ids.discard(task_id)

    def __getitem__(self, task_id: int) -> TaskContext:
        return self._rows[task_id]

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TaskContext]:
        return iter(self._rows.values())

    @property
    def has_ready(self) -> bool:
        """O(1): is any row READY?"""
        return bool(self._ready_ids)

    @property
    def ready_count(self) -> int:
        return len(self._ready_ids)

    def ready(self) -> List[TaskContext]:
        """The ReadyQueue of Algorithm 2 (stable by task id = FCFS order).

        O(ready rows): built from the incremental index, independent of
        how many completed rows the table has accumulated.
        """
        rows = self._rows
        return [rows[task_id] for task_id in self._ready_ids]

    def running(self) -> Optional[TaskContext]:
        if not self._running_ids:
            return None
        if len(self._running_ids) == 1:
            return self._rows[next(iter(self._running_ids))]
        # Multiple RUNNING rows only arise in hand-built tables; keep the
        # historical first-in-insertion-order answer.
        for row in self._rows.values():
            if row.state is TaskState.RUNNING:
                return row
        return None

    def sram_bits(self, bits_per_field: int = 64, fields: int = 7) -> int:
        """On-chip storage for the table (Sec VI-F: 448 bits/task)."""
        return bits_per_field * fields * len(self._rows)

"""Scheduling policies (paper Sec VI-A).

Six policies, matching the evaluation's x-axes:

=======  ==========  ===============================================
Name     Predictor?  Selection rule
=======  ==========  ===============================================
FCFS     no          earliest arrival first (TensorRT-server baseline)
RRB      no          round-robin across ready tasks
HPF      no          highest priority first, FCFS among equals
TOKEN    yes         token candidate group, FCFS among candidates
SJF      yes         shortest estimated remaining job first
PREMA    yes         token candidate group + shortest estimated job
=======  ==========  ===============================================

Each policy also defines ``outranks`` -- whether a would-be candidate
should preempt the running task under a preemptive scheduler.  FCFS and
RRB have no urgency ordering, so they never preempt (they exist as
non-preemptive baselines).

The rules are written against a ready list: ``select(ready)`` and
``outranks(candidate, running, ready)``.  The simulator calls
``select_ready(table)`` and ``outranks_running(candidate, running,
table)``, which apply the same rules to ``table.ready()``, the context
table's id-sorted ready index.  A scan is cheap at the depth the paper
sizes the task context table for, 16 co-located tasks (Sec VI-F).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.context import ContextTable, TaskContext
from repro.core.scheduler import PremaPolicyCore, SchedulerConfig
from repro.core.tokens import ClusterTokenLedger, candidate_threshold


class Policy:
    """Interface consumed by the simulator."""

    name: str = "abstract"
    #: Does the policy read Time_estimated (Algorithm 1 output)?
    uses_predictor: bool = False
    #: Does the policy maintain tokens on period ticks?
    uses_tokens: bool = False

    def on_period(self, table: ContextTable) -> None:
        """Hook invoked at each scheduling-period tick."""

    def on_admit(self, context: TaskContext, now: float) -> None:
        """Hook: ``context`` joined this device's table (READY).

        Fires at every processed arrival -- both fresh requests and
        work-stealing migrations in.  Token state lives on the context
        row, so tokens earned elsewhere travel with a migrated task and
        the default is a no-op.
        """

    def on_remove(self, context: TaskContext, now: float) -> None:
        """Hook: ``context`` left this device (migration out).

        Waiting time has already been settled up to ``now``; policies
        keeping per-device aggregate state should forget the row here.
        """

    def on_dispatch(self, context: TaskContext) -> None:
        """Hook: ``context`` left the ready queue to run."""

    def on_requeue(self, context: TaskContext) -> None:
        """Hook: ``context`` re-entered the ready queue (preempted);
        its accounted progress has just been refreshed."""

    def select(self, ready: Sequence[TaskContext]) -> Optional[TaskContext]:
        """Pick the next task among the ready queue (None when empty)."""
        raise NotImplementedError

    def select_ready(self, table: ContextTable) -> Optional[TaskContext]:
        """The simulator's selection: ``select`` over the table's ready
        queue."""
        return self.select(table.ready())

    def outranks(
        self,
        candidate: TaskContext,
        running: TaskContext,
        ready: Sequence[TaskContext] = (),
    ) -> bool:
        """Should ``candidate`` preempt ``running``?

        ``ready`` is the full ready queue (the candidate included), needed
        by token-threshold policies whose preemption intent depends on the
        whole queue's token state.
        """
        return False

    def outranks_running(
        self,
        candidate: TaskContext,
        running: TaskContext,
        table: ContextTable,
    ) -> bool:
        """The simulator's preemption check: ``outranks`` against the
        table's ready queue."""
        return self.outranks(candidate, running, table.ready())

    def reset(self) -> None:
        """Clear any cross-run state (round-robin cursors and the like)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FcfsPolicy(Policy):
    """Non-preemptive first-come first-serve (the NP-FCFS baseline)."""

    name = "FCFS"

    def select(self, ready: Sequence[TaskContext]) -> Optional[TaskContext]:
        if not ready:
            return None
        return min(ready, key=lambda row: row.task_id)

    def select_ready(self, table: ContextTable) -> Optional[TaskContext]:
        # The table's ready index is id-sorted, and FCFS order *is* id
        # order (ids are assigned in arrival order).
        ready = table.ready()
        return ready[0] if ready else None


class RoundRobinPolicy(Policy):
    """Round-robin among the DNN *models* (Sec VI-A).

    Run-to-completion round-robin over tasks degenerates to FCFS, so the
    rotation is over benchmark names: each pick serves the next model in
    alphabetical rotation that has a ready task (FCFS within a model).
    ``select`` is pure; the rotation cursor moves only when a task is
    dispatched (:meth:`on_dispatch`), so a preemptive scheduler that
    consults the policy at every wake without dispatching leaves the
    rotation where it was.  The ready queue is at most the live task
    set, so the per-pick scan stays O(live).
    """

    name = "RRB"

    def __init__(self) -> None:
        self._last_model: str = ""

    def select(self, ready: Sequence[TaskContext]) -> Optional[TaskContext]:
        if not ready:
            return None
        models = sorted({row.benchmark for row in ready})
        chosen_model = next(
            (m for m in models if m > self._last_model), models[0]
        )
        return min(
            (row for row in ready if row.benchmark == chosen_model),
            key=lambda row: row.task_id,
        )

    def on_dispatch(self, context: TaskContext) -> None:
        self._last_model = context.benchmark

    def reset(self) -> None:
        self._last_model = ""


class HpfPolicy(Policy):
    """High-priority first; FCFS among equal priorities."""

    name = "HPF"

    def select(self, ready: Sequence[TaskContext]) -> Optional[TaskContext]:
        if not ready:
            return None
        return min(ready, key=lambda row: (-int(row.priority), row.task_id))

    def outranks(
        self,
        candidate: TaskContext,
        running: TaskContext,
        ready: Sequence[TaskContext] = (),
    ) -> bool:
        return int(candidate.priority) > int(running.priority)


class _TokenPolicy(Policy):
    """Period grants and the cluster ledger, shared by TOKEN and PREMA.

    ``ledger`` is the cluster-global token ledger (None: the per-device
    threshold semantics of the single-NPU paper setting).  Its entries
    follow the row through the ready queue: registered on admit and
    requeue, dropped on dispatch and removal, and settled to the granted
    counts at every period tick.
    """

    uses_predictor = True
    uses_tokens = True

    def __init__(
        self,
        core: Optional[PremaPolicyCore] = None,
        ledger: Optional[ClusterTokenLedger] = None,
    ) -> None:
        self.core = core or PremaPolicyCore()
        self._ledger = ledger

    def _ledger_max(self, local_max: float) -> float:
        """Fold the cluster ledger's maximum into a local token maximum
        (0.0 gives the ledger's own maximum, or 0.0 without a ledger)."""
        if self._ledger is None:
            return local_max
        return max(local_max, self._ledger.ready_max_tokens())

    def on_period(self, table: ContextTable) -> None:
        self.core.grant_periodic_tokens(table)
        if self._ledger is not None:
            for row in table.ready():
                self._ledger.activate(row.task_id, row.tokens)

    def on_admit(self, context: TaskContext, now: float) -> None:
        if self._ledger is not None:
            self._ledger.activate(context.task_id, context.tokens)

    def on_remove(self, context: TaskContext, now: float) -> None:
        if self._ledger is not None:
            self._ledger.deactivate(context.task_id)

    def on_dispatch(self, context: TaskContext) -> None:
        if self._ledger is not None:
            self._ledger.deactivate(context.task_id)

    def on_requeue(self, context: TaskContext) -> None:
        if self._ledger is not None:
            self._ledger.activate(context.task_id, context.tokens)


class TokenPolicy(_TokenPolicy):
    """Token-based candidate group, naive FCFS among candidates (Sec VI-A)."""

    name = "TOKEN"

    def select(self, ready: Sequence[TaskContext]) -> Optional[TaskContext]:
        if not ready:
            return None
        threshold = candidate_threshold(
            self._ledger_max(max(row.tokens for row in ready))
        )
        candidates = [row for row in ready if row.tokens > threshold]
        if not candidates:
            candidates = list(ready)
        return min(candidates, key=lambda row: row.task_id)

    def outranks(
        self,
        candidate: TaskContext,
        running: TaskContext,
        ready: Sequence[TaskContext] = (),
    ) -> bool:
        # The running task competes in the candidate group: preemption
        # fires only when it falls below the dynamic token threshold while
        # a waiting task clears it.
        pool = list(ready) + [running]
        threshold = candidate_threshold(
            self._ledger_max(max(row.tokens for row in pool))
        )
        return running.tokens <= threshold < candidate.tokens


class SjfPolicy(Policy):
    """Shortest estimated job first: latency-optimal, priority-blind."""

    name = "SJF"
    uses_predictor = True

    def select(self, ready: Sequence[TaskContext]) -> Optional[TaskContext]:
        if not ready:
            return None
        return min(
            ready, key=lambda row: (row.estimated_remaining_cycles, row.task_id)
        )

    def outranks(
        self,
        candidate: TaskContext,
        running: TaskContext,
        ready: Sequence[TaskContext] = (),
    ) -> bool:
        return (
            candidate.estimated_remaining_cycles
            < running.estimated_remaining_cycles
        )


class PremaPolicy(_TokenPolicy):
    """The full PREMA policy (Algorithm 2) via the core implementation."""

    name = "PREMA"

    def select(self, ready: Sequence[TaskContext]) -> Optional[TaskContext]:
        if not ready:
            return None
        return self.core.select_candidate(_ReadyView(ready), self._ledger_max(0.0))

    def outranks(
        self,
        candidate: TaskContext,
        running: TaskContext,
        ready: Sequence[TaskContext] = (),
    ) -> bool:
        return self.core.should_preempt(
            candidate, running, ready, self._ledger_max(0.0)
        )


class _ReadyView:
    """Adapter presenting a ready list through the ContextTable interface.

    The core ranks by a strict total order (ties break on task id), so
    the list's order does not matter.
    """

    def __init__(self, ready: Sequence[TaskContext]) -> None:
        self._ready = ready

    def ready(self) -> Sequence[TaskContext]:
        return self._ready


POLICY_NAMES = ("FCFS", "RRB", "HPF", "TOKEN", "SJF", "PREMA")

_FACTORIES: Dict[str, type] = {
    "FCFS": FcfsPolicy,
    "RRB": RoundRobinPolicy,
    "HPF": HpfPolicy,
    "TOKEN": TokenPolicy,
    "SJF": SjfPolicy,
    "PREMA": PremaPolicy,
}


def make_policy(
    name: str,
    scheduler_config: Optional[SchedulerConfig] = None,
    ledger: Optional[ClusterTokenLedger] = None,
) -> Policy:
    """Instantiate a policy by its paper name (case-insensitive).

    ``ledger`` attaches a cluster-global token ledger to the token
    policies (TOKEN/PREMA); the predictor-free policies ignore it.
    """
    cls = _FACTORIES.get(name.upper())
    if cls is None:
        raise KeyError(f"unknown policy {name!r}; known: {POLICY_NAMES}")
    if cls in (TokenPolicy, PremaPolicy):
        core = PremaPolicyCore(scheduler_config)
        return cls(core, ledger=ledger)
    return cls()

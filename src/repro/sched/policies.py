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

Two selection surfaces exist:

- ``select(ready)`` / ``outranks(candidate, running, ready)`` operate on
  an explicit ready list -- the reference semantics, used directly by
  tests and ad-hoc callers.
- ``select_ready(table)`` / ``outranks_running(candidate, running,
  table)`` are the simulator's hot path.  Policies with an ordering
  (HPF, SJF, TOKEN, PREMA) back these with **incrementally maintained
  priority structures** (lazy-deletion heaps; token policies bucket rows
  by the Algorithm-2 candidate threshold grid), updated through the
  lifecycle hooks (``on_admit``/``on_dispatch``/``on_requeue``/
  ``on_remove``) and rebuilt wholesale at each period re-rank
  (``on_period``), when every ready row's token count moves at once.
  Every selection rule ranks by a strict total order (ties break on task
  id), so the structures return exactly the row the reference scan
  returns -- they change the cost of a wake from O(ready) to O(log
  ready), never the decision.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.context import ContextTable, TaskContext, TaskState
from repro.core.scheduler import PremaPolicyCore, SchedulerConfig
from repro.core.tokens import (
    NUM_CANDIDATE_BUCKETS,
    ClusterTokenLedger,
    candidate_bucket,
    candidate_threshold,
)


class Policy:
    """Interface consumed by the simulator."""

    name: str = "abstract"
    #: Does the policy read Time_estimated (Algorithm 1 output)?
    uses_predictor: bool = False
    #: Does the policy maintain tokens on period ticks?
    uses_tokens: bool = False
    #: Cluster-global token ledger (token policies only; None = the
    #: per-device threshold semantics of the single-NPU paper setting).
    _ledger: Optional[ClusterTokenLedger] = None

    def _ledger_max(self, local_max: float) -> float:
        """Fold the cluster ledger's maximum into a local token maximum."""
        if self._ledger is None:
            return local_max
        return max(local_max, self._ledger.ready_max_tokens())

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
        """Hot-path selection against the live table.

        Equivalent to ``select(table.ready())`` whenever the lifecycle
        hooks above are honored (the simulator always does); policies
        with incremental structures override this with an O(log n) path
        that validates its pick and falls back to the reference scan on
        any detectable staleness.
        """
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
        """Hot-path preemption check against the live table.

        Equivalent to ``outranks(candidate, running, table.ready())``.
        """
        return self.outranks(candidate, running, table.ready())

    def reset(self) -> None:
        """Clear any cross-run state (round-robin cursors and the like)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ----------------------------------------------------------------------
# Incremental priority structures
# ----------------------------------------------------------------------
class _LazyMinHeap:
    """Min-heap over context rows with O(1) lazy deletion.

    ``_live`` maps task id -> (key, row) for resident rows; heap entries
    are (key, task_id, tie) and are validated against ``_live`` when they
    surface, so ``discard`` never searches the heap.  Keys must be stable
    while a row is resident (re-adding with a fresh key supersedes the
    stale entries).  The integer tie-breaker keeps tuple comparison away
    from the unorderable row objects when duplicate (key, id) entries
    coexist.
    """

    __slots__ = ("_key", "_heap", "_live", "_tie")

    def __init__(self, key: Callable[[TaskContext], object]) -> None:
        self._key = key
        self._heap: List[Tuple[object, int, int]] = []
        self._live: Dict[int, Tuple[object, TaskContext]] = {}
        self._tie = itertools.count()

    def __len__(self) -> int:
        return len(self._live)

    def add(self, row: TaskContext) -> None:
        key = self._key(row)
        self._live[row.task_id] = (key, row)
        heapq.heappush(self._heap, (key, row.task_id, next(self._tie)))
        if len(self._heap) > 64 and len(self._heap) > 2 * len(self._live):
            self._compact()

    def discard(self, task_id: int) -> None:
        self._live.pop(task_id, None)

    def clear(self) -> None:
        self._heap.clear()
        self._live.clear()

    def rebuild(self, rows: Sequence[TaskContext]) -> None:
        self.clear()
        for row in rows:
            self.add(row)

    def peek(self) -> Optional[TaskContext]:
        """The live row with the smallest key (None when empty)."""
        heap = self._heap
        live = self._live
        while heap:
            key, task_id, _ = heap[0]
            entry = live.get(task_id)
            if entry is not None and entry[0] == key:
                return entry[1]
            heapq.heappop(heap)
        return None

    def _compact(self) -> None:
        """Drop accumulated stale entries (amortized O(1) per operation)."""
        self._heap = [
            (key, task_id, next(self._tie))
            for task_id, (key, _row) in self._live.items()
        ]
        heapq.heapify(self._heap)


class _TokenBuckets:
    """Candidate-group structure for the token policies (Algorithm 2).

    Ready rows are bucketed by :func:`candidate_bucket` -- the number of
    priority token levels strictly below their token count -- with one
    lazy min-heap per bucket ordered by the policy's selection key, plus
    one lazy max-heap on token count.  The candidate group ("tokens above
    the dynamic threshold") is then exactly the union of the buckets at
    or above the maximum row's bucket, so selection inspects at most
    ``NUM_CANDIDATE_BUCKETS`` heap tops.  Token counts move at every
    period tick.  A fired tick rebuilds the structure wholesale.  Ticks
    the simulator skips and replays grant on the rows alone
    (:meth:`~repro.core.context.TaskContext.replay_ticks`).  While a task
    runs under a preemptive mode they are planned so that no row crosses
    a level (the replay raises if one does), so every row stays in its
    bucket and the max-heap's top -- its key possibly stale, but never
    above the row's count -- still lies in the maximum's bucket, which
    is all the threshold reads.  A replay that may cross (NP mode, a
    checkpoint trap) ends with ``on_period``, which rebuilds.
    """

    __slots__ = ("_select_key", "_buckets", "_max_heap", "_bucket_of")

    def __init__(self, select_key: Callable[[TaskContext], object]) -> None:
        self._select_key = select_key
        self._buckets = [
            _LazyMinHeap(select_key) for _ in range(NUM_CANDIDATE_BUCKETS)
        ]
        self._max_heap = _LazyMinHeap(
            lambda row: (-row.tokens, row.task_id)
        )
        self._bucket_of: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._bucket_of)

    def add(self, row: TaskContext) -> None:
        bucket = candidate_bucket(row.tokens)
        self._bucket_of[row.task_id] = bucket
        self._buckets[bucket].add(row)
        self._max_heap.add(row)

    def discard(self, task_id: int) -> None:
        bucket = self._bucket_of.pop(task_id, None)
        if bucket is not None:
            self._buckets[bucket].discard(task_id)
            self._max_heap.discard(task_id)

    def clear(self) -> None:
        for bucket in self._buckets:
            bucket.clear()
        self._max_heap.clear()
        self._bucket_of.clear()

    def rebuild(self, rows: Sequence[TaskContext]) -> None:
        self.clear()
        for row in rows:
            self.add(row)

    def max_tokens_row(self) -> Optional[TaskContext]:
        return self._max_heap.peek()

    def _best_in(self, buckets) -> Optional[TaskContext]:
        best: Optional[TaskContext] = None
        best_key: object = None
        for bucket in buckets:
            row = bucket.peek()
            if row is None:
                continue
            key = self._select_key(row)
            if best is None or key < best_key:  # type: ignore[operator]
                best, best_key = row, key
        return best

    def select(self, external_max_tokens: float = 0.0) -> Optional[TaskContext]:
        """Best candidate row, or None to fall back to the reference scan.

        ``external_max_tokens`` raises the threshold to a cluster-global
        maximum (ledger-aware policies).  When that cluster maximum
        excludes every local row, the Algorithm-2 fallback serves the
        best local row outright -- exactly the reference semantics, still
        from bucket-top peeks.
        """
        top = self._max_heap.peek()
        if top is None:
            return None
        effective_max = max(top.tokens, external_max_tokens)
        threshold = candidate_threshold(effective_max)
        start = candidate_bucket(effective_max)
        best = self._best_in(self._buckets[start:])
        if best is not None and best.tokens > threshold:
            return best
        if external_max_tokens > top.tokens:
            # The threshold is driven by a remote device's maximum and no
            # local row clears it: serve the best local row regardless
            # (the device must not idle on account of a remote task).
            return self._best_in(self._buckets)
        # Degenerate token states (non-positive counts) exist only in
        # hand-built tables; let the caller rescan.
        return None


class _IncrementalReadyPolicy(Policy):
    """Lifecycle plumbing shared by the structure-backed policies.

    Structures are advisory with two safety nets for callers that drive
    ``select_ready`` without the lifecycle hooks (or mutate row states
    directly): a population-count check rebuilds the structure from the
    table before use, and every fast-path pick is validated to be a
    READY row still resident in the table (stale picks trigger a rebuild
    and fall back to the reference scan).  What the nets cannot promise
    to catch is hookless mutation that leaves both the count and the
    structure's top pick intact -- ranking-input edits (tokens,
    estimates) on resident ready rows, or count-preserving paired
    membership changes where the stale pick stays valid.  The simulator
    always speaks the full hook protocol, and direct ``select()``
    callers bypass the structures entirely.
    """

    def _structure(self):
        raise NotImplementedError

    def on_admit(self, context: TaskContext, now: float) -> None:
        self._structure().add(context)
        if self._ledger is not None:
            self._ledger.activate(context.task_id, context.tokens)

    def on_remove(self, context: TaskContext, now: float) -> None:
        self._structure().discard(context.task_id)
        if self._ledger is not None:
            self._ledger.deactivate(context.task_id)

    def on_dispatch(self, context: TaskContext) -> None:
        self._structure().discard(context.task_id)
        if self._ledger is not None:
            self._ledger.deactivate(context.task_id)

    def on_requeue(self, context: TaskContext) -> None:
        self._structure().add(context)
        if self._ledger is not None:
            self._ledger.activate(context.task_id, context.tokens)

    def reset(self) -> None:
        self._structure().clear()

    def _sync(self, table: ContextTable) -> None:
        structure = self._structure()
        if len(structure) != table.ready_count:
            structure.rebuild(table.ready())

    def _validated(
        self, row: Optional[TaskContext], table: ContextTable
    ) -> Optional[TaskContext]:
        """Accept a fast-path pick only if it is still a live ready row."""
        if (
            row is not None
            and row.state is TaskState.READY
            and row.task_id in table
            and table[row.task_id] is row
        ):
            return row
        if row is not None:
            # Stale structure despite matching counts: resync for next time.
            self._structure().rebuild(table.ready())
        return None


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


class HpfPolicy(_IncrementalReadyPolicy):
    """High-priority first; FCFS among equal priorities."""

    name = "HPF"

    def __init__(self) -> None:
        self._heap = _LazyMinHeap(
            lambda row: (-int(row.priority), row.task_id)
        )

    def _structure(self):
        return self._heap

    def select(self, ready: Sequence[TaskContext]) -> Optional[TaskContext]:
        if not ready:
            return None
        return min(ready, key=lambda row: (-int(row.priority), row.task_id))

    def select_ready(self, table: ContextTable) -> Optional[TaskContext]:
        if not table.has_ready:
            return None
        self._sync(table)
        row = self._validated(self._heap.peek(), table)
        return row if row is not None else self.select(table.ready())

    def outranks(
        self,
        candidate: TaskContext,
        running: TaskContext,
        ready: Sequence[TaskContext] = (),
    ) -> bool:
        return int(candidate.priority) > int(running.priority)

    def outranks_running(
        self,
        candidate: TaskContext,
        running: TaskContext,
        table: ContextTable,
    ) -> bool:
        return self.outranks(candidate, running)


class TokenPolicy(_IncrementalReadyPolicy):
    """Token-based candidate group, naive FCFS among candidates (Sec VI-A)."""

    name = "TOKEN"
    uses_predictor = True
    uses_tokens = True

    def __init__(
        self,
        core: Optional[PremaPolicyCore] = None,
        ledger: Optional[ClusterTokenLedger] = None,
    ) -> None:
        self._core = core or PremaPolicyCore()
        self._ledger = ledger
        self._buckets = _TokenBuckets(lambda row: row.task_id)

    def _structure(self):
        return self._buckets

    def on_period(self, table: ContextTable) -> None:
        self._core.grant_periodic_tokens(table)
        # Every ready row's tokens may have moved: period re-ranks
        # invalidate the buckets wholesale -- and are the settlement
        # point where the cluster ledger learns the new counts.
        ready = table.ready()
        self._buckets.rebuild(ready)
        if self._ledger is not None:
            for row in ready:
                self._ledger.activate(row.task_id, row.tokens)

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

    def select_ready(self, table: ContextTable) -> Optional[TaskContext]:
        if not table.has_ready:
            return None
        self._sync(table)
        external = (
            self._ledger.ready_max_tokens() if self._ledger is not None else 0.0
        )
        row = self._validated(self._buckets.select(external), table)
        return row if row is not None else self.select(table.ready())

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

    def outranks_running(
        self,
        candidate: TaskContext,
        running: TaskContext,
        table: ContextTable,
    ) -> bool:
        self._sync(table)
        top = self._buckets.max_tokens_row()
        ready_max = top.tokens if top is not None else running.tokens
        threshold = candidate_threshold(
            self._ledger_max(max(ready_max, running.tokens))
        )
        return running.tokens <= threshold < candidate.tokens


class SjfPolicy(_IncrementalReadyPolicy):
    """Shortest estimated job first: latency-optimal, priority-blind."""

    name = "SJF"
    uses_predictor = True

    def __init__(self) -> None:
        # estimated_remaining_cycles is stable while a row sits in the
        # ready queue (progress only moves while running, and a preempted
        # row re-enters through on_requeue with a fresh key).
        self._heap = _LazyMinHeap(
            lambda row: (row.estimated_remaining_cycles, row.task_id)
        )

    def _structure(self):
        return self._heap

    def select(self, ready: Sequence[TaskContext]) -> Optional[TaskContext]:
        if not ready:
            return None
        return min(
            ready, key=lambda row: (row.estimated_remaining_cycles, row.task_id)
        )

    def select_ready(self, table: ContextTable) -> Optional[TaskContext]:
        if not table.has_ready:
            return None
        self._sync(table)
        row = self._validated(self._heap.peek(), table)
        return row if row is not None else self.select(table.ready())

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

    def outranks_running(
        self,
        candidate: TaskContext,
        running: TaskContext,
        table: ContextTable,
    ) -> bool:
        return self.outranks(candidate, running)


class PremaPolicy(_IncrementalReadyPolicy):
    """The full PREMA policy (Algorithm 2) via the core implementation."""

    name = "PREMA"
    uses_predictor = True
    uses_tokens = True

    def __init__(
        self,
        core: Optional[PremaPolicyCore] = None,
        ledger: Optional[ClusterTokenLedger] = None,
    ) -> None:
        self.core = core or PremaPolicyCore()
        self._ledger = ledger
        self._buckets = _TokenBuckets(
            lambda row: (row.estimated_remaining_cycles, row.task_id)
        )

    def _structure(self):
        return self._buckets

    def on_period(self, table: ContextTable) -> None:
        self.core.grant_periodic_tokens(table)
        ready = table.ready()
        self._buckets.rebuild(ready)
        if self._ledger is not None:
            for row in ready:
                self._ledger.activate(row.task_id, row.tokens)

    def select(self, ready: Sequence[TaskContext]) -> Optional[TaskContext]:
        if not ready:
            return None
        table_like = _ReadyView(ready)
        external = (
            self._ledger.ready_max_tokens() if self._ledger is not None else 0.0
        )
        return self.core.select_candidate(table_like, external)

    def select_ready(self, table: ContextTable) -> Optional[TaskContext]:
        if not table.has_ready:
            return None
        self._sync(table)
        external = (
            self._ledger.ready_max_tokens() if self._ledger is not None else 0.0
        )
        row = self._validated(self._buckets.select(external), table)
        return row if row is not None else self.select(table.ready())

    def outranks(
        self,
        candidate: TaskContext,
        running: TaskContext,
        ready: Sequence[TaskContext] = (),
    ) -> bool:
        external = (
            self._ledger.ready_max_tokens() if self._ledger is not None else 0.0
        )
        return self.core.should_preempt(candidate, running, ready, external)

    def outranks_running(
        self,
        candidate: TaskContext,
        running: TaskContext,
        table: ContextTable,
    ) -> bool:
        self._sync(table)
        top = self._buckets.max_tokens_row()
        ready_max = top.tokens if top is not None else running.tokens
        return self.core.should_preempt_given_max(
            candidate,
            running,
            self._ledger_max(max(ready_max, running.tokens)),
        )


class _ReadyView:
    """Adapter presenting a ready list through the ContextTable interface."""

    def __init__(self, ready: Sequence[TaskContext]) -> None:
        self._ready = list(ready)

    def ready(self) -> List[TaskContext]:
        return sorted(self._ready, key=lambda row: row.task_id)


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

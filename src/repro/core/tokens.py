"""Token accounting for the PREMA scheduler (paper Sec V-C, Table II).

Each dispatched task starts with tokens equal to its user-defined priority
value (low/medium/high -> 1/3/9) and periodically earns additional tokens
proportional to its priority and the slowdown it has suffered while
waiting.  A task becomes a scheduling *candidate* when its tokens exceed a
dynamic threshold derived from the current maximum token count, rounded
down to the closest priority token value (the paper's max=8 -> threshold=3
example).
"""

from __future__ import annotations

import enum
import heapq
from typing import Dict, List, Tuple


class Priority(enum.IntEnum):
    """User-defined priority levels (Google-Cloud-style service tiers)."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2


#: Tokens granted per priority level at dispatch (paper Table II).
PRIORITY_TOKENS: Dict[Priority, int] = {
    Priority.LOW: 1,
    Priority.MEDIUM: 3,
    Priority.HIGH: 9,
}

#: Priority token values, ascending (threshold quantization grid).
TOKEN_LEVELS: Tuple[int, ...] = tuple(sorted(PRIORITY_TOKENS.values()))


def initial_tokens(priority: Priority) -> int:
    """Tokens assigned when a task is dispatched (Algorithm 2, line 3)."""
    return PRIORITY_TOKENS[priority]


def token_increment(
    priority: Priority, waited_delta_cycles: float, estimated_cycles: float
) -> float:
    """Tokens earned over one scheduling period (Algorithm 2, line 7).

    ``Slowdown_normalized`` is the waiting time accrued since the last
    grant, normalized by the task's estimated isolated execution time, so
    short tasks accumulate tokens proportionally faster (DESIGN.md #3).
    """
    if waited_delta_cycles < 0:
        raise ValueError("waited_delta_cycles must be >= 0")
    if estimated_cycles <= 0:
        raise ValueError("estimated_cycles must be positive")
    slowdown_normalized = waited_delta_cycles / estimated_cycles
    return PRIORITY_TOKENS[priority] * slowdown_normalized


def candidate_threshold(max_tokens: float) -> float:
    """The dynamic candidate threshold (Algorithm 2, line 9).

    Returns the largest priority token value *strictly below*
    ``max_tokens`` (0 when even the lowest level is not below it), so the
    task holding the maximum always qualifies under the strict ``>``
    comparison -- the behaviour the paper's max=8 -> threshold=3 example
    requires (DESIGN.md deviation #2).
    """
    threshold = 0.0
    for level in TOKEN_LEVELS:
        if level < max_tokens:
            threshold = float(level)
    return threshold


def candidate_bucket(tokens: float) -> int:
    """Number of priority token levels strictly below ``tokens``.

    Buckets quantize token counts by the threshold grid: a row with
    ``tokens`` clears ``candidate_threshold(max_tokens)`` iff its bucket
    is >= the bucket of ``max_tokens`` (assuming ``tokens > 0``, which
    holds for every simulator-managed row -- initial tokens come from the
    priority levels and grants are non-negative).  So while no ready row
    changes bucket, the candidate group of Algorithm 2 line 9 and its
    threshold stay put: the simulator plans its period ticks around
    bucket changes and decides a skipped span once.
    """
    bucket = 0
    for level in TOKEN_LEVELS:
        if level < tokens:
            bucket += 1
    return bucket


NUM_CANDIDATE_BUCKETS = len(TOKEN_LEVELS) + 1


class ClusterTokenLedger:
    """Cluster-global registry of ready tasks' token counts.

    Per-device token policies compute the Algorithm-2 candidate threshold
    from the maximum token count of *their own* ready queue; on a
    multi-NPU node that makes slowdown-normalized priority a per-device
    notion -- a task unlucky in placement competes against a different
    threshold than an identical task on the next device.  The ledger
    restores one cluster-wide grid: every token policy registers its
    ready rows' counts here, and selection/preemption thresholds are
    derived from ``max(local ready max, ledger max)``.

    Values are **lazily settled**: a row's entry reflects its token count
    as of the owning device's last settlement point (period re-rank,
    dispatch, requeue, or migration), exactly the staleness the
    single-device lazy accounting already accepts.  Entries are keyed by
    task id; a task is *active* while it sits in some device's ready
    queue (or is mid-migration between two of them).

    The max is answered from a lazy-deletion heap (amortized O(log n) per
    update).
    """

    def __init__(self) -> None:
        self._tokens: Dict[int, float] = {}
        self._heap: List[Tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._tokens

    def activate(self, task_id: int, tokens: float) -> None:
        """Register (or refresh) a ready task's settled token count."""
        self._tokens[task_id] = tokens
        heapq.heappush(self._heap, (-tokens, task_id))
        if len(self._heap) > 64 and len(self._heap) > 2 * len(self._tokens):
            self._compact()

    def deactivate(self, task_id: int) -> None:
        """Drop a task that left every ready queue (dispatch/completion)."""
        self._tokens.pop(task_id, None)

    def clear(self) -> None:
        self._tokens.clear()
        self._heap.clear()

    def ready_max_tokens(self) -> float:
        """Largest settled token count over active tasks (0.0 when none)."""
        heap = self._heap
        tokens = self._tokens
        while heap:
            negated, task_id = heap[0]
            if tokens.get(task_id) == -negated:
                return -negated
            heapq.heappop(heap)
        return 0.0

    def ready_total_tokens(self) -> float:
        """Exact sum of active settled counts (O(n); tests and metrics)."""
        return sum(self._tokens.values())

    def snapshot(self) -> Dict[int, float]:
        return dict(self._tokens)

    def _compact(self) -> None:
        self._heap = [
            (-tokens, task_id) for task_id, tokens in self._tokens.items()
        ]
        heapq.heapify(self._heap)


def select_candidates(tokens_by_task: Dict[int, float]) -> Tuple[int, ...]:
    """Task ids whose tokens exceed the dynamic threshold.

    Given the ready queue's token counts, returns the candidate group of
    Algorithm 2 line 9 (never empty when the queue is non-empty).
    """
    if not tokens_by_task:
        return ()
    threshold = candidate_threshold(max(tokens_by_task.values()))
    return tuple(
        task_id
        for task_id, tokens in tokens_by_task.items()
        if tokens > threshold
    )

"""The PREMA scheduling policy core (paper Algorithm 2, Table II).

The policy core is deliberately simulator-agnostic: it operates on a
:class:`~repro.core.context.ContextTable` and returns the candidate task
id.  The event-driven simulator (``repro.sched.simulator``) owns time and
invokes the core on the three wake conditions of Sec V-C: task dispatch,
task completion, and scheduling-period expiry.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

from repro.core.context import ContextTable, TaskContext
from repro.core.tokens import candidate_threshold, token_increment


@dataclasses.dataclass(frozen=True)
class SchedulerConfig:
    """PREMA scheduler configuration (paper Table II)."""

    #: Scheduling period time-quota, cycles (0.25 ms at 700 MHz).
    period_cycles: float = 0.25e-3 * 700e6

    def __post_init__(self) -> None:
        if not 0 < self.period_cycles < math.inf:
            raise ValueError("period_cycles must be positive and finite")


class PremaPolicyCore:
    """Algorithm 2: token grants, candidate filtering, shortest-job pick."""

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()

    # ------------------------------------------------------------------
    # Line 5-8: periodic token grants
    # ------------------------------------------------------------------
    def grant_periodic_tokens(self, table: ContextTable) -> None:
        """Grant tokens to every ready task per its accrued slowdown."""
        for row in table.ready():
            if row.estimated_cycles <= 0:
                continue
            grant = token_increment(
                row.priority, row.waited_since_grant, row.estimated_cycles
            )
            row.grant_tokens(grant)

    # ------------------------------------------------------------------
    # Line 9-10: candidate group and final selection
    # ------------------------------------------------------------------
    def select_candidate(
        self, table: ContextTable, external_max_tokens: float = 0.0
    ) -> Optional[TaskContext]:
        """Return the next task to execute, or None when the queue is empty.

        Candidates are ready tasks whose tokens exceed the dynamic
        threshold; among them, the shortest *estimated remaining* job wins
        (FindShortestEstimatedJob), with task id as the deterministic
        tie-break (FCFS among equals).

        ``external_max_tokens`` folds cluster-global token state into the
        threshold (the :class:`~repro.core.tokens.ClusterTokenLedger`
        maximum over other devices' ready queues).  When the cluster
        maximum excludes every local row, the local queue still serves its
        best row -- the NPU must not idle because the highest-token task
        lives on another device.
        """
        ready = table.ready()
        if not ready:
            return None
        local_max = max(row.tokens for row in ready)
        threshold = candidate_threshold(max(local_max, external_max_tokens))
        candidates = [row for row in ready if row.tokens > threshold]
        if not candidates:
            # No local row clears the (possibly cluster-wide) threshold:
            # fall back to the whole local queue.  Also guards the
            # degenerate float-equality case of the local-only rule.
            candidates = ready
        return min(
            candidates,
            key=lambda row: (row.estimated_remaining_cycles, row.task_id),
        )

    # ------------------------------------------------------------------
    # Preemption ranking
    # ------------------------------------------------------------------
    def should_preempt(
        self,
        candidate: TaskContext,
        running: TaskContext,
        ready: Sequence[TaskContext] = (),
        external_max_tokens: float = 0.0,
    ) -> bool:
        """Does the policy recommend preempting ``running``?

        The running task competes in the candidate selection alongside the
        ready queue: it wins (no preemption) when it both clears the token
        threshold and is the shortest estimated-remaining job among the
        threshold-clearing candidates.  Otherwise Algorithm 2's pick is a
        preemption *recommendation* -- which Algorithm 3 may still
        override with DRAIN (the paper's dynamic mechanism selection).

        ``external_max_tokens`` folds the cluster-global ledger maximum
        into the threshold, like :meth:`select_candidate`.
        """
        pool = list(ready) + [running]
        threshold = candidate_threshold(
            max(max(row.tokens for row in pool), external_max_tokens)
        )
        if running.tokens <= threshold:
            # The running task has fallen out of the candidate group.
            return True
        return (
            candidate.estimated_remaining_cycles
            < running.estimated_remaining_cycles
        )

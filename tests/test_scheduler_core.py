"""PREMA policy core: Algorithm 2 grants, candidates, and preemption
recommendations."""

import math

import pytest

from repro.core.context import ContextTable, TaskContext, TaskState
from repro.core.scheduler import PremaPolicyCore, SchedulerConfig
from repro.core.tokens import Priority


def make_row(task_id, priority=Priority.MEDIUM, estimated=1000.0, tokens=None,
             executed=0.0, waited_since_grant=0.0):
    row = TaskContext(
        task_id=task_id,
        priority=priority,
        estimated_cycles=estimated,
        tokens=tokens if tokens is not None else 0.0,
    )
    row.executed_cycles = executed
    row.waited_since_grant = waited_since_grant
    return row


class TestSchedulerConfig:
    def test_table_two_default_period(self, config):
        scheduler = SchedulerConfig()
        assert config.cycles_to_ms(scheduler.period_cycles) == pytest.approx(0.25)

    @pytest.mark.parametrize("period", [0, -1, math.nan, math.inf])
    def test_rejects_nonpositive_period(self, period):
        with pytest.raises(ValueError, match="period_cycles"):
            SchedulerConfig(period_cycles=period)


class TestPeriodicGrants:
    def test_grant_proportional_to_priority_and_slowdown(self):
        core = PremaPolicyCore()
        table = ContextTable()
        low = make_row(1, Priority.LOW, estimated=100.0, waited_since_grant=200.0)
        high = make_row(2, Priority.HIGH, estimated=100.0, waited_since_grant=200.0)
        table.add(low)
        table.add(high)
        core.grant_periodic_tokens(table)
        # Slowdown_normalized = 200/100 = 2 -> low: 1+2, high: 9+18.
        assert low.tokens == pytest.approx(3.0)
        assert high.tokens == pytest.approx(27.0)

    def test_short_jobs_accumulate_faster(self):
        core = PremaPolicyCore()
        table = ContextTable()
        short = make_row(1, Priority.LOW, estimated=10.0, waited_since_grant=100.0)
        long = make_row(2, Priority.LOW, estimated=1000.0, waited_since_grant=100.0)
        table.add(short)
        table.add(long)
        core.grant_periodic_tokens(table)
        assert short.tokens > long.tokens

    def test_running_tasks_not_granted(self):
        core = PremaPolicyCore()
        table = ContextTable()
        running = make_row(1, waited_since_grant=100.0)
        running.state = TaskState.RUNNING
        table.add(running)
        before = running.tokens
        core.grant_periodic_tokens(table)
        assert running.tokens == before

    def test_grant_resets_waited_since_grant(self):
        core = PremaPolicyCore()
        table = ContextTable()
        row = make_row(1, waited_since_grant=50.0)
        table.add(row)
        core.grant_periodic_tokens(table)
        assert row.waited_since_grant == 0.0


class TestCandidateSelection:
    def test_empty_queue_returns_none(self):
        assert PremaPolicyCore().select_candidate(ContextTable()) is None

    def test_shortest_estimated_job_among_candidates(self):
        core = PremaPolicyCore()
        table = ContextTable()
        table.add(make_row(1, tokens=8.0, estimated=5000.0))
        table.add(make_row(2, tokens=4.0, estimated=100.0))
        table.add(make_row(3, tokens=1.0, estimated=10.0))
        # max=8 -> threshold 3 -> candidates {1, 2}; task 3's tiny job is
        # excluded; task 2 is shortest among candidates.
        chosen = core.select_candidate(table)
        assert chosen.task_id == 2

    def test_remaining_time_drives_selection(self):
        core = PremaPolicyCore()
        table = ContextTable()
        table.add(make_row(1, tokens=8.0, estimated=5000.0, executed=4950.0))
        table.add(make_row(2, tokens=8.0, estimated=100.0))
        # Task 1 has only 50 cycles left -> shortest remaining.
        assert core.select_candidate(table).task_id == 1

    def test_tie_breaks_by_task_id(self):
        core = PremaPolicyCore()
        table = ContextTable()
        table.add(make_row(5, tokens=8.0, estimated=100.0))
        table.add(make_row(2, tokens=8.0, estimated=100.0))
        assert core.select_candidate(table).task_id == 2

    def test_single_task_selected(self):
        core = PremaPolicyCore()
        table = ContextTable()
        table.add(make_row(4, tokens=1.0, estimated=10.0))
        assert core.select_candidate(table).task_id == 4


class TestPreemptionRecommendation:
    def test_running_below_threshold_preempted(self):
        core = PremaPolicyCore()
        running = make_row(1, tokens=1.0, estimated=1000.0)
        candidate = make_row(2, tokens=10.0, estimated=5000.0)
        assert core.should_preempt(candidate, running, [candidate])

    def test_running_candidate_keeps_npu_when_shorter(self):
        core = PremaPolicyCore()
        running = make_row(1, tokens=9.0, estimated=100.0)
        candidate = make_row(2, tokens=9.0, estimated=5000.0)
        assert not core.should_preempt(candidate, running, [candidate])

    def test_shorter_candidate_preempts_peer(self):
        core = PremaPolicyCore()
        running = make_row(1, tokens=9.0, estimated=5000.0)
        candidate = make_row(2, tokens=9.0, estimated=100.0)
        assert core.should_preempt(candidate, running, [candidate])

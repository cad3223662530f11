"""The inference task context table (Fig 4)."""

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.context import ContextTable, TaskContext, TaskState
from repro.core.tokens import Priority, token_increment


def make_row(task_id=0, priority=Priority.MEDIUM, **kwargs):
    return TaskContext(task_id=task_id, priority=priority, **kwargs)


class TestTaskContext:
    def test_initial_tokens_from_priority(self):
        assert make_row(priority=Priority.LOW).tokens == 1.0
        assert make_row(priority=Priority.HIGH).tokens == 9.0

    def test_explicit_tokens_respected(self):
        assert make_row(tokens=5.0).tokens == 5.0

    def test_estimated_remaining_floors_at_zero(self):
        row = make_row(estimated_cycles=100.0)
        row.executed_cycles = 150.0
        assert row.estimated_remaining_cycles == 0.0

    def test_grant_tokens(self):
        row = make_row()
        row.waited_since_grant = 42.0
        row.grant_tokens(2.0)
        assert row.tokens == 5.0
        assert row.waited_since_grant == 0.0

    def test_grant_rejects_negative(self):
        with pytest.raises(ValueError):
            make_row().grant_tokens(-1.0)

    def test_accrue_wait_only_when_ready(self):
        row = make_row()
        row.accrue_wait(100.0)
        assert row.waited_cycles == 100.0
        row.state = TaskState.RUNNING
        row.accrue_wait(250.0)
        assert row.waited_cycles == 100.0
        assert row.last_update_cycles == 250.0

    def test_accrue_wait_future_baseline_noop(self):
        # A preempted task re-enters the queue at a future boundary time;
        # earlier accruals must be no-ops, not negative waits.
        row = make_row(last_update_cycles=500.0)
        row.accrue_wait(100.0)
        assert row.waited_cycles == 0.0
        assert row.last_update_cycles == 500.0

    def test_rejects_negative_task_id(self):
        with pytest.raises(ValueError):
            make_row(task_id=-1)


_FIELDS = ("last_update_cycles", "waited_cycles", "waited_since_grant", "tokens")


def _tick_by_tick(row, ticks, grants):
    """The per-tick replay ``replay_ticks`` must reproduce bit for bit."""
    for tick in ticks:
        row.accrue_wait(tick)
        if grants and row.estimated_cycles > 0:
            row.grant_tokens(
                token_increment(
                    row.priority, row.waited_since_grant, row.estimated_cycles
                )
            )


@st.composite
def _replays(draw):
    """A row and the chain instants of one skipped span."""
    period = draw(st.floats(min_value=1.0, max_value=1e6))
    tick = draw(st.floats(min_value=0.0, max_value=1e10))
    ticks = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        ticks.append(tick)
        tick += period  # the chain's own steps, as the clock takes them
    # The baseline may sit on a tick, before the span, or after its first
    # ticks (a preempted victim re-enters at its boundary commit).
    last_update = draw(
        st.one_of(
            st.sampled_from(ticks) if ticks else st.nothing(),
            st.floats(
                min_value=ticks[0] - 3 * period if ticks else 0.0,
                max_value=tick + period,
            ),
        )
    )
    row = make_row(
        priority=draw(st.sampled_from(tuple(Priority))),
        tokens=draw(st.floats(min_value=0.5, max_value=20.0)),
        waited_cycles=draw(st.floats(min_value=0.0, max_value=1e9)),
        waited_since_grant=draw(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e8))
        ),
        estimated_cycles=draw(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=-1e6, max_value=0.0),
                st.floats(min_value=1.0, max_value=1e9),
            )
        ),
        last_update_cycles=last_update,
    )
    return row, ticks, draw(st.booleans())


class TestReplayTicks:
    @given(case=_replays())
    @example(
        # A future baseline with a grant still owed: the first tick grants
        # the owed wait and accrues nothing.
        case=(
            make_row(
                estimated_cycles=1e6,
                waited_since_grant=5e5,
                last_update_cycles=250.0,
            ),
            [100.0, 200.0, 300.0, 400.0],
            True,
        )
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_tick_by_tick(self, case):
        row, ticks, grants = case
        reference = copy.copy(row)
        _tick_by_tick(reference, ticks, grants)
        row.replay_ticks(ticks, grants)
        for name in _FIELDS:
            assert getattr(row, name) == getattr(reference, name), name


class TestContextTable:
    def test_add_get_remove(self):
        table = ContextTable()
        row = make_row(task_id=3)
        table.add(row)
        assert table[3] is row
        assert 3 in table
        assert len(table) == 1
        assert table.remove(3) is row
        assert 3 not in table

    def test_duplicate_add_raises(self):
        table = ContextTable()
        table.add(make_row(task_id=1))
        with pytest.raises(ValueError):
            table.add(make_row(task_id=1))

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            ContextTable().remove(9)

    def test_ready_filters_and_orders(self):
        table = ContextTable()
        ready_b = make_row(task_id=5)
        running = make_row(task_id=1)
        running.state = TaskState.RUNNING
        ready_a = make_row(task_id=2)
        for row in (ready_b, running, ready_a):
            table.add(row)
        assert [r.task_id for r in table.ready()] == [2, 5]

    def test_running_lookup(self):
        table = ContextTable()
        row = make_row(task_id=1)
        table.add(row)
        assert table.running() is None
        row.state = TaskState.RUNNING
        assert table.running() is row

    def test_sram_bits_match_paper(self):
        # Sec VI-F: 448 bits per task, 16 tasks -> 7168 bits.
        table = ContextTable()
        for task_id in range(16):
            table.add(make_row(task_id=task_id))
        assert table.sram_bits() == 448 * 16

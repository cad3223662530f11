"""The context table's incremental ready index, and policy selection on it.

Seeded lifecycle property tests: drive a ContextTable and the policies
through randomized admit/dispatch/requeue/remove/period-grant sequences
(the exact hook protocol DeviceSim speaks) and assert at every step that
the simulator's entry points (``select_ready``, ``outranks_running``)
answer identically to the reference rules over ``table.ready()``.
"""

import random

import pytest

from repro.core.context import ContextTable, TaskContext, TaskState
from repro.core.tokens import (
    NUM_CANDIDATE_BUCKETS,
    Priority,
    TOKEN_LEVELS,
    candidate_bucket,
    candidate_threshold,
)
from repro.sched.policies import POLICY_NAMES, make_policy


def make_row(task_id, rng=None):
    rng = rng or random.Random(task_id)
    row = TaskContext(
        task_id=task_id,
        priority=rng.choice(list(Priority)),
        benchmark=rng.choice(["CNN-AN", "CNN-GN", "RNN-SA"]),
        estimated_cycles=rng.uniform(1e4, 1e7),
    )
    return row


class TestCandidateBucket:
    def test_matches_threshold_semantics(self):
        for tokens in (0.5, 1.0, 1.1, 2.9, 3.0, 3.5, 8.0, 9.0, 9.4, 120.0):
            bucket = candidate_bucket(tokens)
            assert 0 <= bucket < NUM_CANDIDATE_BUCKETS
            # Definition: number of levels strictly below the count.
            assert bucket == sum(1 for level in TOKEN_LEVELS if level < tokens)

    def test_bucket_order_equals_candidate_group(self):
        """tokens > threshold(max)  <=>  bucket(tokens) >= bucket(max)."""
        rng = random.Random(0)
        for _ in range(500):
            tokens = rng.uniform(0.1, 30.0)
            max_tokens = rng.uniform(tokens, 40.0)
            threshold = candidate_threshold(max_tokens)
            assert (tokens > threshold) == (
                candidate_bucket(tokens) >= candidate_bucket(max_tokens)
            )


class TestContextTableIndex:
    def test_direct_state_assignment_updates_ready(self):
        table = ContextTable()
        rows = [make_row(i) for i in range(5)]
        for row in rows:
            table.add(row)
        assert [r.task_id for r in table.ready()] == [0, 1, 2, 3, 4]
        rows[2].state = TaskState.RUNNING
        assert [r.task_id for r in table.ready()] == [0, 1, 3, 4]
        assert table.running() is rows[2]
        rows[2].state = TaskState.READY
        assert [r.task_id for r in table.ready()] == [0, 1, 2, 3, 4]
        assert table.running() is None

    def test_remove_releases_ownership(self):
        table = ContextTable()
        row = make_row(7)
        table.add(row)
        table.remove(7)
        assert not table.has_ready
        # State changes after removal must not corrupt the old table.
        row.state = TaskState.RUNNING
        assert table.running() is None
        other = ContextTable()
        other.add(row)
        assert other.running() is row

    def test_has_ready_and_count(self):
        table = ContextTable()
        assert not table.has_ready
        assert table.ready_count == 0
        row = make_row(1)
        table.add(row)
        assert table.has_ready and table.ready_count == 1
        row.state = TaskState.DONE
        assert not table.has_ready

    def test_randomized_lifecycle_matches_scan(self):
        rng = random.Random(42)
        table = ContextTable()
        rows = {}
        next_id = 0
        for _ in range(400):
            action = rng.random()
            if action < 0.4 or not rows:
                row = make_row(next_id, rng)
                rows[next_id] = row
                table.add(row)
                next_id += 1
            elif action < 0.7:
                row = rng.choice(list(rows.values()))
                row.state = rng.choice(list(TaskState))
            else:
                task_id = rng.choice(list(rows))
                table.remove(task_id)
                del rows[task_id]
            expected = sorted(
                (r.task_id for r in rows.values()
                 if r.state is TaskState.READY),
            )
            assert [r.task_id for r in table.ready()] == expected


def _drive_lifecycle(policy_name, seed, steps=250):
    """Replay a DeviceSim-shaped lifecycle; yield after every step."""
    rng = random.Random(seed)
    policy = make_policy(policy_name)
    reference = make_policy(policy_name)
    table = ContextTable()
    ready_ids = set()
    running_id = [None]
    next_id = [0]

    def admit():
        row = make_row(next_id[0], rng)
        table.add(row)
        ready_ids.add(row.task_id)
        policy.on_admit(row, 0.0)
        next_id[0] += 1

    def dispatch():
        task_id = rng.choice(sorted(ready_ids))
        ready_ids.discard(task_id)
        row = table[task_id]
        row.state = TaskState.RUNNING
        running_id[0] = task_id
        policy.on_dispatch(row)

    def requeue():
        task_id = running_id[0]
        row = table[task_id]
        row.executed_cycles += rng.uniform(0.0, row.estimated_cycles)
        row.state = TaskState.READY
        ready_ids.add(task_id)
        running_id[0] = None
        policy.on_requeue(row)

    def complete():
        task_id = running_id[0]
        table[task_id].state = TaskState.DONE
        running_id[0] = None

    def remove():
        task_id = rng.choice(sorted(ready_ids))
        ready_ids.discard(task_id)
        row = table.remove(task_id)
        policy.on_remove(row, 0.0)

    def period():
        if policy.uses_tokens:
            for row in table.ready():
                row.waited_since_grant += rng.uniform(0.0, 5e5)
            policy.on_period(table)

    for _ in range(3):
        admit()
    for _ in range(steps):
        choices = [admit, period]
        if ready_ids and running_id[0] is None:
            choices.append(dispatch)
        if running_id[0] is not None:
            choices += [requeue, complete]
        if ready_ids:
            choices.append(remove)
        rng.choice(choices)()
        yield policy, reference, table, running_id[0]


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_select_ready_matches_reference_scan(policy_name):
    if policy_name == "RRB":
        pytest.skip("RRB's cursor advances per pick; select_ready IS select")
    for seed in range(5):
        for policy, reference, table, _running in _drive_lifecycle(
            policy_name, seed
        ):
            fast = policy.select_ready(table)
            slow = reference.select(table.ready())
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast.task_id == slow.task_id, (
                    f"{policy_name} seed {seed}: fast pick {fast.task_id} "
                    f"!= reference {slow.task_id}"
                )


@pytest.mark.parametrize("policy_name", ["HPF", "SJF", "TOKEN", "PREMA"])
def test_outranks_running_matches_reference(policy_name):
    for seed in range(5):
        for policy, reference, table, running_id in _drive_lifecycle(
            policy_name, seed + 100
        ):
            if running_id is None:
                continue
            candidate = policy.select_ready(table)
            if candidate is None:
                continue
            running = table[running_id]
            fast = policy.outranks_running(candidate, running, table)
            slow = reference.outranks(candidate, running, table.ready())
            assert fast == slow, f"{policy_name} seed {seed}"


def test_select_ready_detects_stale_pick_at_equal_counts():
    """Paired external mutations that keep the ready count unchanged must
    not let select_ready return a stale (non-READY / evicted) row."""
    for policy_name in ("HPF", "SJF", "TOKEN", "PREMA"):
        policy = make_policy(policy_name)
        table = ContextTable()
        rows = [make_row(i) for i in range(4)]
        for row in rows:
            table.add(row)
            policy.on_admit(row, 0.0)
        picked = policy.select_ready(table)
        assert picked is not None
        # Retire the pick and admit a replacement behind the policy's
        # back: the ready count stays identical.
        rows[picked.task_id].state = TaskState.DONE
        fresh = make_row(10)
        table.add(fresh)
        reference = make_policy(policy_name).select(table.ready())
        picked2 = policy.select_ready(table)
        assert picked2 is not None
        assert picked2.state is TaskState.READY
        assert picked2.task_id == reference.task_id, policy_name


def test_select_ready_without_hooks_self_heals():
    """Driving select_ready with no lifecycle hooks (or after direct state
    mutation) must still return the reference answer."""
    for policy_name in ("HPF", "SJF", "TOKEN", "PREMA"):
        policy = make_policy(policy_name)
        table = ContextTable()
        rows = [make_row(i) for i in range(6)]
        for row in rows:
            table.add(row)  # note: no on_admit
        picked = policy.select_ready(table)
        reference = make_policy(policy_name).select(table.ready())
        assert picked is not None and picked.task_id == reference.task_id
        # Mutate states behind the policy's back; it must follow.
        rows[picked.task_id].state = TaskState.DONE
        picked2 = policy.select_ready(table)
        reference2 = make_policy(policy_name).select(table.ready())
        assert picked2 is not None and picked2.task_id == reference2.task_id

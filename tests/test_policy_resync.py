"""Selection under migration-induced staleness and the cluster ledger.

A migration can take a task out of a device *between* the policy's
lifecycle hooks (the "task leaves one device mid-re-rank" race), or swap
rows behind them.  ``select_ready`` reads the live table, so these tests
force exactly that staleness and assert its pick is still the reference
scan's.

The ledger-aware rules get the same treatment: with a cluster-global
token maximum in play, ``select_ready`` / ``outranks_running`` and the
reference rules over an explicit ready list must agree in every regime,
including the fallback where no local row clears the cluster-wide
threshold.
"""

import pytest

from repro.core.context import ContextTable, TaskContext, TaskState
from repro.core.tokens import ClusterTokenLedger, Priority
from repro.sched.policies import (
    HpfPolicy,
    PremaPolicy,
    SjfPolicy,
    TokenPolicy,
)


def make_row(task_id, tokens=0.0, estimated=1e6, priority=Priority.MEDIUM):
    row = TaskContext(
        task_id=task_id, priority=priority, estimated_cycles=estimated
    )
    if tokens:
        row.tokens = tokens
    return row


def admitted(policy, rows):
    table = ContextTable()
    for row in rows:
        table.add(row)
        policy.on_admit(row, 0.0)
    return table


@pytest.mark.parametrize(
    "policy_factory", [HpfPolicy, SjfPolicy, TokenPolicy, PremaPolicy]
)
class TestDepartureMidRerank:
    def test_hookless_departure_self_heals(self, policy_factory):
        """A task leaves the device without on_remove (migration racing a
        re-rank): the pick equals the reference scan."""
        policy = policy_factory()
        rows = [
            make_row(0, estimated=5e6, priority=Priority.LOW),
            make_row(1, estimated=1e6, priority=Priority.HIGH),
            make_row(2, estimated=3e6, priority=Priority.MEDIUM),
        ]
        table = admitted(policy, rows)
        best = policy.select_ready(table)
        # The would-be pick departs behind the structure's back.
        table.remove(best.task_id)
        healed = policy.select_ready(table)
        assert healed is policy.select(table.ready())
        assert healed is not best

    def test_count_preserving_swap_self_heals(self, policy_factory):
        """Departure + arrival with no hooks keeps the population count
        identical; the pick still equals the reference scan."""
        policy = policy_factory()
        rows = [
            make_row(0, estimated=5e6, priority=Priority.LOW),
            make_row(1, estimated=1e6, priority=Priority.HIGH),
            make_row(2, estimated=3e6, priority=Priority.MEDIUM),
        ]
        table = admitted(policy, rows)
        best = policy.select_ready(table)
        table.remove(best.task_id)
        replacement = make_row(7, estimated=2e6, priority=Priority.MEDIUM)
        table.add(replacement)  # no on_admit: structure never sees it
        healed = policy.select_ready(table)
        assert healed is policy.select(table.ready())
        # And the next pick agrees as well.
        assert policy.select_ready(table) is policy.select(table.ready())

    def test_departed_pick_does_not_resurface(self, policy_factory):
        policy = policy_factory()
        rows = [make_row(i, estimated=(i + 1) * 1e6) for i in range(4)]
        table = admitted(policy, rows)
        victim = policy.select_ready(table)
        table.remove(victim.task_id)
        for _ in range(3):
            pick = policy.select_ready(table)
            assert pick is not victim
            assert pick is policy.select(table.ready())


@pytest.mark.parametrize("policy_factory", [TokenPolicy, PremaPolicy])
class TestLedgerConsistency:
    def _two_devices(self, policy_factory, ledger):
        local = policy_factory(ledger=ledger)
        remote = policy_factory(ledger=ledger)
        local_table = admitted(
            local,
            [
                make_row(0, tokens=1.0, estimated=4e6, priority=Priority.LOW),
                make_row(1, tokens=1.0, estimated=2e6, priority=Priority.LOW),
            ],
        )
        remote_table = admitted(
            remote,
            [make_row(10, tokens=9.0, estimated=8e6, priority=Priority.HIGH)],
        )
        return local, local_table, remote, remote_table

    def test_remote_max_raises_local_threshold(self, policy_factory):
        """With a token-9 row on the other device, no local token-1 row
        clears the cluster threshold; the fallback still serves the best
        local row, identically through select_ready and select."""
        ledger = ClusterTokenLedger()
        local, local_table, _, _ = self._two_devices(policy_factory, ledger)
        fast = local.select_ready(local_table)
        reference = local.select(local_table.ready())
        assert fast is reference
        assert fast.task_id in (0, 1)

    def test_without_ledger_local_threshold_rules(self, policy_factory):
        policy = policy_factory()
        table = admitted(
            policy,
            [
                make_row(0, tokens=1.0, estimated=4e6, priority=Priority.LOW),
                make_row(1, tokens=1.0, estimated=2e6, priority=Priority.LOW),
            ],
        )
        assert policy.select_ready(table) is policy.select(table.ready())

    def test_remote_departure_lowers_threshold_again(self, policy_factory):
        """The remote high-token task dispatches (ledger deactivate):
        local selection falls back to the local threshold, select_ready
        and select agreeing throughout."""
        ledger = ClusterTokenLedger()
        local, local_table, remote, remote_table = self._two_devices(
            policy_factory, ledger
        )
        high = remote_table[10]
        high.state = TaskState.RUNNING
        remote.on_dispatch(high)
        assert ledger.ready_max_tokens() <= 1.0
        fast = local.select_ready(local_table)
        assert fast is local.select(local_table.ready())

    def test_mid_migration_staleness_with_ledger(self, policy_factory):
        """Hookless departure *while* the ledger holds a remote max: the
        ledger-aware fallback still equals the reference."""
        ledger = ClusterTokenLedger()
        local, local_table, _, _ = self._two_devices(policy_factory, ledger)
        pick = local.select_ready(local_table)
        local_table.remove(pick.task_id)  # migration raced the re-rank
        healed = local.select_ready(local_table)
        assert healed is local.select(local_table.ready())

    def test_outranks_running_respects_remote_max(self, policy_factory):
        """A running token-1 task is below the cluster threshold set by a
        remote token-9 row: outranks_running and the reference agree a
        token-3 candidate outranks it."""
        ledger = ClusterTokenLedger()
        local, local_table, _, _ = self._two_devices(policy_factory, ledger)
        running = make_row(5, tokens=1.0, estimated=6e6, priority=Priority.LOW)
        running.state = TaskState.RUNNING
        candidate = make_row(
            6, tokens=4.0, estimated=1e6, priority=Priority.MEDIUM
        )
        local_table.add(candidate)
        local.on_admit(candidate, 0.0)
        fast = local.outranks_running(candidate, running, local_table)
        reference = local.outranks(candidate, running, local_table.ready())
        assert fast == reference
        assert fast  # running below threshold 3 < candidate's tokens... preempt

    def test_outranks_consistency_without_remote_max(self, policy_factory):
        policy = policy_factory()
        table = admitted(
            policy,
            [make_row(0, tokens=3.0, estimated=2e6, priority=Priority.MEDIUM)],
        )
        running = make_row(5, tokens=9.0, estimated=6e6, priority=Priority.HIGH)
        running.state = TaskState.RUNNING
        candidate = table[0]
        assert policy.outranks_running(candidate, running, table) == \
            policy.outranks(candidate, running, table.ready())

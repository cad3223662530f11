"""Scheduling policies: selection order and preemption intent."""

import pytest

from repro.core.context import TaskContext
from repro.core.tokens import Priority
from repro.sched.policies import (
    POLICY_NAMES,
    FcfsPolicy,
    HpfPolicy,
    PremaPolicy,
    RoundRobinPolicy,
    SjfPolicy,
    TokenPolicy,
    make_policy,
)


def make_row(task_id, priority=Priority.MEDIUM, estimated=1000.0,
             tokens=None, benchmark="CNN-AN"):
    return TaskContext(
        task_id=task_id,
        priority=priority,
        benchmark=benchmark,
        estimated_cycles=estimated,
        tokens=tokens if tokens is not None else 0.0,
    )


class TestFactory:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_all_policies_constructible(self, name):
        policy = make_policy(name)
        assert policy.name == name

    def test_case_insensitive(self):
        assert make_policy("prema").name == "PREMA"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            make_policy("EDF")

    def test_predictor_flags(self):
        assert not make_policy("FCFS").uses_predictor
        assert not make_policy("RRB").uses_predictor
        assert not make_policy("HPF").uses_predictor
        assert make_policy("TOKEN").uses_predictor
        assert make_policy("SJF").uses_predictor
        assert make_policy("PREMA").uses_predictor


class TestFcfs:
    def test_selects_lowest_id(self):
        policy = FcfsPolicy()
        chosen = policy.select([make_row(3), make_row(1), make_row(2)])
        assert chosen.task_id == 1

    def test_empty_returns_none(self):
        assert FcfsPolicy().select([]) is None

    def test_never_preempts(self):
        policy = FcfsPolicy()
        assert not policy.outranks(make_row(1, Priority.HIGH), make_row(2))


class TestRoundRobin:
    def test_rotates_across_models(self):
        policy = RoundRobinPolicy()
        ready = [
            make_row(0, benchmark="CNN-AN"),
            make_row(1, benchmark="CNN-AN"),
            make_row(2, benchmark="CNN-VN"),
        ]
        first = policy.select(ready)
        assert first.benchmark == "CNN-AN"
        policy.on_dispatch(first)
        remaining = [r for r in ready if r.task_id != first.task_id]
        second = policy.select(remaining)
        assert second.benchmark == "CNN-VN"
        policy.on_dispatch(second)
        third = policy.select([r for r in remaining if r.task_id != second.task_id])
        assert third.benchmark == "CNN-AN"

    def test_select_does_not_advance_rotation(self):
        policy = RoundRobinPolicy()
        ready = [make_row(0, benchmark="A"), make_row(1, benchmark="B")]
        assert policy.select(ready).benchmark == "A"
        assert policy.select(ready).benchmark == "A"

    def test_reset_restarts_rotation(self):
        policy = RoundRobinPolicy()
        ready = [make_row(0, benchmark="A"), make_row(1, benchmark="B")]
        policy.on_dispatch(policy.select(ready))
        assert policy.select(ready).benchmark == "B"
        policy.reset()
        assert policy.select(ready).benchmark == "A"


class TestHpf:
    def test_priority_order(self):
        policy = HpfPolicy()
        ready = [make_row(1, Priority.LOW), make_row(2, Priority.HIGH),
                 make_row(3, Priority.MEDIUM)]
        assert policy.select(ready).task_id == 2

    def test_fcfs_among_equals(self):
        policy = HpfPolicy()
        ready = [make_row(4, Priority.HIGH), make_row(2, Priority.HIGH)]
        assert policy.select(ready).task_id == 2

    def test_preempts_only_strictly_higher(self):
        policy = HpfPolicy()
        assert policy.outranks(make_row(1, Priority.HIGH), make_row(2, Priority.LOW))
        assert not policy.outranks(make_row(1, Priority.HIGH), make_row(2, Priority.HIGH))
        assert not policy.outranks(make_row(1, Priority.LOW), make_row(2, Priority.HIGH))


class TestToken:
    def test_fcfs_among_candidates(self):
        policy = TokenPolicy()
        ready = [make_row(1, tokens=2.0), make_row(2, tokens=8.0),
                 make_row(3, tokens=5.0)]
        # max=8 -> threshold 3 -> candidates {2, 3} -> FCFS picks 2.
        assert policy.select(ready).task_id == 2

    def test_preempts_when_running_falls_below_threshold(self):
        policy = TokenPolicy()
        running = make_row(1, tokens=2.0)
        candidate = make_row(2, tokens=8.0)
        assert policy.outranks(candidate, running, [candidate])

    def test_no_preempt_when_running_is_candidate(self):
        policy = TokenPolicy()
        running = make_row(1, tokens=8.0)
        candidate = make_row(2, tokens=7.0)
        assert not policy.outranks(candidate, running, [candidate])


class TestSjf:
    def test_shortest_estimated_first(self):
        policy = SjfPolicy()
        ready = [make_row(1, estimated=500.0), make_row(2, estimated=100.0)]
        assert policy.select(ready).task_id == 2

    def test_uses_remaining_not_total(self):
        policy = SjfPolicy()
        long_but_almost_done = make_row(1, estimated=1000.0)
        long_but_almost_done.executed_cycles = 990.0
        fresh_short = make_row(2, estimated=100.0)
        assert policy.select([long_but_almost_done, fresh_short]).task_id == 1

    def test_preempts_longer_running(self):
        policy = SjfPolicy()
        assert policy.outranks(make_row(1, estimated=10.0), make_row(2, estimated=100.0))
        assert not policy.outranks(make_row(1, estimated=100.0), make_row(2, estimated=10.0))


class TestPrema:
    def test_combines_tokens_and_shortest_job(self):
        policy = PremaPolicy()
        ready = [
            make_row(1, tokens=8.0, estimated=5000.0),
            make_row(2, tokens=4.0, estimated=100.0),
            make_row(3, tokens=1.0, estimated=10.0),
        ]
        assert policy.select(ready).task_id == 2

    def test_preemption_recommendation_paths(self):
        policy = PremaPolicy()
        weak_running = make_row(1, tokens=1.0, estimated=100.0)
        strong_candidate = make_row(2, tokens=9.0, estimated=5000.0)
        assert policy.outranks(strong_candidate, weak_running, [strong_candidate])
        strong_running = make_row(1, tokens=9.0, estimated=100.0)
        assert not policy.outranks(strong_candidate, strong_running, [strong_candidate])

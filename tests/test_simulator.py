"""Event-driven multi-task simulator: invariants and scenario behaviour."""

import gc
import weakref

import pytest

from repro.core.tokens import Priority
from repro.npu.config import NPUConfig
from repro.sched.metrics import compute_metrics
from repro.sched.policies import make_policy
from repro.sched.simulator import (
    DeviceSim,
    EventQueue,
    NPUSimulator,
    PreemptionMode,
    SimulationConfig,
    _EventKind,
)
from repro.sched.timeline import SegmentKind
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.specs import TaskSpec
from repro.workloads.trace import synthetic_trace_runtimes


def spec(task_id, benchmark, priority, arrival_ms, config, **kw):
    return TaskSpec(
        task_id=task_id,
        benchmark=benchmark,
        batch=1,
        priority=priority,
        arrival_cycles=config.ms_to_cycles(arrival_ms),
        **kw,
    )


def run(config, factory, specs, policy="FCFS", mode=PreemptionMode.NP,
        mechanism="CHECKPOINT"):
    simulator = NPUSimulator(
        SimulationConfig(npu=config, mode=mode, mechanism=mechanism),
        make_policy(policy),
    )
    tasks = [factory.build_task(s) for s in specs]
    return simulator.run(tasks)


@pytest.fixture(scope="module")
def pair(config):
    """A long low-priority task then a short high-priority arrival."""
    return [
        spec(0, "CNN-VN", Priority.LOW, 0.0, config),
        spec(1, "CNN-GN", Priority.HIGH, 1.0, config),
    ]


class TestBasicInvariants:
    def test_all_tasks_complete(self, config, factory, pair):
        result = run(config, factory, pair)
        assert all(task.is_done for task in result.tasks)

    def test_task_by_id_lookup(self, config, factory, pair):
        result = run(config, factory, pair)
        assert result.task_by_id(1).task_id == 1
        with pytest.raises(KeyError):
            result.task_by_id(99)

    def test_no_overlapping_busy_segments(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF",
                     mode=PreemptionMode.STATIC)
        result.timeline.verify_no_overlap()

    def test_completion_after_arrival_plus_isolated(self, config, factory, pair):
        result = run(config, factory, pair)
        for task in result.tasks:
            assert task.turnaround_cycles >= task.isolated_cycles * 0.999

    def test_run_time_conservation_without_kill(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF",
                     mode=PreemptionMode.STATIC, mechanism="CHECKPOINT")
        by_task = result.timeline.run_cycles_by_task()
        for task in result.tasks:
            assert by_task[task.task_id] == pytest.approx(
                task.isolated_cycles, rel=1e-6
            )

    def test_kill_reruns_work(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF",
                     mode=PreemptionMode.STATIC, mechanism="KILL")
        low = result.task_by_id(0)
        if low.kill_count:
            by_task = result.timeline.run_cycles_by_task()
            assert by_task[0] > low.isolated_cycles
            assert low.wasted_cycles > 0

    def test_empty_workload_rejected(self, config):
        simulator = NPUSimulator(
            SimulationConfig(npu=config), make_policy("FCFS")
        )
        with pytest.raises(ValueError):
            simulator.run([])

    def test_duplicate_task_ids_rejected(self, config, factory, pair):
        simulator = NPUSimulator(
            SimulationConfig(npu=config), make_policy("FCFS")
        )
        tasks = [factory.build_task(pair[0]), factory.build_task(pair[0])]
        with pytest.raises(ValueError):
            simulator.run(tasks)


class TestNonPreemptive:
    def test_np_never_preempts(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF", mode=PreemptionMode.NP)
        assert result.preemption_count == 0
        assert all(task.preemption_count == 0 for task in result.tasks)

    def test_fcfs_serves_in_arrival_order(self, config, factory, pair):
        result = run(config, factory, pair, policy="FCFS")
        low, high = result.task_by_id(0), result.task_by_id(1)
        assert low.completion_time < high.completion_time

    def test_high_priority_waits_under_fcfs(self, config, factory, pair):
        result = run(config, factory, pair, policy="FCFS")
        high = result.task_by_id(1)
        # Queued behind the long VGG run: severe slowdown (the Fig 2a story).
        assert high.normalized_turnaround > 3.0


class TestPreemptive:
    def test_hpf_preempts_for_high_priority(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF",
                     mode=PreemptionMode.STATIC)
        assert result.preemption_count == 1
        high = result.task_by_id(1)
        # Near-isolated latency for the preemptor (the Fig 2c story).
        assert high.normalized_turnaround < 1.5

    def test_preempted_task_resumes_and_finishes_last(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF",
                     mode=PreemptionMode.STATIC)
        low, high = result.task_by_id(0), result.task_by_id(1)
        assert low.preemption_count == 1
        assert low.completion_time > high.completion_time

    def test_checkpoint_segments_recorded(self, config, factory, pair):
        result = run(config, factory, pair, policy="HPF",
                     mode=PreemptionMode.STATIC)
        kinds = {segment.kind for segment in result.timeline.segments}
        assert SegmentKind.CHECKPOINT in kinds
        assert SegmentKind.RESTORE in kinds

    def test_kill_faster_preemptor_worse_total(self, config, factory, pair):
        ckpt = run(config, factory, pair, policy="HPF",
                   mode=PreemptionMode.STATIC, mechanism="CHECKPOINT")
        kill = run(config, factory, pair, policy="HPF",
                   mode=PreemptionMode.STATIC, mechanism="KILL")
        high_ckpt = ckpt.task_by_id(1).turnaround_cycles
        high_kill = kill.task_by_id(1).turnaround_cycles
        # KILL's preemptor is at least as fast (no checkpoint DMA wait).
        assert high_kill <= high_ckpt * 1.001
        # ... but system throughput suffers (Fig 6a).
        assert compute_metrics(kill.tasks).stp <= compute_metrics(ckpt.tasks).stp

    def test_dynamic_mode_can_drain(self, config, factory):
        # Candidate long, running near its end: Algorithm 3 drains.
        specs = [
            spec(0, "CNN-GN", Priority.LOW, 0.0, config),
            spec(1, "CNN-VN", Priority.HIGH, 0.5, config),
        ]
        result = run(config, factory, specs, policy="HPF",
                     mode=PreemptionMode.DYNAMIC)
        assert result.drain_decisions >= 1
        assert result.task_by_id(0).preemption_count == 0


class TestEnsembleInvariants:
    @pytest.mark.parametrize("policy,mode", [
        ("FCFS", PreemptionMode.NP),
        ("RRB", PreemptionMode.NP),
        ("HPF", PreemptionMode.STATIC),
        ("TOKEN", PreemptionMode.STATIC),
        ("SJF", PreemptionMode.STATIC),
        ("PREMA", PreemptionMode.DYNAMIC),
    ])
    def test_random_workloads_complete_under_every_policy(
        self, config, factory, policy, mode
    ):
        workload = WorkloadGenerator(seed=99).generate(num_tasks=6)
        simulator = NPUSimulator(
            SimulationConfig(npu=config, mode=mode), make_policy(policy)
        )
        tasks = factory.build_workload(workload)
        result = simulator.run(tasks)
        assert all(task.is_done for task in result.tasks)
        result.timeline.verify_no_overlap()
        for task in result.tasks:
            # Starvation freedom: everything eventually finishes with a
            # finite slowdown.
            assert task.normalized_turnaround < 1000

    def test_same_seed_same_results(self, config, factory):
        workload = WorkloadGenerator(seed=7).generate(num_tasks=5)
        sim = NPUSimulator(
            SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC),
            make_policy("PREMA"),
        )
        first = sim.run(factory.build_workload(workload))
        second = sim.run(factory.build_workload(workload))
        for a, b in zip(first.tasks, second.tasks):
            assert a.completion_time == b.completion_time


class TestEventQueue:
    """The event queue a standalone device owns and a fleet shares."""

    @staticmethod
    def device(device_id=0, queue=None, policy="PREMA"):
        return DeviceSim(
            SimulationConfig(npu=NPUConfig(), mode=PreemptionMode.DYNAMIC),
            make_policy(policy),
            device_id=device_id,
            queue=queue,
        )

    def test_finished_device_is_freed_by_reference_counting(self):
        # A queue entry that held its device would make a cycle, which
        # only the cyclic collector frees.
        gc.disable()
        try:
            sim = self.device()
            for task in synthetic_trace_runtimes(16, seed=5):
                sim.inject(task)
            while sim.has_live_tasks and sim.next_event_time() is not None:
                sim.step()
            alive = weakref.ref(sim)
            del sim
            assert alive() is None
        finally:
            gc.enable()

    def test_step_refuses_another_devices_event(self):
        queue = EventQueue()
        first, second = self.device(0, queue), self.device(1, queue)
        late, early = synthetic_trace_runtimes(2, seed=1)
        first.inject(late, arrival=2.0e5)
        second.inject(early, arrival=1.0e5)
        with pytest.raises(RuntimeError, match="belongs to device 1"):
            first.step()
        assert second.step() == 1.0e5
        assert first.step() == 2.0e5

    def test_fail_removes_only_its_own_events(self):
        queue = EventQueue()
        doomed, survivor = self.device(0, queue), self.device(1, queue, "HPF")
        alone = self.device(1, policy="HPF")  # the survivor, unshared
        for device, seed in ((doomed, 2), (survivor, 8), (alone, 8)):
            for task in synthetic_trace_runtimes(12, seed=seed):
                device.inject(task)
        fleet = (doomed, survivor)
        fired = []
        # Step the fleet until the doomed device has armed a tick past
        # its chain's next instant: stop_accepting then supersedes it.
        while doomed._armed_at is None or doomed._armed_at <= doomed._next_tick:
            device = fleet[queue.peek()[2]]
            now = device.step()
            if device is survivor:
                fired.append((now, survivor.last_event_kind))
        doomed.stop_accepting(now)
        assert len(queue._cancelled) == 1  # the superseded arm
        doomed.fail(now)
        assert not queue._cancelled
        while queue.peek() is not None:
            assert queue.peek()[2] == survivor.device_id
            fired.append((survivor.step(), survivor.last_event_kind))
        expected = []
        while alone.next_event_time() is not None:
            expected.append((alone.step(), alone.last_event_kind))
        assert fired == expected
        assert [t.completion_time for t in survivor.result().tasks] == [
            t.completion_time for t in alone.result().tasks
        ]

    def test_one_instant_fires_in_rank_order(self):
        # A device id keys the device kinds, None or a tuple the wakes.
        keys = {
            _EventKind.COMPLETE: 0,
            _EventKind.TRANSITION: None,
            _EventKind.FLUSH: None,
            _EventKind.ARRIVAL: 0,
            _EventKind.ROUTE: (1.0, 7),
            _EventKind.PERIOD: 0,
            _EventKind.DISPATCH: 0,
            _EventKind.SAMPLE: None,
        }
        queue = EventQueue()
        for kind in reversed(list(keys)):
            if kind is _EventKind.PERIOD:
                queue.arm(1.0, 0)
            else:
                queue.push(1.0, kind, keys[kind], kind.name)
        fired = []
        while queue.peek() is not None:
            if queue.peek()[2] == 0:
                fired.append(queue.pop(0)[4].name)
            else:
                fired.append(queue.take()[1])
        assert fired == [
            "COMPLETE", "TRANSITION", "FLUSH", "ARRIVAL",
            "ROUTE", "PERIOD", "DISPATCH", "SAMPLE",
        ]

    def test_devices_and_the_cluster_pop_only_their_own(self):
        queue = EventQueue()
        device = self.device(0, queue)
        (task,) = synthetic_trace_runtimes(1, seed=1)
        device.inject(task, arrival=2.0e5)
        queue.push(1.0e5, _EventKind.FLUSH, None, "window")
        with pytest.raises(RuntimeError, match="next event is a FLUSH wake"):
            device.step()
        assert queue.take() == (1.0e5, "window")
        with pytest.raises(RuntimeError, match="belongs to device 0"):
            queue.take()
        assert device.step() == 2.0e5

    def test_cancelled_entry_never_reaches_the_head(self):
        queue = EventQueue()
        head = queue.push(1.0, _EventKind.FLUSH, None, "head")
        queue.push(2.0, _EventKind.TRANSITION, None, "live")
        later = queue.push(3.0, _EventKind.SAMPLE, None, "later")
        queue.cancel(later)  # dropped once it reaches the head
        queue.cancel(head)  # dropped at once
        assert queue.peek() == (2.0, _EventKind.TRANSITION, None)
        assert queue.take() == (2.0, "live")
        assert queue.peek() is None
        assert not queue._cancelled
        # Only cancelled entries left: the queue reads as empty.
        queue.cancel(queue.push(4.0, _EventKind.FLUSH, None, "gone"))
        assert queue.peek() is None

    @pytest.mark.parametrize("exposed_by", ["step", "failure"])
    def test_superseded_arm_never_reaches_the_head(self, exposed_by):
        queue = EventQueue()
        queue.push(4.0, _EventKind.ARRIVAL, 0, 10)
        queue.push(7.0, _EventKind.ARRIVAL, 1, 11)
        queue.arm(5.0, 1)
        queue.arm(3.0, 1)  # supersedes the arm at 5.0
        assert queue.pop(1)[:3] == (3.0, _EventKind.PERIOD, 1)
        # Device 0's event hides device 1's stale arm until it leaves.
        if exposed_by == "step":
            queue.pop(0)
        else:
            queue.remove(0)
        assert queue.peek() == (7.0, _EventKind.ARRIVAL, 1)



class TestPendingPlacements:
    """A placement still to come keeps a drained device's chain alive."""

    @staticmethod
    def run(upfront, pending=0):
        """Run two tasks, the second arriving 2.5 periods after the first
        finished.  ``upfront`` injects both before the run; otherwise the
        second is injected once the device drained, as its ROUTE wake
        would, with ``pending`` placements counted until then.  Returns
        that arrival instant, the event log and the chain's next instant
        after each arrival."""
        sim = DeviceSim(
            SimulationConfig(npu=NPUConfig(), mode=PreemptionMode.DYNAMIC),
            make_policy("PREMA"),
        )
        first, second = synthetic_trace_runtimes(2, seed=3)
        late = first.profile.total_cycles + 2.5 * (
            sim.config.scheduler.period_cycles
        )
        sim.inject(first, arrival=0.0)
        if upfront:
            sim.inject(second, arrival=late)
        sim.pending_placements = pending
        log, chain = [], []
        for drained in (False, True):
            if drained and not upfront:
                sim.pending_placements -= pending
                sim.inject(second, arrival=late)
            while sim.next_event_time() is not None:
                log.append((sim.step(), sim.last_event_kind))
                if sim.last_event_kind is _EventKind.ARRIVAL:
                    chain.append(sim._next_tick)
        return late, log, chain

    def test_pending_placement_keeps_the_chain_anchored(self):
        period = SimulationConfig(npu=NPUConfig()).scheduler.period_cycles
        late, upfront_log, upfront_chain = self.run(upfront=True)
        _, fed_log, fed_chain = self.run(upfront=False, pending=1)
        assert (late, _EventKind.ARRIVAL) in fed_log
        assert fed_log == upfront_log
        assert fed_chain == upfront_chain
        assert fed_chain[1] != late + period
        # Without the count the drained device fires its drain tick and
        # the late arrival re-anchors the chain one period after itself.
        _, bare_log, bare_chain = self.run(upfront=False)
        assert any(
            kind is _EventKind.PERIOD and time < late for time, kind in bare_log
        )
        assert bare_chain[1] == late + period

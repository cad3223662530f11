"""Online dispatch and work stealing in the event-driven cluster layer.

Three claims under test:

1. *Online dispatch wins on skew.*  When predictions overestimate a
   device's backlog (a task finishes earlier than predicted), per-arrival
   routing against live device state achieves a makespan no worse -- and
   on the crafted workload strictly better -- than the static up-front
   pass over the same estimates.
2. *Migration is conservative.*  Work stealing never simulates a task
   twice, executes every task's full ground-truth cycle count exactly
   once cluster-wide, and only ever moves never-dispatched tasks.
3. *Degenerate shapes hold.*  Single-device clusters make every routing
   strategy identical, and devices that receive no work report None.
"""

import copy

import pytest

from repro.core.context import TaskContext
from repro.core.tokens import Priority
from repro.models.layers import LayerKind
from repro.npu.engine import ExecutionProfile, LayerTiming
from repro.sched.cluster import (
    STATIC_ROUTINGS,
    ClusterConfig,
    ClusterScheduler,
    RoutingPolicy,
    _ClusterRun,
)
from repro.sched.policies import make_policy
from repro.sched.simulator import (
    NPUSimulator,
    PreemptionMode,
    SimulationConfig,
)
from repro.sched.task import TaskRuntime
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.specs import TaskSpec
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_trace_runtimes,
)


def synthetic_task(
    task_id: int, arrival: float, estimated: float, actual: float
) -> TaskRuntime:
    """A one-layer task with full control of estimate vs ground truth."""
    layer = LayerTiming(
        name="gemm", kind=LayerKind.FC, cycles=actual, total_tiles=1,
        tile_cycles=actual, checkpoint=None, macs=0,
    )
    profile = ExecutionProfile(
        name=f"syn{task_id}", batch=1, layers=(layer,),
        layer_starts=(0.0,), total_cycles=actual,
    )
    spec = TaskSpec(
        task_id=task_id, benchmark=f"syn{task_id}", batch=1,
        priority=Priority.MEDIUM, arrival_cycles=arrival,
    )
    context = TaskContext(
        task_id=task_id, priority=Priority.MEDIUM, benchmark=spec.benchmark,
        estimated_cycles=estimated, last_update_cycles=arrival,
    )
    return TaskRuntime(spec=spec, profile=profile, context=context)


def skewed_workload():
    """Arrivals in two waves; task 0's estimate is a 10x overestimate.

    Static routing keeps avoiding device 0 long after task 0 actually
    finished; online routing sees the device free at the second wave.
    """
    return [
        synthetic_task(0, 0.0, estimated=1000.0, actual=100.0),
        synthetic_task(1, 1.0, estimated=800.0, actual=800.0),
        synthetic_task(2, 200.0, estimated=500.0, actual=500.0),
        synthetic_task(3, 250.0, estimated=400.0, actual=400.0),
    ]


def burst_workload():
    """Simultaneous burst; device 0 drains early, leaving work queued on
    device 1 -- the stealing opportunity."""
    return [
        synthetic_task(0, 0.0, estimated=1000.0, actual=100.0),
        synthetic_task(1, 0.0, estimated=1000.0, actual=1000.0),
        synthetic_task(2, 0.0, estimated=900.0, actual=400.0),
        synthetic_task(3, 0.0, estimated=850.0, actual=850.0),
    ]


def run_cluster(tasks, routing, num_devices=2, policy="FCFS",
                mode=PreemptionMode.NP, config=None):
    from repro.npu.config import NPUConfig

    cluster = ClusterScheduler(
        num_devices=num_devices,
        simulation_config=SimulationConfig(npu=config or NPUConfig(), mode=mode),
        config=ClusterConfig(
            policy_name=policy,
            routing=routing,
        ),
    )
    return cluster.run(tasks)


class TestOnlineVsStatic:
    def test_online_never_worse_on_skewed_workload(self):
        static = run_cluster(skewed_workload(), RoutingPolicy.LEAST_LOADED)
        online = run_cluster(skewed_workload(), RoutingPolicy.ONLINE_PREDICTED)
        assert online.makespan_cycles <= static.makespan_cycles
        # On this crafted skew the win is strict.
        assert online.makespan_cycles < static.makespan_cycles

    def test_work_stealing_never_worse_than_online(self):
        online = run_cluster(burst_workload(), RoutingPolicy.ONLINE_PREDICTED)
        stealing = run_cluster(burst_workload(), RoutingPolicy.WORK_STEALING)
        assert stealing.makespan_cycles <= online.makespan_cycles
        assert stealing.makespan_cycles < online.makespan_cycles
        assert stealing.migration_count >= 1

    def test_online_beats_static_on_generated_skew(self, config, factory):
        # Averaged over real generated workloads (mispredicted RNN unrolls
        # supply the estimate error), online routing should not lose.
        workloads = WorkloadGenerator(
            seed=77, arrival_window_cycles=config.ms_to_cycles(20.0)
        ).generate_many(5, num_tasks=12)

        def mean_makespan(routing):
            total = 0.0
            for workload in workloads:
                result = run_cluster(
                    factory.build_workload(workload), routing,
                    policy="PREMA", mode=PreemptionMode.DYNAMIC,
                    config=config,
                )
                total += result.makespan_cycles
            return total / len(workloads)

        assert mean_makespan(RoutingPolicy.ONLINE_PREDICTED) <= \
            mean_makespan(RoutingPolicy.LEAST_LOADED) * 1.02


class TestMigrationCorrectness:
    def test_no_task_simulated_twice(self):
        result = run_cluster(burst_workload(), RoutingPolicy.WORK_STEALING)
        seen = {}
        for device, device_result in enumerate(result.device_results):
            if device_result is None:
                continue
            for task in device_result.tasks:
                assert task.task_id not in seen, (
                    f"task {task.task_id} on devices {seen[task.task_id]} "
                    f"and {device}"
                )
                seen[task.task_id] = device
        assert set(seen) == {t.task_id for t in result.tasks}
        # Final assignments point at the executing device.
        for task_id, device in result.assignments.items():
            assert seen[task_id] == device

    def test_executed_cycles_conserved(self):
        result = run_cluster(burst_workload(), RoutingPolicy.WORK_STEALING)
        run_cycles = result.timeline.run_cycles_by_task()
        for task in result.tasks:
            assert run_cycles[task.task_id] == pytest.approx(
                task.profile.total_cycles
            )
        result.timeline.verify_no_overlap()

    def test_conservation_with_preemptive_devices(self, config, factory):
        # CHECKPOINT preemption retains progress, so cluster-wide RUN
        # cycles still equal each task's isolated cycles even with
        # preemptions and migrations in play.
        workload = WorkloadGenerator(
            seed=78, arrival_window_cycles=config.ms_to_cycles(10.0)
        ).generate(num_tasks=12)
        result = run_cluster(
            factory.build_workload(workload), RoutingPolicy.WORK_STEALING,
            num_devices=3, policy="PREMA", mode=PreemptionMode.DYNAMIC,
            config=config,
        )
        run_cycles = result.timeline.run_cycles_by_task()
        for task in result.tasks:
            assert run_cycles[task.task_id] == pytest.approx(
                task.profile.total_cycles, rel=1e-9
            )
        result.timeline.verify_no_overlap()

    def test_simultaneous_idle_devices_share_the_spoils(self):
        # Devices 1 and 2 finish at the same cycle while device 0 holds
        # two queued tasks: each idle device must steal exactly one (the
        # first thief's pending stolen arrival makes it non-idle for the
        # second steal pass at the same timestamp).
        tasks = [
            # Devices 0 and 1 run tasks that both complete at cycle 113.
            synthetic_task(0, 0.0, estimated=113.0, actual=113.0),
            synthetic_task(1, 1.0, estimated=112.0, actual=112.0),
            # Underestimated hog on device 2: its estimate is exhausted
            # by cycle 7, so device 2 looks free and attracts the next
            # two arrivals, which queue behind it (NP, never preempted).
            synthetic_task(2, 2.0, estimated=5.0, actual=10000.0),
            synthetic_task(3, 8.0, estimated=3.0, actual=400.0),
            synthetic_task(4, 9.0, estimated=300.0, actual=300.0),
        ]
        result = run_cluster(tasks, RoutingPolicy.WORK_STEALING,
                             num_devices=3)
        stolen = {m.task_id: m.to_device for m in result.migrations}
        assert set(stolen) == {3, 4}
        assert sorted(stolen.values()) == [0, 1]

    def test_migrated_tasks_were_never_dispatched_at_source(self):
        result = run_cluster(burst_workload(), RoutingPolicy.WORK_STEALING)
        assert result.migrations
        for migration in result.migrations:
            task = next(
                t for t in result.tasks if t.task_id == migration.task_id
            )
            assert task.first_dispatch_time is not None
            assert task.first_dispatch_time >= migration.time_cycles
            assert result.assignments[migration.task_id] == migration.to_device

    def test_static_routing_matches_isolated_devices(self, config, factory):
        # The shared event loop must not perturb statically routed runs:
        # completion times equal simulating each partition in isolation.
        workload = WorkloadGenerator(
            seed=79, arrival_window_cycles=config.ms_to_cycles(15.0)
        ).generate(num_tasks=10)
        sim_config = SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC)
        cluster = ClusterScheduler(
            3, sim_config,
            config=ClusterConfig(
                policy_name="PREMA", routing=RoutingPolicy.LEAST_LOADED
            ),
        )
        cluster_result = cluster.run(factory.build_workload(workload))
        assignments = cluster.route(factory.build_workload(workload))
        partitions = {}
        for task in factory.build_workload(workload):
            partitions.setdefault(assignments[task.task_id], []).append(task)
        isolated = {}
        for partition in partitions.values():
            run = NPUSimulator(sim_config, make_policy("PREMA")).run(partition)
            for task in run.tasks:
                isolated[task.task_id] = task.completion_time
        assert isolated == {
            t.task_id: t.completion_time for t in cluster_result.tasks
        }

    def test_static_equivalence_across_drain_gap(self, config, factory):
        # A device that finishes everything before its next assigned
        # arrival must keep its scheduling-period clock anchored at its
        # *first* arrival (as the batch simulator does), not re-anchor at
        # the late arrival -- token-grant timing would otherwise shift
        # and change PREMA's decisions.
        early = WorkloadGenerator(
            seed=80, arrival_window_cycles=config.ms_to_cycles(5.0)
        ).generate(num_tasks=4)
        gap = max(
            factory.build_task(spec).profile.total_cycles
            for spec in early.tasks
        ) * 6.0
        late = [
            TaskSpec(
                task_id=spec.task_id + 100,
                benchmark=spec.benchmark,
                batch=spec.batch,
                priority=spec.priority,
                arrival_cycles=spec.arrival_cycles + gap,
                input_len=spec.input_len,
                actual_output_len=spec.actual_output_len,
            )
            for spec in early.tasks
        ]
        specs = list(early.tasks) + late

        def build():
            return [factory.build_task(spec) for spec in specs]

        sim_config = SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC)
        isolated = NPUSimulator(sim_config, make_policy("PREMA")).run(build())
        cluster = ClusterScheduler(
            1, sim_config,
            config=ClusterConfig(
                policy_name="PREMA", routing=RoutingPolicy.ROUND_ROBIN
            ),
        ).run(build())
        assert {t.task_id: t.completion_time for t in isolated.tasks} == \
            {t.task_id: t.completion_time for t in cluster.tasks}

    @pytest.mark.parametrize(
        "routing", [r for r in RoutingPolicy if r in STATIC_ROUTINGS]
    )
    def test_static_partitions_replay_in_isolation(self, config, routing):
        # Static placements land one ROUTE wake at a time; on 4 devices
        # at ~85% load a device often drains for a period or more before
        # its next placement, and must still replay its partition as if
        # all of it were injected up front (waits and tokens too).
        trace = synthetic_trace_runtimes(
            200,
            seed=0,
            mean_interarrival_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / 4,
        )
        sim_config = SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC)
        cluster = ClusterScheduler(
            4, sim_config,
            config=ClusterConfig(policy_name="PREMA", routing=routing),
        )
        result = cluster.run(copy.deepcopy(trace))
        assignments = cluster.route(trace)
        partitions = {}
        for task in trace:
            partitions.setdefault(assignments[task.task_id], []).append(task)
        assert len(partitions) == 4

        def outcome(task):
            return (
                task.completion_time,
                task.context.waited_cycles,
                task.context.tokens,
            )

        period = sim_config.scheduler.period_cycles
        isolated, drains = {}, 0
        for partition in partitions.values():
            run = NPUSimulator(sim_config, make_policy("PREMA")).run(
                copy.deepcopy(partition)
            )
            drained_at = None
            for task in sorted(run.tasks, key=lambda t: t.spec.arrival_cycles):
                if drained_at is not None:
                    drains += task.spec.arrival_cycles > drained_at + period
                    drained_at = max(drained_at, task.completion_time)
                else:
                    drained_at = task.completion_time
                isolated[task.task_id] = outcome(task)
        assert drains > 0
        assert isolated == {t.task_id: outcome(t) for t in result.tasks}


class TestEdgeCases:
    def test_single_device_all_routings_identical(self):
        results = {
            routing: run_cluster(skewed_workload(), routing, num_devices=1)
            for routing in RoutingPolicy
        }
        makespans = {r.makespan_cycles for r in results.values()}
        assert len(makespans) == 1
        assert all(not r.migrations for r in results.values())

    def test_more_devices_than_tasks(self):
        result = run_cluster(
            burst_workload(), RoutingPolicy.WORK_STEALING, num_devices=6
        )
        assert result.num_devices == 6
        empty = [r for r in result.device_results if r is None]
        assert len(empty) >= 2
        assert all(task.is_done for task in result.tasks)
        utilization = result.device_utilization()
        assert len(utilization) == 6
        assert all(0.0 <= u <= 1.0 for u in utilization)

    def test_single_task_cluster(self):
        result = run_cluster(
            [synthetic_task(0, 0.0, 100.0, 100.0)],
            RoutingPolicy.WORK_STEALING, num_devices=3,
        )
        assert result.tasks[0].is_done
        assert result.migration_count == 0

    def test_route_raises_for_online_strategies(self):
        from repro.npu.config import NPUConfig

        cluster = ClusterScheduler(
            2, SimulationConfig(npu=NPUConfig()),
            config=ClusterConfig(routing=RoutingPolicy.ONLINE_PREDICTED),
        )
        with pytest.raises(ValueError):
            cluster.route([synthetic_task(0, 0.0, 1.0, 1.0)])

    @pytest.mark.parametrize("verify_indexes", [False, True])
    def test_unfinished_task_raises_instead_of_returning(
        self, monkeypatch, verify_indexes
    ):
        """A task whose COMPLETE is swallowed must fail the run by name,
        not come back unfinished inside ``ClusterResult.tasks``."""
        from repro.npu.config import NPUConfig

        complete = TaskRuntime.complete

        def swallow_task_2(task, now):
            if task.task_id != 2:
                complete(task, now)

        monkeypatch.setattr(TaskRuntime, "complete", swallow_task_2)
        cluster = ClusterScheduler(
            2,
            SimulationConfig(npu=NPUConfig(), mode=PreemptionMode.NP),
            config=ClusterConfig(
                policy_name="FCFS",
                routing=RoutingPolicy.WORK_STEALING,
                verify_indexes=verify_indexes,
            ),
        )
        with pytest.raises(RuntimeError, match=r"unsettled tasks: \[2\]"):
            cluster.run(burst_workload())

    def test_finished_task_also_lost_raises(self):
        """The offered requests must split into completed, rejected and
        lost ones with no overlap: a completed task that the run also
        counts as lost fails the result by name."""
        from repro.npu.config import NPUConfig

        cluster = ClusterScheduler(
            2,
            SimulationConfig(npu=NPUConfig(), mode=PreemptionMode.NP),
            config=ClusterConfig(
                policy_name="FCFS", routing=RoutingPolicy.WORK_STEALING
            ),
        )
        run = _ClusterRun(cluster, burst_workload())
        run.loop()
        finished = run.tasks[2]
        assert finished.is_done
        run.lost.append(finished)
        with pytest.raises(
            RuntimeError, match=r"finished tasks rejected or lost: \[2\]"
        ):
            run.result()
        # Counted as both rejected and lost: the overlap check names it
        # before the finished-task check does.
        run.rejected.append(finished)
        with pytest.raises(
            RuntimeError, match=r"tasks rejected or lost twice: \[2\]"
        ):
            run.result()

    def test_finished_task_also_rejected_raises(self):
        from repro.npu.config import NPUConfig

        cluster = ClusterScheduler(
            2,
            SimulationConfig(npu=NPUConfig(), mode=PreemptionMode.NP),
            config=ClusterConfig(
                policy_name="FCFS", routing=RoutingPolicy.ONLINE_PREDICTED
            ),
        )
        run = _ClusterRun(cluster, burst_workload())
        run.loop()
        finished = run.tasks[1]
        assert finished.is_done
        run.rejected.append(finished)
        with pytest.raises(
            RuntimeError, match=r"finished tasks rejected or lost: \[1\]"
        ):
            run.result()

    @pytest.mark.parametrize("again", ["rejected", "lost"])
    def test_lost_task_counted_again_raises(self, again):
        """A request the fleet really lost (every device down for good
        from cycle 0) fails the result by name when the run also counts
        it as rejected, or as lost a second time."""
        import math

        from repro.npu.config import NPUConfig
        from repro.sched.faults import ChurnEvent, ChurnSchedule

        dead_fleet = ChurnSchedule(events=tuple(
            ChurnEvent(device, "fault", warn_cycles=0.0, down_cycles=0.0,
                       restore_cycles=math.inf)
            for device in (0, 1)
        ))
        cluster = ClusterScheduler(
            2,
            SimulationConfig(npu=NPUConfig(), mode=PreemptionMode.NP),
            config=ClusterConfig(
                policy_name="FCFS",
                routing=RoutingPolicy.WORK_STEALING,
                churn=dead_fleet,
            ),
        )
        run = _ClusterRun(cluster, burst_workload())
        run.loop()
        assert [task.task_id for task in run.lost] == [0, 1, 2, 3]
        assert not any(task.is_done for task in run.lost)
        getattr(run, again).append(run.lost[3])
        with pytest.raises(
            RuntimeError, match=r"tasks rejected or lost twice: \[3\]"
        ):
            run.result()

    def test_cluster_timeline_reports_devices(self):
        result = run_cluster(burst_workload(), RoutingPolicy.WORK_STEALING)
        assert len(result.timeline) >= 1
        assert result.timeline.busy_cycles() > 0
        assert "NPU" in result.timeline.render_ascii()

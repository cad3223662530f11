"""Gang lifecycle on the cluster: equivalence, sharding, batching.

The gang mechanics of ``ClusterScheduler.run``, end to end:

1. *Equivalence*: without batching every routing runs a request as its
   own one-stage gang; a degenerate batching config (no window, no
   sharding) makes exactly the decisions of an unbatched run, on flat
   and racked fleets (same encoder the golden suites use).
2. *Pipeline sharding*: router-cut stages over real devices -- cycle
   conservation, stage-count clamping to fleet size and layer count,
   activation transfers on the fabric, DMA-in restores, distinct device
   reservations, slice-level preemption, and checkpoint migration of
   gangs straddling a contended link.
3. *Router batching*: window coalescing, max-batch flush, class
   separation, member settlement, and batch dissolution when admission
   rejects a would-be member.
"""

import math

import pytest

from helpers_golden import _encode_cluster_v2
from repro.core.tokens import Priority
from repro.npu.config import NPUConfig
from repro.sched.cluster import (
    ClusterConfig,
    ClusterScheduler,
    RoutingPolicy,
)
from repro.sched.faults import ChurnEvent, ChurnSchedule
from repro.sched.interconnect import InterconnectConfig
from repro.sched.job import BatchConfig, partition_runtime
from repro.sched.metrics import compute_cluster_metrics
from repro.sched.rack import RackTopology
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionRecord,
)
from repro.workloads.specs import TaskSpec
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_runtime,
    synthetic_trace_runtimes,
)

_CONFIG = NPUConfig()


def sim_config(mode=PreemptionMode.DYNAMIC, mechanism="CHECKPOINT"):
    return SimulationConfig(npu=_CONFIG, mode=mode, mechanism=mechanism)


def compat_task(task_id, arrival, cycles, priority=Priority.MEDIUM):
    """A task whose batch key matches every other compat_task of the
    same priority (benchmark/batch/lengths/qos all identical)."""
    spec = TaskSpec(
        task_id=task_id, benchmark="CNN-AN", batch=1,
        priority=priority, arrival_cycles=arrival,
    )
    return synthetic_runtime(spec, cycles)


def shard_two(min_shard_cycles=0.0):
    """Router sharding with no coalescing: every dispatch is one request,
    cut into two stages when its estimate clears ``min_shard_cycles``."""
    return BatchConfig(
        window_cycles=0.0, max_batch=1, shard_stages=2,
        min_shard_cycles=min_shard_cycles,
    )


#: Device 1 fails for good at cycle 0, so a 2-device fleet runs both
#: stages of a 2-stage gang on device 0 (router sharding clamps the
#: stage count to the fleet size, so a 1-device fleet never cuts).
DEVICE_1_DEAD = ChurnSchedule(events=(
    ChurnEvent(1, "fault", warn_cycles=0.0, down_cycles=0.0,
               restore_cycles=math.inf),
))


def stage_runtime_of(result, slice_id):
    """The stage slice runtime ``slice_id`` on the device that ran it."""
    device = result.assignments[slice_id]
    return result.device_results[device].task_by_id(slice_id)


def trace(num_tasks=16, seed=21, **kwargs):
    return synthetic_trace_runtimes(num_tasks, seed=seed, **kwargs)


#: Fleet shapes of the degenerate-batching equivalence: (devices, rack
#: topology, trace keywords).  16 flat devices run on the backlog index;
#: the racked fleet routes arrivals through the two-tier rack router.
DEGENERATE_SHAPES = {
    "flat3": (3, None, {}),
    "flat16": (
        16, None,
        {"num_tasks": 64,
         "mean_interarrival_cycles": DEFAULT_MEAN_INTERARRIVAL_CYCLES / 16},
    ),
    "racks2x4": (
        8, RackTopology.uniform(2, 4),
        {"num_tasks": 48,
         "mean_interarrival_cycles": DEFAULT_MEAN_INTERARRIVAL_CYCLES / 8},
    ),
}


# ----------------------------------------------------------------------
# 1. Equivalence
# ----------------------------------------------------------------------
class TestLegacyEquivalence:
    @pytest.mark.parametrize("routing", list(RoutingPolicy))
    def test_unsharded_tasks_run_as_themselves(self, routing):
        """Without batching, every routing serves a request as a
        one-stage gang whose slice *is* the request's runtime: the device
        that ran it (after any steal) holds that very object, no slice id
        is minted above the offered ones, and no batch record is kept."""
        tasks = trace(
            num_tasks=24,
            mean_interarrival_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / 3,
        )
        result = ClusterScheduler(
            3, sim_config(), config=ClusterConfig(routing=routing, seed=5)
        ).run(tasks)
        assert result.tasks == tuple(tasks)
        assert not result.rejected_tasks and not result.lost_tasks
        assert sorted(result.assignments) == [t.task_id for t in tasks]
        assert result.batches == ()
        for task in tasks:
            device = result.device_results[result.assignments[task.task_id]]
            assert device.task_by_id(task.task_id) is task
            assert (
                task.spec.arrival_cycles
                <= task.first_dispatch_time
                <= task.completion_time
            )

    @pytest.mark.parametrize("shape", sorted(DEGENERATE_SHAPES))
    @pytest.mark.parametrize(
        "routing",
        [
            RoutingPolicy.ONLINE_PREDICTED,
            RoutingPolicy.WORK_STEALING,
            RoutingPolicy.PREEMPTIVE_MIGRATION,
        ],
    )
    def test_gang_loop_degenerate_batching_is_bit_exact(self, routing, shape):
        """With window=0 and shard_stages=1 the batching router makes
        the same decisions as a plain task run -- same routing calls at
        the same instants (through the backlog index on a large flat
        fleet, through the two-tier rack router on a racked one), so the
        encodings match exactly."""
        num_devices, racks, trace_kwargs = DEGENERATE_SHAPES[shape]
        config = sim_config()
        baseline = ClusterScheduler(
            num_devices, config,
            config=ClusterConfig(routing=routing, seed=2, racks=racks),
        ).run(trace(seed=33, **trace_kwargs))
        degenerate = BatchConfig(window_cycles=0.0, max_batch=1)
        gang = ClusterScheduler(
            num_devices, config,
            config=ClusterConfig(
                routing=routing, seed=2, racks=racks, batching=degenerate
            ),
        ).run(trace(seed=33, **trace_kwargs))
        assert _encode_cluster_v2(gang) == _encode_cluster_v2(baseline)
        # The gang run carries batch records on top.
        assert len(gang.batches) == len(gang.tasks)
        assert all(b.batch_size == 1 for b in gang.batches)
        assert gang.batch_count == 0


# ----------------------------------------------------------------------
# 2. Pipeline sharding
# ----------------------------------------------------------------------
class TestShardedPipeline:
    def test_two_stage_gang_ships_activations(self):
        task = compat_task(0, arrival=0.0, cycles=2_000_000.0,
                           priority=Priority.LOW)
        expected_bytes = partition_runtime(task, 2)[0].activation_bytes
        scheduler = ClusterScheduler(
            2, sim_config(),
            config=ClusterConfig(
                routing=RoutingPolicy.ONLINE_PREDICTED,
                interconnect=InterconnectConfig.nvlink(),
                batching=shard_two(),
            ),
        )
        result = scheduler.run([task])
        assert result.tasks == (task,)
        # Stage 0 runs under the request's id, stage 1 under the first
        # id above every offered one.
        devices = [result.assignments[0], result.assignments[1]]
        assert devices[0] != devices[1]
        assert list(result.batches[0].devices) == devices
        stage0 = stage_runtime_of(result, 0)
        stage1 = stage_runtime_of(result, 1)
        assert stage0 is not task
        assert stage0.is_done and stage1.is_done
        activations = [
            t for t in result.transfers if t.purpose == "activation"
        ]
        assert len(activations) == 1
        assert activations[0].num_bytes == expected_bytes
        # DMA-in: stage 1 paid the landing cost as its dispatch restore.
        assert stage1.dispatch_restore == pytest.approx(
            expected_bytes / _CONFIG.bandwidth_bytes_per_cycle
        )
        # The source settles at the final stage's completion.
        assert task.is_done
        assert task.completion_time == stage1.completion_time
        metrics = compute_cluster_metrics(result)
        assert metrics.sharded_job_count == 1
        assert metrics.activation_bytes_total == expected_bytes

    def test_same_device_stages_skip_the_fabric(self):
        # With device 1 dead, both stages land on device 0 and the
        # boundary tensor never ships.
        task = compat_task(0, arrival=0.0, cycles=1_000_000.0,
                           priority=Priority.LOW)
        result = ClusterScheduler(
            2, sim_config(),
            config=ClusterConfig(
                routing=RoutingPolicy.ONLINE_PREDICTED,
                batching=shard_two(),
                churn=DEVICE_1_DEAD,
            ),
        ).run([task])
        assert result.tasks == (task,)
        assert result.batches[0].num_stages == 2
        assert [result.assignments[0], result.assignments[1]] == [0, 0]
        assert not result.transfers
        assert stage_runtime_of(result, 1).dispatch_restore == 0.0

    def test_preempting_one_slice_of_a_gang(self):
        # Both stages of a LOW request run on device 0 (device 1 is
        # dead); a HIGH task, too small to be cut, arrives mid-stage-0
        # and preempts just that slice under HPF.
        task = compat_task(0, arrival=0.0, cycles=2_000_000.0,
                           priority=Priority.LOW)
        interloper = compat_task(1, arrival=200_000.0, cycles=400_000.0,
                                 priority=Priority.HIGH)
        scheduler = ClusterScheduler(
            2, sim_config(),
            config=ClusterConfig(
                policy_name="HPF",
                routing=RoutingPolicy.ONLINE_PREDICTED,
                batching=shard_two(min_shard_cycles=1_000_000.0),
                churn=DEVICE_1_DEAD,
            ),
        )
        result = scheduler.run([task, interloper])
        assert [b.num_stages for b in result.batches] == [2, 1]
        stage0 = stage_runtime_of(result, 0)
        stage1 = stage_runtime_of(result, 2)
        assert stage0.preemption_count >= 1
        assert stage1.preemption_count == 0
        # The interloper cut ahead: it finished before the gang did.
        assert interloper.completion_time < task.completion_time
        assert task.completion_time == stage1.completion_time
        assert len(result.tasks) == 2

    def test_gang_straddling_contended_link_migrates(self):
        # Overloaded 4-device fleet, every dispatch sharded over the
        # shared PCIe bus, checkpoint migration on: activation shipments
        # and checkpoint migrations interleave on one contended link and
        # every gang still completes exactly once.
        tasks = trace(
            num_tasks=40, seed=5,
            mean_interarrival_cycles=0.8e-3 * 700e6,
        )
        scheduler = ClusterScheduler(
            4, sim_config(),
            config=ClusterConfig(
                routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
                interconnect=InterconnectConfig.pcie_gen3(),
                batching=BatchConfig(
                    window_cycles=1e6, max_batch=4, shard_stages=2
                ),
            ),
        )
        result = scheduler.run(tasks)
        assert len(result.tasks) == 40
        kinds = {t.purpose for t in result.transfers}
        assert kinds == {"checkpoint", "activation"}
        assert any(m.kind == "checkpoint" for m in result.migrations)
        # The bus serves FIFO, one transfer at a time, causally.
        previous_end = 0.0
        previous_request = 0.0
        for record in result.transfers:
            assert record.request_cycles >= previous_request
            assert record.start_cycles >= record.request_cycles
            assert record.start_cycles >= previous_end
            previous_end = record.end_cycles
            previous_request = record.request_cycles

    @staticmethod
    def cut(task, num_devices, shard_stages, min_shard_cycles=0.0):
        """Run ``task`` alone under router sharding with no coalescing."""
        return ClusterScheduler(
            num_devices, sim_config(),
            config=ClusterConfig(
                routing=RoutingPolicy.ONLINE_PREDICTED,
                batching=BatchConfig(
                    window_cycles=0.0, max_batch=1,
                    shard_stages=shard_stages,
                    min_shard_cycles=min_shard_cycles,
                ),
            ),
        ).run([task])

    def test_router_cut_conserves_cycles(self):
        # Three stages on three devices: the cut splits the ground truth
        # and the estimate without loss, and the stages run in order.
        task = compat_task(0, arrival=0.0, cycles=3_000_000.0,
                           priority=Priority.LOW)
        result = self.cut(task, num_devices=3, shard_stages=3)
        (batch,) = result.batches
        assert batch.num_stages == 3
        assert batch.member_task_ids == (0,)
        assert sorted(batch.devices) == [0, 1, 2]
        stages = [stage_runtime_of(result, i) for i in range(3)]
        assert [result.assignments[i] for i in range(3)] == list(
            batch.devices
        )
        assert sum(s.profile.total_cycles for s in stages) == pytest.approx(
            task.profile.total_cycles, rel=1e-9
        )
        assert sum(
            s.context.estimated_cycles for s in stages
        ) == pytest.approx(task.context.estimated_cycles, rel=1e-9)
        for before, after in zip(stages, stages[1:]):
            assert after.first_dispatch_time >= before.completion_time
        assert task.completion_time == stages[-1].completion_time

    def test_router_cut_clamps_to_fleet_size(self):
        task = compat_task(0, arrival=0.0, cycles=3_000_000.0,
                           priority=Priority.LOW)
        result = self.cut(task, num_devices=3, shard_stages=8)
        assert result.batches[0].num_stages == 3
        # Stage slices run under ids 0 (the request's), 1 and 2 only.
        assert sorted(result.assignments) == [0, 1, 2]
        assert task.is_done

    def test_router_cut_clamps_to_layer_count(self):
        # A 2-layer model cannot fill 4 stages, however large the fleet.
        spec = TaskSpec(
            task_id=0, benchmark="CNN-AN", batch=1,
            priority=Priority.LOW, arrival_cycles=0.0,
        )
        task = synthetic_runtime(spec, 3_000_000.0, num_layers=2)
        result = self.cut(task, num_devices=4, shard_stages=4)
        assert result.batches[0].num_stages == 2
        assert len(result.batches[0].devices) == 2
        assert sorted(result.assignments) == [0, 1]
        assert task.is_done

    def test_small_dispatch_runs_uncut_as_itself(self):
        # Under the shard threshold the dispatch is one stage: the
        # request's own runtime runs, nothing ships, no id is minted.
        task = compat_task(0, arrival=0.0, cycles=1_000_000.0,
                           priority=Priority.LOW)
        result = self.cut(
            task, num_devices=3, shard_stages=3, min_shard_cycles=2_000_000.0
        )
        assert result.batches[0].num_stages == 1
        assert list(result.assignments) == [0]
        assert stage_runtime_of(result, 0) is task
        assert not result.transfers
        assert task.is_done


# ----------------------------------------------------------------------
# 3. Router batching
# ----------------------------------------------------------------------
class TestRouterBatching:
    def cluster(self, batching, num_devices=2, admission=None):
        return ClusterScheduler(
            num_devices, sim_config(),
            config=ClusterConfig(
                routing=RoutingPolicy.ONLINE_PREDICTED,
                batching=batching,
                admission=admission,
            ),
        )

    def test_window_coalesces_compatible_requests(self):
        tasks = [
            compat_task(0, 0.0, 1_000_000.0),
            compat_task(1, 1_000.0, 800_000.0),
            compat_task(2, 2_000.0, 600_000.0),
        ]
        result = self.cluster(
            BatchConfig(window_cycles=10_000.0, max_batch=8)
        ).run(tasks)
        assert len(result.batches) == 1
        batch = result.batches[0]
        assert batch.member_task_ids == (0, 1, 2)
        assert batch.dispatch_cycles == 10_000.0  # window, not arrival
        assert result.mean_batch_size == 3.0
        # Members settle together, back-dated to the proxy's dispatch.
        completions = {t.completion_time for t in result.tasks}
        assert len(completions) == 1
        dispatches = {t.first_dispatch_time for t in result.tasks}
        assert len(dispatches) == 1

    def test_max_batch_flushes_early(self):
        tasks = [
            compat_task(0, 0.0, 500_000.0),
            compat_task(1, 1_000.0, 500_000.0),
            compat_task(2, 2_000.0, 500_000.0),
        ]
        result = self.cluster(
            BatchConfig(window_cycles=50_000.0, max_batch=2)
        ).run(tasks)
        sizes = sorted(b.batch_size for b in result.batches)
        assert sizes == [1, 2]
        full = next(b for b in result.batches if b.batch_size == 2)
        assert full.dispatch_cycles == 1_000.0  # second arrival, not window

    def test_reopened_window_flushes_at_its_own_deadline(self):
        # The first window flushes early at max_batch; the key reopens
        # before that window's deadline and keeps its own deadline.
        tasks = [
            compat_task(i, arrival, 1_000_000.0, Priority.LOW)
            for i, arrival in enumerate((0.0, 10.0, 20.0))
        ]
        result = self.cluster(
            BatchConfig(window_cycles=1_000_000.0, max_batch=2)
        ).run(tasks)
        assert [
            (b.member_task_ids, b.dispatch_cycles) for b in result.batches
        ] == [((0, 1), 10.0), ((2,), 1_000_020.0)]

    def test_expired_window_starts_a_new_batch(self):
        tasks = [
            compat_task(0, 0.0, 500_000.0),
            compat_task(1, 50_000.0, 500_000.0),
        ]
        result = self.cluster(
            BatchConfig(window_cycles=10_000.0, max_batch=8)
        ).run(tasks)
        assert [b.batch_size for b in result.batches] == [1, 1]
        assert result.batch_count == 0

    def test_classes_never_blend(self):
        tasks = [
            compat_task(0, 0.0, 500_000.0, priority=Priority.LOW),
            compat_task(1, 100.0, 500_000.0, priority=Priority.HIGH),
        ]
        result = self.cluster(
            BatchConfig(window_cycles=10_000.0, max_batch=8)
        ).run(tasks)
        assert len(result.batches) == 2
        assert all(b.batch_size == 1 for b in result.batches)

    def test_batch_amortizes_device_time(self):
        # 4 identical requests, alpha=0.5: the merged dispatch occupies
        # max + 0.5 * 3 * c = 2.5c of device time instead of 4c.
        tasks = [
            compat_task(i, float(i), 1_000_000.0) for i in range(4)
        ]
        result = self.cluster(
            BatchConfig(
                window_cycles=10_000.0, max_batch=8,
                marginal_fraction=0.5,
            ),
            num_devices=1,
        ).run(tasks)
        assert result.mean_batch_size == 4.0
        makespan = result.makespan_cycles
        assert makespan == pytest.approx(10_000.0 + 2_500_000.0, rel=1e-6)

    def test_rejected_member_dissolves_from_batch(self):
        class RejectOne(AdmissionController):
            """Force-reject one task id; admit everything else."""

            def __init__(self, victim):
                super().__init__()
                self.victim = victim

            def decide(self, task, backlog_cycles, now, attempt=0,
                       marginal_scale=1.0):
                if task.task_id == self.victim:
                    record = AdmissionRecord(
                        task_id=task.task_id, qos="standard",
                        decision=AdmissionDecision.REJECT,
                        time_cycles=now, predicted_slowdown=99.0,
                        attempt=attempt,
                    )
                    self._records.append(record)
                    return record
                return super().decide(
                    task, backlog_cycles, now, attempt, marginal_scale
                )

        tasks = [
            compat_task(0, 0.0, 500_000.0),
            compat_task(1, 1_000.0, 500_000.0),
            compat_task(2, 2_000.0, 500_000.0),
        ]
        result = self.cluster(
            BatchConfig(window_cycles=10_000.0, max_batch=8),
            admission=RejectOne(victim=1),
        ).run(tasks)
        # The batch flushed with the surviving members only.
        assert len(result.batches) == 1
        assert result.batches[0].member_task_ids == (0, 2)
        assert [t.task_id for t in result.rejected_tasks] == [1]
        assert not result.rejected_tasks[0].is_done
        assert {t.task_id for t in result.tasks} == {0, 2}
        assert all(t.is_done for t in result.tasks)

    def test_job_dispatch_time_is_first_device_dispatch(self):
        """A member's ``first_dispatch_time`` is when its dispatch first
        ran on an NPU -- not the router flush, which ``BatchRecord``
        records."""
        hog = compat_task(0, 0.0, 500_000.0, priority=Priority.HIGH)
        pair = [
            compat_task(task_id, 10.0 * task_id, 50_000.0)
            for task_id in (1, 2)
        ]
        scheduler = ClusterScheduler(
            1, sim_config(mode=PreemptionMode.NP),
            config=ClusterConfig(
                policy_name="FCFS",
                routing=RoutingPolicy.ONLINE_PREDICTED,
                batching=BatchConfig(window_cycles=1_000.0, max_batch=2),
            ),
        )
        result = scheduler.run([hog] + pair)
        flushes = {
            batch.member_task_ids: batch.dispatch_cycles
            for batch in result.batches
        }
        # The hog's window flushes at 1,000; the pair fills max_batch at
        # 20 and runs first, for 50k + 0.75 * 50k cycles.
        assert flushes == {(0,): 1_000.0, (1, 2): 20.0}
        assert hog.first_dispatch_time == 20.0 + 87_500.0
        for task in pair:
            assert task.first_dispatch_time == 20.0

    def test_admission_settles_batched_members(self):
        # Every admitted member's budget charge is released at the
        # *batch* completion -- outstanding work returns to zero.
        admission = AdmissionController()
        tasks = [
            compat_task(0, 0.0, 500_000.0),
            compat_task(1, 1_000.0, 500_000.0),
        ]
        result = self.cluster(
            BatchConfig(window_cycles=10_000.0, max_batch=8),
            admission=admission,
        ).run(tasks)
        assert len(result.tasks) == 2
        assert result.mean_batch_size == 2.0
        assert admission.outstanding_cycles() == 0.0

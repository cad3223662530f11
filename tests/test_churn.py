"""Device churn (repro.sched.faults): schedules, failure, recovery.

Four layers of coverage:

1. *Model units*: ChurnEvent/ChurnSchedule validation, seeded
   generation from the named churn RNG stream, and the
   FleetAvailability state machine.
2. *Mechanism units*: ``Interconnect.cancel_transfers_to`` (freed link
   time, conservation after cancellation) and the DeviceSim failure
   surface (``fail``, ``preview_checkpoint``, ``force_checkpoint``).
3. *Determinism contracts*: an empty schedule, and one whose events
   all fall after the run, are bit-for-bit churn disabled across every
   routing, and generating a schedule never perturbs the arrival/runtime
   streams (the bit-identical-trace regression).
4. *Conservation property*: across seeded random churn schedules x all
   six routings x both recovery modes, no task is ever silently lost
   -- offered == completed + rejected + lost-and-reaccounted, exactly.
"""

import copy
import math
import random

import pytest

from repro.npu.config import NPUConfig
from repro.sched.cluster import (
    STATIC_ROUTINGS,
    ClusterConfig,
    ClusterScheduler,
    RoutingPolicy,
    _ClusterRun,
)
from repro.sched.faults import (
    CHURN_STREAM_SALT,
    ChurnEvent,
    ChurnSchedule,
    DeviceAvailability,
    FleetAvailability,
)
from repro.sched.interconnect import Interconnect, InterconnectConfig
from repro.sched.metrics import compute_cluster_metrics
from repro.sched.policies import make_policy
from repro.sched.simulator import (
    DeviceSim,
    PreemptionMode,
    SimulationConfig,
)
from repro.sched.timeline import SegmentKind
from repro.serving import AdmissionController, PredictionFeedback
from repro.workloads.specs import TaskSpec
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_runtime,
    synthetic_trace_runtimes,
)
from repro.core.tokens import Priority

_CONFIG = NPUConfig()


def make_task(task_id, arrival, cycles, priority=Priority.MEDIUM):
    spec = TaskSpec(
        task_id=task_id, benchmark=f"syn{task_id}", batch=1,
        priority=priority, arrival_cycles=arrival,
    )
    return synthetic_runtime(spec, cycles)


def make_device(policy="HPF", device_id=0):
    return DeviceSim(
        SimulationConfig(
            npu=_CONFIG, mode=PreemptionMode.STATIC, mechanism="CHECKPOINT"
        ),
        make_policy(policy),
        device_id=device_id,
    )


def hog_trace(num_tasks=50, seed=5, num_devices=4):
    return synthetic_trace_runtimes(
        num_tasks,
        seed=seed,
        mean_interarrival_cycles=(
            DEFAULT_MEAN_INTERARRIVAL_CYCLES / num_devices
        ),
        estimate_error=0.5,
    )


def run_cluster(
    trace,
    routing=RoutingPolicy.ONLINE_PREDICTED,
    num_devices=4,
    churn=None,
    proactive=True,
    admission=None,
):
    scheduler = ClusterScheduler(
        num_devices,
        SimulationConfig(npu=_CONFIG, mode=PreemptionMode.DYNAMIC),
        config=ClusterConfig(
            policy_name="PREMA",
            routing=routing,
            churn=churn,
            proactive_migration=proactive,
            admission=admission,
        ),
    )
    return scheduler.run([copy.deepcopy(task) for task in trace])


def signature(result):
    """Bit-for-bit behavioral fingerprint of a cluster run."""
    return tuple(
        (
            task.task_id,
            task.completion_time,
            task.context.tokens,
            task.context.waited_cycles,
            result.assignments.get(task.task_id),
        )
        for task in result.tasks
    )


# ----------------------------------------------------------------------
# 1. Model units
# ----------------------------------------------------------------------
class TestChurnEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ChurnEvent(0, "meteor", 0.0, 1.0, 2.0)

    def test_rejects_negative_device(self):
        with pytest.raises(ValueError):
            ChurnEvent(-1, "fault", 1.0, 1.0, 2.0)

    def test_rejects_warning_after_outage(self):
        with pytest.raises(ValueError):
            ChurnEvent(0, "revocation", 5.0, 1.0, 9.0)

    def test_rejects_restore_before_outage(self):
        with pytest.raises(ValueError):
            ChurnEvent(0, "revocation", 0.0, 2.0, 2.0)

    def test_fault_carries_no_warning(self):
        with pytest.raises(ValueError):
            ChurnEvent(0, "fault", 0.0, 1.0, 2.0)

    def test_drain_must_restore(self):
        with pytest.raises(ValueError):
            ChurnEvent(0, "drain", 0.0, 1.0, math.inf)

    def test_windows(self):
        event = ChurnEvent(1, "revocation", 2.0, 5.0, 11.0)
        assert event.warning_window_cycles == 3.0
        assert event.outage_cycles == 6.0
        forever = ChurnEvent(1, "fault", 5.0, 5.0, math.inf)
        assert forever.warning_window_cycles == 0.0
        assert math.isinf(forever.outage_cycles)


class TestChurnSchedule:
    def test_rejects_overlapping_events_on_one_device(self):
        first = ChurnEvent(0, "drain", 0.0, 2.0, 10.0)
        second = ChurnEvent(0, "drain", 5.0, 6.0, 12.0)
        with pytest.raises(ValueError):
            ChurnSchedule(events=(first, second))
        # Different devices may overlap freely.
        ChurnSchedule(events=(first, ChurnEvent(1, "drain", 5.0, 6.0, 12.0)))

    def test_events_for_sorts_by_warning(self):
        late = ChurnEvent(0, "drain", 20.0, 21.0, 30.0)
        early = ChurnEvent(0, "drain", 0.0, 1.0, 10.0)
        schedule = ChurnSchedule(events=(late, early))
        assert schedule.events_for(0) == (early, late)
        assert schedule.events_for(3) == ()

    def test_generate_is_deterministic(self):
        kwargs = dict(
            num_devices=4,
            horizon_cycles=1e8,
            fault_rate=2e-8,
            revocation_rate=3e-8,
            drain_rate=1e-8,
            mean_outage_cycles=1e7,
            mean_warning_cycles=5e5,
            never_restore_probability=0.2,
        )
        one = ChurnSchedule.generate(seed=13, **kwargs)
        two = ChurnSchedule.generate(seed=13, **kwargs)
        assert one == two
        assert len(one) > 0
        other = ChurnSchedule.generate(seed=14, **kwargs)
        assert other != one

    def test_generate_caps_concurrent_outages(self):
        schedule = ChurnSchedule.generate(
            4,
            horizon_cycles=1e8,
            seed=3,
            fault_rate=1e-6,  # far too many faults to all coexist
            mean_outage_cycles=5e7,
            max_concurrent_down=2,
        )
        boundaries = sorted(
            {e.warn_cycles for e in schedule}
            | {e.restore_cycles for e in schedule if not
               math.isinf(e.restore_cycles)}
        )
        for when in boundaries:
            concurrent = sum(
                1 for e in schedule
                if e.warn_cycles <= when < e.restore_cycles
            )
            assert concurrent <= 2

    def test_generate_validates_arguments(self):
        with pytest.raises(ValueError):
            ChurnSchedule.generate(0, 1e6)
        draws = (
            lambda horizon, **knobs: ChurnSchedule.generate(
                2, horizon, seed=1, **knobs
            ),
            lambda horizon, **knobs: ChurnSchedule.generate_rack_correlated(
                (0, 0, 1, 1), horizon, seed=1, **knobs
            ),
        )
        # A NaN or infinite horizon would never stop the draw loop, a NaN
        # or negative rate would vanish silently, and a zero mean would
        # divide by zero.
        cases = (
            (0.0, {}, "horizon_cycles"),
            (math.nan, {"fault_rate": 1e-6}, "horizon_cycles"),
            (math.inf, {"fault_rate": 1e-6}, "horizon_cycles"),
            (math.nan, {"revocation_rate": 1e-6}, "horizon_cycles"),
            (1e6, {"fault_rate": math.nan}, "fault_rate"),
            (1e6, {"revocation_rate": -1e-6}, "revocation_rate"),
            (1e6, {"drain_rate": math.inf}, "drain_rate"),
            (
                1e6,
                {"revocation_rate": 1e-6, "mean_outage_cycles": 0.0},
                "mean_outage_cycles",
            ),
            (
                1e6,
                {"revocation_rate": 1e-6, "mean_warning_cycles": 0.0},
                "mean_warning_cycles",
            ),
        )
        for draw in draws:
            for horizon, knobs, name in cases:
                with pytest.raises(ValueError, match=name):
                    draw(horizon, **knobs)

    def test_never_restore_revocations(self):
        schedule = ChurnSchedule.generate(
            8,
            horizon_cycles=1e8,
            seed=5,
            revocation_rate=1e-7,
            never_restore_probability=1.0,
        )
        assert schedule.num_revocations > 0
        assert all(math.isinf(e.restore_cycles) for e in schedule)

    def test_partition_stable_across_fleet_growth(self):
        # Per-device substreams: growing the fleet must not reshuffle
        # the outages of the devices that were already there.  The cap
        # is made explicitly non-binding so arbitration cannot couple
        # the old devices to the new ones.
        kwargs = dict(
            horizon_cycles=1e8,
            seed=21,
            fault_rate=2e-8,
            revocation_rate=3e-8,
            drain_rate=1e-8,
            mean_outage_cycles=1e7,
            mean_warning_cycles=5e5,
            never_restore_probability=0.2,
            max_concurrent_down=1024,
        )
        small = ChurnSchedule.generate(4, **kwargs)
        large = ChurnSchedule.generate(16, **kwargs)
        assert len(small) > 0
        for device in range(4):
            assert small.events_for(device) == large.events_for(device)

    def test_rack_partition_reproduces_global_draw(self):
        # Per-rack substreams: a shard that regenerates only its own
        # racks' schedules must see exactly the events the global draw
        # assigned those racks (non-binding cap, as above).
        kwargs = dict(
            horizon_cycles=1e8,
            seed=22,
            fault_rate=2e-8,
            revocation_rate=3e-8,
            drain_rate=1e-8,
            mean_outage_cycles=1e7,
            mean_warning_cycles=5e5,
            never_restore_probability=0.2,
            max_concurrent_down_racks=1024,
        )
        # 4 racks x 3 devices globally; the shard owns racks 0-1 only.
        global_map = tuple(d // 3 for d in range(12))
        shard_map = tuple(d // 3 for d in range(6))
        whole = ChurnSchedule.generate_rack_correlated(global_map, **kwargs)
        shard = ChurnSchedule.generate_rack_correlated(shard_map, **kwargs)
        assert len(shard) > 0
        for device in range(6):
            assert whole.events_for(device) == shard.events_for(device)


class TestFleetAvailability:
    def test_state_machine_through_one_drain(self):
        event = ChurnEvent(1, "drain", 10.0, 20.0, 50.0)
        fleet = FleetAvailability(3, ChurnSchedule(events=(event,)))
        assert fleet.state(1) is DeviceAvailability.HEALTHY
        assert not fleet.is_doomed(1)
        assert list(fleet.surviving()) == [0, 1, 2]

        warn = fleet.pop()
        assert (warn.phase, warn.time_cycles) == ("warn", 10.0)
        fleet.apply(warn)
        assert fleet.state(1) is DeviceAvailability.DRAINING
        assert fleet.is_doomed(1)
        assert list(fleet.surviving()) == [0, 1, 2]  # still serving

        down = fleet.pop()
        assert (down.phase, down.time_cycles) == ("down", 20.0)
        fleet.apply(down)
        assert fleet.state(1) is DeviceAvailability.DOWN
        assert list(fleet.surviving()) == [0, 2]

        restore = fleet.pop()
        assert (restore.phase, restore.time_cycles) == ("restore", 50.0)
        fleet.apply(restore)
        assert fleet.state(1) is DeviceAvailability.HEALTHY
        assert not fleet

    def test_fault_warns_as_warned_not_draining(self):
        event = ChurnEvent(0, "revocation", 5.0, 9.0, math.inf)
        fleet = FleetAvailability(1, ChurnSchedule(events=(event,)))
        warn = fleet.pop()
        fleet.apply(warn)
        assert fleet.state(0) is DeviceAvailability.WARNED
        down = fleet.pop()
        fleet.apply(down)
        assert fleet.state(0) is DeviceAvailability.DOWN
        assert not fleet  # inf restore never enqueued

    def test_push_check_interleaves_by_time(self):
        event = ChurnEvent(0, "drain", 10.0, 30.0, 60.0)
        fleet = FleetAvailability(1, ChurnSchedule(events=(event,)))
        fleet.push_check(20.0, 0)
        fleet.apply(fleet.pop())  # warn @10
        check = fleet.pop()
        assert (check.phase, check.time_cycles) == ("check", 20.0)
        state_before = fleet.state(0)
        fleet.apply(check)  # no state change
        assert fleet.state(0) is state_before
        assert fleet.pop().phase == "down"

    def test_events_beyond_fleet_size_are_ignored(self):
        event = ChurnEvent(7, "drain", 10.0, 30.0, 60.0)
        fleet = FleetAvailability(2, ChurnSchedule(events=(event,)))
        assert not fleet


# ----------------------------------------------------------------------
# 2. Mechanism units
# ----------------------------------------------------------------------
class TestInterconnectCancellation:
    def make_fabric(self):
        return Interconnect(InterconnectConfig.pcie_gen3(), 4)

    def test_cancel_truncates_inflight_transfer(self):
        fabric = self.make_fabric()
        record = fabric.transfer(0, 1, 64 * 1024 * 1024, 0.0, task_id=1)
        cut = record.start_cycles + (record.end_cycles -
                                     record.start_cycles) / 2
        freed = fabric.cancel_transfers_to(1, cut)
        assert freed == pytest.approx(record.end_cycles - cut)
        (truncated,) = fabric.transfers
        assert truncated.cancelled
        assert truncated.end_cycles == pytest.approx(cut)
        fabric.verify_conservation()

    def test_cancel_frees_the_link_for_later_transfers(self):
        fabric = self.make_fabric()
        doomed = fabric.transfer(0, 1, 64 * 1024 * 1024, 0.0, task_id=1)
        cut = doomed.start_cycles + 10.0
        fabric.cancel_transfers_to(1, cut)
        assert fabric.link_free_at(0, 1) == pytest.approx(cut)
        follow = fabric.transfer(0, 1, 1024.0, cut, task_id=2)
        assert follow.start_cycles == pytest.approx(cut)
        assert follow.end_cycles < doomed.end_cycles
        fabric.verify_conservation()

    def test_cancel_queued_transfer_occupies_nothing(self):
        fabric = self.make_fabric()
        first = fabric.transfer(0, 1, 64 * 1024 * 1024, 0.0, task_id=1)
        queued = fabric.transfer(0, 1, 64 * 1024 * 1024, 5.0, task_id=2)
        assert queued.start_cycles == pytest.approx(first.end_cycles)
        freed = fabric.cancel_transfers_to(1, first.end_cycles)
        # Only the queued transfer is undelivered; it collapses to zero
        # occupancy at its own (never reached) start.
        assert freed == pytest.approx(
            queued.end_cycles - queued.start_cycles
        )
        records = fabric.transfers
        assert not records[0].cancelled
        assert records[1].cancelled
        assert records[1].end_cycles == pytest.approx(
            records[1].start_cycles
        )
        fabric.verify_conservation()

    def test_cancel_skips_delivered_and_other_destinations(self):
        fabric = self.make_fabric()
        delivered = fabric.transfer(0, 1, 1024.0, 0.0, task_id=1)
        elsewhere = fabric.transfer(0, 2, 64 * 1024 * 1024, 0.0, task_id=2)
        freed = fabric.cancel_transfers_to(1, delivered.end_cycles + 1.0)
        assert freed == 0.0
        assert not any(record.cancelled for record in fabric.transfers)
        assert fabric.link_free_at(0, 2) == pytest.approx(
            elsewhere.end_cycles
        )
        fabric.verify_conservation()

    def test_cancel_rejects_bad_device(self):
        with pytest.raises(ValueError):
            self.make_fabric().cancel_transfers_to(9, 0.0)


class TestDeviceFail:
    def test_fail_orphans_everything_resident(self):
        device = make_device()
        running = make_task(0, 0.0, 500_000.0, Priority.LOW)
        queued = make_task(1, 0.0, 300_000.0, Priority.LOW)
        device.inject(running)
        device.inject(queued)
        device.step()  # arrivals -> dispatch of task 0
        now = 200_000.0
        orphans = device.fail(now)
        assert {task.task_id for task in orphans} == {0, 1}
        for task in orphans:
            assert task.restart_count == 1
            assert task.orphaned_at == now
            assert task.retained_offset == 0.0
            assert task.dispatch_time is None
        by_id = {task.task_id for task in orphans}
        assert 0 in by_id
        lost = next(t for t in orphans if t.task_id == 0)
        assert lost.lost_progress_cycles > 0.0  # it was running
        waiting = next(t for t in orphans if t.task_id == 1)
        assert waiting.lost_progress_cycles == 0.0
        # The corpse: no events, accepts nothing, never idle-candidate.
        assert not device.accepts_work
        assert device.next_event_time() is None
        assert not device.is_idle(now)

    def test_fail_preserves_completed_tasks(self):
        device = make_device()
        done = make_task(0, 0.0, 50_000.0)
        device.inject(done)
        while device.has_live_tasks and device.next_event_time() is not None:
            device.step()
        assert done.is_done
        orphans = device.fail(done.completion_time + 1.0)
        assert orphans == []
        result = device.result()
        assert [task.task_id for task in result.tasks] == [0]

    def test_fail_mid_restore_ends_the_restore_span(self):
        """A device can die while a re-dispatched task is still restoring
        its checkpoint; the timeline keeps the restore up to the failure
        instant instead of rejecting a run span that ends before it
        starts."""
        device = make_device()
        task = make_task(0, 0.0, 500_000.0, Priority.LOW)
        device.inject(task)
        device.step()  # dispatch
        device.force_checkpoint(150_000.0)
        while task.dispatch_time is None:
            device.step()  # the trap lands, then the task re-dispatches
        assert task.dispatch_restore > 0.0
        start = task.dispatch_time
        now = start + task.dispatch_restore / 2
        assert device.fail(now) == [task]
        restore = device.timeline.segments[-1]
        assert restore.kind is SegmentKind.RESTORE
        assert (restore.start_cycles, restore.end_cycles) == (start, now)

    def test_recovery_delay_recorded_on_redispatch(self):
        device = make_device()
        task = make_task(0, 0.0, 100_000.0)
        device.inject(task)
        device.step()
        (orphan,) = device.fail(50_000.0)
        fresh = make_device(device_id=1)
        fresh.inject(orphan, arrival=80_000.0)
        fresh.step()  # arrival -> dispatch
        assert orphan.orphaned_at is None
        assert orphan.recovery_delays == [pytest.approx(30_000.0)]
        assert orphan.restart_count == 1

    def test_force_checkpoint_matches_preview(self):
        device = make_device()
        task = make_task(0, 0.0, 500_000.0, Priority.LOW)
        device.inject(task)
        device.step()  # dispatch
        now = 150_000.0
        preview = device.preview_checkpoint(now)
        assert preview is not None
        free_at, checkpoint_bytes = device.force_checkpoint(now)
        assert (free_at, checkpoint_bytes) == preview
        assert free_at >= now
        assert checkpoint_bytes > 0
        # The checkpoint becomes durable (hence migratable) at free_at,
        # and no successor was promised the array.
        assert device.migratable_preempted_tasks(now) == []
        migratable = device.migratable_preempted_tasks(free_at)
        assert [t.task_id for t in migratable] == [0]
        assert task.retained_offset > 0.0

    def test_force_checkpoint_requires_a_running_task(self):
        with pytest.raises(RuntimeError):
            make_device().force_checkpoint(0.0)
        assert make_device().preview_checkpoint(0.0) is None


# ----------------------------------------------------------------------
# 3. Determinism contracts
# ----------------------------------------------------------------------
class TestDeterminismContracts:
    @pytest.mark.parametrize("routing", tuple(RoutingPolicy))
    def test_empty_schedule_is_bit_for_bit_churn_disabled(self, routing):
        trace = hog_trace(40)
        baseline = run_cluster(trace, routing=routing, churn=None)
        empty = run_cluster(trace, routing=routing, churn=ChurnSchedule())
        assert signature(baseline) == signature(empty)

    @pytest.mark.parametrize("routing", tuple(RoutingPolicy))
    def test_schedule_after_the_run_is_bit_for_bit_churn_disabled(
        self, routing
    ):
        """A schedule whose only event falls after the run never acts, so
        it decides like no churn.  The trace is 200 tasks at ~85% load,
        where static placements often find their device drained: its
        period chain must not depend on the schedule."""
        trace = synthetic_trace_runtimes(
            200,
            seed=0,
            mean_interarrival_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / 4,
        )
        baseline = run_cluster(trace, routing=routing, churn=None)
        late = 10 * baseline.makespan_cycles
        after_the_run = ChurnSchedule(
            events=(ChurnEvent(0, "fault", late, late, 2 * late),)
        )
        never_fires = run_cluster(trace, routing=routing, churn=after_the_run)
        assert signature(baseline) == signature(never_fires)

    def test_generating_churn_never_perturbs_the_trace_streams(self):
        """The bit-identical-trace regression: the churn schedule draws
        from its own named RNG stream (seed ^ CHURN_STREAM_SALT), so
        interleaving schedule generation with trace generation changes
        neither -- and never touches the global ``random`` stream."""
        global_state = random.getstate()
        before = synthetic_trace_runtimes(40, seed=9, qos_mix={
            "interactive": 0.3, "standard": 0.4, "batch": 0.3,
        })
        schedule = ChurnSchedule.generate(
            4, 1e8, seed=9, revocation_rate=5e-8, fault_rate=2e-8,
        )
        after = synthetic_trace_runtimes(40, seed=9, qos_mix={
            "interactive": 0.3, "standard": 0.4, "batch": 0.3,
        })
        assert random.getstate() == global_state
        assert [task.spec for task in before] == [
            task.spec for task in after
        ]
        assert [task.profile.total_cycles for task in before] == [
            task.profile.total_cycles for task in after
        ]
        again = ChurnSchedule.generate(
            4, 1e8, seed=9, revocation_rate=5e-8, fault_rate=2e-8,
        )
        assert schedule == again

    def test_churn_stream_is_salted_off_the_raw_seed(self):
        """Seed s churn must not replay the raw Random(s) stream another
        subsystem seeded the same way would see."""
        raw = random.Random(9)
        salted = random.Random(9 ^ CHURN_STREAM_SALT)
        assert [raw.random() for _ in range(4)] != [
            salted.random() for _ in range(4)
        ]

    def test_churn_enabled_runs_are_seeded_reproducible(self):
        trace = hog_trace(40)
        schedule = ChurnSchedule.generate(
            4, 1e8, seed=2,
            revocation_rate=4e-8, mean_outage_cycles=3e7,
            mean_warning_cycles=5e5,
        )
        one = run_cluster(trace, churn=schedule)
        two = run_cluster(trace, churn=schedule)
        assert signature(one) == signature(two)


# ----------------------------------------------------------------------
# 4. Conservation property: no task silently lost, ever
# ----------------------------------------------------------------------
def random_schedule(churn_seed, num_devices, horizon):
    return ChurnSchedule.generate(
        num_devices,
        horizon_cycles=horizon,
        seed=churn_seed,
        fault_rate=1.5 / horizon,
        revocation_rate=1.5 / horizon,
        drain_rate=0.75 / horizon,
        mean_outage_cycles=horizon / 5.0,
        mean_warning_cycles=horizon / 60.0,
        never_restore_probability=0.25,
    )


def assert_conserved(trace, result):
    offered = {task.task_id for task in trace}
    completed = {task.task_id for task in result.tasks}
    rejected = {task.task_id for task in result.rejected_tasks}
    lost = {task.task_id for task in result.lost_tasks}
    assert completed.isdisjoint(rejected)
    assert completed.isdisjoint(lost)
    assert rejected.isdisjoint(lost)
    assert completed | rejected | lost == offered
    for task in result.tasks:
        assert task.is_done
    for task in result.lost_tasks:
        assert not task.is_done
    metrics = compute_cluster_metrics(result)
    assert metrics.lost_task_count == len(result.lost_tasks)
    return metrics


class TestNoTaskSilentlyLost:
    @pytest.mark.parametrize("routing", tuple(RoutingPolicy))
    @pytest.mark.parametrize("churn_seed", (0, 1, 2))
    def test_offered_equals_completed_plus_rejected_plus_lost(
        self, routing, churn_seed
    ):
        num_devices = 4
        trace = hog_trace(45, seed=11 + churn_seed, num_devices=num_devices)
        horizon = max(task.spec.arrival_cycles for task in trace)
        schedule = random_schedule(churn_seed, num_devices, horizon)
        assert len(schedule) > 0  # the property must actually bite
        proactive = churn_seed % 2 == 0  # alternate recovery modes
        result = run_cluster(
            trace,
            routing=routing,
            num_devices=num_devices,
            churn=schedule,
            proactive=proactive,
        )
        assert_conserved(trace, result)

    @pytest.mark.parametrize("churn_seed", (0, 1, 2))
    def test_conservation_holds_under_admission_control(self, churn_seed):
        num_devices = 3
        trace = synthetic_trace_runtimes(
            45,
            seed=23 + churn_seed,
            mean_interarrival_cycles=(
                DEFAULT_MEAN_INTERARRIVAL_CYCLES / (num_devices * 1.5)
            ),
            qos_mix={"interactive": 0.3, "standard": 0.4, "batch": 0.3},
        )
        horizon = max(task.spec.arrival_cycles for task in trace)
        controller = AdmissionController(feedback=PredictionFeedback())
        result = run_cluster(
            trace,
            num_devices=num_devices,
            churn=random_schedule(churn_seed, num_devices, horizon),
            admission=controller,
        )
        assert_conserved(trace, result)
        # Every admission charge was released -- completions, rejections
        # and churn losses all settle the outstanding-budget ledger.
        assert sum(controller._outstanding.values()) == pytest.approx(
            0.0, abs=1e-6
        )


# ----------------------------------------------------------------------
# Cluster integration: the recovery disciplines
# ----------------------------------------------------------------------
class TestClusterChurnIntegration:
    def test_fleet_wide_permanent_outage_loses_the_tail(self):
        trace = hog_trace(30, seed=7, num_devices=2)
        horizon = max(task.spec.arrival_cycles for task in trace)
        apocalypse = ChurnSchedule(events=tuple(
            ChurnEvent(d, "fault", horizon / 3, horizon / 3, math.inf)
            for d in range(2)
        ))
        result = run_cluster(
            trace, num_devices=2, churn=apocalypse, proactive=False
        )
        metrics = assert_conserved(trace, result)
        assert len(result.lost_tasks) > 0
        assert len(result.tasks) > 0  # early arrivals completed
        # Lost tasks count against offered attainment, like rejections.
        offered = len(result.tasks) + len(result.lost_tasks)
        assert metrics.goodput_under_churn < offered

    def hog_and_revocation(self):
        """A 5M-cycle hog pinned on device 0 of 2, revoked mid-run.

        The warning lands at 1M cycles with the outage at 2.5M: the hog
        cannot finish inside the window, but a forced checkpoint plus a
        PCIe shipment comfortably can -- the canonical Parcae decision.
        Short fillers keep device 1 alive as the evacuation target.
        """
        tasks = [make_task(0, 0.0, 5e6, Priority.LOW)] + [
            make_task(i, 1000.0 * i, 1e6, Priority.MEDIUM)
            for i in range(1, 5)
        ]
        schedule = ChurnSchedule(events=(
            ChurnEvent(0, "revocation", 1e6, 2.5e6, math.inf),
        ))
        return tasks, schedule

    def test_reactive_restart_loses_work_and_counts_restarts(self):
        tasks, schedule = self.hog_and_revocation()
        result = run_cluster(
            tasks, num_devices=2, churn=schedule, proactive=False
        )
        metrics = assert_conserved(tasks, result)
        assert not result.lost_tasks  # device 1 survived to restart on
        # The hog ran [0, 2.5M) and died with the device: all of it lost.
        assert metrics.work_lost_cycles == pytest.approx(2.5e6, rel=1e-6)
        assert metrics.restarts_per_task == pytest.approx(1 / 5)
        assert metrics.recovery_p99_cycles > 0.0

    def test_proactive_mode_stops_routing_to_a_warned_device(self):
        trace = hog_trace(40, seed=3, num_devices=2)
        horizon = max(task.spec.arrival_cycles for task in trace)
        warn_at = horizon / 4
        revocation = ChurnSchedule(events=(
            ChurnEvent(0, "revocation", warn_at, horizon * 10.0,
                       math.inf),
        ))
        result = run_cluster(
            trace, num_devices=2, churn=revocation, proactive=True
        )
        assert_conserved(trace, result)
        late = [
            task for task in trace if task.spec.arrival_cycles > warn_at
        ]
        assert late
        for task in late:
            assert result.assignments[task.task_id] == 1
        # Reactive mode keeps using the device until it actually dies.
        reactive = run_cluster(
            trace, num_devices=2, churn=revocation, proactive=False
        )
        assert any(
            reactive.assignments[task.task_id] == 0 for task in late
        )

    def test_proactive_evacuation_checkpoint_migrates_the_running_hog(self):
        tasks, schedule = self.hog_and_revocation()
        proactive = run_cluster(
            tasks, num_devices=2, churn=schedule, proactive=True
        )
        pro_metrics = assert_conserved(tasks, proactive)
        # The hog was force-checkpointed and shipped before the deadline:
        # one checkpoint migration over the fabric, zero work destroyed.
        assert proactive.migration_count >= 1
        moved = [m for m in proactive.migrations if m.task_id == 0]
        assert moved and moved[0].kind == "checkpoint"
        assert moved[0].bytes_moved > 0
        assert len(proactive.transfers) >= 1
        assert pro_metrics.work_lost_cycles == 0.0
        assert pro_metrics.restarts_per_task == 0.0
        assert proactive.assignments[0] == 1  # the hog finished on dev 1
        reactive = run_cluster(
            tasks, num_devices=2, churn=schedule, proactive=False
        )
        rea_metrics = assert_conserved(tasks, reactive)
        assert pro_metrics.work_lost_cycles < rea_metrics.work_lost_cycles

    @pytest.mark.parametrize(
        "routing", [r for r in RoutingPolicy if r in STATIC_ROUTINGS]
    )
    def test_static_placements_divert_from_a_dead_device(self, routing):
        """Each device counts the static placements still to come; every
        ROUTE wake drops its device's count, also when it diverts the task
        from a device that stopped accepting work, so none is left."""
        trace = hog_trace(30, seed=7, num_devices=2)
        dead_at = max(task.spec.arrival_cycles for task in trace) / 3
        scheduler = ClusterScheduler(
            2,
            SimulationConfig(npu=_CONFIG, mode=PreemptionMode.DYNAMIC),
            config=ClusterConfig(
                policy_name="PREMA",
                routing=routing,
                churn=ChurnSchedule(events=(
                    ChurnEvent(1, "fault", dead_at, dead_at, math.inf),
                )),
                proactive_migration=False,
            ),
        )
        runtimes = [copy.deepcopy(task) for task in trace]
        routed = scheduler.route(runtimes)
        run = _ClusterRun(scheduler, runtimes)
        assert [device.pending_placements for device in run.devices] == [
            list(routed.values()).count(index) for index in range(2)
        ]
        run.loop()
        assert [device.pending_placements for device in run.devices] == [0, 0]
        result = run.result()
        assert_conserved(trace, result)
        diverted = [
            task.task_id for task in trace
            if routed[task.task_id] == 1 and task.spec.arrival_cycles > dead_at
        ]
        assert diverted
        assert all(result.assignments[task_id] == 0 for task_id in diverted)

    def test_drain_restores_and_the_device_serves_again(self):
        trace = hog_trace(50, seed=13)
        horizon = max(task.spec.arrival_cycles for task in trace)
        drain = ChurnSchedule(events=(
            ChurnEvent(0, "drain", horizon / 4, horizon / 3,
                       horizon / 2),
        ))
        result = run_cluster(trace, churn=drain, proactive=True)
        assert_conserved(trace, result)
        post_restore = [
            task for task in trace
            if task.spec.arrival_cycles > horizon / 2
        ]
        assert post_restore
        # At least one post-restore arrival lands back on device 0.
        assert any(
            result.assignments[task.task_id] == 0 for task in post_restore
        )

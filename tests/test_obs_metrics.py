"""Streaming metrics (repro.obs.metrics): ring-buffer bounded-memory
properties, instrument semantics, and the cluster sampling integration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tokens import Priority
from repro.obs import MetricsSampler, RingBuffer, Tracer
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.sched.cluster import (
    ClusterConfig,
    ClusterScheduler,
    RoutingPolicy,
)
from repro.sched.faults import ChurnEvent, ChurnSchedule
from repro.sched.job import BatchConfig
from repro.sched.rack import RackTopology
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.serving import AdmissionConfig, AdmissionController
from repro.serving.slo import DEFAULT_SLOS, QoSClass, ServiceLevel, SLOPolicy
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.specs import TaskSpec
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_runtime,
    synthetic_trace_runtimes,
)


class TestRingBuffer:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=64),
        count=st.integers(min_value=0, max_value=400),
    )
    def test_bounded_and_keeps_newest(self, capacity, count):
        """Memory stays <= capacity and the survivors are the newest
        items in order -- the bounded-memory property of every series."""
        buffer = RingBuffer(capacity)
        for item in range(count):
            buffer.append(item)
        assert len(buffer) == min(capacity, count)
        assert buffer.total_appended == count
        expected = list(range(count))[-capacity:]
        assert list(buffer) == expected
        if count:
            assert buffer.last() == count - 1

    def test_empty_last_raises(self):
        with pytest.raises(IndexError):
            RingBuffer(4).last()

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            RingBuffer(0)


class TestInstruments:
    def test_counter_and_gauge(self):
        counter, gauge = Counter(), Gauge()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        gauge.set(7.0)
        gauge.set(1.0)
        assert gauge.value == 1.0

    def test_histogram_stats(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 4.0, 1024.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.min == 1.0
        assert histogram.max == 1024.0
        assert histogram.mean == pytest.approx(1031.0 / 4)
        assert histogram.quantile(0.5) <= histogram.quantile(1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=0.0, max_value=1e18,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=200,
        )
    )
    def test_histogram_bounded_state(self, values):
        """Bucket count stays O(log range) no matter how many points."""
        histogram = Histogram()
        for value in values:
            histogram.observe(value)
        assert len(histogram.buckets) <= 64
        assert histogram.count == len(values)
        assert math.isclose(
            histogram.mean, sum(values) / len(values), rel_tol=1e-9
        )


class TestSampler:
    def test_interval_gates_sampling(self):
        sampler = MetricsSampler(interval_cycles=100.0)
        sampler.inc("arrivals")
        assert sampler.due(0.0)
        sampler.sample(0.0)
        assert sampler.next_due == 100.0
        assert not sampler.due(99.9)
        assert sampler.due(100.0)

    def test_windowed_rate_and_attainment(self):
        sampler = MetricsSampler(interval_cycles=10.0)
        sampler.inc("sla.met", 3)
        sampler.inc("sla.missed", 1)
        sampler.sample(0.0)
        sampler.inc("sla.met", 1)
        sampler.inc("sla.missed", 3)
        sampler.sample(10.0)
        sampler.sample(20.0)  # idle window: no outcomes, no point
        rates = sampler.windowed_rate("sla.met")
        assert rates == [(10.0, 1.0), (20.0, 0.0)]
        attainment = dict(sampler.attainment_series())
        assert attainment[10.0] == pytest.approx(0.25)
        assert 20.0 not in attainment

    def test_task_completed_scores_slas(self, factory, config):
        workload = WorkloadGenerator(seed=5).generate(num_tasks=8)
        tasks = factory.build_workload(workload)
        sim = SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC)
        sampler = MetricsSampler(interval_cycles=50_000.0, slos=DEFAULT_SLOS)
        scheduler = ClusterScheduler(
            2, sim,
            config=ClusterConfig(
                routing=RoutingPolicy.ONLINE_PREDICTED,
                metrics_sampler=sampler,
            ),
        )
        scheduler.run(tasks)
        assert sampler.counters["tasks.completed"].value == len(tasks)
        outcomes = (
            sampler.counters.get("sla.met", Counter()).value
            + sampler.counters.get("sla.missed", Counter()).value
        )
        assert outcomes == len(tasks)

    def test_mirrors_to_tracer(self):
        tracer = Tracer()
        sampler = MetricsSampler(interval_cycles=10.0, tracer=tracer)
        sampler.set_gauge("g", 4.0)
        sampler.sample(0.0)
        counters = [event for event in tracer.events if event[0] == "C"]
        assert counters and counters[0][2] == "g"


class TestClusterSampling:
    def run_sampled(self, factory, config, capacity=512, **extra):
        sim = SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC)
        workload = WorkloadGenerator(seed=81).generate(num_tasks=24)
        sampler = MetricsSampler(interval_cycles=20_000.0, capacity=capacity)
        scheduler = ClusterScheduler(
            4, sim,
            config=ClusterConfig(
                routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
                metrics_sampler=sampler,
                seed=0,
                **extra,
            ),
        )
        scheduler.run(factory.build_workload(workload))
        return sampler

    def test_fleet_series_recorded(self, factory, config):
        sampler = self.run_sampled(factory, config)
        names = sampler.series_names()
        for expected in (
            "cluster.utilization",
            "cluster.queue_depth",
            "cluster.backlog_cycles",
            "cluster.migrations",
            "device0.busy",
            "device3.backlog_cycles",
            "tasks.completed",
        ):
            assert expected in names
        for _, value in sampler.series("cluster.utilization"):
            assert 0.0 <= value <= 1.0
        # Completion counters are cumulative, so samples never decrease.
        completed = [v for _, v in sampler.series("tasks.completed")]
        assert completed == sorted(completed)

    def test_series_memory_is_bounded(self, factory, config):
        capacity = 8
        sampler = self.run_sampled(factory, config, capacity=capacity)
        assert sampler._series["cluster.utilization"].total_appended > capacity
        for name in sampler.series_names():
            assert len(sampler.series(name)) <= capacity

    def test_samples_keep_their_cadence(self, config):
        """Sample-due is a wake of its own, not a ride on the next device
        event: however sparse the events, consecutive samples are never
        more than one interval apart."""
        interval = DEFAULT_MEAN_INTERARRIVAL_CYCLES / 5
        sampler = MetricsSampler(interval_cycles=interval, capacity=4096)
        trace = synthetic_trace_runtimes(
            500,
            seed=35,
            mean_interarrival_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / 4,
        )
        ClusterScheduler(
            4,
            SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC),
            config=ClusterConfig(
                policy_name="PREMA",
                routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
                seed=35,
                metrics_sampler=sampler,
            ),
        ).run(trace)
        times = [at for at, _ in sampler.series("cluster.utilization")]
        assert len(times) > 500
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert max(gaps) <= interval * (1 + 1e-12)

    def test_no_sample_after_the_last_live_wake(self, config):
        """A window flushed early at max_batch leaves nothing behind: once
        both devices fail for good, the run quiesces and samples stop,
        long before that window's deadline."""
        tasks = [
            synthetic_runtime(
                TaskSpec(
                    task_id=i, benchmark="CNN-AN", batch=1,
                    priority=Priority.LOW, arrival_cycles=arrival,
                ),
                1e6,
            )
            for i, arrival in enumerate((0.0, 10.0))
        ]
        sampler = MetricsSampler(interval_cycles=5e4)
        churn = ChurnSchedule(
            events=tuple(
                ChurnEvent(d, "fault", 2e5, 2e5, math.inf) for d in range(2)
            )
        )
        ClusterScheduler(
            2,
            SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC),
            config=ClusterConfig(
                routing=RoutingPolicy.ONLINE_PREDICTED,
                batching=BatchConfig(window_cycles=1e9, max_batch=2),
                churn=churn,
                metrics_sampler=sampler,
            ),
        ).run(tasks)
        times = [at for at, _ in sampler.series("cluster.utilization")]
        assert times == [0.0, 5e4, 1e5, 1.5e5]

    def test_run_ends_at_the_wake_that_settles_its_last_job(self, config):
        """The transition that loses the last job ends the run: the
        restore queued at 1e9 never fires and sampling stops with it."""
        tasks = [
            synthetic_runtime(
                TaskSpec(
                    task_id=i, benchmark="CNN-AN", batch=1,
                    priority=Priority.LOW, arrival_cycles=arrival,
                ),
                1e6,
            )
            for i, arrival in enumerate((0.0, 10.0))
        ]
        sampler = MetricsSampler(interval_cycles=5e4)
        churn = ChurnSchedule(
            events=tuple(
                ChurnEvent(d, "fault", 2e5, 2e5, 1e9) for d in range(2)
            )
        )
        result = ClusterScheduler(
            2,
            SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC),
            config=ClusterConfig(
                routing=RoutingPolicy.ONLINE_PREDICTED,
                batching=BatchConfig(window_cycles=1e9, max_batch=2),
                churn=churn,
                metrics_sampler=sampler,
            ),
        ).run(tasks)
        assert sorted(task.task_id for task in result.lost_tasks) == [0, 1]
        times = [at for at, _ in sampler.series("cluster.utilization")]
        assert times == [0.0, 5e4, 1e5, 1.5e5]

    def test_run_ends_at_the_admission_reject_of_its_last_job(self, config):
        """An admission reject that settles the last job ends the run as
        well: the second task's deadline is shorter than its estimate,
        the device drained long before it arrives, and the fault queued
        at 1e9 never fires, so sampling stops at the reject (2.2e6)."""
        slos = SLOPolicy(
            levels={
                **DEFAULT_SLOS.levels,
                QoSClass.INTERACTIVE: ServiceLevel(
                    QoSClass.INTERACTIVE, slowdown_target=4.0,
                    deadline_cycles=1e5,
                ),
            }
        )
        tasks = [
            synthetic_runtime(
                TaskSpec(
                    task_id=i, benchmark="CNN-AN", batch=1,
                    priority=priority, arrival_cycles=arrival,
                ),
                1e6,
            )
            for i, (priority, arrival) in enumerate(
                ((Priority.LOW, 0.0), (Priority.HIGH, 2.2e6))
            )
        ]
        sampler = MetricsSampler(interval_cycles=5e5)
        result = ClusterScheduler(
            2,
            SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC),
            config=ClusterConfig(
                routing=RoutingPolicy.ONLINE_PREDICTED,
                admission=AdmissionController(AdmissionConfig(slos=slos)),
                churn=ChurnSchedule(
                    events=(ChurnEvent(0, "fault", 1e9, 1e9, 2e9),)
                ),
                metrics_sampler=sampler,
            ),
        ).run(tasks)
        assert [task.task_id for task in result.rejected_tasks] == [1]
        assert tasks[0].completion_time < 2.2e6
        times = [at for at, _ in sampler.series("cluster.utilization")]
        assert times == [0.0, 5e5, 1e6, 1.5e6, 2e6]

    def test_rack_series_recorded(self, factory, config):
        sampler = self.run_sampled(
            factory, config, racks=RackTopology.uniform(2, 2)
        )
        names = sampler.series_names()
        assert "rack0.busy_devices" in names
        assert "rack1.busy_devices" in names

"""Multi-NPU cluster layer (the Sec II-C future-work extension)."""

import math

import pytest

from repro.npu.config import NPUConfig
from repro.obs import MetricsSampler
from repro.sched.cluster import ClusterConfig, ClusterScheduler, RoutingPolicy
from repro.sched.interconnect import InterconnectConfig
from repro.sched.job import BatchConfig
from repro.sched.metrics import compute_metrics
from repro.sched.rack import RackTopology
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.serving import AdmissionConfig
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def workload(config):
    return WorkloadGenerator(
        seed=50, arrival_window_cycles=config.ms_to_cycles(20.0)
    ).generate(num_tasks=12)


def make_cluster(config, num_devices, routing, policy="PREMA",
                 mode=PreemptionMode.DYNAMIC):
    return ClusterScheduler(
        num_devices=num_devices,
        simulation_config=SimulationConfig(npu=config, mode=mode),
        config=ClusterConfig(
            policy_name=policy,
            routing=routing,
        ),
    )


class TestRouting:
    def test_round_robin_spreads_evenly(self, config, factory, workload):
        cluster = make_cluster(config, 4, RoutingPolicy.ROUND_ROBIN)
        tasks = factory.build_workload(workload)
        assignments = cluster.route(tasks)
        counts = [list(assignments.values()).count(d) for d in range(4)]
        assert max(counts) - min(counts) <= 1

    def test_least_loaded_uses_estimates(self, config, factory, workload):
        cluster = make_cluster(config, 2, RoutingPolicy.LEAST_LOADED)
        tasks = factory.build_workload(workload)
        assignments = cluster.route(tasks)
        # Both devices get work (a single hot device would defeat routing).
        assert set(assignments.values()) == {0, 1}

    def test_random_routing_seeded(self, config, factory, workload):
        tasks_a = factory.build_workload(workload)
        tasks_b = factory.build_workload(workload)
        cluster = make_cluster(config, 4, RoutingPolicy.RANDOM)
        assert cluster.route(tasks_a) == cluster.route(tasks_b)

    def test_single_device_gets_everything(self, config, factory, workload):
        cluster = make_cluster(config, 1, RoutingPolicy.LEAST_LOADED)
        tasks = factory.build_workload(workload)
        assert set(cluster.route(tasks).values()) == {0}


class TestClusterExecution:
    def test_all_tasks_complete(self, config, factory, workload):
        cluster = make_cluster(config, 3, RoutingPolicy.LEAST_LOADED)
        result = cluster.run(factory.build_workload(workload))
        assert all(task.is_done for task in result.tasks)
        assert result.num_devices == 3

    def test_result_tasks_are_the_callers_runtimes(self, config, factory,
                                                  workload):
        """``run`` wraps each task zero-copy: ``result.tasks`` are the
        caller's runtimes, completed in place."""
        cluster = make_cluster(config, 3, RoutingPolicy.ONLINE_PREDICTED)
        runtimes = factory.build_workload(workload)
        result = cluster.run(runtimes)
        by_id = {task.task_id: task for task in runtimes}
        assert sorted(task.task_id for task in result.tasks) == sorted(by_id)
        for task in result.tasks:
            assert task is by_id[task.task_id]
            assert task.is_done

    def test_assignments_cover_all_tasks(self, config, factory, workload):
        cluster = make_cluster(config, 2, RoutingPolicy.ROUND_ROBIN)
        result = cluster.run(factory.build_workload(workload))
        assert set(result.assignments) == {t.task_id for t in result.tasks}

    def test_more_devices_never_worse_antt(self, config, factory, workload):
        antts = []
        for devices in (1, 2, 4):
            cluster = make_cluster(config, devices, RoutingPolicy.LEAST_LOADED)
            result = cluster.run(factory.build_workload(workload))
            antts.append(compute_metrics(result.tasks).antt)
        assert antts[1] <= antts[0] * 1.01
        assert antts[2] <= antts[1] * 1.01

    def test_utilization_per_device(self, config, factory, workload):
        cluster = make_cluster(config, 2, RoutingPolicy.LEAST_LOADED)
        result = cluster.run(factory.build_workload(workload))
        utilization = result.device_utilization()
        assert len(utilization) == 2
        assert all(0.0 <= u <= 1.0 for u in utilization)

    def test_predictive_routing_beats_random(self, config, factory):
        # Averaged over several workloads, estimate-driven balancing should
        # not lose to blind random placement.
        workloads = WorkloadGenerator(
            seed=51, arrival_window_cycles=config.ms_to_cycles(15.0)
        ).generate_many(6, num_tasks=10)
        def mean_antt(routing):
            total = 0.0
            for workload in workloads:
                cluster = make_cluster(config, 2, routing)
                result = cluster.run(factory.build_workload(workload))
                total += compute_metrics(result.tasks).antt
            return total / len(workloads)

        assert mean_antt(RoutingPolicy.LEAST_LOADED) <= \
            mean_antt(RoutingPolicy.RANDOM) * 1.05

    def test_validation(self, config):
        with pytest.raises(ValueError):
            ClusterScheduler(0, SimulationConfig(npu=config))
        cluster = make_cluster(config, 2, RoutingPolicy.ROUND_ROBIN)
        with pytest.raises(ValueError):
            cluster.run([])


class TestClusterExperiment:
    def test_scaling_harness(self, config, factory):
        from repro.analysis.experiments.cluster_scaling import (
            format_cluster_scaling,
            run_cluster_scaling,
        )

        rows = run_cluster_scaling(
            config=config, factory=factory, num_tasks=8, num_workloads=2,
            device_counts=(1, 2),
        )
        assert len(rows) == 10  # 2 device counts x 5 combos
        by_key = {(r.num_devices, r.routing, r.device_policy): r for r in rows}
        # Scaling out reduces ANTT for every combo.
        for routing, policy in (
            ("round-robin", "FCFS"),
            ("round-robin", "PREMA"),
            ("least-loaded", "PREMA"),
            ("online-predicted", "PREMA"),
            ("work-stealing", "PREMA"),
        ):
            assert by_key[(2, routing, policy)].antt <= \
                by_key[(1, routing, policy)].antt * 1.01
        assert "multi-NPU" in format_cluster_scaling(rows)


#: One NaN per range-checked knob.  Each check must be written so NaN
#: fails it (``not x >= 0``): NaN compares false either way, so a check
#: written as ``x < 0`` lets it through.
_NAN_KNOBS = {
    "cross_rack_threshold_cycles": lambda: ClusterScheduler(
        4,
        SimulationConfig(npu=NPUConfig()),
        config=ClusterConfig(
            racks=RackTopology.uniform(2, 2),
            cross_rack_threshold_cycles=math.nan,
        ),
    ),
    "bandwidth_bytes_per_cycle": lambda: InterconnectConfig(math.nan),
    "latency_cycles": lambda: InterconnectConfig(1.0, latency_cycles=math.nan),
    "uplink_oversubscription": lambda: InterconnectConfig(
        1.0, uplink_oversubscription=math.nan
    ),
    "uplink_latency_cycles": lambda: InterconnectConfig(
        1.0, uplink_latency_cycles=math.nan
    ),
    "window_cycles": lambda: BatchConfig(math.nan),
    "min_shard_cycles": lambda: BatchConfig(0.0, min_shard_cycles=math.nan),
    "defer_delay_cycles": lambda: AdmissionConfig(defer_delay_cycles=math.nan),
    "budget_floor_cycles": lambda: AdmissionConfig(
        budget_floor_cycles=math.nan
    ),
    "interval_cycles": lambda: MetricsSampler(math.nan),
}


@pytest.mark.parametrize("field", sorted(_NAN_KNOBS))
def test_range_checks_reject_nan(field):
    with pytest.raises(ValueError, match=field):
        _NAN_KNOBS[field]()

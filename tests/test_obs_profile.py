"""Hot-path self-profiling (repro.obs.profile): accumulation semantics
and the cluster control-plane section wiring."""

from repro.obs import HotPathProfiler
from repro.sched.cluster import (
    ClusterConfig,
    ClusterScheduler,
    RoutingPolicy,
)
from repro.sched.faults import ChurnSchedule
from repro.sched.rack import RackTopology
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.workloads.generator import WorkloadGenerator

#: Every section the cluster control plane can attribute time to.
KNOWN_SECTIONS = {"route", "steal", "migrate", "admission", "index", "churn"}


class TestHotPathProfiler:
    def test_add_accumulates(self):
        profiler = HotPathProfiler()
        profiler.add("route", 1_000)
        profiler.add("route", 2_000)
        profiler.add("steal", 500)
        report = profiler.report()
        assert report["route"]["calls"] == 2
        assert report["route"]["total_ms"] == 3_000 / 1e6
        assert report["route"]["mean_us"] == 1_500 / 1e3
        assert report["steal"]["calls"] == 1

    def test_section_context_manager(self):
        profiler = HotPathProfiler()
        with profiler.section("index"):
            sum(range(100))
        assert profiler.counts["index"] == 1
        assert profiler.nanos["index"] > 0

    def test_render_sorted_by_cost(self):
        profiler = HotPathProfiler()
        profiler.add("cheap", 10)
        profiler.add("dear", 10_000_000)
        lines = profiler.render().splitlines()
        assert "section" in lines[0]
        assert lines[1].startswith("dear")
        assert lines[2].startswith("cheap")


class TestClusterProfiling:
    def run_profiled(self, factory, config,
                     routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
                     num_devices=4, **extra):
        sim = SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC)
        workload = WorkloadGenerator(seed=81).generate(num_tasks=24)
        profiler = HotPathProfiler()
        scheduler = ClusterScheduler(
            num_devices, sim,
            config=ClusterConfig(
                routing=routing, profiler=profiler, seed=0, **extra
            ),
        )
        scheduler.run(factory.build_workload(workload))
        return profiler

    def test_migration_run_attributes_sections(self, factory, config):
        profiler = self.run_profiled(factory, config)
        assert set(profiler.counts) <= KNOWN_SECTIONS
        assert profiler.counts["route"] > 0
        assert profiler.counts["migrate"] > 0

    def test_stealing_run_times_steal_scans(self, factory, config):
        profiler = self.run_profiled(
            factory, config, routing=RoutingPolicy.WORK_STEALING
        )
        assert profiler.counts["steal"] > 0
        assert "migrate" not in profiler.counts

    def test_racked_stealing_run_times_steal_and_index(self, factory,
                                                        config):
        profiler = self.run_profiled(
            factory, config, routing=RoutingPolicy.WORK_STEALING,
            racks=RackTopology.uniform(2, 2),
        )
        assert set(profiler.counts) <= KNOWN_SECTIONS
        assert profiler.counts["route"] > 0
        assert profiler.counts["steal"] > 0
        assert profiler.counts["index"] > 0

    def test_indexed_fleet_times_index_maintenance(self, factory, config):
        profiler = self.run_profiled(factory, config, num_devices=8)
        assert profiler.counts["index"] > 0

    def test_churn_run_times_churn_handling(self, factory, config):
        horizon = 5_000_000.0
        churn = ChurnSchedule.generate(
            num_devices=4,
            horizon_cycles=horizon,
            seed=3,
            revocation_rate=1.0 / horizon,
            mean_outage_cycles=horizon / 4.0,
        )
        profiler = self.run_profiled(
            factory, config, routing=RoutingPolicy.ONLINE_PREDICTED,
            churn=churn,
        )
        assert profiler.counts["churn"] > 0
        assert profiler.counts["route"] > 0

"""Cluster integration of the serving control plane (repro.serving).

Covers the arrival hook end-to-end: accept/defer/reject against live
backlogs, bounded deferral, rejection bookkeeping on ClusterResult,
feedback observation at completions, and the all-important equivalence:
an always-accepting controller reproduces the admission-off schedule
exactly (admission off itself is pinned by the golden suites).
"""

import copy

import pytest

from repro.core.tokens import Priority
from repro.npu.config import NPUConfig
from repro.sched.cluster import ClusterConfig, ClusterScheduler, RoutingPolicy
from repro.sched.metrics import compute_cluster_metrics
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.serving.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.serving.feedback import PredictionFeedback
from repro.serving.slo import QoSClass, ServiceLevel, SLOPolicy
from repro.workloads.specs import TaskSpec
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_runtime,
    synthetic_trace_runtimes,
)

_CONFIG = SimulationConfig(npu=NPUConfig(), mode=PreemptionMode.DYNAMIC)

#: Objectives loose enough that nothing is ever refused.
ACCEPT_ALL_SLOS = SLOPolicy(levels={
    qos: ServiceLevel(qos, slowdown_target=1e9, admission_share=1.0)
    for qos in QoSClass
})

#: Objectives nothing can meet (predicted slowdown is always >= 1).
REJECT_ALL_SLOS = SLOPolicy(levels={
    qos: ServiceLevel(qos, slowdown_target=0.5, admission_share=1.0)
    for qos in QoSClass
})


def overloaded_trace(num_tasks=60, seed=9, devices=2, overload=2.0):
    return synthetic_trace_runtimes(
        num_tasks,
        seed=seed,
        mean_interarrival_cycles=(
            DEFAULT_MEAN_INTERARRIVAL_CYCLES / (devices * overload)
        ),
        estimate_error=0.3,
        qos_mix={"interactive": 0.3, "standard": 0.4, "batch": 0.3},
    )


def run_cluster(trace, admission=None, devices=2,
                routing=RoutingPolicy.ONLINE_PREDICTED, policy="PREMA"):
    scheduler = ClusterScheduler(
        num_devices=devices,
        simulation_config=_CONFIG,
        config=ClusterConfig(
            policy_name=policy,
            routing=routing,
            admission=admission,
        ),
    )
    return scheduler.run([copy.deepcopy(task) for task in trace])


class TestConstruction:
    def test_static_routing_rejected(self):
        for routing in (RoutingPolicy.ROUND_ROBIN,
                        RoutingPolicy.LEAST_LOADED, RoutingPolicy.RANDOM):
            with pytest.raises(ValueError, match="online routing"):
                ClusterScheduler(
                    num_devices=2,
                    simulation_config=_CONFIG,
                    config=ClusterConfig(
                        routing=routing,
                        admission=AdmissionController(),
                    ),
                )

    def test_online_routings_accepted(self):
        for routing in (RoutingPolicy.ONLINE_PREDICTED,
                        RoutingPolicy.WORK_STEALING,
                        RoutingPolicy.PREEMPTIVE_MIGRATION):
            ClusterScheduler(
                num_devices=2,
                simulation_config=_CONFIG,
                config=ClusterConfig(
                    routing=routing,
                    admission=AdmissionController(),
                ),
            )


class TestAcceptAllEquivalence:
    def test_always_accepting_controller_is_transparent(self):
        """Accept-everything admission reproduces admission-off exactly
        when no class-aware filter applies (RRB: plain total backlog).

        The frontier heap, decide() calls, and explicit-arrival inject
        must not perturb a single scheduling decision when no arrival is
        ever deferred or refused and placement uses the same rule.
        """
        trace = overloaded_trace()
        baseline = run_cluster(trace, policy="RRB")
        controller = AdmissionController(
            AdmissionConfig(slos=ACCEPT_ALL_SLOS)
        )
        admitted = run_cluster(trace, admission=controller, policy="RRB")
        assert admitted.rejected_tasks == ()
        assert admitted.deferral_count == 0
        assert admitted.assignments == baseline.assignments
        base_completion = {
            t.task_id: t.completion_time for t in baseline.tasks
        }
        for task in admitted.tasks:
            assert task.completion_time == base_completion[task.task_id]

    def test_transparent_under_work_stealing(self):
        trace = overloaded_trace(num_tasks=40, seed=4)
        baseline = run_cluster(trace, routing=RoutingPolicy.WORK_STEALING,
                               policy="RRB")
        admitted = run_cluster(
            trace,
            admission=AdmissionController(
                AdmissionConfig(slos=ACCEPT_ALL_SLOS)
            ),
            routing=RoutingPolicy.WORK_STEALING,
            policy="RRB",
        )
        assert admitted.assignments == baseline.assignments
        assert len(admitted.migrations) == len(baseline.migrations)

    def test_accept_all_admits_everything_under_prema(self):
        """With class-aware filters active, placement is admission-aware
        (least class backlog) so schedules may differ from admission-off
        -- but an accept-all controller still refuses and defers nothing
        and every offered task completes."""
        trace = overloaded_trace()
        result = run_cluster(
            trace,
            admission=AdmissionController(
                AdmissionConfig(slos=ACCEPT_ALL_SLOS)
            ),
        )
        assert result.rejected_tasks == ()
        assert result.deferral_count == 0
        assert len(result.tasks) == len(trace)
        for task in result.tasks:
            assert task.completion_time is not None


class TestRejectionBookkeeping:
    def test_rejected_tasks_never_execute(self):
        controller = AdmissionController(
            AdmissionConfig(max_defers=1)
        )
        result = run_cluster(overloaded_trace(overload=3.0),
                             admission=controller)
        assert result.rejected_tasks  # the regime guarantees refusals
        for task in result.rejected_tasks:
            assert task.completion_time is None
            assert task.first_dispatch_time is None
            assert task.task_id not in result.assignments
        # Everything admitted ran to completion.
        for task in result.tasks:
            assert task.completion_time is not None
        assert len(result.offered_tasks) == 60
        assert result.rejection_rate == pytest.approx(
            len(result.rejected_tasks) / 60
        )

    def test_terminal_decision_per_offered_task(self):
        """Deferral loops terminate: every task ends accept or reject."""
        max_defers = 2
        controller = AdmissionController(
            AdmissionConfig(max_defers=max_defers)
        )
        result = run_cluster(overloaded_trace(overload=3.0),
                             admission=controller)
        terminal = {}
        for record in result.admission_records:
            assert record.attempt <= max_defers
            if record.decision is not AdmissionDecision.DEFER:
                assert record.task_id not in terminal
                terminal[record.task_id] = record.decision
        assert len(terminal) == 60
        accepted = sum(
            1 for d in terminal.values() if d is AdmissionDecision.ACCEPT
        )
        assert accepted == len(result.tasks)

    def test_all_rejected_yields_empty_run(self):
        controller = AdmissionController(
            AdmissionConfig(slos=REJECT_ALL_SLOS, max_defers=0)
        )
        result = run_cluster(overloaded_trace(num_tasks=10),
                             admission=controller)
        assert result.tasks == ()
        assert len(result.rejected_tasks) == 10
        assert result.makespan_cycles == 0.0
        metrics = compute_cluster_metrics(result)
        assert metrics.rejection_rate == 1.0
        assert metrics.sla_attainment == 0.0
        assert metrics.goodput == 0.0


class TestConsiderationOrder:
    def test_deferred_arrival_goes_before_a_later_same_time_arrival(self):
        """Same-time considerations go in arrival order, whatever the ids:
        task 0 fills the device, so task 2 defers, and task 1 arrives
        exactly when task 2 is re-considered."""
        slos = SLOPolicy(levels={
            qos: ServiceLevel(qos, slowdown_target=1.5, admission_share=1.0)
            for qos in QoSClass
        })
        config = AdmissionConfig(slos=slos)
        tie = 1.0 + config.defer_delay_cycles

        def task(task_id, arrival):
            spec = TaskSpec(
                task_id=task_id, benchmark="CNN-AN", batch=1,
                priority=Priority.LOW, arrival_cycles=arrival,
            )
            return synthetic_runtime(spec, 1e6)

        result = run_cluster(
            [task(0, 0.0), task(2, 1.0), task(1, tie)],
            admission=AdmissionController(config),
            devices=1,
        )
        assert [
            (r.task_id, r.attempt)
            for r in result.admission_records
            if r.time_cycles == tie
        ] == [(2, 1), (1, 0)]


class TestPredictionFilters:
    def _scheduler(self, policy, mode):
        return ClusterScheduler(
            num_devices=2,
            simulation_config=SimulationConfig(npu=NPUConfig(), mode=mode),
            config=ClusterConfig(
                policy_name=policy,
                routing=RoutingPolicy.ONLINE_PREDICTED,
                admission=AdmissionController(),
            ),
        )

    def test_filters_follow_the_policy(self):
        """Class-aware prediction only applies where the per-device
        policy actually serves that way."""
        cases = {
            ("PREMA", PreemptionMode.DYNAMIC): (True, True),
            ("TOKEN", PreemptionMode.STATIC): (True, True),
            ("HPF", PreemptionMode.DYNAMIC): (True, False),
            ("SJF", PreemptionMode.DYNAMIC): (False, True),
            # NP: even a HIGH arrival waits out the running task.
            ("PREMA", PreemptionMode.NP): (False, True),
            # FCFS queues behind everything: plain total backlog.
            ("FCFS", PreemptionMode.NP): (False, False),
            ("RRB", PreemptionMode.DYNAMIC): (False, False),
        }
        for (policy, mode), expected in cases.items():
            scheduler = self._scheduler(policy, mode)
            assert scheduler.admission_prediction_filters() == expected, (
                policy, mode.value,
            )

    def test_fcfs_admission_runs_on_total_backlog(self):
        """Under FCFS the controller sees the full queue and refuses
        accordingly (no phantom priority jump)."""
        controller = AdmissionController(AdmissionConfig())
        scheduler = ClusterScheduler(
            num_devices=2,
            simulation_config=SimulationConfig(
                npu=NPUConfig(), mode=PreemptionMode.NP
            ),
            config=ClusterConfig(
                policy_name="FCFS",
                routing=RoutingPolicy.ONLINE_PREDICTED,
                admission=controller,
            ),
        )
        trace = overloaded_trace(num_tasks=40, seed=3, overload=2.5)
        result = scheduler.run([copy.deepcopy(t) for t in trace])
        # At 2.5x overload FCFS cannot hide the backlog from anyone:
        # interactive arrivals get refused too.
        refused_interactive = [
            r for r in result.admission_records
            if r.decision is AdmissionDecision.REJECT
            and r.qos == "interactive"
        ]
        assert refused_interactive


class TestAdmissionWithMigration:
    def test_runs_under_preemptive_migration(self):
        """Admission composes with checkpoint migration: the decision
        backlog filters in-flight deliveries by priority like the rest
        of its class-aware estimate, and the run completes cleanly."""
        controller = AdmissionController(AdmissionConfig())
        result = run_cluster(
            overloaded_trace(num_tasks=50, seed=12, overload=2.5),
            admission=controller,
            routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
        )
        assert len(result.offered_tasks) == 50
        for task in result.tasks:
            assert task.completion_time is not None
        metrics = compute_cluster_metrics(result)
        assert 0.0 <= metrics.sla_attainment <= 1.0


class TestSchedulerReuse:
    def test_second_run_reports_only_its_own_decisions(self):
        """A reused scheduler must not leak run-1 admission records into
        run-2's result (the feedback EWMA *does* keep learning)."""
        controller = AdmissionController(AdmissionConfig())
        scheduler = ClusterScheduler(
            num_devices=2,
            simulation_config=_CONFIG,
            config=ClusterConfig(
                policy_name="PREMA",
                routing=RoutingPolicy.ONLINE_PREDICTED,
                admission=controller,
            ),
        )
        trace = overloaded_trace(num_tasks=30, seed=8, overload=2.5)
        first = scheduler.run([copy.deepcopy(t) for t in trace])
        second = scheduler.run([copy.deepcopy(t) for t in trace])
        ids = {r.task_id for r in second.admission_records}
        assert ids == {t.task_id for t in trace}
        terminal = [
            r for r in second.admission_records
            if r.decision is not AdmissionDecision.DEFER
        ]
        assert len(terminal) == 30
        # Controller-lifetime records hold both runs.
        assert len(controller.records) == (
            len(first.admission_records) + len(second.admission_records)
        )


class TestFeedbackInTheLoop:
    def test_observations_match_completions(self):
        feedback = PredictionFeedback()
        controller = AdmissionController(AdmissionConfig(),
                                         feedback=feedback)
        result = run_cluster(overloaded_trace(), admission=controller)
        assert feedback.observations == len(result.tasks)

    def test_neutral_then_learning(self):
        """The first decision sees factor 1.0; later ones see the EWMA."""
        feedback = PredictionFeedback()
        controller = AdmissionController(
            AdmissionConfig(slos=ACCEPT_ALL_SLOS), feedback=feedback
        )
        trace = overloaded_trace(num_tasks=30, seed=2)
        assert controller.corrected_estimate(trace[0]) == pytest.approx(
            trace[0].context.estimated_cycles
        )
        run_cluster(trace, admission=controller)
        assert feedback.observations == 30
        assert feedback.correction("CNN-AN") != 1.0

    def test_corrected_estimates_written_back(self):
        feedback = PredictionFeedback()
        controller = AdmissionController(
            AdmissionConfig(slos=ACCEPT_ALL_SLOS), feedback=feedback
        )
        trace = overloaded_trace(num_tasks=40, seed=6)
        raw = {t.task_id: t.context.estimated_cycles for t in trace}
        result = run_cluster(trace, admission=controller)
        # Once the EWMA has observations, admitted estimates diverge
        # from the raw Algorithm-1 numbers.
        diverged = sum(
            1 for t in result.tasks
            if t.context.estimated_cycles != raw[t.task_id]
        )
        assert diverged > 0


class TestClusterServingMetrics:
    def test_metrics_fields_without_admission(self):
        """Every cluster run now reports serving metrics for free."""
        result = run_cluster(overloaded_trace())
        metrics = compute_cluster_metrics(result)
        assert metrics.rejection_rate == 0.0
        assert metrics.deferral_count == 0
        assert set(metrics.sla_attainment_by_class) <= {
            "interactive", "standard", "batch"
        }
        assert 0.0 <= metrics.sla_attainment <= 1.0
        assert metrics.goodput > 0.0
        # Attainment over offered == completed here (nothing rejected),
        # so it is bounded by the per-class rates.
        rates = metrics.sla_attainment_by_class.values()
        assert min(rates) <= metrics.sla_attainment <= max(rates)

    def test_violation_rate_consistency(self):
        """Per-class violation (completed basis) complements attainment."""
        result = run_cluster(overloaded_trace())
        metrics = compute_cluster_metrics(result)
        for qos, violation in metrics.sla_violation_rate_by_class.items():
            attainment = metrics.sla_attainment_by_class[qos]
            # No rejections and no deadlines: attained = 1 - violated.
            assert attainment == pytest.approx(1.0 - violation)

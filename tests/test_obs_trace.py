"""Structured tracing (repro.obs.trace): schema round-trip, track
mapping, bounded memory, and the no-op-tracer bit-for-bit contract."""

import json

import pytest

from repro.obs import Tracer, MetricsSampler, HotPathProfiler
from repro.obs.trace import (
    CONTROL_PID,
    EVENT_KINDS,
    FABRIC_PID,
    NULL_TRACER,
    NullTracer,
    RACK_PID_BASE,
    load_chrome_trace,
    validate_chrome_trace,
)
from repro.sched.cluster import (
    ClusterConfig,
    ClusterScheduler,
    RoutingPolicy,
)
from repro.sched.faults import ChurnSchedule
from repro.sched.job import BatchConfig
from repro.sched.rack import RackTopology
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.serving import AdmissionController, PredictionFeedback
from repro.workloads.generator import (
    DEFAULT_ARRIVAL_WINDOW_CYCLES,
    WorkloadGenerator,
)

from helpers_golden import _encode_cluster_v2


def run_cluster(factory, config, routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
                num_devices=4, num_tasks=16, seed=81, **extra):
    sim = SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC)
    workload = WorkloadGenerator(seed=seed).generate(num_tasks=num_tasks)
    scheduler = ClusterScheduler(
        num_devices, sim,
        config=ClusterConfig(routing=routing, seed=0, **extra),
    )
    return scheduler.run(factory.build_workload(workload))


class TestNullTracer:
    def test_disabled_and_stateless(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.audit_routing is False
        # The zero-allocation contract: no instance dict to grow.
        assert NullTracer.__slots__ == ()
        assert NULL_TRACER.instant("dispatch", "x", 0.0) is None
        assert NULL_TRACER.span("run", "x", 0.0, 1.0) is None
        assert NULL_TRACER.counter("c", 0.0, 1.0) is None


class TestTracerBasics:
    def test_span_zero_duration_becomes_instant(self):
        tracer = Tracer()
        tracer.span("restore", "r", 5.0, 5.0)
        tracer.span("run", "r", 5.0, 7.0)
        phases = [event[0] for event in tracer.events]
        assert phases == ["i", "X"]

    def test_max_events_bounds_memory(self):
        tracer = Tracer(max_events=5)
        for index in range(12):
            tracer.instant("dispatch", f"e{index}", float(index))
        assert len(tracer) == 5
        assert tracer.dropped == 7
        payload = tracer.chrome_trace()
        assert payload["otherData"]["dropped_events"] == 7
        validate_chrome_trace(payload)

    def test_unsorted_emission_exports_monotonic(self):
        tracer = Tracer()
        tracer.instant("dispatch", "late", 10.0)
        tracer.instant("dispatch", "early", 1.0)
        payload = tracer.chrome_trace()
        validate_chrome_trace(payload)  # would raise on non-monotonic


class TestClusterTraceRoundTrip:
    def test_flat_fleet_round_trip(self, factory, config, tmp_path):
        tracer = Tracer()
        sampler = MetricsSampler(interval_cycles=100_000.0)
        run_cluster(
            factory, config, tracer=tracer, metrics_sampler=sampler
        )
        path = tmp_path / "trace.json"
        tracer.write(path)
        payload = load_chrome_trace(path)
        counts = validate_chrome_trace(payload, num_devices=4)
        assert counts["X"] > 0      # run spans
        assert counts["i"] > 0      # dispatch/complete instants
        assert counts["C"] > 0      # mirrored sampler series
        assert counts["M"] >= 3     # process + thread metadata
        cats = {
            event["cat"]
            for event in payload["traceEvents"]
            if event["ph"] != "M"
        }
        assert cats <= EVENT_KINDS
        assert {"dispatch", "run", "complete", "metric"} <= cats

    def test_device_and_rack_track_mapping(self, factory, config):
        tracer = Tracer()
        run_cluster(
            factory, config, num_devices=4, tracer=tracer,
            racks=RackTopology.uniform(2, 2),
        )
        payload = tracer.chrome_trace()
        validate_chrome_trace(payload, num_devices=4)
        events = payload["traceEvents"]
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert process_names[RACK_PID_BASE] == "rack 0"
        assert process_names[RACK_PID_BASE + 1] == "rack 1"
        assert process_names[CONTROL_PID] == "control plane"
        # Devices 0,1 -> rack 0; devices 2,3 -> rack 1; tid = device id.
        for event in events:
            if event["ph"] == "M" or event["pid"] < RACK_PID_BASE:
                continue
            expected_pid = RACK_PID_BASE + (0 if event["tid"] < 2 else 1)
            assert event["pid"] == expected_pid
        # The two-tier frontend documents its rack choices.
        assert any(
            e.get("cat") == "rack_pick" for e in events if e["ph"] != "M"
        )

    def test_interconnect_transfer_tracks(self, factory, config):
        tracer = Tracer()
        result = run_cluster(
            factory, config, num_devices=2, num_tasks=24, tracer=tracer
        )
        payload = tracer.chrome_trace()
        validate_chrome_trace(payload, num_devices=2)
        transfer_events = [
            e for e in payload["traceEvents"]
            if e["ph"] != "M" and e.get("cat") == "transfer"
        ]
        if result.transfers:
            assert len(transfer_events) == len(result.transfers)
            assert {e["pid"] for e in transfer_events} == {FABRIC_PID}

    def test_audit_mode_records_runner_ups(self, factory, config):
        tracer = Tracer(audit_routing=True)
        run_cluster(
            factory, config, routing=RoutingPolicy.ONLINE_PREDICTED,
            tracer=tracer,
        )
        audits = [
            event for event in tracer.events if event[1] == "route_audit"
        ]
        assert audits
        args = audits[0][7]
        assert {"tag", "chosen", "chosen_backlog", "runners_up"} <= set(args)
        for runner in args["runners_up"]:
            assert {"device", "backlog", "bound"} <= set(runner)
            assert runner["device"] != args["chosen"]

    def test_audit_off_by_default(self, factory, config):
        tracer = Tracer()
        run_cluster(
            factory, config, routing=RoutingPolicy.ONLINE_PREDICTED,
            tracer=tracer,
        )
        assert not any(e[1] == "route_audit" for e in tracer.events)


#: Decision surfaces the default draw never reaches, each as a factory
#: of extra ``ClusterConfig`` fields: an admission controller keeps
#: learning across runs, so each run of a plain/observed pair needs a
#: fresh one.
_SURFACES = {
    "admission": lambda: {
        "admission": AdmissionController(feedback=PredictionFeedback())
    },
    "sharded-batching": lambda: {
        "batching": BatchConfig(
            window_cycles=1.4e6, max_batch=4, shard_stages=2,
            min_shard_cycles=0.7e6,
        )
    },
    "proactive-churn": lambda: {
        "churn": ChurnSchedule.generate(
            4,
            horizon_cycles=DEFAULT_ARRIVAL_WINDOW_CYCLES,
            seed=2,
            fault_rate=1.0 / DEFAULT_ARRIVAL_WINDOW_CYCLES,
            revocation_rate=3.0 / DEFAULT_ARRIVAL_WINDOW_CYCLES,
            mean_outage_cycles=DEFAULT_ARRIVAL_WINDOW_CYCLES / 6.0,
            mean_warning_cycles=0.35e6,
        ),
        "proactive_migration": True,
    },
}

_ONLINE = (
    RoutingPolicy.ONLINE_PREDICTED,
    RoutingPolicy.WORK_STEALING,
    RoutingPolicy.PREEMPTIVE_MIGRATION,
)


class TestNoopEquivalence:
    @staticmethod
    def assert_observation_moves_nothing(factory, config, routing,
                                         extra=dict):
        plain = _encode_cluster_v2(
            run_cluster(factory, config, routing, **extra())
        )
        observed = _encode_cluster_v2(
            run_cluster(
                factory, config, routing,
                tracer=Tracer(audit_routing=True),
                metrics_sampler=MetricsSampler(interval_cycles=50_000.0),
                profiler=HotPathProfiler(),
                **extra(),
            )
        )
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            observed, sort_keys=True
        )

    @pytest.mark.parametrize("routing", tuple(RoutingPolicy))
    def test_observed_run_is_bit_for_bit(self, factory, config, routing):
        """Full observability on must not move a single decision."""
        self.assert_observation_moves_nothing(factory, config, routing)

    @pytest.mark.parametrize("routing", tuple(RoutingPolicy))
    def test_observed_racked_run_is_bit_for_bit(self, factory, config,
                                                routing):
        """Nor on a rack topology, where the tracer also binds rack
        tracks and records the two-tier frontend's rack choices."""
        self.assert_observation_moves_nothing(
            factory, config, routing,
            lambda: {"racks": RackTopology.uniform(2, 2)},
        )

    @pytest.mark.parametrize("racks", [None, (2, 2)], ids=["flat", "2x2"])
    @pytest.mark.parametrize("surface", sorted(_SURFACES))
    @pytest.mark.parametrize(
        "routing", _ONLINE, ids=[routing.value for routing in _ONLINE]
    )
    def test_observed_surface_is_bit_for_bit(self, factory, config,
                                             routing, surface, racks):
        """Nor behind admission, under batching with 2-stage sharding,
        or under proactive churn, where the admission, batch-flush and
        evacuation emission sites and the admission and gang-stage
        profiler sections run."""

        def extra():
            fields = _SURFACES[surface]()
            if racks is not None:
                fields["racks"] = RackTopology.uniform(*racks)
            return fields

        self.assert_observation_moves_nothing(factory, config, routing, extra)


class TestValidation:
    def _minimal(self):
        tracer = Tracer()
        tracer.instant("dispatch", "e", 1.0, device=0)
        return tracer.chrome_trace()

    def test_rejects_unknown_phase(self):
        payload = self._minimal()
        payload["traceEvents"][-1]["ph"] = "Z"
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace(payload)

    def test_rejects_unknown_category(self):
        payload = self._minimal()
        payload["traceEvents"][-1]["cat"] = "mystery"
        with pytest.raises(ValueError, match="cat"):
            validate_chrome_trace(payload)

    def test_rejects_non_monotonic_track(self):
        payload = self._minimal()
        events = payload["traceEvents"]
        clone = dict(events[-1])
        clone["ts"] = 0.5
        events.append(clone)
        with pytest.raises(ValueError, match="monotonicity"):
            validate_chrome_trace(payload)

    def test_rejects_unknown_device(self):
        payload = self._minimal()
        with pytest.raises(ValueError, match="unknown device"):
            validate_chrome_trace(payload, num_devices=0)

    def test_rejects_unnamed_track(self):
        payload = self._minimal()
        payload["traceEvents"] = [
            e for e in payload["traceEvents"]
            if not (e["ph"] == "M" and e["name"] == "thread_name")
        ]
        with pytest.raises(ValueError, match="thread_name"):
            validate_chrome_trace(payload)


class TestObsReport:
    def test_report_renders_from_artifact(self, factory, config, tmp_path,
                                          capsys):
        from repro.analysis.obs_report import main as report_main

        tracer = Tracer()
        sampler = MetricsSampler(interval_cycles=100_000.0)
        run_cluster(
            factory, config, tracer=tracer, metrics_sampler=sampler
        )
        path = tmp_path / "trace.json"
        tracer.write(path)
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "events by kind" in out
        assert "track occupancy" in out
        assert "counter series" in out
        assert "cluster.utilization" in out
        assert report_main([str(path), "--format", "ascii"]) == 0
        ascii_out = capsys.readouterr().out
        assert "|" in ascii_out and "---" in ascii_out

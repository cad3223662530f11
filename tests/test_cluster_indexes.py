"""Index-vs-reference-scan equivalence of the O(log d) cluster control plane.

The cluster loop's indexes (`_ClusterIndexes`: the backlog-bound
best-first router and the idle/steal/source candidate sets) promise
*re-plumbing, not re-scheduling*: every consultation must return exactly
what the reference scan over the whole fleet returns.  Every fleet size
runs the indexes, and ``verify_indexes=True`` cross-checks every single
consultation (routing argmin, candidate-set coverage, each thief's
victim) against the reference scan inside the run and raises on the
first divergence, which pins equivalence at event granularity.

The end-to-end tests run each workload twice, verified and plain, and
require identical results, bit for bit -- placements, migrations,
transfers, timelines, waits, and tokens alike: the reference scans only
read device state, so verification must not move a decision.
"""

import pytest

import helpers_golden
from repro.npu.config import NPUConfig
from repro.sched.cluster import (
    ClusterConfig,
    ClusterScheduler,
    ONLINE_ROUTINGS,
    RoutingPolicy,
    _ClusterIndexes,
)
from repro.sched.policies import POLICY_NAMES, make_policy
from repro.sched.simulator import DeviceSim, PreemptionMode, SimulationConfig
from repro.serving import AdmissionController, PredictionFeedback
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_trace_runtimes,
)

QOS_MIX = {"interactive": 0.3, "standard": 0.4, "batch": 0.3}


def _synthetic_config() -> SimulationConfig:
    return SimulationConfig(
        npu=NPUConfig(),
        mode=PreemptionMode.DYNAMIC,
        mechanism="CHECKPOINT",
    )


def _run_synthetic(
    num_devices: int,
    routing: RoutingPolicy,
    seed: int = 17,
    num_tasks: int = 128,
    policy: str = "PREMA",
    verify: bool = False,
    admission: bool = False,
):
    """One cluster run over a fresh synthetic open-arrival trace.

    The trace is rebuilt per call (runs mutate their task runtimes), and
    the arrival rate scales with the fleet so per-device load matches
    the single-device trace regime.
    """
    runtimes = synthetic_trace_runtimes(
        num_tasks,
        seed=seed,
        mean_interarrival_cycles=(
            DEFAULT_MEAN_INTERARRIVAL_CYCLES / num_devices
        ),
        qos_mix=QOS_MIX if admission else None,
    )
    controller = (
        AdmissionController(feedback=PredictionFeedback())
        if admission
        else None
    )
    scheduler = ClusterScheduler(
        num_devices=num_devices,
        simulation_config=_synthetic_config(),
        config=ClusterConfig(
            policy_name=policy,
            routing=routing,
            seed=seed,
            admission=controller,
            verify_indexes=verify,
        ),
    )
    return scheduler.run(runtimes)


def _assert_identical(plain, verified, key: str) -> None:
    """Full-result identity, reusing the golden encoding (plus the raw
    assignment map and the admission outcome populations)."""
    assert verified.assignments == plain.assignments, key
    assert verified.events_processed == plain.events_processed, key
    assert (
        helpers_golden._encode_cluster_v2(verified)
        == helpers_golden._encode_cluster_v2(plain)
    ), key
    assert (
        sorted(t.task_id for t in verified.rejected_tasks)
        == sorted(t.task_id for t in plain.rejected_tasks)
    ), key


# ----------------------------------------------------------------------
# Verified runs: every consultation == the reference scan, end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_devices", [2, 4, 8])
def test_indexed_matches_reference_every_routing(factory, num_devices):
    """All routings x rotating device schedulers on compiled workloads."""
    workloads = WorkloadGenerator(seed=205).generate_many(2, num_tasks=12)
    for index, workload in enumerate(workloads):
        policy = POLICY_NAMES[index % len(POLICY_NAMES)]
        mode, mechanism = helpers_golden.MODE_MECHANISMS[
            index % len(helpers_golden.MODE_MECHANISMS)
        ]
        config = SimulationConfig(
            npu=factory.config,
            mode=PreemptionMode(mode),
            mechanism=mechanism,
        )
        for routing in RoutingPolicy:
            results = {}
            for verify in (False, True):
                scheduler = ClusterScheduler(
                    num_devices=num_devices,
                    simulation_config=config,
                    config=ClusterConfig(
                        policy_name=policy,
                        routing=routing,
                        seed=index,
                        verify_indexes=verify,
                    ),
                )
                results[verify] = scheduler.run(
                    factory.build_workload(workload)
                )
            _assert_identical(
                results[False],
                results[True],
                f"{index}/{num_devices}dev/{routing.value}/{policy}",
            )


@pytest.mark.parametrize(
    "routing", sorted(ONLINE_ROUTINGS, key=lambda r: r.value)
)
def test_indexed_matches_reference_64_devices(routing):
    """The datacenter tier: 64 devices on a synthetic open-arrival trace."""
    results = {
        verify: _run_synthetic(64, routing, seed=29, num_tasks=256, verify=verify)
        for verify in (False, True)
    }
    assert len(results[True].tasks) == 256
    _assert_identical(results[False], results[True], f"64dev/{routing.value}")


@pytest.mark.parametrize(
    "policy",
    [
        # FCFS honors no class filter -> admission placement runs on the
        # backlog index; PREMA activates both filters -> the class-aware
        # linear fallback.  Both must match the reference scan exactly.
        "FCFS",
        "PREMA",
    ],
)
def test_indexed_matches_reference_with_admission(policy):
    results = {
        verify: _run_synthetic(
            8,
            RoutingPolicy.ONLINE_PREDICTED,
            seed=41,
            num_tasks=160,
            policy=policy,
            verify=verify,
            admission=True,
        )
        for verify in (False, True)
    }
    _assert_identical(results[False], results[True], f"admission/{policy}")


# ----------------------------------------------------------------------
# Per-consultation cross-checks (verify_indexes)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "num_devices,routing,num_tasks",
    [
        (2, RoutingPolicy.WORK_STEALING, 96),
        (4, RoutingPolicy.WORK_STEALING, 96),
        (8, RoutingPolicy.WORK_STEALING, 160),
        (4, RoutingPolicy.PREEMPTIVE_MIGRATION, 96),
        (64, RoutingPolicy.ONLINE_PREDICTED, 256),
    ],
)
def test_verify_mode_cross_checks_every_consultation(
    num_devices, routing, num_tasks
):
    result = _run_synthetic(
        num_devices, routing, seed=53, num_tasks=num_tasks, verify=True
    )
    assert len(result.tasks) == num_tasks
    assert all(task.is_done for task in result.tasks)


@pytest.mark.parametrize(
    "routing",
    [RoutingPolicy.WORK_STEALING, RoutingPolicy.PREEMPTIVE_MIGRATION],
)
def test_verify_mode_catches_a_skipped_device_refresh(monkeypatch, routing):
    """The flat indexes re-file only the devices ``refresh`` marked, so
    a refresh that skips device 1 leaves it out of the candidate sets
    once it holds queued work; the verified steal or migrate walk (the
    same 4-device inputs pass verification unpatched) must name it."""
    refresh = _ClusterIndexes.refresh

    def forgetful(self, device):
        if device.device_id != 1:
            refresh(self, device)

    monkeypatch.setattr(_ClusterIndexes, "refresh", forgetful)
    with pytest.raises(AssertionError, match="device 1 with .* missing from"):
        _run_synthetic(4, routing, seed=53, num_tasks=96, verify=True)


def test_verify_mode_cross_checks_admission_placement():
    result = _run_synthetic(
        8,
        RoutingPolicy.ONLINE_PREDICTED,
        seed=59,
        num_tasks=120,
        policy="FCFS",
        verify=True,
        admission=True,
    )
    assert result.admission_records


# ----------------------------------------------------------------------
# The duplicate-id guard
# ----------------------------------------------------------------------
def test_duplicate_task_id_rejected():
    runtimes = synthetic_trace_runtimes(4, seed=3)
    scheduler = ClusterScheduler(
        num_devices=2,
        simulation_config=_synthetic_config(),
        config=ClusterConfig(
            routing=RoutingPolicy.ONLINE_PREDICTED,
        ),
    )
    duplicated = runtimes + [runtimes[1]]
    with pytest.raises(ValueError, match="duplicate task id 1"):
        scheduler.run(duplicated)


# ----------------------------------------------------------------------
# DeviceSim surfaces the indexes consume
# ----------------------------------------------------------------------
def test_backlog_lower_bound_never_exceeds_exact_backlog():
    """The index-soundness invariant: bound <= predicted_backlog(now')
    for every probe instant at or after the device's current time."""
    sim = DeviceSim(_synthetic_config(), make_policy("PREMA"))
    for runtime in synthetic_trace_runtimes(64, seed=19):
        sim.inject(runtime)
    probes = 0
    while sim.has_live_tasks and sim.next_event_time() is not None:
        now = sim.step()
        bound = sim.backlog_lower_bound()
        for horizon in (0.0, 1e3, 1e6, 1e9):
            assert bound <= sim.predicted_backlog(now + horizon)
        if sim.is_idle(now):
            assert sim.maybe_idle, "is_idle must imply maybe_idle"
        probes += 1
    assert probes > 64


def test_candidate_properties_match_task_sets():
    """has_queued / has_preempted track the stealable populations."""
    sim = DeviceSim(_synthetic_config(), make_policy("PREMA"))
    for runtime in synthetic_trace_runtimes(48, seed=23):
        sim.inject(runtime)
    saw_queued = saw_preempted = False
    while sim.has_live_tasks and sim.next_event_time() is not None:
        now = sim.step()
        if sim.stealable_tasks():
            assert sim.has_queued
            saw_queued = True
        if sim.migratable_preempted_tasks(now):
            assert sim.has_preempted
            saw_preempted = True
    assert saw_queued and saw_preempted

"""Scheduler hot-path throughput: tasks/second at trace scale.

Measures the event-loop cost of :class:`~repro.sched.simulator.DeviceSim`
(and the cluster loop above it) on synthetic open-arrival traces of 8,
500, and 5 000 tasks -- the regime where per-event work that scales with
the number of tasks *ever seen* turns quadratic.  Tasks are synthetic
(``repro.workloads.trace``): no model building, compilation, or NPU
profiling, so the measurement isolates the scheduler.  Every tier is
gated on tasks/second; events/second and us/event are reported beside
it, but the period clock skips the ticks that cannot change a decision,
so they are not a throughput measure.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py              # full
    PYTHONPATH=src python benchmarks/bench_hotpath.py --tier small
    PYTHONPATH=src python benchmarks/bench_hotpath.py --tier small \
        --check benchmarks/baselines/hotpath_baseline.json

Writes ``benchmarks/results/BENCH_hotpath.json``.  Throughput is also
reported *normalized* against a small pure-Python calibration loop
(heap + dict churn) timed in the same process, which makes numbers
roughly comparable across machines; ``--check`` compares normalized
tasks/second against a committed baseline and fails the run when any tier
regresses by more than 30% (override with ``--tolerance``) or a baseline
tier was not measured.
``--update-baseline`` rewrites the baseline from the current run.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import pathlib
import platform
import sys
import time
from typing import Dict, Optional

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.npu.config import NPUConfig  # noqa: E402
from repro.obs import (  # noqa: E402
    HotPathProfiler,
    MetricsSampler,
    Tracer,
    load_chrome_trace,
    validate_chrome_trace,
)
from repro.sched.cluster import (  # noqa: E402
    ClusterConfig,
    ClusterScheduler,
    RoutingPolicy,
)
from repro.sched.faults import ChurnSchedule  # noqa: E402
from repro.sched.job import BatchConfig  # noqa: E402
from repro.sched.policies import make_policy  # noqa: E402
from repro.sched.rack import RackTopology  # noqa: E402
from repro.serving import (  # noqa: E402
    AdmissionController,
    PredictionFeedback,
)
from repro.sched.simulator import (  # noqa: E402
    DeviceSim,
    PreemptionMode,
    SimulationConfig,
)
from repro.workloads.trace import (  # noqa: E402
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_trace_runtimes,
)

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_hotpath.json"
BASELINE_PATH = (
    pathlib.Path(__file__).parent / "baselines" / "hotpath_baseline.json"
)

#: Tiers measured per --tier selection.  The regression gate runs on the
#: small tier only (8 + 500 tasks); 5 000 tasks is the scaling proof.
SMALL_TIERS = (8, 500)
FULL_TIERS = (8, 500, 5000)

DEFAULT_TOLERANCE = 0.30

#: Traces per single-device tier (seeds 21, 22, ...); tiers not listed
#: time one.  84 is what the 8-task tier once needed to reach 4,000
#: events under an every-period clock.
SINGLE_TRACES = {8: 84}


def _simulation_config() -> SimulationConfig:
    return SimulationConfig(
        npu=NPUConfig(),
        mode=PreemptionMode.DYNAMIC,
        mechanism="CHECKPOINT",
    )


def calibrate(iterations: int = 200_000, repeats: int = 3) -> float:
    """Operations/second of a fixed heap + dict churn loop.

    The loop exercises the same interpreter primitives the event loop
    leans on, so tasks-per-calibration-op transfers across machines far
    better than raw tasks/second does.
    """
    best = float("inf")
    for _ in range(repeats):
        heap: list = []
        table: Dict[int, int] = {}
        start = time.perf_counter()
        for index in range(iterations):
            heapq.heappush(heap, (index % 97, index))
            table[index % 193] = index
            if index % 2:
                heapq.heappop(heap)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return iterations / best


def measure_single_device(
    num_tasks: int,
    seed: int = 21,
    bursty: bool = False,
) -> Dict[str, float]:
    """Tasks/second (and events/second) of one DeviceSim draining an
    open-arrival trace.

    Small tiers repeat over consecutive seeds (:data:`SINGLE_TRACES`) so
    the timer resolution stops mattering.  The count is fixed rather
    than derived from the events processed, so a change that removes
    events still times the same traces.
    """
    total_events = 0
    total_seconds = 0.0
    repeats = SINGLE_TRACES.get(num_tasks, 1)
    for repeat in range(repeats):
        runtimes = synthetic_trace_runtimes(
            num_tasks, seed=seed + repeat, bursty=bursty
        )
        sim = DeviceSim(_simulation_config(), make_policy("PREMA"))
        start = time.perf_counter()
        for runtime in runtimes:
            sim.inject(runtime)
        events = 0
        while sim.has_live_tasks and sim.next_event_time() is not None:
            sim.step()
            events += 1
        total_seconds += time.perf_counter() - start
        total_events += events
    return {
        "tasks": num_tasks,
        "events": total_events,
        "seconds": round(total_seconds, 6),
        "repeats": repeats,
        "tasks_per_sec": num_tasks * repeats / total_seconds,
        "events_per_sec": total_events / total_seconds,
        "us_per_event": 1e6 * total_seconds / total_events,
    }


def measure_cluster(
    num_tasks: int,
    num_devices: int = 4,
    seed: int = 33,
    routing: RoutingPolicy = RoutingPolicy.WORK_STEALING,
    admission: bool = False,
    batching: Optional[BatchConfig] = None,
    churn: Optional[ChurnSchedule] = None,
    racks: Optional[RackTopology] = None,
    tracer: Optional[Tracer] = None,
    metrics_sampler: Optional[MetricsSampler] = None,
    profiler: Optional[HotPathProfiler] = None,
    cross_rack_threshold_cycles: Optional[float] = None,
) -> Dict[str, float]:
    """Wall time of a cluster run over an aggregate open-arrival trace.

    The arrival rate scales with the device count so each device sees
    the same ~85% utilization as the single-device tiers.  With
    ``admission`` the run goes through the serving control plane
    (QoS-tagged arrivals, admission decisions, online feedback) at a
    mildly overloaded arrival rate, so the frontier heap + decide()
    path sits under the same regression gate as the rest of the loop.
    With ``batching`` the router batches and shards (batch windows,
    runtime merge, stage partition, activation DMA).  With
    ``churn`` the fleet loses and regains devices mid-run (availability
    transitions, failure orphan re-dispatch, proactive evacuation).
    With ``racks`` the fleet routes through the two-tier rack frontend
    over an oversubscribed fabric.  ``tracer``/``metrics_sampler``/
    ``profiler`` turn on the observability layer so its overhead sits
    under the same regression gate as the scheduling it observes.
    """
    overload = 1.5 if (admission or batching is not None) else 1.0
    runtimes = synthetic_trace_runtimes(
        num_tasks,
        seed=seed,
        mean_interarrival_cycles=(
            DEFAULT_MEAN_INTERARRIVAL_CYCLES / (num_devices * overload)
        ),
        qos_mix=(
            {"interactive": 0.3, "standard": 0.4, "batch": 0.3}
            if admission
            else None
        ),
    )
    controller = None
    if admission:
        controller = AdmissionController(feedback=PredictionFeedback())
    scheduler = ClusterScheduler(
        num_devices=num_devices,
        simulation_config=_simulation_config(),
        config=ClusterConfig(
            policy_name="PREMA",
            routing=routing,
            seed=seed,
            admission=controller,
            batching=batching,
            churn=churn,
            racks=racks,
            cross_rack_threshold_cycles=cross_rack_threshold_cycles,
            tracer=tracer,
            metrics_sampler=metrics_sampler,
            profiler=profiler,
        ),
    )
    start = time.perf_counter()
    result = scheduler.run(runtimes)
    seconds = time.perf_counter() - start
    return {
        "tasks": num_tasks,
        "devices": num_devices,
        "routing": routing.value,
        "seconds": round(seconds, 6),
        "tasks_per_sec": num_tasks / seconds,
        "events": result.events_processed,
        "us_per_event": 1e6 * seconds / result.events_processed,
    }


def run(tier: str = "full") -> Dict[str, object]:
    calibration_ops = calibrate()
    tiers = SMALL_TIERS if tier == "small" else FULL_TIERS
    results: Dict[str, object] = {}
    for num_tasks in tiers:
        record = measure_single_device(num_tasks)
        record["normalized"] = record["tasks_per_sec"] / calibration_ops
        results[f"single_poisson_{num_tasks}"] = record
    # Checkpoint migration exercises the interconnect + ledger path on
    # every event; it runs in the small tier so the CI regression gate
    # watches it.
    record = measure_cluster(
        500, routing=RoutingPolicy.PREEMPTIVE_MIGRATION, seed=35
    )
    record["normalized"] = record["tasks_per_sec"] / calibration_ops
    results["cluster_migration_4dev_500"] = record
    # The traced twin of the migration tier: identical workload with the
    # full observability stack on (structured tracer + streaming metrics
    # + hot-path profiler).  Its own baseline floor under the same 30%
    # gate is the overhead contract -- if emission ever gets expensive
    # enough to drag normalized throughput below the floor, CI fails.
    tracer = Tracer()
    traced = measure_cluster(
        500,
        routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
        seed=35,
        tracer=tracer,
        metrics_sampler=MetricsSampler(
            interval_cycles=25 * DEFAULT_MEAN_INTERARRIVAL_CYCLES
        ),
        profiler=HotPathProfiler(),
    )
    traced["normalized"] = traced["tasks_per_sec"] / calibration_ops
    traced["trace_events"] = len(tracer)
    traced["slowdown_vs_untraced"] = (
        record["tasks_per_sec"] / traced["tasks_per_sec"]
    )
    results["cluster_migration_4dev_500_traced"] = traced
    # Persist a schema-checked sample Perfetto artifact next to the
    # results JSON; CI uploads it from the bench-smoke job.
    sample_path = RESULTS_PATH.parent / "sample_trace.json"
    sample_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(sample_path)
    validate_chrome_trace(load_chrome_trace(sample_path), num_devices=4)
    # The admission-enabled serving path (frontier heap, per-arrival
    # decide(), feedback observation per completion) also runs in the
    # small tier so the CI gate watches it.
    record = measure_cluster(
        500, routing=RoutingPolicy.ONLINE_PREDICTED, seed=37, admission=True
    )
    record["normalized"] = record["tasks_per_sec"] / calibration_ops
    results["cluster_admission_4dev_500"] = record
    # Router batching + 2-stage pipeline sharding:
    # batch-window flushes, runtime merge, stage partition, and
    # activation DMA all on the dispatch path, under the same gate.
    record = measure_cluster(
        500,
        routing=RoutingPolicy.ONLINE_PREDICTED,
        seed=43,
        batching=BatchConfig(
            window_cycles=5e6,
            max_batch=8,
            marginal_fraction=0.6,
            shard_stages=2,
            min_shard_cycles=4e6,
        ),
    )
    record["normalized"] = record["tasks_per_sec"] / calibration_ops
    results["sharded_pipeline_4dev"] = record
    # Device churn (availability transitions, fail-stop orphan
    # re-dispatch, proactive warning-window evacuation) on the same
    # 4-device regime, under the same gate: the churn control path must
    # never turn per-event cost superlinear.
    churn_horizon = 500 * DEFAULT_MEAN_INTERARRIVAL_CYCLES / 4
    record = measure_cluster(
        500,
        routing=RoutingPolicy.ONLINE_PREDICTED,
        seed=47,
        churn=ChurnSchedule.generate(
            4,
            horizon_cycles=churn_horizon,
            seed=47,
            fault_rate=1.0 / churn_horizon,
            revocation_rate=3.0 / churn_horizon,
            drain_rate=1.0 / churn_horizon,
            mean_outage_cycles=churn_horizon / 10.0,
            mean_warning_cycles=churn_horizon / 250.0,
        ),
    )
    record["normalized"] = record["tasks_per_sec"] / calibration_ops
    results["churn_4dev"] = record
    # The datacenter tier: 64 work-stealing devices at the same
    # per-device load.  Runs in the small tier so the CI gate watches
    # the O(log d) control plane (backlog index, candidate sets) -- the
    # pre-index loop was ~6x slower here and would trip the 30% gate
    # instantly.
    record = measure_cluster(2000, num_devices=64, seed=39)
    record["normalized"] = record["tasks_per_sec"] / calibration_ops
    results["cluster_ws_64dev_2000"] = record
    # The same 64-device fleet composed as 4 racks of 16 behind an
    # oversubscribed fabric: the two-tier frontend (rack pick by
    # aggregate corrected backlog, then in-rack device pick) plus the
    # locality-gated steal/migrate filters run under the same 30% gate.
    record = measure_cluster(
        2000,
        num_devices=64,
        seed=39,
        racks=RackTopology.uniform(4, 16),
    )
    record["normalized"] = record["tasks_per_sec"] / calibration_ops
    results["cluster_rack_4x16_2000"] = record
    # Rack-local work stealing (infinite cross-rack threshold) on 1024
    # devices in 32 racks of 32: the per-rack steal-candidate sets keep
    # each idle thief's probes inside its own rack.  The rack-blind scan
    # probed every fleet-wide victim per thief and cost ~30x more per
    # event on this shape.
    record = measure_cluster(
        4096,
        num_devices=1024,
        seed=39,
        racks=RackTopology.uniform(32, 32),
        cross_rack_threshold_cycles=math.inf,
    )
    record["normalized"] = record["tasks_per_sec"] / calibration_ops
    results["rack_32x32_inf"] = record
    if tier == "full":
        record = measure_single_device(FULL_TIERS[-1], bursty=True)
        record["normalized"] = record["tasks_per_sec"] / calibration_ops
        results[f"single_bursty_{FULL_TIERS[-1]}"] = record
        results["cluster_ws_4dev_2000"] = measure_cluster(2000)
        results["cluster_ws_256dev_2560"] = measure_cluster(
            2560, num_devices=256, seed=41
        )
    return {
        "meta": {
            "tier": tier,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "calibration_ops_per_sec": calibration_ops,
        },
        "tiers": results,
    }


def format_report(payload: Dict[str, object]) -> str:
    lines = [
        "scheduler hot-path throughput "
        f"(calibration {payload['meta']['calibration_ops_per_sec']:,.0f} ops/s)",
        f"{'scenario':<30} {'devs':>5} {'tasks':>6} {'events':>8} "
        f"{'tasks/s':>9} {'us/ev':>7} {'normalized':>11}",
    ]
    for name, record in payload["tiers"].items():
        normalized = record.get("normalized")
        lines.append(
            f"{name:<30} {record.get('devices', 1):>5} {record['tasks']:>6} "
            f"{record['events']:>8} {record['tasks_per_sec']:>9,.0f} "
            f"{record['us_per_event']:>7.1f} "
            + (f"{normalized:>11.6f}" if normalized is not None else f"{'-':>11}")
        )
    return "\n".join(lines)


def check_baseline(
    payload: Dict[str, object],
    baseline_path: pathlib.Path,
    tolerance: float,
) -> int:
    """Return non-zero when any baseline tier regressed beyond
    ``tolerance`` or was not measured by this run.

    An unmeasured tier fails by name: skipping it would let a deleted or
    renamed tier silently drop its floor.
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    checked = 0
    for name, reference in baseline["normalized"].items():
        record = payload["tiers"].get(name)
        if record is None or "normalized" not in record:
            failures.append(f"{name}: not measured by this run")
            continue
        checked += 1
        floor = reference * (1.0 - tolerance)
        if record["normalized"] < floor:
            failures.append(
                f"{name}: normalized {record['normalized']:.4f} < "
                f"{floor:.4f} (baseline {reference:.4f} - {tolerance:.0%})"
            )
    if failures:
        print("hot-path throughput regression:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"baseline check OK ({checked} tiers)")
    return 0


def update_baseline(payload: Dict[str, object]) -> None:
    BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
    normalized = {
        name: record["normalized"]
        for name, record in payload["tiers"].items()
        if "normalized" in record
    }
    # Ratchet policy: an existing entry's floor may only move *up* from
    # a regeneration; lowering one requires deleting it here by hand
    # alongside a written justification (a floor that quietly drops
    # stops gating the regression it was installed to catch).
    if BASELINE_PATH.exists():
        previous = json.loads(BASELINE_PATH.read_text())["normalized"]
        for name, reference in previous.items():
            if name in normalized:
                normalized[name] = max(normalized[name], reference)
    BASELINE_PATH.write_text(
        json.dumps(
            {
                "note": (
                    "Machine-normalized tasks/sec (tasks per calibration "
                    "op) for every tier; regenerate with bench_hotpath.py "
                    "--update-baseline, which only ever ratchets existing "
                    "floors upward (never down without deleting the entry "
                    "by hand + a writeup)."
                ),
                "normalized": normalized,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"baseline updated: {BASELINE_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", choices=("small", "full"), default="full")
    parser.add_argument("--output", type=pathlib.Path, default=RESULTS_PATH)
    parser.add_argument("--check", type=pathlib.Path, default=None)
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE
    )
    parser.add_argument("--update-baseline", action="store_true")
    args = parser.parse_args(argv)

    payload = run(tier=args.tier)
    print(format_report(payload))
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[written to {args.output}]")
    if args.update_baseline:
        update_baseline(payload)
    if args.check is not None:
        return check_baseline(payload, args.check, args.tolerance)
    return 0


# ----------------------------------------------------------------------
# pytest wrapper (CI bench-smoke collects benchmarks/bench_*.py)
# ----------------------------------------------------------------------
def test_hotpath_smoke(emit):
    payload = run(tier="small")
    emit("hotpath_small", format_report(payload))
    for record in payload["tiers"].values():
        assert record["tasks_per_sec"] > 0
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _baseline_file(tmp_path: pathlib.Path) -> pathlib.Path:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"normalized": {"fast": 1.0, "slow": 2.0}}))
    return path


def test_check_baseline_all_tiers_above_floor(tmp_path, capsys):
    payload = {"tiers": {"fast": {"normalized": 0.9}, "slow": {"normalized": 2.5}}}
    assert check_baseline(payload, _baseline_file(tmp_path), 0.30) == 0
    assert "baseline check OK (2 tiers)" in capsys.readouterr().out


def test_check_baseline_tier_below_floor(tmp_path, capsys):
    payload = {"tiers": {"fast": {"normalized": 0.9}, "slow": {"normalized": 1.3}}}
    assert check_baseline(payload, _baseline_file(tmp_path), 0.30) == 1
    err = capsys.readouterr().err
    assert "slow: normalized 1.3000 < 1.4000" in err
    assert "fast" not in err


def test_check_baseline_unmeasured_tier(tmp_path, capsys):
    baseline = _baseline_file(tmp_path)
    for tiers in (
        {"fast": {"normalized": 0.9}},
        {"fast": {"normalized": 0.9}, "slow": {"tasks_per_sec": 5.0}},
    ):
        assert check_baseline({"tiers": tiers}, baseline, 0.30) == 1
        captured = capsys.readouterr()
        assert "slow: not measured by this run" in captured.err
        assert "baseline check OK" not in captured.out


if __name__ == "__main__":
    raise SystemExit(main())

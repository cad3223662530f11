"""Extension experiment: node-level scheduling over multiple NPUs.

The paper leaves multi-NPU policy as future work (Sec II-C); this harness
measures it with our event-driven cluster layer: a fixed pool of inference
requests is served by 1/2/4 NPUs under (router x device-scheduler)
combinations, and we report ANTT, makespan, queueing delay, migrations,
and the utilization spread across devices.

Two headline questions:

1. Does the predictor keep paying off *above* the device?  Predictive
   routing (static or online) should beat blind round-robin.
2. Does *online* dispatch -- deciding at each arrival event against live
   device state -- beat the static up-front routing pass, and does
   work stealing recover the remaining imbalance when estimates err?
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.npu.config import NPUConfig
from repro.sched.cluster import ClusterConfig, ClusterScheduler, RoutingPolicy
from repro.sched.metrics import compute_cluster_metrics
from repro.sched.prepare import TaskFactory
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_trace_runtimes,
)

#: The evaluated (router, device policy, preemption mode) combinations:
#: the Kubernetes-default blind baseline, then predictive routing in its
#: three flavours over PREMA devices.
DEFAULT_COMBOS = (
    (RoutingPolicy.ROUND_ROBIN, "FCFS", PreemptionMode.NP),
    (RoutingPolicy.ROUND_ROBIN, "PREMA", PreemptionMode.DYNAMIC),
    (RoutingPolicy.LEAST_LOADED, "PREMA", PreemptionMode.DYNAMIC),
    (RoutingPolicy.ONLINE_PREDICTED, "PREMA", PreemptionMode.DYNAMIC),
    (RoutingPolicy.WORK_STEALING, "PREMA", PreemptionMode.DYNAMIC),
)


@dataclasses.dataclass(frozen=True)
class ClusterRow:
    """One (devices, router, device-scheduler) measurement."""

    num_devices: int
    routing: str
    device_policy: str
    antt: float
    makespan_ms: float
    mean_queueing_delay_ms: float
    migrations: float
    mean_utilization: float
    utilization_spread: float


def run_cluster_scaling(
    config: Optional[NPUConfig] = None,
    factory: Optional[TaskFactory] = None,
    num_tasks: int = 24,
    num_workloads: int = 4,
    device_counts: Sequence[int] = (1, 2, 4),
    combos: Sequence = DEFAULT_COMBOS,
    seed: int = 33,
) -> List[ClusterRow]:
    config = config or NPUConfig()
    factory = factory or TaskFactory(config)
    workloads = WorkloadGenerator(
        seed=seed, arrival_window_cycles=config.ms_to_cycles(30.0)
    ).generate_many(num_workloads, num_tasks=num_tasks)
    rows: List[ClusterRow] = []
    for num_devices in device_counts:
        for routing, policy, mode in combos:
            antts, makespans, queues, migrations = [], [], [], []
            means, spreads = [], []
            for workload in workloads:
                scheduler = ClusterScheduler(
                    num_devices=num_devices,
                    simulation_config=SimulationConfig(npu=config, mode=mode),
                    config=ClusterConfig(
                        policy_name=policy, routing=routing, seed=seed
                    ),
                )
                tasks = factory.build_workload(workload)
                result = scheduler.run(tasks)
                metrics = compute_cluster_metrics(result)
                antts.append(metrics.antt)
                makespans.append(config.cycles_to_ms(metrics.makespan_cycles))
                queues.append(
                    config.cycles_to_ms(metrics.mean_queueing_delay_cycles)
                )
                migrations.append(metrics.migration_count)
                means.append(metrics.mean_utilization)
                spreads.append(metrics.utilization_spread)
            rows.append(
                ClusterRow(
                    num_devices=num_devices,
                    routing=routing.value,
                    device_policy=policy,
                    antt=float(np.mean(antts)),
                    makespan_ms=float(np.mean(makespans)),
                    mean_queueing_delay_ms=float(np.mean(queues)),
                    migrations=float(np.mean(migrations)),
                    mean_utilization=float(np.mean(means)),
                    utilization_spread=float(np.mean(spreads)),
                )
            )
    return rows


@dataclasses.dataclass(frozen=True)
class ControlPlaneRow:
    """One fleet size's control-plane cost measurement."""

    num_devices: int
    routing: str
    tasks: int
    events: int
    seconds: float
    us_per_event: float
    tasks_per_sec: float


def run_control_plane_scaling(
    device_counts: Sequence[int] = (4, 64, 256),
    tasks_per_device: int = 10,
    routing: RoutingPolicy = RoutingPolicy.WORK_STEALING,
    seed: int = 47,
) -> List[ControlPlaneRow]:
    """Per-event cost of the cluster loop as the fleet grows.

    Synthetic open-arrival traces (no model building) at *fixed
    per-device load* -- the arrival rate scales with the fleet -- so
    per-device scheduler work per event is constant and any growth in
    the measured per-event cost is control-plane overhead: the
    O(log d) indexes (`_ClusterIndexes`) every fleet size runs, and the
    fleet's shared event queue.
    """
    rows: List[ControlPlaneRow] = []
    for num_devices in device_counts:
        num_tasks = num_devices * tasks_per_device
        runtimes = synthetic_trace_runtimes(
            num_tasks,
            seed=seed,
            mean_interarrival_cycles=(
                DEFAULT_MEAN_INTERARRIVAL_CYCLES / num_devices
            ),
        )
        scheduler = ClusterScheduler(
            num_devices=num_devices,
            simulation_config=SimulationConfig(
                npu=NPUConfig(),
                mode=PreemptionMode.DYNAMIC,
                mechanism="CHECKPOINT",
            ),
            config=ClusterConfig(
                policy_name="PREMA", routing=routing, seed=seed
            ),
        )
        start = time.perf_counter()
        result = scheduler.run(runtimes)
        seconds = time.perf_counter() - start
        rows.append(
            ControlPlaneRow(
                num_devices=num_devices,
                routing=routing.value,
                tasks=num_tasks,
                events=result.events_processed,
                seconds=seconds,
                us_per_event=1e6 * seconds / result.events_processed,
                tasks_per_sec=num_tasks / seconds,
            )
        )
    return rows


def format_control_plane(rows: Sequence[ControlPlaneRow]) -> str:
    return format_table(
        ("devices", "routing", "tasks", "events", "us_per_event",
         "tasks_per_sec"),
        [
            (r.num_devices, r.routing, r.tasks, r.events, r.us_per_event,
             r.tasks_per_sec)
            for r in rows
        ],
        title="Cluster control plane: per-event cost vs fleet size",
    )


def format_cluster_scaling(rows: Sequence[ClusterRow]) -> str:
    return format_table(
        ("devices", "routing", "device_policy", "ANTT", "makespan_ms",
         "queue_ms", "migrations", "mean_util", "util_spread"),
        [
            (r.num_devices, r.routing, r.device_policy, r.antt,
             r.makespan_ms, r.mean_queueing_delay_ms, r.migrations,
             r.mean_utilization, r.utilization_spread)
            for r in rows
        ],
        title="Extension: multi-NPU node-level scheduling (Sec II-C future work)",
    )

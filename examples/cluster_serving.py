#!/usr/bin/env python
"""Node-level serving across multiple preemptible NPUs.

The paper (Sec II-C) scopes itself to one NPU and leaves multi-NPU
node-level policy as future work.  This example runs that layer as one
event-driven cluster simulation: a router dispatches a burst of
mixed-tenant requests to a pool of NPUs, comparing blind round-robin
against predictive routing in its three flavours -- a static up-front
pass over Algorithm-1 estimates, online per-arrival dispatch against each
device's live predicted backlog, online dispatch plus work stealing
(idle devices pull still-queued tasks from backlogged neighbours), and
preemptive checkpoint migration (idle devices additionally pull preempted
tasks by shipping their DRAM checkpoints over a modeled PCIe-class
interconnect, with cluster-global token fairness).

Run:  python examples/cluster_serving.py [num_devices] [--trace out.json]

``--trace`` records the final combo (migration + PREMA) with the
structured tracer and writes a Chrome-trace/Perfetto JSON artifact --
open it at https://ui.perfetto.dev, or summarize it with
``python -m repro.analysis.obs_report out.json`` (see
docs/observability.md).
"""

import argparse

from repro import NPUConfig, TaskFactory, WorkloadGenerator
from repro.obs import Tracer
from repro.sched.cluster import (
    ClusterConfig,
    ClusterScheduler,
    RoutingPolicy,
)
from repro.sched.metrics import compute_cluster_metrics
from repro.sched.simulator import PreemptionMode, SimulationConfig

COMBOS = (
    ("round-robin + NP-FCFS", RoutingPolicy.ROUND_ROBIN, "FCFS",
     PreemptionMode.NP),
    ("round-robin + PREMA", RoutingPolicy.ROUND_ROBIN, "PREMA",
     PreemptionMode.DYNAMIC),
    ("least-loaded + PREMA", RoutingPolicy.LEAST_LOADED, "PREMA",
     PreemptionMode.DYNAMIC),
    ("online + PREMA", RoutingPolicy.ONLINE_PREDICTED, "PREMA",
     PreemptionMode.DYNAMIC),
    ("stealing + PREMA", RoutingPolicy.WORK_STEALING, "PREMA",
     PreemptionMode.DYNAMIC),
    ("migration + PREMA", RoutingPolicy.PREEMPTIVE_MIGRATION, "PREMA",
     PreemptionMode.DYNAMIC),
)


def main(num_devices: int = 4, trace_path: str = None) -> None:
    config = NPUConfig()
    factory = TaskFactory(config)
    workload = WorkloadGenerator(
        seed=8, arrival_window_cycles=config.ms_to_cycles(25.0)
    ).generate(num_tasks=24)
    print(
        f"Routing {len(workload)} requests onto {num_devices} NPUs "
        "(arrival window 25 ms)\n"
    )
    print(f"{'configuration':22s} {'ANTT':>7s} {'fairness':>9s} "
          f"{'makespan ms':>12s} {'queue ms':>9s} {'migr':>5s} "
          f"{'device utilization':>20s}")
    for index, (label, routing, policy, mode) in enumerate(COMBOS):
        tracer = None
        if trace_path is not None and index == len(COMBOS) - 1:
            # Trace only the headline combo: same decisions either way
            # (tracing is observational), so the table is unaffected.
            tracer = Tracer()
        cluster = ClusterScheduler(
            num_devices=num_devices,
            simulation_config=SimulationConfig(npu=config, mode=mode),
            config=ClusterConfig(
                policy_name=policy, routing=routing, tracer=tracer
            ),
        )
        tasks = factory.build_workload(workload)
        result = cluster.run(tasks)
        metrics = compute_cluster_metrics(result)
        utilization = " ".join(
            f"{u:4.0%}" for u in result.device_utilization()
        )
        print(
            f"{label:22s} {metrics.antt:7.2f} {metrics.fairness:9.3f} "
            f"{config.cycles_to_ms(metrics.makespan_cycles):12.2f} "
            f"{config.cycles_to_ms(metrics.mean_queueing_delay_cycles):9.2f} "
            f"{metrics.migration_count:5d} "
            f"{utilization:>20s}"
        )
        if tracer is not None:
            tracer.write(trace_path)
            print(
                f"\nwrote {len(tracer)} trace events for '{label}' to "
                f"{trace_path} (open at https://ui.perfetto.dev)"
            )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "num_devices", nargs="?", type=int, default=4,
        help="NPUs in the pool (default: 4)",
    )
    parser.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="write a Perfetto trace of the final combo to this path",
    )
    cli = parser.parse_args()
    main(cli.num_devices, trace_path=cli.trace)

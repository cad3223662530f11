"""Multi-task scheduling on the preemptible NPU.

- :mod:`repro.sched.task` -- per-task runtime state (progress, restores).
- :mod:`repro.sched.policies` -- FCFS/RRB/HPF/TOKEN/SJF/PREMA policies.
- :mod:`repro.sched.simulator` -- the event-driven multi-task simulator
  (stepwise :class:`DeviceSim` + batch :class:`NPUSimulator`).
- :mod:`repro.sched.cluster` -- event-driven multi-NPU cluster scheduling
  with static/online/work-stealing/checkpoint-migration routing, router
  batching, and pipeline-sharded gang dispatch.
- :mod:`repro.sched.job` -- how a router dispatch becomes a gang of
  stage slices (:class:`StagePlan`) and how batching merges requests
  (:class:`BatchConfig`).
- :mod:`repro.sched.interconnect` -- modeled inter-NPU fabric (bandwidth,
  latency, per-link FIFO contention) checkpoint migrations cross; racks
  add an oversubscribed uplink tier above the rack-local links.
- :mod:`repro.sched.rack` -- rack-scale composition: the device->rack
  topology and the O(log r) two-tier routing frontend.
- :mod:`repro.sched.faults` -- device churn: seeded fail-stop faults,
  spot revocations with advance warning, maintenance drains, and the
  per-device availability state machine (see ``docs/failures.md``).
- :mod:`repro.sched.metrics` -- ANTT/STP/fairness/SLA/tail-latency metrics
  plus cluster-level queueing-delay, migration, and serving (per-class
  SLA attainment, rejection rate, goodput) metrics.
- :mod:`repro.sched.timeline` -- execution trace records (Fig 2 style),
  single-device and cluster-wide.
"""

from repro.sched.cluster import (
    BatchRecord,
    ClusterConfig,
    ClusterResult,
    ClusterScheduler,
    MigrationRecord,
    RoutingPolicy,
)
from repro.sched.faults import (
    ChurnEvent,
    ChurnSchedule,
    DeviceAvailability,
    FleetAvailability,
)
from repro.sched.job import BatchConfig, StagePlan
from repro.sched.interconnect import (
    Interconnect,
    InterconnectConfig,
    TransferRecord,
)
from repro.sched.metrics import (
    ClusterMetrics,
    WorkloadMetrics,
    compute_cluster_metrics,
    compute_metrics,
    mean_queueing_delay,
    queueing_delay_by_task,
)
from repro.sched.policies import POLICY_NAMES, make_policy
from repro.sched.rack import RackRouter, RackTopology
from repro.sched.simulator import (
    DeviceSim,
    NPUSimulator,
    PreemptionMode,
    SimulationConfig,
)
from repro.sched.task import TaskRuntime
from repro.sched.timeline import ClusterTimeline, Timeline

__all__ = [
    "TaskRuntime",
    "POLICY_NAMES",
    "make_policy",
    "NPUSimulator",
    "DeviceSim",
    "SimulationConfig",
    "PreemptionMode",
    "WorkloadMetrics",
    "compute_metrics",
    "ClusterScheduler",
    "ClusterConfig",
    "ClusterResult",
    "RoutingPolicy",
    "MigrationRecord",
    "BatchRecord",
    "StagePlan",
    "BatchConfig",
    "Interconnect",
    "InterconnectConfig",
    "TransferRecord",
    "RackRouter",
    "RackTopology",
    "ChurnEvent",
    "ChurnSchedule",
    "DeviceAvailability",
    "FleetAvailability",
    "ClusterMetrics",
    "compute_cluster_metrics",
    "mean_queueing_delay",
    "queueing_delay_by_task",
    "Timeline",
    "ClusterTimeline",
]

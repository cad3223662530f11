"""Multi-program scheduling metrics (paper Sec III "Metrics", Eq 1-2).

Implements Eyerman & Eeckhout's system-level metrics plus the paper's
QoS measures:

- NTT_i   = C_multi_i / C_single_i           (per-task slowdown)
- ANTT    = (1/n) * sum_i NTT_i              (lower is better)
- STP     = sum_i C_single_i / C_multi_i     (higher is better)
- Fairness = min_{i,j} PP_i / PP_j, with priority-weighted progress
  PP_i = (C_single_i / C_multi_i) / (Priority_i / sum_j Priority_j)
- SLA violation rate at target N: fraction of tasks whose turnaround
  exceeds N x C_single (Sec VI-C)
- percentile tail latency of (high-priority) tasks (Fig 14)
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.tokens import PRIORITY_TOKENS, Priority
from repro.sched.task import TaskRuntime
from repro.serving.slo import DEFAULT_SLOS, QoSClass, SLOPolicy, qos_of

#: QoS class by its tag value, for the per-class metric dictionaries.
_QOS_BY_VALUE = {qos.value: qos for qos in QoSClass}


@dataclasses.dataclass(frozen=True)
class WorkloadMetrics:
    """Aggregate metrics of one completed multi-tasked workload."""

    antt: float
    stp: float
    fairness: float
    ntt_by_task: Dict[int, float]
    turnaround_by_task: Dict[int, float]

    @property
    def num_tasks(self) -> int:
        return len(self.ntt_by_task)


def tail_percentile(samples: Sequence[float], percentile: float) -> float:
    """Conservative tail percentile for small samples.

    ``np.percentile``'s default linear interpolation blends the two
    order statistics around the target rank, which *understates* the
    tail whenever fewer than ~100 samples exist (a 10-sample p99 lands
    a hair above the 9th-largest value instead of on the maximum).
    Tail metrics are alarms, so they pin ``method="higher"``: take the
    first order statistic at or above the target rank, never below it.
    """
    return float(np.percentile(np.asarray(samples), percentile, method="higher"))


def _require_completed(tasks: Sequence[TaskRuntime]) -> None:
    for task in tasks:
        if not task.is_done:
            raise ValueError(f"task {task.task_id} has not completed")


def priority_weight(priority: Priority) -> int:
    """Priority_i in Eq 2: the user-defined token value (1/3/9)."""
    return PRIORITY_TOKENS[priority]


def compute_metrics(tasks: Sequence[TaskRuntime]) -> WorkloadMetrics:
    """ANTT / STP / fairness for one completed workload (Eq 1-2)."""
    _require_completed(tasks)
    if not tasks:
        raise ValueError("need at least one task")
    ntts = {task.task_id: task.normalized_turnaround for task in tasks}
    turnarounds = {task.task_id: task.turnaround_cycles for task in tasks}
    antt = sum(ntts.values()) / len(ntts)
    stp = sum(1.0 / ntt for ntt in ntts.values())
    total_weight = sum(priority_weight(task.spec.priority) for task in tasks)
    progress = []
    for task in tasks:
        speedup = task.isolated_cycles / task.turnaround_cycles
        share = priority_weight(task.spec.priority) / total_weight
        progress.append(speedup / share)
    fairness = min(progress) / max(progress) if len(progress) > 1 else 1.0
    return WorkloadMetrics(
        antt=antt,
        stp=stp,
        fairness=fairness,
        ntt_by_task=ntts,
        turnaround_by_task=turnarounds,
    )


def sla_violation_rate(
    tasks: Sequence[TaskRuntime], sla_multiplier: float
) -> float:
    """Fraction of tasks violating SLA target N x C_single (Sec VI-C)."""
    _require_completed(tasks)
    if sla_multiplier <= 0:
        raise ValueError("sla_multiplier must be positive")
    if not tasks:
        raise ValueError("need at least one task")
    violations = sum(
        1
        for task in tasks
        if task.turnaround_cycles > sla_multiplier * task.isolated_cycles
    )
    return violations / len(tasks)


def tail_latency_cycles(
    tasks: Sequence[TaskRuntime],
    percentile: float = 95.0,
    priority: Optional[Priority] = Priority.HIGH,
    benchmark: Optional[str] = None,
) -> float:
    """Percentile turnaround of the selected tasks (Fig 14's 95%-ile).

    ``priority``/``benchmark`` filter the population; pass None to keep
    all.  Raises when the filter selects nothing.
    """
    _require_completed(tasks)
    if not 0 < percentile <= 100:
        raise ValueError("percentile must be in (0, 100]")
    selected = [
        task.turnaround_cycles
        for task in tasks
        if (priority is None or task.spec.priority == priority)
        and (benchmark is None or task.spec.benchmark == benchmark)
    ]
    if not selected:
        raise ValueError("no tasks match the tail-latency filter")
    return float(np.percentile(np.asarray(selected), percentile))


@dataclasses.dataclass(frozen=True)
class EnsembleMetrics:
    """Metrics averaged over an ensemble of workloads (25 runs, Sec VI)."""

    mean_antt: float
    mean_stp: float
    mean_fairness: float
    per_workload: Tuple[WorkloadMetrics, ...]

    @property
    def num_workloads(self) -> int:
        return len(self.per_workload)


def aggregate_metrics(
    workload_results: Iterable[Sequence[TaskRuntime]],
) -> EnsembleMetrics:
    """Average metrics across independently simulated workloads."""
    per_workload: List[WorkloadMetrics] = [
        compute_metrics(tasks) for tasks in workload_results
    ]
    if not per_workload:
        raise ValueError("need at least one workload")
    return EnsembleMetrics(
        mean_antt=float(np.mean([m.antt for m in per_workload])),
        mean_stp=float(np.mean([m.stp for m in per_workload])),
        mean_fairness=float(np.mean([m.fairness for m in per_workload])),
        per_workload=tuple(per_workload),
    )


def improvement_over_baseline(
    metrics: EnsembleMetrics, baseline: EnsembleMetrics
) -> Dict[str, float]:
    """Normalized improvements the paper's Figs 11/12/15 report.

    ANTT improves when it *drops*, so its improvement is baseline/policy;
    STP and fairness improve when they *rise*, so policy/baseline.
    """
    return {
        "antt": baseline.mean_antt / metrics.mean_antt,
        "stp": metrics.mean_stp / baseline.mean_stp,
        "fairness": metrics.mean_fairness / baseline.mean_fairness,
    }


# ----------------------------------------------------------------------
# Cluster-level metrics (node-level scheduling over many NPUs)
# ----------------------------------------------------------------------
def queueing_delay_by_task(tasks: Sequence[TaskRuntime]) -> Dict[int, float]:
    """Cycles each task waited from arrival to its *first* dispatch.

    This is the router-visible queueing delay: time spent pending before
    any NPU started the task (later preemption stalls are not counted).
    """
    _require_completed(tasks)
    delays: Dict[int, float] = {}
    for task in tasks:
        assert task.first_dispatch_time is not None  # completed => dispatched
        delays[task.task_id] = (
            task.first_dispatch_time - task.spec.arrival_cycles
        )
    return delays


def mean_queueing_delay(tasks: Sequence[TaskRuntime]) -> float:
    """Average first-dispatch queueing delay, cycles."""
    delays = queueing_delay_by_task(tasks)
    if not delays:
        raise ValueError("need at least one task")
    return float(np.mean(list(delays.values())))


@dataclasses.dataclass(frozen=True)
class ClusterMetrics:
    """Aggregate metrics of one completed cluster run."""

    makespan_cycles: float
    antt: float
    stp: float
    fairness: float
    mean_queueing_delay_cycles: float
    p95_queueing_delay_cycles: float
    migration_count: int
    mean_utilization: float
    utilization_spread: float
    #: Checkpoint migrations (preempted tasks shipped over the fabric).
    checkpoint_migration_count: int = 0
    #: Total bytes moved over the interconnect (checkpoints + rows).
    migration_bytes_total: float = 0.0
    #: Mean in-flight latency of checkpoint migrations (0 when none).
    mean_migration_latency_cycles: float = 0.0
    #: p99 turnaround of HIGH-priority tasks (0 when the workload has
    #: none) -- the QoS headline checkpoint migration targets.
    p99_high_priority_turnaround_cycles: float = 0.0
    #: Mean NTT of tasks that migrated at least once (0 when none): how
    #: much slowdown a migrated task still ends up with.
    post_migration_antt: float = 0.0
    # -- Serving-control-plane metrics (repro.serving) ------------------
    #: Fraction of *offered* tasks that completed within their QoS class
    #: SLO.  Rejected arrivals count against attainment: refusing a task
    #: is still a missed request, it just fails fast.
    sla_attainment: float = 0.0
    #: Attainment by QoS class value (classes with offered tasks only).
    sla_attainment_by_class: Dict[str, float] = dataclasses.field(
        default_factory=dict
    )
    #: :func:`sla_violation_rate` at each class's slowdown target, over
    #: that class's *completed* tasks (how the executed population fared,
    #: regardless of admission).
    sla_violation_rate_by_class: Dict[str, float] = dataclasses.field(
        default_factory=dict
    )
    #: Fraction of offered tasks the admission frontend refused.
    rejection_rate: float = 0.0
    #: Total defer decisions across the run.
    deferral_count: int = 0
    #: Useful work per cycle: isolated cycles of SLA-met completions
    #: divided by the makespan (in [0, num_devices]).  The PCS-style
    #: throughput measure admission must not sacrifice.
    goodput: float = 0.0
    # -- Dispatch metrics (router batching + pipeline sharding) --------
    #: Dispatches that coalesced more than one request.
    batch_count: int = 0
    #: Mean requests per dispatch (1.0 when nothing coalesced; 0 when the
    #: run completed no work).
    mean_batch_size: float = 0.0
    #: Dispatches executed as multi-device pipeline gangs.
    sharded_job_count: int = 0
    #: Inter-stage activation bytes shipped over the fabric.
    activation_bytes_total: float = 0.0
    # -- Churn metrics (repro.sched.faults) -----------------------------
    #: Useful work per cycle while devices churn: isolated cycles of
    #: *all* completions divided by the makespan -- Parcae's liveput.
    #: (``goodput`` keeps its SLA-met filter; this one asks only
    #: "did the work finish despite the churn".)
    goodput_under_churn: float = 0.0
    #: Ground-truth progress cycles destroyed by device failures.
    work_lost_cycles: float = 0.0
    #: Mean device-failure restarts per offered task.
    restarts_per_task: float = 0.0
    #: p99 failure-to-redispatch delay over all completed recoveries
    #: (0 when the run had no recoveries).
    recovery_p99_cycles: float = 0.0
    #: Tasks destroyed with no surviving capacity to restart on.
    lost_task_count: int = 0
    # -- Rack metrics (repro.sched.rack) --------------------------------
    #: Bytes shipped across the oversubscribed uplink tier (checkpoint
    #: migrations, activation handoffs, evacuations crossing racks).
    cross_rack_migration_bytes: float = 0.0
    #: Mean busy fraction of the per-rack uplinks over the makespan
    #: (0 when the run was flat or moved nothing cross-rack).
    mean_uplink_utilization: float = 0.0
    #: SLA attainment per rack id (racked runs only): completions are
    #: attributed to their final device's rack, so a rack that starved
    #: or churned shows up directly.
    per_rack_attainment: Dict[int, float] = dataclasses.field(
        default_factory=dict
    )


def _serving_metrics(
    result,
    completed: Sequence[TaskRuntime],
    rejected: Sequence[TaskRuntime],
    slos: SLOPolicy,
    lost: Sequence[TaskRuntime] = (),
) -> Dict[str, object]:
    """Per-class SLA attainment, rejection rate, and goodput fields.

    Attainment is measured over *offered* tasks (rejections and
    churn-lost tasks count as missed); the violation-rate view covers
    completed tasks only, at each class's own slowdown target, through
    the same :func:`sla_violation_rate` the fig13 experiment uses.
    """
    offered_by_class: Dict[str, int] = {}
    met_by_class: Dict[str, int] = {}
    completed_by_class: Dict[str, List[TaskRuntime]] = {}
    met_isolated_cycles = 0.0
    for task in completed:
        level = slos.level_for(task.spec)
        qos = level.qos.value
        offered_by_class[qos] = offered_by_class.get(qos, 0) + 1
        completed_by_class.setdefault(qos, []).append(task)
        if level.met_by(task.turnaround_cycles, task.isolated_cycles):
            met_by_class[qos] = met_by_class.get(qos, 0) + 1
            met_isolated_cycles += task.isolated_cycles
    for task in tuple(rejected) + tuple(lost):
        qos = qos_of(task.spec).value
        offered_by_class[qos] = offered_by_class.get(qos, 0) + 1
    attainment_by_class = {
        qos: met_by_class.get(qos, 0) / count
        for qos, count in sorted(offered_by_class.items())
    }
    violation_by_class = {
        qos: sla_violation_rate(
            tasks, slos.levels[_QOS_BY_VALUE[qos]].slowdown_target
        )
        for qos, tasks in sorted(completed_by_class.items())
    }
    offered_total = sum(offered_by_class.values())
    makespan = result.makespan_cycles if completed else 0.0
    # Prefer the result's own properties (ClusterResult defines both) so
    # there is one definition of "offered"; fall back for result-likes.
    rejection_rate = getattr(result, "rejection_rate", None)
    if rejection_rate is None:
        rejection_rate = (
            len(rejected) / offered_total if offered_total else 0.0
        )
    return {
        "sla_attainment": (
            sum(met_by_class.values()) / offered_total if offered_total else 0.0
        ),
        "sla_attainment_by_class": attainment_by_class,
        "sla_violation_rate_by_class": violation_by_class,
        "rejection_rate": float(rejection_rate),
        "deferral_count": int(getattr(result, "deferral_count", 0)),
        "goodput": met_isolated_cycles / makespan if makespan > 0 else 0.0,
    }


def _churn_metrics(
    result,
    completed: Sequence[TaskRuntime],
    rejected: Sequence[TaskRuntime],
    lost: Sequence[TaskRuntime],
) -> Dict[str, object]:
    """Goodput-under-churn, lost work, restart, and recovery fields.

    Duck-typed like the rest of this module: results predating the churn
    fields (or churn-free runs) yield zeros -- every counter below reads
    through ``getattr`` with a zero default.
    """
    makespan = result.makespan_cycles if completed else 0.0
    survivors = tuple(completed) + tuple(lost)
    offered = len(completed) + len(rejected) + len(lost)
    work_lost = sum(
        getattr(task, "lost_progress_cycles", 0.0) for task in survivors
    )
    restarts = sum(getattr(task, "restart_count", 0) for task in survivors)
    recoveries = [
        delay
        for task in survivors
        for delay in getattr(task, "recovery_delays", ())
    ]
    completed_isolated = sum(task.isolated_cycles for task in completed)
    return {
        "goodput_under_churn": (
            completed_isolated / makespan if makespan > 0 else 0.0
        ),
        "work_lost_cycles": float(work_lost),
        "restarts_per_task": restarts / offered if offered else 0.0,
        "recovery_p99_cycles": (
            tail_percentile(recoveries, 99.0) if recoveries else 0.0
        ),
        "lost_task_count": len(lost),
    }


def _rack_metrics(
    result,
    completed: Sequence[TaskRuntime],
    slos: SLOPolicy,
) -> Dict[str, object]:
    """Cross-rack traffic, uplink utilization, and per-rack attainment.

    Duck-typed like the rest of this module: flat results (``rack_of``
    absent or None) yield zeros and an empty per-rack map.  Uplink busy
    time comes from the transfer records themselves -- each cross-rack
    record holds its source rack's uplink for ``[start, end)`` and the
    fabric serializes records per link, so summing durations never
    double-counts.
    """
    rack_of = getattr(result, "rack_of", None)
    if not rack_of:
        return {
            "cross_rack_migration_bytes": 0.0,
            "mean_uplink_utilization": 0.0,
            "per_rack_attainment": {},
        }
    num_racks = max(rack_of) + 1
    transfers = tuple(getattr(result, "transfers", ()))
    cross = [t for t in transfers if getattr(t, "cross_rack", False)]
    cross_bytes = float(sum(t.num_bytes for t in cross))
    busy = [0.0] * num_racks
    for record in cross:
        busy[rack_of[record.src_device]] += (
            record.end_cycles - record.start_cycles
        )
    makespan = result.makespan_cycles if completed else 0.0
    mean_uplink = (
        sum(busy) / (num_racks * makespan) if makespan > 0 else 0.0
    )
    assignments = getattr(result, "assignments", {})
    completed_by_rack: Dict[int, int] = {}
    met_by_rack: Dict[int, int] = {}
    for task in completed:
        device = assignments.get(task.task_id)
        if device is None:
            continue
        rack = rack_of[device]
        completed_by_rack[rack] = completed_by_rack.get(rack, 0) + 1
        level = slos.level_for(task.spec)
        if level.met_by(task.turnaround_cycles, task.isolated_cycles):
            met_by_rack[rack] = met_by_rack.get(rack, 0) + 1
    return {
        "cross_rack_migration_bytes": cross_bytes,
        "mean_uplink_utilization": mean_uplink,
        "per_rack_attainment": {
            rack: met_by_rack.get(rack, 0) / count
            for rack, count in sorted(completed_by_rack.items())
        },
    }


def _job_metrics(result) -> Dict[str, object]:
    """Batching/sharding fields from the result's ``batches`` records.

    Duck-typed like the rest of this module: results without batch
    records (plain task runs, older result-likes) yield zeros.
    """
    batches = tuple(getattr(result, "batches", ()))
    transfers = tuple(getattr(result, "transfers", ()))
    sizes = [b.batch_size for b in batches]
    if sizes:
        mean_size = float(sum(sizes)) / len(sizes)
    else:
        mean_size = 1.0 if tuple(getattr(result, "tasks", ())) else 0.0
    return {
        "batch_count": sum(1 for b in batches if b.batch_size > 1),
        "mean_batch_size": mean_size,
        "sharded_job_count": sum(1 for b in batches if b.num_stages > 1),
        "activation_bytes_total": float(
            sum(
                t.num_bytes
                for t in transfers
                if getattr(t, "purpose", "checkpoint") == "activation"
            )
        ),
    }


def compute_cluster_metrics(
    result, slos: Optional[SLOPolicy] = None
) -> ClusterMetrics:
    """Summarize a :class:`~repro.sched.cluster.ClusterResult`.

    Duck-typed on the result's ``tasks``/``migrations``/
    ``device_utilization()`` surface so this module stays import-light.
    ``slos`` sets the QoS-class objectives the serving fields are scored
    against (default: :data:`repro.serving.slo.DEFAULT_SLOS`).  A result
    whose admission frontend rejected *every* arrival yields zeroed
    workload metrics instead of raising.
    """
    slos = slos or DEFAULT_SLOS
    completed = tuple(result.tasks)
    rejected = tuple(getattr(result, "rejected_tasks", ()))
    lost = tuple(getattr(result, "lost_tasks", ()))
    serving = _serving_metrics(result, completed, rejected, slos, lost)
    serving.update(_job_metrics(result))
    serving.update(_churn_metrics(result, completed, rejected, lost))
    serving.update(_rack_metrics(result, completed, slos))
    if not completed:
        return ClusterMetrics(
            makespan_cycles=0.0,
            antt=0.0,
            stp=0.0,
            fairness=0.0,
            mean_queueing_delay_cycles=0.0,
            p95_queueing_delay_cycles=0.0,
            migration_count=0,
            mean_utilization=0.0,
            utilization_spread=0.0,
            **serving,
        )
    workload = compute_metrics(result.tasks)
    delays = list(queueing_delay_by_task(result.tasks).values())
    utilization = result.device_utilization()
    migrations = getattr(result, "migrations", ())
    checkpoint_moves = [
        m for m in migrations if getattr(m, "kind", "steal") == "checkpoint"
    ]
    bytes_total = getattr(
        result,
        "migrated_bytes_total",
        sum(getattr(m, "bytes_moved", 0.0) for m in migrations),
    )
    high_priority = [
        task.turnaround_cycles
        for task in result.tasks
        if task.spec.priority == Priority.HIGH
    ]
    migrated_ntts = [
        task.normalized_turnaround
        for task in result.tasks
        if getattr(task, "migration_count", 0) > 0
    ]
    return ClusterMetrics(
        makespan_cycles=result.makespan_cycles,
        antt=workload.antt,
        stp=workload.stp,
        fairness=workload.fairness,
        mean_queueing_delay_cycles=float(np.mean(delays)),
        p95_queueing_delay_cycles=float(np.percentile(np.asarray(delays), 95.0)),
        migration_count=len(migrations),
        mean_utilization=float(np.mean(utilization)),
        utilization_spread=float(np.max(utilization) - np.min(utilization)),
        checkpoint_migration_count=len(checkpoint_moves),
        migration_bytes_total=float(bytes_total),
        mean_migration_latency_cycles=(
            float(np.mean([m.latency_cycles for m in checkpoint_moves]))
            if checkpoint_moves
            else 0.0
        ),
        p99_high_priority_turnaround_cycles=(
            tail_percentile(high_priority, 99.0) if high_priority else 0.0
        ),
        post_migration_antt=(
            float(np.mean(migrated_ntts)) if migrated_ntts else 0.0
        ),
        **serving,
    )

"""The four benchmark workloads: seeded inputs and one simulation each.

A workload turns a seed into inputs (the set-up) and returns a callable
that simulates them (the timed phase).  One *sub-run* is one set-up plus
one simulation.  A run is a fixed number of sub-runs whose seeds derive
from ``--seed``, so every simulated metric averages over a fixed,
seed-determined ensemble and repeats exactly for the same seed.

A workload's set-up is a generator: each ``yield None`` ends one set-up
stage, and the last item it yields is the simulation as a list of
*steps*.  The harness times every stage and every step on its own, so no
timed segment is long.  The program receives only the generated inputs:
task runtimes, a scheduler configuration, and (for ``node_batching``) a
churn schedule.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.analysis.runner import FIG13_SETUPS
from repro.npu.config import NPUConfig
from repro.sched.cluster import ClusterConfig, ClusterScheduler, RoutingPolicy
from repro.sched.faults import ChurnSchedule
from repro.sched.interconnect import InterconnectConfig
from repro.sched.job import BatchConfig
from repro.sched.prepare import TaskFactory
from repro.sched.rack import RackTopology
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.serving import AdmissionController, PredictionFeedback
from repro.workloads import generator as generator_module
from repro.workloads import trace as trace_module

NPU = NPUConfig()
SIMULATION = SimulationConfig(
    npu=NPU, mode=PreemptionMode.DYNAMIC, mechanism="CHECKPOINT"
)
#: Serving QoS mix of the synthetic cluster traces (priority follows it).
QOS_MIX = {"interactive": 0.3, "standard": 0.4, "batch": 0.3}
#: Mean inter-arrival time that loads one device to ~85%.
ONE_DEVICE_GAP = trace_module.DEFAULT_MEAN_INTERARRIVAL_CYCLES

#: The lru-cached model-zoo sequence profiles.  Held here so a traced run,
#: which replaces the module attribute with a timing wrapper, can still
#: clear the cache that every fresh experiment script starts without.
_DEFAULT_PROFILES = generator_module.default_profiles


@dataclasses.dataclass
class RunRecord:
    """One simulated experiment: what the gate, digest and scores read."""

    label: str
    offered: Sequence
    completed: Sequence
    rejected: Sequence = ()
    lost: Sequence = ()
    timelines: Sequence = ()
    #: Task id -> device that executed it.
    assignments: Mapping[int, Optional[int]] = dataclasses.field(
        default_factory=dict
    )
    makespan_cycles: float = 0.0
    #: The program's own result object (SimulationResult/ClusterResult).
    result: object = None
    #: The admission controller, when the run had one.
    admission: Optional[AdmissionController] = None


#: One timed piece of a simulation; a sub-run's set-up yields a list.
Step = Callable[[], List[RunRecord]]
#: A sub-run's set-up: ``None`` after each stage, then the steps.
SetUp = Iterator[Optional[List[Step]]]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Sub-runs per run; sub-run ``k`` of seed ``s`` uses seed ``1000*s+k``.
    sub_runs: int
    #: Records whose tasks the simulated metrics score.
    scored_label: str
    #: Tail percentile of HIGH-priority turnaround, fixed per workload: the
    #: highest of p99/p95/p90 with ten samples beyond it in every sub-run.
    tail_percentile: float
    #: ``build(seed, scale, profiler)`` is the set-up of one sub-run.
    build: Callable[[int, float, object], SetUp]

    def sub_seed(self, seed: int, sub: int) -> int:
        return 1000 * seed + sub


def _scaled(count: int, scale: float, floor: int = 8) -> int:
    return max(floor, int(round(count * scale)))


# ----------------------------------------------------------------------
# paper_npu: one NPU, the paper's Sec VI methodology
# ----------------------------------------------------------------------
#: 8-task workloads per sub-run, all simulated under Dynamic-PREMA.
PAPER_WORKLOADS = 120
#: The first this many of them also run under the other eight setups.
PAPER_SWEEP_WORKLOADS = 20
#: Workloads per set-up stage and per simulation step.
PAPER_CHUNK = 20
PAPER_SCORED = "Dynamic-PREMA"
PAPER_BASELINE = "NP-FCFS"


def _paper_npu(seed: int, scale: float, profiler=None) -> SetUp:
    # A fresh experiment script regenerates the RNN sequence profiles and
    # compiles and profiles the zoo from scratch: pay that here, every
    # time, instead of reading caches a previous sub-run left behind.
    _DEFAULT_PROFILES.cache_clear()
    workloads = generator_module.WorkloadGenerator(seed=seed).generate_many(
        _scaled(PAPER_WORKLOADS, scale, floor=2), num_tasks=8
    )
    yield None
    sweep = _scaled(PAPER_SWEEP_WORKLOADS, scale, floor=1)
    factory = TaskFactory(NPU)
    # setup label -> one list of per-workload task lists per chunk
    chunks: Dict[str, List[List]] = {setup.label: [] for setup in FIG13_SETUPS}
    for start in range(0, len(workloads), PAPER_CHUNK):
        for setup in FIG13_SETUPS:
            end = len(workloads) if setup.label == PAPER_SCORED else sweep
            chunk = workloads[start : min(start + PAPER_CHUNK, end)]
            if chunk:
                chunks[setup.label].append(
                    [factory.build_workload(workload) for workload in chunk]
                )
        yield None
    steps: List[Step] = []
    for setup in FIG13_SETUPS:
        simulator = setup.build_simulator(NPU)
        steps += [
            _paper_step(setup.label, simulator, task_lists)
            for task_lists in chunks[setup.label]
        ]
    yield steps


def _paper_step(label: str, simulator, task_lists) -> Step:
    def step() -> List[RunRecord]:
        records = []
        for tasks in task_lists:
            result = simulator.run(tasks)
            records.append(
                RunRecord(
                    label=label,
                    offered=tasks,
                    completed=result.tasks,
                    timelines=(result.timeline,),
                    assignments={task.task_id: 0 for task in result.tasks},
                    makespan_cycles=result.makespan_cycles,
                    result=result,
                )
            )
        return records

    return step


# ----------------------------------------------------------------------
# Cluster workloads: synthetic open-arrival traces
# ----------------------------------------------------------------------
SERVING_TASKS = 500
STEAL_TASKS = 1024
BATCHING_TASKS = 1000
#: Offered load of node_batching relative to its four NPUs: it sustains
#: it with one NPU revoked (at most one is down at a time).
BATCHING_LOAD = 0.7


def _cluster(num_devices: int, runtimes, config: ClusterConfig) -> SetUp:
    scheduler = ClusterScheduler(num_devices, SIMULATION, config=config)

    def simulate() -> List[RunRecord]:
        result = scheduler.run(runtimes)
        return [
            RunRecord(
                label="cluster",
                offered=runtimes,
                completed=result.tasks,
                rejected=result.rejected_tasks,
                lost=result.lost_tasks,
                timelines=(result.timeline,),
                assignments=result.assignments,
                makespan_cycles=result.makespan_cycles,
                result=result,
                admission=config.admission,
            )
        ]

    yield [simulate]


def _node_serving(seed: int, scale: float, profiler=None) -> SetUp:
    runtimes = trace_module.synthetic_trace_runtimes(
        _scaled(SERVING_TASKS, scale),
        seed=seed,
        mean_interarrival_cycles=ONE_DEVICE_GAP / (4 * 1.5),
        qos_mix=QOS_MIX,
    )
    config = ClusterConfig(
        policy_name="PREMA",
        routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
        seed=seed,
        interconnect=InterconnectConfig.pcie_gen3(NPU.frequency_hz),
        global_tokens=True,
        admission=AdmissionController(feedback=PredictionFeedback()),
        profiler=profiler,
    )
    yield from _cluster(4, runtimes, config)


def _fleet_steal(seed: int, scale: float, profiler=None) -> SetUp:
    racks = RackTopology.uniform(16, 16)
    runtimes = trace_module.synthetic_trace_runtimes(
        _scaled(STEAL_TASKS, scale),
        seed=seed,
        mean_interarrival_cycles=ONE_DEVICE_GAP / racks.num_devices,
        bursty=True,
    )
    config = ClusterConfig(
        policy_name="PREMA",
        routing=RoutingPolicy.WORK_STEALING,
        seed=seed,
        racks=racks,
        cross_rack_threshold_cycles=math.inf,
        profiler=profiler,
    )
    yield from _cluster(racks.num_devices, runtimes, config)


def _node_batching(seed: int, scale: float, profiler=None) -> SetUp:
    runtimes = trace_module.synthetic_trace_runtimes(
        _scaled(BATCHING_TASKS, scale),
        seed=seed,
        mean_interarrival_cycles=ONE_DEVICE_GAP / (4 * BATCHING_LOAD),
        qos_mix=QOS_MIX,
    )
    horizon = max(task.spec.arrival_cycles for task in runtimes)
    churn = ChurnSchedule.generate(
        4,
        horizon_cycles=horizon,
        seed=seed,
        revocation_rate=2.0 / horizon,
        mean_outage_cycles=horizon / 20.0,
        mean_warning_cycles=NPU.ms_to_cycles(0.5),
        max_concurrent_down=1,
    )
    config = ClusterConfig(
        policy_name="PREMA",
        routing=RoutingPolicy.ONLINE_PREDICTED,
        seed=seed,
        interconnect=InterconnectConfig.nvlink(NPU.frequency_hz),
        batching=BatchConfig(
            window_cycles=NPU.ms_to_cycles(1.0),
            max_batch=4,
            marginal_fraction=0.6,
            shard_stages=2,
            min_shard_cycles=NPU.ms_to_cycles(3.0),
        ),
        churn=churn,
        proactive_migration=True,
        profiler=profiler,
    )
    yield from _cluster(4, runtimes, config)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper_npu",
            why=(
                "the paper's Sec VI experiment: closed 8-task workloads on "
                "one NPU under Dynamic-PREMA and the other Fig-13 setups, "
                "after a fresh compile and profile of the model zoo"
            ),
            sub_runs=4,
            scored_label=PAPER_SCORED,
            tail_percentile=95.0,
            build=_paper_npu,
        ),
        Workload(
            name="node_serving",
            why=(
                "4 NPUs at 1.5x load with preemptive migration, token "
                "ledger, admission and feedback: deep ready queues"
            ),
            sub_runs=48,
            scored_label="cluster",
            tail_percentile=90.0,
            build=_node_serving,
        ),
        Workload(
            name="fleet_steal",
            why=(
                "256 NPUs in 16 racks of 16 with rack-local work stealing "
                "under bursty arrivals: the steal scan and indexes dominate"
            ),
            sub_runs=12,
            scored_label="cluster",
            tail_percentile=95.0,
            build=_fleet_steal,
        ),
        Workload(
            name="node_batching",
            why=(
                "4 NPUs with router batching and 2-stage pipeline sharding "
                "over NVLink under spot revocations: the gang loop"
            ),
            sub_runs=32,
            scored_label="cluster",
            tail_percentile=95.0,
            build=_node_batching,
        ),
    )
}

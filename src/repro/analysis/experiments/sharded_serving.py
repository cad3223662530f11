"""Extension experiment: pipeline-sharded, router-batched serving.

The cluster router's batching config (``BatchConfig``) gives it two
levers the paper's one-task-one-device dispatch lacks:

- **Router batching**: compatible queued requests for the same model
  coalesce into one dispatch (``max + alpha * (sum - max)`` marginal
  cost), amortizing weight-fetch and switch overhead;
- **Pipeline sharding**: a dispatch whose merged cost is large enough is
  cut into balanced stages gang-scheduled across devices, inter-stage
  activations shipping over the modeled fabric (DMA-out / compute /
  DMA-in), which breaks head-of-line blocking behind giant merged
  dispatches.

This harness drives an overloaded open-arrival trace (2.5x a 4-NPU
fleet's capacity -- the regime where dispatch efficiency is the whole
game) through three router configurations:

- ``single-device``: the status-quo one-task-one-device online dispatch;
- ``batched``: router batching only;
- ``sharded+batched``: batching plus 2-stage gangs for merged dispatches
  clearing the sharding floor.

Headline claims (pinned by ``tests/test_sharded_experiment.py`` and
``benchmarks/bench_sharded_serving.py``): at overload, ``batched`` and
``sharded+batched`` both beat ``single-device`` on **aggregate
throughput** (completions per second over the run's makespan), and
``sharded+batched`` recovers tail latency relative to pure batching --
sharding spreads the merged dispatches that batching makes heavy.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.npu.config import NPUConfig
from repro.sched.cluster import ClusterConfig, ClusterScheduler, RoutingPolicy
from repro.sched.interconnect import InterconnectConfig
from repro.sched.job import BatchConfig
from repro.sched.metrics import compute_cluster_metrics
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_trace_runtimes,
)

NUM_DEVICES = 4
#: Offered load vs fleet capacity.  The acceptance regime is >= 2x;
#: 2.5x keeps a deep router queue alive for the whole run.
OVERLOAD = 2.5
#: Batch window: ~7 ms at 700 MHz, a few dozen mean interarrivals at the
#: overloaded rate -- long enough to coalesce, short against queueing.
WINDOW_CYCLES = 5e6
MAX_BATCH = 8
#: Marginal cost of a joining request (weight fetch + switch shared).
MARGINAL_FRACTION = 0.6
#: Only merged dispatches at least this big shard: cutting small ones
#: just buys activation-DMA overhead.
MIN_SHARD_CYCLES = 4e6
SHARD_STAGES = 2

FULL_NUM_TASKS = 400
FULL_SEEDS: Tuple[int, ...] = tuple(range(3, 11))
QUICK_NUM_TASKS = 200
QUICK_SEEDS: Tuple[int, ...] = (5, 6, 7)

MODES = ("single-device", "batched", "sharded+batched")

_FREQUENCY_HZ = 700e6


@dataclasses.dataclass(frozen=True)
class ShardedServingRow:
    """One router configuration's metrics, averaged over the ensemble."""

    mode: str
    tasks_per_sec: float
    p99_turnaround_ms: float
    antt: float
    mean_batch_size: float
    sharded_dispatches: float
    activation_mb: float
    makespan_ms: float


def _batching_for(mode: str) -> Optional[BatchConfig]:
    if mode == "single-device":
        return None
    if mode == "batched":
        return BatchConfig(
            window_cycles=WINDOW_CYCLES,
            max_batch=MAX_BATCH,
            marginal_fraction=MARGINAL_FRACTION,
        )
    if mode == "sharded+batched":
        return BatchConfig(
            window_cycles=WINDOW_CYCLES,
            max_batch=MAX_BATCH,
            marginal_fraction=MARGINAL_FRACTION,
            shard_stages=SHARD_STAGES,
            min_shard_cycles=MIN_SHARD_CYCLES,
        )
    raise ValueError(f"unknown mode {mode!r}")


def run_sharded_serving(
    config: Optional[NPUConfig] = None,
    num_devices: int = NUM_DEVICES,
    num_tasks: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    overload: float = OVERLOAD,
    quick: bool = False,
) -> List[ShardedServingRow]:
    config = config or NPUConfig()
    if seeds is None:
        seeds = QUICK_SEEDS if quick else FULL_SEEDS
    if num_tasks is None:
        num_tasks = QUICK_NUM_TASKS if quick else FULL_NUM_TASKS
    traces = [
        synthetic_trace_runtimes(
            num_tasks,
            seed=seed,
            mean_interarrival_cycles=(
                DEFAULT_MEAN_INTERARRIVAL_CYCLES / (num_devices * overload)
            ),
        )
        for seed in seeds
    ]
    sim_config = SimulationConfig(npu=config, mode=PreemptionMode.DYNAMIC)
    rows: List[ShardedServingRow] = []
    for mode in MODES:
        throughputs: List[float] = []
        p99s: List[float] = []
        antts: List[float] = []
        batch_sizes: List[float] = []
        sharded: List[float] = []
        activation: List[float] = []
        makespans: List[float] = []
        for trace in traces:
            scheduler = ClusterScheduler(
                num_devices,
                sim_config,
                config=ClusterConfig(
                    routing=RoutingPolicy.ONLINE_PREDICTED,
                    interconnect=InterconnectConfig.nvlink(),
                    batching=_batching_for(mode),
                ),
            )
            # Fresh runtimes per run: the scheduler mutates them.
            result = scheduler.run([copy.deepcopy(t) for t in trace])
            metrics = compute_cluster_metrics(result)
            makespan_sec = result.makespan_cycles / _FREQUENCY_HZ
            throughputs.append(len(result.tasks) / makespan_sec)
            turnarounds = [t.turnaround_cycles for t in result.tasks]
            p99s.append(
                float(np.percentile(np.asarray(turnarounds), 99.0))
                / _FREQUENCY_HZ * 1e3
            )
            antts.append(metrics.antt)
            batch_sizes.append(metrics.mean_batch_size)
            sharded.append(float(metrics.sharded_job_count))
            activation.append(metrics.activation_bytes_total / 2**20)
            makespans.append(makespan_sec * 1e3)
        rows.append(
            ShardedServingRow(
                mode=mode,
                tasks_per_sec=float(np.mean(throughputs)),
                p99_turnaround_ms=float(np.mean(p99s)),
                antt=float(np.mean(antts)),
                mean_batch_size=float(np.mean(batch_sizes)),
                sharded_dispatches=float(np.mean(sharded)),
                activation_mb=float(np.mean(activation)),
                makespan_ms=float(np.mean(makespans)),
            )
        )
    return rows


def format_sharded_serving(rows: Sequence[ShardedServingRow]) -> str:
    return format_table(
        ("mode", "tasks/s", "p99_turnaround", "ANTT", "mean_batch",
         "sharded", "activation_MB", "makespan"),
        [
            (r.mode,
             round(r.tasks_per_sec, 1),
             f"{r.p99_turnaround_ms:.1f} ms",
             round(r.antt, 2),
             round(r.mean_batch_size, 2),
             round(r.sharded_dispatches, 1),
             round(r.activation_mb, 1),
             f"{r.makespan_ms:.1f} ms")
            for r in rows
        ],
        title=(
            "Extension: router batching + pipeline-sharded gangs "
            f"({NUM_DEVICES} NPUs at {OVERLOAD:.1f}x overload, "
            "NVLink-class fabric)"
        ),
    )

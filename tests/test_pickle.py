"""Pickle round-trips of the runtime and result types.

A task runtime, a fabric transfer record, a cluster result, its metrics
and a hot-path profiler must survive ``pickle`` unchanged, so a run can
be shipped to another process or cached to disk and read back with the
same digest.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import helpers_golden
from repro.npu.config import NPUConfig
from repro.obs.profile import HotPathProfiler
from repro.sched.cluster import ClusterConfig, ClusterScheduler, RoutingPolicy
from repro.sched.interconnect import TransferRecord
from repro.sched.metrics import compute_cluster_metrics
from repro.sched.rack import RackTopology
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_trace_runtimes,
)


def _sim_config() -> SimulationConfig:
    return SimulationConfig(
        npu=NPUConfig(), mode=PreemptionMode.DYNAMIC, mechanism="CHECKPOINT"
    )


def _trace(num_tasks: int, seed: int, num_devices: int):
    return synthetic_trace_runtimes(
        num_tasks,
        seed=seed,
        mean_interarrival_cycles=(
            DEFAULT_MEAN_INTERARRIVAL_CYCLES / num_devices
        ),
    )


def _run(routing, *, num_devices, num_tasks, racks=None, seed=17):
    """One cluster run over a fresh synthetic trace."""
    config = ClusterConfig(
        policy_name="PREMA",
        routing=routing,
        seed=seed,
        racks=racks,
        cross_rack_threshold_cycles=(
            math.inf
            if routing is RoutingPolicy.WORK_STEALING and racks is not None
            else None
        ),
    )
    scheduler = ClusterScheduler(num_devices, _sim_config(), config=config)
    return scheduler.run(_trace(num_tasks, seed, num_devices))


class TestPickleRoundTrip:
    def test_task_runtime(self):
        fresh = _trace(4, 9, 2)[1]
        clone = pickle.loads(pickle.dumps(fresh))
        assert clone.task_id == fresh.task_id
        assert clone.spec == fresh.spec
        # A completed runtime (full mutable state) round-trips too.
        result = _run(
            RoutingPolicy.LEAST_LOADED, num_devices=2, num_tasks=8, seed=9,
        )
        done = result.tasks[0]
        assert helpers_golden._encode_task(
            pickle.loads(pickle.dumps(done))
        ) == helpers_golden._encode_task(done)

    def test_transfer_record(self):
        record = TransferRecord(
            task_id=3, src_device=0, dst_device=5, num_bytes=2048.0,
            request_cycles=10.0, start_cycles=12.0, end_cycles=40.0,
        )
        assert pickle.loads(pickle.dumps(record)) == record

    def test_cluster_result(self):
        result = _run(
            RoutingPolicy.WORK_STEALING, num_devices=4,
            racks=RackTopology.uniform(2, 2), num_tasks=16,
        )
        clone = pickle.loads(pickle.dumps(result))
        assert helpers_golden._encode_cluster_v2(clone) == (
            helpers_golden._encode_cluster_v2(result)
        )

    def test_cluster_metrics(self):
        result = _run(
            RoutingPolicy.ONLINE_PREDICTED, num_devices=4,
            racks=RackTopology.uniform(2, 2), num_tasks=16,
        )
        metrics = compute_cluster_metrics(result)
        clone = pickle.loads(pickle.dumps(metrics))
        assert dataclasses.asdict(clone) == dataclasses.asdict(metrics)

    def test_profiler(self):
        profiler = HotPathProfiler()
        profiler.add("route", 1200)
        clone = pickle.loads(pickle.dumps(profiler))
        assert clone.nanos == profiler.nanos
        assert clone.counts == profiler.counts

"""Cluster control-plane cost must not grow with the fleet size.

The companion to `tests/test_hotpath_scaling.py` one level up: that test
pins per-event cost flat in *trace length* on one device; this one pins
it flat in *device count* across the cluster loop.  At fixed per-device
load (arrival rate scaled with the fleet) the work an O(log d) control
plane does per event is dominated by the per-device scheduler, so the
measured cost from 4 to 64 devices must stay within a small constant --
the pre-index loop's O(d) next-event scan, O(d x live) routing scan, and
O(d) termination sum made it grow roughly linearly instead.

Runs the default configuration: every fleet size, the 4-device side
included, runs the one indexed control plane, so the flatness claim is
about what users get without tuning anything.
"""

import time

from repro.npu.config import NPUConfig
from repro.sched.cluster import ClusterConfig, ClusterScheduler, RoutingPolicy
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_trace_runtimes,
)

#: Generous bound: post-index the measured 4 -> 64 device ratio is ~1x;
#: the pre-index loop measured >5x.  Anything above this means per-event
#: control-plane cost has started scaling with the fleet again.
MAX_PER_EVENT_GROWTH = 3.0

TASKS_PER_DEVICE = 50


def _config() -> SimulationConfig:
    return SimulationConfig(
        npu=NPUConfig(),
        mode=PreemptionMode.DYNAMIC,
        mechanism="CHECKPOINT",
    )


def _us_per_event(num_devices: int, seed: int = 31) -> float:
    runtimes = synthetic_trace_runtimes(
        num_devices * TASKS_PER_DEVICE,
        seed=seed,
        mean_interarrival_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / num_devices,
    )
    scheduler = ClusterScheduler(
        num_devices=num_devices,
        simulation_config=_config(),
        config=ClusterConfig(
            policy_name="PREMA",
            routing=RoutingPolicy.WORK_STEALING,
            seed=seed,
        ),
    )
    start = time.perf_counter()
    result = scheduler.run(runtimes)
    elapsed = time.perf_counter() - start
    assert len(result.tasks) == num_devices * TASKS_PER_DEVICE
    return 1e6 * elapsed / result.events_processed


def test_per_event_cost_flat_from_4_to_64_devices():
    # Each fleet's minimum of 3 runs on the same trace, the two fleets
    # alternating, so a burst of host load slows both alike instead of
    # passing for growth.
    timings = {4: [], 64: []}
    for _ in range(3):
        for num_devices in timings:
            timings[num_devices].append(_us_per_event(num_devices))
    small, large = min(timings[4]), min(timings[64])
    assert large <= small * MAX_PER_EVENT_GROWTH, (
        f"per-event cost grew {large / small:.1f}x from 4 to 64 devices "
        f"({small:.1f} -> {large:.1f} us/event): the cluster control "
        "plane is scaling with the fleet size again"
    )

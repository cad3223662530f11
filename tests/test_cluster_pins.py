"""Pinned cluster decisions the golden files do not cover.

The golden suites replay churn-free, admission-free, flat fleets.  These
digests pin the remaining decision surfaces of ``ClusterScheduler.run``
bit-for-bit, so a refactor of the event loop cannot drift them
unnoticed:

- all seven routings on 4 devices under two non-empty
  ``ChurnSchedule.generate`` draws, with proactive migration on and
  off: ``churn`` keeps some capacity up throughout (orphans restart,
  doomed devices evacuate); ``outage`` takes the whole fleet down twice
  and then for good (arrivals and orphans park, restores re-place them,
  the rest is lost);
- ONLINE_PREDICTED behind admission control at 2x overload, rejecting;
- WORK_STEALING on a 2x4 rack topology.

Each digest hashes the golden encoder's view of the run
(``_encode_cluster_v2``) plus the id order of ``tasks``,
``rejected_tasks`` and ``lost_tasks``.  Regenerate a digest only
alongside an intentional behavioural change::

    PYTHONPATH=src:tests python tests/test_cluster_pins.py
"""

import copy
import hashlib
import json

import pytest

from helpers_golden import _encode_cluster_v2
from repro.npu.config import NPUConfig
from repro.sched.cluster import ClusterConfig, ClusterScheduler, RoutingPolicy
from repro.sched.faults import ChurnSchedule
from repro.sched.rack import RackTopology
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.serving import AdmissionController, PredictionFeedback
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_trace_runtimes,
)

_SIM = SimulationConfig(npu=NPUConfig(), mode=PreemptionMode.DYNAMIC)
_QOS_MIX = {"interactive": 0.3, "standard": 0.4, "batch": 0.3}


#: Churn draw per schedule name: (seed, never-restore probability).
_SCHEDULES = {"churn": (4, 0.25), "outage": (320, 0.5)}


def churn_case(schedule_name, routing, proactive):
    seed, never_restore = _SCHEDULES[schedule_name]
    trace = synthetic_trace_runtimes(
        48,
        seed=31,
        mean_interarrival_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / 4,
        estimate_error=0.5,
        qos_mix=_QOS_MIX,
    )
    horizon = max(task.spec.arrival_cycles for task in trace)
    schedule = ChurnSchedule.generate(
        4,
        horizon_cycles=horizon,
        seed=seed,
        fault_rate=1.5 / horizon,
        revocation_rate=1.5 / horizon,
        drain_rate=0.75 / horizon,
        mean_outage_cycles=horizon / 5.0,
        mean_warning_cycles=horizon / 60.0,
        never_restore_probability=never_restore,
        max_concurrent_down=4,
    )
    assert len(schedule) > 0
    config = ClusterConfig(
        policy_name="PREMA",
        routing=routing,
        seed=3,
        churn=schedule,
        proactive_migration=proactive,
    )
    return 4, config, trace


def admission_case():
    trace = synthetic_trace_runtimes(
        60,
        seed=9,
        mean_interarrival_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / (2 * 2.0),
        estimate_error=0.3,
        qos_mix=_QOS_MIX,
    )
    config = ClusterConfig(
        policy_name="PREMA",
        routing=RoutingPolicy.ONLINE_PREDICTED,
        admission=AdmissionController(feedback=PredictionFeedback()),
    )
    return 2, config, trace


def rack_case():
    racks = RackTopology.uniform(2, 4)
    trace = synthetic_trace_runtimes(
        64,
        seed=17,
        mean_interarrival_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / 8,
        bursty=True,
    )
    config = ClusterConfig(
        policy_name="PREMA",
        routing=RoutingPolicy.WORK_STEALING,
        seed=5,
        racks=racks,
    )
    return racks.num_devices, config, trace


CASES = {
    **{
        f"{schedule}/{routing.value}/"
        f"{'proactive' if proactive else 'reactive'}":
        (lambda schedule=schedule, routing=routing, proactive=proactive:
         churn_case(schedule, routing, proactive))
        for schedule in _SCHEDULES
        for routing in RoutingPolicy
        for proactive in (True, False)
    },
    "admission/online-predicted/2x": admission_case,
    "rack/work-stealing/2x4": rack_case,
}


def run_case(name):
    num_devices, config, trace = CASES[name]()
    result = ClusterScheduler(num_devices, _SIM, config=config).run(
        [copy.deepcopy(task) for task in trace]
    )
    return result


def digest(result):
    payload = {
        "encoded": _encode_cluster_v2(result),
        "tasks": [task.task_id for task in result.tasks],
        "rejected": [task.task_id for task in result.rejected_tasks],
        "lost": [task.task_id for task in result.lost_tasks],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


#: Comments: done/rejected/lost task counts, then migrations.
PINNED = {
    'admission/online-predicted/2x': '0ca6e4821195acf8',  # 51/9/0, 0 moves
    'churn/least-loaded/proactive': '2619bc1cec63838f',  # 48/0/0, 9 moves
    'churn/least-loaded/reactive': 'bb7ac25de8866c97',  # 48/0/0, 0 moves
    'churn/online-predicted/proactive': '9eb45a570d4c30d8',  # 48/0/0, 7 moves
    'churn/online-predicted/reactive': 'ab652fb3cb91da3a',  # 48/0/0, 0 moves
    'churn/preemptive-migration/proactive': '6fd8d407661a6f63',  # 48/0/0, 19 moves
    'churn/preemptive-migration/reactive': '933678d8452c183c',  # 48/0/0, 15 moves
    'churn/random/proactive': '78dbf4803d713aae',  # 48/0/0, 15 moves
    'churn/random/reactive': 'cbd5e56ab0082556',  # 48/0/0, 0 moves
    'churn/round-robin/proactive': '4a16021441e5c6d0',  # 48/0/0, 12 moves
    'churn/round-robin/reactive': '1afb645bd4561f87',  # 48/0/0, 0 moves
    'churn/static/proactive': '2619bc1cec63838f',  # 48/0/0, 9 moves
    'churn/static/reactive': 'bb7ac25de8866c97',  # 48/0/0, 0 moves
    'churn/work-stealing/proactive': '2f7779395fc2e6ea',  # 48/0/0, 14 moves
    'churn/work-stealing/reactive': 'fe33050b6fa2db44',  # 48/0/0, 9 moves
    'outage/least-loaded/proactive': 'fb3ee05dd5e1aaa8',  # 19/0/29, 16 moves
    'outage/least-loaded/reactive': '73eb9c32636ed6a6',  # 18/0/30, 0 moves
    'outage/online-predicted/proactive': '692c0eae33b961c4',  # 19/0/29, 16 moves
    'outage/online-predicted/reactive': '73eb9c32636ed6a6',  # 18/0/30, 0 moves
    'outage/preemptive-migration/proactive': 'c9c9b4a3a481c1f4',  # 19/0/29, 16 moves
    'outage/preemptive-migration/reactive': '97d59edf6e0412b5',  # 18/0/30, 2 moves
    'outage/random/proactive': 'a1b0d9926ce88bd5',  # 19/0/29, 15 moves
    'outage/random/reactive': '57d9ca015c33b223',  # 19/0/29, 0 moves
    'outage/round-robin/proactive': '692c0eae33b961c4',  # 19/0/29, 16 moves
    'outage/round-robin/reactive': 'd594ac2fe4830c87',  # 18/0/30, 0 moves
    'outage/static/proactive': 'fb3ee05dd5e1aaa8',  # 19/0/29, 16 moves
    'outage/static/reactive': '73eb9c32636ed6a6',  # 18/0/30, 0 moves
    'outage/work-stealing/proactive': '692c0eae33b961c4',  # 19/0/29, 16 moves
    'outage/work-stealing/reactive': '0ebf2c9c6c197f99',  # 18/0/30, 1 moves
    'rack/work-stealing/2x4': '11c06d417b45d3df',  # 64/0/0, 10 moves
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_decisions_match_pinned_digest(name):
    assert digest(run_case(name)) == PINNED[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        result = run_case(name)
        print(
            f"    {name!r}: {digest(result)!r},  # {len(result.tasks)}/"
            f"{len(result.rejected_tasks)}/{len(result.lost_tasks)}, "
            f"{len(result.migrations)} moves"
        )

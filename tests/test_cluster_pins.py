"""Pinned cluster decisions the golden files do not cover.

The golden suites replay churn-free, admission-free, flat fleets.  These
digests pin the remaining decision surfaces of ``ClusterScheduler.run``
bit-for-bit, so a refactor of the event loop cannot drift them
unnoticed:

- all six routings on 4 devices under two non-empty
  ``ChurnSchedule.generate`` draws, with proactive migration on and
  off: ``churn`` keeps some capacity up throughout (orphans restart,
  doomed devices evacuate); ``outage`` takes the whole fleet down twice
  and then for good (arrivals and orphans park, restores re-place them,
  the rest is lost);
- ONLINE_PREDICTED behind admission control at 2x overload, rejecting;
- PREEMPTIVE_MIGRATION behind admission control with batching and
  2-stage sharding, while a 2-device fleet goes fully out twice;
- WORK_STEALING on a 2x4 rack topology;
- rack topologies: all six routings on 4 racks of 2; WORK_STEALING
  with a rack-local (infinite) and a 3e6-cycle cross-rack threshold,
  on one rack of 8 and on 8 racks of 1; ONLINE_PREDICTED on uneven racks,
  under each device policy, and composed with admission control,
  batching and the cluster-wide token ledger; and three routings under
  rack-correlated churn.

Each digest hashes the golden encoder's view of the run
(``_encode_cluster_v2``) plus the id order of ``tasks``,
``rejected_tasks`` and ``lost_tasks``.  A reuse check runs one
scheduler twice per routing and surface and requires equal digests.
Regenerate a digest only alongside an intentional behavioural change::

    PYTHONPATH=src:tests python tests/test_cluster_pins.py

``--diff [GLOB ...]`` prints each case whose digest differs from
``PINNED`` as ``name: old -> new`` and exits 1 if any of them matches
none of the ``fnmatch`` globs -- the check that an intentional change
moved exactly the pins it claims to (``tests/golden_diff.py`` does the
same for the golden files)::

    PYTHONPATH=src:tests python tests/test_cluster_pins.py --diff 'churn/*'
"""

import copy
import dataclasses
import fnmatch
import hashlib
import json
import math
import sys

import pytest

from helpers_golden import _encode_cluster_v2
from repro.npu.config import NPUConfig
from repro.sched.cluster import (
    ONLINE_ROUTINGS,
    ClusterConfig,
    ClusterScheduler,
    RoutingPolicy,
)
from repro.sched.faults import ChurnSchedule
from repro.sched.job import BatchConfig
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


def racked_case(racks, routing, *, seed=17, num_tasks=64,
                policy_name="PREMA", **config_kwargs):
    trace = synthetic_trace_runtimes(
        num_tasks,
        seed=seed,
        mean_interarrival_cycles=(
            DEFAULT_MEAN_INTERARRIVAL_CYCLES / racks.num_devices
        ),
    )
    config = ClusterConfig(
        policy_name=policy_name,
        routing=routing,
        seed=seed,
        racks=racks,
        **config_kwargs,
    )
    return racks.num_devices, config, trace


def rack_churn_case(routing):
    """Outages that take whole racks down, at most two racks at once."""
    racks = RackTopology.uniform(4, 2)
    num_devices, config, trace = racked_case(racks, routing)
    horizon = max(task.spec.arrival_cycles for task in trace)
    schedule = ChurnSchedule.generate_rack_correlated(
        racks.rack_of,
        horizon_cycles=horizon,
        seed=6,
        fault_rate=1.0 / horizon,
        revocation_rate=1.0 / horizon,
        mean_outage_cycles=horizon / 5.0,
        mean_warning_cycles=horizon / 60.0,
        max_concurrent_down_racks=2,
    )
    assert len(schedule) > 0
    return num_devices, dataclasses.replace(config, churn=schedule), trace


def fleet_outage_case():
    """Both devices out at once under admission and 2-stage sharding.

    An admission arrival finds no accepting device and waits for the
    next transition, a sharded gang loses its next stage's device while
    no device accepts, and each lost job releases its admission budget.
    """
    trace = synthetic_trace_runtimes(
        16,
        seed=18,
        mean_interarrival_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / 4,
        qos_mix=_QOS_MIX,
    )
    horizon = max(task.spec.arrival_cycles for task in trace)
    millisecond = 1e-3 * _SIM.npu.frequency_hz
    schedule = ChurnSchedule.generate(
        2,
        horizon_cycles=horizon,
        seed=18,
        fault_rate=2.0 / horizon,
        revocation_rate=4.0 / horizon,
        mean_outage_cycles=horizon / 3.0,
        mean_warning_cycles=0.5 * millisecond,
        max_concurrent_down=2,
    )
    config = ClusterConfig(
        policy_name="SJF",
        routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
        admission=AdmissionController(feedback=PredictionFeedback()),
        batching=BatchConfig(
            window_cycles=millisecond,
            max_batch=4,
            marginal_fraction=0.6,
            shard_stages=2,
            min_shard_cycles=millisecond,
        ),
        churn=schedule,
        proactive_migration=True,
    )
    return 2, config, trace


_UNIFORM_4X2 = RackTopology.uniform(4, 2)
_ONLINE = RoutingPolicy.ONLINE_PREDICTED
_STEALING = RoutingPolicy.WORK_STEALING

RACK_CASES = {
    **{
        f"rack/{routing.value}/4x2":
        (lambda routing=routing: racked_case(_UNIFORM_4X2, routing))
        for routing in RoutingPolicy
    },
    "rack/work-stealing/4x2/rack-local": lambda: racked_case(
        _UNIFORM_4X2, _STEALING, cross_rack_threshold_cycles=math.inf
    ),
    "rack/work-stealing/4x2/threshold-3e6": lambda: racked_case(
        _UNIFORM_4X2, _STEALING, cross_rack_threshold_cycles=3e6
    ),
    "rack/work-stealing/1x8": lambda: racked_case(
        RackTopology.uniform(1, 8), _STEALING
    ),
    "rack/work-stealing/8x1": lambda: racked_case(
        RackTopology.uniform(8, 1), _STEALING
    ),
    "rack/online-predicted/1+2+5": lambda: racked_case(
        RackTopology.from_sizes([1, 2, 5]), _ONLINE, seed=23
    ),
    **{
        f"rack/online-predicted/2x3/{policy_name.lower()}":
        (lambda index=index, policy_name=policy_name: racked_case(
            RackTopology.uniform(2, 3), _ONLINE, seed=30 + index,
            num_tasks=32, policy_name=policy_name,
        ))
        for index, policy_name in enumerate(("FCFS", "RRB", "SJF", "PREMA"))
    },
    "rack/online-predicted/4x2/admission": lambda: racked_case(
        _UNIFORM_4X2, _ONLINE,
        admission=AdmissionController(feedback=PredictionFeedback()),
    ),
    "rack/online-predicted/4x2/batching": lambda: racked_case(
        _UNIFORM_4X2, _ONLINE,
        batching=BatchConfig(window_cycles=1000.0, max_batch=2),
    ),
    "rack/online-predicted/4x2/global-tokens": lambda: racked_case(
        _UNIFORM_4X2, _ONLINE, global_tokens=True
    ),
    **{
        f"rack/{routing.value}/4x2/rack-churn":
        (lambda routing=routing: rack_churn_case(routing))
        for routing in (
            _ONLINE, _STEALING, RoutingPolicy.PREEMPTIVE_MIGRATION
        )
    },
}


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
    "outage/preemptive-migration/admission-sharded": fleet_outage_case,
    "rack/work-stealing/2x4": rack_case,
    **RACK_CASES,
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
    'churn/least-loaded/proactive': 'ef0af554974e7311',  # 48/0/0, 9 moves
    'churn/least-loaded/reactive': 'fa5dfc0cc4988ac1',  # 48/0/0, 0 moves
    'churn/online-predicted/proactive': '9eb45a570d4c30d8',  # 48/0/0, 7 moves
    'churn/online-predicted/reactive': 'ab652fb3cb91da3a',  # 48/0/0, 0 moves
    'churn/preemptive-migration/proactive': '6fd8d407661a6f63',  # 48/0/0, 19 moves
    'churn/preemptive-migration/reactive': '933678d8452c183c',  # 48/0/0, 15 moves
    'churn/random/proactive': '6b6bdec389839572',  # 48/0/0, 15 moves
    'churn/random/reactive': '19cb22c3cab271c8',  # 48/0/0, 0 moves
    'churn/round-robin/proactive': '432a4a52bb45a230',  # 48/0/0, 12 moves
    'churn/round-robin/reactive': 'a5b59fe355041109',  # 48/0/0, 0 moves
    'churn/work-stealing/proactive': '2f7779395fc2e6ea',  # 48/0/0, 14 moves
    'churn/work-stealing/reactive': 'fe33050b6fa2db44',  # 48/0/0, 9 moves
    'outage/least-loaded/proactive': 'b9b83803bd7d8d79',  # 19/0/29, 16 moves
    'outage/least-loaded/reactive': 'a4cba85cba4b136b',  # 18/0/30, 0 moves
    'outage/online-predicted/proactive': '692c0eae33b961c4',  # 19/0/29, 16 moves
    'outage/online-predicted/reactive': '73eb9c32636ed6a6',  # 18/0/30, 0 moves
    'outage/preemptive-migration/admission-sharded': '7e5b79569300fc71',  # 5/5/6, 3 moves
    'outage/preemptive-migration/proactive': 'c9c9b4a3a481c1f4',  # 19/0/29, 16 moves
    'outage/preemptive-migration/reactive': '97d59edf6e0412b5',  # 18/0/30, 2 moves
    'outage/random/proactive': 'a1b0d9926ce88bd5',  # 19/0/29, 15 moves
    'outage/random/reactive': '57d9ca015c33b223',  # 19/0/29, 0 moves
    'outage/round-robin/proactive': 'fdc76cc4738e7cf0',  # 19/0/29, 16 moves
    'outage/round-robin/reactive': 'c630e9aa805c1ed1',  # 18/0/30, 0 moves
    'outage/work-stealing/proactive': '692c0eae33b961c4',  # 19/0/29, 16 moves
    'outage/work-stealing/reactive': '0ebf2c9c6c197f99',  # 18/0/30, 1 moves
    'rack/least-loaded/4x2': '5871567c584b3765',  # 64/0/0, 0 moves
    'rack/online-predicted/1+2+5': 'cd973ba3679753ed',  # 64/0/0, 0 moves
    'rack/online-predicted/2x3/fcfs': 'eab0469765345f8b',  # 32/0/0, 0 moves
    'rack/online-predicted/2x3/prema': '02fd86f36d624451',  # 32/0/0, 0 moves
    'rack/online-predicted/2x3/rrb': 'd72d92c4bee80ee8',  # 32/0/0, 0 moves
    'rack/online-predicted/2x3/sjf': '0dca51d8ad79a815',  # 32/0/0, 0 moves
    'rack/online-predicted/4x2': 'cbad03d09e38ee40',  # 64/0/0, 0 moves
    'rack/online-predicted/4x2/admission': '8bb4eac053230d1e',  # 61/3/0, 0 moves
    'rack/online-predicted/4x2/batching': '2c054c5c08bdf3a6',  # 64/0/0, 0 moves
    'rack/online-predicted/4x2/global-tokens': 'f329fd761295c3f0',  # 64/0/0, 0 moves
    'rack/online-predicted/4x2/rack-churn': '957558e155741669',  # 64/0/0, 6 moves
    'rack/preemptive-migration/4x2': 'c9245a8a707566c9',  # 64/0/0, 24 moves
    'rack/preemptive-migration/4x2/rack-churn': 'd77845bbcf59eb2a',  # 64/0/0, 33 moves
    'rack/random/4x2': '42ba139518c531da',  # 64/0/0, 0 moves
    'rack/round-robin/4x2': '3236f058f36738e2',  # 64/0/0, 0 moves
    'rack/work-stealing/1x8': '4a7ad9f53a33962e',  # 64/0/0, 5 moves
    'rack/work-stealing/2x4': '11c06d417b45d3df',  # 64/0/0, 10 moves
    'rack/work-stealing/4x2': '2e40a3a6b66d55b2',  # 64/0/0, 18 moves
    'rack/work-stealing/4x2/rack-churn': '745bddc52feb6ba6',  # 64/0/0, 20 moves
    'rack/work-stealing/4x2/rack-local': 'd37724af674f3a52',  # 64/0/0, 1 moves
    'rack/work-stealing/4x2/threshold-3e6': 'b80a7ebe5a5c85f8',  # 64/0/0, 9 moves
    'rack/work-stealing/8x1': '94726265512453fe',  # 64/0/0, 27 moves
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_decisions_match_pinned_digest(name):
    assert digest(run_case(name)) == PINNED[name]


def test_fleet_outage_case_reaches_its_branches():
    """The whole-fleet outage pin loses a sharded gang and re-considers
    an arrival that found no accepting device at the next transition."""
    result = run_case("outage/preemptive-migration/admission-sharded")
    lost = {task.task_id for task in result.lost_tasks}
    assert any(
        batch.num_stages > 1 and set(batch.member_task_ids) <= lost
        for batch in result.batches
    )
    # A first consideration normally happens at the arrival itself; one
    # decided later waited out an outage without burning an attempt.
    arrival = {
        task.task_id: task.spec.arrival_cycles
        for task in result.offered_tasks
    }
    assert any(
        record.attempt == 0 and record.time_cycles > arrival[record.task_id]
        for record in result.admission_records
    )


def reuse_case(surface, routing):
    """One small draw per run-state surface a reused scheduler could
    carry over: the plain loop, batching with 2-stage sharding, churn,
    and a 2x2 rack topology."""
    trace = synthetic_trace_runtimes(
        24,
        seed=41,
        mean_interarrival_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / 4,
        qos_mix=_QOS_MIX,
    )
    extra = {}
    if surface == "batching":
        extra["batching"] = BatchConfig(
            window_cycles=0.7e6, max_batch=4, shard_stages=2,
            min_shard_cycles=0.7e6,
        )
    elif surface == "churn":
        horizon = max(task.spec.arrival_cycles for task in trace)
        extra["churn"] = ChurnSchedule.generate(
            4,
            horizon_cycles=horizon,
            seed=5,
            fault_rate=1.0 / horizon,
            revocation_rate=2.0 / horizon,
            mean_outage_cycles=horizon / 5.0,
            mean_warning_cycles=horizon / 40.0,
        )
        assert len(extra["churn"]) > 0
    elif surface == "racks":
        extra["racks"] = RackTopology.uniform(2, 2)
    config = ClusterConfig(
        policy_name="PREMA", routing=routing, seed=3, **extra
    )
    return 4, config, trace


#: Admission is left out: its feedback keeps learning across runs by
#: design, so a reused controller legitimately decides differently.
REUSE_CASES = [
    (surface, routing)
    for surface in ("plain", "batching", "churn", "racks")
    for routing in RoutingPolicy
    if surface != "batching" or routing in ONLINE_ROUTINGS
]


@pytest.mark.parametrize(
    "surface,routing",
    REUSE_CASES,
    ids=[f"{surface}/{routing.value}" for surface, routing in REUSE_CASES],
)
def test_reused_scheduler_repeats_its_run(surface, routing):
    """Run state lives on the run, not on the scheduler: a second run()
    on fresh runtimes repeats the first bit for bit."""
    num_devices, config, trace = reuse_case(surface, routing)
    scheduler = ClusterScheduler(num_devices, _SIM, config=config)
    first = scheduler.run([copy.deepcopy(task) for task in trace])
    second = scheduler.run([copy.deepcopy(task) for task in trace])
    assert digest(second) == digest(first)


def moved_pins(digests, patterns):
    """``name: old -> new`` for each case of ``digests`` (name -> digest)
    whose digest differs from ``PINNED``, and how many of those match
    none of ``patterns`` (a case matches when any glob does; without
    patterns none is outside)."""
    lines, stray = [], 0
    for name in sorted(digests):
        new, old = digests[name], PINNED.get(name)
        if new == old:
            continue
        outside = bool(patterns) and not any(
            fnmatch.fnmatch(name, pattern) for pattern in patterns
        )
        stray += outside
        lines.append(
            f"{name}: {old} -> {new}{'  (outside pattern)' if outside else ''}"
        )
    return lines, stray


def diff_pins(patterns):
    """Print every case whose digest moved; 1 if one falls outside
    ``patterns``, else 0."""
    lines, stray = moved_pins(
        {name: digest(run_case(name)) for name in CASES}, patterns
    )
    for line in lines:
        print(line)
    return 1 if stray else 0


class TestMovedPins:
    """``--diff``'s report, over hand-made digests (no case is run)."""

    def test_lists_each_moved_case_as_old_to_new(self):
        digests = dict(PINNED)
        digests["churn/random/reactive"] = "0123456789abcdef"
        lines, stray = moved_pins(digests, [])
        old = PINNED["churn/random/reactive"]
        assert lines == [f"churn/random/reactive: {old} -> 0123456789abcdef"]
        assert stray == 0

    def test_a_moved_case_outside_every_glob_is_stray(self):
        digests = dict(PINNED)
        digests["churn/random/reactive"] = "0123456789abcdef"
        digests["rack/random/4x2"] = "fedcba9876543210"
        lines, stray = moved_pins(digests, ["churn/*", "outage/*"])
        assert stray == 1
        assert lines[0].endswith("0123456789abcdef")
        assert lines[1].endswith("fedcba9876543210  (outside pattern)")

    def test_moved_cases_inside_any_glob_pass(self):
        digests = dict(PINNED)
        digests["churn/random/reactive"] = "0123456789abcdef"
        digests["outage/round-robin/proactive"] = "fedcba9876543210"
        lines, stray = moved_pins(digests, ["churn/*", "outage/*"])
        assert len(lines) == 2
        assert stray == 0

    def test_a_case_missing_from_the_pins_is_reported(self):
        lines, stray = moved_pins({"churn/new/case": "0123456789abcdef"}, [])
        assert lines == ["churn/new/case: None -> 0123456789abcdef"]
        assert stray == 0

    def test_held_pins_report_nothing(self):
        assert moved_pins(dict(PINNED), ["churn/*"]) == ([], 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--diff"]:
        sys.exit(diff_pins(sys.argv[2:]))
    for name in sorted(CASES):
        result = run_case(name)
        print(
            f"    {name!r}: {digest(result)!r},  # {len(result.tasks)}/"
            f"{len(result.rejected_tasks)}/{len(result.lost_tasks)}, "
            f"{len(result.migrations)} moves"
        )

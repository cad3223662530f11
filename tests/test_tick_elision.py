"""The sleeping period clock is decision-neutral: runs equal a ticking oracle.

``DeviceSim`` fires only the period ticks that can change a decision --
none while nothing is READY, few while a task runs -- and replays the
skipped ones at the next read of waits or tokens (see the
:mod:`repro.sched.simulator` docstring).  :class:`TickingDeviceSim`
restores the every-period clock -- a live chain always re-arms -- and is
patched into the cluster and single-NPU layers as the oracle.  Every
drawn configuration must reproduce the oracle's decisions bit for bit:
the golden encoder's view of the run (waits and tokens included, as
exact floats), plus the preemption and drain counters.

The draws cover routing x device policy x NP / STATIC-CHECKPOINT /
STATIC-KILL / DYNAMIC x churn (none / proactive / reactive) x fabric
(PCIe gen3 / a slow shared bus) x racks x verified indexes or not x the
cluster token ledger (always on under preemptive migration) x metrics
sampler x router batching and 2-stage sharding (online routings), on
traces of at most 64 tasks.  Each of these breaks the suite: re-arming a
woken chain at ``now + period`` instead of walking it, dropping the tick
a sleeping device arms when it drains, letting a doomed device's clock
sleep, dropping the tick armed after ``remove_task``, dropping the tick
after a reserved DISPATCH (the chain's next tick under FCFS/RRB/HPF/SJF,
the first deciding tick past the new runner's quota under TOKEN/PREMA),
and arming a token-level crossing one tick late.

``DeviceSim._replay`` replays a skipped span row by row and decides it
once.  :class:`CheckedReplayDeviceSim` runs every replay twice from the
same state, row-wise and through :func:`reference_replay` (the per-tick
loop it replaced), and requires the same resulting state; it catches a
replay that leaves the running task's progress at the first tick past
the time quota instead of the last, which the oracle draws miss.
"""

import contextlib
import copy
import functools
import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers_golden import _encode_cluster_v2, _encode_result
from repro.analysis.runner import FIG13_SETUPS
from repro.core.scheduler import PremaPolicyCore
from repro.npu.config import NPUConfig
from repro.obs import MetricsSampler
from repro.sched import cluster as cluster_module
from repro.sched import simulator as simulator_module
from repro.core.tokens import Priority
from repro.sched.cluster import (
    ONLINE_ROUTINGS,
    ClusterConfig,
    ClusterScheduler,
    RoutingPolicy,
)
from repro.sched.faults import ChurnEvent, ChurnSchedule
from repro.sched.interconnect import InterconnectConfig
from repro.sched.job import BatchConfig
from repro.sched.policies import POLICY_NAMES, make_policy
from repro.sched.rack import RackTopology
from repro.sched.simulator import (
    DeviceSim,
    NPUSimulator,
    PreemptionMode,
    SimulationConfig,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.specs import TaskSpec
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_trace_runtimes,
)

_NPU = NPUConfig()
_NUM_DEVICES = 4
_MODES = (
    (PreemptionMode.NP, "CHECKPOINT"),
    (PreemptionMode.STATIC, "CHECKPOINT"),
    (PreemptionMode.STATIC, "KILL"),
    (PreemptionMode.DYNAMIC, "CHECKPOINT"),
)
_FABRICS = {
    "pcie_gen3": InterconnectConfig.pcie_gen3(),
    # Slow enough that checkpoint shipments queue on the shared medium.
    "slow_bus": InterconnectConfig.from_bytes_per_sec(
        0.5e9, 5.0, topology="bus", name="slow-bus"
    ),
}
_QOS_MIX = {"interactive": 0.3, "standard": 0.4, "batch": 0.3}
_BATCHING = {
    "none": None,
    "batching": BatchConfig(window_cycles=_NPU.ms_to_cycles(1.0), max_batch=4),
    "sharding": BatchConfig(
        window_cycles=0.0, shard_stages=2, min_shard_cycles=_NPU.ms_to_cycles(3.0)
    ),
    "both": BatchConfig(
        window_cycles=_NPU.ms_to_cycles(1.0),
        max_batch=4,
        marginal_fraction=0.6,
        shard_stages=2,
        min_shard_cycles=_NPU.ms_to_cycles(3.0),
    ),
}


class TickingDeviceSim(DeviceSim):
    """The every-period clock: a live chain re-arms at every tick."""

    def _next_decision_tick(self, now):
        return self._next_tick


class TwiceWakingDeviceSim(DeviceSim):
    """Runs every wake twice at the same instant.  The second run may
    only repeat a DRAIN choice, whose count is restored."""

    def _wake(self, now):
        super()._wake(now)
        drains = self._drain_decisions
        super()._wake(now)
        self._drain_decisions = drains


_CORE = PremaPolicyCore()
_ROW_FIELDS = ("last_update_cycles", "waited_cycles", "waited_since_grant", "tokens")


def reference_replay(sim, until, inclusive):
    """The per-tick replay of ``sim``'s skipped ticks before ``until``.

    Each tick settles every ready row, grants the table's tokens and
    re-runs the tick's preemption check against the span's candidate.
    """
    tick = sim._next_tick
    if tick is None or tick > until or (tick == until and not inclusive):
        return
    period = sim.config.scheduler.period_cycles
    table = sim._table
    if not table.has_ready:
        while tick < until or (inclusive and tick == until):
            tick += period
        sim._next_tick = tick
        return
    ready = table.ready()
    policy = sim.policy
    grants = policy.uses_tokens
    running = (
        sim._runtimes[sim._running_id] if sim._running_id is not None else None
    )
    candidate = None
    if running is not None and sim.config.mode is not PreemptionMode.NP:
        candidate = policy.select_ready(table)
    while True:
        for row in ready:
            row.accrue_wait(tick)
        following = tick + period
        last = following > until or (following == until and not inclusive)
        if grants:
            _CORE.grant_periodic_tokens(table)
        if running is None:
            if sim._reserved_task_id is None and tick >= sim._npu_reserved_until:
                raise RuntimeError(f"skipped tick at {tick} would dispatch")
        elif candidate is not None and not sim._keeps_running(
            tick, running, candidate
        ):
            raise RuntimeError(f"skipped tick at {tick} would preempt")
        tick = following
        if last:
            break
    sim._next_tick = tick


def _raised(replay, until, inclusive):
    try:
        replay(until, inclusive)
    except RuntimeError as error:
        return error
    return None


class CheckedReplayDeviceSim(DeviceSim):
    """Checks each replay of a span with a ready row against
    :func:`reference_replay`, run from the same state."""

    #: Replays checked since the count was last reset.
    checked = 0

    def _replay(self, until, inclusive):
        tick = self._next_tick
        if (
            tick is None
            or tick > until
            or (tick == until and not inclusive)
            or not self._table.has_ready
        ):
            super()._replay(until, inclusive)
            return
        saved = self._replay_state()
        rowwise = _raised(super()._replay, until, inclusive)
        replayed = self._replay_state()
        self._restore(saved)
        reference = _raised(
            functools.partial(reference_replay, self), until, inclusive
        )
        assert (rowwise is None) == (reference is None), (rowwise, reference)
        if reference is not None:
            raise reference
        assert replayed == self._replay_state(), (until, inclusive)
        CheckedReplayDeviceSim.checked += 1

    def _replay_state(self):
        running = self.running_task
        return (
            [
                (row.task_id,) + tuple(getattr(row, name) for name in _ROW_FIELDS)
                for row in self._table.ready()
            ],
            None if running is None else running.context.executed_cycles,
            self._drain_decisions,
            self._next_tick,
        )

    def _restore(self, state):
        rows, executed, self._drain_decisions, self._next_tick = state
        for task_id, *values in rows:
            row = self._table[task_id]
            for name, value in zip(_ROW_FIELDS, values):
                setattr(row, name, value)
        if executed is not None:
            self.running_task.context.executed_cycles = executed


class LateCrossingDeviceSim(DeviceSim):
    """Arms every planned tick one period late, token-level crossings
    included."""

    def _token_decision_tick(self, now, running):
        tick = super()._token_decision_tick(now, running)
        return None if tick is None else tick + self.config.scheduler.period_cycles


@contextlib.contextmanager
def devices_built_from(cls):
    """Build every cluster and single-NPU device from ``cls`` inside."""
    saved = cluster_module.DeviceSim, simulator_module.DeviceSim
    cluster_module.DeviceSim = simulator_module.DeviceSim = cls
    try:
        yield
    finally:
        cluster_module.DeviceSim, simulator_module.DeviceSim = saved


def ticking():
    return devices_built_from(TickingDeviceSim)


def _cluster_run(case):
    """Run one drawn cluster configuration; returns its decision record."""
    trace = synthetic_trace_runtimes(
        case["num_tasks"],
        seed=case["seed"],
        mean_interarrival_cycles=(
            DEFAULT_MEAN_INTERARRIVAL_CYCLES / (_NUM_DEVICES * case["load"])
        ),
        estimate_error=0.5,
        bursty=case["bursty"],
        qos_mix=_QOS_MIX,
    )
    churn = None
    if case["churn"] != "none":
        horizon = max(task.spec.arrival_cycles for task in trace)
        churn = ChurnSchedule.generate(
            _NUM_DEVICES,
            horizon_cycles=horizon,
            seed=case["seed"],
            fault_rate=1.5 / horizon,
            revocation_rate=1.5 / horizon,
            drain_rate=0.75 / horizon,
            mean_outage_cycles=horizon / 5.0,
            mean_warning_cycles=horizon / 60.0,
            never_restore_probability=0.25,
        )
    fabric = _FABRICS[case["fabric"]]
    racks = None
    if case["racks"]:
        racks = RackTopology.uniform(2, _NUM_DEVICES // 2)
        fabric = fabric.oversubscribed(4.0)
    batching = None
    if case["routing"] in ONLINE_ROUTINGS:
        batching = _BATCHING[case["batching"]]
    sampler = None
    if case["sampler"]:
        sampler = MetricsSampler(
            interval_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / 2
        )
    mode, mechanism = case["mode"]
    scheduler = ClusterScheduler(
        _NUM_DEVICES,
        SimulationConfig(npu=_NPU, mode=mode, mechanism=mechanism),
        config=ClusterConfig(
            policy_name=case["policy"],
            routing=case["routing"],
            seed=case["seed"],
            interconnect=fabric,
            churn=churn,
            proactive_migration=case["churn"] == "proactive",
            racks=racks,
            metrics_sampler=sampler,
            batching=batching,
            # Checks every read of the control-plane indexes (the
            # least-backlog pick, the steal and migrate candidate sets,
            # the rack sums) against a scan of the devices.
            verify_indexes=case["indexes"],
            # A ledger device keeps every tick while a row is READY, so
            # no replay it makes has a ledger entry to settle.  None is
            # the default: a ledger under preemptive migration only.
            global_tokens=True if case["global_tokens"] else None,
        ),
    )
    result = scheduler.run(trace)
    devices = [r for r in result.device_results if r is not None]
    payload = {
        "encoded": _encode_cluster_v2(result),
        "tasks": [task.task_id for task in result.tasks],
        "rejected": [task.task_id for task in result.rejected_tasks],
        "lost": [task.task_id for task in result.lost_tasks],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return {
        "digest": hashlib.sha256(blob).hexdigest(),
        "preemptions": sum(r.preemption_count for r in devices),
        "drains": sum(r.drain_decisions for r in devices),
        "events": result.events_processed,
    }


_cases = st.fixed_dictionaries(
    {
        "routing": st.sampled_from(tuple(RoutingPolicy)),
        "policy": st.sampled_from(POLICY_NAMES),
        "mode": st.sampled_from(_MODES),
        "churn": st.sampled_from(("none", "proactive", "reactive")),
        "fabric": st.sampled_from(tuple(_FABRICS)),
        "racks": st.booleans(),
        "indexes": st.booleans(),
        "global_tokens": st.booleans(),
        "sampler": st.booleans(),
        # Applies to the online routings only.
        "batching": st.sampled_from(tuple(_BATCHING)),
        "num_tasks": st.integers(min_value=8, max_value=64),
        "seed": st.integers(min_value=0, max_value=10_000),
        # Below 1 devices drain and idle between arrivals; above 1 ready
        # queues build up.
        "load": st.sampled_from((0.3, 0.8, 1.5)),
        "bursty": st.booleans(),
    }
)


def _case(routing, policy, mode, churn, racks, seed, load, bursty, **rest):
    return {
        "routing": routing,
        "policy": policy,
        "mode": mode,
        "churn": churn,
        "fabric": rest.get("fabric", "pcie_gen3"),
        "racks": racks,
        "indexes": rest.get("indexes", False),
        "global_tokens": rest.get("global_tokens", False),
        "sampler": rest.get("sampler", False),
        "batching": rest.get("batching", "none"),
        "num_tasks": rest.get("num_tasks", 8),
        "seed": seed,
        "load": load,
        "bursty": bursty,
    }


@given(case=_cases)
@example(
    # NP-TOKEN with churn orphans re-injected: with no decision held,
    # replayed grants move rows across token levels, which the replay
    # must grant through without raising.
    case=_case(
        RoutingPolicy.ROUND_ROBIN, "TOKEN", _MODES[0], "proactive",
        racks=False, seed=30, load=0.8, bursty=False,
    )
)
@example(
    # A steal from a sleeping victim: remove_task arms the next tick
    # outside any device event, and the indexed plane must fire it in
    # time order.
    case=_case(
        RoutingPolicy.WORK_STEALING, "HPF", _MODES[3], "none",
        racks=True, seed=60, load=0.3, bursty=True, indexes=True,
    )
)
@example(
    # A steal leaves a victim whose new candidate preempts at the next
    # tick, which only the tick remove_task arms decides.
    case=_case(
        RoutingPolicy.WORK_STEALING, "PREMA", _MODES[1], "proactive",
        racks=True, seed=5809, load=0.8, bursty=True, fabric="slow_bus",
        num_tasks=42,
    )
)
@example(
    # NP-PREMA under a cluster ledger: its replays grant without settling
    # the ledger, which holds only because a ledger device fires every
    # tick while a row is READY.  A ledger device that sleeps moves this
    # run's decisions.
    case=_case(
        RoutingPolicy.ONLINE_PREDICTED, "PREMA", _MODES[0], "none",
        racks=False, seed=1, load=1.5, bursty=False, num_tasks=32,
        global_tokens=True,
    )
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cluster_run_matches_ticking_oracle(case):
    elided = _cluster_run(case)
    with ticking():
        oracle = _cluster_run(case)
    assert elided["digest"] == oracle["digest"]
    assert elided["preemptions"] == oracle["preemptions"]
    assert elided["drains"] == oracle["drains"]
    assert elided["events"] <= oracle["events"]


def test_fig13_setups_match_ticking_oracle(factory):
    workloads = WorkloadGenerator(
        seed=13, arrival_window_cycles=_NPU.ms_to_cycles(8.0)
    ).generate_many(3, num_tasks=8)
    for setup in FIG13_SETUPS:
        for workload in workloads:
            elided = setup.build_simulator(_NPU).run(
                factory.build_workload(workload)
            )
            with ticking():
                oracle = setup.build_simulator(_NPU).run(
                    factory.build_workload(workload)
                )
            assert _encode_result(elided) == _encode_result(oracle), setup.label
            assert elided.preemption_count == oracle.preemption_count
            assert elided.drain_decisions == oracle.drain_decisions


def test_fig13_replays_match_per_tick_replay(factory):
    CheckedReplayDeviceSim.checked = 0
    workloads = WorkloadGenerator(
        seed=13, arrival_window_cycles=_NPU.ms_to_cycles(8.0)
    ).generate_many(10, num_tasks=8)
    with devices_built_from(CheckedReplayDeviceSim):
        for setup in FIG13_SETUPS:
            for workload in workloads:
                setup.build_simulator(_NPU).run(factory.build_workload(workload))
    assert CheckedReplayDeviceSim.checked > 0


@given(case=_cases)
@example(
    case=_case(
        RoutingPolicy.WORK_STEALING, "PREMA", _MODES[3], "proactive",
        racks=False, seed=7, load=1.5, bursty=True, num_tasks=64,
    )
)
@example(
    case=_case(
        RoutingPolicy.WORK_STEALING, "PREMA", _MODES[1], "proactive",
        racks=True, seed=5809, load=0.8, bursty=True, fabric="slow_bus",
        num_tasks=42,
    )
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_cluster_replays_match_per_tick_replay(case):
    with devices_built_from(CheckedReplayDeviceSim):
        _cluster_run(case)


def test_replay_refuses_a_skipped_token_level_crossing(factory):
    """Deciding a span once rests on no row changing token bucket inside
    it, so a planner that arms the crossings late must fail loudly."""
    config = SimulationConfig(npu=_NPU, mode=PreemptionMode.DYNAMIC)
    for workload in WorkloadGenerator(seed=13).generate_many(10, num_tasks=8):
        with devices_built_from(LateCrossingDeviceSim), pytest.raises(
            RuntimeError, match=r"task \d+ crossed a token level"
        ):
            NPUSimulator(config, make_policy("PREMA")).run(
                factory.build_workload(workload)
            )


def test_doomed_device_polls_its_evacuation_at_its_ticks():
    """A doomed device keeps its clock even with nothing ready.

    Device 0 runs one long task and is warned while device 1 is down, so
    the evacuation finds no target.  Device 1 restores inside the
    warning window; only device 0's own ticks re-plan the evacuation, and
    the first one after the restore checkpoint-migrates the task out
    before the revocation.
    """
    def run():
        (task,) = synthetic_trace_runtimes(1, seed=1, mean_service_cycles=20e6)
        start, span = task.spec.arrival_cycles, task.profile.total_cycles

        def at(fraction):
            return start + fraction * span

        schedule = ChurnSchedule(
            (
                ChurnEvent(1, "fault", at(0.1), at(0.1), at(0.4)),
                ChurnEvent(0, "revocation", at(0.2), at(0.9), math.inf),
            )
        )
        scheduler = ClusterScheduler(
            2,
            SimulationConfig(npu=_NPU, mode=PreemptionMode.DYNAMIC),
            config=ClusterConfig(
                policy_name="PREMA",
                routing=RoutingPolicy.ONLINE_PREDICTED,
                churn=schedule,
                proactive_migration=True,
            ),
        )
        result = scheduler.run([task])
        return result, at(0.4), at(0.9)

    elided, restore, deadline = run()
    with ticking():
        oracle, _, _ = run()
    assert _encode_cluster_v2(elided) == _encode_cluster_v2(oracle)
    (move,) = elided.migrations
    assert move.kind == "checkpoint"
    assert restore <= move.time_cycles < deadline
    assert elided.events_processed < oracle.events_processed


def test_oracle_ticks_more():
    """The elision is real: a busy device's idle ticks disappear."""
    trace = synthetic_trace_runtimes(48, seed=3)
    config = SimulationConfig(npu=_NPU, mode=PreemptionMode.DYNAMIC)

    def events(cls):
        sim = cls(config, make_policy("PREMA"))
        for task in copy.deepcopy(trace):
            sim.inject(task)
        while sim.has_live_tasks and sim.next_event_time() is not None:
            sim.step()
        return sim.events_processed

    assert events(DeviceSim) < events(TickingDeviceSim)


def test_reserved_dispatch_is_followed_by_a_deciding_tick(factory):
    """A reserved DISPATCH runs no wake, so its next tick must fire.

    Under STATIC HPF a MEDIUM task preempts a LOW one; a HIGH task
    arrives during the checkpoint trap, while the array is promised to
    the MEDIUM one.  Only the first tick after the DISPATCH ranks the
    HIGH task against the new runner and preempts it.
    """
    low_iso = factory.execution_profile("CNN-VN", 16).total_cycles
    specs = [
        TaskSpec(0, "CNN-VN", 16, Priority.LOW, 0.0),
        TaskSpec(1, "CNN-GN", 1, Priority.MEDIUM, 0.3 * low_iso),
        TaskSpec(2, "CNN-AN", 1, Priority.HIGH,
                 0.3 * low_iso + _NPU.us_to_cycles(1.0)),
    ]
    config = SimulationConfig(npu=_NPU, mode=PreemptionMode.STATIC)

    def run():
        return NPUSimulator(config, make_policy("HPF")).run(
            [factory.build_task(spec) for spec in specs]
        )

    result = run()
    with ticking():
        oracle = run()
    assert _encode_result(result) == _encode_result(oracle)
    medium, high = result.task_by_id(1), result.task_by_id(2)
    assert high.spec.arrival_cycles < medium.first_dispatch_time
    assert medium.preemption_count == 1
    assert high.first_dispatch_time < medium.completion_time


@pytest.mark.parametrize("policy", ["TOKEN", "PREMA"])
def test_token_reserved_dispatch_plans_its_deciding_tick(factory, policy):
    """Under a token policy the tick after a reserved DISPATCH falls in
    the new runner's time quota and ranks nothing, so the DISPATCH arms
    the first deciding tick instead, past the quota.

    Under STATIC a HIGH task preempts a LOW one; a second HIGH task
    arrives during the checkpoint trap.  Only a tick past the first HIGH
    task's quota ranks the second against it and preempts it.
    """
    low_iso = factory.execution_profile("CNN-VN", 16).total_cycles
    specs = [
        TaskSpec(0, "CNN-VN", 16, Priority.LOW, 0.0),
        TaskSpec(1, "CNN-GN", 1, Priority.HIGH, 0.3 * low_iso),
        TaskSpec(2, "CNN-AN", 1, Priority.HIGH,
                 0.3 * low_iso + _NPU.us_to_cycles(1.0)),
    ]
    config = SimulationConfig(npu=_NPU, mode=PreemptionMode.STATIC)

    def run():
        return NPUSimulator(config, make_policy(policy)).run(
            [factory.build_task(spec) for spec in specs]
        )

    result = run()
    with ticking():
        oracle = run()
    assert _encode_result(result) == _encode_result(oracle)
    assert result.preemption_count == oracle.preemption_count
    first, second = result.task_by_id(1), result.task_by_id(2)
    assert second.spec.arrival_cycles < first.first_dispatch_time
    assert first.preemption_count == 1
    quota = config.scheduler.period_cycles
    assert second.first_dispatch_time > first.first_dispatch_time + quota


@pytest.mark.parametrize("mode", list(PreemptionMode), ids=lambda m: m.value)
def test_same_instant_wake_is_idempotent(factory, mode):
    """A second wake at the same instant changes nothing but the DRAIN
    counter.  The sleeping clock relies on this: a replayed tick re-runs
    a decision that an event at the start of its span already made."""
    workloads = WorkloadGenerator(seed=11).generate_many(20, num_tasks=8)
    config = SimulationConfig(npu=_NPU, mode=mode)
    for policy in POLICY_NAMES:
        for index, workload in enumerate(workloads):
            once = NPUSimulator(config, make_policy(policy)).run(
                factory.build_workload(workload)
            )
            with devices_built_from(TwiceWakingDeviceSim):
                twice = NPUSimulator(config, make_policy(policy)).run(
                    factory.build_workload(workload)
                )
            assert _encode_result(twice) == _encode_result(once), (
                policy, index
            )

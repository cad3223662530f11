"""Rack-scale fleets: topology, two-tier routing, locality, conservation.

Six layers of coverage for the rack composition:

1. *Topology units*: the device->rack map validates shape (contiguous,
   non-empty racks) and answers membership queries.
2. *Flat-fleet equivalence*: one rack over a uniform fabric replays the
   flat cluster bit-for-bit across every routing policy -- the rack
   frontend degenerates exactly (trivial rack pick, whole-fleet device
   heap, all candidates rack-local), pinned through the golden encoding.
   Verify mode cross-checks the router's incremental aggregates against
   recomputation on every consultation of multi-rack runs.
3. *Locality*: steal victims prefer the thief's rack; cross-rack victims
   are taken only when no local work exists and the backlog clears the
   uplink-cost threshold.  The oversubscribed uplink makes cross-rack
   transfers strictly costlier than rack-local ones (the cost cliff).
4. *Hierarchical conservation*: every cross-rack transfer occupies both
   its rack-local link and the shared uplink; cancelling one in flight
   releases time on *all* path links (the PR-7 conservation property,
   extended to the two-level fabric).
5. *Rack-correlated churn*: whole racks go dark together, evacuations
   land cross-rack, and no task is silently dropped -- every offered
   task is exactly one of completed / rejected / lost.
6. *Per-rack steal-candidate sets*: verify mode checks each rack's set
   and every thief's victim against the fleet-wide scan (and catches
   planted divergences), and steal probes per event stay flat as one
   fleet is split into more, smaller racks.
"""

import math

import pytest

import helpers_golden
from repro.npu.config import NPUConfig
from repro.sched.cluster import (
    ClusterConfig,
    ClusterScheduler,
    RoutingPolicy,
    _ClusterIndexes,
    _ClusterRun,
    _RackIndexes,
)
from repro.sched.faults import ChurnSchedule
from repro.sched.interconnect import (
    CONTEXT_ROW_BYTES,
    Interconnect,
    InterconnectConfig,
)
from repro.sched.metrics import compute_cluster_metrics
from repro.sched.rack import RackRouter, RackTopology
from repro.sched.policies import make_policy
from repro.sched.simulator import DeviceSim, PreemptionMode, SimulationConfig
from repro.core.tokens import Priority
from repro.workloads.specs import TaskSpec
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    synthetic_runtime,
    synthetic_trace_runtimes,
)

ONLINE = (
    RoutingPolicy.ONLINE_PREDICTED,
    RoutingPolicy.WORK_STEALING,
    RoutingPolicy.PREEMPTIVE_MIGRATION,
)


def _config() -> SimulationConfig:
    return SimulationConfig(
        npu=NPUConfig(),
        mode=PreemptionMode.DYNAMIC,
        mechanism="CHECKPOINT",
    )


def _trace(num_tasks: int, seed: int, num_devices: int):
    return synthetic_trace_runtimes(
        num_tasks,
        seed=seed,
        mean_interarrival_cycles=(
            DEFAULT_MEAN_INTERARRIVAL_CYCLES / num_devices
        ),
    )


def _run(num_devices, routing, seed=17, num_tasks=96, **cfg_kwargs):
    runtimes = _trace(num_tasks, seed, num_devices)
    config = ClusterConfig(
        policy_name="PREMA", routing=routing, seed=seed, **cfg_kwargs
    )
    scheduler = ClusterScheduler(num_devices, _config(), config=config)
    return scheduler.run(runtimes)


# ----------------------------------------------------------------------
# 1. Topology units
# ----------------------------------------------------------------------
class TestTopology:
    def test_uniform_is_rack_major(self):
        topo = RackTopology.uniform(3, 2)
        assert topo.rack_of == (0, 0, 1, 1, 2, 2)
        assert topo.num_devices == 6
        assert topo.num_racks == 3
        assert topo.devices_in(1) == (2, 3)
        assert topo.rack(4) == 2
        assert topo.same_rack(0, 1)
        assert not topo.same_rack(1, 2)

    def test_from_sizes_uneven(self):
        topo = RackTopology.from_sizes([1, 3])
        assert topo.rack_of == (0, 1, 1, 1)
        assert topo.devices_in(0) == (0,)
        assert topo.devices_in(1) == (1, 2, 3)

    def test_rejects_empty_and_gapped_racks(self):
        with pytest.raises(ValueError):
            RackTopology(rack_of=())
        with pytest.raises(ValueError, match="contiguous"):
            RackTopology(rack_of=(0, 2))  # rack 1 empty
        with pytest.raises(ValueError, match="negative"):
            RackTopology(rack_of=(0, -1))
        with pytest.raises(ValueError):
            RackTopology.uniform(0, 4)
        with pytest.raises(ValueError):
            RackTopology.from_sizes([2, 0])

    def test_scheduler_rejects_mismatched_topology(self):
        with pytest.raises(ValueError, match="covers"):
            ClusterScheduler(
                8,
                _config(),
                config=ClusterConfig(
                    routing=RoutingPolicy.ONLINE_PREDICTED,
                    racks=RackTopology.uniform(2, 2),
                ),
            )


# ----------------------------------------------------------------------
# 2. Flat-fleet equivalence + verify mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("routing", list(RoutingPolicy))
def test_single_rack_replays_flat_cluster(routing):
    """1 rack x N over a uniform fabric == racks=None, bit for bit."""
    flat = _run(8, routing, racks=None)
    racked = _run(8, routing, racks=RackTopology.uniform(1, 8))
    assert racked.assignments == flat.assignments
    assert racked.events_processed == flat.events_processed
    assert helpers_golden._encode_cluster_v2(
        racked
    ) == helpers_golden._encode_cluster_v2(flat)
    assert racked.rack_of == (0,) * 8
    assert flat.rack_of is None


@pytest.mark.parametrize("routing", ONLINE)
def test_multi_rack_verify_mode(routing):
    """verify_indexes cross-checks the rack router's incremental sums
    and the in-rack argmin against reference scans on every event."""
    result = _run(
        16,
        routing,
        num_tasks=128,
        racks=RackTopology.uniform(4, 4),
        verify_indexes=True,
    )
    assert len(result.tasks) == 128
    assert result.rack_of == RackTopology.uniform(4, 4).rack_of


def test_multi_rack_uneven_verify_mode():
    result = _run(
        7,
        RoutingPolicy.WORK_STEALING,
        num_tasks=84,
        racks=RackTopology.from_sizes([1, 2, 4]),
        verify_indexes=True,
    )
    assert len(result.tasks) == 84


def test_router_incremental_sums_match_recompute():
    topo = RackTopology.uniform(2, 2)
    bounds = [0.0, 0.0, 0.0, 0.0]
    router = RackRouter(topo, bounds)
    moves = [
        (0, 5.0), (2, 3.0), (1, 7.0), (0, 2.0), (3, math.inf),
        (2, 0.0), (3, 4.0), (1, math.inf), (0, math.inf), (1, 1.0),
    ]
    for device, new in moves:
        old = bounds[device]
        bounds[device] = new
        router.update(device, old, new)
        router.verify_sums(bounds)
    # rack 0 holds {inf, 1.0} -> key 1.0; rack 1 holds {0.0, 4.0} -> 4.0.
    assert router.pick_rack() == 0
    assert router.rack_key(0) == pytest.approx(1.0)
    assert router.rack_key(1) == pytest.approx(4.0)


def test_router_all_racks_dark_returns_none():
    topo = RackTopology.uniform(2, 1)
    bounds = [0.0, 0.0]
    router = RackRouter(topo, bounds)
    for device in (0, 1):
        old = bounds[device]
        bounds[device] = math.inf
        router.update(device, old, math.inf)
    assert router.pick_rack() is None


# ----------------------------------------------------------------------
# 3. Locality
# ----------------------------------------------------------------------
def _make_device(device_id: int) -> DeviceSim:
    return DeviceSim(_config(), make_policy("PREMA"), device_id=device_id)


def _load_device(device: DeviceSim, num_tasks: int, cycles: float) -> None:
    """Inject ``num_tasks`` same-size tasks at t=0 and process their
    arrivals: the first runs, the rest sit QUEUED (stealable)."""
    base = device.device_id * 100
    for offset in range(num_tasks):
        spec = TaskSpec(
            task_id=base + offset,
            benchmark=f"syn{base + offset}",
            batch=1,
            priority=Priority.MEDIUM,
            arrival_cycles=0.0,
        )
        device.inject(synthetic_runtime(spec, cycles), arrival=0.0)
    for _ in range(num_tasks):
        device.step()
    assert len(device.stealable_tasks()) == num_tasks - 1


def _steal_fixture(threshold):
    """2 racks x 2: device 0 idle, device 1 (local) lightly backlogged,
    device 2 (remote) heavily backlogged, device 3 busy."""
    scheduler = ClusterScheduler(
        4,
        _config(),
        config=ClusterConfig(
            routing=RoutingPolicy.WORK_STEALING,
            racks=RackTopology.uniform(2, 2),
            cross_rack_threshold_cycles=threshold,
        ),
    )
    devices = [_make_device(i) for i in range(4)]
    _load_device(devices[1], 2, 1.0e5)
    _load_device(devices[2], 6, 1.0e5)
    _load_device(devices[3], 2, 1.0e5)
    return scheduler, devices


def _steal(scheduler, devices):
    """The moves one steal pass at t=0 makes over hand-loaded devices,
    through rack indexes built over them (verified against the
    fleet-wide reference scan) in a run of ``scheduler``."""
    spec = TaskSpec(
        task_id=999,
        benchmark="syn999",
        batch=1,
        priority=Priority.MEDIUM,
        arrival_cycles=0.0,
    )
    run = _ClusterRun(scheduler, [synthetic_runtime(spec, 1.0)])
    run.devices = devices
    run.indexes = _RackIndexes(devices, scheduler.racks, verify=True)
    run.steal(0.0)
    return run.migrations


def test_steal_prefers_rack_local_victim():
    scheduler, devices = _steal_fixture(threshold=0.0)
    moves = _steal(scheduler, devices)
    thief_moves = [m for m in moves if m.to_device == 0]
    assert len(thief_moves) == 1
    # Device 2's backlog is far larger, but device 1 shares the rack.
    assert thief_moves[0].from_device == 1


def test_cross_rack_steal_gated_by_threshold():
    # Drain the local victim so only the remote one remains.
    scheduler, devices = _steal_fixture(threshold=math.inf)
    for task in list(devices[1].stealable_tasks()):
        devices[1].remove_task(task.task_id, 0.0)
    moves = _steal(scheduler, devices)
    assert [m for m in moves if m.to_device == 0] == []

    scheduler, devices = _steal_fixture(threshold=0.0)
    for task in list(devices[1].stealable_tasks()):
        devices[1].remove_task(task.task_id, 0.0)
    moves = _steal(scheduler, devices)
    thief_moves = [m for m in moves if m.to_device == 0]
    assert len(thief_moves) == 1
    assert thief_moves[0].from_device == 2


def test_cross_rack_transfer_sees_cost_cliff():
    config = InterconnectConfig.pcie_gen3(1.0e9).oversubscribed(8.0)
    local = config.transfer_cycles(1.0e6)
    cross = config.cross_rack_transfer_cycles(1.0e6)
    assert cross > 4.0 * local  # 8:1 oversubscription dominates
    fabric = Interconnect(config, 4, rack_of=(0, 0, 1, 1))
    assert not fabric.is_cross_rack(0, 1)
    assert fabric.is_cross_rack(0, 2)
    intra = fabric.transfer(0, 1, 1.0e6, 0.0)
    inter = fabric.transfer(2, 3, 1.0e6, 0.0)  # other rack: uncontended
    crossed = fabric.transfer(0, 2, 1.0e6, 1.0e12)
    intra_cost = intra.end_cycles - intra.start_cycles
    assert intra_cost == pytest.approx(inter.end_cycles - inter.start_cycles)
    assert crossed.end_cycles - crossed.start_cycles > 4.0 * intra_cost
    assert crossed.cross_rack and not intra.cross_rack


def test_default_threshold_derives_from_fabric():
    fabric_config = InterconnectConfig.pcie_gen3(1.0e9).oversubscribed(4.0)
    scheduler = ClusterScheduler(
        4,
        _config(),
        config=ClusterConfig(
            routing=RoutingPolicy.WORK_STEALING,
            racks=RackTopology.uniform(2, 2),
            interconnect=fabric_config,
        ),
    )
    assert scheduler.cross_rack_threshold == pytest.approx(
        fabric_config.cross_rack_transfer_cycles(CONTEXT_ROW_BYTES)
    )


# ----------------------------------------------------------------------
# 4. Hierarchical conservation
# ----------------------------------------------------------------------
def test_cross_rack_transfer_occupies_uplink_and_local_link():
    config = InterconnectConfig.pcie_gen3(1.0e9).oversubscribed(4.0)
    fabric = Interconnect(config, 4, rack_of=(0, 0, 1, 1))
    record = fabric.transfer(0, 2, 1.0e6, 0.0)
    # A second transfer out of rack 0 queues behind the busy uplink.
    follow = fabric.transfer(1, 3, 1.0e6, 1.0)
    assert follow.start_cycles == pytest.approx(record.end_cycles)
    fabric.verify_conservation()


def test_cancelled_cross_rack_transfer_releases_all_path_links():
    config = InterconnectConfig.pcie_gen3(1.0e9).oversubscribed(4.0)
    fabric = Interconnect(config, 4, rack_of=(0, 0, 1, 1))
    record = fabric.transfer(0, 2, 1.0e6, 0.0)
    cut = record.start_cycles + 0.25 * (
        record.end_cycles - record.start_cycles
    )
    freed = fabric.cancel_transfers_to(2, cut)
    assert freed == pytest.approx(record.end_cycles - cut)
    truncated = fabric.transfers[0]
    assert truncated.cancelled
    assert truncated.end_cycles == pytest.approx(cut)
    fabric.verify_conservation()
    # Both the rack-local leg and the uplink are free again at the cut.
    later = fabric.transfer(1, 3, 1.0e6, cut)
    assert later.start_cycles == pytest.approx(cut)
    fabric.verify_conservation()


def test_hierarchical_conservation_end_to_end():
    """A churning 2-rack PREEMPTIVE_MIGRATION run keeps every fabric
    record consistent on every path link (the PR-7 property, extended)."""
    topo = RackTopology.uniform(2, 4)
    churn = ChurnSchedule.generate_rack_correlated(
        topo.rack_of,
        horizon_cycles=3.0e7,
        seed=5,
        revocation_rate=1.0e-7,
        drain_rate=5.0e-8,
        mean_outage_cycles=4.0e6,
        mean_warning_cycles=1.0e6,
    )
    runtimes = _trace(96, 29, 8)
    config = ClusterConfig(
        policy_name="PREMA",
        routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
        seed=29,
        racks=topo,
        churn=churn,
        interconnect=InterconnectConfig.pcie_gen3(1.0e9).oversubscribed(4.0),
        verify_indexes=True,
    )
    result = ClusterScheduler(8, _config(), config=config).run(runtimes)
    offered = {t.task_id for t in result.offered_tasks}
    assert len(offered) == 96


# ----------------------------------------------------------------------
# 5. Rack-correlated churn
# ----------------------------------------------------------------------
class TestRackCorrelatedChurn:
    def test_rack_events_cover_every_member_identically(self):
        topo = RackTopology.uniform(3, 4)
        schedule = ChurnSchedule.generate_rack_correlated(
            topo.rack_of,
            horizon_cycles=1.0e8,
            seed=3,
            fault_rate=2.0e-8,
            revocation_rate=2.0e-8,
            mean_outage_cycles=1.0e6,
            mean_warning_cycles=1.0e6,
        )
        assert len(schedule) > 0
        by_window = {}
        for event in schedule:
            key = (event.warn_cycles, event.down_cycles,
                   event.restore_cycles, event.kind)
            by_window.setdefault(key, []).append(event.device)
        for key, members in by_window.items():
            racks = {topo.rack(d) for d in members}
            assert len(racks) == 1, key
            assert sorted(members) == list(topo.devices_in(racks.pop()))

    def test_one_device_per_rack_degenerates_to_flat_generate(self):
        kwargs = dict(
            horizon_cycles=1.0e8,
            seed=11,
            fault_rate=1.5e-8,
            revocation_rate=1.5e-8,
            drain_rate=1.0e-8,
            mean_outage_cycles=2.0e6,
            mean_warning_cycles=5.0e5,
            never_restore_probability=0.1,
        )
        flat = ChurnSchedule.generate(6, **kwargs)
        racked = ChurnSchedule.generate_rack_correlated(
            tuple(range(6)), **kwargs
        )
        assert racked.events == flat.events

    def test_keeps_one_rack_alive(self):
        topo = RackTopology.uniform(2, 2)
        schedule = ChurnSchedule.generate_rack_correlated(
            topo.rack_of,
            horizon_cycles=1.0e9,
            seed=7,
            revocation_rate=1.0e-6,
            mean_outage_cycles=1.0e8,
            never_restore_probability=0.5,
        )
        # max_concurrent_down_racks defaults to num_racks - 1 = 1: the
        # two racks' windows never overlap.
        windows = {}
        for event in schedule:
            windows.setdefault(
                topo.rack(event.device),
                (event.warn_cycles, event.restore_cycles),
            )
        spans = sorted(windows.values())
        for (w1, r1), (w2, r2) in zip(spans, spans[1:]):
            assert r1 <= w2 or r2 <= w1

    def test_no_silent_loss_under_rack_churn(self):
        topo = RackTopology.uniform(2, 4)
        churn = ChurnSchedule.generate_rack_correlated(
            topo.rack_of,
            horizon_cycles=4.0e7,
            seed=13,
            fault_rate=5.0e-8,
            revocation_rate=5.0e-8,
            mean_outage_cycles=5.0e6,
            mean_warning_cycles=1.0e6,
            never_restore_probability=0.25,
        )
        runtimes = _trace(120, 41, 8)
        offered_ids = {t.task_id for t in runtimes}
        config = ClusterConfig(
            policy_name="PREMA",
            routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
            seed=41,
            racks=topo,
            churn=churn,
            verify_indexes=True,
        )
        result = ClusterScheduler(8, _config(), config=config).run(runtimes)
        completed = {t.task_id for t in result.tasks}
        rejected = {t.task_id for t in result.rejected_tasks}
        lost = {t.task_id for t in result.lost_tasks}
        assert completed | rejected | lost == offered_ids
        assert completed.isdisjoint(rejected)
        assert completed.isdisjoint(lost)
        assert rejected.isdisjoint(lost)


# ----------------------------------------------------------------------
# Rack metrics
# ----------------------------------------------------------------------
def test_rack_metrics_from_churned_run():
    topo = RackTopology.uniform(2, 4)
    churn = ChurnSchedule.generate_rack_correlated(
        topo.rack_of,
        horizon_cycles=3.0e7,
        seed=19,
        drain_rate=1.0e-7,
        mean_outage_cycles=5.0e6,
        mean_warning_cycles=2.0e6,
    )
    runtimes = _trace(96, 23, 8)
    config = ClusterConfig(
        policy_name="PREMA",
        routing=RoutingPolicy.PREEMPTIVE_MIGRATION,
        seed=23,
        racks=topo,
        churn=churn,
        interconnect=InterconnectConfig.pcie_gen3(1.0e9).oversubscribed(4.0),
    )
    result = ClusterScheduler(8, _config(), config=config).run(runtimes)
    metrics = compute_cluster_metrics(result)
    cross = [t for t in result.transfers if t.cross_rack]
    assert metrics.cross_rack_migration_bytes == pytest.approx(
        sum(t.num_bytes for t in cross)
    )
    if cross:
        assert metrics.mean_uplink_utilization > 0.0
    assert set(metrics.per_rack_attainment) <= {0, 1}
    assert metrics.per_rack_attainment  # someone completed somewhere
    for value in metrics.per_rack_attainment.values():
        assert 0.0 <= value <= 1.0


# ----------------------------------------------------------------------
# Per-event cost at rack scale
# ----------------------------------------------------------------------
#: The ISSUE-8 acceptance gate: quadrupling the fleet (and the rack
#: count) must less than double the measured per-event cost.  The
#: pre-ordered-idle-structure control plane failed this at >1k devices.
MAX_RACK_SCALE_GROWTH = 2.0

TASKS_PER_DEVICE = 8


def _us_per_event(num_devices: int, racks: RackTopology, seed: int = 31):
    import time

    runtimes = _trace(num_devices * TASKS_PER_DEVICE, seed, num_devices)
    config = ClusterConfig(
        policy_name="PREMA",
        routing=RoutingPolicy.WORK_STEALING,
        seed=seed,
        racks=racks,
    )
    scheduler = ClusterScheduler(num_devices, _config(), config=config)
    start = time.perf_counter()
    result = scheduler.run(runtimes)
    elapsed = time.perf_counter() - start
    assert len(result.tasks) == num_devices * TASKS_PER_DEVICE
    return 1e6 * elapsed / result.events_processed


def test_per_event_cost_flat_from_256_to_1024_devices():
    """Two-tier routing keeps per-event cost flat into the 1024-device
    tier (32 racks): the O(log r) frontend plus the ordered idle
    structure, not a fleet scan, must dominate the control plane.

    Each shape's cost is its minimum of 3 runs on the same trace, the
    two shapes alternating, so a burst of host load slows both alike
    instead of passing for growth."""
    shapes = {256: RackTopology.uniform(8, 32), 1024: RackTopology.uniform(32, 32)}
    timings = {num_devices: [] for num_devices in shapes}
    for _ in range(3):
        for num_devices, racks in shapes.items():
            timings[num_devices].append(_us_per_event(num_devices, racks))
    small, large = min(timings[256]), min(timings[1024])
    assert large <= small * MAX_RACK_SCALE_GROWTH, (
        f"per-event cost grew {large / small:.1f}x from 256 to 1024 "
        f"devices ({small:.1f} -> {large:.1f} us/event): the rack-scale "
        "control plane is scaling with the fleet size again"
    )


def test_flat_run_yields_zero_rack_metrics():
    result = _run(4, RoutingPolicy.ONLINE_PREDICTED, num_tasks=32)
    metrics = compute_cluster_metrics(result)
    assert metrics.cross_rack_migration_bytes == 0.0
    assert metrics.mean_uplink_utilization == 0.0
    assert metrics.per_rack_attainment == {}


# ----------------------------------------------------------------------
# 6. Per-rack steal-candidate sets
# ----------------------------------------------------------------------
STEAL_TOPOLOGIES = {
    "uniform_4x4": RackTopology.uniform(4, 4),
    "sizes_1_2_4": RackTopology.from_sizes([1, 2, 4]),
    # Raw maps may interleave racks: thieves must still be walked in
    # ascending device order, not rack by rack.
    "interleaved_2x8": RackTopology(rack_of=tuple(d % 2 for d in range(16))),
}


def _verify_steal_run(topology: RackTopology, threshold):
    return _run(
        topology.num_devices,
        RoutingPolicy.WORK_STEALING,
        num_tasks=12 * topology.num_devices,
        racks=topology,
        cross_rack_threshold_cycles=threshold,
        verify_indexes=True,
    )


@pytest.mark.parametrize("threshold", [math.inf, None], ids=["inf", "default"])
@pytest.mark.parametrize("name", sorted(STEAL_TOPOLOGIES))
def test_rack_steal_sets_match_fleet_scan_in_verify_mode(
    monkeypatch, name, threshold
):
    """verify_indexes checks every per-rack set against the fleet-wide
    set and every thief's victim against the fleet-wide scan."""
    fleet_victim = _ClusterRun.fleet_victim
    checks = []

    def counted(self, thief_index, now):
        checks.append(thief_index)
        return fleet_victim(self, thief_index, now)

    monkeypatch.setattr(_ClusterRun, "fleet_victim", counted)
    topology = STEAL_TOPOLOGIES[name]
    result = _verify_steal_run(topology, threshold)
    assert len(result.tasks) == 12 * topology.num_devices
    assert result.migrations, "the trace must exercise the steal path"
    assert len(checks) >= len(result.migrations)


def test_only_flat_fleets_feed_the_flat_backlog_heap(monkeypatch):
    """Racked routing reads the rack router's per-rack heaps, so a racked
    run's bound moves go to the router and never reach the flat heap; a
    flat run's do."""
    moved = {"flat": 0, "rack": 0}
    for owner, name, kind in (
        (_ClusterIndexes, "_bound_moved", "flat"),
        (RackRouter, "update", "rack"),
    ):
        def counted(self, *args, _original=getattr(owner, name), _kind=kind):
            moved[_kind] += 1
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counted)
    _run(8, RoutingPolicy.WORK_STEALING, racks=RackTopology.uniform(2, 4))
    assert moved["flat"] == 0 and moved["rack"] > 0
    _run(8, RoutingPolicy.WORK_STEALING)
    assert moved["flat"] > 0


def test_verify_mode_catches_a_stale_rack_steal_set(monkeypatch):
    refresh = _RackIndexes.refresh

    def forgetful(self, device):
        refresh(self, device)
        self.steal_candidates_of[device.device_id].discard(device.device_id)

    monkeypatch.setattr(_RackIndexes, "refresh", forgetful)
    with pytest.raises(AssertionError, match="steal candidates"):
        _verify_steal_run(STEAL_TOPOLOGIES["uniform_4x4"], math.inf)


@pytest.mark.parametrize("threshold", [math.inf, None], ids=["inf", "default"])
def test_verify_mode_catches_a_wrong_victim(monkeypatch, threshold):
    from repro.sched.cluster import _OrderedIndexSet

    init = _RackIndexes.__init__

    def blind(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.steal_candidates_of = [
            _OrderedIndexSet() for _ in self.steal_candidates_of
        ]

    monkeypatch.setattr(_RackIndexes, "__init__", blind)
    with pytest.raises(AssertionError, match="fleet-wide reference scan"):
        _verify_steal_run(STEAL_TOPOLOGIES["uniform_4x4"], threshold)


#: Steal probes per event may grow at most this much when the same
#: fleet is split into more, smaller racks.  The rack-blind scan probed
#: every fleet-wide victim for every idle thief, so its probe count grew
#: with the rack count instead.
MAX_PROBE_GROWTH = 2.0


def test_steal_probes_per_event_flat_across_rack_shapes(monkeypatch):
    """One bursty 1024-device trace under rack-local stealing, three
    rack shapes: ``stealable_tasks`` and ``is_idle`` calls per event must
    stay within 2x of the 4x256 shape.  Counts, not timings, so the
    assertion is deterministic."""
    counts = {"stealable_tasks": 0, "is_idle": 0}
    for method in counts:
        original = getattr(DeviceSim, method)

        def counted(self, *args, _original=original, _method=method):
            counts[_method] += 1
            return _original(self, *args)

        monkeypatch.setattr(DeviceSim, method, counted)

    per_event = {}
    for num_racks, per_rack in ((4, 256), (16, 64), (32, 32)):
        runtimes = synthetic_trace_runtimes(
            1024,
            seed=5,
            mean_interarrival_cycles=DEFAULT_MEAN_INTERARRIVAL_CYCLES / 1024,
            bursty=True,
        )
        config = ClusterConfig(
            policy_name="PREMA",
            routing=RoutingPolicy.WORK_STEALING,
            seed=5,
            racks=RackTopology.uniform(num_racks, per_rack),
            cross_rack_threshold_cycles=math.inf,
        )
        for method in counts:
            counts[method] = 0
        result = ClusterScheduler(1024, _config(), config=config).run(runtimes)
        assert result.migrations
        per_event[f"{num_racks}x{per_rack}"] = {
            method: count / result.events_processed
            for method, count in counts.items()
        }
    base = per_event["4x256"]
    for probes in per_event.values():
        for method, value in probes.items():
            assert value <= MAX_PROBE_GROWTH * base[method], (
                f"{method} calls per event: {per_event}"
            )

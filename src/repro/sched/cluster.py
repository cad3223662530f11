"""Multi-NPU node-level scheduling (the paper's Sec II-C future work).

The paper scopes itself to scheduling *after* Kubernetes routes requests
to one NPU and explicitly leaves node-level policy over multiple
preemptible NPUs as future work.  This module implements that layer as a
single **event-driven cluster simulation**: every device is a stepwise
:class:`~repro.sched.simulator.DeviceSim`, and one global loop interleaves
device events with cluster-level request arrivals in timestamp order.
Routing therefore happens *online* -- at the moment a request arrives the
router can read each device's live scheduler-visible state (context
tables, tokens, accounted progress of the running task) instead of only
the static arrival-order estimates.

Routing strategies (:class:`RoutingPolicy`):

``ROUND_ROBIN``
    Kubernetes-default rotation, blind to task sizes.
``RANDOM``
    Seeded uniform choice (the load-balancer strawman).
``LEAST_LOADED``
    Predictive *static* routing: one up-front pass in arrival order
    assigns each request to the device whose estimated backlog lets it
    start earliest, using only the Algorithm-1 estimates.
``ONLINE_PREDICTED``
    Predictive *online* dispatch: the decision is deferred to the arrival
    event and uses each device's live predicted backlog -- estimated
    remaining cycles of its running + queued tasks, with the running
    task's progress refreshed to 'now'.  Tasks that finished earlier than
    predicted free their device immediately in the router's eyes, which
    static routing cannot see.
``WORK_STEALING``
    ``ONLINE_PREDICTED`` plus migration: whenever a device goes idle
    while another device still has *queued* (never-dispatched) tasks, the
    idle device steals the longest-estimated queued task from the most
    backlogged device.  Never-dispatched tasks carry no checkpoint state,
    so a migration moves only the context row (tokens travel with it).
``PREEMPTIVE_MIGRATION``
    ``WORK_STEALING`` plus *checkpoint migration*: when no queued task is
    stealable, an idle device pulls a **preempted** task -- one whose
    CONV/FC activations or RNN cell state already sit checkpointed in the
    source device's DRAM (``repro.npu.preemption``) -- by shipping that
    checkpoint over a modeled interconnect
    (:mod:`repro.sched.interconnect`): the transfer is charged real
    cycles, contends FIFO on its link, and the task only re-enters a
    ready queue when the bytes land.  Token accounting becomes
    cluster-global under this routing: a
    :class:`~repro.core.tokens.ClusterTokenLedger` keeps every device's
    Algorithm-2 candidate threshold consistent with the cluster-wide
    token maximum, so slowdown-normalized priority no longer depends on
    placement luck.

All strategies run through the same event loop; for the static strategies
each device's event sequence is identical to simulating its partition in
isolation, so pre-existing results remain bit-for-bit reproducible.  The
loop serves requests: each router dispatch is a gang of stage slices
(:mod:`repro.sched.job`), a plain task a one-stage gang, so router
batching and pipeline-sharded gangs ride the same loop.
At every fleet size the loop's routing searches and steal/migrate walks
read O(log d) indexes over the fleet (:class:`_ClusterIndexes`), which
decide exactly like a scan of every device; ``verify_indexes=True``
checks that in-run.

An optional SLA-aware frontend (:mod:`repro.serving`) can sit in front of
the online routings: arrivals then pass through a PCS-style admission
controller (accept / bounded defer / reject against per-QoS-class SLOs,
with estimates corrected online from observed completions) before they
reach a device.  Without a controller the admit-everything behavior is
preserved bit-for-bit.  See ``docs/serving.md``.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import enum
import heapq
import math
import random
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.context import TaskState
from repro.core.tokens import ClusterTokenLedger
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionRecord,
)
from repro.sched.faults import (
    ChurnEvent,
    ChurnSchedule,
    DeviceAvailability,
    FleetAvailability,
)
from repro.sched.interconnect import (
    CONTEXT_ROW_BYTES,
    Interconnect,
    InterconnectConfig,
    TransferRecord,
)
from repro.sched.job import (
    BatchConfig,
    StagePlan,
    batch_key,
    merge_runtimes,
    partition_runtime,
    settle_member,
    stage_runtime,
)
from repro.obs.trace import NULL_TRACER
from repro.sched.policies import make_policy
from repro.sched.rack import RackRouter, RackTopology
from repro.sched.simulator import (
    DeviceSim,
    EventQueue,
    PreemptionMode,
    SimulationConfig,
    SimulationResult,
    _EventKind,
)
from repro.sched.task import TaskRuntime
from repro.sched.timeline import ClusterTimeline


class RoutingPolicy(enum.Enum):
    ROUND_ROBIN = "round-robin"
    LEAST_LOADED = "least-loaded"
    RANDOM = "random"
    ONLINE_PREDICTED = "online-predicted"
    WORK_STEALING = "work-stealing"
    PREEMPTIVE_MIGRATION = "preemptive-migration"


#: Strategies resolved by one up-front routing pass (arrival order).
STATIC_ROUTINGS = frozenset({
    RoutingPolicy.ROUND_ROBIN,
    RoutingPolicy.LEAST_LOADED,
    RoutingPolicy.RANDOM,
})

#: Strategies deciding per-arrival against live device state: every
#: other routing, so the two sets partition the enum by construction.
ONLINE_ROUTINGS = frozenset(RoutingPolicy) - STATIC_ROUTINGS

#: Policies whose ready-queue order serves higher priorities first, so a
#: higher-priority arrival does not wait behind queued lower-priority
#: work.  The admission predictor's ``min_priority`` filter only applies
#: under these (and only with preemption on); under FCFS/RRB an arrival
#: genuinely queues behind everything, and filtering would over-admit.
PRIORITY_DRIVEN_POLICIES = frozenset({"HPF", "TOKEN", "PREMA"})

#: Policies serving the shortest candidate first among equal ranks, so
#: an arrival only waits behind same-priority rows at most its own size
#: (the admission predictor's ``sjf_within_cycles`` refinement).
SHORTEST_FIRST_POLICIES = frozenset({"SJF", "TOKEN", "PREMA"})


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Everything a :class:`ClusterScheduler` needs beyond the fleet shape.

    The one construction surface: ``ClusterScheduler(n, sim_config,
    config=ClusterConfig(...))`` (no config means all defaults).

    ``interconnect`` None means a PCIe-gen3 bus at the NPU clock;
    ``global_tokens`` None means "on exactly for PREEMPTIVE_MIGRATION";
    ``verify_indexes`` cross-checks every read of the control-plane
    indexes against the reference scans and raises on a divergence.
    """

    policy_name: str = "PREMA"
    routing: RoutingPolicy = RoutingPolicy.LEAST_LOADED
    seed: int = 0
    interconnect: Optional[InterconnectConfig] = None
    global_tokens: Optional[bool] = None
    admission: Optional[AdmissionController] = None
    verify_indexes: bool = False
    #: Router-level batching / pipeline sharding (repro.sched.job).  None
    #: keeps the task-per-dispatch behavior bit-for-bit.
    batching: Optional[BatchConfig] = None
    #: Device churn (repro.sched.faults): fail-stop faults, spot
    #: revocations with advance warning, maintenance drains.  None keeps
    #: the always-healthy fleet bit-for-bit.
    churn: Optional[ChurnSchedule] = None
    #: With churn: drain a warned device's durable checkpoints to healthy
    #: peers before the deadline (Parcae-style liveput protection) and
    #: checkpoint-then-migrate its running task when the window affords
    #: it.  False is the reactive-restart baseline (losses recovered only
    #: after the fact).  Ignored without ``churn``.
    proactive_migration: bool = True
    #: Rack hierarchy (repro.sched.rack).  None keeps the flat fleet
    #: bit-for-bit.  With a topology: arrivals route in two tiers (least
    #: aggregate-backlog rack, then least-backlog device within it), the
    #: fabric grows an oversubscribed uplink tier (see
    #: ``InterconnectConfig.uplink_oversubscription``), and steal /
    #: migrate / evacuation source selection becomes locality-aware.  A
    #: single-rack topology replays the flat cluster decision-for-decision.
    racks: Optional[RackTopology] = None
    #: Starvation-gap threshold (cycles) a cross-rack steal or migration
    #: must clear before leaving the rack: the gain of moving must beat
    #: the uplink's cost.  None derives it from the fabric -- the
    #: uncontended cross-rack shipment cost of one context row.  Ignored
    #: without ``racks``.
    cross_rack_threshold_cycles: Optional[float] = None
    #: Observability (repro.obs, docs/observability.md).  All three are
    #: observational only -- scheduling decisions are identical with or
    #: without them, and ``None`` (the default) keeps every hot path
    #: allocation-free (the no-op tracer singleton is threaded through).
    #: ``tracer``: a :class:`repro.obs.trace.Tracer` collecting typed
    #: span/instant events for Chrome-trace/Perfetto export.
    tracer: Optional[object] = None
    #: ``metrics_sampler``: a :class:`repro.obs.metrics.MetricsSampler`
    #: sampling utilization / queue depth / backlog / admission-rate /
    #: SLA gauges on its cycle interval into bounded ring buffers.
    metrics_sampler: Optional[object] = None
    #: ``profiler``: a :class:`repro.obs.profile.HotPathProfiler`
    #: attributing control-plane wall time per event kind (route, steal,
    #: migrate, admission, index maintenance, churn handling).
    profiler: Optional[object] = None


@dataclasses.dataclass(frozen=True)
class MigrationRecord:
    """One migration of a task between devices.

    ``kind`` is ``"steal"`` for a row-only move (a never-dispatched
    task, or a KILL victim restarting from scratch) and ``"checkpoint"``
    when the task's saved state moved with it; ``arrival_cycles`` is
    when the task re-entered a ready queue at the destination.  Under
    ``WORK_STEALING`` steals are instantaneous (``arrival_cycles ==
    time_cycles``); under ``PREEMPTIVE_MIGRATION`` *every* move -- steals
    included -- crosses the interconnect and carries real in-flight
    latency.
    """

    task_id: int
    from_device: int
    to_device: int
    time_cycles: float
    kind: str = "steal"
    bytes_moved: float = 0.0
    arrival_cycles: float = 0.0

    @property
    def latency_cycles(self) -> float:
        """Cycles the task spent in flight (0 for WORK_STEALING steals)."""
        return max(0.0, self.arrival_cycles - self.time_cycles)


@dataclasses.dataclass(frozen=True)
class BatchRecord:
    """One router dispatch of a batching or sharding run (batched or solo).

    ``proxy_task_id`` is the runtime the devices actually executed (a
    merged batch proxy, or the lone member itself); ``member_task_ids``
    are the end-user requests settled from it.  ``devices`` are the
    gang's reserved stage placements at dispatch (stage order) -- slices
    may later move via stealing/migration.
    """

    proxy_task_id: int
    member_task_ids: Tuple[int, ...]
    dispatch_cycles: float
    num_stages: int
    devices: Tuple[int, ...]

    @property
    def batch_size(self) -> int:
        return len(self.member_task_ids)


@dataclasses.dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster run.

    ``tasks`` holds the tasks the cluster *executed*.  Without admission
    control that is every offered task; with an
    :class:`~repro.serving.admission.AdmissionController` attached,
    rejected arrivals never run and appear in ``rejected_tasks`` instead
    (``offered_tasks`` reunites both populations for SLA accounting).
    """

    tasks: Tuple[TaskRuntime, ...]
    device_results: Tuple[Optional[SimulationResult], ...]
    #: Final placement: task id -> the device that executed it.
    assignments: Dict[int, int]
    routing: str = ""
    migrations: Tuple[MigrationRecord, ...] = ()
    timeline: Optional[ClusterTimeline] = None
    #: Interconnect transfers behind the checkpoint migrations.
    transfers: Tuple[TransferRecord, ...] = ()
    #: Every admission decision taken, in decision order (empty without
    #: an admission controller).
    admission_records: Tuple[AdmissionRecord, ...] = ()
    #: Arrivals the admission controller refused; they never executed.
    rejected_tasks: Tuple[TaskRuntime, ...] = ()
    #: Total device events processed across the fleet (introspection /
    #: benchmarking: per-event control-plane cost = wall time / this).
    events_processed: int = 0
    #: One record per router dispatch when the run batches or shards
    #: (solo dispatches included, so mean batch size is directly
    #: computable).  Empty for a plain task stream.
    batches: Tuple[BatchRecord, ...] = ()
    #: Tasks destroyed by device churn with no surviving capacity to
    #: recover them; they never completed and never will.
    lost_tasks: Tuple[TaskRuntime, ...] = ()
    #: Device -> rack map when the run used a rack topology (None for a
    #: flat fleet); the metrics layer derives per-rack attainment and
    #: uplink accounting from it.
    rack_of: Optional[Tuple[int, ...]] = None

    @property
    def num_devices(self) -> int:
        return len(self.device_results)

    @property
    def batch_count(self) -> int:
        """Router dispatches that coalesced more than one request."""
        return sum(1 for batch in self.batches if batch.batch_size > 1)

    @property
    def mean_batch_size(self) -> float:
        """Mean requests per router dispatch (1.0 when batching is off)."""
        if not self.batches:
            return 1.0 if self.tasks else 0.0
        return sum(batch.batch_size for batch in self.batches) / len(
            self.batches
        )

    @property
    def sharded_job_count(self) -> int:
        """Dispatches that ran as multi-slice pipeline gangs."""
        return sum(1 for batch in self.batches if batch.num_stages > 1)

    @property
    def activation_bytes_total(self) -> float:
        """Inter-stage boundary bytes shipped over the fabric."""
        return sum(
            record.num_bytes
            for record in self.transfers
            if record.purpose == "activation"
        )

    @property
    def offered_tasks(self) -> Tuple[TaskRuntime, ...]:
        """Executed + rejected + lost: everything the frontend was asked."""
        return self.tasks + self.rejected_tasks + self.lost_tasks

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered tasks the frontend refused."""
        offered = (
            len(self.tasks) + len(self.rejected_tasks) + len(self.lost_tasks)
        )
        return len(self.rejected_tasks) / offered if offered else 0.0

    @property
    def deferral_count(self) -> int:
        """Total defer decisions (a task may defer more than once)."""
        return sum(
            1
            for record in self.admission_records
            if record.decision is AdmissionDecision.DEFER
        )

    @property
    def migration_count(self) -> int:
        return len(self.migrations)

    @property
    def checkpoint_migration_count(self) -> int:
        return sum(1 for m in self.migrations if m.kind == "checkpoint")

    @property
    def migrated_bytes_total(self) -> float:
        return sum(m.bytes_moved for m in self.migrations)

    @property
    def makespan_cycles(self) -> float:
        """Latest completion across devices (0 when nothing executed --
        possible only when admission rejected every arrival)."""
        spans = [
            result.makespan_cycles
            for result in self.device_results
            if result is not None
        ]
        return max(spans) if spans else 0.0

    def device_utilization(self) -> List[float]:
        """Busy fraction of each device over the cluster makespan."""
        span = self.makespan_cycles
        utilization = []
        for result in self.device_results:
            if result is None or span == 0:
                utilization.append(0.0)
            else:
                utilization.append(result.timeline.busy_cycles() / span)
        return utilization


_Victim = Tuple[int, float, List[TaskRuntime]]


def _pick_victim(
    devices: Sequence[DeviceSim],
    victims: Iterable[int],
    thief_index: int,
    now: float,
) -> Optional[_Victim]:
    """The steal rule over ``victims`` (walked in ascending device order):
    the device holding stealable work with the largest live predicted
    backlog, ties to the lowest index.  Returns (device, backlog, its
    stealable tasks), or None when no victim holds stealable work."""
    best: Optional[_Victim] = None
    for index in victims:
        if index == thief_index:
            continue
        device = devices[index]
        candidates = device.stealable_tasks()
        if not candidates:
            continue
        backlog = device.predicted_backlog(now)
        if best is None or backlog > best[1]:
            best = (index, backlog, candidates)
    return best


class _OrderedIndexSet(list):
    """Device-index set that stays sorted: O(1) membership, amortized
    O(log k) + memmove insertion, and ascending iteration without a
    per-event ``sorted()``.

    The PR-5 candidate sets were plain ``set``s, and every steal/migrate
    consultation paid ``sorted(...)`` to recover the reference scan's
    ascending device order -- O(k log k) per event, which is what bent
    the per-event cost curve past ~1k devices.  This *is* the
    bisect-maintained ascending list instead (mutate it only through
    :meth:`add` / :meth:`discard`), so iteration, ``len`` and truth
    tests run at C speed -- the steal scan tests one set per idle thief
    -- while a side ``set`` keeps membership O(1).
    """

    __slots__ = ("_members",)

    def __init__(self) -> None:
        super().__init__()
        self._members: Set[int] = set()

    def add(self, index: int) -> None:
        if index not in self._members:
            self._members.add(index)
            bisect.insort(self, index)

    def discard(self, index: int) -> None:
        if index in self._members:
            self._members.remove(index)
            del self[bisect.bisect_left(self, index)]

    def ordered(self) -> List[int]:
        """Ascending snapshot, safe to iterate while the set mutates."""
        return self[:]

    def __contains__(self, index: object) -> bool:
        return index in self._members


class _ClusterIndexes:
    """O(log d)-per-event control-plane indexes over a device fleet.

    Two structures replace per-event linear scans of the fleet (the next
    device event needs none: it is the head of the fleet's shared
    :class:`~repro.sched.simulator.EventQueue`).  Each is *re-plumbing
    only*: every consultation returns exactly what the reference scan
    over all devices returns (the golden suites and ``verify`` mode pin
    this), it just stops paying O(d) -- or, for work stealing, O(d^2) --
    to find it.

    - **Backlog-bound heap** -- a lazy-deletion min-heap of ``(backlog
      lower bound, device)`` entries keyed on
      :meth:`DeviceSim.backlog_lower_bound`.  Routing runs a best-first
      search: pop candidates in bound order, compute the *exact*
      ``predicted_backlog(now) + inbound`` for each, and stop as soon as
      the heap top can no longer beat the best exact key -- sound
      because every unexamined device's exact key is at least its bound
      key.  The argmin (ties to the lowest index) is therefore identical
      to the full scan's, float-for-float, while only devices whose
      bound undercuts the winner are ever touched.
    - **Candidate device sets** -- ``idle_candidates`` (devices whose
      time-independent idle clauses hold, a superset of the truly idle),
      ``steal_candidates`` (devices holding queued work), and
      ``source_candidates`` (queued or preempted work).  ``steal`` /
      ``migrate`` iterate these in device order and re-check the exact
      time-dependent predicates per candidate, so the common no-idle
      event costs O(1) instead of an O(d) fleet enumeration.

    Both are updated where they are read.  :meth:`refresh` only marks a
    mutated device; :meth:`settle_bounds` re-keys the marked devices'
    bounds before a routing search, and :meth:`settle_sets` re-files them
    in the candidate sets before a steal or migrate walk.  The two marks
    are apart because most runs read one structure only: a run whose
    admission filters by class never reads the bounds, and one that
    neither steals nor migrates never reads the sets.  Every settle is
    timed under the profiler's ``index`` section.

    With ``verify=True`` every consultation additionally runs the
    reference scan and raises on any divergence.
    """

    #: Trace sink and hot-path profiler (class attrs = no per-instance
    #: cost when unobserved); the run rebinds them right after
    #: construction when observed.
    tracer = NULL_TRACER
    profiler = None

    def __init__(self, devices: Sequence[DeviceSim], verify: bool = False) -> None:
        self._devices = devices
        self.verify = verify
        num = len(devices)
        self._backlog_bound: List[float] = [0.0] * num
        # Pre-seeded with every device at bound 0.0 (an ascending list is
        # already a valid heap); a settle only pushes on bound *moves*.
        self._backlog_heap: List[Tuple[float, int]] = [
            (0.0, index) for index in range(num)
        ]
        self._heap_cap = 4 * num + 64
        self.idle_candidates = _OrderedIndexSet()
        self.steal_candidates = _OrderedIndexSet()
        self.source_candidates = _OrderedIndexSet()
        #: Per device, the steal-candidate set of its rack: the thief's
        #: in-rack victims (the whole fleet's set here; one set per rack
        #: under the rack frontend).
        self.steal_candidates_of: List[_OrderedIndexSet] = [
            self.steal_candidates
        ] * num
        #: Devices mutated since their bound, and since their set
        #: membership, was last recomputed: every device until the first
        #: settles.
        self._stale_bounds: Set[int] = set(range(num))
        self._stale_sets: Set[int] = set(range(num))

    # ------------------------------------------------------------------
    # Backlog index + candidate sets
    # ------------------------------------------------------------------
    def refresh(self, device: DeviceSim) -> None:
        """Mark ``device`` mutated.  Must run after every ``step``,
        ``inject``, ``remove_task`` and availability change, so the next
        settle restores the bound invariant (bound <= exact backlog at any
        later instant) and the candidate supersets."""
        index = device.device_id
        self._stale_bounds.add(index)
        self._stale_sets.add(index)

    def settle_bounds(self) -> None:
        """Re-key the backlog bound of every device marked since the last
        settle (O(live) each, the cost one reference-scan visit pays)."""
        stale = self._stale_bounds
        if not stale:
            return
        profiler = self.profiler
        start_ns = time.perf_counter_ns() if profiler is not None else 0
        devices = self._devices
        bounds = self._backlog_bound
        for index in stale:
            device = devices[index]
            # A non-accepting device (churn: doomed or down) sinks to the
            # bottom of the backlog heap so best-first routing never
            # reaches it while any accepting device exists; restore
            # re-keys it live.
            bound = (
                device.backlog_lower_bound() if device.accepts_work else math.inf
            )
            old = bounds[index]
            if bound != old:
                # An unchanged bound leaves the device's resident heap
                # entry valid (entries are validated by value), so only
                # actual moves pay a push.
                bounds[index] = bound
                self._bound_moved(index, old, bound)
        stale.clear()
        if profiler is not None:
            profiler.add("index", time.perf_counter_ns() - start_ns)

    def settle_sets(self) -> None:
        """Re-file every device marked since the last settle in the
        candidate sets (O(1) each).  Steal and migrate run it before they
        walk the sets and after each move."""
        stale = self._stale_sets
        if not stale:
            return
        profiler = self.profiler
        start_ns = time.perf_counter_ns() if profiler is not None else 0
        self._file(stale)
        stale.clear()
        if profiler is not None:
            profiler.add("index", time.perf_counter_ns() - start_ns)

    def _file(self, stale: Set[int]) -> None:
        """File the devices ``stale`` names in the candidate sets."""
        devices = self._devices
        idle = self.idle_candidates
        steal = self.steal_candidates
        source = self.source_candidates
        for index in stale:
            device = devices[index]
            if device.maybe_idle:
                idle.add(index)
            else:
                idle.discard(index)
            if device.has_queued:
                steal.add(index)
                source.add(index)
            else:
                steal.discard(index)
                if device.has_preempted:
                    source.add(index)
                else:
                    source.discard(index)

    def _bound_moved(self, index: int, old: float, new: float) -> None:
        """Push device ``index``'s moved bound onto the flat backlog heap
        (the rack frontend feeds its rack router instead)."""
        heapq.heappush(self._backlog_heap, (new, index))
        if len(self._backlog_heap) > self._heap_cap:
            self._backlog_heap = [
                (value, idx) for idx, value in enumerate(self._backlog_bound)
            ]
            heapq.heapify(self._backlog_heap)

    def route_min_backlog(self, now: float, inbound) -> Tuple[int, float]:
        """Device with the least ``predicted_backlog(now) + inbound(d)``;
        ties break to the lowest device index.  Returns (device, its
        exact backlog) -- the same pair the reference scan derives.

        Best-first search over the bound heap: examined candidates get
        their exact backlog computed (and are re-pushed unchanged); the
        search stops once the top bound entry cannot beat the best exact
        key, which covers every unexamined device since exact >= bound.
        """
        self.settle_bounds()
        best_key, best_backlog = self._best_first(self._backlog_heap, now, inbound)
        if best_key is None:
            raise RuntimeError("backlog index has no live device entries")
        if self.verify:
            devices = self._devices
            reference = min(
                (d for d in range(len(devices)) if devices[d].accepts_work),
                key=lambda d: (
                    devices[d].predicted_backlog(now) + inbound(d),
                    d,
                ),
            )
            if reference != best_key[1]:
                raise AssertionError(
                    f"backlog index routed to device {best_key[1]}, "
                    f"reference scan to {reference}"
                )
        return best_key[1], best_backlog

    def _best_first(
        self, heap: List[Tuple[float, int]], now: float, inbound
    ) -> Tuple[Optional[Tuple[float, int]], float]:
        """One best-first pass over a (bound, device) lazy heap; returns
        ((backlog, device), backlog) of the argmin, or (None, 0.0) when
        the heap holds no accepting device."""
        bounds = self._backlog_bound
        devices = self._devices
        examined: List[Tuple[float, int]] = []
        best_key: Optional[Tuple[float, int]] = None
        best_backlog = 0.0
        while heap:
            bound, index = heap[0]
            if bounds[index] != bound:
                heapq.heappop(heap)
                continue
            if best_key is not None and (bound, index) >= best_key:
                break
            examined.append(heapq.heappop(heap))
            if not devices[index].accepts_work:
                # Churn: an inf-bound entry surfaced because every
                # accepting device was examined; skip (but keep the
                # entry -- the device re-keys live at restore).
                continue
            backlog = devices[index].predicted_backlog(now) + inbound(index)
            key = (backlog, index)
            if best_key is None or key < best_key:
                best_key, best_backlog = key, backlog
        for entry in examined:
            heapq.heappush(heap, entry)
        return best_key, best_backlog

    def admission_candidates(self) -> Sequence[int]:
        """Devices the class-aware admission fallback scans (the whole
        fleet here; the rack frontend narrows it to the chosen rack)."""
        return range(len(self._devices))

    def verify_candidate_sets(self, now: float) -> None:
        """Reference check: the sets cover every true candidate."""
        for index, device in enumerate(self._devices):
            if device.is_idle(now) and index not in self.idle_candidates:
                raise AssertionError(
                    f"idle device {index} missing from idle_candidates"
                )
            if device.stealable_tasks() and index not in self.steal_candidates:
                raise AssertionError(
                    f"device {index} with stealable work missing from "
                    "steal_candidates"
                )
            if (
                device.stealable_tasks()
                or device.migratable_preempted_tasks(now)
            ) and index not in self.source_candidates:
                raise AssertionError(
                    f"device {index} with migratable work missing from "
                    "source_candidates"
                )


class _RackIndexes(_ClusterIndexes):
    """The two-tier rack frontend over the per-device control plane.

    Adds a :class:`~repro.sched.rack.RackRouter` on top of the flat
    indexes: every device-bound move is folded into the device's rack
    aggregate (O(log r)) instead of the flat backlog heap, which nothing
    reads here, and routing picks the rack with the least aggregate
    corrected backlog before running the per-device best-first search
    *within* that rack only.  The class-aware admission fallback narrows
    its linear scan to the chosen rack the same way ("predict against
    the chosen rack's surviving capacity").

    Unlike the flat indexes, :meth:`refresh` settles a device at once:
    the rack aggregates are running float sums, so the order of their
    updates decides between near-equal racks, and it must follow the
    mutations, not the reads.  Nothing is left for the reads to settle.

    Work stealing reads one steal-candidate set per rack
    (``steal_candidates_of``), kept with the same ``has_queued``
    predicate as the fleet-wide set, so a thief probes only its own
    rack's victims.

    A single-rack topology is decision-identical to the flat indexes:
    the rack pick is trivial and the rack's device heap holds the whole
    fleet (``tests/test_rack.py`` pins this bit-for-bit).
    """

    def __init__(
        self,
        devices: Sequence[DeviceSim],
        topology: RackTopology,
        verify: bool = False,
    ) -> None:
        if topology.num_devices != len(devices):
            raise ValueError(
                f"rack topology covers {topology.num_devices} devices, "
                f"fleet has {len(devices)}"
            )
        super().__init__(devices, verify=verify)
        self._rack_of = topology.rack_of
        self._rack_steal_candidates = [
            _OrderedIndexSet() for _ in range(topology.num_racks)
        ]
        self.steal_candidates_of = [
            self._rack_steal_candidates[rack] for rack in topology.rack_of
        ]
        # The router starts from the all-zero bounds and takes every bound
        # move from here on, the first settle's included.
        self._router = RackRouter(topology, self._backlog_bound)
        self.topology = topology
        self._bound_moved = self._router.update
        self.settle_bounds()
        self.settle_sets()

    def refresh(self, device: DeviceSim) -> None:
        super().refresh(device)
        self.settle_bounds()
        self.settle_sets()

    def _file(self, stale: Set[int]) -> None:
        super()._file(stale)
        for index in stale:
            rack_steal = self._rack_steal_candidates[self._rack_of[index]]
            if self._devices[index].has_queued:
                rack_steal.add(index)
            else:
                rack_steal.discard(index)

    def verify_candidate_sets(self, now: float) -> None:
        """The base check, plus: each per-rack set is exactly the
        fleet-wide ``steal_candidates`` restricted to its rack."""
        super().verify_candidate_sets(now)
        for rack, members in enumerate(self._rack_steal_candidates):
            expected = [d for d in self.steal_candidates if self._rack_of[d] == rack]
            if members != expected:
                raise AssertionError(
                    f"rack {rack} steal candidates {members}, fleet-wide "
                    f"set restricted to the rack {expected}"
                )

    def pick_rack(self) -> int:
        """Least aggregate-backlog rack (the O(log r) frontend tier)."""
        if self.verify:
            self._router.verify_sums(self._backlog_bound)
        rack = self._router.pick_rack()
        if rack is None:
            raise RuntimeError("rack frontend has no accepting rack")
        return rack

    def route_min_backlog(self, now: float, inbound) -> Tuple[int, float]:
        """Two-tier argmin: frontend rack pick, then in-rack best-first.

        Deliberately *not* the flat fleet-wide argmin (a rack-scale
        frontend ranks racks by aggregate, not devices by exact
        backlog); with one rack the two coincide exactly.
        """
        self.settle_bounds()
        rack = self.pick_rack()
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(
                "rack_pick", f"rack_pick r{rack}", now, args={"rack": rack}
            )
        best_key, best_backlog = self._best_first(
            self._router.device_heap(rack), now, inbound
        )
        if best_key is None:
            raise RuntimeError(
                f"rack {rack} frontend key is live but holds no accepting "
                "device"
            )
        if self.verify:
            devices = self._devices
            reference = min(
                (
                    d
                    for d in self._router.topology.devices_in(rack)
                    if devices[d].accepts_work
                ),
                key=lambda d: (
                    devices[d].predicted_backlog(now) + inbound(d),
                    d,
                ),
            )
            if reference != best_key[1]:
                raise AssertionError(
                    f"rack {rack} best-first routed to device "
                    f"{best_key[1]}, in-rack reference scan to {reference}"
                )
        return best_key[1], best_backlog

    def admission_candidates(self) -> Sequence[int]:
        """The chosen rack's devices: admission predicts against the
        rack's surviving capacity, not the whole fleet."""
        return self._router.topology.devices_in(self.pick_rack())


class _ChurnRuntime:
    """Churn mechanics of one cluster run.

    Owns the :class:`~repro.sched.faults.FleetAvailability` machine and
    applies its transitions to the fleet of its :class:`_ClusterRun`,
    which it reads through its one ``run`` reference:

    - **warn** (proactive mode): the device stops accepting new work
      (routing, stealing, admission and idle indexes all exclude it) and
      its evacuable state drains to healthy peers over the interconnect
      -- durable checkpoints and queued rows ship immediately, a running
      task that cannot finish inside the window is checkpoint-then-
      migrated when the trap DMA plus transfer fit before the deadline
      (the Parcae-style liveput protection).  Reactive mode records the
      state change and does nothing else.
    - **down**: in-flight transfers to the device are cancelled on their
      links and its non-durable progress dies (:meth:`DeviceSim.fail`).
      In a plain task stream each orphan restarts on a live device (or
      parks, when no capacity survives); otherwise it loses its gang.
    - **restore**: the device re-enters every routing structure and the
      parked work is re-placed.
    - **check**: a self-scheduled revisit (e.g. at a forced checkpoint's
      durability instant) that re-runs evacuation while the device is
      still doomed.

    Each transition the fleet queues also queues a TRANSITION wake in the
    run's queue, ranked after same-time completions and before every
    other same-time wake; the wake pops the fleet's next transition.
    """

    def __init__(
        self, run: "_ClusterRun", schedule: ChurnSchedule, proactive: bool
    ) -> None:
        self.run = run
        self.fleet = FleetAvailability(len(run.devices), schedule, run.queue)
        #: Transition instants ride on the fleet's tracer.
        self.fleet.tracer = run.tracer
        self.proactive = proactive
        #: Requests with nowhere to go while no device accepts (re-placed
        #: at the next restore; lost if the fleet never recovers).
        self.parked: List[TaskRuntime] = []
        #: The churn event whose warning window a device is inside.
        self._active_event: Dict[int, ChurnEvent] = {}
        #: Tasks already force-checkpointed in the current window, per
        #: device -- a failed shipment must not re-trap the same task.
        self._forced: Dict[int, Set[int]] = {}

    # -- run-facing surface --------------------------------------------
    def peek_time(self) -> Optional[float]:
        return self.fleet.peek_time()

    def any_accepting(self) -> bool:
        return any(device.accepts_work for device in self.run.devices)

    def process_next(self, now: float) -> None:
        """Apply the fleet's next transition, whose TRANSITION wake fired
        at ``now``."""
        run = self.run
        profiler = run.profiler
        start_ns = time.perf_counter_ns() if profiler is not None else 0
        transition = self.fleet.pop()
        if transition.time_cycles != now:
            raise RuntimeError(
                f"availability transition at {transition.time_cycles} "
                f"popped by a TRANSITION wake at {now}"
            )
        index = transition.device
        device = run.devices[index]
        if transition.phase == "warn":
            self.fleet.apply(transition)
            if transition.event is not None:
                self._active_event[index] = transition.event
            if self.proactive:
                device.stop_accepting(now)
                run.indexes.refresh(device)
                self._evacuate(index, now)
        elif transition.phase == "down":
            self.fleet.apply(transition)
            self._active_event.pop(index, None)
            self._forced.pop(index, None)
            if run.fabric is not None:
                run.fabric.cancel_transfers_to(index, now)
            run.inflight[index].clear()
            orphans = device.fail(now)
            run.indexes.refresh(device)
            for runtime in orphans:
                entry = run.slice_map.get(runtime.task_id)
                if entry is None:
                    continue
                if run.plain:
                    # A task restarts from scratch on a live device (or
                    # parks until a restore).
                    run.dispatch(entry[0].members, now)
                else:
                    # A gang has exactly one live slice at a time
                    # (stages are sequential, and an in-flight successor
                    # counts as the live one); losing it loses the gang
                    # -- pipeline restart from a mid-gang failure is out
                    # of scope (documented in docs/failures.md).
                    run.lose_gang(entry[0])
        elif transition.phase == "restore":
            self.fleet.apply(transition)
            self._active_event.pop(index, None)
            self._forced.pop(index, None)
            device.accepts_work = True
            run.indexes.refresh(device)
            parked, self.parked = self.parked, []
            for task in parked:
                run.enqueue(task, now)
        else:  # "check": revisit a still-doomed device's evacuation
            if self.proactive and self.fleet.state(index) in (
                DeviceAvailability.WARNED,
                DeviceAvailability.DRAINING,
            ):
                self._evacuate(index, now)
        if profiler is not None:
            profiler.add("churn", time.perf_counter_ns() - start_ns)

    def after_step(self, device: DeviceSim, now: float) -> None:
        """Opportunistic re-evacuation after a doomed device's own event
        (a completion frees the array; a dispatch may have started work
        that now needs the checkpoint-then-migrate decision)."""
        if not self.proactive:
            return
        index = device.device_id
        if self.fleet.state(index) in (
            DeviceAvailability.WARNED,
            DeviceAvailability.DRAINING,
        ):
            profiler = self.run.profiler
            start_ns = time.perf_counter_ns() if profiler is not None else 0
            self._evacuate(index, now)
            if profiler is not None:
                profiler.add("churn", time.perf_counter_ns() - start_ns)

    # -- mechanics ------------------------------------------------------
    def _pick_target(self, src_index: int, now: float) -> Optional[int]:
        """Least-backlog accepting device other than the source.

        Under a rack topology the evacuation target prefers rack-local
        survivors (the rack-local tier is the cheap path for the
        checkpoints about to ship); cross-rack landing spots are used
        only when the source's whole rack has stopped accepting.
        """
        run = self.run
        candidates = [
            device.device_id
            for device in run.devices
            if device.device_id != src_index and device.accepts_work
        ]
        rack_of = run.scheduler.rack_of
        if rack_of is not None:
            rack = rack_of[src_index]
            candidates = [
                index for index in candidates if rack_of[index] == rack
            ] or candidates
        return run.least_backlog(candidates, now)

    def _evacuate(self, src_index: int, now: float) -> None:
        """Drain a doomed device toward its revocation deadline.

        Ships evacuable state (queued rows, durable checkpoints) in
        value order -- highest priority, then most tokens, then longest
        remaining -- while the contended link still lands each payload
        before the deadline.  The running task is left alone when it
        finishes inside the window; otherwise it is force-checkpointed
        once (per window) when the trap DMA plus shipment fit, and a
        ``check`` transition revisits at durability to ship it.
        """
        run = self.run
        event = self._active_event.get(src_index)
        fabric = run.fabric
        if event is None or fabric is None:
            return
        deadline = event.down_cycles
        src = run.devices[src_index]

        def value(task: TaskRuntime):
            context = task.context
            return (
                float(int(context.priority)),
                context.tokens,
                context.estimated_remaining_cycles,
                -task.task_id,
            )

        progress = True
        while progress:
            progress = False
            candidates = src.stealable_tasks()
            candidates += src.migratable_preempted_tasks(now)
            for task in sorted(candidates, key=value, reverse=True):
                target = self._pick_target(src_index, now)
                if target is None:
                    return  # nowhere to evacuate to
                payload = task.checkpoint_bytes_resident + CONTEXT_ROW_BYTES
                landing = fabric.estimate_arrival(
                    src_index, target, payload, now
                )
                if landing > deadline:
                    continue  # this payload cannot beat the deadline
                run.ship(
                    src_index, target, task.task_id, now,
                    "evacuate", "evacuation",
                )
                progress = True
                break

        running = src.running_task
        if running is None or running.dispatch_time is None:
            return
        est_done = (
            running.dispatch_time
            + running.dispatch_restore
            + (running.profile.total_cycles - running.retained_offset)
        )
        if est_done <= deadline:
            return  # it outruns the revocation; let it finish in place
        forced = self._forced.setdefault(src_index, set())
        if running.task_id in forced:
            return
        preview = src.preview_checkpoint(now)
        if preview is None:
            return
        free_at, checkpoint_bytes = preview
        if free_at >= deadline:
            return  # the trap DMA alone overruns the window
        target = self._pick_target(src_index, now)
        if target is None:
            return
        payload = checkpoint_bytes + CONTEXT_ROW_BYTES
        if fabric.estimate_arrival(
            src_index, target, payload, free_at
        ) > deadline:
            return  # checkpoint would land dead bytes; ride it out
        src.force_checkpoint(now)
        forced.add(running.task_id)
        run.indexes.refresh(src)
        # Revisit at durability: the checkpoint becomes shippable then.
        self.fleet.push_check(free_at, src_index)


class _GangRun:
    """One in-flight router dispatch: a proxy runtime cut into stage slices.

    ``members`` are the request runtimes this dispatch serves (one for a
    solo dispatch, several for a coalesced batch).  ``proxy`` is the
    runtime the devices actually execute -- the lone member itself, or
    the merged batch runtime.
    """

    __slots__ = ("members", "proxy", "plans", "slice_ids", "devices",
                 "runtimes", "lost")

    def __init__(
        self,
        members: List[TaskRuntime],
        proxy: TaskRuntime,
        plans: List[StagePlan],
        slice_ids: List[int],
        devices: List[int],
    ) -> None:
        self.members = members
        self.proxy = proxy
        self.plans = plans
        self.slice_ids = slice_ids
        self.devices = devices
        self.runtimes: List[Optional[TaskRuntime]] = [None] * len(plans)
        #: Set when a device failure destroyed one of this gang's slices
        #: (churn); the gang's members are then accounted lost.
        self.lost = False


class ClusterScheduler:
    """Serve one request stream across N preemptible NPUs.

    One shared event loop drives every device; dispatch decisions fire at
    task-arrival events (and, under work stealing, at device-idle edges
    after any event).  The control plane runs on the O(log d)
    :class:`_ClusterIndexes` (the :class:`_RackIndexes` frontend on a
    racked fleet) at every fleet size; ``verify_indexes=True`` also runs
    the reference scans on every consultation and raises on any
    divergence.
    """

    def __init__(
        self,
        num_devices: int,
        simulation_config: SimulationConfig,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        if config is None:
            config = ClusterConfig()
        if (
            config.admission is not None
            and config.routing not in ONLINE_ROUTINGS
        ):
            raise ValueError(
                "admission control predicts against live device backlogs; "
                f"use an online routing, not {config.routing.value}"
            )
        if (
            config.batching is not None
            and config.routing not in ONLINE_ROUTINGS
        ):
            raise ValueError(
                "router batching/sharding dispatches against live device "
                f"backlogs; use an online routing, not {config.routing.value}"
            )
        self.num_devices = num_devices
        self.simulation_config = simulation_config
        self.config = config
        self.policy_name = config.policy_name
        self.routing = config.routing
        self._seed = config.seed
        #: Fabric checkpoint migrations and inter-stage activations cross.
        #: Defaults to a PCIe-gen3 bus at the NPU's clock; only
        #: PREEMPTIVE_MIGRATION and sharded gangs ever use it.
        self.interconnect = config.interconnect or InterconnectConfig.pcie_gen3(
            simulation_config.npu.frequency_hz
        )
        #: Cluster-global token thresholds (ClusterTokenLedger).  Defaults
        #: to on exactly for PREEMPTIVE_MIGRATION; every pre-existing
        #: routing keeps the per-device paper semantics bit-for-bit.
        global_tokens = config.global_tokens
        if global_tokens is None:
            global_tokens = (
                config.routing is RoutingPolicy.PREEMPTIVE_MIGRATION
            )
        self.global_tokens = global_tokens
        #: Optional SLA-aware frontend (repro.serving).  None preserves
        #: the admit-everything behavior bit-for-bit.
        self.admission = config.admission
        #: Cross-check every index consultation against the reference
        #: scan (property-test harness).
        self.verify_indexes = config.verify_indexes
        #: Router-level batching / pipeline sharding (None = off).
        self.batching = config.batching
        #: Device churn schedule (None = always-healthy fleet, bit-for-bit
        #: the pre-churn behavior) and the recovery mode under it.  An
        #: *empty* schedule decides exactly like None; normalizing it to
        #: None here only skips the churn bookkeeping (the fabric, the
        #: availability machine) a run without events never needs.
        self.churn = config.churn if config.churn else None
        self.proactive_migration = config.proactive_migration
        #: Optional rack composition (None = flat fleet, bit-for-bit the
        #: pre-rack behavior).
        self.racks = config.racks
        self.rack_of: Optional[Tuple[int, ...]] = None
        self.cross_rack_threshold: float = 0.0
        if self.racks is not None:
            if self.racks.num_devices != num_devices:
                raise ValueError(
                    f"rack topology covers {self.racks.num_devices} "
                    f"devices, fleet has {num_devices}"
                )
            self.rack_of = self.racks.rack_of
            # Locality threshold for cross-rack steals/migrations: the
            # starvation gap must clear at least the uncontended cost of
            # shipping one context row across the uplink tier.
            threshold = config.cross_rack_threshold_cycles
            if threshold is None:
                threshold = self.interconnect.cross_rack_transfer_cycles(
                    CONTEXT_ROW_BYTES
                )
            if not threshold >= 0:
                raise ValueError(
                    "cross_rack_threshold_cycles must be non-negative"
                )
            self.cross_rack_threshold = threshold
        #: Observability (repro.obs): tracer resolves to the no-op
        #: singleton so every emission site is a single attribute check
        #: when tracing is off; sampler and profiler stay None-gated.
        self.tracer = (
            config.tracer if config.tracer is not None else NULL_TRACER
        )
        if self.tracer.enabled:
            rack_of = self.rack_of
            self.tracer.bind_topology(
                num_devices,
                rack_of=(
                    (lambda d: rack_of[d]) if rack_of is not None else None
                ),
            )
        self.sampler = config.metrics_sampler
        if self.sampler is not None and getattr(self.sampler, "tracer", None) is None:
            self.sampler.tracer = self.tracer
        self.profiler = config.profiler

    # ------------------------------------------------------------------
    # Static routing (the up-front pass)
    # ------------------------------------------------------------------
    def route(self, tasks: Sequence[TaskRuntime]) -> Dict[int, int]:
        """Assign each task to a device, in arrival order (static pass).

        Uses only scheduler-visible state: arrival times and the
        Algorithm-1 estimates carried in each task's context row.  For
        ``LEAST_LOADED``, each request goes to the device that can start
        it earliest under the estimated-backlog model; ties break
        deterministically toward the lowest device index.

        Raises for the online strategies -- their decisions exist only at
        run time (see :meth:`run`).
        """
        if self.routing in ONLINE_ROUTINGS:
            raise ValueError(
                f"{self.routing.value} routing decides at arrival events; "
                "call run() instead of route()"
            )
        ordered = sorted(tasks, key=lambda t: (t.spec.arrival_cycles, t.task_id))
        assignments: Dict[int, int] = {}
        rng = random.Random(self._seed)
        cursor = 0
        backlog_free_at = [0.0] * self.num_devices
        for task in ordered:
            arrival = task.spec.arrival_cycles
            if self.routing == RoutingPolicy.ROUND_ROBIN:
                device = cursor % self.num_devices
                cursor += 1
            elif self.routing == RoutingPolicy.RANDOM:
                device = rng.randrange(self.num_devices)
            else:  # LEAST_LOADED: earliest predicted start wins.
                device = min(
                    range(self.num_devices),
                    key=lambda d: (max(backlog_free_at[d], arrival), d),
                )
            backlog_free_at[device] = (
                max(backlog_free_at[device], arrival)
                + task.context.estimated_cycles
            )
            assignments[task.task_id] = device
        return assignments

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[TaskRuntime]) -> ClusterResult:
        """Serve a task stream through the cluster event loop.

        Builds one :class:`_ClusterRun`, which holds every piece of this
        run's state (none stays on the scheduler, so one scheduler can
        serve many runs), runs its loop to the last settlement, and
        returns its result.  With ``ClusterConfig.batching`` set the
        router may coalesce and shard the dispatches.
        """
        if not tasks:
            raise ValueError("need at least one task")
        run = _ClusterRun(self, tasks)
        run.loop()
        return run.result()

    # ------------------------------------------------------------------
    # Online decisions
    # ------------------------------------------------------------------
    def admission_prediction_filters(self) -> Tuple[bool, bool]:
        """(priority filter on, SJF-within-class filter on) for admission.

        The class-aware backlog model is only valid when the per-device
        policy actually serves that way: the priority filter requires a
        priority-driven policy *with preemption* (under NP even a HIGH
        arrival waits out the running task), and the shortest-first
        refinement requires a policy that ranks by estimated remaining
        time.  FCFS/RRB get the plain total backlog.
        """
        name = self.policy_name.upper()
        preemptive = self.simulation_config.mode is not PreemptionMode.NP
        return (
            preemptive and name in PRIORITY_DRIVEN_POLICIES,
            name in SHORTEST_FIRST_POLICIES,
        )


class _ClusterRun:
    """One :meth:`ClusterScheduler.run` call: its state and the cluster
    event loop over it (place, coalesce, shard, settle).

    Every wake of the run is an entry of one
    :class:`~repro.sched.simulator.EventQueue`: the device events, and
    the run's availability transitions, batch-window flushes, router
    arrivals (or admission considerations) and metrics samples.  They
    fire in timestamp order, same-time ties by kind rank
    (:class:`~repro.sched.simulator._EventKind`: completions, then
    transitions, flushes, device arrivals, router arrivals, ticks,
    dispatches and samples), so every router decision reads the live
    device state of its instant.  :meth:`loop` pops the head and hands
    it to its method: :meth:`device_event`, :meth:`churn_transition`,
    :meth:`batch_flush`, :meth:`arrival`, :meth:`admission_arrival` or
    :meth:`sample_due`.  A plain task stream -- no batching -- is the
    degenerate case: one one-stage dispatch per task, on one device.

    - **Placement**: every task is placed by its ROUTE wake at its
      arrival instant.  A static routing decides each task's device up
      front (:meth:`ClusterScheduler.route`); each device counts the
      placements still to come (``DeviceSim.pending_placements``) and
      keeps its period chain alive through a drain until they land, so
      each device replays its partition in isolation.  Under churn a task
      diverts from a device that stopped accepting work.  Online routings
      place stage 0 on the device admission control chose, else on the
      least live backlog (:meth:`route_online`).
    - **Coalescing**: the first arrival of a batch key opens a window;
      compatible arrivals join until the window closes or ``max_batch``
      fills, then the members merge into one proxy runtime
      (:func:`~repro.sched.job.merge_runtimes`).
    - **Gang dispatch**: a dispatch whose plan has multiple stages
      reserves one device per stage (least predicted backlog, distinct
      while the fleet allows) and injects stage 0.  Each stage
      completion ships the boundary activations to the next stage's
      device over the contended fabric (DMA-out), charges the landing
      cost as the successor's dispatch restore (DMA-in), and injects the
      successor -- the MockSim DMA-in/compute/DMA-out idiom, with slices
      remaining ordinary preemptible tasks.
    - **Settlement**: the final stage's completion settles every member
      request from the proxy (wait accrual, completion time, admission
      budget release + feedback observation).
    - **Churn** (:class:`_ChurnRuntime`): in a plain task stream an
      orphaned task restarts on a live device (or parks until a
      restore); otherwise an orphan loses its whole gang.
    """

    __slots__ = (
        "scheduler", "tasks", "routing", "batching", "plain", "coalesce",
        "tracer", "sampler", "profiler", "admission", "prediction_filters",
        "records_start", "static", "ledger", "fabric", "devices", "indexes",
        "assignments", "migrations", "inflight", "next_id",
        "open_batches", "open_flush", "slice_map", "batch_records",
        "rejected", "lost", "settled", "churn", "queue",
    )

    def __init__(
        self, scheduler: ClusterScheduler, tasks: Sequence[TaskRuntime]
    ) -> None:
        # A duplicate id would overwrite its twin's assignment and slice
        # entry and leave the settlement count short, hanging the loop.
        seen: Set[int] = set()
        for task in tasks:
            if task.task_id in seen:
                raise ValueError(f"duplicate task id {task.task_id}")
            seen.add(task.task_id)
        self.scheduler = scheduler
        #: The offered requests, in the caller's order.
        self.tasks = tasks
        self.routing = scheduler.routing
        batching = self.batching = scheduler.batching
        #: A plain task stream keeps the per-task semantics: no batch
        #: records, and churn orphans restart instead of losing a gang.
        self.plain = batching is None
        self.coalesce = (
            batching is not None
            and batching.max_batch > 1
            and batching.window_cycles > 0
        )
        tracer = self.tracer = scheduler.tracer
        self.sampler = scheduler.sampler
        self.profiler = scheduler.profiler
        num_devices = scheduler.num_devices
        # The ledger only exists for policies that read tokens: attaching
        # one to HPF/SJF/FCFS would just accumulate dead entries (their
        # hooks never drain it).
        ledger = self.ledger = None
        if (
            scheduler.global_tokens
            and make_policy(scheduler.policy_name).uses_tokens
        ):
            ledger = self.ledger = ClusterTokenLedger()
        # The fabric carries checkpoint migrations, inter-stage
        # activations and churn evacuations (churn always builds it:
        # cancel_transfers_to() needs it even in reactive mode).
        needs_fabric = (
            self.routing is RoutingPolicy.PREEMPTIVE_MIGRATION
            or (batching is not None and batching.shard_stages > 1)
            or scheduler.churn is not None
        )
        self.fabric = None
        if needs_fabric:
            self.fabric = Interconnect(
                scheduler.interconnect, num_devices, rack_of=scheduler.rack_of
            )
            self.fabric.tracer = tracer
        #: Every pending wake of the run, in firing order: the device
        #: events and the run's own wakes (:meth:`loop`).
        queue = self.queue = EventQueue()
        devices = self.devices = [
            DeviceSim(
                scheduler.simulation_config,
                make_policy(scheduler.policy_name, ledger=ledger),
                device_id=index,
                tracer=tracer,
                queue=queue,
            )
            for index in range(num_devices)
        ]
        # The token ledger reads every device's grants, and preemptive
        # migration polls after every device event: keep every tick.
        if (
            ledger is not None
            or self.routing is RoutingPolicy.PREEMPTIVE_MIGRATION
        ):
            for device in devices:
                device.ticks_read = True
        # The O(log d) control plane, behind the rack frontend on a
        # racked fleet.
        indexes: _ClusterIndexes
        if scheduler.racks is not None:
            indexes = _RackIndexes(
                devices, scheduler.racks, verify=scheduler.verify_indexes
            )
        else:
            indexes = _ClusterIndexes(devices, verify=scheduler.verify_indexes)
        indexes.tracer = tracer
        indexes.profiler = self.profiler
        self.indexes = indexes
        self.assignments: Dict[int, int] = {}
        self.migrations: List[MigrationRecord] = []
        #: Per-device in-flight deliveries (checkpoints, activations):
        #: (arrival cycle, estimated remaining cycles, task priority).
        #: Routing counts them as backlog and a device with one pending is
        #: not an eligible thief; the admission path filters them by
        #: priority like the rest of its class-aware backlog.
        self.inflight: Dict[int, List[Tuple[float, float, int]]] = {
            index: [] for index in range(num_devices)
        }
        admission = self.admission = scheduler.admission
        # Records accumulate for the controller's lifetime (the feedback
        # EWMA deliberately keeps learning across runs); slice off this
        # run's decisions so a reused scheduler reports only its own.
        self.records_start = len(admission.records) if admission else 0
        self.prediction_filters = scheduler.admission_prediction_filters()
        self.static: Optional[Dict[int, int]] = None
        if self.routing in STATIC_ROUTINGS:
            self.static = scheduler.route(tasks)
            for index in self.static.values():
                devices[index].pending_placements += 1

        # Fresh ids for merged proxies and later-stage slices, above every
        # offered id so they can never collide with a request.
        self.next_id = 1 + max(seen)
        self.open_batches: Dict[Tuple, List[TaskRuntime]] = {}
        #: Open batch key -> push order of its window's FLUSH wake.
        self.open_flush: Dict[Tuple, int] = {}
        #: Live slice id -> (its gang, stage index).
        self.slice_map: Dict[int, Tuple[_GangRun, int]] = {}
        self.batch_records: List[BatchRecord] = []
        #: Refused and lost requests, in the order they were settled so.
        self.rejected: List[TaskRuntime] = []
        self.lost: List[TaskRuntime] = []
        self.settled = 0
        self.churn: Optional[_ChurnRuntime] = None
        if scheduler.churn is not None:
            self.churn = _ChurnRuntime(
                self, scheduler.churn, scheduler.proactive_migration
            )

    # ------------------------------------------------------------------
    # The dispatcher
    # ------------------------------------------------------------------
    def loop(self) -> None:
        """Run to the last settlement (or quiesce): pop the queue's head
        and hand it to its method."""
        queue = self.queue
        churn = self.churn
        for task in self.tasks:
            self.route_later(task.spec.arrival_cycles, task)
        sampler = self.sampler
        if sampler is not None:
            queue.push(sampler.next_due, _EventKind.SAMPLE, None, None)

        # The run's own wakes by kind; device events go to device_event.
        wakes = {
            _EventKind.TRANSITION: self.churn_transition,
            _EventKind.FLUSH: self.batch_flush,
            _EventKind.ROUTE: (
                self.arrival if self.admission is None
                else self.admission_arrival
            ),
            _EventKind.SAMPLE: self.sample_due,
        }
        device_event = self.device_event
        total = len(self.tasks)
        while True:
            head = queue.peek()
            if head is None:
                # Quiesced.  Whatever is still parked has no restore
                # coming: lost.
                if churn is not None:
                    parked, churn.parked = churn.parked, []
                    for task in parked:
                        self.lose(task)
                break
            wake = wakes.get(head[1])
            if wake is not None:
                wake(*queue.take())
            else:
                device_event(head[2])
            # Any wake may settle the last request: a completion, a
            # churn loss or an admission rejection.
            if self.settled >= total:
                break

    # ------------------------------------------------------------------
    # Wakes
    # ------------------------------------------------------------------
    def device_event(self, index: int) -> None:
        """Step device ``index`` through its next event, advance or
        settle the slice it finished, and poll for moves."""
        device = self.devices[index]
        now = device.step()
        self.indexes.refresh(device)

        completed = device.last_completed
        if completed is not None:
            # A finished slice leaves the map, so a settled gang is
            # freed right away.  A destroyed gang's straggler owes
            # nothing.
            entry = self.slice_map.pop(completed.task_id, None)
            if entry is not None and not entry[0].lost:
                gang, stage = entry
                if stage + 1 < len(gang.plans):
                    self.advance(gang, stage, now)
                else:
                    self.settle(gang, now)

        # Steal opportunities only appear when a device goes idle
        # (COMPLETE) or stealable work lands on a busy device
        # (ARRIVAL); period ticks and reserved dispatches change
        # neither, so skip the scan for them.
        routing = self.routing
        if routing is RoutingPolicy.WORK_STEALING and (
            device.last_event_kind in (_EventKind.COMPLETE, _EventKind.ARRIVAL)
        ):
            self.steal(now)
        elif routing is RoutingPolicy.PREEMPTIVE_MIGRATION:
            # Migration opportunities additionally appear when a
            # preemption commits (PERIOD/DISPATCH wakes) and when a
            # checkpoint becomes durable (the reserved DISPATCH at trap
            # end), so check after every event; that check is an O(1)
            # idle-candidate peek, and only actually-idle devices
            # trigger a candidate walk.
            self.migrate(now)

        churn = self.churn
        if churn is not None:
            # A doomed device's own event may have freed the array or
            # the link; revisit its evacuation plan.
            churn.after_step(device, now)

    def churn_transition(self, now: float, _payload: None) -> None:
        """Apply the next availability transition (at ``now``)."""
        self.churn.process_next(now)
        if self.routing is RoutingPolicy.PREEMPTIVE_MIGRATION:
            # A restore adds a thief and a fault cancels the transfers
            # into the dead device, freeing links: poll for migrations
            # at the transition instant.
            self.migrate(now)

    def batch_flush(self, now: float, key: Tuple) -> None:
        """Batch key ``key``'s window closed at ``now``: dispatch it."""
        del self.open_flush[key]
        self.dispatch(self.open_batches.pop(key), now)

    def arrival(self, now: float, payload: Tuple[TaskRuntime, int]) -> None:
        """Route an arrival (no admission control)."""
        task, _ = payload
        preferred = None
        if self.static is not None:
            # The static placement is due: the device's chain no longer
            # waits for it, whether the task lands there or, under churn,
            # diverts from a device that stopped accepting work.
            preferred = self.static[task.task_id]
            device = self.devices[preferred]
            device.pending_placements -= 1
            if not device.accepts_work:
                preferred = None
        self.enqueue(task, now, preferred)

    def admission_arrival(
        self, now: float, payload: Tuple[TaskRuntime, int]
    ) -> None:
        """Consider an arrival: accept, defer or reject."""
        task, attempt = payload
        churn = self.churn
        if churn is not None and not churn.any_accepting():
            # Nothing survives to predict against.  Re-consider at the
            # next availability transition (no attempt burned -- the
            # defer budget is for backlog, not outages); with no
            # transition left the task is lost.
            next_change = churn.peek_time()
            if next_change is None:
                self.lose(task)
            else:
                self.route_later(max(now, next_change), task, attempt)
            return
        # Admission-aware placement + prediction: the decision is scored
        # against (and the task placed on) the device with the least
        # *class-aware* backlog -- under a preemptive priority policy the
        # arrival will not wait behind queued lower-priority work nor
        # behind same-priority rows a shortest-first rule would serve
        # after it, and counting either would over-reject the very class
        # admission protects.  The filters follow the configured policy
        # (see admission_prediction_filters); under FCFS/RRB the
        # prediction is the plain total backlog.
        admission = self.admission
        min_priority, sjf_within = admission.placement_query(
            task, *self.prediction_filters
        )
        target, backlog = self.route_admission(now, min_priority, sjf_within)
        # Batch-aware prediction: a request that would join an open
        # batch occupies the device for only the marginal fraction of
        # its estimate.
        scale = 1.0
        if self.coalesce and batch_key(task.spec) in self.open_batches:
            scale = self.batching.marginal_fraction
        record = admission.decide(
            task, backlog, now, attempt, marginal_scale=scale
        )
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(
                "admission",
                f"admission {record.decision.value} j{task.task_id}",
                now,
                args={
                    "job": task.task_id,
                    "task": task.task_id,
                    "decision": record.decision.value,
                    "backlog": backlog,
                    "attempt": attempt,
                    "target": target,
                    "marginal_scale": scale,
                },
            )
        if self.sampler is not None:
            self.sampler.inc("admission." + record.decision.value)
        if record.decision is AdmissionDecision.ACCEPT:
            # admit() rewrites the context estimate to the
            # feedback-corrected value first, so routing and per-device
            # scheduling see the corrected number.
            admission.admit(task)
            self.enqueue(task, now, preferred=target)
        elif record.decision is AdmissionDecision.DEFER:
            self.route_later(
                now + admission.config.defer_delay_cycles, task, attempt + 1
            )
        else:
            self.rejected.append(task)
            self.settled += 1

    def sample_due(self, now: float, _payload: None) -> None:
        """One streaming-metrics tick (:mod:`repro.obs.metrics`) at the
        sampler's due instant, while work remains; then queue the next.

        Recomputes the fleet gauges from pure accessors --
        ``predicted_backlog`` reads task progress without mutating it,
        ``queue_depth``/``is_busy`` are O(1) -- so sampling never
        perturbs a scheduling decision; only the sampler's own state
        changes.  Only a configured sampler queues SAMPLE wakes, so the
        un-observed loop never enters here.
        """
        queue = self.queue
        if queue.peek() is None:
            return  # quiesced: nothing left to sample
        sampler = self.sampler
        devices = self.devices
        rack_of = self.scheduler.rack_of
        rack_busy: Optional[List[int]] = None
        if rack_of is not None:
            rack_busy = [0] * (max(rack_of) + 1)
        busy = 0
        queued = 0
        backlog_total = 0.0
        for index, device in enumerate(devices):
            depth = device.queue_depth
            backlog = device.predicted_backlog(now)
            if device.is_busy:
                busy += 1
                if rack_busy is not None:
                    assert rack_of is not None
                    rack_busy[rack_of[index]] += 1
            queued += depth
            backlog_total += backlog
            sampler.set_gauge(f"device{index}.busy", float(device.is_busy))
            sampler.set_gauge(f"device{index}.queue_depth", float(depth))
            sampler.set_gauge(f"device{index}.backlog_cycles", backlog)
        sampler.set_gauge("cluster.utilization", busy / max(1, len(devices)))
        sampler.set_gauge("cluster.queue_depth", float(queued))
        sampler.set_gauge("cluster.backlog_cycles", backlog_total)
        sampler.set_gauge("cluster.migrations", float(len(self.migrations)))
        if rack_busy is not None:
            for rack, count in enumerate(rack_busy):
                sampler.set_gauge(f"rack{rack}.busy_devices", float(count))
            if self.fabric is not None:
                for rack, cycles in self.fabric.uplink_busy_cycles().items():
                    sampler.set_gauge(
                        f"rack{rack}.uplink_busy_cycles", cycles
                    )
        sampler.sample(now)
        queue.push(sampler.next_due, _EventKind.SAMPLE, None, None)

    # ------------------------------------------------------------------
    # Actions: placement and settlement
    # ------------------------------------------------------------------
    def route_later(
        self, when: float, task: TaskRuntime, attempt: int = 0
    ) -> None:
        """Queue the ROUTE wake that routes (or, under admission control,
        considers) ``task`` at ``when``.  Same-time router arrivals go in
        (arrival, task id) order."""
        self.queue.push(
            when, _EventKind.ROUTE, (task.spec.arrival_cycles, task.task_id),
            (task, attempt),
        )

    def enqueue(
        self, task: TaskRuntime, now: float, preferred: Optional[int] = None
    ) -> None:
        """Open or join ``task``'s batch window when coalescing; otherwise
        dispatch it now."""
        if self.coalesce:
            batching = self.batching
            key = batch_key(task.spec)
            members = self.open_batches.get(key)
            if members is not None:
                members.append(task)
                if len(members) >= batching.max_batch:
                    del self.open_batches[key]
                    self.queue.cancel(self.open_flush.pop(key))
                    self.dispatch(members, now)
                return
            self.open_batches[key] = [task]
            self.open_flush[key] = self.queue.push(
                now + batching.window_cycles, _EventKind.FLUSH, None, key
            )
            return
        self.dispatch([task], now, preferred)

    def dispatch(
        self,
        members: List[TaskRuntime],
        now: float,
        preferred: Optional[int] = None,
    ) -> None:
        """Dispatch ``members`` as one gang: merge a batch into a proxy,
        cut it into stages, reserve a device per stage, inject stage 0."""
        churn = self.churn
        if churn is not None and not churn.any_accepting():
            # Zero surviving capacity (an arrival, an orphan or a batch
            # window flushing mid-outage): park the members for the next
            # restore (or account them lost at quiesce).
            churn.parked.extend(members)
            return
        batching = self.batching
        if len(members) == 1:
            proxy = members[0]
        else:
            assert batching is not None
            proxy = merge_runtimes(
                members,
                task_id=self.next_id,
                now=now,
                marginal_fraction=batching.marginal_fraction,
                tracer=self.tracer,
            )
            self.next_id += 1
        shard = 1
        # Scheduler-visible decision: shard when the dispatch *looks*
        # big enough to amortize the boundary DMAs.
        if (
            batching is not None
            and batching.shard_stages > 1
            and proxy.context.estimated_cycles >= batching.min_shard_cycles
        ):
            shard = min(batching.shard_stages, len(self.devices))
        plans: List[StagePlan]
        if shard > 1:
            plans = partition_runtime(proxy, shard)
        else:
            # A one-stage gang executes the proxy runtime itself.
            plans = [
                StagePlan(
                    index=0,
                    profile=proxy.profile,
                    estimated_cycles=max(proxy.context.estimated_cycles, 1e-9),
                    activation_bytes=0.0,
                )
            ]
        # Stage 0 lands where admission placed it (or the static route),
        # else on the least live backlog -- through the backlog index, and
        # the rack router on a racked fleet.
        if preferred is None:
            preferred = self.route_online(now)
        slice_ids = [proxy.task_id]
        reserved = [preferred]
        stage0: TaskRuntime = proxy
        if len(plans) > 1:
            for _ in plans[1:]:
                slice_ids.append(self.next_id)
                self.next_id += 1
                reserved.append(self.route_stage(now, set(reserved)))
            stage0 = stage_runtime(proxy, plans[0], slice_ids[0], now)
        gang = _GangRun(members, proxy, plans, slice_ids, reserved)
        gang.runtimes[0] = stage0
        device = self.devices[preferred]
        device.inject(stage0, arrival=now)
        self.indexes.refresh(device)
        self.assignments[proxy.task_id] = preferred
        self.slice_map[proxy.task_id] = (gang, 0)
        if self.plain:
            return  # a task dispatch: no batch record to keep
        for member in members:
            self.assignments.setdefault(member.task_id, reserved[0])
        self.batch_records.append(
            BatchRecord(
                proxy_task_id=slice_ids[0],
                member_task_ids=tuple(member.task_id for member in members),
                dispatch_cycles=now,
                num_stages=len(plans),
                devices=tuple(reserved),
            )
        )
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(
                "batch_flush",
                f"flush {len(members)}j -> d{reserved[0]}",
                now,
                device=reserved[0],
                args={
                    "proxy": slice_ids[0],
                    "members": len(members),
                    "stages": len(plans),
                    "devices": list(reserved),
                },
            )

    def advance(self, gang: _GangRun, stage: int, now: float) -> None:
        """Ship stage ``stage``'s boundary tensor and start the next.

        DMA-out is the fabric transfer (contended, FIFO per link);
        DMA-in is the landing cost charged as the successor slice's
        dispatch restore.  A successor landing on the same device skips
        both -- the tensor is already resident.
        """
        nxt = stage + 1
        plan = gang.plans[nxt]
        src = self.assignments[gang.slice_ids[stage]]
        dst = gang.devices[nxt]
        if not self.devices[dst].accepts_work:
            # The reserved device was revoked/drained since dispatch.
            churn = self.churn
            if churn is not None and not churn.any_accepting():
                self.lose_gang(gang)  # nowhere for the pipeline to go
                return
            dst = self.route_stage(now, set())
            gang.devices[nxt] = dst
        activation = gang.plans[stage].activation_bytes
        slice_id = gang.slice_ids[nxt]
        if src != dst:
            record = self.fabric.transfer(
                src, dst, activation, now,
                task_id=slice_id, purpose="activation",
            )
            arrival = record.end_cycles
            restore = activation / (
                self.scheduler.simulation_config.npu.bandwidth_bytes_per_cycle
            )
            self.inflight[dst].append(
                (arrival, plan.estimated_cycles,
                 int(gang.proxy.context.priority))
            )
            gang.proxy.migrated_bytes_total += activation
        else:
            arrival, restore = now, 0.0
        runtime = stage_runtime(gang.proxy, plan, slice_id, arrival, restore)
        gang.runtimes[nxt] = runtime
        device = self.devices[dst]
        device.inject(runtime, arrival=arrival)
        self.indexes.refresh(device)
        self.assignments[slice_id] = dst
        self.slice_map[slice_id] = (gang, nxt)

    def settle(self, gang: _GangRun, now: float) -> None:
        """The final stage completed: settle every member request."""
        final = gang.runtimes[-1]
        first_dispatch = gang.runtimes[0].first_dispatch_time
        admission = self.admission
        sampler = self.sampler
        for member in gang.members:
            if member is not final:
                # Batched or sharded: the member never ran under its own
                # id, so its accounting settles from the proxy.  A solo
                # task completed on its device.
                settle_member(member, now, first_dispatch)
            if admission is not None:
                admission.on_complete(member)
            # Sample per settled *member*, not per merged proxy or stage
            # slice: tasks.completed and the SLA counters score each real
            # request exactly once.
            if sampler is not None:
                sampler.task_completed(member)
        self.settled += len(gang.members)

    def lose(self, task: TaskRuntime) -> None:
        """Account one request as lost (no capacity will ever serve it)."""
        self.lost.append(task)
        self.settled += 1
        if self.admission is not None:
            self.admission.on_lost(task)

    def lose_gang(self, gang: _GangRun) -> None:
        """Account every member of a destroyed gang as lost.  A gang's
        members settle together, so none is finished, and a gang is lost
        at most once."""
        if gang.lost:
            return
        gang.lost = True
        for member in gang.members:
            self.lose(member)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def inbound(
        self, device: int, now: float, min_priority: Optional[int] = None
    ) -> float:
        """Estimated cycles of checkpoint deliveries still bound for
        ``device``; landed entries are pruned as a side effect.

        ``min_priority`` mirrors :meth:`DeviceSim.predicted_backlog`'s
        class-aware filter for the admission path: a delivery the
        arrival would outrank on landing does not delay it.  Routing
        always passes None (every inbound byte counts toward placement).
        """
        inflight = self.inflight
        entries = inflight[device]
        if not entries:
            return 0.0
        live = [entry for entry in entries if entry[0] > now]
        if len(live) != len(entries):
            inflight[device] = live
        return sum(
            est
            for _, est, priority in live
            if min_priority is None or priority >= min_priority
        )

    def least_backlog(
        self, candidates: Iterable[int], now: float
    ) -> Optional[int]:
        """The candidate with the least live predicted backlog plus
        inbound deliveries; ties to the lowest device index.  None when
        there is no candidate."""
        devices = self.devices
        return min(
            candidates,
            key=lambda d: (
                devices[d].predicted_backlog(now) + self.inbound(d, now), d
            ),
            default=None,
        )

    def route_online(self, now: float) -> int:
        """Least live predicted backlog; ties to the lowest device index.

        In-flight checkpoint migrations count toward their destination's
        backlog -- the node agent routed them, so it knows they are
        coming even though the device has not admitted them yet.  The
        argmin comes from the backlog-bound best-first search (identical
        float semantics to the full scan, candidate devices only).
        """
        profiler = self.profiler
        start_ns = time.perf_counter_ns() if profiler is not None else 0
        index, _ = self.indexes.route_min_backlog(
            now, lambda d: self.inbound(d, now)
        )
        if profiler is not None:
            profiler.add("route", time.perf_counter_ns() - start_ns)
        tracer = self.tracer
        if tracer.enabled and tracer.audit_routing:
            self.audit_route(now, index, "route")
        return index

    def route_stage(self, now: float, used: Set[int]) -> int:
        """Least-backlog device for a later gang stage, avoiding devices
        already reserved by this gang while the fleet allows.  Doomed and
        down devices (churn) never take a stage while any accepting
        device exists."""
        devices = self.devices
        fleet = range(len(devices))
        candidates = [
            d for d in fleet if d not in used and devices[d].accepts_work
        ]
        if not candidates:
            candidates = [
                d for d in fleet if devices[d].accepts_work
            ] or list(fleet)
        profiler = self.profiler
        start_ns = time.perf_counter_ns() if profiler is not None else 0
        choice = self.least_backlog(candidates, now)
        if profiler is not None:
            profiler.add("route", time.perf_counter_ns() - start_ns)
        tracer = self.tracer
        if tracer.enabled and tracer.audit_routing:
            self.audit_route(now, choice, "gang_stage")
        return choice

    def route_admission(
        self,
        now: float,
        min_priority: Optional[int],
        sjf_within: Optional[float],
    ) -> Tuple[int, float]:
        """Admission-aware placement: least class-aware backlog.

        Ties break toward the least *total* backlog, then the lowest
        device index -- an interactive arrival usually sees several
        devices with zero same-class work, and the total keeps those
        choices load-balanced.  With no filters active this degenerates
        to exactly :meth:`route_online`'s rule -- and is then served
        from the backlog index; filtered predictions depend on the
        arrival's own class and estimate, so they take the class-aware
        linear fallback.  Returns the chosen device and its class-aware
        backlog (what the arrival is predicted to wait behind).
        """
        profiler = self.profiler
        start_ns = time.perf_counter_ns() if profiler is not None else 0
        filtered = min_priority is not None or sjf_within is not None
        indexes = self.indexes
        if not filtered:
            best_index, best_backlog = indexes.route_min_backlog(
                now, lambda d: self.inbound(d, now)
            )
        else:
            devices = self.devices
            best_key: Optional[Tuple[float, float, int]] = None
            best_index = 0
            best_backlog = 0.0
            # The class-aware fallback scans the admission candidates: the
            # whole fleet when flat, the chosen rack under the two-tier
            # frontend (admission predicts against the rack's surviving
            # capacity, per the rack composition contract).
            for index in indexes.admission_candidates():
                device = devices[index]
                if not device.accepts_work:
                    continue  # churn: never predict against a doomed device
                class_backlog = device.predicted_backlog(
                    now, min_priority=min_priority,
                    sjf_within_cycles=sjf_within,
                ) + self.inbound(index, now, min_priority=min_priority)
                total_backlog = device.predicted_backlog(now) + self.inbound(index, now)
                key = (class_backlog, total_backlog, index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_index, best_backlog = index, class_backlog
        if profiler is not None:
            profiler.add("admission", time.perf_counter_ns() - start_ns)
        tracer = self.tracer
        if tracer.enabled and tracer.audit_routing:
            self.audit_route(now, best_index, "admission")
        return best_index, best_backlog

    def audit_route(self, now: float, chosen: int, tag: str) -> None:
        """Decision-audit emission: the chosen device plus the closest
        runner-ups, each with its exact live backlog and the cheap lower
        bound the backlog index keys on.

        Deliberately an O(devices) fleet scan -- audit mode documents
        decisions, it is not on the overhead contract's fast path -- and
        purely observational (``predicted_backlog`` mutates nothing).
        """
        ranked: List[Tuple[float, int, float]] = []
        chosen_backlog = 0.0
        for index, device in enumerate(self.devices):
            if not device.accepts_work:
                continue
            backlog = device.predicted_backlog(now) + self.inbound(index, now)
            if index == chosen:
                chosen_backlog = backlog
            else:
                ranked.append((backlog, index, device.backlog_lower_bound()))
        ranked.sort()
        self.tracer.instant(
            "route_audit",
            f"{tag} -> d{chosen}",
            now,
            args={
                "tag": tag,
                "chosen": chosen,
                "chosen_backlog": chosen_backlog,
                "runners_up": [
                    {"device": index, "backlog": backlog, "bound": bound}
                    for backlog, index, bound in ranked[:3]
                ],
            },
        )

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    def steal(self, now: float) -> None:
        """Migrate queued work from backlogged devices to idle ones.

        Each idle device steals at most one task per event (the stolen
        task's arrival event re-triggers the loop, so repeated steals
        drain naturally).  Victim: largest live predicted backlog among
        devices holding stealable tasks; stolen task: largest estimated
        remaining work (ties to the lowest task id).

        Thieves come from the idle-candidate set (a superset of the
        truly idle; `is_idle(now)` still decides) and victims from the
        thief's rack's steal-candidate set, both walked in ascending
        device order like the reference fleet enumeration -- the common
        nobody-idle event is an O(1) set peek instead of an O(d) scan,
        and a steal never touches a device without queued work.

        Under a rack topology victim selection is locality-aware: an
        in-rack victim always wins, and a cross-rack victim is taken
        only when no rack-local device has stealable work *and* the
        victim's backlog clears the uplink-cost threshold -- pulling
        work across the oversubscribed tier is only worth it when the
        starvation gap exceeds what the uplink would charge.  With an
        infinite threshold (rack-local stealing) a thief whose rack
        holds no queued work cannot steal, so it is skipped before its
        idle check and the cross-rack scan never runs.
        """
        indexes = self.indexes
        indexes.settle_sets()
        profiler = self.profiler
        start_ns = time.perf_counter_ns() if profiler is not None else 0
        devices = self.devices
        rack_of = self.scheduler.rack_of
        rack_local = self.scheduler.cross_rack_threshold == math.inf
        verify = indexes.verify
        if verify:
            indexes.verify_candidate_sets(now)
        fleet_victims = indexes.steal_candidates
        rack_victims = indexes.steal_candidates_of
        # No idle thief or no device holding queued work: nothing to
        # move.  The second peek is what keeps the common everyone-idle
        # event O(1) on large fleets -- without it each such event walks
        # every idle device to find no victims.
        thieves = (
            indexes.idle_candidates.ordered()
            if indexes.idle_candidates and fleet_victims
            else ()
        )
        for thief_index in thieves:
            thief = devices[thief_index]
            victim = None
            local = rack_victims[thief_index]
            # Once earlier thieves have stolen the last queued task, the
            # remaining idle thieves skip both scans.
            if (local or not rack_local) and thief.is_idle(now) and fleet_victims:
                remote: Optional[Iterable[int]] = None
                if rack_of is not None and not rack_local:
                    rack = rack_of[thief_index]
                    remote = (
                        index for index in fleet_victims if rack_of[index] != rack
                    )
                victim = self.choose_victim(thief_index, now, local, remote)
            if verify:
                reference = self.fleet_victim(thief_index, now)
                if victim != reference:
                    raise AssertionError(
                        f"thief {thief_index} stole {victim and victim[0]}, "
                        f"fleet-wide reference scan {reference and reference[0]}"
                    )
            if victim is None:
                continue
            victim_index, _, victim_tasks = victim
            victim_device = devices[victim_index]
            stolen = max(
                victim_tasks,
                key=lambda t: (t.context.estimated_remaining_cycles, -t.task_id),
            )
            victim_device.remove_task(stolen.task_id, now)
            thief.inject(stolen, arrival=now)
            indexes.refresh(victim_device)
            indexes.refresh(thief)
            indexes.settle_sets()  # later thieves read the moved sets
            self.assignments[stolen.task_id] = thief_index
            self.migrations.append(
                MigrationRecord(
                    task_id=stolen.task_id,
                    from_device=victim_index,
                    to_device=thief_index,
                    time_cycles=now,
                    kind="steal",
                    bytes_moved=0.0,
                    arrival_cycles=now,
                )
            )
            tracer = self.tracer
            if tracer.enabled:
                tracer.instant(
                    "migration",
                    f"steal t{stolen.task_id} "
                    f"d{victim_index}->d{thief_index}",
                    now,
                    args={
                        "task": stolen.task_id,
                        "from": victim_index,
                        "to": thief_index,
                        "bytes": 0.0,
                        "reason": "steal",
                    },
                )
        if profiler is not None:
            profiler.add("steal", time.perf_counter_ns() - start_ns)

    def choose_victim(
        self,
        thief_index: int,
        now: float,
        local: Iterable[int],
        remote: Optional[Iterable[int]],
    ) -> Optional[_Victim]:
        """The locality rule: the best ``local`` (in-rack) victim; failing
        that, the best ``remote`` one if its backlog clears the cross-rack
        threshold (``remote`` None: no cross-rack scan)."""
        victim = _pick_victim(self.devices, local, thief_index, now)
        if victim is None and remote is not None:
            victim = _pick_victim(self.devices, remote, thief_index, now)
            if (
                victim is not None
                and victim[1] < self.scheduler.cross_rack_threshold
            ):
                victim = None
        return victim

    def fleet_victim(self, thief_index: int, now: float) -> Optional[_Victim]:
        """The reference steal scan over the whole fleet, the
        ``verify_indexes`` oracle for :meth:`steal`'s victim.  None
        unless the thief is idle."""
        devices = self.devices
        if not devices[thief_index].is_idle(now):
            return None
        rack_of = self.scheduler.rack_of
        fleet = range(len(devices))
        if rack_of is None:
            return self.choose_victim(thief_index, now, fleet, None)
        rack = rack_of[thief_index]
        return self.choose_victim(
            thief_index,
            now,
            (index for index in fleet if rack_of[index] == rack),
            (index for index in fleet if rack_of[index] != rack),
        )

    def migrate(self, now: float) -> None:
        """Pull the most starved migratable task to each idle device.

        Unlike work stealing -- whose moves are free and therefore
        restricted to never-dispatched tasks -- every PREEMPTIVE_MIGRATION
        move crosses the modeled interconnect and is charged real cycles:
        a queued task ships only its Fig-4 context row, a preempted task
        additionally ships its resident checkpoint (CONV/FC activations,
        RNN cell state).  Each idle device with no delivery already
        inbound pulls at most one task per event.

        Candidate choice is cluster-wide and fairness-driven: among every
        QUEUED or (durably checkpointed) PREEMPTED task whose
        contention-aware delivery time beats the wait it faces at home,
        take the highest priority, then most tokens (the most
        slowdown-compensated row), then longest estimated remaining work.
        This is what lets a preempted high-priority victim resume on a
        sibling NPU instead of waiting behind its preemptor.  Thieves
        walk the idle-candidate set and sources the migration-source set
        (devices holding queued *or* preempted work), in ascending device
        order like the reference enumeration.

        Under a rack topology source selection is locality-aware: only
        when no in-rack source yields an eligible task does the thief
        consider cross-rack sources, and then only tasks whose
        starvation gap (home wait minus delivery delay) clears the
        uplink-cost threshold -- the oversubscribed tier already makes
        ``delivery`` later, and the threshold keeps marginal wins from
        flooding the uplink.
        """
        indexes = self.indexes
        indexes.settle_sets()
        profiler = self.profiler
        start_ns = time.perf_counter_ns() if profiler is not None else 0
        devices = self.devices
        fabric = self.fabric
        rack_of = self.scheduler.rack_of
        threshold = self.scheduler.cross_rack_threshold
        if indexes.verify:
            indexes.verify_candidate_sets(now)
        sources = indexes.source_candidates
        # Same O(1) early-outs as steal: no thief, or no device holding
        # queued/preempted work, means no move this event.
        thieves = (
            indexes.idle_candidates.ordered()
            if indexes.idle_candidates and sources
            else ()
        )
        for thief_index in thieves:
            if not devices[thief_index].is_idle(now):
                continue
            # Prune landed deliveries, then gate on *presence* of live
            # ones -- a sum test would let a task whose estimate is
            # already exhausted (remaining floored to 0) slip through.
            self.inbound(thief_index, now)
            if self.inflight[thief_index]:
                continue  # a delivery is already on its way here
            best: Optional[TaskRuntime] = None
            best_key: Optional[Tuple[bool, float, float, float, int]] = None
            best_source = 0
            for index in sources:
                if index == thief_index:
                    continue
                device = devices[index]
                candidates = device.stealable_tasks()
                candidates += device.migratable_preempted_tasks(now)
                if not candidates:
                    continue
                local = (
                    rack_of is None
                    or rack_of[index] == rack_of[thief_index]
                )
                backlog = device.predicted_backlog(now)
                for task in candidates:
                    context = task.context
                    payload = (
                        task.checkpoint_bytes_resident + CONTEXT_ROW_BYTES
                    )
                    delivery = fabric.estimate_arrival(
                        index, thief_index, payload, now
                    )
                    # Wait the task faces at home: everything live on its
                    # source device except its own remaining work.
                    home_wait = backlog - max(
                        0.0, context.estimated_remaining_cycles
                    )
                    if delivery - now >= home_wait:
                        continue  # the link is the slower queue; stay put
                    if not local and home_wait - (delivery - now) < threshold:
                        continue  # marginal win; keep the uplink clear
                    # Any in-rack task outranks every cross-rack one.
                    key = (
                        local,
                        float(int(context.priority)),
                        context.tokens,
                        context.estimated_remaining_cycles,
                        -task.task_id,
                    )
                    if best_key is None or key > best_key:
                        best, best_key, best_source = task, key, index
            if best is None:
                continue
            self.ship(best_source, thief_index, best.task_id, now, "migrate")
            indexes.settle_sets()  # later thieves read the moved sets
        if profiler is not None:
            profiler.add("migrate", time.perf_counter_ns() - start_ns)

    def ship(
        self,
        src_index: int,
        dst_index: int,
        task_id: int,
        now: float,
        label: str,
        reason: Optional[str] = None,
    ) -> None:
        """Move one QUEUED/PREEMPTED task over the fabric: a checkpoint
        migration (``label`` ``migrate``) or a churn evacuation
        (``evacuate``).  The trace span names ``reason``, which defaults
        to the record's kind."""
        src = self.devices[src_index]
        dst = self.devices[dst_index]
        task = src.remove_task(task_id, now)
        # "checkpoint" means saved state actually moved; a migrated KILL
        # victim restarts from scratch and ships only the row.
        kind = "checkpoint" if task.checkpoint_bytes_resident > 0 else "steal"
        payload = task.checkpoint_bytes_resident + CONTEXT_ROW_BYTES
        record = self.fabric.transfer(
            src_index, dst_index, payload, now, task_id=task.task_id
        )
        # In transit the task keeps waiting (MIGRATING accrues like
        # READY): settle the whole flight now so the row lands with its
        # wait/token state carried over, then let the destination flip it
        # READY at the delivery arrival.
        task.context.state = TaskState.MIGRATING
        task.context.accrue_wait(record.end_cycles)
        if self.ledger is not None:
            # The migration is a settlement read point: the in-flight
            # task stays visible to the cluster-wide threshold.
            self.ledger.activate(task.task_id, task.context.tokens)
        task.migration_count += 1
        task.migrated_bytes_total += payload
        dst.inject(task, arrival=record.end_cycles)
        self.indexes.refresh(src)
        self.indexes.refresh(dst)
        self.assignments[task.task_id] = dst_index
        self.inflight[dst_index].append(
            (record.end_cycles, task.context.estimated_remaining_cycles,
             int(task.context.priority))
        )
        self.migrations.append(
            MigrationRecord(
                task_id=task.task_id,
                from_device=src_index,
                to_device=dst_index,
                time_cycles=now,
                kind=kind,
                bytes_moved=payload,
                arrival_cycles=record.end_cycles,
            )
        )
        tracer = self.tracer
        if tracer.enabled:
            tracer.span(
                "migration",
                f"{label} t{task.task_id} d{src_index}->d{dst_index}",
                now,
                record.end_cycles,
                args={
                    "task": task.task_id,
                    "from": src_index,
                    "to": dst_index,
                    "bytes": payload,
                    "reason": reason or kind,
                },
            )

    # ------------------------------------------------------------------
    # Result
    # ------------------------------------------------------------------
    def result(self) -> ClusterResult:
        """The finished run's :class:`ClusterResult`.

        However the loop ended (its last settlement or quiesce), the
        offered requests must split into completed, rejected and lost
        ones with no overlap; raises ``RuntimeError`` naming the ids
        otherwise.
        """
        failures = self.rejected + self.lost
        failed = collections.Counter(task.task_id for task in failures)
        twice = sorted(task_id for task_id, count in failed.items() if count > 1)
        if twice:
            raise RuntimeError(
                f"cluster loop ended with tasks rejected or lost twice: {twice}"
            )
        done = sorted(task.task_id for task in failures if task.is_done)
        if done:
            raise RuntimeError(
                "cluster loop ended with finished tasks rejected or lost: "
                f"{done}"
            )
        completed = tuple(
            task for task in self.tasks if task.task_id not in failed
        )
        unsettled = [task.task_id for task in completed if not task.is_done]
        if unsettled:
            raise RuntimeError(
                f"cluster loop ended with unsettled tasks: {unsettled}"
            )
        devices = self.devices
        device_results = tuple(device.result() for device in devices)
        fabric = self.fabric
        transfers = fabric.transfers if fabric is not None else ()
        timeline = ClusterTimeline(
            {
                index: device.timeline
                for index, device in enumerate(devices)
                # A device whose every task migrated away still executed
                # cycles; its trace must survive for conservation checks.
                if device.num_tasks > 0 or len(device.timeline) > 0
            },
            transfers=transfers,
        )
        records: Tuple[AdmissionRecord, ...] = ()
        if self.admission is not None:
            records = self.admission.records[self.records_start:]
        return ClusterResult(
            tasks=completed,
            device_results=device_results,
            assignments=self.assignments,
            routing=self.routing.value,
            migrations=tuple(self.migrations),
            timeline=timeline,
            transfers=transfers,
            admission_records=records,
            rejected_tasks=tuple(self.rejected),
            events_processed=sum(
                device.events_processed for device in devices
            ),
            batches=tuple(self.batch_records),
            lost_tasks=tuple(self.lost),
            rack_of=self.scheduler.rack_of,
        )

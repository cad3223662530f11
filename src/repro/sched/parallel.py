"""Parallel rack-sharded simulation: conservative PDES across processes.

``ClusterConfig(workers=N)`` shards the fleet by rack across ``N``
``multiprocessing`` workers.  Each worker owns a contiguous rack group
and runs the *existing* indexed event loop over it; the coordinator
(the parent process) keeps the cluster-level arrival stream and the
rack-frontend pick.  The design is conservative synchronization in the
PDES sense: a worker only simulates an interval it can prove no other
process will retroactively perturb.

Why this is exact, not approximate
----------------------------------

The serial loop (:meth:`ClusterScheduler._run_gangs`) interleaves two
kinds of work:

- **device events** -- completions, arrivals, period ticks, reserved
  dispatches.  Between router decisions these are *rack-local*: with
  the supported configurations (see :func:`supported_reason`) no event
  on rack ``r`` ever reads or writes another rack's state, so each
  worker replays its racks' event sequence bit-for-bit on its own.
- **router decisions** -- each arrival consults the two-tier frontend
  (least aggregate-backlog rack, then in-rack best-first).  These are
  the only cross-rack reads, and they happen at known times: the
  arrival instants of the workload, which the coordinator holds.

So the protocol is a barrier per arrival: the coordinator asks every
worker that could still have an event at or before ``(t, ARRIVAL)`` to
advance through it (processing events in local key order, exactly like
the serial loop's "device events first" rule), collects each worker's
owned-rack routing keys, re-derives the serial rack pick from the
merged aggregates (:func:`repro.sched.rack.pick_rack_from_keys`), and
delegates the in-rack device pick and the injection to the owning
worker.  Because each rack's running-sum key is maintained by exactly
one process, folding the same local updates in the same order, the
mirrored pick is float-identical to single-process
:meth:`~repro.sched.rack.RackRouter.pick_rack`.  After the last
arrival, one drain round runs every worker to quiescence.

Work stealing rides along because, with an infinite cross-rack
threshold, every steal is rack-local and steal *eligibility* (an idle
thief plus a victim holding queued work) only ever appears at a rack's
own COMPLETE/ARRIVAL events -- the exact events whose passes the worker
already runs.  Serial passes triggered by other racks' events find
nothing new and are no-ops.  Preemptive migration does not ride along:
its per-event pass gates on wall-clock-dependent fabric estimates that
serial evaluates at *other* racks' event times, so it takes the serial
fallback (see below).

Determinism contract
--------------------

Merged results are **bit-for-bit identical** to the serial loop --
``_encode_cluster_v2`` digest equality, pinned across all seven
routings in ``tests/test_parallel_equivalence.py``.  Three mechanisms
carry the contract:

- **event-cut accounting**: each worker counts its processed events
  in ``(round, time, kind-rank, device)`` key order -- its processing
  order is also ascending global merge order: rounds are
  nondecreasing per worker, keys ascend within a round, and every
  round-``r`` event in *any* shard keys at or before every
  later-round event (a shard still holding an earlier event would
  have been polled in round ``r``).  The serial loop stops at the
  final completion, so the coordinator takes the largest completion
  key across the shards' drain summaries as the cut and broadcasts
  it.  Every shard event at or before the shard's *own* latest
  completion is at or before that cut by construction, so a running
  count covers those, and only the post-completion tail of keys is
  kept for a finalize-time binary search against the cut: the counts
  sum to the exact serial ``events_processed``, and the migration
  batches -- tagged with their event keys -- sort into the exact
  serial migration-list order.  No per-event log is stored or
  shipped.  This stays exact even though each worker ran past the
  serial break point to quiescence: post-cut events touch no
  digest-visible state and can produce no moves (there is no live
  work left to steal).
- **mutation copy-back**: task runtimes mutate inside workers; the
  coordinator copies every field back onto the caller's original
  objects, so ``result.tasks`` preserves identity exactly like the
  serial loop.
- **shard merge**: tracer shards merge with deterministic emission
  renumbering (:meth:`repro.obs.trace.Tracer.merge_shards`), profiler
  shards sum (:meth:`repro.obs.profile.HotPathProfiler.merge`).

Configurations outside the support matrix -- churn, admission control,
a live token ledger, flat-fleet online routing, preemptive migration,
finite cross-rack steal thresholds, metrics samplers, routing audit --
fall back to the serial loop transparently (``workers`` is then a
no-op), so ``workers=N`` is always safe to set.  ``workers`` of ``None``
or ``1`` never enters this module at all.

The worker start method follows ``REPRO_PARALLEL_START_METHOD``
(``fork`` or ``spawn``; default ``fork`` where available) so CI can pin
both; see ``docs/performance.md`` for the protocol walk-through and
measured scaling.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import multiprocessing
import os
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import Tracer
from repro.sched.policies import make_policy
from repro.sched.rack import pick_rack_from_keys
from repro.sched.simulator import DeviceSim, _EventKind
from repro.sched.task import TaskRuntime
from repro.sched.timeline import ClusterTimeline

__all__ = ["supported_reason", "run_parallel"]

_ARRIVAL_RANK = int(_EventKind.ARRIVAL)


def _start_method() -> str:
    """Worker start method: env override, else fork where available."""
    method = os.environ.get("REPRO_PARALLEL_START_METHOD")
    if method:
        return method
    available = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in available else available[0]


def supported_reason(sched) -> Optional[str]:
    """Why this scheduler must take the serial loop (None = fast path).

    The support matrix is deliberately conservative: anything with a
    cross-rack coupling the barrier protocol does not mediate falls
    back, so the bit-for-bit contract can never silently break.
    """
    from repro.sched.cluster import RoutingPolicy, STATIC_ROUTINGS

    if sched.churn is not None:
        return "device churn reshapes the fleet mid-run"
    if sched.admission is not None:
        return "admission control predicts against fleet-global backlog"
    if sched.batching is not None:
        return "router batching holds arrivals in cluster-wide windows"
    if sched.sampler is not None:
        return "metrics sampling reads fleet-global gauges"
    if sched.verify_indexes:
        return "index verification runs fleet-wide reference scans"
    if sched.tracer.enabled and sched.tracer.audit_routing:
        return "routing audit scans the whole fleet per arrival"
    if sched.global_tokens and make_policy(sched.policy_name).uses_tokens:
        return "cluster token ledger couples every device"
    routing = sched.routing
    if routing in STATIC_ROUTINGS:
        return None
    if routing is RoutingPolicy.PREEMPTIVE_MIGRATION:
        return "preemptive migration gates on fabric state at foreign events"
    if sched.racks is None:
        return "flat-fleet online routing needs exact fleet-wide argmins"
    if sched.racks.num_racks < 2:
        return "single-rack topology has nothing to shard"
    if (
        routing is RoutingPolicy.WORK_STEALING
        and sched.cross_rack_threshold != math.inf
    ):
        return "finite cross-rack steal threshold couples racks"
    return None


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def _partition(sizes: Sequence[int], workers: int) -> List[List[int]]:
    """Split units (racks or devices) into <= ``workers`` contiguous
    groups, balanced by the per-unit ``sizes``; empty groups dropped."""
    total = sum(sizes)
    groups: List[List[int]] = [[] for _ in range(workers)]
    seen = 0
    for unit, size in enumerate(sizes):
        slot = min(workers - 1, (seen * workers) // total)
        groups[slot].append(unit)
        seen += size
    return [group for group in groups if group]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _Worker:
    """One shard: the full-size device list with foreign devices fenced
    off, plus the local half of the barrier protocol.

    Workers build *all* devices (so device ids, index structures, and
    rack maps keep their global shape) but flip ``accepts_work`` off on
    every non-owned device before constructing the indexes: a fenced
    device keys to an infinite backlog bound, is never idle, never a
    candidate, and its rack's frontend key pins to ``inf`` -- it simply
    cannot interact.  Only owned devices ever receive injections, so
    only owned devices ever have events.
    """

    def __init__(self, init: dict) -> None:
        from repro.sched.cluster import (
            ClusterScheduler,
            RoutingPolicy,
            _ClusterIndexes,
            _RackIndexes,
        )

        self._routing_ws = RoutingPolicy.WORK_STEALING
        sched = ClusterScheduler(
            init["num_devices"],
            init["simulation_config"],
            config=init["config"],
        )
        self.sched = sched
        self.owned = set(init["owned_devices"])
        self.owned_racks: Tuple[int, ...] = tuple(init["owned_racks"] or ())
        self.devices = [
            DeviceSim(
                sched.simulation_config,
                make_policy(sched.policy_name, ledger=None),
                device_id=index,
                tracer=sched.tracer,
            )
            for index in range(sched.num_devices)
        ]
        for index, device in enumerate(self.devices):
            if index not in self.owned:
                device.accepts_work = False
        if sched.racks is not None:
            self.indexes = _RackIndexes(self.devices, sched.racks)
        else:
            self.indexes = _ClusterIndexes(self.devices)
        self.indexes.tracer = sched.tracer
        self.inflight: Dict[int, List[Tuple[float, float, int]]] = {
            index: [] for index in range(sched.num_devices)
        }
        self.assignments: Dict[int, int] = {}
        self.migrations: List[object] = []
        self.runtimes: Dict[int, TaskRuntime] = {}
        #: Event-cut accounting (see the module docstring).  Every event
        #: at or before this shard's latest completion is provably at or
        #: before the global cut (the cut is the *max* completion key),
        #: so a running count suffices for those; only the keys seen
        #: since the latest completion -- the ``tail`` -- are kept for
        #: the finalize-time binary search.  Keys are (round, time,
        #: kind-rank, device), appended in ascending order.
        self.events_total = 0
        self.events_at_last_completion = 0
        self.last_completion: Optional[Tuple[int, float, int, int]] = None
        self.completions = 0
        self.tail_keys: List[Tuple[int, float, int, int]] = []
        #: (key, n_moves) per event whose steal pass moved work, in
        #: ascending key order; parallel to ``self.migrations``.
        self.move_log: List[Tuple[Tuple[int, float, int, int], int]] = []
        #: CPU seconds spent inside advance() calls -- the shard's
        #: event-processing compute, for scaling diagnostics.  CPU, not
        #: wall, so timesharing on an undersized host doesn't inflate it.
        self.busy_seconds = 0.0
        #: Every task, pre-shipped once at startup so the per-arrival
        #: route message carries only scalars.
        self.task_by_id = {task.task_id: task for task in init["tasks"]}
        static_targets = init["static_targets"]
        for task in init["tasks"]:
            target = static_targets.get(task.task_id)
            if target is None or target not in self.owned:
                continue
            self.assignments[task.task_id] = target
            self.runtimes[task.task_id] = task
            self.devices[target].inject(task)
            self.indexes.refresh(self.devices[target])

    def advance(
        self, round_no: int, limit: Optional[Tuple[float, int]]
    ) -> Tuple[List[Tuple[float, int]], Optional[Tuple[float, int]]]:
        """Process every local event with key <= ``limit`` (all of them
        when ``limit`` is None), replicating the serial loop body; then
        report the owned racks' routing keys and the next local key."""
        sched = self.sched
        devices = self.devices
        indexes = self.indexes
        profiler = sched.profiler
        steal = sched.routing is self._routing_ws
        busy_start = time.process_time()
        while True:
            device_index, device_key = indexes.peek_next_device()
            if device_index is None or device_key is None:
                break
            if limit is not None and device_key > limit:
                break
            stepped = devices[device_index]
            now = stepped.step()
            if profiler is None:
                indexes.refresh(stepped)
            else:
                start_ns = time.perf_counter_ns()
                indexes.refresh(stepped)
                profiler.add("index", time.perf_counter_ns() - start_ns)
            self.events_total += 1
            if steal and stepped.last_event_kind in (
                _EventKind.COMPLETE,
                _EventKind.ARRIVAL,
            ):
                passed = sched._steal(devices, now, self.assignments, indexes)
                if passed:
                    self.migrations.extend(passed)
                    self.move_log.append(
                        (
                            (round_no, device_key[0], device_key[1],
                             device_index),
                            len(passed),
                        )
                    )
            if stepped.last_completed is not None:
                self.completions += 1
                self.last_completion = (
                    round_no, device_key[0], device_key[1], device_index
                )
                self.events_at_last_completion = self.events_total
                self.tail_keys.clear()
            else:
                self.tail_keys.append(
                    (round_no, device_key[0], device_key[1], device_index)
                )
        self.busy_seconds += time.process_time() - busy_start
        rack_keys = []
        if self.owned_racks:
            keys = self.indexes._router.rack_keys(self.owned_racks)
            rack_keys = list(zip(keys, self.owned_racks))
        _, next_key = indexes.peek_next_device()
        return rack_keys, next_key

    def route(self, task_id: int, rack: int, now: float) -> None:
        """The in-rack half of the serial two-tier arrival pick."""
        task = self.task_by_id[task_id]
        sched = self.sched
        indexes = self.indexes
        profiler = sched.profiler
        start_ns = time.perf_counter_ns() if profiler is not None else 0
        tracer = sched.tracer
        if tracer.enabled:
            tracer.instant(
                "rack_pick", f"rack_pick r{rack}", now, args={"rack": rack}
            )
        best_key, _ = indexes._best_first(
            indexes._router.device_heap(rack),
            now,
            lambda d: sched._inbound_backlog(self.inflight, d, now),
        )
        if best_key is None:
            raise RuntimeError(
                f"rack {rack} frontend key is live but holds no accepting "
                "device"
            )
        if profiler is not None:
            profiler.add("route", time.perf_counter_ns() - start_ns)
        target = best_key[1]
        self.assignments[task.task_id] = target
        self.runtimes[task.task_id] = task
        self.devices[target].inject(task)
        self.indexes.refresh(self.devices[target])

    def cut_summary(self) -> dict:
        """Drain-round summary the coordinator derives the serial break
        point from: this shard's completion count, its last (largest)
        completion key, and its migration batches tagged by event key."""
        return {
            "last_completion": self.last_completion,
            "completions": self.completions,
            "moves": self.move_log,
        }

    def finalize(self, cut) -> dict:
        tracer = self.sched.tracer
        # Everything through this shard's latest completion is at or
        # before the cut; count the post-completion tail by binary
        # search (sorted ascending; the inf sentinel admits the cut
        # entry itself).
        events_before_cut = self.events_at_last_completion
        if cut is not None:
            events_before_cut += bisect.bisect_left(
                self.tail_keys, cut + (math.inf,)
            )
        return {
            "devices": [
                (
                    index,
                    self.devices[index].result(),
                    self.devices[index].timeline,
                    self.devices[index].num_tasks,
                )
                for index in sorted(self.owned)
            ],
            "assignments": self.assignments,
            "migrations": self.migrations,
            "runtimes": self.runtimes,
            "events_before_cut": events_before_cut,
            "tracer": (
                (tracer.events, tracer.dropped) if tracer.enabled else None
            ),
            "profiler": self.sched.profiler,
            "busy_seconds": self.busy_seconds,
        }


def _worker_main(conn, init: dict) -> None:
    """Process entry point (module-level for spawn compatibility)."""
    try:
        worker = _Worker(init)
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    try:
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "advance":
                reply = ("ok",) + worker.advance(message[1], message[2])
                if message[2] is None:  # the drain round
                    reply += (worker.cut_summary(),)
                conn.send(reply)
            elif tag == "route":
                worker.route(message[1], message[2], message[3])
            elif tag == "route_advance":
                # Combined inject + advance: one wakeup per arrival.
                worker.route(message[1], message[2], message[3])
                conn.send(("ok",) + worker.advance(message[4], message[5]))
            elif tag == "finalize":
                conn.send(("result", worker.finalize(message[1])))
            elif tag == "stop":
                break
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown message {tag!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _WorkerHandle:
    def __init__(self, ctx, init: dict):
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child, init), daemon=True
        )
        self.process.start()
        child.close()
        self.rack_keys: Dict[int, float] = {
            rack: 0.0 for rack in (init["owned_racks"] or ())
        }
        self.next_key: Optional[Tuple[float, int]] = None
        self.dirty = False

    def recv(self):
        reply = self.conn.recv()
        if reply[0] == "error":
            raise RuntimeError(f"parallel worker failed:\n{reply[1]}")
        return reply

    def shutdown(self) -> None:
        try:
            if self.process.is_alive():
                self.conn.send(("stop",))
        except Exception:
            pass
        try:
            self.conn.close()
        except Exception:
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - hung worker
            self.process.terminate()
            self.process.join(timeout=5)


def _worker_config(sched):
    """The config a worker scheduler is built from: same resolved
    decisions, fresh per-shard observability sinks, no recursion."""
    config = sched.config
    tracer = None
    if sched.tracer.enabled:
        tracer = Tracer(max_events=sched.tracer.max_events)
    profiler = None
    if sched.profiler is not None:
        profiler = type(sched.profiler)()
    return dataclasses.replace(
        config,
        workers=None,
        tracer=tracer,
        profiler=profiler,
        metrics_sampler=None,
    )


def run_parallel(sched, tasks: Sequence[TaskRuntime]):
    """Run ``sched``'s workload across worker processes; bit-for-bit
    equal to the serial :meth:`ClusterScheduler._run_gangs`.  Only call
    when :func:`supported_reason` returned None."""
    from repro.sched.cluster import STATIC_ROUTINGS

    if not tasks:
        raise ValueError("need at least one task")
    seen_ids: set = set()
    for task in tasks:
        if task.task_id in seen_ids:
            raise ValueError(f"duplicate task id {task.task_id} in workload")
        seen_ids.add(task.task_id)

    static = sched.routing in STATIC_ROUTINGS
    racks = sched.racks
    if racks is not None:
        rack_sizes = [
            len(racks.devices_in(rack)) for rack in range(racks.num_racks)
        ]
        rack_groups = _partition(rack_sizes, sched.workers)
        device_groups = [
            [d for rack in group for d in racks.devices_in(rack)]
            for group in rack_groups
        ]
    else:
        device_groups = _partition([1] * sched.num_devices, sched.workers)
        rack_groups = [None] * len(device_groups)

    static_assignments: Dict[int, int] = {}
    if static:
        static_assignments = sched.route(tasks)

    config = _worker_config(sched)
    ctx = multiprocessing.get_context(_start_method())
    handles: List[_WorkerHandle] = []
    owner_of_rack: Dict[int, int] = {}
    phases: Dict[str, float] = {}
    mark = time.perf_counter()

    def _phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    try:
        for slot, (group, rack_group) in enumerate(
            zip(device_groups, rack_groups)
        ):
            owned = set(group)
            init = {
                "num_devices": sched.num_devices,
                "simulation_config": sched.simulation_config,
                "config": config,
                "owned_devices": sorted(owned),
                "owned_racks": rack_group,
                "tasks": list(tasks),
                "static_targets": static_assignments,
            }
            handles.append(_WorkerHandle(ctx, init))
            for rack in rack_group or ():
                owner_of_rack[rack] = slot
        _phase("setup")

        profiler = sched.profiler
        round_no = 0
        if not static:
            # Per arrival: pick the rack from the cached keys (which
            # reflect every earlier route and every event at or before
            # this arrival -- the previous round's combined message
            # advanced exactly that far), then send ONE message to the
            # owning shard that both injects the task and advances it
            # through the *next* arrival, replying with fresh keys.
            # One worker wakeup per arrival is the protocol floor.
            pending = sorted(
                tasks, key=lambda t: (t.spec.arrival_cycles, t.task_id)
            )
            for index, task in enumerate(pending):
                rack = pick_rack_from_keys(
                    [
                        (key, rack)
                        for handle in handles
                        for rack, key in handle.rack_keys.items()
                    ]
                )
                if rack is None:
                    raise RuntimeError("rack frontend has no accepting rack")
                owner = handles[owner_of_rack[rack]]
                arrival = task.spec.arrival_cycles
                if index + 1 == len(pending):
                    # Last arrival: inject one-way; the drain round
                    # advances every shard anyway.
                    owner.conn.send(("route", task.task_id, rack, arrival))
                    owner.dirty = True
                    break
                round_no += 1
                limit = (
                    pending[index + 1].spec.arrival_cycles, _ARRIVAL_RANK
                )
                start_ns = (
                    time.perf_counter_ns() if profiler is not None else 0
                )
                owner.conn.send(
                    ("route_advance", task.task_id, rack, arrival,
                     round_no, limit)
                )
                waiting = [owner]
                for handle in handles:
                    if handle is owner:
                        continue
                    if handle.dirty or (
                        handle.next_key is not None
                        and handle.next_key <= limit
                    ):
                        handle.conn.send(("advance", round_no, limit))
                        waiting.append(handle)
                for handle in waiting:
                    _, rack_keys, next_key = handle.recv()
                    handle.rack_keys.update(
                        {rack_id: key for key, rack_id in rack_keys}
                    )
                    handle.next_key = next_key
                    handle.dirty = False
                if profiler is not None:
                    profiler.add("sync", time.perf_counter_ns() - start_ns)
        _phase("arrivals")

        # Drain: run every shard to quiescence.  The drain reply
        # carries each shard's cut summary; the serial loop's break
        # point is the largest completion key across shards.
        round_no += 1
        for handle in handles:
            handle.conn.send(("advance", round_no, None))
        summaries = [handle.recv()[3] for handle in handles]
        _phase("drain")
        cut = max(
            (
                summary["last_completion"]
                for summary in summaries
                if summary["last_completion"] is not None
            ),
            default=None,
        )
        completions = sum(s["completions"] for s in summaries)
        if completions != len(tasks):
            raise RuntimeError(
                f"parallel drain completed {completions}/{len(tasks)} tasks"
            )
        for handle in handles:
            handle.conn.send(("finalize", cut))
        payloads = [handle.recv()[1] for handle in handles]
        _phase("finalize")
    finally:
        for handle in handles:
            handle.shutdown()

    sched.last_run_parallel = True
    result = _merge(
        sched,
        tasks,
        payloads,
        summaries,
        cut,
        static_assignments if static else None,
    )
    _phase("merge")
    #: Scaling diagnostics for the most recent parallel run: coordinator
    #: wall seconds per phase plus each worker's in-advance compute
    #: seconds (``sum(worker_busy)/max(...)`` approximates the achieved
    #: drain-phase parallelism on a multi-core host).
    sched.last_parallel_stats = {
        "workers": len(payloads),
        "start_method": _start_method(),
        "phases": phases,
        "worker_busy_seconds": [p["busy_seconds"] for p in payloads],
    }
    return result


def _merge(
    sched,
    tasks: Sequence[TaskRuntime],
    payloads: List[dict],
    summaries: List[dict],
    cut,
    static_assignments: Optional[Dict[int, int]],
):
    """Fold worker payloads into the exact serial ClusterResult."""
    from repro.sched.cluster import ClusterResult

    # The serial loop processed events in global (round, time, rank,
    # device) order and stopped at the final completion -- the ``cut``
    # key.  Each worker already counted its own events at or before the
    # cut (``events_before_cut``, a binary search over its sorted local
    # log), so the serial event count is just the sum; the migration
    # batches come back tagged with their event keys, so sorting the
    # tags reproduces the serial migration order without shipping or
    # walking the event logs themselves.
    events_processed = sum(p["events_before_cut"] for p in payloads)
    tagged: List[Tuple[tuple, int, int, int]] = []
    for slot, summary in enumerate(summaries):
        start = 0
        for key, count in summary["moves"]:
            if key > cut:  # pragma: no cover - breaks the determinism proof
                raise RuntimeError(
                    f"worker {slot} produced {count} migrations after "
                    "the final completion"
                )
            tagged.append((key, slot, start, count))
            start += count
    tagged.sort()
    migrations: List[object] = []
    for _, slot, start, count in tagged:
        migrations.extend(payloads[slot]["migrations"][start:start + count])

    # Device results, in fleet index order, None-preserving.
    device_results: List[object] = [None] * sched.num_devices
    timelines: Dict[int, object] = {}
    for payload in payloads:
        for index, result, timeline, num_tasks in payload["devices"]:
            device_results[index] = result
            if num_tasks > 0 or len(timeline) > 0:
                timelines[index] = timeline

    # Copy worker-side runtime mutations back onto the caller's objects
    # so result.tasks preserves identity, exactly like the serial loop.
    returned: Dict[int, TaskRuntime] = {}
    for payload in payloads:
        returned.update(payload["runtimes"])
    fields = dataclasses.fields(TaskRuntime)
    for task in tasks:
        shipped = returned[task.task_id]
        for field in fields:
            setattr(task, field.name, getattr(shipped, field.name))

    if static_assignments is not None:
        assignments = {
            task.task_id: static_assignments[task.task_id] for task in tasks
        }
    else:
        assignments = {}
        for payload in payloads:
            assignments.update(payload["assignments"])

    tracer = sched.tracer
    if tracer.enabled:
        shards = [p["tracer"] for p in payloads if p["tracer"] is not None]
        tracer.merge_shards([events for events, _ in shards])
        tracer.dropped += sum(dropped for _, dropped in shards)
    if sched.profiler is not None:
        for payload in payloads:
            if payload["profiler"] is not None:
                sched.profiler.merge(payload["profiler"])

    return ClusterResult(
        tasks=tuple(tasks),
        device_results=tuple(device_results),
        assignments=assignments,
        routing=sched.routing.value,
        migrations=tuple(migrations),
        timeline=ClusterTimeline(timelines, transfers=()),
        transfers=(),
        admission_records=(),
        rejected_tasks=(),
        events_processed=events_processed,
        lost_tasks=(),
        rack_of=sched.rack_of,
    )

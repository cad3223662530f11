"""Structured event tracing for the cluster simulation.

A :class:`Tracer` collects typed span/instant events from every layer of
the stack -- device dispatch/preemption/checkpoint/restore
(``simulator.py``), routing, admission, stealing, migration, batching,
and rack picks (``cluster.py``), interconnect transfers
(``interconnect.py``), churn transitions (``faults.py``), and batch
merges (``job.py``) -- and exports them as Chrome-trace ("trace event
format") JSON that opens directly in the Perfetto UI
(https://ui.perfetto.dev) or ``chrome://tracing``.

Track layout (the part Perfetto renders as the left-hand tree):

- **racks are process groups**: every device thread lives under the pid
  of its rack (one synthetic "fleet" process when the run is unracked);
- **devices are threads**: one ``tid`` per device, named ``device N``;
- the **control plane** (router, admission, churn, batching, audit) is
  its own process with a single thread;
- the **interconnect** is a process with one thread per link, so each
  link's FIFO occupancy reads as a lane of back-to-back transfer spans.

Timestamps are simulation *cycles*, not microseconds -- the exported
``displayTimeUnit`` is "ns" purely so Perfetto shows compact numbers.
Events are exported sorted by timestamp (stable on emission order), so
every track is monotonic in the artifact; :func:`validate_chrome_trace`
checks that along with the schema.

The zero-cost-off contract: :data:`NULL_TRACER` is a slotted, stateless
singleton whose methods are no-ops and whose class attribute
``enabled`` is ``False``.  Every emission site in the simulator guards
with ``if tracer.enabled:`` *before* building the event's ``args``
dict, so a run without tracing performs one attribute load per
potential event and allocates nothing.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

#: Every event kind the stack emits, for validation and docs.  The
#: ``cat`` field of each exported event carries the kind, so Perfetto
#: queries can filter on it (`select * from slice where category = ...`).
EVENT_KINDS = frozenset(
    {
        "dispatch",  # device starts (or resumes) a task
        "run",  # executed span of one dispatch
        "restore",  # checkpoint-restore span preceding a resumed run
        "checkpoint",  # preemption trap DMA span
        "preemption",  # scheduler decision instant (victim + mechanism)
        "complete",  # task finished on a device
        "device_fail",  # fail-stop instant (churn)
        "migration",  # checkpoint shipped src -> dst (steal = zero bytes)
        "transfer",  # interconnect occupancy of one transfer
        "admission",  # accept / defer / reject decision
        "churn",  # availability phase transition (warn/down/restore)
        "batch_flush",  # coalescing window closed, gang dispatched
        "batch_merge",  # member runtimes merged into one proxy
        "rack_pick",  # two-tier frontend chose a rack
        "route_audit",  # decision audit: chosen device + runner-ups
        "metric",  # sampled counter series (MetricsSampler flush)
    }
)

#: Phases used from the Chrome trace event format.
_PHASES = frozenset({"X", "i", "C", "M"})

#: Synthetic pid for the control-plane (router) process.
CONTROL_PID = 1
#: Synthetic pid for the interconnect process.
FABRIC_PID = 2
#: Racks claim pids from here up (rack r -> RACK_PID_BASE + r).
RACK_PID_BASE = 10


class NullTracer:
    """Do-nothing tracer: the default wired through every layer.

    Stateless and slotted -- calling any method allocates nothing.
    Emission sites check :attr:`enabled` (a class attribute, one load)
    before building args, so the off path never constructs a dict.
    """

    __slots__ = ()

    enabled = False
    audit_routing = False

    def instant(self, kind, name, ts, device=-1, link=None, args=None):
        """No-op."""

    def span(self, kind, name, start, end, device=-1, link=None, args=None):
        """No-op."""

    def counter(self, name, ts, value):
        """No-op."""


#: The shared no-op singleton.  Identity-comparable: ``tracer is
#: NULL_TRACER`` is the cheap "is tracing off?" test.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects typed events and exports Chrome-trace/Perfetto JSON.

    ``max_events`` bounds memory: once the buffer is full further
    events increment :attr:`dropped` instead of growing the list (the
    export records the drop count in trace metadata, so a truncated
    artifact is self-describing).

    ``audit_routing`` turns on decision auditing: the cluster router
    additionally emits a ``route_audit`` instant per routed arrival
    carrying the chosen device, the runner-up devices, and their
    corrected-backlog / lower-bound values.  Auditing is allowed to be
    expensive (it performs a full fleet scan per arrival); it exists to
    answer "why device 3?", not to run in production sweeps.
    """

    enabled = True

    def __init__(
        self,
        *,
        audit_routing: bool = False,
        max_events: int = 1_000_000,
    ) -> None:
        self.audit_routing = audit_routing
        self.max_events = max_events
        #: Emitted events: (phase, kind, name, ts, dur_or_value, device,
        #: link, args).  ``device`` < 0 means the control-plane track;
        #: ``link`` (any hashable) overrides onto an interconnect track.
        self.events: List[tuple] = []
        self.dropped = 0
        self._num_devices = 0
        self._rack_of: Optional[Callable[[int], int]] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def bind_topology(
        self,
        num_devices: int,
        rack_of: Optional[Callable[[int], int]] = None,
    ) -> None:
        """Declare the fleet shape so export can map tracks to pids.

        ``rack_of`` maps device id -> rack id; ``None`` renders a single
        "fleet" process.  The cluster scheduler calls this at run start.
        """
        self._num_devices = max(self._num_devices, num_devices)
        if rack_of is not None:
            self._rack_of = rack_of

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def instant(
        self,
        kind: str,
        name: str,
        ts: float,
        device: int = -1,
        link=None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a zero-duration event at cycle ``ts``."""
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(("i", kind, name, float(ts), 0.0, device, link, args))

    def span(
        self,
        kind: str,
        name: str,
        start: float,
        end: float,
        device: int = -1,
        link=None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a complete span [start, end]; zero-length spans are
        stored as instants so they stay visible in the Perfetto UI."""
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        start = float(start)
        duration = float(end) - start
        if duration <= 0.0:
            self.events.append(("i", kind, name, start, 0.0, device, link, args))
        else:
            self.events.append(
                ("X", kind, name, start, duration, device, link, args)
            )

    def counter(self, name: str, ts: float, value: float) -> None:
        """Record one point of a counter series (Perfetto line graph)."""
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(
            ("C", "metric", name, float(ts), float(value), -1, None, None)
        )

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> Dict[str, object]:
        """Render the collected events as a Chrome-trace JSON payload."""
        rack_of = self._rack_of
        link_tids: Dict[object, int] = {}
        metadata: List[dict] = []
        seen_pids: Dict[int, str] = {}
        seen_tids: Dict[Tuple[int, int], str] = {}

        def pid_of_device(device: int) -> int:
            if rack_of is None:
                return RACK_PID_BASE
            return RACK_PID_BASE + rack_of(device)

        def register(pid: int, tid: int, pname: str, tname: str) -> None:
            if pid not in seen_pids:
                seen_pids[pid] = pname
            if (pid, tid) not in seen_tids:
                seen_tids[(pid, tid)] = tname

        indexed = sorted(
            enumerate(self.events), key=lambda pair: (pair[1][3], pair[0])
        )
        trace_events: List[dict] = []
        for _, event in indexed:
            phase, kind, name, ts, dur_or_value, device, link, args = event
            if phase == "C":
                register(CONTROL_PID, 0, "control plane", "router")
                trace_events.append(
                    {
                        "name": name,
                        "cat": kind,
                        "ph": "C",
                        "ts": ts,
                        "pid": CONTROL_PID,
                        "tid": 0,
                        "args": {"value": dur_or_value},
                    }
                )
                continue
            if link is not None:
                pid = FABRIC_PID
                tid = link_tids.setdefault(link, len(link_tids))
                register(pid, tid, "interconnect", f"link {link}")
            elif device >= 0:
                pid = pid_of_device(device)
                tid = device
                pname = (
                    f"rack {pid - RACK_PID_BASE}"
                    if rack_of is not None
                    else "fleet"
                )
                register(pid, tid, pname, f"device {device}")
            else:
                pid, tid = CONTROL_PID, 0
                register(pid, tid, "control plane", "router")
            record = {
                "name": name,
                "cat": kind,
                "ph": phase,
                "ts": ts,
                "pid": pid,
                "tid": tid,
            }
            if phase == "X":
                record["dur"] = dur_or_value
            else:
                record["s"] = "t"  # thread-scoped instant
            if args:
                record["args"] = args
            trace_events.append(record)

        for pid, pname in sorted(seen_pids.items()):
            metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": pname},
                }
            )
            metadata.append(
                {
                    "name": "process_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"sort_index": pid},
                }
            )
        for (pid, tid), tname in sorted(seen_tids.items()):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": tname},
                }
            )
        return {
            "traceEvents": metadata + trace_events,
            "displayTimeUnit": "ns",
            "otherData": {
                "clock": "simulation cycles",
                "num_devices": self._num_devices,
                "dropped_events": self.dropped,
            },
        }

    def write(self, path) -> None:
        """Write the Chrome-trace JSON artifact to ``path``."""
        payload = self.chrome_trace()
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


# ----------------------------------------------------------------------
# Loading / validation
# ----------------------------------------------------------------------
def load_chrome_trace(path) -> Dict[str, object]:
    """Load a trace artifact written by :meth:`Tracer.write`."""
    with open(path) as handle:
        return json.load(handle)


def validate_chrome_trace(
    payload: Dict[str, object],
    num_devices: Optional[int] = None,
) -> Dict[str, int]:
    """Schema-check a Chrome-trace payload; raise ``ValueError`` on the
    first malformed event.

    Checks: the container shape; every event's phase/name/pid/tid/ts
    types; non-negative durations; ``cat`` drawn from
    :data:`EVENT_KINDS`; per-(pid, tid) track monotonicity of
    timestamps; and that every track carrying events has a
    ``thread_name`` metadata record (the device/rack mapping Perfetto
    renders).  With ``num_devices``, additionally requires every device
    event's tid to be a valid device id.  Returns occurrence counts per
    phase for test assertions.
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("payload is not a Chrome-trace object")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents is not a list")
    counts: Dict[str, int] = {"X": 0, "i": 0, "C": 0, "M": 0}
    last_ts: Dict[Tuple[int, int], float] = {}
    named_threads = set()
    named_processes = set()
    used_tracks = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {index} is not an object")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ValueError(f"event {index} has unknown phase {phase!r}")
        counts[phase] += 1
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"event {index} has no name")
        pid, tid = event.get("pid"), event.get("tid")
        if not isinstance(pid, int) or not isinstance(tid, int):
            raise ValueError(f"event {index} has non-integer pid/tid")
        if phase == "M":
            if name == "thread_name":
                named_threads.add((pid, tid))
            elif name == "process_name":
                named_processes.add(pid)
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {index} has bad ts {ts!r}")
        category = event.get("cat")
        if category not in EVENT_KINDS:
            raise ValueError(f"event {index} has unknown cat {category!r}")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                raise ValueError(f"event {index} has bad dur {duration!r}")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(value, (int, float)) for value in args.values()
            ):
                raise ValueError(f"counter event {index} has bad args")
        track = (pid, tid)
        if ts < last_ts.get(track, 0.0):
            raise ValueError(
                f"event {index} breaks monotonicity on track {track}: "
                f"{ts} < {last_ts[track]}"
            )
        last_ts[track] = ts
        used_tracks.add(track)
        if (
            num_devices is not None
            and pid >= RACK_PID_BASE
            and not 0 <= tid < num_devices
        ):
            raise ValueError(f"event {index} names unknown device {tid}")
    missing = used_tracks - named_threads
    if missing:
        raise ValueError(f"tracks without thread_name metadata: {missing}")
    missing_pids = {pid for pid, _ in used_tracks} - named_processes
    if missing_pids:
        raise ValueError(f"pids without process_name metadata: {missing_pids}")
    return counts

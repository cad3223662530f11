"""Device churn: fail-stop faults, spot revocations, maintenance drains.

The cluster so far assumed immortal devices; this module supplies the
failure model that turns the checkpoint/migration machinery into a
fault-tolerance story.  Three event kinds, all deterministic and seeded:

- **fail-stop fault** -- the device dies with *no* warning (``warn ==
  down``).  Running and checkpointing work is killed, non-durable
  progress is lost, queued tasks are orphaned back to the frontier.
- **spot revocation** -- the provider announces the reclaim ``warn``
  cycles in advance (the Parcae setting).  A proactive scheduler uses
  the window to drain durable checkpoints and checkpoint-then-migrate
  running work to surviving devices before the deadline.
- **maintenance drain** -- like a revocation but always restored: the
  device re-enters service at ``restore_cycles``.

Availability is a per-device state machine::

    HEALTHY --warn--> WARNED/DRAINING --down--> DOWN --restore--> HEALTHY

(``WARNED`` for revocations/faults, ``DRAINING`` for maintenance; the
two differ only in provenance -- the scheduler treats both as "doomed,
evacuate if proactive".)

Determinism contract: :meth:`ChurnSchedule.generate` draws every sample
from named per-unit RNG substreams (``seed ^ 0xFA17 ^ unit``, the unit
being a device for :meth:`~ChurnSchedule.generate` and a rack for
:meth:`~ChurnSchedule.generate_rack_correlated`), mirroring how
``trace.assign_qos`` tags arrivals -- enabling churn never perturbs the
arrival or runtime streams, so a churn-enabled run sees bit-identical
task traces to a churn-free one.  Substreams additionally make the
schedule *partition-stable*: unit ``u``'s outage windows are a pure
function of ``(seed, u, rates)`` alone, so growing the fleet never
reshuffles the outages of the units that were already there, and
drawing only racks ``0..k`` reproduces exactly the events the global
draw assigned them (``tests/test_churn.py`` pins both).  Only the global
``max_concurrent_down`` cap couples units, and it does so through a
deterministic post-pass arbitration over the independently drawn
windows (earliest warning wins), not through the RNG streams.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import math
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.trace import NULL_TRACER
from repro.sched.simulator import EventQueue, _EventKind

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "DeviceAvailability",
    "FleetAvailability",
    "CHURN_STREAM_SALT",
]

#: Named-RNG-stream salt for churn schedules (``trace.assign_qos`` uses
#: ``0x0905``); XORed into the workload seed so the churn stream is
#: independent of every other stream derived from the same seed.
CHURN_STREAM_SALT = 0xFA17

#: The three churn event kinds.
EVENT_KINDS = ("fault", "revocation", "drain")


def _unit_stream(seed: int, unit: int) -> random.Random:
    """The named churn substream of one unit (device or rack)."""
    return random.Random(seed ^ CHURN_STREAM_SALT ^ unit)


def _churn_processes(
    horizon_cycles: float, fault_rate: float, revocation_rate: float,
    drain_rate: float, mean_outage_cycles: float, mean_warning_cycles: float,
) -> Tuple[Tuple[str, float], ...]:
    """The draw's ``(kind, rate)`` processes with a positive rate, after
    checking its arguments: the draw loop ends only once its clock
    passes a finite horizon, and every gap it draws must be finite."""
    if not 0.0 < horizon_cycles < math.inf:
        raise ValueError("horizon_cycles must be positive and finite")
    rates = (
        ("fault", fault_rate),
        ("revocation", revocation_rate),
        ("drain", drain_rate),
    )
    for kind, rate in rates:
        if not 0.0 <= rate < math.inf:
            raise ValueError(f"{kind}_rate must be non-negative and finite")
    for name, mean in (
        ("mean_outage_cycles", mean_outage_cycles),
        ("mean_warning_cycles", mean_warning_cycles),
    ):
        if not 0.0 < mean < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    return tuple((kind, rate) for kind, rate in rates if rate > 0.0)


def _draw_unit_windows(
    rng: random.Random,
    horizon_cycles: float,
    processes: Tuple[Tuple[str, float], ...],
    mean_outage_cycles: float,
    mean_warning_cycles: float,
    never_restore_probability: float,
) -> List[Tuple[float, float, float, str, bool]]:
    """One unit's candidate outage windows, from its own substream.

    Returns ``(warn, down, restore, kind, never)`` tuples in clock
    order.  The draw is deliberately independent of the concurrency-cap
    arbitration: the clock advances identically whether a window is
    later accepted or skipped (``restore`` for finite outages, ``down``
    for a never-restoring one), so a unit's candidates are a pure
    function of its substream -- the partition-stability contract.  A
    never-restoring window keeps the tail candidates attached; the
    arbitration drops them only if that window is actually accepted.
    """
    candidates: List[Tuple[float, float, float, str, bool]] = []
    clock = 0.0
    while processes:
        total_rate = sum(rate for _, rate in processes)
        clock += rng.expovariate(total_rate)
        if clock >= horizon_cycles:
            break
        pick = rng.random() * total_rate
        kind = processes[-1][0]
        for candidate, rate in processes:
            pick -= rate
            if pick <= 0.0:
                kind = candidate
                break
        warn_gap = (
            0.0
            if kind == "fault"
            else rng.expovariate(1.0 / mean_warning_cycles)
        )
        outage = rng.expovariate(1.0 / mean_outage_cycles)
        never = (
            kind == "revocation"
            and rng.random() < never_restore_probability
        )
        warn = clock
        down = warn + warn_gap
        restore = math.inf if never else down + outage
        candidates.append((warn, down, restore, kind, never))
        clock = down if never else restore
    return candidates


def _arbitrate_windows(
    unit_candidates: List[List[Tuple[float, float, float, str, bool]]],
    max_concurrent: int,
) -> List[List[Tuple[float, float, float, str, bool]]]:
    """Apply the global concurrency cap over per-unit candidate windows.

    Deterministic post-pass: windows are visited in ``(warn, unit)``
    order -- earliest warning wins the capacity -- and a window that
    would put more than ``max_concurrent`` units inside their ``[warn,
    restore)`` span at once is skipped.  Accepting a never-restoring
    window drops the unit's remaining candidates (the unit is gone for
    good), exactly like the draw loop's early exit.  Returns the
    accepted windows per unit, in clock order.
    """
    entries: List[Tuple[float, int, int]] = []
    for unit, candidates in enumerate(unit_candidates):
        for position, window in enumerate(candidates):
            entries.append((window[0], unit, position))
    entries.sort()
    windows: List[Tuple[float, float]] = []
    dead_after: Dict[int, int] = {}
    accepted: List[List[Tuple[float, float, float, str, bool]]] = [
        [] for _ in unit_candidates
    ]
    for warn, unit, position in entries:
        if unit in dead_after and position > dead_after[unit]:
            continue  # the unit never came back from an earlier window
        window = unit_candidates[unit][position]
        restore = window[2]
        concurrent = sum(1 for w, r in windows if warn < r and w < restore)
        if concurrent >= max_concurrent:
            continue  # skip: too much of the fleet would be dark at once
        accepted[unit].append(window)
        windows.append((warn, restore))
        if window[4]:
            dead_after[unit] = position
    return accepted


@dataclasses.dataclass(frozen=True)
class ChurnEvent:
    """One availability outage on one device.

    ``warn_cycles <= down_cycles < restore_cycles``; a fail-stop fault
    has ``warn_cycles == down_cycles`` (no advance notice), and a
    revocation that never returns has ``restore_cycles == math.inf``.
    """

    device: int
    kind: str
    warn_cycles: float
    down_cycles: float
    restore_cycles: float

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown churn event kind {self.kind!r}; "
                f"expected one of {EVENT_KINDS}"
            )
        if self.device < 0:
            raise ValueError(f"negative device index {self.device}")
        if not self.warn_cycles <= self.down_cycles:
            raise ValueError(
                f"warning must not follow the outage: warn="
                f"{self.warn_cycles} > down={self.down_cycles}"
            )
        if not self.down_cycles < self.restore_cycles:
            raise ValueError(
                f"restore must follow the outage: down="
                f"{self.down_cycles} >= restore={self.restore_cycles}"
            )
        if self.kind == "fault" and self.warn_cycles != self.down_cycles:
            raise ValueError(
                "fail-stop faults carry no advance warning "
                f"(warn={self.warn_cycles} != down={self.down_cycles})"
            )
        if self.kind == "drain" and math.isinf(self.restore_cycles):
            raise ValueError("maintenance drains always restore")

    @property
    def warning_window_cycles(self) -> float:
        """Advance notice the scheduler gets before capacity vanishes."""
        return self.down_cycles - self.warn_cycles

    @property
    def outage_cycles(self) -> float:
        """How long the device stays down (``inf`` if never restored)."""
        return self.restore_cycles - self.down_cycles


@dataclasses.dataclass(frozen=True)
class ChurnSchedule:
    """A deterministic, validated set of outages for a device fleet.

    Events on the same device must not overlap: each event's
    ``warn_cycles`` must be at or after the previous event's
    ``restore_cycles``.  An empty schedule is valid and behaves exactly
    like churn disabled.
    """

    events: Tuple[ChurnEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        per_device: Dict[int, List[ChurnEvent]] = {}
        for event in self.events:
            per_device.setdefault(event.device, []).append(event)
        for device, device_events in per_device.items():
            ordered = sorted(device_events, key=lambda e: e.warn_cycles)
            for prev, nxt in zip(ordered, ordered[1:]):
                if nxt.warn_cycles < prev.restore_cycles:
                    raise ValueError(
                        f"overlapping churn events on device {device}: "
                        f"[{prev.warn_cycles}, {prev.restore_cycles}) and "
                        f"[{nxt.warn_cycles}, {nxt.restore_cycles})"
                    )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ChurnEvent]:
        return iter(self.events)

    def events_for(self, device: int) -> Tuple[ChurnEvent, ...]:
        return tuple(
            sorted(
                (e for e in self.events if e.device == device),
                key=lambda e: e.warn_cycles,
            )
        )

    @property
    def num_revocations(self) -> int:
        return sum(1 for e in self.events if e.kind == "revocation")

    @classmethod
    def generate(
        cls,
        num_devices: int,
        horizon_cycles: float,
        seed: int = 0,
        *,
        fault_rate: float = 0.0,
        revocation_rate: float = 0.0,
        drain_rate: float = 0.0,
        mean_outage_cycles: float = 1.0e6,
        mean_warning_cycles: float = 1.0e6,
        never_restore_probability: float = 0.0,
        max_concurrent_down: Optional[int] = None,
    ) -> "ChurnSchedule":
        """Draw a schedule from per-device churn RNG substreams.

        Rates are events per cycle (Poisson processes per device); gaps
        between events on one device are exponential.  Outage durations
        and warning windows are exponential around their means.  With
        probability ``never_restore_probability`` a revocation never
        restores (the spot instance is gone for good).

        ``max_concurrent_down`` caps how many devices can be in their
        ``[warn, restore)`` window at once -- arbitration (earliest
        warning wins) skips events that would exceed it, so some
        capacity always survives.  It defaults to ``num_devices - 1``.

        Device ``d``'s candidate windows come from ``random.Random(seed
        ^ CHURN_STREAM_SALT ^ d)`` alone, so they are a pure function of
        ``(seed, d, rates)``: growing the fleet never reshuffles the
        outages of existing devices.
        """
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        processes = _churn_processes(
            horizon_cycles, fault_rate, revocation_rate, drain_rate,
            mean_outage_cycles, mean_warning_cycles,
        )
        if max_concurrent_down is None:
            max_concurrent_down = max(0, num_devices - 1)
        candidates = [
            _draw_unit_windows(
                _unit_stream(seed, device),
                horizon_cycles,
                processes,
                mean_outage_cycles,
                mean_warning_cycles,
                never_restore_probability,
            )
            for device in range(num_devices)
        ]
        accepted = _arbitrate_windows(candidates, max_concurrent_down)
        events: List[ChurnEvent] = []
        for device in range(num_devices):
            for warn, down, restore, kind, _never in accepted[device]:
                events.append(
                    ChurnEvent(
                        device=device,
                        kind=kind,
                        warn_cycles=warn,
                        down_cycles=down,
                        restore_cycles=restore,
                    )
                )
        return cls(events=tuple(events))

    @classmethod
    def generate_rack_correlated(
        cls,
        rack_of: Sequence[int],
        horizon_cycles: float,
        seed: int = 0,
        *,
        fault_rate: float = 0.0,
        revocation_rate: float = 0.0,
        drain_rate: float = 0.0,
        mean_outage_cycles: float = 1.0e6,
        mean_warning_cycles: float = 1.0e6,
        never_restore_probability: float = 0.0,
        max_concurrent_down_racks: Optional[int] = None,
    ) -> "ChurnSchedule":
        """Draw a schedule where outages hit whole racks at once.

        The failure domains real fleets see -- a ToR switch dying, a
        rack PDU tripping, a maintenance drain of one rack -- take every
        device behind them down together.  This generator runs the same
        Poisson processes as :meth:`generate` but *per rack* (rack ``r``
        draws from ``random.Random(seed ^ CHURN_STREAM_SALT ^ r)``), and
        each accepted rack event expands to one :class:`ChurnEvent` per
        member device with identical warn/down/restore cycles, so the
        whole rack goes dark and comes back as a unit.

        ``rack_of`` is the device->rack map (``RackTopology.rack_of``).
        Rates are events per cycle *per rack*.
        ``max_concurrent_down_racks`` caps how many racks can be inside
        their ``[warn, restore)`` window at once (default: all but one),
        so some rack always survives to absorb evacuations.
        """
        rack_of = tuple(rack_of)
        if not rack_of:
            raise ValueError("rack_of must cover at least one device")
        processes = _churn_processes(
            horizon_cycles, fault_rate, revocation_rate, drain_rate,
            mean_outage_cycles, mean_warning_cycles,
        )
        num_racks = max(rack_of) + 1
        members: List[List[int]] = [[] for _ in range(num_racks)]
        for device, rack in enumerate(rack_of):
            if rack < 0:
                raise ValueError(f"negative rack id for device {device}")
            members[rack].append(device)
        if any(not devs for devs in members):
            raise ValueError("rack ids must be contiguous and non-empty")
        if max_concurrent_down_racks is None:
            max_concurrent_down_racks = max(0, num_racks - 1)
        candidates = [
            _draw_unit_windows(
                _unit_stream(seed, rack),
                horizon_cycles,
                processes,
                mean_outage_cycles,
                mean_warning_cycles,
                never_restore_probability,
            )
            for rack in range(num_racks)
        ]
        accepted = _arbitrate_windows(candidates, max_concurrent_down_racks)
        events: List[ChurnEvent] = []
        for rack in range(num_racks):
            for warn, down, restore, kind, _never in accepted[rack]:
                for device in members[rack]:
                    events.append(
                        ChurnEvent(
                            device=device,
                            kind=kind,
                            warn_cycles=warn,
                            down_cycles=down,
                            restore_cycles=restore,
                        )
                    )
        return cls(events=tuple(events))


class DeviceAvailability(enum.Enum):
    """Where a device sits in its outage lifecycle."""

    HEALTHY = "healthy"
    WARNED = "warned"        # revocation/fault announced, still serving
    DRAINING = "draining"    # maintenance announced, still serving
    DOWN = "down"


#: Transition phases, in the order they occur within one event.
_PHASES = ("warn", "down", "restore", "check")


@dataclasses.dataclass(frozen=True)
class Transition:
    """One availability transition, popped from the fleet heap.

    ``phase`` is one of ``warn``/``down``/``restore`` (event lifecycle)
    or ``check`` (a scheduler-requested wake, e.g. "this device's forced
    checkpoint lands now -- re-run evacuation").
    """

    time_cycles: float
    phase: str
    device: int
    event: Optional[ChurnEvent] = None


class FleetAvailability:
    """Per-device availability states plus the transition time-heap.

    Given a cluster run's ``queue``, every transition pushed here also
    queues a payload-free TRANSITION wake there, which ranks after
    same-time completions and before every other same-time wake; the
    run pops the next transition when its wake fires.  ``apply`` updates
    the state machine; the run performs the side effects (kill, orphan,
    evacuate, re-index).
    """

    def __init__(
        self,
        num_devices: int,
        schedule: Optional[ChurnSchedule] = None,
        queue: Optional[EventQueue] = None,
    ) -> None:
        self.num_devices = num_devices
        self.states: List[DeviceAvailability] = [
            DeviceAvailability.HEALTHY for _ in range(num_devices)
        ]
        #: Observability sink; the cluster scheduler replaces this with
        #: its tracer.  Default no-op singleton: zero cost when off.
        self.tracer = NULL_TRACER
        self._queue = queue
        # (time, seq, phase, device, event); seq breaks ties in push
        # order, which matches event order (restore precedes a same-time
        # warn of the next event on the same device).
        self._heap: List[
            Tuple[float, int, str, int, Optional[ChurnEvent]]
        ] = []
        self._seq = 0
        if schedule is not None:
            for event in sorted(
                schedule.events,
                key=lambda e: (e.warn_cycles, e.device),
            ):
                if event.device >= num_devices:
                    continue  # schedule generated for a larger fleet
                if event.warn_cycles < event.down_cycles:
                    self._push(event.warn_cycles, "warn", event.device, event)
                self._push(event.down_cycles, "down", event.device, event)
                if not math.isinf(event.restore_cycles):
                    self._push(
                        event.restore_cycles, "restore", event.device, event
                    )

    def _push(
        self,
        time_cycles: float,
        phase: str,
        device: int,
        event: Optional[ChurnEvent],
    ) -> None:
        if phase not in _PHASES:
            raise ValueError(f"unknown transition phase {phase!r}")
        heapq.heappush(
            self._heap, (time_cycles, self._seq, phase, device, event)
        )
        self._seq += 1
        if self._queue is not None:
            self._queue.push(time_cycles, _EventKind.TRANSITION, None, None)

    def push_check(self, time_cycles: float, device: int) -> None:
        """Schedule a scheduler wake (e.g. a forced checkpoint landing)."""
        self._push(time_cycles, "check", device, None)

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def __bool__(self) -> bool:
        return bool(self._heap)

    def pop(self) -> Transition:
        time_cycles, _, phase, device, event = heapq.heappop(self._heap)
        return Transition(
            time_cycles=time_cycles, phase=phase, device=device, event=event
        )

    def state(self, device: int) -> DeviceAvailability:
        return self.states[device]

    def is_doomed(self, device: int) -> bool:
        """True while the device is warned, draining, or down."""
        return self.states[device] is not DeviceAvailability.HEALTHY

    def surviving(self) -> Sequence[int]:
        """Devices currently serving (not DOWN)."""
        return [
            d
            for d in range(self.num_devices)
            if self.states[d] is not DeviceAvailability.DOWN
        ]

    def apply(self, transition: Transition) -> None:
        """Advance the state machine for one popped transition."""
        device = transition.device
        if self.tracer.enabled and transition.phase != "check":
            self.tracer.instant(
                "churn",
                f"churn {transition.phase} dev{device}",
                transition.time_cycles,
                args={
                    "device": device,
                    "phase": transition.phase,
                    "kind": (
                        transition.event.kind if transition.event else None
                    ),
                },
            )
        if transition.phase == "warn":
            kind = transition.event.kind if transition.event else "revocation"
            self.states[device] = (
                DeviceAvailability.DRAINING
                if kind == "drain"
                else DeviceAvailability.WARNED
            )
        elif transition.phase == "down":
            self.states[device] = DeviceAvailability.DOWN
        elif transition.phase == "restore":
            self.states[device] = DeviceAvailability.HEALTHY
        # "check" transitions carry no state change.

"""Modeled inter-NPU interconnect for checkpoint migration.

The paper's preemption mechanisms (Sec IV) persist a preempted task's
context -- CONV/FC output activations resident in UBUF plus the in-flight
ACCQ tile, or an RNN cell state -- to the device's DRAM.  The cluster
layer's :class:`~repro.sched.cluster.RoutingPolicy.PREEMPTIVE_MIGRATION`
extends that: the saved checkpoint is *shipped* to another NPU's DRAM so
the victim can resume elsewhere.  This module models the fabric that
shipment crosses.

The model is deliberately at the same fidelity as the paper's memory
system (:mod:`repro.npu.memory`): fixed per-link bandwidth, fixed
propagation latency, and FIFO contention per link.  Two topologies:

``p2p``
    One dedicated full-duplex link per ordered device pair (an NVSwitch /
    PCIe-switch-with-independent-lanes abstraction).  Transfers between
    different pairs never contend.
``bus``
    One shared half-duplex medium: every transfer in the cluster
    serializes (a single host PCIe root complex under pressure).

Presets (:meth:`InterconnectConfig.pcie_gen3` and friends) express
real-fabric bandwidths in *cycles* of the NPU's PE clock so the cluster
event loop charges transfer time in its native unit.

**Two-level (rack) fabric.** Passing ``rack_of`` to :class:`Interconnect`
partitions the fleet into racks.  Intra-rack transfers see exactly the
flat model above, scoped to the rack (a per-rack bus, or per-pair links
as before).  Cross-rack transfers cross *two* resources -- the source
device's rack-local egress link and the source rack's shared uplink --
and hold both for the transfer's duration (circuit style: the payload
streams at the bottleneck rate, so store-and-forward buffering is not
modeled separately).  The uplink is oversubscribed: its bandwidth is the
rack-local bandwidth divided by ``uplink_oversubscription``, and every
cross-rack transfer leaving a rack serializes on that rack's single
uplink.  That is the cost cliff locality-aware migration policies steer
around.  Cancellation of an in-flight cross-rack transfer truncates the
occupancy on *both* links (uplink and rack-local egress alike), and
:meth:`Interconnect.verify_conservation` checks FIFO/non-overlap per
link across every hop of every path.

Every completed transfer is recorded; :class:`Interconnect` exposes the
records plus per-link occupancy so tests can assert conservation (bytes
in == bytes out, per-link FIFO order, no overlapping occupancy) and
metrics can report bytes moved and transfer latency.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import NULL_TRACER

#: Bytes of the Fig-4 context-table row that always travels with a task
#: (448 bits, Sec VI-F) -- the floor of any migration's payload.
CONTEXT_ROW_BYTES = 56.0

_TOPOLOGIES = ("p2p", "bus")


@dataclasses.dataclass(frozen=True)
class InterconnectConfig:
    """Link parameters, in PE-clock cycles (like every other model knob)."""

    #: Per-link bandwidth, bytes per PE-clock cycle (``math.inf`` allowed).
    bandwidth_bytes_per_cycle: float
    #: Propagation + protocol latency charged once per transfer, cycles.
    latency_cycles: float = 0.0
    #: ``p2p`` (per-pair links) or ``bus`` (one shared medium).
    topology: str = "p2p"
    name: str = "custom"
    #: Rack-uplink oversubscription ratio: the shared uplink's bandwidth
    #: is ``bandwidth_bytes_per_cycle / uplink_oversubscription``.  1.0
    #: is a uniform (non-blocking) fabric; datacenter fabrics commonly
    #: run 2:1 to 8:1.  Only consulted for cross-rack transfers.
    uplink_oversubscription: float = 1.0
    #: Propagation + protocol latency of the uplink hop, charged once
    #: per cross-rack transfer on top of the rack-local latency.  None
    #: means "same as the rack-local latency".
    uplink_latency_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.bandwidth_bytes_per_cycle > 0:
            raise ValueError("bandwidth_bytes_per_cycle must be positive")
        if not self.latency_cycles >= 0:
            raise ValueError("latency_cycles must be >= 0")
        if self.topology not in _TOPOLOGIES:
            raise ValueError(f"topology must be one of {_TOPOLOGIES}")
        if not self.uplink_oversubscription > 0:
            raise ValueError("uplink_oversubscription must be positive")
        if (
            self.uplink_latency_cycles is not None
            and not self.uplink_latency_cycles >= 0
        ):
            raise ValueError("uplink_latency_cycles must be >= 0")

    # ------------------------------------------------------------------
    # Presets (bandwidths are nominal effective rates, not headline ones)
    # ------------------------------------------------------------------
    @classmethod
    def from_bytes_per_sec(
        cls,
        bytes_per_sec: float,
        latency_us: float,
        frequency_hz: float = 700e6,
        topology: str = "p2p",
        name: str = "custom",
    ) -> "InterconnectConfig":
        return cls(
            bandwidth_bytes_per_cycle=bytes_per_sec / frequency_hz,
            latency_cycles=latency_us * 1e-6 * frequency_hz,
            topology=topology,
            name=name,
        )

    @classmethod
    def pcie_gen3(cls, frequency_hz: float = 700e6) -> "InterconnectConfig":
        """PCIe 3.0 x16: ~13 GB/s effective, ~1.5 us latency."""
        return cls.from_bytes_per_sec(
            13e9, 1.5, frequency_hz, topology="bus", name="pcie-gen3"
        )

    @classmethod
    def pcie_gen4(cls, frequency_hz: float = 700e6) -> "InterconnectConfig":
        """PCIe 4.0 x16: ~26 GB/s effective, ~1.0 us latency."""
        return cls.from_bytes_per_sec(
            26e9, 1.0, frequency_hz, topology="bus", name="pcie-gen4"
        )

    @classmethod
    def nvlink(cls, frequency_hz: float = 700e6) -> "InterconnectConfig":
        """NVLink-class point-to-point fabric: ~250 GB/s, ~0.5 us."""
        return cls.from_bytes_per_sec(
            250e9, 0.5, frequency_hz, topology="p2p", name="nvlink"
        )

    @classmethod
    def infinite(cls) -> "InterconnectConfig":
        """Zero-cost fabric: transfers complete instantaneously.

        The equivalence anchor: with this config a checkpoint migration
        charges no cycles, so interconnect modeling cannot perturb runs
        that never migrate.
        """
        return cls(
            bandwidth_bytes_per_cycle=math.inf,
            latency_cycles=0.0,
            topology="p2p",
            name="infinite",
        )

    def oversubscribed(
        self,
        ratio: float,
        uplink_latency_cycles: Optional[float] = None,
    ) -> "InterconnectConfig":
        """This fabric with an oversubscribed rack uplink tier."""
        return dataclasses.replace(
            self,
            uplink_oversubscription=ratio,
            uplink_latency_cycles=uplink_latency_cycles,
            name=f"{self.name}-uplink{ratio:g}x",
        )

    def transfer_cycles(self, num_bytes: float) -> float:
        """Uncontended duration of one transfer (latency + serialization)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be >= 0")
        return self.latency_cycles + num_bytes / self.bandwidth_bytes_per_cycle

    @property
    def uplink_latency(self) -> float:
        return (
            self.latency_cycles
            if self.uplink_latency_cycles is None
            else self.uplink_latency_cycles
        )

    @property
    def uplink_bandwidth_bytes_per_cycle(self) -> float:
        return self.bandwidth_bytes_per_cycle / self.uplink_oversubscription

    def cross_rack_transfer_cycles(self, num_bytes: float) -> float:
        """Uncontended duration of one cross-rack transfer.

        Both latencies are paid (rack-local hop to the top-of-rack
        switch, then the uplink hop); the payload streams at the
        bottleneck bandwidth of the path.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be >= 0")
        bottleneck = min(
            self.bandwidth_bytes_per_cycle,
            self.uplink_bandwidth_bytes_per_cycle,
        )
        return self.latency_cycles + self.uplink_latency + num_bytes / bottleneck


@dataclasses.dataclass(frozen=True)
class TransferRecord:
    """One completed (or in-flight) link transfer."""

    task_id: int
    src_device: int
    dst_device: int
    num_bytes: float
    #: When the transfer was requested (migration decision instant).
    request_cycles: float
    #: When the link actually started serving it (>= request: contention).
    start_cycles: float
    #: When the payload is fully resident at the destination.
    end_cycles: float
    #: What the payload is: ``"checkpoint"`` (a migrating task's saved
    #: state + context row) or ``"activation"`` (a sharded job's
    #: inter-stage boundary tensor, the pipeline DMA-out).
    purpose: str = "checkpoint"
    #: True when the destination device failed mid-flight and the
    #: transfer was truncated at the cancellation instant -- the payload
    #: never landed, the link time past that instant was freed.
    cancelled: bool = False
    #: The link keys the transfer occupies, in path order (one entry for
    #: flat/intra-rack, two for cross-rack: egress link then uplink).
    #: Empty means "the flat link for (src, dst)" so hand-built records
    #: stay valid.
    links: Tuple[object, ...] = ()
    #: True when the transfer crossed a rack boundary (charged the
    #: cross-rack path cost and occupied the rack uplink).
    cross_rack: bool = False

    @property
    def queueing_cycles(self) -> float:
        return self.start_cycles - self.request_cycles

    @property
    def transfer_latency_cycles(self) -> float:
        """End-to-end latency the migrating task experienced."""
        return self.end_cycles - self.request_cycles


class Interconnect:
    """FIFO-contended links between the cluster's devices.

    The cluster event loop requests transfers in non-decreasing time
    order (it processes events chronologically), which the model turns
    into a hard guarantee: per link, transfers start in request order and
    never overlap -- the conservation property the seeded tests pin.
    """

    def __init__(
        self,
        config: InterconnectConfig,
        num_devices: int,
        rack_of: Optional[Sequence[int]] = None,
    ) -> None:
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        if rack_of is not None:
            if len(rack_of) != num_devices:
                raise ValueError("rack_of must name a rack per device")
            if any(rack < 0 for rack in rack_of):
                raise ValueError("rack ids must be >= 0")
        self.config = config
        self.num_devices = num_devices
        self.rack_of = tuple(rack_of) if rack_of is not None else None
        self._free_at: Dict[object, float] = {}
        self._last_request: Dict[object, float] = {}
        self._records: List[TransferRecord] = []
        #: Observability sink; the cluster scheduler replaces this with
        #: its tracer.  Default no-op singleton: zero cost when off.
        self.tracer = NULL_TRACER

    def is_cross_rack(self, src: int, dst: int) -> bool:
        return (
            self.rack_of is not None and self.rack_of[src] != self.rack_of[dst]
        )

    def _link_key(self, src: int, dst: int) -> object:
        """The rack-local link a (src -> dst) *intra-rack* transfer uses."""
        if self.config.topology == "bus":
            return (
                "bus"
                if self.rack_of is None
                else ("bus", self.rack_of[src])
            )
        return (src, dst)

    def _path(self, src: int, dst: int) -> Tuple[Tuple[object, ...], bool]:
        """Link keys a (src -> dst) transfer occupies, plus cross-rack."""
        if not self.is_cross_rack(src, dst):
            return (self._link_key(src, dst),), False
        src_rack = self.rack_of[src]
        egress = (
            ("bus", src_rack)
            if self.config.topology == "bus"
            else ("egress", src)
        )
        return (egress, ("uplink", src_rack)), True

    def _record_links(self, record: TransferRecord) -> Tuple[object, ...]:
        return record.links or (
            self._link_key(record.src_device, record.dst_device),
        )

    def path_transfer_cycles(self, src: int, dst: int, num_bytes: float) -> float:
        """Uncontended (src -> dst) duration, cross-rack aware."""
        if self.is_cross_rack(src, dst):
            return self.config.cross_rack_transfer_cycles(num_bytes)
        return self.config.transfer_cycles(num_bytes)

    def link_free_at(self, src: int, dst: int) -> float:
        """Earliest cycle a new (src -> dst) transfer could start."""
        links, _ = self._path(src, dst)
        return max(self._free_at.get(key, 0.0) for key in links)

    def estimate_arrival(self, src: int, dst: int, num_bytes: float, now: float) -> float:
        """Predicted delivery time of a transfer requested at ``now``
        (contention included) without committing it."""
        start = max(now, self.link_free_at(src, dst))
        return start + self.path_transfer_cycles(src, dst, num_bytes)

    def transfer(
        self,
        src: int,
        dst: int,
        num_bytes: float,
        now: float,
        task_id: int = -1,
        purpose: str = "checkpoint",
    ) -> TransferRecord:
        """Commit one transfer; returns its scheduled record."""
        for device in (src, dst):
            if not 0 <= device < self.num_devices:
                raise ValueError(f"device {device} out of range")
        if src == dst:
            raise ValueError("transfer requires distinct devices")
        if num_bytes < 0:
            raise ValueError("num_bytes must be >= 0")
        links, cross = self._path(src, dst)
        for key in links:
            if now < self._last_request.get(key, 0.0):
                raise ValueError(
                    "transfers on one link must be requested in time order"
                )
        start = max(now, *(self._free_at.get(key, 0.0) for key in links))
        end = start + self.path_transfer_cycles(src, dst, num_bytes)
        for key in links:
            self._last_request[key] = now
            self._free_at[key] = end
        record = TransferRecord(
            task_id=task_id,
            src_device=src,
            dst_device=dst,
            num_bytes=num_bytes,
            request_cycles=now,
            start_cycles=start,
            end_cycles=end,
            purpose=purpose,
            links=links,
            cross_rack=cross,
        )
        self._records.append(record)
        if self.tracer.enabled:
            # One occupancy span on the first-hop link's track (per-link
            # FIFO keeps each track monotonic); the full path -- uplink
            # included -- travels in args.
            self.tracer.span(
                "transfer",
                f"transfer t{task_id} d{src}->d{dst}",
                start,
                end,
                link=links[0],
                args={
                    "task": task_id,
                    "src": src,
                    "dst": dst,
                    "bytes": num_bytes,
                    "purpose": purpose,
                    "cross_rack": cross,
                    "queued_cycles": start - now,
                    "links": [str(key) for key in links],
                },
            )
        return record

    def cancel_transfers_to(self, device: int, now: float) -> float:
        """Cancel every undelivered transfer targeting ``device``.

        Called when the destination fails at ``now``: payloads still in
        flight (or queued) toward it will never land.  Each affected
        record is truncated -- its ``end_cycles`` is pulled back to
        ``max(start, min(end, now))`` and it is flagged ``cancelled`` --
        and each touched link's free-at horizon is recomputed, so the
        link time past the cancellation instant is genuinely freed for
        later transfers.  A cross-rack transfer occupies two links
        (rack-local egress plus the rack uplink) and cancellation
        releases *both*.  Returns the total link time freed (the sum of
        truncations per record, cycles).

        Conservation still holds afterwards: truncation only ever lowers
        end times, and every future transfer is requested at or after
        ``now``, which is at or after every truncated end -- so FIFO
        order and non-overlap survive.  ``verify_conservation`` accepts
        a cancelled record's short occupancy in place of the full
        serialization cost.
        """
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} out of range")
        freed = 0.0
        touched = set()
        for index, record in enumerate(self._records):
            if record.dst_device != device or record.cancelled:
                continue
            if record.end_cycles <= now:
                continue  # already delivered
            new_end = max(record.start_cycles, min(record.end_cycles, now))
            freed += record.end_cycles - new_end
            self._records[index] = dataclasses.replace(
                record, end_cycles=new_end, cancelled=True
            )
            touched.update(self._record_links(record))
        for key in touched:
            self._free_at[key] = max(
                (
                    r.end_cycles
                    for r in self._records
                    if key in self._record_links(r)
                ),
                default=0.0,
            )
        return freed

    # ------------------------------------------------------------------
    # Introspection (metrics / conservation tests)
    # ------------------------------------------------------------------
    @property
    def transfers(self) -> Tuple[TransferRecord, ...]:
        return tuple(self._records)

    def total_bytes(self) -> float:
        return sum(record.num_bytes for record in self._records)

    def busy_cycles_by_link(self) -> Dict[object, float]:
        busy: Dict[object, float] = {}
        for record in self._records:
            for key in self._record_links(record):
                busy[key] = busy.get(key, 0.0) + (
                    record.end_cycles - record.start_cycles
                )
        return busy

    def cross_rack_bytes(self, purpose: Optional[str] = None) -> float:
        """Total payload bytes that crossed a rack uplink."""
        return sum(
            record.num_bytes
            for record in self._records
            if record.cross_rack
            and (purpose is None or record.purpose == purpose)
        )

    def uplink_busy_cycles(self) -> Dict[int, float]:
        """Occupied cycles per rack uplink (rack id -> busy cycles)."""
        busy: Dict[int, float] = {}
        for key, cycles in self.busy_cycles_by_link().items():
            if isinstance(key, tuple) and key and key[0] == "uplink":
                busy[key[1]] = busy.get(key[1], 0.0) + cycles
        return busy

    def verify_conservation(self) -> None:
        """Raise unless every link served its transfers FIFO, one at a time.

        Checks, per link: starts never precede requests, occupancy spans
        do not overlap, and service order equals request order (no
        reordering across a link).  A cross-rack transfer is checked on
        *every* link of its path (rack-local egress and rack uplink), so
        a cancellation that freed one leg but not the other would trip
        the overlap check on the stale link.
        """
        per_link: Dict[object, List[TransferRecord]] = {}
        for record in self._records:
            for key in self._record_links(record):
                per_link.setdefault(key, []).append(record)
        for key, records in per_link.items():
            previous_end = 0.0
            previous_request = 0.0
            for record in records:  # append order == request order
                if record.request_cycles < previous_request:
                    raise AssertionError(f"link {key}: requests out of order")
                if record.start_cycles < record.request_cycles:
                    raise AssertionError(f"link {key}: start precedes request")
                if record.start_cycles < previous_end:
                    raise AssertionError(f"link {key}: overlapping service")
                expected_end = record.start_cycles + (
                    self.config.cross_rack_transfer_cycles(record.num_bytes)
                    if record.cross_rack
                    else self.config.transfer_cycles(record.num_bytes)
                )
                if record.cancelled:
                    # A cancelled transfer occupies at most its full
                    # serialization cost (truncated at the failure).
                    if record.end_cycles > expected_end + 1e-6:
                        raise AssertionError(
                            f"link {key}: cancelled transfer overran"
                        )
                elif not math.isclose(
                    record.end_cycles, expected_end, rel_tol=1e-12, abs_tol=1e-6
                ):
                    raise AssertionError(f"link {key}: bytes in != bytes out")
                previous_end = record.end_cycles
                previous_request = record.request_cycles

"""Rack-scale fleet composition: topology plus the O(log r) rack frontend.

A datacenter fleet is not flat: devices sit in racks behind a top-of-rack
switch, racks hang off an oversubscribed uplink tier, and the frontend
router that admits arrivals sees rack-level aggregates long before any
per-device queue.  This module supplies both halves of that picture for
the cluster loop (:mod:`repro.sched.cluster`):

- :class:`RackTopology` -- the static device->rack map (uniform racks,
  explicit sizes, or a raw assignment), shared by the two-level fabric
  (:class:`~repro.sched.interconnect.Interconnect` with ``rack_of``),
  rack-correlated churn
  (:meth:`~repro.sched.faults.ChurnSchedule.generate_rack_correlated`),
  and the metrics layer (per-rack attainment, uplink utilization).
- :class:`RackRouter` -- the incremental frontend index.  Each rack
  carries a *running sum* of its devices' corrected backlog lower bounds
  (the same :meth:`~repro.sched.simulator.DeviceSim.backlog_lower_bound`
  stream the PR-5 per-device indexes consume): when a device's bound
  moves, the rack's sum moves by the delta and one lazy-deletion heap
  entry is pushed -- O(log r) per event.  Routing picks the rack with the
  least aggregate corrected backlog (ties to the lowest rack id), then
  the per-device best-first search runs *within* that rack only.

The two-tier rule is an architectural decision, not an approximation of
the flat argmin: a rack-scale frontend cannot afford a fleet-wide scan,
so it ranks racks by aggregate load and trusts the in-rack tier for the
exact choice.  A single-rack topology degenerates to the flat fleet --
the rack pick is trivial and the in-rack search sees every device -- so
single-rack runs replay the flat cluster bit-for-bit (the equivalence
suite in ``tests/test_rack.py`` pins this).
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from typing import List, Optional, Sequence, Tuple

__all__ = ["RackTopology", "RackRouter"]


@dataclasses.dataclass(frozen=True)
class RackTopology:
    """Static device->rack assignment for a fleet.

    ``rack_of[d]`` is device ``d``'s rack.  Rack ids must be contiguous
    ``0..num_racks-1`` with every rack non-empty, so per-rack structures
    can be dense lists.
    """

    rack_of: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rack_of", tuple(self.rack_of))
        if not self.rack_of:
            raise ValueError("topology needs at least one device")
        num_racks = max(self.rack_of) + 1
        members: List[List[int]] = [[] for _ in range(num_racks)]
        for device, rack in enumerate(self.rack_of):
            if rack < 0:
                raise ValueError(f"negative rack id for device {device}")
            members[rack].append(device)
        empty = [rack for rack, devs in enumerate(members) if not devs]
        if empty:
            raise ValueError(
                f"rack ids must be contiguous; racks {empty} are empty"
            )
        object.__setattr__(
            self, "_members", tuple(tuple(devs) for devs in members)
        )

    @classmethod
    def uniform(cls, num_racks: int, devices_per_rack: int) -> "RackTopology":
        """``num_racks`` racks of ``devices_per_rack`` devices each,
        numbered rack-major (devices 0..k-1 in rack 0, and so on)."""
        if num_racks <= 0 or devices_per_rack <= 0:
            raise ValueError("num_racks and devices_per_rack must be positive")
        return cls(
            rack_of=tuple(
                rack
                for rack in range(num_racks)
                for _ in range(devices_per_rack)
            )
        )

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "RackTopology":
        """Racks of explicit (possibly uneven) sizes, rack-major."""
        if not sizes or any(size <= 0 for size in sizes):
            raise ValueError("every rack size must be positive")
        return cls(
            rack_of=tuple(
                rack for rack, size in enumerate(sizes) for _ in range(size)
            )
        )

    @property
    def num_devices(self) -> int:
        return len(self.rack_of)

    @property
    def num_racks(self) -> int:
        return len(self._members)

    def rack(self, device: int) -> int:
        return self.rack_of[device]

    def devices_in(self, rack: int) -> Tuple[int, ...]:
        return self._members[rack]

    def same_rack(self, a: int, b: int) -> bool:
        return self.rack_of[a] == self.rack_of[b]


class RackRouter:
    """Incremental rack-aggregate backlog index (the two-tier frontend).

    Three structures, all fed by one :meth:`update` call per device-bound
    move (the owning ``_RackIndexes.refresh`` hook):

    - per-rack running sums of finite device bounds plus a count of
      accepting (finite-bound) devices -- a rack whose every device
      stopped accepting keys to ``inf`` so routing never lands there
      while any live rack exists;
    - a lazy-deletion min-heap of ``(rack key, rack)`` entries validated
      by value, giving the O(log r) least-loaded-rack pick (ties to the
      lowest rack id);
    - per-rack lazy-deletion device-bound heaps, handed to the owning
      index's best-first search so the in-rack tier pays O(log d_rack)
      instead of O(log d).

    The running sums are *incremental* floats (sum += new - old).  That
    is the point -- no per-event rack rescans -- but repeated deltas can
    drift a few ULPs from the recomputed sum; :meth:`verify_sums` bounds
    the drift against a fresh recomputation.  Decisions stay
    deterministic either way (the same event sequence produces the same
    sums, run after run).
    """

    def __init__(
        self, topology: RackTopology, bounds: Sequence[float]
    ) -> None:
        #: Live reference to the owner's per-device bound table; read for
        #: heap rebuilds (the authoritative values lazy entries validate
        #: against).
        self._bounds = bounds
        self.topology = topology
        num_racks = topology.num_racks
        # Every device seeds at bound 0.0 (matching _ClusterIndexes).
        self._sum: List[float] = [0.0] * num_racks
        self._live: List[int] = [
            len(topology.devices_in(rack)) for rack in range(num_racks)
        ]
        self._key: List[float] = [0.0] * num_racks
        # Ascending rack ids at equal keys: already a valid heap.
        self._rack_heap: List[Tuple[float, int]] = [
            (0.0, rack) for rack in range(num_racks)
        ]
        self._rack_cap = 4 * num_racks + 64
        self._device_heaps: List[List[Tuple[float, int]]] = [
            [(0.0, device) for device in topology.devices_in(rack)]
            for rack in range(num_racks)
        ]
        self._device_caps = [
            4 * len(topology.devices_in(rack)) + 64
            for rack in range(num_racks)
        ]

    def rack_key(self, rack: int) -> float:
        """The rack's live routing key (aggregate corrected backlog)."""
        return self._key[rack]

    def device_heap(self, rack: int) -> List[Tuple[float, int]]:
        """The rack's (bound, device) heap for the in-rack best-first
        tier; entries validate against the owner's bound table."""
        return self._device_heaps[rack]

    def update(self, device: int, old_bound: float, new_bound: float) -> None:
        """Fold one device-bound move into the rack aggregates.

        ``inf`` bounds (churn: the device stopped accepting) leave the
        running sum and decrement the live count instead of poisoning
        the float; a restore re-enters at its finite bound.
        """
        rack = self.topology.rack_of[device]
        if math.isfinite(old_bound):
            self._sum[rack] -= old_bound
            self._live[rack] -= 1
        if math.isfinite(new_bound):
            self._sum[rack] += new_bound
            self._live[rack] += 1
        key = self._sum[rack] if self._live[rack] else math.inf
        if key != self._key[rack]:
            self._key[rack] = key
            heapq.heappush(self._rack_heap, (key, rack))
            if len(self._rack_heap) > self._rack_cap:
                self._rack_heap = [
                    (value, index) for index, value in enumerate(self._key)
                ]
                heapq.heapify(self._rack_heap)
        heap = self._device_heaps[rack]
        heapq.heappush(heap, (new_bound, device))
        if len(heap) > self._device_caps[rack]:
            self._device_heaps[rack] = [
                (self._bounds[index], index)
                for index in self.topology.devices_in(rack)
            ]
            heapq.heapify(self._device_heaps[rack])

    def pick_rack(self) -> Optional[int]:
        """Least aggregate-backlog rack (ties to the lowest rack id);
        None when every rack's accepting capacity is gone."""
        heap = self._rack_heap
        keys = self._key
        while heap:
            key, rack = heap[0]
            if keys[rack] != key:
                heapq.heappop(heap)
                continue
            if math.isinf(key):
                return None
            return rack
        return None

    def verify_sums(self, bounds: Sequence[float]) -> None:
        """Cross-check the incremental sums against a recomputation.

        ``bounds`` is the owner's device-bound table.  Raises when a
        running sum drifted beyond float-noise tolerance of the exact
        sum, or a live count disagrees -- either means the incremental
        bookkeeping missed an update.
        """
        for rack in range(self.topology.num_racks):
            exact = 0.0
            live = 0
            for device in self.topology.devices_in(rack):
                bound = bounds[device]
                if math.isfinite(bound):
                    exact += bound
                    live += 1
            if live != self._live[rack]:
                raise AssertionError(
                    f"rack {rack}: live count {self._live[rack]} != {live}"
                )
            if live and not math.isclose(
                self._sum[rack], exact, rel_tol=1e-9, abs_tol=1e-6
            ):
                raise AssertionError(
                    f"rack {rack}: running sum {self._sum[rack]} drifted "
                    f"from recomputed {exact}"
                )

"""Execution timeline recording (the paper's Fig 2-style traces).

The simulator records one :class:`Segment` per contiguous span of NPU
activity.  Timelines back the scheduling-invariant tests (no overlapping
busy spans; per-task run time conservation) and the example scripts'
Gantt-style ASCII rendering.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Tuple


class SegmentKind(enum.Enum):
    RUN = "run"
    RESTORE = "restore"
    CHECKPOINT = "checkpoint"


@dataclasses.dataclass(frozen=True)
class Segment:
    """One contiguous span of NPU occupancy attributed to a task."""

    task_id: int
    kind: SegmentKind
    start_cycles: float
    end_cycles: float

    def __post_init__(self) -> None:
        if self.end_cycles < self.start_cycles:
            raise ValueError("segment ends before it starts")

    @property
    def duration_cycles(self) -> float:
        return self.end_cycles - self.start_cycles


class Timeline:
    """Ordered record of NPU occupancy over one simulation run."""

    def __init__(self) -> None:
        self._segments: List[Segment] = []
        self._instants: List[Segment] = []

    def record(
        self, task_id: int, kind: SegmentKind, start: float, end: float
    ) -> None:
        if end < start:
            raise ValueError("segment ends before it starts")
        if end > start:
            self._segments.append(Segment(task_id, kind, start, end))
        else:
            # Zero-duration spans (e.g. a restore with nothing to restore,
            # a checkpoint trap with zero latency) used to vanish here.
            # They carry real lifecycle information -- trace export and
            # run-time-conservation accounting both want to see them -- so
            # they are kept as instant events on a side list, leaving
            # ``segments`` (and every golden digest over it) untouched.
            self._instants.append(Segment(task_id, kind, start, end))

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return tuple(self._segments)

    @property
    def instants(self) -> Tuple[Segment, ...]:
        """Zero-duration records, in recording order (never busy time)."""
        return tuple(self._instants)

    def __len__(self) -> int:
        return len(self._segments)

    def busy_cycles(self) -> float:
        return sum(segment.duration_cycles for segment in self._segments)

    def run_cycles_by_task(self) -> Dict[int, float]:
        totals: Dict[int, float] = {}
        for segment in self._segments:
            if segment.kind == SegmentKind.RUN:
                totals[segment.task_id] = (
                    totals.get(segment.task_id, 0.0) + segment.duration_cycles
                )
        return totals

    def verify_no_overlap(self, tolerance: float = 1e-6) -> None:
        """Raise if any two busy segments overlap (core simulator invariant)."""
        ordered = sorted(self._segments, key=lambda s: s.start_cycles)
        for previous, current in zip(ordered, ordered[1:]):
            if current.start_cycles < previous.end_cycles - tolerance:
                raise AssertionError(
                    f"overlapping segments: {previous} then {current}"
                )

    def render_ascii(
        self,
        width: int = 80,
        label_by_task: Optional[Dict[int, str]] = None,
    ) -> str:
        """A Fig 2-style one-line-per-task Gantt chart."""
        if not self._segments:
            return "(empty timeline)"
        start = min(s.start_cycles for s in self._segments)
        end = max(s.end_cycles for s in self._segments)
        span = max(end - start, 1.0)
        task_ids = sorted({s.task_id for s in self._segments})
        lines = []
        for task_id in task_ids:
            row = [" "] * width
            for segment in self._segments:
                if segment.task_id != task_id:
                    continue
                lo = int((segment.start_cycles - start) / span * (width - 1))
                hi = max(lo + 1, int((segment.end_cycles - start) / span * (width - 1)))
                char = {"run": "#", "restore": "r", "checkpoint": "c"}[
                    segment.kind.value
                ]
                for position in range(lo, min(hi, width)):
                    row[position] = char
            label = (
                label_by_task.get(task_id, f"T{task_id}")
                if label_by_task
                else f"T{task_id}"
            )
            lines.append(f"{label:>12s} |{''.join(row)}|")
        return "\n".join(lines)


class ClusterTimeline:
    """Per-device execution traces of one cluster run.

    Wraps one :class:`Timeline` per device that received work.  The
    per-device invariants still hold device-by-device (one NPU cannot
    overlap itself); across devices, segments legitimately overlap in
    wall-clock time -- that is the parallelism the cluster buys.

    ``transfers`` optionally carries the interconnect transfer records of
    checkpoint migrations, so one object tells the whole story of a run:
    what each NPU executed plus what moved between them.
    """

    def __init__(
        self,
        device_timelines: Dict[int, Timeline],
        transfers: Tuple = (),
    ) -> None:
        self._devices: Dict[int, Timeline] = dict(
            sorted(device_timelines.items())
        )
        self._transfers = tuple(transfers)

    @property
    def transfers(self) -> Tuple:
        """Interconnect transfer records (empty unless migration ran)."""
        return self._transfers

    def migrated_bytes(self) -> float:
        return sum(t.num_bytes for t in self._transfers)

    def interconnect_busy_cycles(self) -> float:
        """Total cycles links spent serving checkpoint transfers."""
        return sum(
            t.end_cycles - t.start_cycles for t in self._transfers
        )

    @property
    def device_ids(self) -> Tuple[int, ...]:
        return tuple(self._devices)

    def __getitem__(self, device_id: int) -> Timeline:
        return self._devices[device_id]

    def __contains__(self, device_id: int) -> bool:
        return device_id in self._devices

    def __len__(self) -> int:
        return len(self._devices)

    def busy_cycles(self) -> float:
        """Total NPU-busy cycles summed across devices."""
        return sum(t.busy_cycles() for t in self._devices.values())

    def busy_cycles_by_device(self) -> Dict[int, float]:
        return {d: t.busy_cycles() for d, t in self._devices.items()}

    def run_cycles_by_task(self) -> Dict[int, float]:
        """Cluster-wide useful RUN cycles per task (conservation checks)."""
        totals: Dict[int, float] = {}
        for timeline in self._devices.values():
            for task_id, cycles in timeline.run_cycles_by_task().items():
                totals[task_id] = totals.get(task_id, 0.0) + cycles
        return totals

    def verify_no_overlap(self, tolerance: float = 1e-6) -> None:
        """Per-device no-overlap invariant (devices run in parallel)."""
        for timeline in self._devices.values():
            timeline.verify_no_overlap(tolerance)

    def render_ascii(
        self,
        width: int = 80,
        label_by_task: Optional[Dict[int, str]] = None,
    ) -> str:
        """Stacked per-device Gantt charts on one shared time axis."""
        if not self._devices:
            return "(empty cluster timeline)"
        sections = []
        for device_id, timeline in self._devices.items():
            chart = timeline.render_ascii(width, label_by_task)
            sections.append(f"NPU {device_id}\n{chart}")
        if self._transfers:
            sections.append(
                f"interconnect: {len(self._transfers)} transfers, "
                f"{self.migrated_bytes() / 1024:.1f} KiB, "
                f"{self.interconnect_busy_cycles():.0f} busy cycles"
            )
        return "\n".join(sections)

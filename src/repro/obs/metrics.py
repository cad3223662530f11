"""Streaming time-series metrics with bounded memory.

A :class:`MetricsSampler` owns a registry of named counters, gauges,
and histograms.  Emission sites in the cluster bump counters as events
happen (admission decisions, completions, SLA outcomes); on every
sampling tick -- the cluster loop wakes at each ``next_due``, every
``interval_cycles`` from time 0, and calls :meth:`MetricsSampler.sample`
-- the current value of every instrument is appended to that instrument's
:class:`RingBuffer`, so a run of any length holds at most
``capacity`` points per series.

Gauges sampled by the cluster (see ``docs/observability.md``):
per-device queue depth, corrected backlog, and busy flag (utilization
= mean of the 0/1 busy samples); per-rack aggregates of the same; and
cumulative uplink-busy cycles per rack.  Counters: admission
accept/defer/reject, completions, SLA met/missed (windowed attainment
falls out of the deltas between samples), steals, and migrations.

When a :class:`~repro.obs.trace.Tracer` is attached, each sampled
point is mirrored as a Chrome-trace counter event, so the series render
as line graphs in the Perfetto UI and ``repro.analysis.obs_report``
can rebuild them from the trace artifact alone.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple


class RingBuffer:
    """Fixed-capacity append-only buffer keeping the newest items."""

    __slots__ = ("capacity", "_data", "_next", "total_appended")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: List[object] = []
        self._next = 0
        self.total_appended = 0

    def append(self, item) -> None:
        if len(self._data) < self.capacity:
            self._data.append(item)
        else:
            self._data[self._next] = item
        self._next = (self._next + 1) % self.capacity
        self.total_appended += 1

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        """Oldest to newest."""
        if len(self._data) < self.capacity:
            yield from self._data
        else:
            yield from self._data[self._next :]
            yield from self._data[: self._next]

    def last(self):
        if not self._data:
            raise IndexError("empty ring buffer")
        return self._data[self._next - 1]


class Counter:
    """Monotonic cumulative count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Instantaneous value, overwritten by each set()."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Log2-bucketed distribution with O(1) observe and bounded state.

    Bucket ``b`` counts observations in ``[2**b, 2**(b+1))``; values
    below 1 share bucket 0.  At most ~64 buckets ever exist, so memory
    stays bounded no matter how many points are observed.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = max(0, int(value).bit_length() - 1) if value >= 1 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Upper bucket bound at the given quantile (coarse, log2)."""
        if not self.count:
            return 0.0
        target = fraction * self.count
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= target:
                return float(2 ** (bucket + 1))
        return self.max


class MetricsSampler:
    """Registry + sampling clock for streaming cluster metrics.

    Construct with the sampling ``interval_cycles`` and pass via
    ``ClusterConfig(metrics_sampler=...)``.  ``capacity`` bounds every
    series; ``slos`` (an :class:`repro.serving.slo.SLOPolicy`) enables
    streaming SLA-attainment counters scored exactly like
    ``compute_cluster_metrics``; ``tracer`` mirrors samples into the
    trace artifact as Perfetto counter series.
    """

    def __init__(
        self,
        interval_cycles: float,
        capacity: int = 512,
        slos=None,
        tracer=None,
    ) -> None:
        if not interval_cycles > 0:
            raise ValueError("interval_cycles must be positive")
        self.interval_cycles = float(interval_cycles)
        self.capacity = capacity
        self.slos = slos
        self.tracer = tracer
        self.next_due = 0.0
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, RingBuffer] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        counter.inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        gauge.set(value)

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Completion hook (called by the cluster loop per finished task)
    # ------------------------------------------------------------------
    def task_completed(self, task) -> None:
        """Score one finished task: latency histogram + SLA counters."""
        self.inc("tasks.completed")
        self.observe("task.latency_cycles", task.turnaround_cycles)
        if self.slos is not None:
            level = self.slos.level_for(task.spec)
            if level.met_by(task.turnaround_cycles, task.isolated_cycles):
                self.inc("sla.met")
            else:
                self.inc("sla.missed")

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def due(self, now: float) -> bool:
        return now >= self.next_due

    def sample(self, now: float) -> None:
        """Snapshot every instrument into its bounded series."""
        tracer = self.tracer
        emit = tracer is not None and tracer.enabled
        for name, counter in self.counters.items():
            self._record(name, now, counter.value)
            if emit:
                tracer.counter(name, now, counter.value)
        for name, gauge in self.gauges.items():
            self._record(name, now, gauge.value)
            if emit:
                tracer.counter(name, now, gauge.value)
        for name, histogram in self.histograms.items():
            self._record(name + ".mean", now, histogram.mean)
            if emit:
                tracer.counter(name + ".mean", now, histogram.mean)
        self.next_due = now + self.interval_cycles

    def _record(self, name: str, now: float, value: float) -> None:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = RingBuffer(self.capacity)
        series.append((now, value))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def series(self, name: str) -> List[Tuple[float, float]]:
        """The sampled (cycle, value) points for one series, oldest first."""
        buffer = self._series.get(name)
        return list(buffer) if buffer is not None else []

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def windowed_rate(self, name: str) -> List[Tuple[float, float]]:
        """Per-sample deltas of a cumulative counter series."""
        points = self.series(name)
        return [
            (t1, v1 - v0)
            for (_, v0), (t1, v1) in zip(points, points[1:])
        ]

    def attainment_series(self) -> List[Tuple[float, float]]:
        """Windowed SLA attainment: met / (met + missed) per interval."""
        met = dict(self.windowed_rate("sla.met"))
        missed = dict(self.windowed_rate("sla.missed"))
        out = []
        for t in sorted(set(met) | set(missed)):
            m, x = met.get(t, 0.0), missed.get(t, 0.0)
            if m + x > 0:
                out.append((t, m / (m + x)))
        return out


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsSampler",
    "RingBuffer",
]

"""Hot-path self-profiling: wall-time attribution per event kind.

The cluster's control-plane methods (route, steal, migrate, admission,
index maintenance, churn handling) time themselves into a
:class:`HotPathProfiler` when one is attached, so a throughput
regression in ``benchmarks/bench_hotpath.py`` arrives with its own
diagnosis: which phase of the loop got slower, by how much, over how
many calls.

Cost model: when no profiler is attached each instrumented site costs
one ``is None`` test; when attached, two ``time.perf_counter_ns()``
calls and one dict update per section -- tens of nanoseconds, no
allocation after the first call per section name.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict


class HotPathProfiler:
    """Accumulates wall-clock nanoseconds and call counts per section."""

    __slots__ = ("nanos", "counts")

    def __init__(self) -> None:
        self.nanos: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    def add(self, section: str, nanos: int) -> None:
        """Attribute ``nanos`` of wall time to ``section`` (O(1))."""
        self.nanos[section] = self.nanos.get(section, 0) + nanos
        self.counts[section] = self.counts.get(section, 0) + 1

    @contextmanager
    def section(self, name: str):
        """Convenience context manager for cold call sites.

        Hot paths inline the two ``perf_counter_ns()`` calls instead --
        a ``with`` block costs an object and two method dispatches.
        """
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.add(name, time.perf_counter_ns() - start)

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-section totals: calls, total ms, mean microseconds."""
        out: Dict[str, Dict[str, float]] = {}
        for section, nanos in self.nanos.items():
            calls = self.counts[section]
            out[section] = {
                "calls": calls,
                "total_ms": nanos / 1e6,
                "mean_us": nanos / calls / 1e3 if calls else 0.0,
            }
        return out

    def render(self) -> str:
        """ASCII table, most expensive section first."""
        rows = sorted(
            self.report().items(),
            key=lambda item: item[1]["total_ms"],
            reverse=True,
        )
        lines = [
            f"{'section':16s} {'calls':>10s} {'total ms':>10s} {'mean us':>9s}"
        ]
        for section, stats in rows:
            lines.append(
                f"{section:16s} {int(stats['calls']):>10d} "
                f"{stats['total_ms']:>10.2f} {stats['mean_us']:>9.2f}"
            )
        return "\n".join(lines)


__all__ = ["HotPathProfiler"]

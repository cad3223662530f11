"""The timed run, the traced run, and what they print.

Timed run (``--trace 0``): one *pass* over every sub-run of the workload,
then the sub-runs again in turn while the next one fits in ``--seconds``.
A sub-run is one set-up (timed stage by stage) followed by one
simulation (timed step by step); each sub-run's times are the medians
over its timings, so every sub-run counts once.  ``sim_tasks_per_s`` is
a pass's offered requests over its summed simulation times, ``setup_s``
the median set-up time.  The first pass yields the simulated metrics and the decision
digest; every re-run of a sub-run must reproduce its digest exactly.

Traced run (``--trace 1``): the first quarter of the sub-runs untraced,
the same sub-runs again with :class:`~perfbench.layers.SpanTracer`
installed, then sub-run 0 untraced once more.  The traced sub-runs must
reproduce the untraced simulated metrics and digest, every wrapped entry
point must be the original object again afterwards, and the last sub-run
must reproduce sub-run 0's digest.

Host seconds are *reference* seconds.  The benchmark's hosts share their
cores, and their speed drifts by up to 2x within a minute, so every timed
segment (one set-up stage or one simulation step) is bracketed by a fixed
pure-Python calibration loop (heap and dict churn, independent of the
simulator) and its wall time is scaled to a host that runs that loop at
:data:`REFERENCE_OPS_PER_S`.  The same figures in raw wall-clock seconds
are printed beside them.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import json
import pathlib
import resource
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.profile import HotPathProfiler

from perfbench.layers import (
    HIGHER_IS_BETTER,
    LAYERS,
    PER_LAYER,
    SpanTracer,
    layer_metrics,
)
from perfbench.outcome import (
    TAIL_MIN_BEYOND,
    GateFailure,
    check_gate,
    decision_digest,
    offered_count,
    simulated_metrics,
)
from perfbench.workloads import WORKLOADS, RunRecord, Workload

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Where traced runs write their spans (ignored by git).
SPAN_DIR = ROOT / "perfbench-out"

#: Calibration-loop speed of the reference host, operations per second.
REFERENCE_OPS_PER_S = 1.0e6
CALIBRATION_OPS = 30_000

#: Every end-to-end metric: (name, unit, better, clock).  ``clock`` says
#: whether the number is host time/memory or simulated NPU time; the units
#: of simulated numbers start with ``sim-``.
END_TO_END: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim_tasks_per_s", "1/s", "higher", "host"),
    ("setup_s", "s", "lower", "host"),
    ("peak_rss_mb", "MB", "lower", "host"),
    ("antt", "sim-ratio", "lower", "simulated"),
    ("stp", "sim-ratio", "higher", "simulated"),
    ("fairness", "sim-ratio", "higher", "simulated"),
    ("sla_attainment", "sim-share", "higher", "simulated"),
    ("tail_high_turnaround_ms", "sim-ms", "lower", "simulated"),
    ("goodput", "sim-NPUs", "higher", "simulated"),
    ("served_share", "sim-share", "higher", "simulated"),
)

MODEL_NOTE = (
    "model: unvalidated -- the repo holds no measurements of real NPU "
    "hardware, so no accuracy error is reported"
)


def host_speed() -> float:
    """Operations/second of a fixed heap + dict loop, timed right now.

    The collector is paused so that a collection of the simulator's
    objects, due by chance during the loop, is not read as a slow host.
    """
    heap: list = []
    table: Dict[int, int] = {}
    gc.disable()
    try:
        start = time.perf_counter()
        for index in range(CALIBRATION_OPS):
            heapq.heappush(heap, (index % 97, index))
            table[index % 193] = index
            if index % 2:
                heapq.heappop(heap)
        return CALIBRATION_OPS / (time.perf_counter() - start)
    finally:
        gc.enable()


class ReferenceClock:
    """Times segments in reference seconds, calibrating after each one."""

    def __init__(self) -> None:
        self.speed = host_speed()
        self.speeds = [self.speed]

    def time(self, function) -> Tuple[object, float, float]:
        """``function()``'s value, reference seconds and wall seconds."""
        start = time.perf_counter()
        value = function()
        wall = time.perf_counter() - start
        after = host_speed()
        seconds = wall * (self.speed + after) / 2 / REFERENCE_OPS_PER_S
        self.speed = after
        self.speeds.append(after)
        return value, seconds, wall


@dataclasses.dataclass
class SubRun:
    """One sub-run's outputs and timings (reference seconds and wall)."""

    records: List[RunRecord]
    setup_s: float
    setup_wall: float
    sim_s: float
    sim_wall: float
    #: Calibration speeds measured around its segments.
    speeds: List[float]

    @property
    def offered(self) -> int:
        return offered_count([self.records])


class Pass:
    """Runs a workload's sub-runs, each set-up then simulation, timed."""

    def __init__(self, workload: Workload, seed: int, scale: float) -> None:
        self.workload, self.seed, self.scale = workload, seed, scale

    def run_sub(self, sub: int, profiler: Optional[HotPathProfiler] = None) -> SubRun:
        gc.collect()
        clock = ReferenceClock()
        stages = self.workload.build(
            self.workload.sub_seed(self.seed, sub), self.scale, profiler
        )
        steps = None
        setup_s = setup_wall = 0.0
        while steps is None:
            steps, seconds, wall = clock.time(lambda: next(stages))
            setup_s += seconds
            setup_wall += wall
        records: List[RunRecord] = []
        sim_s = sim_wall = 0.0
        for step in steps:
            produced, seconds, wall = clock.time(step)
            records += produced
            sim_s += seconds
            sim_wall += wall
        check_gate(records)
        return SubRun(records, setup_s, setup_wall, sim_s, sim_wall, clock.speeds)

    def run(
        self, subs: Sequence[int], profiler: Optional[HotPathProfiler] = None
    ) -> List[SubRun]:
        return [self.run_sub(sub, profiler) for sub in subs]


def _records(runs: Sequence[SubRun]) -> List[List[RunRecord]]:
    return [run.records for run in runs]


def _check_tail(workload: Workload, context, scale: float) -> None:
    if scale == 1.0 and context["tail_beyond"] < TAIL_MIN_BEYOND:
        raise GateFailure(
            f"{workload.name}: fewer than {TAIL_MIN_BEYOND} samples beyond "
            f"the fixed tail percentile ({context['tail']})"
        )


def timed_run(workload: Workload, seed: int, seconds: float, scale: float):
    started = time.perf_counter()
    runner = Pass(workload, seed, scale)
    first: List[SubRun] = []
    #: Per sub-run index: its decision digest and host seconds in pass 1.
    digests: List[str] = []
    durations: List[float] = []
    for sub in range(workload.sub_runs):
        sub_started = time.perf_counter()
        first.append(runner.run_sub(sub))
        durations.append(time.perf_counter() - sub_started)
        digests.append(decision_digest(_records(first[-1:])))
    reference = decision_digest(_records(first))
    simulated, context = simulated_metrics(workload, _records(first))
    _check_tail(workload, context, scale)
    offered = [r.offered for r in first]
    #: Per sub-run index: (setup_s, setup wall, sim_s, sim wall) of each timing.
    timings = [[(r.setup_s, r.setup_wall, r.sim_s, r.sim_wall)] for r in first]
    speeds = [speed for r in first for speed in r.speeds]
    del first
    # Then cycle through the sub-runs again while the next one still fits.
    sub = 0
    while time.perf_counter() - started + durations[sub] <= seconds:
        again = runner.run_sub(sub)
        if decision_digest(_records([again])) != digests[sub]:
            raise GateFailure(f"sub-run {sub} changed its decision digest on a re-run")
        timings[sub].append((again.setup_s, again.setup_wall, again.sim_s, again.sim_wall))
        speeds += again.speeds
        sub = (sub + 1) % workload.sub_runs

    def typical(column: int) -> List[float]:
        """Per sub-run index, the median of its timings in one column."""
        return [statistics.median(timing[column] for timing in t) for t in timings]

    # Every sub-run counts once, however often the time budget re-ran it.
    metrics: Dict[str, float] = {
        "sim_tasks_per_s": sum(offered) / sum(typical(2)),
        "setup_s": statistics.median(typical(0)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **simulated,
    }
    counts = [len(t) for t in timings]
    notes = [
        f"{sum(counts)} sub-runs timed, each of the {workload.sub_runs} "
        f"{min(counts)}-{max(counts)} times; {sum(offered)} offered requests per pass",
        f"wall clock: sim_tasks_per_s {sum(offered) / sum(typical(3)):.1f}, "
        f"setup_s {statistics.median(typical(1)):.6f}; host speed "
        f"{min(speeds) / 1e6:.2f}-{max(speeds) / 1e6:.2f} M calibration ops/s "
        f"(reference {REFERENCE_OPS_PER_S / 1e6:g})",
        *(f"{key}: {value}" for key, value in context.items() if key != "tail_beyond"),
        f"decision digest: {reference}",
        MODEL_NOTE,
    ]
    return sum(o * c for o, c in zip(offered, counts)), metrics, notes


def traced_run(workload: Workload, seed: int, scale: float):
    runner = Pass(workload, seed, scale)
    subs = range(max(1, workload.sub_runs // 4))
    runs = runner.run(subs)
    untraced = sum(r.setup_s + r.sim_s for r in runs)
    untraced_metrics, _ = simulated_metrics(workload, _records(runs))
    untraced_digest = decision_digest(_records(runs))
    first_digest = decision_digest(_records(runs[:1]))
    attempted = sum(r.offered for r in runs)
    del runs

    tracer = SpanTracer()
    profiler = HotPathProfiler()
    originals = tracer.entry_points()
    with tracer.installed():
        runs = runner.run(subs, profiler)
        with tracer.span("metrics.compute"):
            traced_metrics, _ = simulated_metrics(workload, _records(runs))
    if any(vars(owner)[name] is not value for owner, name, value in originals):
        raise GateFailure("a traced entry point was not restored")
    traced = sum(r.setup_s + r.sim_s for r in runs)
    attempted += sum(r.offered for r in runs)
    traced_digest = decision_digest(_records(runs))
    if traced_metrics != untraced_metrics or traced_digest != untraced_digest:
        raise GateFailure(
            f"tracing changed the simulation: digest {untraced_digest} -> "
            f"{traced_digest}"
        )

    # Untraced again, sub-run 0 reproduces its digest.
    again = runner.run_sub(0)
    attempted += again.offered
    if decision_digest(_records([again])) != first_digest:
        raise GateFailure("an untraced run after the traced one changed its digest")

    metrics = layer_metrics(
        tracer,
        profiler.report(),
        [record for run in runs for record in run.records],
        traced / untraced,
    )
    span_path = SPAN_DIR / f"{workload.name}-seed{seed}-spans.jsonl"
    tracer.write(span_path)
    layer_rows = sorted(
        ((layer, metrics[f"layer.{layer}.self_ms"]) for layer in LAYERS),
        key=lambda row: row[1],
        reverse=True,
    )
    notes = [
        f"traced {len(subs)} of {workload.sub_runs} sub-runs: {traced:.2f} s vs "
        f"{untraced:.2f} s untraced (overhead x{traced / untraced:.2f}); "
        f"simulated metrics and digest {untraced_digest} identical",
        "self time by layer (ms): "
        + ", ".join(f"{layer} {ms:.1f}" for layer, ms in layer_rows if ms > 0),
        f"spans written to {span_path.relative_to(ROOT)} "
        f"({len(tracer.spans)} kept, {tracer.dropped} dropped)",
        MODEL_NOTE,
    ]
    return attempted, metrics, notes


def _clock(unit: str) -> str:
    if unit.startswith("sim-"):
        return "simulated"
    return "host" if unit in ("us", "ms", "ratio") else "count"


def _print_table(metrics: Dict[str, float], rows) -> None:
    print(f"  {'metric':40s} {'value':>16s}  {'unit':10s} {'better':7s} clock")
    for name, unit, better, clock in rows:
        print(f"  {name:40s} {metrics[name]:>16.6g}  {unit:10s} {better:7s} {clock}")


def main(args) -> int:
    workload = WORKLOADS[args.workload]
    print(
        f"perfbench {workload.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(f"  why: {workload.why}")
    try:
        if args.trace:
            attempted, metrics, notes = traced_run(workload, args.seed, args.scale)
            rows = [
                (name, unit, "higher" if name in HIGHER_IS_BETTER else "lower", _clock(unit))
                for name, unit in PER_LAYER
            ]
        else:
            attempted, metrics, notes = timed_run(
                workload, args.seed, args.seconds, args.scale
            )
            rows = END_TO_END
    except GateFailure as failure:
        print(f"correctness gate FAILED: {failure}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    _print_table(metrics, rows)
    for note in notes:
        print(f"  {note}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": 0,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in rows
                },
            }
        )
    )
    return 0

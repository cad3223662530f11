"""Per-layer tracing, done from the benchmark's own files.

A traced run swaps the public entry points of each layer (one layer per
``repro`` module) for thin timing wrappers, and restores the originals
afterwards.  Each wrapped call is a span: a name, a start and end in host
nanoseconds, the span that called it, and the id of the simulation run it
belongs to.  A layer's self time is its spans' durations minus the time
their child spans cover.  Spans are kept in memory (up to a cap; the
per-name totals are always complete) and written out at the end.

Control-plane sections the cluster already times itself (route, steal,
migrate, index, admission, churn) come from its ``HotPathProfiler``;
work counts that the program reports in its results (preemptions,
migrations, batches, transfers, ...) come from those results.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import time
from typing import Dict, List, Sequence, Tuple

from repro.core.predictor import LatencyPredictor
from repro.core.tokens import ClusterTokenLedger
from repro.sched import cluster as cluster_module
from repro.sched import policies as policies_module
from repro.sched import prepare as prepare_module
from repro.sched.cluster import ClusterResult, ClusterScheduler
from repro.sched.faults import FleetAvailability
from repro.sched.interconnect import Interconnect
from repro.sched.prepare import TaskFactory
from repro.sched.rack import RackRouter
from repro.sched.simulator import DeviceSim, NPUSimulator
from repro.sched.timeline import Timeline
from repro.serving import AdmissionController, PredictionFeedback
from repro.workloads import generator as generator_module
from repro.workloads import trace as trace_module

from perfbench.workloads import NPU, RunRecord

#: The layers, named after the ``repro`` modules they wrap.
LAYERS = (
    "simulator",
    "policies",
    "tokens",
    "cluster",
    "admission",
    "feedback",
    "job",
    "faults",
    "interconnect",
    "rack",
    "timeline",
    "prepare",
    "workloads",
    "metrics",
)
EVENT_KINDS = ("arrival", "complete", "period", "dispatch")
POLICY_HOOKS = ("select_ready", "outranks_running", "on_period")
PROFILER_SECTIONS = ("route", "steal", "migrate", "index", "admission", "churn")
#: Spans kept for the written trace; totals keep counting past it.
MAX_SPANS = 100_000

#: Every per-layer metric, in print order: (name, unit).  Units starting
#: with ``sim-`` are simulated quantities; the rest are host measurements
#: or counts.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((f"simulator.events.{kind}", "count") for kind in EVENT_KINDS),
    ("simulator.period_nothing_ready_share", "share"),
    *((f"simulator.step_us.{kind}", "us") for kind in EVENT_KINDS),
    ("simulator.stealable_calls", "count"),
    ("simulator.backlog_calls", "count"),
    ("simulator.preemptions", "count"),
    ("simulator.drain_decisions", "count"),
    ("simulator.utilization", "sim-share"),
    *(
        metric
        for hook in POLICY_HOOKS
        for metric in ((f"policies.{hook}.calls", "count"), (f"policies.{hook}.us", "us"))
    ),
    ("tokens.ledger.calls", "count"),
    ("tokens.ledger.us", "us"),
    ("cluster.self_ms", "ms"),
    *((f"cluster.{section}_ms", "ms") for section in PROFILER_SECTIONS),
    ("cluster.migrations", "count"),
    ("cluster.checkpoint_migrations", "count"),
    ("admission.accept", "count"),
    ("admission.defer", "count"),
    ("admission.reject", "count"),
    ("admission.decide_us", "us"),
    ("feedback.observe_us", "us"),
    ("feedback.raw_mape", "share"),
    ("feedback.corrected_mape", "share"),
    ("job.batches", "count"),
    ("job.mean_batch_size", "requests"),
    ("job.sharded", "count"),
    ("job.merge_us", "us"),
    ("job.partition_us", "us"),
    ("job.settle_us", "us"),
    ("faults.transitions", "count"),
    ("faults.lost_tasks", "count"),
    ("faults.work_lost_ms", "sim-ms"),
    ("interconnect.transfers", "count"),
    ("interconnect.bytes", "sim-bytes"),
    ("interconnect.queueing_ms", "sim-ms"),
    ("interconnect.transfer_us", "us"),
    ("prepare.compile_ms", "ms"),
    ("prepare.profile_ms", "ms"),
    ("prepare.predict_ms", "ms"),
    ("prepare.cache_hit_ratio", "share"),
    ("workloads.generate_ms", "ms"),
    ("rack.update.us", "us"),
    ("rack.pick_rack.us", "us"),
    ("timeline.record.us", "us"),
    ("metrics.compute_ms", "ms"),
    *((f"layer.{layer}.self_ms", "ms") for layer in LAYERS),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.dropped_spans", "count"),
)
#: Per-layer metrics where more is better; for every other one less is.
HIGHER_IS_BETTER = frozenset(
    {
        "simulator.utilization",
        "admission.accept",
        "job.mean_batch_size",
        "prepare.cache_hit_ratio",
    }
)


class SpanTracer:
    """Wraps layer entry points and accumulates spans while installed."""

    def __init__(self) -> None:
        #: Open spans, innermost last: [span id, child nanoseconds, run id].
        self._stack: List[List[int]] = []
        self._next_id = 1
        self._run_id = 0
        #: Closed spans: (id, parent id, run id, name, start ns, end ns).
        self.spans: List[Tuple[int, int, int, str, int, int]] = []
        self.dropped = 0
        self.calls: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        #: Counts from count-only wrappers and the PERIOD probe.
        self.counts: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _open(self, root: bool) -> Tuple[List[int], int]:
        parent, run = (self._stack[-1][0], self._stack[-1][2]) if self._stack else (0, 0)
        if root:
            self._run_id += 1
            run = self._run_id
        frame = [self._next_id, 0, run]
        self._next_id += 1
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent: int, name: str, start: int, end: int) -> None:
        self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], parent, frame[2], name, start, end))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own calls."""
        frame, parent = self._open(root=False)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, parent, name, start, time.perf_counter_ns())

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _timed(self, function, name: str, root: bool = False):
        tracer, clock = self, time.perf_counter_ns

        def timed(*args, **kwargs):
            frame, parent = tracer._open(root)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(frame, parent, name, start, clock())

        return timed

    def _counted(self, function, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return function(*args, **kwargs)

        return counted

    def _step(self, function):
        """DeviceSim.step: one span per event, named by its kind."""
        tracer, clock, counts = self, time.perf_counter_ns, self.counts

        def step(device):
            # A PERIOD tick finds nothing ready when no admitted task is
            # queued or preempted at the instant it fires.
            nothing_ready = device.queue_depth == 0
            frame, parent = tracer._open(False)
            start = clock()
            try:
                return function(device)
            finally:
                end = clock()
                kind = device.last_event_kind.name.lower()
                tracer._close(frame, parent, "simulator.step." + kind, start, end)
                if nothing_ready and kind == "period":
                    counts["simulator.period_nothing_ready"] = (
                        counts.get("simulator.period_nothing_ready", 0) + 1
                    )

        return step

    def _patch(self, owner, attribute: str, replacement) -> None:
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement(original))

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced entry point."""
        timed, counted = self._timed, self._counted
        targets = [
            (ClusterScheduler, "run", lambda f: timed(f, "cluster.run", root=True)),
            (NPUSimulator, "run", lambda f: timed(f, "simulator.run", root=True)),
            (DeviceSim, "step", self._step),
            (DeviceSim, "stealable_tasks", lambda f: counted(f, "simulator.stealable_calls")),
            (DeviceSim, "predicted_backlog", lambda f: counted(f, "simulator.backlog_calls")),
            (Timeline, "record", lambda f: timed(f, "timeline.record")),
            (AdmissionController, "decide", lambda f: timed(f, "admission.decide")),
            (PredictionFeedback, "observe", lambda f: timed(f, "feedback.observe")),
            (cluster_module, "merge_runtimes", lambda f: timed(f, "job.merge")),
            (cluster_module, "partition_runtime", lambda f: timed(f, "job.partition")),
            (cluster_module, "settle_member", lambda f: timed(f, "job.settle")),
            (FleetAvailability, "apply", lambda f: timed(f, "faults.apply")),
            (Interconnect, "transfer", lambda f: timed(f, "interconnect.transfer")),
            (RackRouter, "update", lambda f: timed(f, "rack.update")),
            (RackRouter, "pick_rack", lambda f: timed(f, "rack.pick_rack")),
            (TaskFactory, "build_task", lambda f: timed(f, "prepare.build_task")),
            (TaskFactory, "execution_profile", lambda f: counted(f, "prepare.lookups")),
            (TaskFactory, "estimated_cycles", lambda f: counted(f, "prepare.lookups")),
            (prepare_module, "compile_model", lambda f: timed(f, "prepare.compile")),
            (prepare_module, "profile_model", lambda f: timed(f, "prepare.profile")),
            (LatencyPredictor, "predict_model", lambda f: timed(f, "prepare.predict")),
            (prepare_module, "default_profiles", lambda f: timed(f, "workloads.profiles")),
            (generator_module, "default_profiles", lambda f: timed(f, "workloads.profiles")),
            (
                generator_module.WorkloadGenerator,
                "generate_many",
                lambda f: timed(f, "workloads.generate"),
            ),
            (
                trace_module,
                "synthetic_trace_runtimes",
                lambda f: timed(f, "workloads.generate"),
            ),
        ]
        for method in ("activate", "deactivate", "ready_max_tokens"):
            targets.append(
                (ClusterTokenLedger, method, lambda f: timed(f, "tokens.ledger"))
            )
        for cls in vars(policies_module).values():
            if isinstance(cls, type) and issubclass(cls, policies_module.Policy):
                for hook in POLICY_HOOKS:
                    if hook in cls.__dict__:
                        targets.append(
                            (cls, hook, lambda f, h=hook: timed(f, "policies." + h))
                        )
        return targets

    def entry_points(self) -> List[Tuple[object, str, object]]:
        """(owner, attribute, current value) of every traced entry point."""
        return [
            (owner, attribute, vars(owner)[attribute])
            for owner, attribute, _ in self._targets()
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced entry point; restore the originals on exit."""
        try:
            for owner, attribute, factory in self._targets():
                self._patch(owner, attribute, factory)
            yield self
        finally:
            while self._patches:
                owner, attribute, original = self._patches.pop()
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: pathlib.Path) -> None:
        """Write the kept spans as JSON lines (times in microseconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[4] for span in self.spans), default=0)
        with path.open("w") as out:
            for span_id, parent, run_id, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "run": run_id,
                            "name": name,
                            "start_us": (start - origin) / 1e3,
                            "end_us": (end - origin) / 1e3,
                        }
                    )
                    + "\n"
                )

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def mean_self_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_ns.get(name, 0) / calls / 1e3 if calls else 0.0

    def layer_self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            nanos for name, nanos in self.self_ns.items() if name.startswith(prefix)
        ) / 1e6


def _device_results(record: RunRecord):
    if isinstance(record.result, ClusterResult):
        return [r for r in record.result.device_results if r is not None]
    return [record.result]


def _utilization(record: RunRecord) -> List[float]:
    if isinstance(record.result, ClusterResult):
        return record.result.device_utilization()
    return [record.result.timeline.busy_cycles() / record.makespan_cycles]


def layer_metrics(
    tracer: SpanTracer,
    profile: Dict[str, Dict[str, float]],
    records: Sequence[RunRecord],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` from one traced pass."""
    calls, counts = tracer.calls, tracer.counts
    clusters = [r.result for r in records if isinstance(r.result, ClusterResult)]
    devices = [result for record in records for result in _device_results(record)]
    utilization = [u for record in records for u in _utilization(record)]
    decisions = [
        record.decision.value
        for result in clusters
        for record in result.admission_records
    ]
    feedbacks = [
        r.admission.feedback
        for r in records
        if r.admission is not None
        and r.admission.feedback is not None
        and r.admission.feedback.observations
    ]
    batch_sizes = [b.batch_size for result in clusters for b in result.batches]
    transfers = [t for result in clusters for t in result.transfers]
    lost_work = sum(
        task.lost_progress_cycles
        for result in clusters
        for task in result.tasks + result.lost_tasks
    )
    periods = calls.get("simulator.step.period", 0)
    lookups = counts.get("prepare.lookups", 0)

    def profiled(section: str) -> float:
        return profile.get(section, {}).get("total_ms", 0.0)

    def fmean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    values: Dict[str, float] = {}
    for kind in EVENT_KINDS:
        values[f"simulator.events.{kind}"] = calls.get(f"simulator.step.{kind}", 0)
        values[f"simulator.step_us.{kind}"] = tracer.mean_self_us(
            f"simulator.step.{kind}"
        )
    values["simulator.period_nothing_ready_share"] = (
        counts.get("simulator.period_nothing_ready", 0) / periods if periods else 0.0
    )
    values["simulator.stealable_calls"] = counts.get("simulator.stealable_calls", 0)
    values["simulator.backlog_calls"] = counts.get("simulator.backlog_calls", 0)
    values["simulator.preemptions"] = sum(r.preemption_count for r in devices)
    values["simulator.drain_decisions"] = sum(r.drain_decisions for r in devices)
    values["simulator.utilization"] = fmean(utilization)
    for hook in POLICY_HOOKS:
        values[f"policies.{hook}.calls"] = calls.get(f"policies.{hook}", 0)
        values[f"policies.{hook}.us"] = tracer.mean_self_us(f"policies.{hook}")
    values["tokens.ledger.calls"] = calls.get("tokens.ledger", 0)
    values["tokens.ledger.us"] = tracer.mean_self_us("tokens.ledger")
    values["cluster.self_ms"] = tracer.self_ms("cluster.run")
    for section in PROFILER_SECTIONS:
        values[f"cluster.{section}_ms"] = profiled(section)
    values["cluster.migrations"] = sum(r.migration_count for r in clusters)
    values["cluster.checkpoint_migrations"] = sum(
        r.checkpoint_migration_count for r in clusters
    )
    for decision in ("accept", "defer", "reject"):
        values[f"admission.{decision}"] = decisions.count(decision)
    values["admission.decide_us"] = tracer.mean_self_us("admission.decide")
    values["feedback.observe_us"] = tracer.mean_self_us("feedback.observe")
    values["feedback.raw_mape"] = fmean(f.raw_mape() for f in feedbacks)
    values["feedback.corrected_mape"] = fmean(f.mape() for f in feedbacks)
    values["job.batches"] = sum(1 for size in batch_sizes if size > 1)
    values["job.mean_batch_size"] = fmean(batch_sizes)
    values["job.sharded"] = sum(r.sharded_job_count for r in clusters)
    values["job.merge_us"] = tracer.mean_self_us("job.merge")
    values["job.partition_us"] = tracer.mean_self_us("job.partition")
    values["job.settle_us"] = tracer.mean_self_us("job.settle")
    values["faults.transitions"] = calls.get("faults.apply", 0)
    values["faults.lost_tasks"] = sum(len(r.lost_tasks) for r in clusters)
    values["faults.work_lost_ms"] = NPU.cycles_to_ms(lost_work)
    values["interconnect.transfers"] = len(transfers)
    values["interconnect.bytes"] = sum(t.num_bytes for t in transfers)
    values["interconnect.queueing_ms"] = NPU.cycles_to_ms(
        sum(t.queueing_cycles for t in transfers)
    )
    values["interconnect.transfer_us"] = tracer.mean_self_us("interconnect.transfer")
    values["prepare.compile_ms"] = tracer.self_ms("prepare.compile")
    values["prepare.profile_ms"] = tracer.self_ms("prepare.profile")
    values["prepare.predict_ms"] = tracer.self_ms("prepare.predict")
    values["prepare.cache_hit_ratio"] = (
        1.0 - calls.get("prepare.compile", 0) / lookups if lookups else 0.0
    )
    values["workloads.generate_ms"] = tracer.total_ns.get("workloads.generate", 0) / 1e6
    values["rack.update.us"] = tracer.mean_self_us("rack.update")
    values["rack.pick_rack.us"] = tracer.mean_self_us("rack.pick_rack")
    values["timeline.record.us"] = tracer.mean_self_us("timeline.record")
    values["metrics.compute_ms"] = tracer.self_ms("metrics.compute")
    for layer in LAYERS:
        values[f"layer.{layer}.self_ms"] = tracer.layer_self_ms(layer)
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.spans"] = len(tracer.spans) + tracer.dropped
    values["trace.dropped_spans"] = tracer.dropped
    return values

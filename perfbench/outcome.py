"""Correctness gate, decision digest and simulated end-to-end metrics.

Everything here reads the program's outputs after a simulation; nothing
here is timed.
"""

from __future__ import annotations

import hashlib
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.tokens import Priority
from repro.sched.metrics import (
    aggregate_metrics,
    compute_metrics,
    sla_violation_rate,
    tail_percentile,
)
from repro.serving.slo import DEFAULT_SLOS

from perfbench.workloads import (
    NPU,
    PAPER_BASELINE,
    PAPER_SCORED,
    RunRecord,
    Workload,
)

#: Tasks per fairness/STP window: the paper's workload size.  A cluster
#: trace is cut into consecutive windows of this many completed requests
#: in arrival order, so every workload scores STP and fairness on the
#: scale of the paper's 8-task workloads.
WINDOW = 8
#: Minimum samples beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


class GateFailure(Exception):
    """A correctness check on the program's outputs failed."""


def check_gate(records: Sequence[RunRecord]) -> None:
    """Raise :class:`GateFailure` unless every record is consistent.

    offered == completed | rejected | lost as disjoint sets of task ids,
    every completed task is done, and no device timeline overlaps.
    """
    for index, record in enumerate(records):
        where = f"{record.label} run {index}"
        offered = [task.task_id for task in record.offered]
        if len(set(offered)) != len(offered):
            raise GateFailure(f"{where}: duplicate offered task ids")
        parts = [
            [task.task_id for task in tasks]
            for tasks in (record.completed, record.rejected, record.lost)
        ]
        union = set().union(*parts)
        if sum(len(part) for part in parts) != len(union):
            raise GateFailure(
                f"{where}: completed, rejected and lost sets overlap"
            )
        if union != set(offered):
            missing = sorted(set(offered) - union)[:5]
            extra = sorted(union - set(offered))[:5]
            raise GateFailure(
                f"{where}: outcomes do not cover the offered requests "
                f"(missing {missing}, unknown {extra})"
            )
        unfinished = [t.task_id for t in record.completed if not t.is_done]
        if unfinished:
            raise GateFailure(f"{where}: executed tasks not done: {unfinished[:5]}")
        for timeline in record.timelines:
            try:
                timeline.verify_no_overlap()
            except AssertionError as error:
                raise GateFailure(f"{where}: {error}") from None


def decision_digest(records_by_sub: Sequence[Sequence[RunRecord]]) -> str:
    """Hash of every decision: task -> device, first dispatch, completion."""
    digest = hashlib.sha256()
    for sub, records in enumerate(records_by_sub):
        for index, record in enumerate(records):
            digest.update(f"{sub}|{index}|{record.label}\n".encode())
            digest.update(repr(sorted(record.assignments.items())).encode())
            for task in record.completed:
                digest.update(
                    f"{task.task_id}|{record.assignments.get(task.task_id)}|"
                    f"{task.first_dispatch_time!r}|{task.completion_time!r}\n"
                    .encode()
                )
            for kind, tasks in (("rejected", record.rejected), ("lost", record.lost)):
                for task in tasks:
                    digest.update(f"{task.task_id}|{kind}\n".encode())
    return digest.hexdigest()[:16]


def offered_count(records_by_sub: Sequence[Sequence[RunRecord]]) -> int:
    return sum(
        len(record.offered) for records in records_by_sub for record in records
    )


def _label_records(
    records_by_sub: Sequence[Sequence[RunRecord]], label: str
) -> List[RunRecord]:
    return [
        record
        for records in records_by_sub
        for record in records
        if record.label == label
    ]


def tail_of_high(
    records: Sequence[RunRecord], percentile: float
) -> Optional[Tuple[float, int, int]]:
    """(turnaround ms at ``percentile``, HIGH samples, samples beyond)."""
    high = [
        NPU.cycles_to_ms(task.turnaround_cycles)
        for record in records
        for task in record.completed
        if task.spec.priority == Priority.HIGH
    ]
    if not high:
        return None
    value = tail_percentile(high, percentile)
    return value, len(high), sum(1 for sample in high if sample > value)


def simulated_metrics(
    workload: Workload, records_by_sub: Sequence[Sequence[RunRecord]]
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The simulated end-to-end metrics, plus context printed beside them."""
    scored = _label_records(records_by_sub, workload.scored_label)
    completed = [task for record in scored for task in record.completed]
    offered = sum(len(record.offered) for record in scored)
    failed = sum(len(record.rejected) + len(record.lost) for record in scored)
    windows = []
    for record in scored:
        ordered = sorted(
            record.completed,
            key=lambda task: (task.spec.arrival_cycles, task.task_id),
        )
        for start in range(0, len(ordered) - WINDOW + 1, WINDOW):
            windows.append(compute_metrics(ordered[start:start + WINDOW]))
    met = [task for task in completed if DEFAULT_SLOS.task_met_slo(task)]
    # One tail per sub-run (one trace or ensemble each), then the median:
    # a pooled extreme percentile is set by the worst few traces alone.
    tails = []
    for records in records_by_sub:
        tail = tail_of_high(
            [r for r in records if r.label == workload.scored_label],
            workload.tail_percentile,
        )
        if tail is not None:
            tails.append(tail)
    metrics = {
        "antt": statistics.fmean(t.normalized_turnaround for t in completed),
        "stp": statistics.fmean(window.stp for window in windows),
        "fairness": statistics.fmean(window.fairness for window in windows),
        "sla_attainment": len(met) / offered,
        "tail_high_turnaround_ms": (
            statistics.median(tail[0] for tail in tails) if tails else 0.0
        ),
        "goodput": (
            sum(task.isolated_cycles for task in met)
            / sum(record.makespan_cycles for record in scored)
        ),
        "served_share": 1.0 - failed / offered,
    }
    beyond = min((tail[2] for tail in tails), default=0)
    context: Dict[str, object] = {
        "tail": (
            f"median over {len(tails)} sub-runs of each one's "
            f"p{workload.tail_percentile:g} HIGH turnaround "
            f"({sum(tail[1] for tail in tails)} samples; at least {beyond} "
            "beyond the percentile in every sub-run)"
        ),
        "tail_beyond": beyond,
        "scored": f"{len(completed)} of {offered} offered requests completed",
    }
    if workload.name == "paper_npu":
        context["vs_np_fcfs"] = _paper_headline(records_by_sub)
    return metrics, context


def _paper_headline(records_by_sub) -> str:
    """NP-FCFS vs Dynamic-PREMA, the paper's headline comparison."""
    # Only the first workloads of each sub-run ran under every setup.
    swept = [
        record
        for records in records_by_sub
        for record in [r for r in records if r.label == PAPER_SCORED][
            : sum(1 for r in records if r.label == PAPER_BASELINE)
        ]
    ]
    summary = {}
    for label, records in (
        (PAPER_BASELINE, _label_records(records_by_sub, PAPER_BASELINE)),
        (PAPER_SCORED, swept),
    ):
        ensemble = aggregate_metrics([record.completed for record in records])
        tasks = [task for record in records for task in record.completed]
        summary[label] = (
            ensemble.mean_antt,
            ensemble.mean_stp,
            sla_violation_rate(tasks, 4.0),
        )
    base, prema = summary[PAPER_BASELINE], summary[PAPER_SCORED]
    return (
        f"ANTT {base[0] / prema[0]:.2f}x better, STP {prema[1] / base[1]:.2f}x, "
        f"4x-SLA violations {base[2]:.1%} -> {prema[2]:.1%}"
    )

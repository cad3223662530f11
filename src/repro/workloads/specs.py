"""Workload specifications: which tasks arrive, when, and how urgent.

A :class:`TaskSpec` is the CPU-side description of one inference request;
a :class:`WorkloadSpec` is the multi-tasked mix the paper constructs in
Sec III (N tasks drawn from the eight benchmarks, uniform-random arrival
times, random low/medium/high priorities).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

from repro.core.tokens import Priority


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One inference request as dispatched by the CPU.

    Task ids are assigned in arrival order, so FCFS ties resolve by id.
    Sequence lengths apply to RNN benchmarks only: ``input_len`` is
    statically known pre-inference; ``actual_output_len`` is the
    data-dependent ground truth the simulator executes (the scheduler
    never sees it -- it sees the regressor's prediction instead).  A
    request does not choose pipeline stages: the cluster router cuts a
    dispatch when ``BatchConfig.shard_stages`` asks it to.
    """

    task_id: int
    benchmark: str
    batch: int
    priority: Priority
    arrival_cycles: float
    input_len: Optional[int] = None
    actual_output_len: Optional[int] = None
    #: Serving QoS class tag ("interactive" / "standard" / "batch", see
    #: :mod:`repro.serving.slo`).  None means priority-derived default;
    #: membership is validated at resolution (`qos_of`), not here, so the
    #: workload layer stays independent of the serving layer.
    qos: Optional[str] = None

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError("task_id must be >= 0")
        if self.batch <= 0:
            raise ValueError("batch must be positive")
        if not 0 <= self.arrival_cycles < math.inf:
            raise ValueError("arrival_cycles must be finite and >= 0")
        if self.input_len is not None and self.input_len <= 0:
            raise ValueError("input_len must be positive")
        if self.actual_output_len is not None and self.actual_output_len <= 0:
            raise ValueError("actual_output_len must be positive")

    @property
    def is_rnn(self) -> bool:
        return self.input_len is not None


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """A multi-tasked workload: the unit one simulation run executes."""

    name: str
    tasks: Tuple[TaskSpec, ...]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("workload must contain at least one task")
        ids = [task.task_id for task in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task ids must be unique")
        arrivals = [task.arrival_cycles for task in self.tasks]
        if arrivals != sorted(arrivals):
            raise ValueError("tasks must be ordered by arrival time")

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def benchmarks(self) -> Tuple[str, ...]:
        return tuple(task.benchmark for task in self.tasks)

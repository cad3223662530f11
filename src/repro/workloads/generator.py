"""Random multi-tasked workload construction (paper Sec III).

Methodology, exactly as the paper describes it: randomly select N
inference tasks among the eight benchmark DNNs, draw each task's dispatch
time from a uniform random distribution over an arrival window, and assign
each a random priority among low/medium/high.  RNN tasks additionally draw
an input sequence length from the profiled grid and an *actual* output
length from the observed outputs for that input length (Sec VI's
methodology for modeling dynamic execution lengths).
"""

from __future__ import annotations

import functools
import math
import random
from typing import Dict, Optional, Sequence, Tuple

from repro.core.tokens import Priority
from repro.models.sequences import (
    BENCHMARK_PROFILE,
    SequenceProfile,
    generate_profile,
)
from repro.models.zoo import BENCHMARKS, is_rnn
from repro.workloads.specs import TaskSpec, WorkloadSpec

#: Default arrival window: 10 ms at 700 MHz.  With eight tasks whose
#: isolated times span ~0.5-100 ms (batches mixed over 1/4/16) this
#: produces the heavily contended regime the paper's Figs 11-14 study.
DEFAULT_ARRIVAL_WINDOW_CYCLES = 10e-3 * 700e6

#: Default batch-size mix (Sec III: batch size is a per-task workload
#: parameter drawn from 1/4/16).
DEFAULT_BATCH_CHOICES = (1, 4, 16)


class WorkloadGenerator:
    """Seeded generator of multi-tasked DNN workloads."""

    def __init__(
        self,
        seed: int = 0,
        benchmarks: Sequence[str] = BENCHMARKS,
        batch_choices: Sequence[int] = DEFAULT_BATCH_CHOICES,
        arrival_window_cycles: float = DEFAULT_ARRIVAL_WINDOW_CYCLES,
        profiles: Optional[Dict[str, SequenceProfile]] = None,
    ) -> None:
        if not benchmarks:
            raise ValueError("benchmarks must be non-empty")
        if not batch_choices or any(b <= 0 for b in batch_choices):
            raise ValueError("batch_choices must be positive")
        if not 0 <= arrival_window_cycles < math.inf:
            raise ValueError("arrival_window_cycles must be finite and >= 0")
        self._rng = random.Random(seed)
        self.benchmarks = tuple(benchmarks)
        self.batch_choices = tuple(batch_choices)
        self.arrival_window_cycles = arrival_window_cycles
        self.profiles = profiles if profiles is not None else default_profiles()

    def generate(self, num_tasks: int = 8, name: str = "") -> WorkloadSpec:
        """Construct one workload of ``num_tasks`` random inference tasks."""
        if num_tasks <= 0:
            raise ValueError("num_tasks must be positive")
        arrivals = sorted(
            self._rng.uniform(0.0, self.arrival_window_cycles)
            for _ in range(num_tasks)
        )
        return self._build_tasks(
            arrivals, name or f"workload-{len(arrivals)}tasks"
        )

    def _build_tasks(
        self, arrivals: Sequence[float], name: str
    ) -> WorkloadSpec:
        """Draw per-task attributes over pre-drawn sorted arrival times.

        Shared by the uniform-window paper workloads and the open-arrival
        trace generators (:mod:`repro.workloads.trace`); the per-task RNG
        call order is part of the seeded-reproducibility contract.
        """
        tasks = []
        for task_id, arrival in enumerate(arrivals):
            benchmark = self._rng.choice(self.benchmarks)
            priority = self._rng.choice(
                (Priority.LOW, Priority.MEDIUM, Priority.HIGH)
            )
            batch = self._rng.choice(self.batch_choices)
            input_len, output_len = self._draw_lengths(benchmark)
            tasks.append(
                TaskSpec(
                    task_id=task_id,
                    benchmark=benchmark,
                    batch=batch,
                    priority=priority,
                    arrival_cycles=arrival,
                    input_len=input_len,
                    actual_output_len=output_len,
                )
            )
        return WorkloadSpec(name=name, tasks=tuple(tasks))

    def generate_many(
        self, num_workloads: int, num_tasks: int = 8
    ) -> Tuple[WorkloadSpec, ...]:
        """The paper's "averaged across 25 simulation runs" ensemble."""
        if num_workloads <= 0:
            raise ValueError("num_workloads must be positive")
        return tuple(
            self.generate(num_tasks=num_tasks, name=f"workload-{index:02d}")
            for index in range(num_workloads)
        )

    def _draw_lengths(
        self, benchmark: str
    ) -> Tuple[Optional[int], Optional[int]]:
        """(input_len, actual_output_len) for RNNs; (None, None) for CNNs.

        The input length is drawn from the profiled grid; the actual
        output length is drawn among the outputs observed for that input
        length when the regression model was built (Sec VI methodology).
        """
        if not is_rnn(benchmark):
            return None, None
        if benchmark == "RNN-SA":
            # Linear app (Fig 8b): unrolled length equals the input length.
            input_len = self._rng.choice(range(5, 55, 5))
            return input_len, input_len
        profile = self.profiles[benchmark]
        input_len = self._rng.choice(profile.input_lengths)
        output_len = self._rng.choice(profile.outputs_for(input_len))
        return input_len, output_len


@functools.lru_cache(maxsize=None)
def default_profiles(
    num_samples: int = 1500, seed: int = 2020
) -> Dict[str, SequenceProfile]:
    """The characterization profiles backing each dynamic-length RNN.

    Cached per ``(num_samples, seed)``: every :class:`WorkloadGenerator`
    and ``TaskFactory`` construction used to regenerate the eight
    1500-sample profiles, which dominated short-run startup.  The returned
    dict is shared -- treat it as read-only.
    """
    return {
        benchmark: generate_profile(app, num_samples=num_samples, seed=seed)
        for benchmark, app in BENCHMARK_PROFILE.items()
    }

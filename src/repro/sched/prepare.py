"""Prepare executable task runtimes from workload specifications.

This is the CPU-side runtime of the paper's system: for each dispatched
request it builds the model graph (with the *actual* data-dependent RNN
unroll), compiles and profiles it for ground truth, and separately derives
``Time_estimated`` the way the scheduler will see it -- Algorithm 1 over
the graph unrolled to the *predicted* output length from the regression
model.  An :class:`OraclePredictor` can replace the estimate with the
exact simulated time (Sec VI-D).

Results are cached at two levels.  Per model, profiles and estimates are
kept by (benchmark, batch, lengths): the model zoo is finite and the
profiled sequence grids are discrete, so ensembles of workloads re-use
almost every model.  Per layer, each distinct layer is lowered, timed and
estimated once: a lowering depends only on the layer, its input shapes
and the batch, and a timing or an Algorithm-1 estimate only on the
lowered shape, so the time steps of an unrolled RNN, and all its
unrolls, share one lowering per distinct cell.  Both levels live on the
factory (and its predictor) and die with it; a fresh factory starts
cold.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.context import TaskContext
from repro.core.predictor import LatencyPredictor
from repro.core.regression import SequenceLengthRegressor
from repro.isa.compiler import CompiledModel, compile_model
from repro.models.sequences import BENCHMARK_PROFILE, SequenceProfile
from repro.models.zoo import build_benchmark, is_rnn
from repro.npu.config import NPUConfig
from repro.npu.engine import ExecutionProfile, LayerTiming, profile_model
from repro.sched.task import TaskRuntime
from repro.workloads.generator import default_profiles
from repro.workloads.specs import TaskSpec, WorkloadSpec


@dataclasses.dataclass(frozen=True)
class _ModelKey:
    benchmark: str
    batch: int
    input_len: Optional[int]
    output_len: Optional[int]


class TaskFactory:
    """Builds :class:`TaskRuntime` objects with compilation caching."""

    def __init__(
        self,
        config: NPUConfig,
        profiles: Optional[Dict[str, SequenceProfile]] = None,
    ) -> None:
        self.config = config
        self.predictor = LatencyPredictor(config)
        self.profiles = profiles if profiles is not None else default_profiles()
        self.regressors: Dict[str, SequenceLengthRegressor] = {
            benchmark: SequenceLengthRegressor.from_profile(self.profiles[benchmark])
            for benchmark in BENCHMARK_PROFILE
            if benchmark in self.profiles
        }
        self._profile_cache: Dict[_ModelKey, ExecutionProfile] = {}
        self._estimate_cache: Dict[_ModelKey, float] = {}
        self._layer_cache: Dict[tuple, tuple] = {}
        self._timing_cache: Dict[tuple, LayerTiming] = {}

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def execution_profile(
        self,
        benchmark: str,
        batch: int,
        input_len: Optional[int] = None,
        output_len: Optional[int] = None,
    ) -> ExecutionProfile:
        """Ground-truth profile of one (model, batch, unroll) instance."""
        key = _ModelKey(benchmark, batch, input_len, output_len)
        cached = self._profile_cache.get(key)
        if cached is None:
            model = self._compile(benchmark, batch, input_len, output_len)
            cached = profile_model(model, self.config, cache=self._timing_cache)
            self._profile_cache[key] = cached
        return cached

    def isolated_cycles(self, spec: TaskSpec) -> float:
        """C_single for one task spec."""
        return self.execution_profile(
            spec.benchmark, spec.batch, spec.input_len, spec.actual_output_len
        ).total_cycles

    # ------------------------------------------------------------------
    # Prediction (what the scheduler sees)
    # ------------------------------------------------------------------
    def predicted_output_len(self, benchmark: str, input_len: int) -> int:
        """Regression-model output length (Sec V-B)."""
        if benchmark == "RNN-SA":
            return input_len  # linear app, Fig 8b
        regressor = self.regressors.get(benchmark)
        if regressor is None:
            raise KeyError(f"no regressor for benchmark {benchmark!r}")
        return regressor.predict(input_len)

    def estimated_cycles(self, spec: TaskSpec) -> float:
        """Time_estimated: Algorithm 1 over the *predicted* unroll."""
        if spec.is_rnn:
            assert spec.input_len is not None
            predicted_out = self.predicted_output_len(spec.benchmark, spec.input_len)
        else:
            predicted_out = None
        key = _ModelKey(spec.benchmark, spec.batch, spec.input_len, predicted_out)
        cached = self._estimate_cache.get(key)
        if cached is None:
            model = self._compile(
                spec.benchmark, spec.batch, spec.input_len, predicted_out
            )
            cached = self.predictor.predict_model(model)
            self._estimate_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def build_task(
        self, spec: TaskSpec, oracle: bool = False
    ) -> TaskRuntime:
        """Build the runtime for one request.

        With ``oracle=True`` the context's estimate is the exact simulated
        isolated time (the Sec VI-D oracular PREMA).
        """
        profile = self.execution_profile(
            spec.benchmark, spec.batch, spec.input_len, spec.actual_output_len
        )
        estimated = (
            profile.total_cycles if oracle else self.estimated_cycles(spec)
        )
        context = TaskContext(
            task_id=spec.task_id,
            priority=spec.priority,
            benchmark=spec.benchmark,
            estimated_cycles=estimated,
            last_update_cycles=spec.arrival_cycles,
        )
        return TaskRuntime(spec=spec, profile=profile, context=context)

    def build_workload(
        self, workload: WorkloadSpec, oracle: bool = False
    ) -> List[TaskRuntime]:
        """Build fresh runtimes for every task of a workload.

        Runtimes are mutable; each simulation run needs its own set, while
        the underlying profiles stay shared through the cache.
        """
        return [self.build_task(spec, oracle=oracle) for spec in workload.tasks]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _compile(
        self,
        benchmark: str,
        batch: int,
        input_len: Optional[int],
        output_len: Optional[int],
    ) -> CompiledModel:
        if is_rnn(benchmark):
            if input_len is None or output_len is None:
                raise ValueError(f"{benchmark}: RNN tasks need sequence lengths")
            graph = build_benchmark(
                benchmark, input_len=input_len, output_len=output_len
            )
        else:
            graph = build_benchmark(benchmark)
        return compile_model(graph, self.config, batch=batch, cache=self._layer_cache)

    def prediction_pairs(
        self, specs: Sequence[TaskSpec]
    ) -> List[Tuple[float, float]]:
        """(estimated, actual isolated) pairs for accuracy analyses."""
        return [
            (self.estimated_cycles(spec), self.isolated_cycles(spec))
            for spec in specs
        ]

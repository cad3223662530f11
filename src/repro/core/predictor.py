"""Architecture-aware inference-time prediction (paper Algorithm 1).

The predictor walks the GEMM layers (CONV/FC/RECR) of a compiled model and
sums, per layer, the double-buffered inner-tile and outer-tile costs:

    C1 = ACC + SH + 2*SW
    M1 = (SH*SW + SH*ACC) / BW
    T_inner = max(C1, M1)
    C2/M2   = same with the partial-n remainder
    T_layer = inner_count*T_inner + outer_count*T_outer

Vector-only layers (ACTV/POOL/SOFTMAX) are invisible to the predictor --
they are the deliberate blind spot that, together with partial-tile
savings in the engine, yields the paper's small-but-nonzero prediction
error.  For RNNs, the number of unrolled nodes is itself predicted from
the input sequence length via :class:`SequenceLengthRegressor`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.isa.compiler import CompiledModel
from repro.npu.config import NPUConfig
from repro.npu.systolic import predicted_gemm_cycles
from repro.npu.tiling import GemmShape


def predicted_layer_cycles(shape, config: NPUConfig) -> float:
    """Algorithm 1's estimate for one (m, k, n) GEMM layer."""
    return predicted_gemm_cycles(shape, config)


@dataclasses.dataclass(frozen=True)
class PredictionBreakdown:
    """Per-model prediction with layer-level detail for analysis."""

    model_name: str
    batch: int
    total_cycles: float
    layer_cycles: Dict[str, float]


class LatencyPredictor:
    """Network-wide inference time estimation (Algorithm 1, line 12).

    The CPU derives ``Time_estimated`` from the model topology before
    dispatching the request (Sec V-B "Putting Everything Together"); the
    scheduler then treats it as part of the task's context state.
    """

    def __init__(self, config: NPUConfig) -> None:
        self.config = config
        #: Algorithm 1's estimate per GEMM shape, the only input it reads.
        self._shape_cycles: Dict[GemmShape, float] = {}

    def _gemm_cycles(self, shape: GemmShape) -> float:
        cycles = self._shape_cycles.get(shape)
        if cycles is None:
            cycles = self._shape_cycles[shape] = predicted_gemm_cycles(
                shape, self.config
            )
        return cycles

    def predict_model(self, model: CompiledModel) -> float:
        """Estimated cycles for a compiled model (CNN or unrolled RNN)."""
        total = 0.0
        for layer in model.layers:
            for shape in layer.gemm_shapes:
                total += self._gemm_cycles(shape)
        return total

    def breakdown(self, model: CompiledModel) -> PredictionBreakdown:
        """Per-layer estimates (Fig 10 and accuracy analyses)."""
        layer_cycles: Dict[str, float] = {}
        for layer in model.layers:
            if not layer.gemm_shapes:
                continue
            layer_cycles[layer.name] = sum(
                self._gemm_cycles(shape) for shape in layer.gemm_shapes
            )
        return PredictionBreakdown(
            model_name=model.name,
            batch=model.batch,
            total_cycles=sum(layer_cycles.values()),
            layer_cycles=layer_cycles,
        )


class OraclePredictor:
    """Oracular variant for Sec VI-D: returns the exact simulated time.

    Built by experiments that already know each task's ground-truth
    isolated execution profile; lets us measure how far PREMA-with-model
    sits from PREMA-with-perfect-knowledge.
    """

    def __init__(self) -> None:
        self._truth: Dict[int, float] = {}

    def register(self, task_id: int, true_cycles: float) -> None:
        if true_cycles < 0:
            raise ValueError("true_cycles must be >= 0")
        self._truth[task_id] = true_cycles

    def observe(self, task) -> None:
        """Learn a completed task's ground truth (shared observe surface).

        Mirrors :meth:`repro.serving.feedback.PredictionFeedback.observe`
        so experiment code can plug either learner into the same
        completion hook: the oracle simply *becomes* exact for every task
        it has watched finish.  Duck-typed on ``task_id`` /
        ``isolated_cycles`` / ``is_done``.
        """
        if not task.is_done:
            raise ValueError(f"task {task.task_id} has not completed")
        self.register(task.task_id, task.isolated_cycles)

    def predict_task(self, task_id: int) -> float:
        if task_id not in self._truth:
            raise KeyError(f"oracle has no ground truth for task {task_id}")
        return self._truth[task_id]

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._truth

"""Open-arrival trace construction (the ROADMAP's trace-driven regime).

The paper evaluates closed 8-task workloads drawn over a fixed arrival
window (Sec III); production serving instead sees an *open* arrival
process: requests keep arriving for as long as the trace runs, and the
scheduler's per-event cost must not grow with the number of requests ever
seen.  This module builds such traces:

- :meth:`TraceGenerator.generate_poisson` -- memoryless arrivals at a
  configurable mean inter-arrival time (the M/G/1-style steady state);
- :meth:`TraceGenerator.generate_bursty` -- Poisson-arriving *bursts* of
  geometrically-sized request clusters, jittered over a small window (the
  flash-crowd regime that stresses ready-queue growth).

Per-task attributes (benchmark, batch, priority, RNN sequence lengths)
are drawn exactly like :class:`~repro.workloads.generator.WorkloadGenerator`
draws them, so traces compose with the existing ``TaskFactory`` pipeline.

For scheduler-hot-path benchmarking the module also builds *synthetic*
task runtimes: hand-made :class:`~repro.npu.engine.ExecutionProfile`
objects with a few uniform GEMM-like layers, skipping model construction,
compilation, and NPU profiling entirely.  A 5 000-task trace then costs
milliseconds to build, so a benchmark measures the event loop and not the
compiler.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List, Optional, Sequence

from repro.core.context import TaskContext
from repro.models.zoo import CNN_BENCHMARKS
from repro.npu.buffers import CheckpointProfile
from repro.npu.engine import ExecutionProfile, LayerTiming
from repro.models.layers import LayerKind
from repro.sched.task import TaskRuntime
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.specs import TaskSpec, WorkloadSpec

#: Default mean inter-arrival time: one request every 2.4 ms at 700 MHz.
#: Against the default synthetic service-time distribution (mean ~2 ms)
#: this puts one device at ~85% utilization -- heavily contended but
#: stable, so the steady-state ready queue stays bounded and per-event
#: cost measurements reflect the live set, not an unbounded backlog.
DEFAULT_MEAN_INTERARRIVAL_CYCLES = 2.4e-3 * 700e6


class TraceGenerator(WorkloadGenerator):
    """Seeded open-arrival trace generator (Poisson and bursty)."""

    def generate_poisson(
        self,
        num_tasks: int,
        mean_interarrival_cycles: float = DEFAULT_MEAN_INTERARRIVAL_CYCLES,
        start_cycles: float = 0.0,
        name: str = "",
    ) -> WorkloadSpec:
        """Memoryless arrivals: exponential inter-arrival gaps."""
        if num_tasks <= 0:
            raise ValueError("num_tasks must be positive")
        if not 0 < mean_interarrival_cycles < math.inf:
            raise ValueError("mean_interarrival_cycles must be finite and positive")
        arrivals: List[float] = []
        now = start_cycles
        for _ in range(num_tasks):
            now += self._rng.expovariate(1.0 / mean_interarrival_cycles)
            arrivals.append(now)
        return self._build_tasks(arrivals, name or f"poisson-{num_tasks}")

    def generate_bursty(
        self,
        num_tasks: int,
        mean_interarrival_cycles: float = DEFAULT_MEAN_INTERARRIVAL_CYCLES,
        burst_size_mean: float = 8.0,
        burst_spread_cycles: float = 0.05e-3 * 700e6,
        start_cycles: float = 0.0,
        name: str = "",
    ) -> WorkloadSpec:
        """Flash-crowd arrivals: Poisson bursts of geometric size.

        Burst *clusters* arrive as a Poisson process whose rate is scaled
        so the long-run mean inter-arrival time per task still equals
        ``mean_interarrival_cycles``; each cluster holds on average
        ``burst_size_mean`` tasks jittered uniformly over
        ``burst_spread_cycles``.
        """
        if num_tasks <= 0:
            raise ValueError("num_tasks must be positive")
        if not 0 < mean_interarrival_cycles < math.inf:
            raise ValueError("mean_interarrival_cycles must be finite and positive")
        if not 1.0 <= burst_size_mean < math.inf:
            raise ValueError("burst_size_mean must be finite and >= 1")
        if not 0 <= burst_spread_cycles < math.inf:
            raise ValueError("burst_spread_cycles must be finite and >= 0")
        cluster_gap = mean_interarrival_cycles * burst_size_mean
        arrivals: List[float] = []
        now = start_cycles
        while len(arrivals) < num_tasks:
            now += self._rng.expovariate(1.0 / cluster_gap)
            size = min(
                num_tasks - len(arrivals),
                1 + self._draw_geometric(burst_size_mean),
            )
            for _ in range(size):
                arrivals.append(now + self._rng.uniform(0.0, burst_spread_cycles))
        arrivals.sort()
        return self._build_tasks(arrivals, name or f"bursty-{num_tasks}")

    def _draw_geometric(self, mean: float) -> int:
        """True geometric extra-burst size with mean ``mean - 1``.

        Draws the number of *failures* before the first success of a
        Bernoulli(p) sequence with ``p = 1/mean`` via inversion
        sampling, so ``P(k) = (1-p)^k * p`` on support {0, 1, 2, ...}
        and ``E[k] = (1-p)/p = mean - 1`` exactly.  One uniform variate
        is consumed per draw, preserving the seeded RNG stream
        contract.  (The previous implementation floor-truncated an
        exponential, which biased the realized mean ~0.4-0.5 low.)
        """
        if mean <= 1.0:
            return 0
        success = 1.0 / mean
        # 1 - random() lies in (0, 1], keeping log() finite.
        draw = 1.0 - self._rng.random()
        return int(math.log(draw) / math.log(1.0 - success))


def assign_qos(
    workload: WorkloadSpec,
    mix: Dict[str, float],
    seed: int = 0,
    align_priority: bool = True,
) -> WorkloadSpec:
    """Tag each task with a QoS class drawn from ``mix`` (class -> weight).

    Returns a new :class:`WorkloadSpec` whose specs carry explicit
    ``qos`` tags; the draw uses its *own* RNG stream so tagging composes
    with any seeded trace without perturbing the arrival/attribute
    sequence (the seeded-reproducibility contract of ``_build_tasks``).
    Weights need not sum to 1.

    ``align_priority`` (default on) additionally rewrites each task's
    scheduler priority to its class's canonical one -- a serving frontend
    maps the pricing tier onto the paper's user-defined priorities
    (interactive -> HIGH, standard -> MEDIUM, batch -> LOW), so the
    per-device policy fights for the same tasks the SLOs protect.
    """
    from repro.serving.slo import PRIORITY_FOR_QOS, QoSClass

    if not mix:
        raise ValueError("mix must be non-empty")
    classes = sorted(mix)
    weights = [mix[name] for name in classes]
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ValueError("mix weights must be non-negative and sum > 0")
    rng = random.Random(seed ^ 0x0905)
    tagged = []
    for spec in workload.tasks:
        qos = rng.choices(classes, weights=weights)[0]
        replacements = {"qos": qos}
        if align_priority:
            replacements["priority"] = PRIORITY_FOR_QOS[QoSClass(qos)]
        tagged.append(dataclasses.replace(spec, **replacements))
    return dataclasses.replace(workload, tasks=tuple(tagged))


# ----------------------------------------------------------------------
# Synthetic runtimes: scheduler benchmarking without the compiler
# ----------------------------------------------------------------------
def synthetic_profile(
    name: str,
    total_cycles: float,
    num_layers: int = 4,
    tiles_per_layer: int = 32,
    checkpoint_bytes_per_layer: float = 256 * 1024,
) -> ExecutionProfile:
    """A hand-made GEMM-like execution profile of ``total_cycles``.

    Layers are uniform, each with ``tiles_per_layer`` preemption points
    and a flat checkpoint-size model, which exercises the same preemption
    machinery (tile-boundary snap, checkpoint DMA sizing) as a compiled
    model at none of the compilation cost.
    """
    if total_cycles <= 0:
        raise ValueError("total_cycles must be positive")
    if num_layers <= 0 or tiles_per_layer <= 0:
        raise ValueError("num_layers and tiles_per_layer must be positive")
    layer_cycles = total_cycles / num_layers
    checkpoint = CheckpointProfile(
        out_bytes_per_tile=checkpoint_bytes_per_layer / tiles_per_layer,
        total_tiles=tiles_per_layer,
        ubuf_cap_bytes=int(checkpoint_bytes_per_layer),
        accq_bytes=4096,
    )
    layers = tuple(
        LayerTiming(
            name=f"{name}-L{index}",
            kind=LayerKind.FC,
            cycles=layer_cycles,
            total_tiles=tiles_per_layer,
            tile_cycles=layer_cycles / tiles_per_layer,
            checkpoint=checkpoint,
            macs=int(layer_cycles) * 256,
        )
        for index in range(num_layers)
    )
    starts = tuple(index * layer_cycles for index in range(num_layers))
    return ExecutionProfile(
        name=name,
        batch=1,
        layers=layers,
        layer_starts=starts,
        total_cycles=layer_cycles * num_layers,
    )


def synthetic_runtime(
    spec: TaskSpec,
    isolated_cycles: float,
    estimated_cycles: Optional[float] = None,
    num_layers: int = 4,
    tiles_per_layer: int = 32,
) -> TaskRuntime:
    """Build one scheduler-ready task runtime around a synthetic profile."""
    profile = synthetic_profile(
        f"{spec.benchmark}-t{spec.task_id}",
        isolated_cycles,
        num_layers=num_layers,
        tiles_per_layer=tiles_per_layer,
    )
    context = TaskContext(
        task_id=spec.task_id,
        priority=spec.priority,
        benchmark=spec.benchmark,
        estimated_cycles=(
            profile.total_cycles if estimated_cycles is None else estimated_cycles
        ),
        last_update_cycles=spec.arrival_cycles,
    )
    return TaskRuntime(spec=spec, profile=profile, context=context)


def synthetic_trace_runtimes(
    num_tasks: int,
    seed: int = 0,
    mean_interarrival_cycles: float = DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    mean_service_cycles: float = 1.5e-3 * 700e6,
    estimate_error: float = 0.15,
    bursty: bool = False,
    benchmarks: Sequence[str] = CNN_BENCHMARKS,
    qos_mix: Optional[Dict[str, float]] = None,
    estimate_bias: Optional[Dict[str, float]] = None,
) -> List[TaskRuntime]:
    """One ready-to-run open-arrival trace of synthetic tasks.

    Service times are drawn log-uniform over roughly one decade around
    ``mean_service_cycles``; the scheduler-visible estimate carries a
    uniform relative error of up to ``estimate_error`` (the Algorithm-1
    information asymmetry, without running Algorithm 1), which stays
    below 1 so every estimate is positive.  CNN benchmark
    names avoid the RNN sequence-length machinery, so building the trace
    touches no model, compiler, or profiler code.

    ``qos_mix`` tags tasks with serving QoS classes via :func:`assign_qos`
    (its own RNG stream -- arrivals and attributes are unchanged).
    ``estimate_bias`` multiplies the scheduler-visible estimate of the
    named benchmarks by a fixed factor (e.g. ``{"CNN-AN": 0.6}`` makes
    every CNN-AN estimate a systematic 40% underestimate) -- the
    deterministic per-model miscalibration the online feedback layer
    exists to learn away.  Both default to off, leaving existing traces
    bit-for-bit identical.
    """
    if not 0 < mean_service_cycles < math.inf:
        raise ValueError("mean_service_cycles must be finite and positive")
    if not 0 <= estimate_error < 1:
        raise ValueError("estimate_error must be in [0, 1)")
    for benchmark, factor in (estimate_bias or {}).items():
        if not 0 < factor < math.inf:
            raise ValueError(f"estimate_bias[{benchmark!r}] must be finite and positive")
    generator = TraceGenerator(
        seed=seed, benchmarks=tuple(benchmarks), profiles={}
    )
    if bursty:
        workload = generator.generate_bursty(
            num_tasks, mean_interarrival_cycles
        )
    else:
        workload = generator.generate_poisson(
            num_tasks, mean_interarrival_cycles
        )
    if qos_mix is not None:
        workload = assign_qos(workload, qos_mix, seed=seed)
    rng = random.Random(seed + 0x5EED)
    runtimes = []
    for spec in workload.tasks:
        isolated = mean_service_cycles * (10.0 ** rng.uniform(-0.6, 0.6))
        error = 1.0 + rng.uniform(-estimate_error, estimate_error)
        if estimate_bias is not None:
            error *= estimate_bias.get(spec.benchmark, 1.0)
        runtimes.append(
            synthetic_runtime(spec, isolated, estimated_cycles=isolated * error)
        )
    return runtimes

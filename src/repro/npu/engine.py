"""Execution engine: ground-truth timing of a compiled model (Sec II-B/III).

The engine turns a :class:`~repro.isa.compiler.CompiledModel` into an
:class:`ExecutionProfile`: an ordered list of layer segments, each with its
true duration in cycles, its tile structure (for tile-boundary preemption),
and its checkpoint-size profile.  This is the "cycle-level performance
model" role of the paper's methodology; the closed forms it uses are
cross-validated against :mod:`repro.npu.cycle_sim`.

Timing model per GEMM layer:

- per-tile double-buffered cost ``max(compute, memory)`` with true partial
  tile extents (slightly cheaper than the Algorithm-1 prediction);
- one un-hidden cold-start memory phase + DRAM latency per layer;
- the vector-unit pipeline (fused ACTV, gate math) overlaps the array and
  only its final-tile tail is exposed;
- standalone vector layers (POOL/ACTV/SOFTMAX/EMBED) run on the vector
  unit/DMA alone.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.isa.compiler import CompiledLayer, CompiledModel
from repro.models.layers import LayerKind
from repro.npu.buffers import CheckpointProfile, layer_checkpoint_profile
from repro.npu.config import NPUConfig
from repro.npu.systolic import store_cycles, vector_op_cycles


@dataclasses.dataclass(frozen=True)
class LayerTiming:
    """Ground-truth timing of one layer."""

    name: str
    kind: LayerKind
    #: Total duration, cycles.
    cycles: float
    #: GEMM tiles in the layer (0 for vector-only layers).
    total_tiles: int
    #: Mean cycles per tile; preemption points snap to multiples of this.
    tile_cycles: float
    #: Checkpoint-size model (None for vector-only layers: in-place, no
    #: distinct output state to preserve, Sec IV-B).
    checkpoint: Optional[CheckpointProfile]
    #: MACs executed (Fig 10's x-axis).
    macs: int

    def tiles_done_at(self, offset_cycles: float) -> int:
        """Committed tiles after ``offset_cycles`` into the layer."""
        if offset_cycles <= 0 or self.total_tiles == 0:
            return 0
        if offset_cycles >= self.cycles:
            return self.total_tiles
        return min(self.total_tiles, int(offset_cycles / self.tile_cycles))

    def next_tile_boundary(self, offset_cycles: float) -> float:
        """Smallest tile-boundary offset >= ``offset_cycles``.

        GEMM_OP instructions are atomic (Sec IV-C): the preemption trap
        runs only after the in-flight tile commits.
        """
        if self.total_tiles == 0:
            return min(max(offset_cycles, 0.0), self.cycles)
        if offset_cycles >= self.cycles:
            return self.cycles
        boundary = math.ceil(offset_cycles / self.tile_cycles) * self.tile_cycles
        return min(boundary, self.cycles)

    def checkpoint_bytes_at(self, offset_cycles: float) -> float:
        """Checkpointable state size at an intra-layer offset."""
        if self.checkpoint is None:
            return 0.0
        return self.checkpoint.bytes_at(self.tiles_done_at(offset_cycles))


@dataclasses.dataclass(frozen=True)
class ExecutionProfile:
    """Ground-truth execution of a whole network on an idle NPU."""

    name: str
    batch: int
    layers: Tuple[LayerTiming, ...]
    #: Prefix sums of layer durations; entry i is the start cycle of layer i.
    layer_starts: Tuple[float, ...]
    total_cycles: float

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    def locate(self, offset_cycles: float) -> Tuple[int, float]:
        """Map a network-level offset to (layer index, intra-layer offset).

        Offsets at or past the end map to the final layer's end.
        """
        if offset_cycles <= 0:
            return 0, 0.0
        if offset_cycles >= self.total_cycles:
            last = self.num_layers - 1
            return last, self.layers[last].cycles
        index = bisect.bisect_right(self.layer_starts, offset_cycles) - 1
        return index, offset_cycles - self.layer_starts[index]

    def next_preemption_point(self, offset_cycles: float) -> float:
        """Network-level offset of the first safe preemption point >= offset."""
        index, intra = self.locate(offset_cycles)
        boundary = self.layers[index].next_tile_boundary(intra)
        return self.layer_starts[index] + boundary

    def checkpoint_bytes_at(self, offset_cycles: float) -> float:
        """Checkpointable state at a (boundary-aligned) network offset."""
        if offset_cycles >= self.total_cycles:
            return 0.0
        index, intra = self.locate(offset_cycles)
        return self.layers[index].checkpoint_bytes_at(intra)

    def max_checkpoint_bytes(self) -> float:
        """Worst-case checkpoint size across the network (Sec VI-G)."""
        best = 0.0
        for layer in self.layers:
            if layer.checkpoint is not None:
                best = max(best, layer.checkpoint.max_bytes)
        return best


# ----------------------------------------------------------------------
# Layer timing
# ----------------------------------------------------------------------
def _extent_counts(size: int, full: int) -> Tuple[Tuple[int, int], ...]:
    """((extent, tile count), ...) along one dimension: full tiles + remainder."""
    full_tiles, remainder = divmod(size, full)
    counts = []
    if full_tiles:
        counts.append((full, full_tiles))
    if remainder:
        counts.append((remainder, 1))
    return tuple(counts)


def gemm_cycles_by_category(shape, config: NPUConfig) -> Tuple[float, int, float]:
    """(steady-state cycles, tile count, cold-start fetch) for one GEMM.

    Identical tiles are counted, not iterated: a tiled GEMM has at most
    2x2x2 distinct tile extents (full/partial per dimension).  Equivalent
    to summing :func:`~repro.npu.systolic.tile_cycles` over
    ``TilePlan.tiles()`` -- tests pin the equivalence.
    """
    total = 0.0
    tiles = 0
    fill = config.array_height + 2 * config.array_width
    for sw, m_count in _extent_counts(shape.m, config.array_width):
        for sh, k_count in _extent_counts(shape.k, config.array_height):
            for acc, n_count in _extent_counts(shape.n, config.acc_depth):
                count = m_count * k_count * n_count
                # Fill/drain follow the *physical* array dims (data streams
                # through every row/column even under a partial tile).
                compute = acc + fill
                memory = (
                    (sh * sw + sh * acc)
                    * config.data_bytes
                    / config.bandwidth_bytes_per_cycle
                )
                total += max(compute, memory) * count
                tiles += count
    # The first tile in execution order is full along every dimension that
    # has a full tile (plan order starts at index 0,0,0).
    first_sw = min(shape.m, config.array_width)
    first_sh = min(shape.k, config.array_height)
    first_acc = min(shape.n, config.acc_depth)
    cold = (
        (first_sh * first_sw + first_sh * first_acc)
        * config.data_bytes
        / config.bandwidth_bytes_per_cycle
    )
    return total, tiles, cold


def time_gemm_layer(layer: CompiledLayer, config: NPUConfig) -> LayerTiming:
    """Ground-truth duration of a CONV/FC/RECR layer.

    No per-layer cold start: an intermediate layer's inputs are already
    resident in UBUF (the previous layer's outputs), and its first weight
    tile prefetches under the previous layer's tail compute.  A single
    DRAM-latency pipeline bubble is charged per layer.
    """
    total = 0.0
    tiles = 0
    # Grouped convolutions repeat one GEMM shape per group; count them once.
    shape_counts: dict = {}
    for shape in layer.gemm_shapes:
        shape_counts[shape] = shape_counts.get(shape, 0) + 1
    for shape, count in shape_counts.items():
        steady, shape_tiles, _cold = gemm_cycles_by_category(shape, config)
        total += steady * count
        tiles += shape_tiles * count
    total += config.memory_latency_cycles
    # Vector tail: fused elementwise work overlaps the array except for the
    # share belonging to the final output tile.
    if layer.vector_elems and layer.total_tiles:
        tail_elems = layer.vector_elems / layer.total_tiles
        total += vector_op_cycles(config, tail_elems)
    # Final output tile's store is exposed (nothing left to overlap it).
    if layer.out_elems:
        tail_out = layer.out_elems / max(1, layer.total_tiles)
        total += store_cycles(config, tail_out * config.data_bytes)
    checkpoint = layer_checkpoint_profile(
        config,
        out_elems_per_tile=layer.out_elems_per_tile,
        total_tiles=layer.total_tiles,
    )
    return LayerTiming(
        name=layer.name,
        kind=layer.kind,
        cycles=total,
        total_tiles=tiles,
        tile_cycles=total / tiles if tiles else total,
        checkpoint=checkpoint,
        macs=layer.macs,
    )


def time_vector_layer(layer: CompiledLayer, config: NPUConfig) -> LayerTiming:
    """Duration of an ACTV/POOL/SOFTMAX/EMBED/CONCAT layer."""
    total = 0.0
    if layer.kind == LayerKind.EMBED:
        total += store_cycles(config, layer.out_elems * config.data_bytes)
    if layer.vector_elems:
        total += vector_op_cycles(config, layer.vector_elems)
    # In-place layers preserve no distinct state (Sec IV-B).
    return LayerTiming(
        name=layer.name,
        kind=layer.kind,
        cycles=total,
        total_tiles=0,
        tile_cycles=total if total else 1.0,
        checkpoint=None,
        macs=0,
    )


def _time_layer(layer: CompiledLayer, config: NPUConfig) -> LayerTiming:
    if layer.is_gemm_layer:
        return time_gemm_layer(layer, config)
    return time_vector_layer(layer, config)


def profile_model(
    model: CompiledModel,
    config: NPUConfig,
    cache: Optional[Dict[tuple, LayerTiming]] = None,
) -> ExecutionProfile:
    """Time every layer of a compiled model on an idle NPU.

    ``cache``, one ``config``'s and kept by the caller, holds a timing per
    distinct set of the lowered fields the timing reads (kind, GEMM
    shapes, tiles, output and vector elements, MACs), so equal layers are
    timed once; a hit takes this layer's ``name``.
    """
    timings: List[LayerTiming] = []
    for layer in model.layers:
        if cache is None:
            timings.append(_time_layer(layer, config))
            continue
        key = (
            layer.kind, layer.gemm_shapes, layer.total_tiles,
            layer.out_elems, layer.vector_elems, layer.macs,
        )
        timing = cache.get(key)
        if timing is None:
            timing = cache[key] = _time_layer(layer, config)
        elif timing.name != layer.name:
            # Every field after name, in declaration order.
            timing = LayerTiming(layer.name, *tuple(vars(timing).values())[1:])
        timings.append(timing)
    starts: List[float] = []
    clock = 0.0
    for timing in timings:
        starts.append(clock)
        clock += timing.cycles
    return ExecutionProfile(
        name=model.name,
        batch=model.batch,
        layers=tuple(timings),
        layer_starts=tuple(starts),
        total_cycles=clock,
    )

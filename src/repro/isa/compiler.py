"""Compile a DNN graph into per-layer tiled instruction streams.

The compiler walks the graph in topological order and, for each node,
emits the LOAD/GEMM/VECTOR/STORE sequence the baseline NPU executes
(Sec II-B): weights stage through the weight buffer, activations stream
through UBUF, convolutions lower to GEMM via im2col, and fused ACTV work
rides VECTOR_OP.  The result -- a :class:`CompiledModel` -- is the single
artifact both the execution engine (ground truth) and the Algorithm-1
predictor consume, so they are guaranteed to agree on *what* executes and
differ only in how precisely they time it.

Timing works entirely from the geometric tile plans, so materializing the
per-tile instruction objects is optional (``materialize_streams``): the
multi-task simulator compiles thousands of task programs and skips them,
while tests and the cycle-stepping validator keep them.  Tests pin that
both paths agree on every aggregate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import (
    ConvOp,
    GemmOp,
    InstructionStream,
    LoadTile,
    StoreTile,
    VectorOp,
)
from repro.models.graph import Graph, Node, balanced_partition
from repro.models.layers import LayerKind
from repro.npu.config import NPUConfig
from repro.npu.tiling import GemmShape, TilePlan


@dataclasses.dataclass(frozen=True)
class CompiledLayer:
    """One graph node lowered onto the NPU."""

    node_index: int
    name: str
    kind: LayerKind
    #: GEMMs this layer executes (several for grouped/depthwise conv).
    gemm_shapes: Tuple[GemmShape, ...]
    #: Total GEMM tiles across all the layer's GEMMs.
    total_tiles: int
    #: Output activation elements (per full batch).
    out_elems: int
    #: Vector-unit elements (fused activation / pooling / gate math).
    vector_elems: int
    #: Weight elements staged for this layer.
    weight_elems: int
    #: Total MACs.
    macs: int
    #: Lowered instruction stream (None when not materialized).
    stream: Optional[InstructionStream]

    @property
    def is_gemm_layer(self) -> bool:
        return bool(self.gemm_shapes)

    @property
    def out_elems_per_tile(self) -> float:
        """Average output elements committed per tile (checkpoint model)."""
        if self.total_tiles == 0:
            return 0.0
        return self.out_elems / self.total_tiles


@dataclasses.dataclass(frozen=True)
class CompiledModel:
    """A whole network lowered for one batch size."""

    name: str
    batch: int
    layers: Tuple[CompiledLayer, ...]

    def __post_init__(self) -> None:
        if self.batch <= 0:
            raise ValueError("batch must be positive")

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_tiles(self) -> int:
        return sum(layer.total_tiles for layer in self.layers)

    def gemm_layers(self) -> List[CompiledLayer]:
        return [layer for layer in self.layers if layer.is_gemm_layer]

    def instruction_count(self) -> int:
        return sum(
            len(layer.stream) for layer in self.layers if layer.stream is not None
        )


def _lower_gemm_layer(
    node: Node,
    shapes: Sequence[GemmShape],
    config: NPUConfig,
    batch: int,
    opcode_cls: type,
) -> InstructionStream:
    """Emit the tile loop for a CONV/FC/RECR node.

    Weight-stationary order per GEMM: for each weight tile, LOAD_TILE the
    weights, then for each activation tile LOAD_TILE + GEMM_OP, with the
    output committed on the final reduction (k) step and STORE_TILE'd.
    Grouped convs repeat the loop per group.
    """
    stream = InstructionStream(label=node.name)
    data = config.data_bytes
    for shape in shapes:
        plan = TilePlan(shape=shape, config=config)
        for m_index in range(plan.m_tiles):
            for n_index in range(plan.n_tiles):
                out_tile_elems = 0
                for k_index in range(plan.k_tiles):
                    tile = plan.tile_at(m_index, k_index, n_index)
                    stream.append(
                        LoadTile(num_bytes=tile.sh * tile.sw * data, destination="wbuf")
                    )
                    stream.append(
                        LoadTile(num_bytes=tile.sh * tile.acc * data, destination="ubuf")
                    )
                    commits = k_index == plan.k_tiles - 1
                    stream.append(opcode_cls(tile=tile, commits_output=commits))
                    if commits:
                        out_tile_elems = tile.sw * tile.acc
                stream.append(StoreTile(num_bytes=out_tile_elems * data))
    vector = node.layer.vector_elems(list(node.input_specs), batch)
    if vector:
        stream.append(VectorOp(num_elems=vector))
    return stream


def _lower_vector_layer(node: Node, config: NPUConfig, batch: int) -> InstructionStream:
    """Emit the stream for ACTV/POOL/SOFTMAX/EMBED/CONCAT nodes."""
    stream = InstructionStream(label=node.name)
    data = config.data_bytes
    if node.kind == LayerKind.EMBED:
        # Embedding lookups pull `dim` elements per batch row from DRAM.
        out_elems = node.output_spec.elems * batch
        stream.append(LoadTile(num_bytes=out_elems * data, destination="ubuf"))
    vector = node.layer.vector_elems(list(node.input_specs), batch)
    if vector:
        stream.append(VectorOp(num_elems=vector))
    return stream


def compile_layer(
    node: Node, config: NPUConfig, batch: int, materialize_stream: bool = True
) -> CompiledLayer:
    """Lower one graph node to a :class:`CompiledLayer`."""
    inputs = list(node.input_specs)
    shapes = tuple(node.layer.gemms(inputs, batch))
    stream: Optional[InstructionStream] = None
    if shapes:
        total_tiles = sum(
            TilePlan(shape=s, config=config).total_tiles for s in shapes
        )
        if materialize_stream:
            opcode_cls = ConvOp if node.kind == LayerKind.CONV else GemmOp
            stream = _lower_gemm_layer(node, shapes, config, batch, opcode_cls)
    else:
        total_tiles = 0
        if materialize_stream:
            stream = _lower_vector_layer(node, config, batch)
    return CompiledLayer(
        node_index=node.index,
        name=node.name,
        kind=node.kind,
        gemm_shapes=shapes,
        total_tiles=total_tiles,
        out_elems=node.output_spec.elems * batch,
        vector_elems=node.layer.vector_elems(inputs, batch),
        weight_elems=node.layer.weight_elems(inputs),
        macs=node.layer.macs(inputs, batch),
        stream=stream,
    )


def compile_model(
    graph: Graph,
    config: NPUConfig,
    batch: int = 1,
    materialize_streams: bool = False,
    cache: Optional[Dict[tuple, tuple]] = None,
) -> CompiledModel:
    """Lower a whole graph for one batch size.

    ``cache``, one ``config``'s and kept by the caller, holds a lowering
    per distinct node: its layer's class and fields other than ``name``,
    its input shapes and the batch fix every lowered field, so an
    unrolled RNN cell or a model built again lowers once, and a hit takes
    this node's ``node_index`` and ``name``.  Streams are per node, so
    ``materialize_streams`` bypasses the cache.
    """
    if batch <= 0:
        raise ValueError("batch must be positive")
    if cache is None or materialize_streams:
        layers = tuple(
            compile_layer(node, config, batch, materialize_stream=materialize_streams)
            for node in graph
        )
    else:
        layers = tuple(_cached_layer(node, config, batch, cache) for node in graph)
    return CompiledModel(name=graph.name, batch=batch, layers=layers)


def _cached_layer(
    node: Node, config: NPUConfig, batch: int, cache: Dict[tuple, tuple]
) -> CompiledLayer:
    layer = node.layer
    fields = tuple(value for field, value in vars(layer).items() if field != "name")
    key = (type(layer), fields, tuple(node.input_specs), batch)
    lowered = cache.get(key)
    if lowered is None:
        compiled = compile_layer(node, config, batch, materialize_stream=False)
        # Every field after node_index and name, in declaration order.
        cache[key] = tuple(vars(compiled).values())[2:]
        return compiled
    return CompiledLayer(node.index, node.name, *lowered)


def partition_model(
    model: CompiledModel, num_stages: int
) -> Tuple[CompiledModel, ...]:
    """Cut a compiled model into contiguous pipeline-stage submodels.

    Stages are balanced by compiled MAC mass (the same cut rule as
    :meth:`~repro.models.graph.Graph.partition`, applied after lowering so
    sequence-unrolled RNNs partition over their true unrolled layers).
    Each stage is a self-contained :class:`CompiledModel` whose layers
    keep their original ``node_index``, so profiles and stage boundaries
    stay traceable back to the source graph.
    """
    if not model.layers:
        raise ValueError("cannot partition a model with no layers")
    ranges = balanced_partition(
        [layer.macs for layer in model.layers], num_stages
    )
    return tuple(
        CompiledModel(
            name=f"{model.name}@s{index}",
            batch=model.batch,
            layers=model.layers[start:end],
        )
        for index, (start, end) in enumerate(ranges)
    )

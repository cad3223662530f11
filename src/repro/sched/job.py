"""Router dispatches as gangs of stage slices: cutting and batching.

PREMA's unit of scheduling is "a task runs on one device".  The cluster
router (:class:`~repro.sched.cluster.ClusterScheduler`) dispatches a
request, or a router-coalesced batch of requests, as a gang of one or
more stage slices -- Parcae-style pipelines whose stages run a model
over the interconnect.  This module holds the pieces a dispatch is built
from: the stage plans a profile is cut into, the batching knobs and cost
model, and member settlement.

Design invariants:

- **A plain task is a one-stage gang.**  Its one slice *is* the task's
  runtime, so ``ClusterScheduler.run(tasks)`` without sharding executes
  every task as itself, and the golden suites pin that path bit-for-bit.
- **Slices are ordinary tasks on their device.**  A stage slice is a
  :class:`~repro.sched.task.TaskRuntime` over a stage-cut
  :class:`~repro.npu.engine.ExecutionProfile`; per-device preemption,
  checkpointing, work stealing and migration apply to it unchanged.
  Inter-stage activations ship over the contended interconnect as the
  MockSim DMA idiom: DMA-out is the fabric transfer requested at the
  predecessor's COMPLETE, DMA-in is the successor's ``restore_pending``
  charged at its first dispatch, compute is the slice run itself.
- **Batching is a router concern.**  :func:`merge_runtimes` folds
  compatible queued requests into one proxy runtime whose cost follows
  the marginal-batching model ``max + alpha * (sum - max)``; member
  accounting is settled from the proxy at completion.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.core.context import TaskContext, TaskState
from repro.models.graph import balanced_partition
from repro.npu.engine import ExecutionProfile, LayerTiming
from repro.sched.interconnect import CONTEXT_ROW_BYTES
from repro.sched.task import TaskRuntime


@dataclasses.dataclass(frozen=True)
class StagePlan:
    """One pipeline stage of a dispatch: what executes, and what ships next.

    ``activation_bytes`` is the boundary tensor DMA-ed to the next stage's
    device (0 signals the final stage -- nothing ships).  Cut from the
    source profile by :func:`partition_runtime`.
    """

    index: int
    profile: ExecutionProfile
    #: Scheduler-visible estimate for this stage (the source estimate
    #: scaled by the stage's ground-truth share -- the information
    #: asymmetry carries through the cut).
    estimated_cycles: float
    activation_bytes: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("stage index must be >= 0")
        if self.estimated_cycles <= 0:
            raise ValueError("stage estimate must be positive")
        if self.activation_bytes < 0:
            raise ValueError("activation_bytes must be >= 0")


@dataclasses.dataclass(frozen=True)
class BatchConfig:
    """Router-level batching / sharding knobs of the cluster frontend.

    ``window_cycles`` is how long the first request of a batch key holds
    the batch open for compatible joiners; ``max_batch`` flushes early
    when reached.  ``marginal_fraction`` (alpha) is the batching cost
    model: a merged dispatch costs ``max + alpha * (sum - max)`` of its
    members' isolated cycles -- alpha = 1 is no amortization, alpha = 0 is
    perfect weight-reuse overlap.  ``shard_stages`` > 1 additionally cuts
    every dispatch into that many pipeline stages (clamped to layer
    count and fleet size) when its merged cost clears
    ``min_shard_cycles`` -- sharding tiny requests just buys DMA overhead.
    """

    window_cycles: float
    max_batch: int = 8
    marginal_fraction: float = 0.75
    shard_stages: int = 1
    min_shard_cycles: float = 0.0

    def __post_init__(self) -> None:
        if not self.window_cycles >= 0:
            raise ValueError("window_cycles must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not 0.0 <= self.marginal_fraction <= 1.0:
            raise ValueError("marginal_fraction must be in [0, 1]")
        if self.shard_stages < 1:
            raise ValueError("shard_stages must be >= 1")
        if not self.min_shard_cycles >= 0:
            raise ValueError("min_shard_cycles must be >= 0")


def batch_key(spec) -> Tuple:
    """Requests coalesce iff this key matches.

    Priority and QoS are part of the key: a batch holds exactly one
    service class, so merging never blends token economies or SLOs.
    """
    return (
        spec.benchmark,
        spec.batch,
        spec.input_len,
        spec.actual_output_len,
        spec.priority,
        spec.qos,
    )


# ----------------------------------------------------------------------
# Stage cutting
# ----------------------------------------------------------------------
def _stage_profile(
    profile: ExecutionProfile, start: int, end: int, index: int
) -> ExecutionProfile:
    """One contiguous layer range of ``profile`` as a standalone profile."""
    layers = profile.layers[start:end]
    starts: List[float] = []
    offset = 0.0
    for layer in layers:
        starts.append(offset)
        offset += layer.cycles
    return ExecutionProfile(
        name=f"{profile.name}@s{index}",
        batch=profile.batch,
        layers=layers,
        layer_starts=tuple(starts),
        total_cycles=offset,
    )


def _boundary_bytes(layers: Sequence[LayerTiming]) -> float:
    """Activation bytes crossing a stage cut after ``layers``.

    The boundary tensor is the last checkpointable layer's full committed
    output (vector-only layers are in-place over it).  Floored at one
    context-table row: even a degenerate boundary ships task state.
    """
    for layer in reversed(layers):
        if layer.checkpoint is not None:
            full = layer.checkpoint.bytes_at(layer.checkpoint.total_tiles)
            return max(CONTEXT_ROW_BYTES, full)
    return CONTEXT_ROW_BYTES


def partition_runtime(
    runtime: TaskRuntime, num_stages: int
) -> List[StagePlan]:
    """Cut a runtime's profile into balanced pipeline stage plans.

    Stages are balanced by ground-truth layer cycles; the requested stage
    count is clamped to the layer count (a 2-layer model cannot fill 4
    stages).  The scheduler-visible estimate splits by each stage's
    ground-truth share, so the per-stage information asymmetry matches
    the whole-model one.
    """
    profile = runtime.profile
    stages = max(1, min(num_stages, len(profile.layers)))
    ranges = balanced_partition(
        [layer.cycles for layer in profile.layers], stages
    )
    estimate = max(runtime.context.estimated_cycles, 1e-9)
    total = max(profile.total_cycles, 1e-9)
    plans: List[StagePlan] = []
    for index, (start, end) in enumerate(ranges):
        stage_profile = _stage_profile(profile, start, end, index)
        share = stage_profile.total_cycles / total
        last = index == len(ranges) - 1
        plans.append(
            StagePlan(
                index=index,
                profile=stage_profile,
                estimated_cycles=max(estimate * share, 1e-9),
                activation_bytes=(
                    0.0 if last else _boundary_bytes(stage_profile.layers)
                ),
            )
        )
    return plans


def stage_runtime(
    source: TaskRuntime,
    plan: StagePlan,
    task_id: int,
    arrival: float,
    restore_cycles: float = 0.0,
) -> TaskRuntime:
    """Build the slice runtime executing one stage plan of ``source``.

    ``restore_cycles`` is the stage's DMA-in cost: the time to land the
    inbound activation tensor in UBUF, charged at first dispatch via the
    existing ``restore_pending`` machinery (exactly how a checkpoint
    restore charges).  Stage 0 has no inbound tensor.
    """
    spec = dataclasses.replace(
        source.spec, task_id=task_id, arrival_cycles=arrival
    )
    context = TaskContext(
        task_id=task_id,
        priority=spec.priority,
        benchmark=spec.benchmark,
        estimated_cycles=plan.estimated_cycles,
        last_update_cycles=arrival,
    )
    runtime = TaskRuntime(spec=spec, profile=plan.profile, context=context)
    runtime.restore_pending = max(0.0, restore_cycles)
    return runtime


# ----------------------------------------------------------------------
# Router batching
# ----------------------------------------------------------------------
def merged_cost(
    isolated: Sequence[float], marginal_fraction: float
) -> float:
    """The batching cost model: ``max + alpha * (sum - max)``.

    The largest member sets the floor (its layers all execute); each
    extra member pays only the marginal fraction of its own cost, since
    weight fetch and switch overheads are shared across the batch.
    """
    if not isolated:
        raise ValueError("need at least one member")
    largest = max(isolated)
    return largest + marginal_fraction * (sum(isolated) - largest)


def merge_runtimes(
    members: Sequence[TaskRuntime],
    task_id: int,
    now: float,
    marginal_fraction: float,
    tracer=None,
) -> TaskRuntime:
    """Fold compatible queued requests into one batched proxy runtime.

    The proxy executes the largest member's profile with layer durations
    scaled to the merged cost and checkpoint footprints scaled by the
    member count (a batched checkpoint carries every member's
    activations).  Its scheduler-visible estimate applies the same
    marginal model to the members' *estimates*, so admission and routing
    predict the batched dispatch, not the sum of solo runs.
    """
    if not members:
        raise ValueError("need at least one member")
    if len(members) == 1:
        return members[0]
    largest = max(members, key=lambda m: m.isolated_cycles)
    total = merged_cost(
        [m.isolated_cycles for m in members], marginal_fraction
    )
    scale = total / max(largest.isolated_cycles, 1e-9)
    count = len(members)
    layers: List[LayerTiming] = []
    starts: List[float] = []
    offset = 0.0
    for layer in largest.profile.layers:
        checkpoint = layer.checkpoint
        if checkpoint is not None:
            checkpoint = dataclasses.replace(
                checkpoint,
                out_bytes_per_tile=checkpoint.out_bytes_per_tile * count,
                ubuf_cap_bytes=checkpoint.ubuf_cap_bytes * count,
            )
        layers.append(
            dataclasses.replace(
                layer,
                cycles=layer.cycles * scale,
                tile_cycles=layer.tile_cycles * scale,
                checkpoint=checkpoint,
            )
        )
        starts.append(offset)
        offset += layer.cycles * scale
    profile = ExecutionProfile(
        name=f"batch{count}x{largest.profile.name}",
        batch=sum(m.profile.batch for m in members),
        layers=tuple(layers),
        layer_starts=tuple(starts),
        total_cycles=offset,
    )
    estimate = merged_cost(
        [max(m.context.estimated_cycles, 1e-9) for m in members],
        marginal_fraction,
    )
    spec = dataclasses.replace(
        members[0].spec,
        task_id=task_id,
        batch=sum(m.spec.batch for m in members),
        arrival_cycles=now,
    )
    context = TaskContext(
        task_id=task_id,
        priority=spec.priority,
        benchmark=spec.benchmark,
        estimated_cycles=estimate,
        last_update_cycles=now,
    )
    if tracer is not None and tracer.enabled:
        tracer.instant(
            "batch_merge",
            f"merge {count}x{largest.profile.name}",
            now,
            args={
                "proxy": task_id,
                "members": [m.task_id for m in members],
                "merged_estimate": estimate,
            },
        )
    return TaskRuntime(spec=spec, profile=profile, context=context)


def settle_member(
    member: TaskRuntime,
    now: float,
    first_dispatch: Optional[float] = None,
) -> None:
    """Mark a member request done on behalf of its proxy execution.

    Members of a batched (or sharded) dispatch never run under their own
    ids; their accounting -- wait accrual to the finish instant,
    completion time, DONE state -- settles from the proxy here.  ``first_dispatch``
    back-dates queueing-delay attribution to when the proxy first touched
    an NPU.
    """
    if member.is_done:
        raise RuntimeError(f"request {member.task_id} already settled")
    member.context.accrue_wait(now)
    member.context.state = TaskState.DONE
    member.context.executed_cycles = member.profile.total_cycles
    member.context.last_update_cycles = now
    member.retained_offset = member.profile.total_cycles
    member.dispatch_time = None
    if member.first_dispatch_time is None:
        member.first_dispatch_time = (
            now if first_dispatch is None else first_dispatch
        )
    member.completion_time = now

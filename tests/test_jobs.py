"""Unit tests of the job layer: stage cutting, batching, configuration.

Covers the dispatch building blocks in isolation from the cluster event loop:

- :func:`balanced_partition` / :meth:`Graph.partition` /
  :func:`partition_model` -- the model-cutting primitives.
- :func:`partition_runtime` / :func:`stage_runtime` -- the profile cut
  conserves cycles and the information asymmetry, and the DMA-in cost
  lands as ``restore_pending``.
- :func:`merged_cost` / :func:`merge_runtimes` / :func:`settle_member`
  -- the router batching cost model and member accounting.
- :class:`ClusterConfig` -- the new construction surface and its
  equivalence with the deprecated kwargs path.
- The derived routing membership sets stay exhaustive.
"""

import dataclasses

import pytest

from repro.core.tokens import Priority
from repro.isa.compiler import compile_model, partition_model
from repro.models.graph import balanced_partition
from repro.models.zoo import build_benchmark
from repro.npu.config import NPUConfig
from repro.npu.engine import profile_model
from repro.sched.cluster import (
    ONLINE_ROUTINGS,
    STATIC_ROUTINGS,
    ClusterConfig,
    ClusterScheduler,
    RoutingPolicy,
)
from repro.sched.interconnect import CONTEXT_ROW_BYTES
from repro.sched.job import (
    BatchConfig,
    StagePlan,
    batch_key,
    merge_runtimes,
    merged_cost,
    partition_runtime,
    settle_member,
    stage_runtime,
)
from repro.sched.simulator import PreemptionMode, SimulationConfig
from repro.workloads.specs import TaskSpec
from repro.workloads.trace import synthetic_runtime

_CONFIG = NPUConfig()


def make_runtime(task_id=0, cycles=1_000_000.0, arrival=0.0,
                 estimated=None, priority=Priority.MEDIUM, num_layers=4):
    spec = TaskSpec(
        task_id=task_id, benchmark="CNN-AN", batch=1,
        priority=priority, arrival_cycles=arrival,
    )
    return synthetic_runtime(
        spec, cycles, estimated_cycles=estimated, num_layers=num_layers
    )


# ----------------------------------------------------------------------
# Model cutting primitives
# ----------------------------------------------------------------------
class TestBalancedPartition:
    def test_uniform_split(self):
        assert balanced_partition([1, 1, 1, 1], 2) == ((0, 2), (2, 4))

    def test_heavy_head_isolates(self):
        assert balanced_partition([5, 1, 1, 1], 2) == ((0, 1), (1, 4))

    def test_single_stage_is_whole(self):
        assert balanced_partition([3, 2, 1], 1) == ((0, 3),)

    def test_stages_equal_count(self):
        assert balanced_partition([1, 2, 3], 3) == ((0, 1), (1, 2), (2, 3))

    def test_covers_every_item_once(self):
        weights = [3, 1, 4, 1, 5, 9, 2, 6]
        for stages in range(1, len(weights) + 1):
            ranges = balanced_partition(weights, stages)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == len(weights)
            for (_, end), (start, _) in zip(ranges, ranges[1:]):
                assert end == start
            assert all(start < end for start, end in ranges)

    def test_zero_mass_falls_back_to_counts(self):
        assert balanced_partition([0, 0, 0, 0], 2) == ((0, 2), (2, 4))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            balanced_partition([1, 2], 0)
        with pytest.raises(ValueError):
            balanced_partition([1, 2], 3)
        with pytest.raises(ValueError):
            balanced_partition([1, -1], 1)


class TestModelPartition:
    def test_graph_partition_covers_nodes(self):
        graph = build_benchmark("CNN-AN")
        ranges = graph.partition(3)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(graph.nodes)

    def test_partition_model_conserves_layers(self):
        model = compile_model(build_benchmark("CNN-AN"), _CONFIG, batch=1)
        stages = partition_model(model, 3)
        assert len(stages) == 3
        assert sum(len(s.layers) for s in stages) == len(model.layers)
        rejoined = [layer for stage in stages for layer in stage.layers]
        assert rejoined == list(model.layers)
        assert [s.name for s in stages] == [
            f"{model.name}@s{i}" for i in range(3)
        ]

    def test_partition_model_balances_macs(self):
        # partition_model balances compile-time MACs (all it can see);
        # cycle balance is partition_runtime's job, over the profile.
        model = compile_model(build_benchmark("CNN-AN"), _CONFIG, batch=1)
        whole = profile_model(model, _CONFIG).total_cycles
        stages = partition_model(model, 2)
        parts = [profile_model(s, _CONFIG).total_cycles for s in stages]
        assert sum(parts) == pytest.approx(whole, rel=1e-9)
        total_macs = sum(layer.macs for layer in model.layers)
        stage_macs = [
            sum(layer.macs for layer in stage.layers) for stage in stages
        ]
        assert sum(stage_macs) == total_macs
        assert max(stage_macs) / total_macs < 0.9

    def test_partition_runtime_balances_cycles(self, factory):
        spec = TaskSpec(
            task_id=0, benchmark="CNN-AN", batch=1,
            priority=Priority.LOW, arrival_cycles=0.0,
        )
        runtime = factory.build_task(spec)
        plans = partition_runtime(runtime, 2)
        whole = runtime.profile.total_cycles
        parts = [p.profile.total_cycles for p in plans]
        assert sum(parts) == pytest.approx(whole, rel=1e-9)
        # A cycle-balanced 2-cut never puts >90% in one stage.
        assert max(parts) / whole < 0.9


# ----------------------------------------------------------------------
# Stage cutting over runtimes
# ----------------------------------------------------------------------
class TestPartitionRuntime:
    def test_cycles_and_estimates_conserve(self):
        runtime = make_runtime(cycles=4_000_000.0, estimated=3_000_000.0)
        plans = partition_runtime(runtime, 2)
        assert len(plans) == 2
        assert sum(p.profile.total_cycles for p in plans) == pytest.approx(
            runtime.profile.total_cycles, rel=1e-9
        )
        # The cut splits the *estimate* by ground-truth share: the
        # information asymmetry carries through, never leaks truth.
        assert sum(p.estimated_cycles for p in plans) == pytest.approx(
            3_000_000.0, rel=1e-9
        )

    def test_activation_bytes_interior_only(self):
        runtime = make_runtime(cycles=4_000_000.0)
        plans = partition_runtime(runtime, 4)
        for plan in plans[:-1]:
            assert plan.activation_bytes >= CONTEXT_ROW_BYTES
        assert plans[-1].activation_bytes == 0.0

    def test_clamps_to_layer_count(self):
        runtime = make_runtime(num_layers=2)
        assert len(partition_runtime(runtime, 8)) == 2

    def test_stage_runtime_charges_dma_in(self):
        runtime = make_runtime(cycles=2_000_000.0)
        plans = partition_runtime(runtime, 2)
        slice_rt = stage_runtime(
            runtime, plans[1], task_id=99, arrival=123.0,
            restore_cycles=456.0,
        )
        assert slice_rt.task_id == 99
        assert slice_rt.spec.arrival_cycles == 123.0
        assert slice_rt.restore_pending == 456.0
        assert slice_rt.context.estimated_cycles == plans[1].estimated_cycles
        # Dispatch consumes the DMA-in as a restore, like a checkpoint.
        finish = slice_rt.dispatch(1000.0)
        assert finish == pytest.approx(
            1000.0 + 456.0 + plans[1].profile.total_cycles
        )

    def test_stage_plan_validation(self):
        runtime = make_runtime()
        with pytest.raises(ValueError):
            StagePlan(
                index=-1, profile=runtime.profile,
                estimated_cycles=1.0, activation_bytes=0.0,
            )
        with pytest.raises(ValueError):
            StagePlan(
                index=0, profile=runtime.profile,
                estimated_cycles=0.0, activation_bytes=0.0,
            )
        with pytest.raises(ValueError):
            StagePlan(
                index=0, profile=runtime.profile,
                estimated_cycles=1.0, activation_bytes=-1.0,
            )


# ----------------------------------------------------------------------
# Router batching
# ----------------------------------------------------------------------
class TestBatching:
    def test_merged_cost_model(self):
        assert merged_cost([100.0], 0.5) == 100.0
        assert merged_cost([100.0, 60.0], 0.5) == 130.0
        assert merged_cost([100.0, 60.0], 1.0) == 160.0  # no amortization
        assert merged_cost([100.0, 60.0], 0.0) == 100.0  # perfect overlap
        with pytest.raises(ValueError):
            merged_cost([], 0.5)

    def test_batch_key_separates_classes(self):
        base = TaskSpec(
            task_id=0, benchmark="CNN-AN", batch=1,
            priority=Priority.MEDIUM, arrival_cycles=0.0,
        )
        same = dataclasses.replace(base, task_id=1, arrival_cycles=9.0)
        assert batch_key(base) == batch_key(same)
        for variant in (
            dataclasses.replace(base, benchmark="CNN-GN"),
            dataclasses.replace(base, batch=2),
            dataclasses.replace(base, priority=Priority.HIGH),
            dataclasses.replace(base, qos="batch"),
        ):
            assert batch_key(variant) != batch_key(base)

    def test_merge_runtimes_cost_and_shape(self):
        a = make_runtime(task_id=0, cycles=1_000_000.0, estimated=900_000.0)
        b = make_runtime(task_id=1, cycles=600_000.0, estimated=660_000.0)
        merged = merge_runtimes([a, b], task_id=50, now=10.0,
                                marginal_fraction=0.5)
        assert merged.task_id == 50
        assert merged.spec.arrival_cycles == 10.0
        assert merged.spec.batch == 2
        assert merged.profile.total_cycles == pytest.approx(
            merged_cost([1_000_000.0, 600_000.0], 0.5), rel=1e-9
        )
        assert merged.context.estimated_cycles == pytest.approx(
            merged_cost([900_000.0, 660_000.0], 0.5), rel=1e-9
        )
        # The proxy keeps the largest member's layer structure, with the
        # checkpoint footprint scaled by the member count.
        assert len(merged.profile.layers) == len(a.profile.layers)
        for merged_layer, solo_layer in zip(
            merged.profile.layers, a.profile.layers
        ):
            assert merged_layer.checkpoint.out_bytes_per_tile == (
                pytest.approx(solo_layer.checkpoint.out_bytes_per_tile * 2)
            )

    def test_merge_single_member_is_identity(self):
        a = make_runtime()
        assert merge_runtimes([a], task_id=9, now=0.0,
                              marginal_fraction=0.5) is a

    def test_settle_member_accounting(self):
        member = make_runtime(task_id=7, arrival=100.0)
        settle_member(member, now=5_100.0, first_dispatch=600.0)
        assert member.is_done
        assert member.completion_time == 5_100.0
        assert member.first_dispatch_time == 600.0
        assert member.context.executed_cycles == (
            member.profile.total_cycles
        )
        assert member.context.waited_cycles == pytest.approx(5_000.0)
        with pytest.raises(RuntimeError):
            settle_member(member, now=6_000.0)

    def test_batch_config_validation(self):
        BatchConfig(window_cycles=0.0)  # degenerate but legal
        with pytest.raises(ValueError):
            BatchConfig(window_cycles=-1.0)
        with pytest.raises(ValueError):
            BatchConfig(window_cycles=1.0, max_batch=0)
        with pytest.raises(ValueError):
            BatchConfig(window_cycles=1.0, marginal_fraction=1.5)
        with pytest.raises(ValueError):
            BatchConfig(window_cycles=1.0, shard_stages=0)
        with pytest.raises(ValueError):
            BatchConfig(window_cycles=1.0, min_shard_cycles=-1.0)


# ----------------------------------------------------------------------
# ClusterConfig
# ----------------------------------------------------------------------
def _sim_config():
    return SimulationConfig(npu=_CONFIG, mode=PreemptionMode.DYNAMIC)


class TestClusterConfig:
    def test_defaults_match_legacy_defaults(self):
        scheduler = ClusterScheduler(2, _sim_config())
        assert scheduler.policy_name == "PREMA"
        assert scheduler.routing is RoutingPolicy.LEAST_LOADED
        assert scheduler.interconnect.name == "pcie-gen3"
        assert scheduler.batching is None

    def test_batching_requires_online_routing(self):
        with pytest.raises(ValueError):
            ClusterScheduler(
                2, _sim_config(),
                config=ClusterConfig(
                    routing=RoutingPolicy.ROUND_ROBIN,
                    batching=BatchConfig(window_cycles=1e6),
                ),
            )

    @pytest.mark.parametrize(
        "routing", sorted(STATIC_ROUTINGS, key=lambda r: r.value)
    )
    def test_sharding_requires_online_routing(self, routing):
        # A gang reserves a device per stage against live backlogs, so
        # no static routing may cut dispatches into stages.
        with pytest.raises(ValueError, match="online routing"):
            ClusterScheduler(
                2, _sim_config(),
                config=ClusterConfig(
                    routing=routing,
                    batching=BatchConfig(
                        window_cycles=0.0, max_batch=1, shard_stages=2
                    ),
                ),
            )


# ----------------------------------------------------------------------
# Routing membership sets
# ----------------------------------------------------------------------
class TestRoutingSets:
    def test_sets_partition_the_enum(self):
        assert STATIC_ROUTINGS | ONLINE_ROUTINGS == frozenset(RoutingPolicy)
        assert not STATIC_ROUTINGS & ONLINE_ROUTINGS

    def test_expected_members(self):
        assert RoutingPolicy.ROUND_ROBIN in STATIC_ROUTINGS
        assert RoutingPolicy.ONLINE_PREDICTED in ONLINE_ROUTINGS
        assert RoutingPolicy.PREEMPTIVE_MIGRATION in ONLINE_ROUTINGS

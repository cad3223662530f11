"""TaskFactory: ground truth vs scheduler-visible estimates."""

import dataclasses

import pytest

from repro.core.predictor import LatencyPredictor
from repro.core.tokens import Priority
from repro.isa import compiler as compiler_module
from repro.isa.compiler import compile_model
from repro.models.zoo import BENCHMARKS, build_benchmark, is_rnn
from repro.npu.engine import profile_model
from repro.sched.prepare import TaskFactory
from repro.workloads.specs import TaskSpec

#: RNN unrolls (input, output); the first two both give RNN-MT1 60 nodes.
_UNROLLS = ((5, 9), (10, 6), (20, 20))


def cnn_spec(task_id=0, benchmark="CNN-AN", batch=1):
    return TaskSpec(task_id, benchmark, batch, Priority.MEDIUM, 0.0)


def rnn_spec(task_id=0, benchmark="RNN-MT1", input_len=20, output_len=25):
    return TaskSpec(task_id, benchmark, 1, Priority.MEDIUM, 0.0,
                    input_len=input_len, actual_output_len=output_len)


class TestGroundTruth:
    def test_profile_cache_hits(self, factory):
        first = factory.execution_profile("CNN-AN", 1)
        second = factory.execution_profile("CNN-AN", 1)
        assert first is second

    def test_rnn_requires_lengths(self, factory):
        with pytest.raises(ValueError):
            factory.execution_profile("RNN-MT1", 1)

    def test_isolated_cycles_positive(self, factory):
        assert factory.isolated_cycles(cnn_spec()) > 0


class TestEstimates:
    def test_cnn_estimate_close_to_truth(self, factory):
        # Sec VI-D regime: the architecture-aware model lands within a few
        # percent for static-topology networks.
        spec = cnn_spec(benchmark="CNN-VN")
        estimated = factory.estimated_cycles(spec)
        actual = factory.isolated_cycles(spec)
        assert abs(estimated - actual) / actual < 0.10

    def test_rnn_estimate_uses_predicted_length(self, factory):
        # The estimate is computed at the regressor's predicted output
        # length, not the actual one, so two tasks with the same input but
        # different true outputs share one estimate.
        a = factory.estimated_cycles(rnn_spec(output_len=20))
        b = factory.estimated_cycles(rnn_spec(output_len=30))
        assert a == b

    def test_actual_lengths_change_ground_truth(self, factory):
        a = factory.isolated_cycles(rnn_spec(output_len=20))
        b = factory.isolated_cycles(rnn_spec(output_len=30))
        assert b > a

    def test_rnn_sa_predicts_identity(self, factory):
        assert factory.predicted_output_len("RNN-SA", 17) == 17

    def test_mt_prediction_in_profile_range(self, factory):
        predicted = factory.predicted_output_len("RNN-MT1", 20)
        outs = factory.profiles["RNN-MT1"].outputs_for(20)
        assert min(outs) <= predicted <= max(outs)


class TestBuildTask:
    def test_context_populated(self, factory):
        task = factory.build_task(cnn_spec())
        assert task.context.task_id == 0
        assert task.context.benchmark == "CNN-AN"
        assert task.context.estimated_cycles > 0
        assert task.context.tokens == 3.0  # medium priority

    def test_oracle_estimate_is_exact(self, factory):
        spec = rnn_spec()
        task = factory.build_task(spec, oracle=True)
        assert task.context.estimated_cycles == task.profile.total_cycles

    def test_build_workload_fresh_runtimes(self, factory):
        from repro.workloads.generator import WorkloadGenerator

        workload = WorkloadGenerator(seed=2).generate(num_tasks=4)
        first = factory.build_workload(workload)
        second = factory.build_workload(workload)
        assert all(a is not b for a, b in zip(first, second))
        # ... but they share the cached immutable profiles.
        assert all(a.profile is b.profile for a, b in zip(first, second))

    def test_prediction_pairs_shape(self, factory):
        specs = [cnn_spec(0), rnn_spec(1)]
        pairs = factory.prediction_pairs(specs)
        assert len(pairs) == 2
        assert all(e > 0 and a > 0 for e, a in pairs)


def _graphs(benchmark, unrolls=_UNROLLS):
    """(unroll, graph) per unroll of an RNN; one (None, graph) for a CNN."""
    if not is_rnn(benchmark):
        return [(None, build_benchmark(benchmark))]
    return [
        ((i, o), build_benchmark(benchmark, input_len=i, output_len=o))
        for i, o in unrolls
    ]


def _caches(factory):
    return (factory._layer_cache, factory._timing_cache,
            factory.predictor._shape_cycles)


class TestLayerCaches:
    """Per-layer lowering, timing and estimates equal the uncached path."""

    def test_cached_lowering_and_timing_equal_uncached(self, config):
        # One pair of caches across every model, unroll and batch, so
        # hits cross models.  Frozen-dataclass equality compares every
        # field: exact floats, names and node indexes.
        layers, timings = {}, {}
        for benchmark in BENCHMARKS + ("RESNET",):
            for unroll, graph in _graphs(benchmark):
                for batch in (1, 4):
                    plain = compile_model(graph, config, batch=batch)
                    cached = compile_model(graph, config, batch=batch, cache=layers)
                    assert cached == plain, (benchmark, unroll, batch)
                    assert profile_model(cached, config, cache=timings) == (
                        profile_model(plain, config)
                    ), (benchmark, unroll, batch)
        assert 0 < len(timings) <= len(layers)

    def test_estimate_equals_a_fresh_predictor(self, config):
        factory = TaskFactory(config)
        for benchmark in BENCHMARKS:
            unrolls = _UNROLLS if is_rnn(benchmark) else [(None, None)]
            for input_len, output_len in unrolls:
                if input_len is None:
                    graph = build_benchmark(benchmark)
                else:
                    # The estimate reads the *predicted* unroll.
                    predicted = factory.predicted_output_len(benchmark, input_len)
                    graph = build_benchmark(
                        benchmark, input_len=input_len, output_len=predicted
                    )
                for batch in (1, 4):
                    spec = TaskSpec(0, benchmark, batch, Priority.MEDIUM, 0.0,
                                    input_len=input_len,
                                    actual_output_len=output_len)
                    model = compile_model(graph, config, batch=batch)
                    assert factory.estimated_cycles(spec) == (
                        LatencyPredictor(config).predict_model(model)
                    ), (benchmark, input_len, output_len, batch)

    def test_materialized_streams_bypass_the_cache(self, config):
        graph = build_benchmark("RNN-MT1", input_len=5, output_len=9)
        cache = {}
        compile_model(graph, config, cache=cache)
        size = len(cache)
        model = compile_model(graph, config, materialize_streams=True, cache=cache)
        plain = compile_model(graph, config, materialize_streams=True)
        assert len(cache) == size
        streams = [layer.stream for layer in model.layers]
        assert len({id(stream) for stream in streams}) == len(model.layers)
        for layer, reference in zip(model.layers, plain.layers):
            assert layer.stream.label == layer.name
            assert len(layer.stream) == len(reference.stream)
            assert dataclasses.replace(layer, stream=None) == (
                dataclasses.replace(reference, stream=None)
            )

    def test_factories_share_no_cache(self, config):
        first, second = TaskFactory(config), TaskFactory(config)
        assert not any(_caches(first)) and not any(_caches(second))
        first.build_task(rnn_spec())
        assert all(_caches(first))
        assert not any(_caches(second))
        for mine, theirs in zip(_caches(first), _caches(second)):
            assert mine is not theirs

    def test_compile_layer_runs_once_per_distinct_node(self, config, monkeypatch):
        calls = []
        compile_layer = compiler_module.compile_layer

        def counting(node, *args, **kwargs):
            calls.append(node)
            return compile_layer(node, *args, **kwargs)

        monkeypatch.setattr(compiler_module, "compile_layer", counting)
        factory = TaskFactory(config)
        distinct, nodes = set(), 0
        for unroll, graph in _graphs("RNN-MT1", ((10, 6), (5, 9))):
            factory.execution_profile("RNN-MT1", 1, *unroll)
            # A node is its layer without the name, and its input shapes.
            distinct |= {
                (dataclasses.replace(node.layer, name="-"), tuple(node.input_specs))
                for node in graph
            }
            nodes += len(graph)
        assert len(calls) == len(distinct) < nodes

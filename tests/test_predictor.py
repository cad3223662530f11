"""Latency predictor (Algorithm 1) against the ground-truth engine."""

import pytest

from repro.core.predictor import LatencyPredictor, OraclePredictor
from repro.isa.compiler import compile_model
from repro.models.zoo import build_benchmark
from repro.npu.engine import profile_model


class TestLatencyPredictor:
    @pytest.mark.parametrize("model_name,max_err", [
        ("CNN-AN", 0.05),
        ("CNN-GN", 0.12),
        ("CNN-VN", 0.05),
        ("CNN-MN", 0.05),
    ])
    def test_cnn_prediction_error_small(self, config, model_name, max_err):
        graph = build_benchmark(model_name)
        model = compile_model(graph, config, batch=1)
        predicted = LatencyPredictor(config).predict_model(model)
        actual = profile_model(model, config).total_cycles
        assert abs(predicted - actual) / actual < max_err

    def test_rnn_same_length_prediction_tight(self, config):
        graph = build_benchmark("RNN-MT1", input_len=20, output_len=20)
        model = compile_model(graph, config, batch=1)
        predicted = LatencyPredictor(config).predict_model(model)
        actual = profile_model(model, config).total_cycles
        assert abs(predicted - actual) / actual < 0.05

    def test_prediction_cached(self, config):
        predictor = LatencyPredictor(config)
        model = compile_model(build_benchmark("CNN-AN"), config, batch=1)
        assert predictor.predict_model(model) == predictor.predict_model(model)

    def test_unrolls_with_equal_node_counts_keep_their_own_estimates(self, config):
        # RNN-MT1 at (10, 6) and at (5, 9) both unroll to 60 nodes; one
        # predictor must still estimate each as a fresh one does.
        models = [
            compile_model(
                build_benchmark("RNN-MT1", input_len=i, output_len=o), config
            )
            for i, o in ((10, 6), (5, 9))
        ]
        assert len(models[0].layers) == len(models[1].layers)
        predictor = LatencyPredictor(config)
        shared = [predictor.predict_model(model) for model in models]
        fresh = [LatencyPredictor(config).predict_model(model) for model in models]
        assert shared == fresh
        assert shared[0] != shared[1]

    def test_breakdown_sums_to_total(self, config):
        predictor = LatencyPredictor(config)
        model = compile_model(build_benchmark("CNN-AN"), config, batch=1)
        breakdown = predictor.breakdown(model)
        assert breakdown.total_cycles == pytest.approx(
            sum(breakdown.layer_cycles.values())
        )
        assert breakdown.total_cycles == pytest.approx(
            predictor.predict_model(model)
        )

    def test_breakdown_skips_vector_layers(self, config):
        predictor = LatencyPredictor(config)
        model = compile_model(build_benchmark("CNN-AN"), config, batch=1)
        breakdown = predictor.breakdown(model)
        assert "pool1" not in breakdown.layer_cycles
        assert "conv1" in breakdown.layer_cycles

    def test_batch_increases_prediction(self, config):
        predictor = LatencyPredictor(config)
        graph = build_benchmark("CNN-AN")
        b1 = predictor.predict_model(compile_model(graph, config, batch=1))
        b16 = predictor.predict_model(compile_model(graph, config, batch=16))
        assert b16 > b1


class TestOraclePredictor:
    def test_register_and_predict(self):
        oracle = OraclePredictor()
        oracle.register(3, 1234.5)
        assert oracle.predict_task(3) == 1234.5
        assert 3 in oracle

    def test_missing_task_raises(self):
        with pytest.raises(KeyError):
            OraclePredictor().predict_task(1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OraclePredictor().register(1, -1.0)

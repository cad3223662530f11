"""Open-arrival trace generation (repro.workloads.trace)."""

import math

import pytest

from repro.models.zoo import CNN_BENCHMARKS
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.trace import (
    DEFAULT_MEAN_INTERARRIVAL_CYCLES,
    TraceGenerator,
    synthetic_profile,
    synthetic_runtime,
    synthetic_trace_runtimes,
)


def make_generator(seed=0):
    return TraceGenerator(seed=seed, benchmarks=CNN_BENCHMARKS, profiles={})


class TestPoissonTrace:
    def test_shape_and_ordering(self):
        trace = make_generator().generate_poisson(500)
        assert len(trace) == 500
        arrivals = [task.arrival_cycles for task in trace.tasks]
        assert arrivals == sorted(arrivals)
        assert [task.task_id for task in trace.tasks] == list(range(500))

    def test_mean_interarrival_close_to_requested(self):
        mean = 1e6
        trace = make_generator(seed=3).generate_poisson(4000, mean)
        arrivals = [task.arrival_cycles for task in trace.tasks]
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        measured = sum(gaps) / len(gaps)
        assert measured == pytest.approx(mean, rel=0.1)

    def test_seeded_determinism(self):
        one = make_generator(seed=7).generate_poisson(100)
        two = make_generator(seed=7).generate_poisson(100)
        assert one == two
        other = make_generator(seed=8).generate_poisson(100)
        assert other != one

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_generator().generate_poisson(0)
        with pytest.raises(ValueError):
            make_generator().generate_poisson(10, mean_interarrival_cycles=0)
        for mean in (math.nan, math.inf):
            with pytest.raises(ValueError, match="mean_interarrival_cycles"):
                make_generator().generate_poisson(
                    10, mean_interarrival_cycles=mean
                )


class TestBurstyTrace:
    def test_burstier_than_poisson(self):
        """Bursty traces concentrate arrivals: the squared coefficient of
        variation of inter-arrival gaps clearly exceeds the ~1 of a
        Poisson process."""
        seed = 11
        poisson = make_generator(seed).generate_poisson(3000)
        bursty = make_generator(seed).generate_bursty(3000)

        def scv(workload):
            arrivals = [task.arrival_cycles for task in workload.tasks]
            gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / mean**2

        assert scv(bursty) > 2.0 * scv(poisson)

    def test_long_run_rate_matches_requested(self):
        mean = 1e6
        trace = make_generator(seed=5).generate_bursty(4000, mean)
        span = trace.tasks[-1].arrival_cycles - trace.tasks[0].arrival_cycles
        assert span / len(trace) == pytest.approx(mean, rel=0.25)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_generator().generate_bursty(10, burst_size_mean=0.5)
        with pytest.raises(ValueError):
            make_generator().generate_bursty(10, burst_spread_cycles=-1.0)
        for name in (
            "mean_interarrival_cycles", "burst_size_mean", "burst_spread_cycles"
        ):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    make_generator().generate_bursty(10, **{name: value})


class TestGeometricBurstDraw:
    """Statistical regression pin for the geometric burst-size draw.

    The pre-fix draw floor-truncated an exponential with mean
    ``mean - 1``, whose floor has mean ``1/(e^(1/(m-1)) - 1)`` -- biased
    ~0.4-0.5 low at any mean (e.g. 7.02 extra tasks instead of 7.00 only
    after the fix; the old draw gave ~6.52 at ``mean=8``).  A true
    geometric draw ``floor(ln(1-U)/ln(1-p))`` with ``p = 1/mean`` has
    the exact extra-burst mean ``mean - 1``.
    """

    def test_extra_burst_mean_is_unbiased(self):
        for mean in (2.0, 4.0, 8.0):
            gen = make_generator(seed=int(mean))
            draws = [gen._draw_geometric(mean) for _ in range(200_000)]
            measured = sum(draws) / len(draws)
            # The old floor-truncated-exponential draw sat ~0.42-0.48
            # below mean - 1 -- far outside this 2% band.
            assert measured == pytest.approx(mean - 1.0, rel=0.02), mean

    def test_distribution_is_geometric(self):
        """P(K >= k) must decay as (1 - p)^k -- memoryless in k."""
        mean = 8.0
        gen = make_generator(seed=12)
        draws = [gen._draw_geometric(mean) for _ in range(200_000)]
        n = len(draws)
        p = 1.0 / mean
        for k in (1, 3, 6, 10):
            tail = sum(1 for d in draws if d >= k) / n
            assert tail == pytest.approx((1.0 - p) ** k, rel=0.05), k

    def test_degenerate_mean_yields_no_extras(self):
        gen = make_generator(seed=1)
        assert all(gen._draw_geometric(1.0) == 0 for _ in range(100))

    def test_burst_sizes_average_to_requested_mean(self):
        """End to end: clusters in a bursty trace now really average
        ``burst_size_mean`` tasks (the fixed draw feeds generate_bursty)."""
        mean_size = 8.0
        trace = make_generator(seed=9).generate_bursty(
            40_000, burst_size_mean=mean_size, burst_spread_cycles=0.0
        )
        arrivals = [task.arrival_cycles for task in trace.tasks]
        clusters = 1
        for a, b in zip(arrivals, arrivals[1:]):
            if b != a:  # zero spread: same-cluster tasks share a stamp
                clusters += 1
        assert len(arrivals) / clusters == pytest.approx(mean_size, rel=0.1)


class TestTaskAttributeDrawing:
    def test_trace_tasks_share_workload_generator_vocabulary(self):
        trace = make_generator(seed=2).generate_poisson(200)
        assert {task.benchmark for task in trace.tasks} <= set(CNN_BENCHMARKS)
        assert all(task.batch in (1, 4, 16) for task in trace.tasks)

    def test_uniform_workloads_unchanged_by_refactor(self):
        """The shared _build_tasks refactor must not disturb the seeded
        paper workloads (same RNG call order)."""
        workload = WorkloadGenerator(seed=11).generate(num_tasks=8)
        assert workload.name == "workload-8tasks"
        assert len(workload) == 8
        arrivals = [task.arrival_cycles for task in workload.tasks]
        assert arrivals == sorted(arrivals)


class TestSyntheticRuntimes:
    def test_profile_shape(self):
        profile = synthetic_profile("t", 1000.0, num_layers=4,
                                    tiles_per_layer=10)
        assert profile.total_cycles == pytest.approx(1000.0)
        assert profile.num_layers == 4
        # Preemption points snap to tile boundaries.
        assert profile.next_preemption_point(130.0) == pytest.approx(150.0)
        assert profile.checkpoint_bytes_at(250.0) > 0

    def test_runtime_estimate_error_bounded(self):
        runtimes = synthetic_trace_runtimes(300, seed=1, estimate_error=0.2)
        assert len(runtimes) == 300
        for runtime in runtimes:
            ratio = (
                runtime.context.estimated_cycles / runtime.isolated_cycles
            )
            assert 0.8 <= ratio <= 1.2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mean_service_cycles=0.0),
            dict(mean_service_cycles=math.nan),
            dict(mean_service_cycles=math.inf),
            dict(estimate_error=-0.1),
            dict(estimate_error=1.0),
            dict(estimate_error=1.5),
            dict(estimate_error=math.nan),
            dict(estimate_bias={"CNN-AN": 0.0}),
            dict(estimate_bias={"CNN-AN": math.nan}),
            dict(estimate_bias={"CNN-AN": math.inf}),
            dict(mean_interarrival_cycles=math.nan),
            dict(mean_interarrival_cycles=math.inf, bursty=True),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            synthetic_trace_runtimes(6, seed=3, **kwargs)

    def test_runtime_context_anchored_at_arrival(self):
        trace = make_generator(seed=4).generate_poisson(5)
        runtime = synthetic_runtime(trace.tasks[3], 5000.0)
        assert runtime.context.last_update_cycles == \
            trace.tasks[3].arrival_cycles
        assert runtime.task_id == 3

    def test_default_utilization_is_stable(self):
        """Mean service demand stays below the mean inter-arrival time:
        the default trace regime is contended but stable."""
        runtimes = synthetic_trace_runtimes(2000, seed=6)
        mean_service = sum(r.isolated_cycles for r in runtimes) / len(runtimes)
        assert 0.5 < mean_service / DEFAULT_MEAN_INTERARRIVAL_CYCLES < 1.0


class TestQosTagging:
    def test_assign_qos_tags_every_task(self):
        from repro.workloads.trace import assign_qos

        workload = make_generator(seed=3).generate_poisson(40)
        tagged = assign_qos(
            workload, {"interactive": 1.0, "batch": 1.0}, seed=5
        )
        assert all(t.qos in ("interactive", "batch") for t in tagged.tasks)
        assert {t.qos for t in tagged.tasks} == {"interactive", "batch"}

    def test_tagging_preserves_arrivals_and_attributes(self):
        from repro.workloads.trace import assign_qos

        workload = make_generator(seed=3).generate_poisson(40)
        tagged = assign_qos(workload, {"standard": 1.0}, seed=5)
        for before, after in zip(workload.tasks, tagged.tasks):
            assert after.arrival_cycles == before.arrival_cycles
            assert after.benchmark == before.benchmark
            assert after.batch == before.batch

    def test_align_priority_matches_class(self):
        from repro.core.tokens import Priority
        from repro.workloads.trace import assign_qos

        workload = make_generator(seed=3).generate_poisson(30)
        tagged = assign_qos(
            workload, {"interactive": 1.0, "batch": 2.0}, seed=7
        )
        expected = {"interactive": Priority.HIGH, "batch": Priority.LOW}
        for task in tagged.tasks:
            assert task.priority is expected[task.qos]

    def test_align_priority_off_keeps_priorities(self):
        from repro.workloads.trace import assign_qos

        workload = make_generator(seed=3).generate_poisson(30)
        tagged = assign_qos(
            workload, {"batch": 1.0}, seed=7, align_priority=False
        )
        for before, after in zip(workload.tasks, tagged.tasks):
            assert after.priority is before.priority

    def test_bad_mix_rejected(self):
        from repro.workloads.trace import assign_qos

        workload = make_generator(seed=3).generate_poisson(4)
        with pytest.raises(ValueError):
            assign_qos(workload, {}, seed=1)
        with pytest.raises(ValueError):
            assign_qos(workload, {"batch": -1.0}, seed=1)

    def test_synthetic_runtimes_unchanged_without_tagging(self):
        """qos_mix/estimate_bias default off => bit-identical traces."""
        plain = synthetic_trace_runtimes(20, seed=11)
        again = synthetic_trace_runtimes(20, seed=11)
        for a, b in zip(plain, again):
            assert a.spec == b.spec
            assert a.context.estimated_cycles == b.context.estimated_cycles
            assert a.spec.qos is None

    def test_estimate_bias_scales_named_benchmarks_only(self):
        plain = synthetic_trace_runtimes(40, seed=11)
        biased = synthetic_trace_runtimes(
            40, seed=11, estimate_bias={"CNN-AN": 0.5}
        )
        for a, b in zip(plain, biased):
            assert a.spec == b.spec
            if a.spec.benchmark == "CNN-AN":
                assert b.context.estimated_cycles == pytest.approx(
                    a.context.estimated_cycles * 0.5
                )
            else:
                assert b.context.estimated_cycles == \
                    a.context.estimated_cycles

    def test_qos_mix_keeps_arrival_stream(self):
        plain = synthetic_trace_runtimes(25, seed=13)
        tagged = synthetic_trace_runtimes(
            25, seed=13, qos_mix={"interactive": 1.0, "standard": 1.0}
        )
        for a, b in zip(plain, tagged):
            assert b.spec.arrival_cycles == a.spec.arrival_cycles
            assert b.spec.benchmark == a.spec.benchmark
            assert b.spec.qos in ("interactive", "standard")

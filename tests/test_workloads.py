"""Workload specs and the random workload generator (Sec III)."""

import math

import pytest

from repro.core.tokens import Priority
from repro.models.zoo import BENCHMARKS, is_rnn
from repro.workloads.generator import WorkloadGenerator, default_profiles
from repro.workloads.specs import TaskSpec, WorkloadSpec


class TestTaskSpec:
    def test_is_rnn_flag(self):
        cnn = TaskSpec(0, "CNN-AN", 1, Priority.LOW, 0.0)
        rnn = TaskSpec(1, "RNN-MT1", 1, Priority.LOW, 0.0,
                       input_len=10, actual_output_len=12)
        assert not cnn.is_rnn
        assert rnn.is_rnn

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(task_id=-1),
            dict(batch=0),
            dict(arrival_cycles=-1.0),
            dict(input_len=0),
            dict(actual_output_len=0),
            dict(arrival_cycles=math.nan),
            dict(arrival_cycles=math.inf),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(task_id=0, benchmark="CNN-AN", batch=1,
                    priority=Priority.LOW, arrival_cycles=0.0)
        base.update(kwargs)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TaskSpec(**base)


class TestWorkloadSpec:
    def test_requires_sorted_arrivals(self):
        tasks = (
            TaskSpec(0, "CNN-AN", 1, Priority.LOW, 100.0),
            TaskSpec(1, "CNN-GN", 1, Priority.LOW, 50.0),
        )
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", tasks=tasks)

    def test_requires_unique_ids(self):
        tasks = (
            TaskSpec(0, "CNN-AN", 1, Priority.LOW, 0.0),
            TaskSpec(0, "CNN-GN", 1, Priority.LOW, 10.0),
        )
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", tasks=tasks)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", tasks=())

    def test_len_and_benchmarks(self):
        tasks = (
            TaskSpec(0, "CNN-AN", 1, Priority.LOW, 0.0),
            TaskSpec(1, "CNN-GN", 1, Priority.LOW, 10.0),
        )
        workload = WorkloadSpec(name="w", tasks=tasks)
        assert len(workload) == 2
        assert workload.benchmarks == ("CNN-AN", "CNN-GN")


class TestGenerator:
    def test_deterministic_by_seed(self):
        a = WorkloadGenerator(seed=5).generate(num_tasks=8)
        b = WorkloadGenerator(seed=5).generate(num_tasks=8)
        assert a.tasks == b.tasks

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(seed=5).generate(num_tasks=8)
        b = WorkloadGenerator(seed=6).generate(num_tasks=8)
        assert a.tasks != b.tasks

    def test_task_count_and_id_order(self):
        workload = WorkloadGenerator(seed=1).generate(num_tasks=12)
        assert len(workload) == 12
        assert [t.task_id for t in workload.tasks] == list(range(12))

    def test_arrivals_within_window(self):
        window = 1000.0
        gen = WorkloadGenerator(seed=2, arrival_window_cycles=window)
        workload = gen.generate(num_tasks=20)
        assert all(0 <= t.arrival_cycles <= window for t in workload.tasks)

    def test_benchmarks_from_registry(self):
        workload = WorkloadGenerator(seed=3).generate(num_tasks=30)
        assert set(workload.benchmarks) <= set(BENCHMARKS)

    def test_priorities_from_three_levels(self):
        workload = WorkloadGenerator(seed=4).generate(num_tasks=40)
        priorities = {t.priority for t in workload.tasks}
        assert priorities <= {Priority.LOW, Priority.MEDIUM, Priority.HIGH}
        assert len(priorities) > 1

    def test_batches_from_choices(self):
        gen = WorkloadGenerator(seed=5, batch_choices=(4,))
        workload = gen.generate(num_tasks=10)
        assert all(t.batch == 4 for t in workload.tasks)

    def test_rnn_tasks_have_lengths(self):
        workload = WorkloadGenerator(seed=6).generate(num_tasks=40)
        for task in workload.tasks:
            if is_rnn(task.benchmark):
                assert task.input_len is not None
                assert task.actual_output_len is not None
            else:
                assert task.input_len is None

    def test_rnn_sa_is_linear(self):
        workload = WorkloadGenerator(seed=7).generate(num_tasks=60)
        for task in workload.tasks:
            if task.benchmark == "RNN-SA":
                assert task.actual_output_len == task.input_len

    def test_output_lengths_come_from_profile(self):
        profiles = default_profiles(num_samples=300)
        gen = WorkloadGenerator(seed=8, profiles=profiles)
        workload = gen.generate(num_tasks=60)
        for task in workload.tasks:
            if task.benchmark in ("RNN-MT1", "RNN-MT2", "RNN-ASR"):
                outs = profiles[task.benchmark].outputs_for(task.input_len)
                assert task.actual_output_len in outs

    def test_generate_many(self):
        workloads = WorkloadGenerator(seed=9).generate_many(5, num_tasks=4)
        assert len(workloads) == 5
        assert len({w.name for w in workloads}) == 5

    def test_default_profiles_cached_per_key(self):
        # lru_cache: repeated construction must reuse the same profile
        # dict instead of regenerating 8 x 1500-sample sequences.
        assert default_profiles() is default_profiles()
        assert default_profiles(num_samples=300) is \
            default_profiles(num_samples=300)
        assert default_profiles(num_samples=300) is not default_profiles()
        assert WorkloadGenerator(seed=1).profiles is \
            WorkloadGenerator(seed=2).profiles

    @pytest.mark.parametrize("kwargs", [
        dict(benchmarks=()),
        dict(batch_choices=()),
        dict(batch_choices=(0,)),
        dict(arrival_window_cycles=-1.0),
        dict(arrival_window_cycles=math.nan),
        dict(arrival_window_cycles=math.inf),
    ])
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            WorkloadGenerator(seed=0, **kwargs)

    def test_generate_validation(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(seed=0).generate(num_tasks=0)
        with pytest.raises(ValueError):
            WorkloadGenerator(seed=0).generate_many(0)

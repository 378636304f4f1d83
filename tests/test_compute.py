"""Tests for the compute cluster."""

import numpy as np
import pytest

from repro.compute import ClusterConfig, ComputeCluster, PartitionedDataset
from repro.errors import ComputeError


class TestPartitionedDataset:
    def test_from_records_balanced(self):
        ds = PartitionedDataset.from_records(list(range(10)), 3)
        assert ds.n_partitions == 3
        assert ds.total_records() == 10
        sizes = [len(p) for p in ds.partitions]
        assert max(sizes) - min(sizes) <= 1

    def test_from_records_more_partitions_than_records(self):
        ds = PartitionedDataset.from_records([1, 2], 10)
        assert ds.n_partitions == 2

    def test_from_matrix(self):
        matrix = np.arange(20).reshape(10, 2)
        ds = PartitionedDataset.from_matrix(matrix, 4)
        assert ds.n_partitions == 4
        recombined = np.concatenate(ds.partitions)
        assert (recombined == matrix).all()

    def test_from_matrix_with_labels(self):
        matrix = np.zeros((6, 2))
        labels = np.arange(6)
        ds = PartitionedDataset.from_matrix(matrix, 2, labels=labels)
        rows, part_labels = ds.partition(0)
        assert len(rows) == len(part_labels) == 3

    def test_invalid_partition_count(self):
        with pytest.raises(ComputeError):
            PartitionedDataset.from_records([1], 0)

    def test_map_partitions(self):
        ds = PartitionedDataset.from_records([1, 2, 3, 4], 2)
        doubled = ds.map_partitions(lambda part: [x * 2 for x in part])
        assert doubled.partitions == [[2, 4], [6, 8]]

    def test_repartition_matrix(self):
        matrix = np.arange(12).reshape(6, 2)
        ds = PartitionedDataset.from_matrix(matrix, 2).repartition(3)
        assert ds.n_partitions == 3
        assert (np.concatenate(ds.partitions) == matrix).all()


class TestComputeCluster:
    def test_run_map_correctness(self):
        cluster = ComputeCluster(n_workers=3)
        ds = PartitionedDataset.from_records(list(range(100)), 6)
        report = cluster.run_map(
            ds, map_fn=sum, reduce_fn=lambda partials: sum(partials)
        )
        assert report.result == sum(range(100))
        assert report.n_tasks == 6

    def test_all_workers_used(self):
        cluster = ComputeCluster(n_workers=3)
        ds = PartitionedDataset.from_records(list(range(90)), 9)
        cluster.run_map(ds, map_fn=lambda p: sum(x * x for x in p))
        assert all(w.tasks_run > 0 for w in cluster.workers)

    def test_lpt_schedule_balances(self):
        cluster = ComputeCluster(n_workers=2)
        assignment = cluster._schedule([10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0])
        loads = [0.0, 0.0]
        costs = [10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0]
        for task, worker in enumerate(assignment):
            loads[worker] += costs[task]
        assert abs(loads[0] - loads[1]) <= 5.0

    def test_iterative_converges(self):
        cluster = ComputeCluster(n_workers=2)
        ds = PartitionedDataset.from_records([1.0] * 20, 4)

        def map_fn(part, state):
            return sum(part)

        def reduce_fn(partials, state):
            return state + 1

        report = cluster.run_iterative(
            ds,
            map_fn,
            reduce_fn,
            initial_state=0,
            rounds=50,
            converged=lambda old, new: new >= 5,
        )
        assert report.result == 5
        assert report.rounds == 5

    def test_makespan_decreases_with_workers(self):
        """The Figure 10 property: more workers, smaller makespan."""
        matrix = np.random.default_rng(0).normal(size=(20000, 8))

        def heavy(part):
            return float((part @ part.T.mean(axis=1)).sum())

        makespans = []
        for n in (1, 2, 4):
            cluster = ComputeCluster(
                n_workers=n, config=ClusterConfig(t_setup=0.5, t_broadcast=0.05)
            )
            ds = PartitionedDataset.from_matrix(matrix, 8)
            report = cluster.run_map(ds, map_fn=heavy, reduce_fn=sum)
            makespans.append(report.makespan_seconds)
        assert makespans[0] > makespans[1] > makespans[2]

    def test_makespan_includes_fixed_costs(self):
        config = ClusterConfig(t_setup=2.0, t_broadcast=0.0, t_collect=0.0)
        cluster = ComputeCluster(n_workers=1, config=config)
        ds = PartitionedDataset.from_records([1], 1)
        report = cluster.run_map(ds, map_fn=lambda p: p)
        assert report.makespan_seconds >= 2.0

    def test_run_local_has_no_distribution_cost(self):
        cluster = ComputeCluster(
            n_workers=4, config=ClusterConfig(t_setup=100.0)
        )
        ds = PartitionedDataset.from_records([1, 2, 3], 3)
        report = cluster.run_local(ds, map_fn=sum, reduce_fn=sum)
        assert report.result == 6
        assert report.makespan_seconds < 1.0

    def test_invalid_worker_count(self):
        with pytest.raises(ComputeError):
            ComputeCluster(n_workers=0)

    def test_invalid_rounds(self):
        cluster = ComputeCluster(n_workers=1)
        ds = PartitionedDataset.from_records([1], 1)
        with pytest.raises(ComputeError):
            cluster.run_iterative(ds, lambda p, s: p, lambda ps, s: s, None, 0)


class TestTaskRetries:
    def _flaky(self, fail_times):
        state = {"failures": 0}

        def fn(part):
            if state["failures"] < fail_times:
                state["failures"] += 1
                raise RuntimeError("injected task failure")
            return sum(part)

        return fn

    def test_failed_task_retried_and_succeeds(self):
        cluster = ComputeCluster(
            n_workers=2, config=ClusterConfig(task_retries=2)
        )
        ds = PartitionedDataset.from_records([1, 2, 3, 4], 2)
        report = cluster.run_map(
            ds, map_fn=self._flaky(fail_times=1), reduce_fn=sum
        )
        assert report.result == 10
        assert cluster.tasks_retried == 1

    def test_exhausted_retries_abort_job(self):
        cluster = ComputeCluster(
            n_workers=2, config=ClusterConfig(task_retries=1)
        )
        ds = PartitionedDataset.from_records([1, 2], 1)

        def always_fails(part):
            raise RuntimeError("permanent failure")

        with pytest.raises(ComputeError, match="after 2 attempts"):
            cluster.run_map(ds, map_fn=always_fails, reduce_fn=sum)

    def test_failed_attempts_cost_worker_time(self):
        import time as _time

        cluster = ComputeCluster(
            n_workers=2, config=ClusterConfig(task_retries=2)
        )
        ds = PartitionedDataset.from_records([1], 1)
        state = {"failures": 0}

        def slow_flaky(part):
            _time.sleep(0.01)
            if state["failures"] < 1:
                state["failures"] += 1
                raise RuntimeError("boom")
            return 0

        report = cluster.run_map(ds, map_fn=slow_flaky, reduce_fn=sum)
        # Two attempts' time is recorded across the workers.
        assert sum(report.per_worker_busy) >= 0.02


class TestMakespanModel:
    """Assert the modeled makespan term by term (cluster.py's formula).

    makespan = t_setup + rounds * t_broadcast
             + sum over rounds of max_over_workers(round_busy) * work_scale
             + t_collect * n_tasks + measured_reduce_seconds
    """

    def test_formula_matches_report_terms(self):
        config = ClusterConfig(
            t_setup=1.5, t_broadcast=0.25, t_collect=0.05, work_scale=3.0
        )
        cluster = ComputeCluster(n_workers=3, config=config)
        matrix = np.arange(600.0).reshape(100, 6)
        ds = PartitionedDataset.from_matrix(matrix, 5)
        report = cluster.run_iterative(
            ds,
            lambda part, state: part.sum() + state,
            lambda partials, state: state + 1,
            initial_state=0,
            rounds=4,
        )
        assert report.rounds == 4
        assert len(report.per_round_busy) == 4
        assert all(len(busy) == 3 for busy in report.per_round_busy)
        expected = (
            config.t_setup
            + report.rounds * config.t_broadcast
            + sum(max(busy) for busy in report.per_round_busy)
            * config.work_scale
            + config.t_collect * report.n_tasks
            + report.measured_reduce_seconds
        )
        assert report.makespan_seconds == pytest.approx(expected)

    def test_parallel_term_is_per_round_critical_path(self):
        # The parallel term must be the per-round max summed over rounds,
        # not the busiest worker's total across the whole job: with more
        # workers the per-round max shrinks, so the makespan must too.
        config = ClusterConfig(t_setup=0.0, t_broadcast=0.0, t_collect=0.0,
                               work_scale=50.0)
        # ~1 ms of measured work per task, so the 4x gap between the
        # per-round maxima is out of reach of a scheduling hiccup.
        matrix = np.arange(2_400_000.0).reshape(400_000, 6)

        def makespan(n_workers):
            cluster = ComputeCluster(n_workers=n_workers, config=config)
            ds = PartitionedDataset.from_matrix(matrix, 8)
            return cluster.run_iterative(
                ds,
                lambda part, state: float((part ** 2).sum()),
                lambda partials, state: state,
                initial_state=None,
                rounds=3,
            ).makespan_seconds

        assert makespan(4) < makespan(1)

"""Tests for the compute cluster."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.compute import ClusterConfig, ComputeCluster, PartitionedDataset
from repro.core.southbound import AttackDetector
from repro.errors import ComputeError
from repro.ml.kmeans import KMeans
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.online import OnlineGaussianNB


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

    def test_map_partitions_on_cluster(self):
        ds = PartitionedDataset.from_records(list(range(12)), 3)
        local = ds.map_partitions(sum)
        distributed = ds.map_partitions(sum, cluster=ComputeCluster(2))
        assert local.partitions == distributed.partitions

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

    def test_run_map_equals_local_map(self):
        matrix = np.random.default_rng(11).normal(size=(12_000, 6))
        ds = PartitionedDataset.from_matrix(matrix, 6)
        cluster = ComputeCluster(n_workers=3)
        report = cluster.run_map(
            ds, map_fn=lambda part: part.sum(axis=0), reduce_fn=np.vstack
        )
        local = cluster.run_local(
            ds, map_fn=lambda part: part.sum(axis=0), reduce_fn=np.vstack
        )
        assert np.array_equal(report.result, local.result)

    def test_job_report_moves_no_bytes(self):
        cluster = ComputeCluster(n_workers=2)
        ds = PartitionedDataset.from_records(list(range(10)), 2)
        report = cluster.run_map(ds, map_fn=sum, reduce_fn=sum)
        assert report.bytes_shuffled == 0
        assert report.backend == "serial"
        assert cluster.run_local(ds, map_fn=sum).backend == "local"

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

    def test_worker_crash_retried_and_succeeds(self):
        cluster = ComputeCluster(
            n_workers=2, config=ClusterConfig(task_retries=2)
        )
        cluster.workers[0].inject_crashes(1)
        ds = PartitionedDataset.from_records([1, 2, 3, 4], 1)
        report = cluster.run_iterative(
            ds,
            lambda part, _state: sum(part),
            lambda parts, _state: sum(parts),
            initial_state=None,
            rounds=1,
        )
        assert report.result == 10
        assert report.tasks_retried >= 1
        assert cluster.tasks_retried >= 1
        assert cluster.workers[0].crashes_fired == 1

    def test_exhausted_retries_abort_job(self):
        cluster = ComputeCluster(
            n_workers=2, config=ClusterConfig(task_retries=1)
        )
        ds = PartitionedDataset.from_records([1, 2], 1)

        def always_fails(part):
            raise RuntimeError("permanent failure")

        with pytest.raises(ComputeError, match="after 2 attempts"):
            cluster.run_map(ds, map_fn=always_fails, reduce_fn=sum)

    def test_compute_error_aborts_without_retry(self):
        cluster = ComputeCluster(
            n_workers=2, config=ClusterConfig(task_retries=2)
        )
        ds = PartitionedDataset.from_records([1, 2], 1)
        calls = []

        def fatal(part):
            calls.append(part)
            raise ComputeError("fatal task error")

        with pytest.raises(ComputeError, match="fatal task error"):
            cluster.run_map(ds, map_fn=fatal, reduce_fn=sum)
        assert len(calls) == 1
        assert cluster.tasks_retried == 0

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


class TestDistributedTraining:
    @pytest.fixture(scope="class")
    def matrix(self):
        return np.random.default_rng(11).normal(size=(12_000, 6))

    def test_kmeans_fit_independent_of_worker_count(self, matrix):
        centers = []
        for n_workers in (1, 3):
            model = KMeans(k=5, max_iterations=6, seed=3)
            ds = PartitionedDataset.from_matrix(matrix, 6)
            model.fit_distributed(ComputeCluster(n_workers), ds)
            assert model.last_job_report.n_workers == n_workers
            centers.append(model.centers)
        assert np.array_equal(centers[0], centers[1])

    def test_naive_bayes_distributed_fit_agrees_with_local(self, matrix):
        labels = (matrix[:, 0] > 0).astype(float)
        ds = PartitionedDataset.from_matrix(matrix, 6, labels=labels)
        distributed = GaussianNaiveBayes().fit_distributed(ComputeCluster(3), ds)
        local = GaussianNaiveBayes().fit(matrix, labels)
        assert np.allclose(local.means, distributed.means)
        assert np.allclose(local.variances, distributed.variances)
        # Rounding-level model differences may flip only near-tied rows.
        agreement = distributed.predict(matrix) == local.predict(matrix)
        assert agreement.mean() > 0.999

    def test_naive_bayes_predictions_pinned(self, matrix):
        labels = (matrix[:, 0] > 0).astype(float)
        ds = PartitionedDataset.from_matrix(matrix, 6, labels=labels)
        local = GaussianNaiveBayes().fit(matrix, labels)
        distributed = GaussianNaiveBayes().fit_distributed(ComputeCluster(3), ds)
        digest = hashlib.sha256(
            local.predict(matrix).tobytes() + distributed.predict(matrix).tobytes()
        ).hexdigest()
        assert digest == (
            "db5d12986594c3cd64cbf67f749fb3c05fef42870695423c150af49b8dd72c41"
        )

    def test_kmeans_local_centers_pinned(self, matrix):
        model = KMeans(k=8, max_iterations=20, runs=5, seed=11).fit(matrix)
        assert hashlib.sha256(model.centers.tobytes()).hexdigest() == (
            "fd99307d5f736380d209d5fd19b0ebfc5e83675b65f66327c9a10a87392168dc"
        )

    def test_distributed_validation_equals_predict(self, matrix):
        model = KMeans(k=4, max_iterations=5, seed=7).fit(matrix)
        model.label_clusters(matrix, (matrix[:, 1] > 0).astype(float))
        detector = AttackDetector(
            compute=ComputeCluster(3), distributed_threshold=1_000
        )
        predicted, report = detector.run_validation(model, matrix)
        assert report is not None and report.n_tasks == 6
        assert np.array_equal(predicted, model.predict(matrix))


@st.composite
def _labelled(draw, elements):
    """A matrix, labels with at least two classes, and a partition count."""
    n = draw(st.integers(4, 60))
    matrix = draw(arrays(np.float64, (n, draw(st.integers(1, 4))), elements=elements))
    labels = draw(
        arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0, 2.0]))
        .filter(lambda y: len(np.unique(y)) >= 2)
    )
    return matrix, labels, draw(st.integers(1, 6))


#: Multiples of 1/8 below 8 in magnitude: every sum the trainers form is
#: exact, so disagreement can come only from how the folds are wired (a
#: dropped row, a mislabelled class, a wrong prior), not from summation
#: order.
_DYADIC = st.integers(-64, 64).map(lambda v: v / 8)
_FLOATS = st.floats(-1e3, 1e3, allow_nan=False)
_WORKER_COUNTS = (1, 2, 6)


def _nb_params(model):
    return [model.priors, model.means, model.variances]


class TestOneModelFromEveryPath:
    """Every trainer folds the same statistics into the same model."""

    @given(data=_labelled(_DYADIC))
    @settings(max_examples=25, deadline=None)
    def test_nb_fit_replay_and_distributed_agree(self, data):
        matrix, labels, n_partitions = data
        batch = GaussianNaiveBayes().fit(matrix, labels)
        online = OnlineGaussianNB()
        for row, label in zip(matrix, labels):
            online.partial_fit(row, label)
        closed = online._close()
        ds = PartitionedDataset.from_matrix(matrix, n_partitions, labels=labels)
        distributed = GaussianNaiveBayes().fit_distributed(ComputeCluster(2), ds)
        classes = batch.classes.tolist()
        assert closed["classes"] == distributed.classes.tolist() == classes
        replayed = [closed["priors"], closed["means"], closed["variances"]]
        for params in (replayed, _nb_params(distributed)):
            for got, want in zip(params, _nb_params(batch)):
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @given(data=_labelled(_FLOATS))
    @settings(max_examples=25, deadline=None)
    def test_nb_distributed_independent_of_worker_count(self, data):
        matrix, labels, n_partitions = data
        ds = PartitionedDataset.from_matrix(matrix, n_partitions, labels=labels)
        fitted = [
            GaussianNaiveBayes().fit_distributed(ComputeCluster(n_workers), ds)
            for n_workers in _WORKER_COUNTS
        ]
        for model in fitted[1:]:
            for got, want in zip(_nb_params(model), _nb_params(fitted[0])):
                assert got.tobytes() == want.tobytes()

    @given(data=_labelled(_FLOATS), k=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_kmeans_distributed_independent_of_worker_count(self, data, k):
        matrix, _labels, n_partitions = data
        ds = PartitionedDataset.from_matrix(matrix, n_partitions)
        centers = [
            KMeans(k=k, max_iterations=5, seed=3)
            .fit_distributed(ComputeCluster(n_workers), ds)
            .centers.tobytes()
            for n_workers in _WORKER_COUNTS
        ]
        assert len(set(centers)) == 1


class TestBatchDDoSPin:
    """The Scenario 1 batch job through the compute cluster, pinned.

    ``distributed_threshold`` sits below both the fetched training rows
    (9 500) and the test rows (18 500), so ``KMeans.fit_distributed`` and
    the ``run_map`` validation both run on the cluster.  Every constant was
    recorded before the process-pool backend was removed; a change that
    reorders partials, tasks or rows fails here.
    """

    def test_distributed_batch_run(self):
        from repro.apps.ddos import DDoSDetectorApp
        from repro.controller import ControllerCluster
        from repro.core import AthenaDeployment
        from repro.dataplane.topologies import enterprise_topology
        from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec

        generator = DDoSDatasetGenerator(DDoSDatasetSpec(scale=0.001))
        train, test = generator.train_test_split(generator.generate())
        topo = enterprise_topology()
        cluster = ControllerCluster(topo.network, n_instances=3)
        cluster.adopt_domains(topo.domains)
        athena = AthenaDeployment(
            cluster, compute=ComputeCluster(n_workers=4),
            distributed_threshold=5_000,
        )
        app = DDoSDetectorApp(algorithm="kmeans")
        athena.register_app(app)
        athena.feature_manager.publish_documents(train)
        summary = app.run_batch(test_documents=test)

        assert app.model.trained_entries == 9_500
        assert (summary.true_positives, summary.false_positives,
                summary.true_negatives, summary.false_negatives) == (
            13_736, 195, 4_457, 112)
        digest = hashlib.sha256(
            summary.predictions.tobytes() + app.model.estimator.centers.tobytes()
        ).hexdigest()
        assert digest == (
            "85b9e9fe6669074b6bb9d8e92f3dfd03ff324360b00e8af76cb5b67500dc91c9"
        )
        training = app.model.job_report
        assert (training.n_tasks, training.rounds, training.tasks_retried,
                training.backend) == (160, 20, 0, "serial")
        validation = athena.detector_manager.last_job_report
        assert (validation.n_tasks, validation.rounds, validation.tasks_retried,
                validation.backend) == (8, 1, 0, "serial")

    def test_ddos_cli_stdout(self, capsys):
        from repro.cli import main

        assert main(["ddos", "--scale", "0.001"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == (
            "564380860223aac0ab3301d80211a44cc6f52063f594aa584ba0d61cea92672a"
        )

"""Execution-backend tests: equivalence, crash injection, fallback.

The determinism contract under test: a job produces *bit-identical*
results on the serial and process backends — including seeded ML training
and stochastic map tasks that derive their randomness with
:func:`repro.compute.task_rng`.  Task functions at module level stay
picklable so the process backend genuinely ships them to pool workers;
closures exercise the graceful in-process fallback instead.
"""

import os
import time

import numpy as np
import pytest

from repro.config import from_env, override
from repro.compute import (
    ClusterConfig,
    ComputeCluster,
    PartitionedDataset,
    ProcessBackend,
    available_backends,
    create_backend,
    task_rng,
)
from repro.core.southbound import AttackDetector
from repro.errors import ComputeError
from repro.ml.kmeans import KMeans
from repro.ml.naive_bayes import GaussianNaiveBayes

BACKENDS = ("serial", "process")


# -- module-level (picklable) task functions ----------------------------------

def _column_sums(part):
    return part.sum(axis=0)


def _seeded_noise(part, seed):
    """Stochastic map task: derives its RNG from (seed, partition index).

    The partition carries its own index as ``part[0]`` so the stream is a
    function of the data placement only, never of the executing process.
    """
    index = part[0]
    rng = task_rng(seed, index)
    return float(rng.normal(size=256).sum())


def _always_raises(part, _state):
    raise ValueError("injected application error")


class _CrashOnFirstAttempt:
    """Picklable task that kills its host process once, then succeeds.

    The sentinel file is the cross-process memory: the first pool worker
    to run the task drops the sentinel and dies mid-task (a real worker
    crash, not an exception); the retry finds the sentinel and completes.
    """

    def __init__(self, sentinel: str) -> None:
        self.sentinel = sentinel

    def __call__(self, part, _state):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as handle:
                handle.write("crashed")
            os._exit(1)
        return sum(part)


class _HangsInSubprocess:
    """Sleeps only when executed outside the driver process, so the
    process backend times out but the serial fallback returns at once."""

    def __init__(self, driver_pid: int) -> None:
        self.driver_pid = driver_pid

    def __call__(self, part, _state):
        if os.getpid() != self.driver_pid:
            time.sleep(2.0)
        return sum(part)


# -- backend selection --------------------------------------------------------

class TestBackendSelection:
    def test_available_backends(self):
        assert available_backends() == ["process", "serial"]

    def test_default_is_serial(self):
        with override(compute_backend=from_env({}).compute_backend):
            assert ComputeCluster(2).backend_name == "serial"

    def test_env_var_selects_backend(self):
        config = from_env({"ATHENA_COMPUTE_BACKEND": "process"})
        with override(compute_backend=config.compute_backend):
            assert ComputeCluster(2).backend_name == "process"

    def test_explicit_name_beats_env(self):
        with override(compute_backend="process"):
            assert ComputeCluster(2, backend="serial").backend_name == "serial"

    def test_instance_accepted(self):
        backend = ProcessBackend()
        assert ComputeCluster(2, backend=backend).backend is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ComputeError, match="unknown compute backend"):
            create_backend("hadoop")

    def test_per_job_override(self):
        cluster = ComputeCluster(2, backend="serial")
        ds = PartitionedDataset.from_records(list(range(20)), 4)
        report = cluster.run_map(ds, map_fn=sum, reduce_fn=sum, backend="process")
        assert report.backend == "process"
        assert cluster.backend_name == "serial"  # default untouched


# -- equivalence --------------------------------------------------------------

class TestBackendEquivalence:
    """Same task graph, same seed → identical results on every backend."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return np.random.default_rng(11).normal(size=(12_000, 6))

    def _run_map(self, backend, matrix):
        cluster = ComputeCluster(3, backend=backend)
        ds = PartitionedDataset.from_matrix(matrix, 6)
        report = cluster.run_map(
            ds, map_fn=_column_sums, reduce_fn=lambda parts: np.vstack(parts)
        )
        return report

    def test_map_results_bit_identical(self, matrix):
        serial = self._run_map("serial", matrix)
        process = self._run_map("process", matrix)
        assert process.fallback_tasks == 0  # the pool really ran it
        assert np.array_equal(serial.result, process.result)

    def test_kmeans_training_bit_identical(self, matrix):
        centers = {}
        for backend in BACKENDS:
            model = KMeans(k=5, max_iterations=6, seed=3)
            ds = PartitionedDataset.from_matrix(matrix, 6)
            model.fit_distributed(
                ComputeCluster(3, backend=backend), ds, backend=backend
            )
            assert model.last_job_report.backend == backend
            centers[backend] = model.centers
        assert np.array_equal(centers["serial"], centers["process"])

    def test_naive_bayes_training_bit_identical(self, matrix):
        labels = (matrix[:, 0] > 0).astype(float)
        fitted = {}
        for backend in BACKENDS:
            model = GaussianNaiveBayes()
            ds = PartitionedDataset.from_matrix(matrix, 6, labels=labels)
            model.fit_distributed(ComputeCluster(3, backend=backend), ds)
            fitted[backend] = model
        for attr in ("classes", "priors", "means", "variances"):
            assert np.array_equal(
                getattr(fitted["serial"], attr), getattr(fitted["process"], attr)
            )
        # And the distributed fit agrees with the in-memory fit to rounding.
        local = GaussianNaiveBayes().fit(matrix, labels)
        assert np.allclose(local.means, fitted["serial"].means)
        assert np.allclose(local.variances, fitted["serial"].variances)
        # Rounding-level model differences may flip only near-tied rows.
        agreement = (fitted["serial"].predict(matrix) == local.predict(matrix))
        assert agreement.mean() > 0.999

    def test_stochastic_map_identical_across_backends(self):
        # Each partition is [index]; the task derives its RNG from
        # (job seed, index) via task_rng, so streams survive the process
        # boundary unchanged.
        ds = PartitionedDataset([[i] for i in range(8)])
        results = {}
        for backend in BACKENDS:
            cluster = ComputeCluster(3, backend=backend)
            report = cluster.run_iterative(
                ds, _seeded_noise, lambda parts, _s: list(parts),
                initial_state=1234, rounds=1,
            )
            results[backend] = report.result
        assert results["serial"] == results["process"]

    def test_detection_validation_identical(self, matrix):
        model = KMeans(k=4, max_iterations=5, seed=7).fit(matrix)
        model.label_clusters(matrix, (matrix[:, 1] > 0).astype(float))
        predictions = {}
        for backend in BACKENDS:
            detector = AttackDetector(
                compute=ComputeCluster(3, backend=backend),
                distributed_threshold=1_000,
            )
            predicted, report = detector.run_validation(model, matrix)
            assert report is not None and report.backend == backend
            predictions[backend] = predicted
        assert np.array_equal(predictions["serial"], predictions["process"])

    def test_map_partitions_on_cluster(self):
        ds = PartitionedDataset.from_records(list(range(12)), 3)
        local = ds.map_partitions(sum)
        distributed = ds.map_partitions(sum, cluster=ComputeCluster(2))
        assert local.partitions == distributed.partitions


# -- crash, timeout, and fallback handling ------------------------------------

class TestProcessFaultHandling:
    def test_worker_crash_retried_and_succeeds(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        cluster = ComputeCluster(
            2, backend="process", config=ClusterConfig(task_retries=2)
        )
        ds = PartitionedDataset.from_records([1, 2, 3, 4], 1)
        report = cluster.run_iterative(
            ds,
            _CrashOnFirstAttempt(sentinel),
            lambda parts, _s: sum(parts),
            initial_state=None,
            rounds=1,
        )
        assert report.result == 10
        assert report.backend == "process"
        assert report.tasks_retried >= 1
        assert cluster.tasks_retried >= 1
        assert os.path.exists(sentinel)

    def test_timeout_falls_back_to_serial(self):
        cluster = ComputeCluster(
            2,
            backend="process",
            config=ClusterConfig(task_retries=1, task_timeout=0.2),
        )
        ds = PartitionedDataset.from_records([1, 2, 3], 1)
        report = cluster.run_iterative(
            ds,
            _HangsInSubprocess(os.getpid()),
            lambda parts, _s: sum(parts),
            initial_state=None,
            rounds=1,
        )
        assert report.result == 6
        assert report.fallback_tasks == 1
        assert report.tasks_retried >= 1

    def test_unpicklable_task_falls_back_to_serial(self):
        cluster = ComputeCluster(2, backend="process")
        ds = PartitionedDataset.from_records(list(range(30)), 3)
        report = cluster.run_map(ds, map_fn=lambda p: sum(p), reduce_fn=sum)
        assert report.result == sum(range(30))
        assert report.backend == "process"
        assert report.fallback_tasks == 3
        assert cluster.tasks_fallback == 3

    def test_application_error_still_aborts_job(self):
        # A deterministic task exception is not infrastructure failure:
        # after the retry budget the serial fallback surfaces it as the
        # same ComputeError the serial backend raises.
        cluster = ComputeCluster(
            2, backend="process", config=ClusterConfig(task_retries=1)
        )
        ds = PartitionedDataset.from_records([1, 2], 1)
        with pytest.raises(ComputeError, match="after 2 attempts"):
            cluster.run_iterative(
                ds, _always_raises, lambda parts, _s: parts,
                initial_state=None, rounds=1,
            )

    def test_pool_restart_counted(self, tmp_path):
        backend = ProcessBackend()
        sentinel = str(tmp_path / "crash")
        cluster = ComputeCluster(2, backend=backend)
        ds = PartitionedDataset.from_records([5, 6], 1)
        report = cluster.run_iterative(
            ds,
            _CrashOnFirstAttempt(sentinel),
            lambda parts, _s: sum(parts),
            initial_state=None,
            rounds=1,
        )
        assert report.result == 11
        assert backend.pool_restarts >= 1


# -- accounting ---------------------------------------------------------------

class TestBackendAccounting:
    def test_process_reports_bytes_and_wall(self):
        cluster = ComputeCluster(2, backend="process")
        ds = PartitionedDataset.from_matrix(
            np.arange(200.0).reshape(50, 4), 4
        )
        report = cluster.run_map(ds, map_fn=_column_sums)
        assert report.fallback_tasks == 0
        assert report.bytes_shuffled > 0
        assert report.wall_seconds > 0
        assert report.per_round_busy and len(report.per_round_busy) == 1

    def test_serial_moves_no_bytes(self):
        cluster = ComputeCluster(2, backend="serial")
        ds = PartitionedDataset.from_records(list(range(10)), 2)
        report = cluster.run_map(ds, map_fn=sum, reduce_fn=sum)
        assert report.bytes_shuffled == 0
        assert report.backend == "serial"

    def test_process_credits_driver_worker_slots(self):
        cluster = ComputeCluster(2, backend="process")
        ds = PartitionedDataset.from_matrix(
            np.arange(400.0).reshape(100, 4), 4
        )
        report = cluster.run_map(ds, map_fn=_column_sums)
        assert report.fallback_tasks == 0
        # Pool process time was attributed to the driver-side slots.
        assert sum(report.per_worker_busy) > 0
        assert sum(w.tasks_run for w in cluster.workers) == 4


class TestTaskRng:
    def test_stream_depends_on_seed_and_index(self):
        a = task_rng(1, 0).normal(size=4)
        assert np.array_equal(a, task_rng(1, 0).normal(size=4))
        assert not np.array_equal(a, task_rng(1, 1).normal(size=4))
        assert not np.array_equal(a, task_rng(2, 0).normal(size=4))

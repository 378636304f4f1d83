"""A data-parallel compute cluster modeled on Spark.

Athena ships detection-model training and large-scale validation to a
computing cluster (the paper uses Spark 1.6 + MLlib).  Here a
:class:`ComputeCluster` executes map/reduce-style jobs over a
:class:`PartitionedDataset`: each partition becomes a task, tasks are
placed on workers longest-first and run in the driver process, and a
failed task is retried on the next worker.  Each job reports both its real
wall time and a *makespan* combining measured per-task execution with an
explicit cost model for the parts a scaled-down dataset cannot exhibit
(task dispatch, result collection, per-round broadcast).  The model is
documented in :mod:`repro.compute.cluster` and ``docs/COMPUTE.md``, and
exercised by the Figure 10 bench.
"""

from repro.compute.cluster import ClusterConfig, ComputeCluster, JobReport
from repro.compute.partition import PartitionedDataset
from repro.compute.worker import InjectedWorkerCrash, Worker

__all__ = [
    "ClusterConfig",
    "ComputeCluster",
    "InjectedWorkerCrash",
    "JobReport",
    "PartitionedDataset",
    "Worker",
]

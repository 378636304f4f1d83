"""A data-parallel compute cluster modeled on Spark.

Athena ships detection-model training and large-scale validation to a
computing cluster (the paper uses Spark 1.6 + MLlib).  Here a
:class:`ComputeCluster` executes map/reduce-style jobs over a
:class:`PartitionedDataset`: each partition becomes a task, tasks are
scheduled to workers, and execution runs through a pluggable
:class:`ExecutionBackend` — in-process (:class:`SerialBackend`, default)
or across real worker processes (:class:`ProcessBackend`), with results
bit-identical either way.  Each job reports both its real wall time and a
*makespan* combining measured per-task execution with an explicit cost
model for the parts a scaled-down dataset cannot exhibit (task dispatch,
result collection, per-round broadcast).  The model is documented in
:mod:`repro.compute.cluster`, the backends in
:mod:`repro.compute.backends` and ``docs/COMPUTE.md``; both are exercised
by the Figure 10 bench.
"""

from repro.compute.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    available_backends,
    create_backend,
    task_rng,
)
from repro.compute.cluster import ClusterConfig, ComputeCluster, JobReport
from repro.compute.partition import PartitionedDataset
from repro.compute.worker import InjectedWorkerCrash, Worker

__all__ = [
    "ClusterConfig",
    "ComputeCluster",
    "ExecutionBackend",
    "InjectedWorkerCrash",
    "JobReport",
    "PartitionedDataset",
    "ProcessBackend",
    "SerialBackend",
    "Worker",
    "available_backends",
    "create_backend",
    "task_rng",
]

"""Partitioned datasets (the RDD analogue).

A dataset is a list of partitions.  Numeric feature matrices keep each
partition as a contiguous numpy array so map tasks run vectorised; generic
record datasets keep lists.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Sequence

import numpy as np

from repro.errors import ComputeError


class PartitionedDataset:
    """An immutable, partitioned collection."""

    def __init__(self, partitions: List[Any]) -> None:
        if not partitions:
            raise ComputeError("dataset needs at least one partition")
        self._partitions = list(partitions)

    @classmethod
    def from_records(cls, records: Sequence[Any], n_partitions: int) -> "PartitionedDataset":
        """Split a record sequence into ``n_partitions`` near-equal chunks."""
        if n_partitions < 1:
            raise ComputeError(f"invalid partition count {n_partitions}")
        records = list(records)
        if not records:
            return cls([[]])
        n_partitions = min(n_partitions, len(records))
        bounds = np.linspace(0, len(records), n_partitions + 1).astype(int)
        return cls(
            [records[bounds[i]: bounds[i + 1]] for i in range(n_partitions)]
        )

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, n_partitions: int, labels: np.ndarray = None
    ) -> "PartitionedDataset":
        """Split a feature matrix (optionally with labels) row-wise."""
        if n_partitions < 1:
            raise ComputeError(f"invalid partition count {n_partitions}")
        n_rows = matrix.shape[0]
        n_partitions = max(1, min(n_partitions, n_rows)) if n_rows else 1
        bounds = np.linspace(0, n_rows, n_partitions + 1).astype(int)
        partitions = []
        for i in range(n_partitions):
            rows = matrix[bounds[i]: bounds[i + 1]]
            if labels is not None:
                partitions.append((rows, labels[bounds[i]: bounds[i + 1]]))
            else:
                partitions.append(rows)
        return cls(partitions)

    @property
    def n_partitions(self) -> int:
        return len(self._partitions)

    @property
    def partitions(self) -> List[Any]:
        return list(self._partitions)

    def partition(self, index: int) -> Any:
        return self._partitions[index]

    def total_records(self) -> int:
        total = 0
        for part in self._partitions:
            if isinstance(part, tuple):
                total += len(part[0])
            else:
                total += len(part)
        return total

    def map_partitions(
        self, fn: Callable[[Any], Any], cluster=None
    ) -> "PartitionedDataset":
        """Eagerly apply ``fn`` per partition.

        Driver-local by default; pass a
        :class:`~repro.compute.cluster.ComputeCluster` to execute the
        transformation as a map job on that cluster's workers instead.
        """
        if cluster is None:
            return PartitionedDataset([fn(part) for part in self._partitions])
        report = cluster.run_map(self, fn)
        return PartitionedDataset(report.result)

    def repartition(self, n_partitions: int) -> "PartitionedDataset":
        """Re-split the concatenation of all partitions."""
        flattened: List[Any] = []
        matrices = all(isinstance(p, np.ndarray) for p in self._partitions)
        if matrices:
            matrix = np.concatenate(self._partitions, axis=0)
            return PartitionedDataset.from_matrix(matrix, n_partitions)
        for part in self._partitions:
            flattened.extend(part)
        return PartitionedDataset.from_records(flattened, n_partitions)

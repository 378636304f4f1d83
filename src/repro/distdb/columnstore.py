"""A Cassandra-style write-optimised store (the paper's proposed fix).

Section VII-C: "the performance overhead of our system primarily originates
from MongoDB related operations.  To boost Athena's performance, we will
consider replacing MongoDB with a high-performance database like
Cassandra."  This module implements that future-work item: a wide-column,
log-structured store whose write path is an append — no secondary-index
maintenance, no per-document wire encoding, replication via cheap buffered
batches — at the cost of scan-based reads.

Routing, replication, liveness, the frame cache and op accounting come
from the :class:`~repro.distdb.core.ShardedStore` core it shares with
:class:`~repro.distdb.cluster.DatabaseCluster`, and the public surface
matches (insert/find/count/delete/aggregate/create_index), so
:class:`~repro.core.feature_manager.FeatureManager` and the Cbench harness
can swap backends; ``bench_cassandra_backend`` measures the resulting
Table IX improvement.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.distdb.aggregation import aggregate as _aggregate
from repro.distdb.core import (
    REPLICA_SUFFIX,
    ShardedStore,
    StoreNode,
    replica_name,
    tracked,
)
from repro.distdb.frame import FeatureFrame, filter_mask, scan_fields
from repro.distdb.query import (
    copy_out,
    filter_documents,
    matches_filter,
    validate_filter,
)


class _ColumnFamily:
    """One table on one node: a memtable plus flushed sstables."""

    def __init__(self, flush_threshold: int = 4096) -> None:
        self.flush_threshold = flush_threshold
        self.memtable: List[Dict[str, Any]] = []
        self.sstables: List[List[Dict[str, Any]]] = []
        self.writes = 0
        self.flushes = 0

    def append(self, doc: Dict[str, Any]) -> None:
        # The write path is just an append; cheapness is the point.
        self.memtable.append(doc)
        self.writes += 1
        if len(self.memtable) >= self.flush_threshold:
            self.flush()

    def flush(self) -> None:
        if self.memtable:
            self.sstables.append(self.memtable)
            self.memtable = []
            self.flushes += 1

    def scan(self):
        for sstable in self.sstables:
            yield from sstable
        yield from self.memtable

    def compact(self) -> int:
        """Merge all sstables into one; returns tables merged."""
        merged_count = len(self.sstables)
        if merged_count > 1:
            merged: List[Dict[str, Any]] = []
            for sstable in self.sstables:
                merged.extend(sstable)
            self.sstables = [merged]
        return merged_count

    def rewrite(self, docs: List[Dict[str, Any]]) -> None:
        """Replace all contents (the delete path rewrites segments)."""
        self.sstables = [docs] if docs else []
        self.memtable = []

    def __len__(self) -> int:
        return len(self.memtable) + sum(len(s) for s in self.sstables)


class _ColumnNode(StoreNode):
    """One storage node."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.families: Dict[str, _ColumnFamily] = {}

    def family(self, name: str) -> _ColumnFamily:
        if name not in self.families:
            self.families[name] = _ColumnFamily()
        return self.families[name]

    def has_family(self, name: str) -> bool:
        return name in self.families

    def document_count(self) -> int:
        return sum(len(family) for family in self.families.values())


class ColumnStoreCluster(ShardedStore):
    """A sharded, replicated, write-optimised document store.

    The memtable/sstable append layout over the shared
    :class:`~repro.distdb.core.ShardedStore` core.
    """

    def __init__(
        self,
        n_nodes: int = 3,
        partition_key: str = "switch_id",
        replication: int = 2,
    ) -> None:
        super().__init__(
            [_ColumnNode(i) for i in range(n_nodes)], partition_key, replication
        )
        self.writes = 0

    def _scan(self, collection: str) -> Iterator[Dict[str, Any]]:
        """Every stored document of the collection on the live nodes."""
        for node in self._live_shards():
            if node.has_family(collection):
                yield from node.family(collection).scan()

    # -- writes ----------------------------------------------------------------

    @tracked("insert")
    def insert_one(self, collection: str, doc: Dict[str, Any]) -> Any:
        self._bump()
        stored, key_value = self._admit(doc)
        primary, *replicas = self._write_chain(key_value)
        primary.family(collection).append(stored)
        for replica in replicas:
            # Replicas share the stored dict: the replication cost is a
            # pointer append (hinted-handoff style), not a deep copy.
            replica.family(replica_name(collection)).append(stored)
        self.writes += 1
        return stored["_id"]

    @tracked("insert")
    def insert_many(self, collection: str, docs: List[Dict[str, Any]]) -> int:
        """Batch insert: one telemetry op, one routing pass for the batch.

        Documents still land on every node in arrival order — so memtable
        contents, flush points, and scan order are identical to the
        per-doc loop's — but a key with no live replica chain rejects the
        whole batch before anything is appended.
        """
        if not docs:
            return 0
        stored, primaries, replicas = self._route_batch(docs)
        self._bump()
        for name, targets in (
            (collection, primaries),
            (replica_name(collection), replicas),
        ):
            for node_id, positions in targets.items():
                append = self.shards[node_id].family(name).append
                for position in positions:
                    append(stored[position])
        self.writes += len(docs)
        return len(docs)

    @tracked("delete")
    def delete_many(self, collection: str, filter_: Optional[Dict[str, Any]] = None) -> int:
        validate_filter(filter_)
        self._bump()
        removed = 0
        for name in (collection, replica_name(collection)):
            for node in self._live_shards():
                if not node.has_family(name):
                    continue
                family = node.family(name)
                kept = [
                    doc
                    for doc in family.scan()
                    if not matches_filter(doc, filter_)
                ]
                if name == collection:
                    removed += len(family) - len(kept)
                family.rewrite(kept)
        return removed

    @tracked("update")
    def update_many(
        self, collection: str, filter_: Optional[Dict[str, Any]], changes: Dict[str, Any]
    ) -> int:
        validate_filter(filter_)
        self._bump()
        touched = 0
        for doc in self._scan(collection):
            if matches_filter(doc, filter_):
                doc.update(changes)
                touched += 1
        return touched

    # -- reads --------------------------------------------------------------------

    @tracked("find")
    def find(
        self,
        collection: str,
        filter_: Optional[Dict[str, Any]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        projection: Optional[List[str]] = None,
    ) -> List[Dict[str, Any]]:
        validate_filter(filter_)
        # Zero-copy read (the distdb contract, docs/PERF.md): filter the
        # raw stored documents, sort and trim the *references*, and copy
        # only the post-limit survivors out.
        matched = list(filter_documents(self._scan(collection), filter_))
        return copy_out(matched, sort, limit, projection)

    def frame(self, collection: str) -> FeatureFrame:
        """Full-scan :class:`FeatureFrame` over the collection, cached.

        One lazy frame per store generation (any write invalidates): it
        starts as the row index over the shared stored documents and
        builds each column the first time a read names it — the batch
        path's answer to the store having no secondary indexes.  Row
        order matches :meth:`find`'s pre-sort scan order exactly.
        """
        return self._cached_frame(
            collection,
            lambda: FeatureFrame.from_documents(self._scan(collection), columns=()),
        )

    @tracked("find_frame")
    def find_frame(
        self,
        collection: str,
        filter_: Optional[Dict[str, Any]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        columns: Optional[Tuple[str, ...]] = None,
    ) -> FeatureFrame:
        """Vectorised find: scan → boolean mask → argsort → head.

        Selects exactly the rows :meth:`find` returns, in the same order,
        as a frame over the shared stored documents (no copies), with
        ``columns`` sliced from the generation's cached columns (the
        filter and sort fields are read from there too, then trimmed, as
        :meth:`DatabaseCluster.find_frame` does).
        """
        validate_filter(filter_)
        scan = scan_fields(columns or (), filter_, sort)
        frame = self.frame(collection).select(scan)
        if filter_:
            frame = frame.mask(filter_mask(frame, filter_))
        if sort:
            frame = frame.sort(sort)
        if limit is not None:
            frame = frame.head(limit)
        if columns is not None and scan != tuple(columns):
            frame = frame.select(columns)
        return frame

    @tracked("count")
    def count(self, collection: str, filter_: Optional[Dict[str, Any]] = None) -> int:
        validate_filter(filter_)
        return sum(1 for _doc in filter_documents(self._scan(collection), filter_))

    @tracked("aggregate")
    def aggregate(
        self, collection: str, pipeline: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        return _aggregate(list(self._scan(collection)), pipeline)

    # -- administration ----------------------------------------------------------------

    def create_index(self, collection: str, *fields: str) -> None:
        """No-op: the write-optimised store has no secondary indexes."""

    def document_count(self) -> int:
        """Primary copies only (replica families hold pointers to them)."""
        return sum(
            len(family)
            for node in self.shards
            for name, family in node.families.items()
            if not name.endswith(REPLICA_SUFFIX)
        )

    def compact_all(self) -> int:
        """Run compaction everywhere; returns segments merged."""
        return sum(
            family.compact()
            for node in self.shards
            for family in node.families.values()
        )

    def op_stats(self) -> Dict[str, Any]:
        return {
            "writes": self.writes,
            "flushes": sum(
                family.flushes
                for node in self.shards
                for family in node.families.values()
            ),
        }

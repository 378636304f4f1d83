"""The database cluster router.

Routes documents to shards by a hash of the shard key, targets single shards
when a query pins the key, and scatter-gathers otherwise.  Aggregation
pipelines with a leading ``$match``/``$group`` execute per shard and merge at
the router when the accumulators allow it; otherwise raw documents are pulled
and aggregated centrally (the correctness-preserving fallback).
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.distdb.aggregation import aggregate as _aggregate
from repro.distdb.aggregation import merge_grouped
from repro.distdb.collection import Collection, approx_size
from repro.distdb.core import ShardedStore, replica_name, tracked
from repro.distdb.frame import FeatureFrame, filter_mask, scan_fields
from repro.distdb.query import equality_value, sort_documents, validate_filter
from repro.distdb.shard import ShardNode
from repro.errors import DatabaseError
from repro.telemetry import get_telemetry


#: The driver's wire encoder, built once (``json.dumps`` with non-default
#: arguments builds a fresh encoder per call).
_WIRE = json.JSONEncoder(default=str, separators=(",", ":"))
#: Documents wire-encoded per frame by ``insert_many``.  Encoding a frame
#: at a time hoists the encoder call without holding the whole batch as
#: one string; past a few hundred documents the call overhead is already
#: negligible, so this is a constant rather than a knob.
WIRE_FRAME_DOCS = 256


class DatabaseCluster(ShardedStore):
    """A sharded document store with a Mongo-like client interface.

    The indexed-collection layout over the shared
    :class:`~repro.distdb.core.ShardedStore` core.
    """

    def __init__(
        self,
        n_shards: int = 3,
        shard_key: str = "_id",
        replication: int = 2,
    ) -> None:
        super().__init__(
            [ShardNode(i) for i in range(n_shards)], shard_key, replication
        )
        self.router_ops = 0
        self.bytes_on_wire = 0
        self._metric_wire_bytes = get_telemetry().registry.counter(
            "athena_distdb_wire_bytes_total",
            "Driver-side wire bytes encoded for inserts.",
        )

    # -- writes ------------------------------------------------------------

    @tracked("insert")
    def insert_one(self, collection: str, doc: Dict[str, Any]) -> Any:
        self.router_ops += 1
        self._bump()
        # Driver-side wire encoding (the BSON step a real client performs);
        # this is genuine per-insert CPU work, which is what makes the
        # Table IX 'DB operations dominate' result measurable.
        encoded = len(_WIRE.encode(doc))
        self.bytes_on_wire += encoded
        self._metric_wire_bytes.inc(encoded)
        stored, key_value = self._admit(doc)
        primary, *replicas = self._write_chain(key_value)
        size = approx_size(stored)
        primary.collection(collection).insert_stored(stored, size)
        replicas_in = replica_name(collection)
        for replica in replicas:
            copy = dict(stored)
            lagged = self._replica_lag.get(replica.node_id)
            if lagged is not None:
                lagged.append((replicas_in, copy))
            else:
                replica.collection(replicas_in).insert_stored(copy, size)
        return stored["_id"]

    @tracked("insert")
    def insert_many(self, collection: str, docs: List[Dict[str, Any]]) -> int:
        """Bulk insert, leaving the store as the ``insert_one`` loop would
        (docs/PERF.md, "Bulk writes") except that it is all or nothing:
        routing, encoding and duplicate ``_id``s are checked for the whole
        batch before any document is written."""
        if not docs:
            return 0
        encoded = 0
        for start in range(0, len(docs), WIRE_FRAME_DOCS):
            frame = docs[start : start + WIRE_FRAME_DOCS]
            # "[a,b,c]": the brackets and commas belong to the frame, so
            # what is left is the sum of the documents' own encodings.
            encoded += len(_WIRE.encode(frame)) - len(frame) - 1
        stored, primaries, replicas = self._route_batch(docs)
        sizes = [approx_size(doc) for doc in stored]
        replicas_in = replica_name(collection)
        tables: List[Tuple[Collection, List[Dict[str, Any]], List[int]]] = []
        lagged = []
        for node_id, positions in primaries.items():
            table = self.shards[node_id].collection(collection)
            batch = [stored[i] for i in positions]
            tables.append((table, batch, [sizes[i] for i in positions]))
        for node_id, positions in replicas.items():
            copies = [dict(stored[i]) for i in positions]
            queue = self._replica_lag.get(node_id)
            if queue is not None:
                lagged.append((queue, copies))
            else:
                table = self.shards[node_id].collection(replicas_in)
                tables.append((table, copies, [sizes[i] for i in positions]))
        for table, batch, _ in tables:
            table.new_ids(batch)
        # Everything that can reject the batch has run; now write.
        self.router_ops += len(docs)
        self._bump()
        self.bytes_on_wire += encoded
        self._metric_wire_bytes.inc(encoded)
        for table, batch, batch_sizes in tables:
            table.insert_stored_many(batch, batch_sizes)
        for queue, copies in lagged:
            queue.extend((replicas_in, copy) for copy in copies)
        return len(docs)

    def _tables(
        self, name: str, shards: Optional[List[ShardNode]] = None
    ) -> List[Collection]:
        """The named collection on every given (default: live) shard that
        holds it, in shard order."""
        shards = self._live_shards() if shards is None else shards
        return [s.collection(name) for s in shards if s.has_collection(name)]

    @tracked("delete")
    def delete_many(self, collection: str, filter_: Optional[Dict[str, Any]] = None) -> int:
        self.router_ops += 1
        self._bump()
        validate_filter(filter_)
        for replica in self._tables(replica_name(collection)):
            replica.delete_many(filter_)
        return sum(t.delete_many(filter_) for t in self._tables(collection))

    @tracked("update")
    def update_many(
        self, collection: str, filter_: Optional[Dict[str, Any]], changes: Dict[str, Any]
    ) -> int:
        self.router_ops += 1
        self._bump()
        for replica in self._tables(replica_name(collection)):
            replica.update_many(filter_, changes)
        return sum(
            t.update_many(filter_, changes) for t in self._tables(collection)
        )

    # -- reads ----------------------------------------------------------------

    def _read_shards(self, filter_: Optional[Dict[str, Any]]) -> List[ShardNode]:
        """The pinned shard when the filter fixes the shard key, else every
        live shard."""
        pinned = equality_value(filter_, self.shard_key)
        if pinned is not None:
            return [self._shard_for(pinned)]
        return self._live_shards()

    @tracked("find")
    def find(
        self,
        collection: str,
        filter_: Optional[Dict[str, Any]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        projection: Optional[List[str]] = None,
    ) -> List[Dict[str, Any]]:
        self.router_ops += 1
        validate_filter(filter_)
        results: List[Dict[str, Any]] = []
        for table in self._tables(collection, self._read_shards(filter_)):
            results.extend(table.find(filter_, projection=projection))
        if sort:
            sort_documents(results, sort)
        if limit is not None:
            results = results[: max(0, limit)]
        return results

    def _frame_index(
        self, collection: str
    ) -> Tuple[FeatureFrame, Dict[int, int]]:
        """The generation's full-scan frame plus its document -> row map.

        The frame starts as the row index alone; a column is built over
        the whole generation the first time a read names it and kept
        until the generation ends (docs/PERF.md, "The batch path").  The
        row map keys on document identity — the cache holds references
        to the stored dicts, so the ids stay valid exactly as long as the
        generation does.
        """

        def build() -> Tuple[FeatureFrame, Dict[int, int]]:
            docs = [doc for t in self._tables(collection) for doc in t.raw_candidates()]
            frame = FeatureFrame.from_documents(docs, columns=())
            return frame, {id(doc): i for i, doc in enumerate(docs)}

        return self._cached_frame(collection, build)

    @tracked("find_frame")
    def find_frame(
        self,
        collection: str,
        filter_: Optional[Dict[str, Any]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        columns: Optional[Tuple[str, ...]] = None,
    ) -> FeatureFrame:
        """Vectorised find: candidate gather, mask, sort.

        Returns a :class:`FeatureFrame` over the shared stored documents
        holding exactly the rows :meth:`find` would return, in the same
        order (docs/PERF.md equivalence contract): the rows are gathered
        in the document path's own candidate order before masking, so
        index-served filters line up byte-for-byte.  ``columns`` names
        what the caller will read, so those come sliced from the
        generation's cached columns; any other field still resolves, from
        the result rows.
        """
        self.router_ops += 1
        validate_filter(filter_)
        scan = scan_fields(columns or (), filter_, sort)
        tables = self._tables(collection, self._read_shards(filter_))
        if filter_ is None:
            # Full scan: candidate order is the cached frame's row order.
            n_rows = [len(table) for table in tables]
            frame = self._frame_index(collection)[0].select(scan)
        else:
            # Index-served candidates come back in bucket order, not
            # insertion order, so the rows must follow the document
            # path's own candidate sequence even when it covers every row.
            partitions = [table.raw_candidates(filter_) for table in tables]
            n_rows = [len(part) for part in partitions]
            candidates = itertools.chain.from_iterable(partitions)
            if 2 * sum(n_rows) < sum(map(len, self._tables(collection))):
                # An index narrowed the read to a minority of the
                # collection: extract from those documents alone, so a
                # selective read never costs a scan of the whole store.
                frame = FeatureFrame.from_documents(list(candidates), scan)
            else:
                full, rows = self._frame_index(collection)
                indices = np.fromiter(
                    (rows[id(doc)] for doc in candidates),
                    dtype=np.intp,
                    count=sum(n_rows),
                )
                frame = full.select(scan).take(indices)
        keep = filter_mask(frame, filter_)
        if not keep.all():
            frame = frame.mask(keep)
        # Byte accounting as in ``Collection.find``: every matched
        # document of each shard, pre-limit.
        matched, start = iter(frame.documents()), 0
        for table, n in zip(tables, n_rows):
            n_matched = int(np.count_nonzero(keep[start : start + n]))
            table.account_read(itertools.islice(matched, n_matched))
            start += n
        if sort:
            frame = frame.sort(sort)
        if limit is not None:
            frame = frame.head(limit)
        if columns is not None and scan != tuple(columns):
            frame = frame.select(columns)
        return frame

    @tracked("count")
    def count(self, collection: str, filter_: Optional[Dict[str, Any]] = None) -> int:
        self.router_ops += 1
        return sum(t.count(filter_) for t in self._tables(collection))

    @tracked("aggregate")
    def aggregate(
        self, collection: str, pipeline: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Run a pipeline, pushing work to shards when mergeable."""
        self.router_ops += 1
        group_idx = next(
            (i for i, stage in enumerate(pipeline) if "$group" in stage), None
        )
        if group_idx is not None:
            spec = pipeline[group_idx]["$group"]
            mergeable = all(
                next(iter(acc)) in ("$sum", "$count", "$min", "$max")
                for field, acc in spec.items()
                if field != "_id"
            )
            prefix_ok = all(
                "$match" in stage for stage in pipeline[:group_idx]
            )
            if mergeable and prefix_ok:
                partials = [
                    _aggregate(table.all_documents(), pipeline[: group_idx + 1])
                    for table in self._tables(collection)
                ]
                merged = merge_grouped(partials, spec)
                return _aggregate(merged, pipeline[group_idx + 1 :])
        docs = [
            doc
            for table in self._tables(collection)
            for doc in table.all_documents()
        ]
        return _aggregate(docs, pipeline)

    # -- administration -----------------------------------------------------------

    def create_index(self, collection: str, *fields: str) -> None:
        for shard in self.shards:
            shard.collection(collection).create_index(*fields)

    def document_count(self) -> int:
        return sum(shard.document_count() for shard in self.shards)

    def op_stats(self) -> Dict[str, Any]:
        totals: Dict[str, Any] = {"router_ops": self.router_ops}
        for shard in self.shards:
            for op, count in shard.op_stats().items():
                totals[op] = totals.get(op, 0) + count
        return totals

    # -- injected replication lag -------------------------------------------

    def begin_replica_lag(self, node_id: int) -> None:
        """Start lagging replica writes destined for ``node_id``.

        The primary copy of every document still lands synchronously; only
        the replica copies queue up, as when a secondary falls behind the
        oplog in a real replica set.
        """
        if not 0 <= node_id < len(self.shards):
            raise DatabaseError(f"no shard {node_id}")
        self._replica_lag.setdefault(node_id, [])

    def end_replica_lag(self, node_id: int) -> int:
        """Catch the shard up: apply every queued replica write."""
        queued = self._replica_lag.pop(node_id, [])
        shard = self.shards[node_id]
        for name, doc in queued:
            shard.collection(name).insert_stored(doc)
        if queued:
            self._bump()
        return len(queued)

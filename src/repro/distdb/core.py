"""What every sharded store layout shares.

:class:`ShardedStore` is the one core under both store layouts — the
indexed document collections of
:class:`~repro.distdb.cluster.DatabaseCluster` and the memtable/sstable
append log of :class:`~repro.distdb.columnstore.ColumnStoreCluster`.  It
owns the shard-key hash, ``_id`` assignment, the replica chain with
first-live-primary routing, the typed liveness checks, the
generation-keyed frame cache, the per-operation counter/timer wrapper and
the ``fail_shard`` / ``recover_shard`` / ``shard_status`` surface.  A
layout adds only how one node stores, scans and indexes documents.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import AllShardsDownError, DatabaseError, ShardDownError
from repro.telemetry import get_telemetry

#: Operation labels shared by the stores' telemetry instruments.
_DB_OPS = ("insert", "delete", "update", "find", "find_frame", "count", "aggregate")
#: Suffix of the table holding a collection's replica copies on a node.
REPLICA_SUFFIX = "__replica"


def _hash_value(value: Any) -> int:
    return _hash_repr(repr(value))


def _hash_repr(text: str) -> int:
    digest = hashlib.md5(text.encode()).digest()
    return int.from_bytes(digest[:4], "big")


def replica_name(collection: str) -> str:
    return collection + REPLICA_SUFFIX


def tracked(op: str) -> Callable:
    """Count and time a store operation ``method(self, collection, ...)``;
    with telemetry off, one flag test and no ``labels()`` lookup."""

    def decorate(method: Callable) -> Callable:
        @functools.wraps(method)
        def tracked_method(self, collection: str, *args: Any, **kwargs: Any) -> Any:
            if not self._telemetry_on:
                return method(self, collection, *args, **kwargs)
            self._metric_ops.labels(op=op, collection=collection).inc()
            with self._op_timers[op].time():
                return method(self, collection, *args, **kwargs)

        return tracked_method

    return decorate


class StoreNode:
    """One storage server: an id and a liveness bit; layouts add tables."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.up = True

    def ensure_up(self) -> None:
        if not self.up:
            raise ShardDownError(self.node_id)

    def document_count(self) -> int:
        """Documents held on this node, replica copies included."""
        raise NotImplementedError


class ShardedStore:
    """Routing, replication, liveness, frame cache and op accounting."""

    def __init__(
        self, shards: Sequence[StoreNode], shard_key: str, replication: int
    ) -> None:
        if not shards:
            raise DatabaseError("cluster needs at least one shard")
        if replication < 1:
            raise DatabaseError("replication factor must be >= 1")
        self.shards = list(shards)
        self.shard_key = shard_key
        #: Copies of each document (1 primary + replicas), as in a replica
        #: set; replicas live on the next shards round-robin.
        self.replication = min(replication, len(self.shards))
        #: Per-store ``_id`` source, so placement depends only on the
        #: documents a store was fed, never on what else the process ran.
        self._ids = itertools.count(1)
        #: Bumped whenever a scan's result set could change.
        self._generation = 0
        #: collection -> the current generation's full-scan frame; emptied
        #: by every generation bump (:meth:`_bump`).
        self._frame_cache: Dict[str, Any] = {}
        #: Shards with injected replication lag (a layout that supports it
        #: queues their replica copies here until the lag ends).
        self._replica_lag: Dict[int, List[Tuple[str, Dict[str, Any]]]] = {}
        # ``tracked`` guards on this captured flag: the per-op counter's
        # dynamic ``collection`` label makes labels() too dear to pay off.
        registry = get_telemetry().registry
        self._telemetry_on = registry.enabled
        self._metric_ops = registry.counter(
            "athena_distdb_ops_total",
            "Router operations served, by operation and collection.",
            labelnames=("op", "collection"),
        )
        op_seconds = registry.histogram(
            "athena_distdb_op_seconds",
            "Wall seconds per router operation.",
            labelnames=("op",),
        )
        self._op_timers = {op: op_seconds.labels(op=op) for op in _DB_OPS}

    # -- routing -----------------------------------------------------------

    def _admit(self, doc: Dict[str, Any]) -> Tuple[Dict[str, Any], Any]:
        """The private copy to store and its routing key.  The ``_id`` is
        assigned *before* hashing, so a document without a shard-key value
        is routed by the ``_id`` a later ``find({"_id": ...})`` routes by."""
        stored = dict(doc)
        if "_id" not in stored:
            stored["_id"] = next(self._ids)
        key_value = stored.get(self.shard_key)
        if key_value is None:
            key_value = stored["_id"]
        return stored, key_value

    def _write_chain(self, key_value: Any) -> List[Any]:
        """Live nodes of the key's replica chain; the first acts as primary."""
        return self._live_chain(_hash_value(key_value) % len(self.shards))

    def _live_chain(self, home: int) -> List[Any]:
        """Live nodes of the replica chain homed on shard ``home``.

        A dead home shard hands the primary role to the next live node, so
        acknowledged writes stay readable through a single-node outage; a
        chain with no live node fails the write with a typed error.
        """
        shards = self.shards
        live = []
        for offset in range(self.replication):
            shard = shards[(home + offset) % len(shards)]
            if shard.up:
                live.append(shard)
        if not live:
            if not any(shard.up for shard in shards):
                raise AllShardsDownError()
            raise ShardDownError(home)
        return live

    def _route_batch(
        self, docs: Sequence[Dict[str, Any]]
    ) -> Tuple[List[Dict[str, Any]], Dict[int, List[int]], Dict[int, List[int]]]:
        """Admit and route a whole batch before anything is written.

        Returns the stored copies in arrival order, then for the primary
        and for the replica role ``node_id -> positions`` of the documents
        that node receives.  Positions ascend, so each node sees its
        documents in the order a per-document loop would deliver them.  A
        key whose chain has no live node raises here, with nothing stored.
        """
        admit, n_shards = self._admit, len(self.shards)
        admitted: List[Dict[str, Any]] = []
        primaries: Dict[int, List[int]] = {}
        replicas: Dict[int, List[int]] = {}
        # home shard -> the append of every position list of its chain.
        routes: Dict[int, List[Callable[[int], None]]] = {}
        homes: Dict[str, int] = {}
        for position, doc in enumerate(docs):
            stored, key_value = admit(doc)
            admitted.append(stored)
            # A shard-key value repeats across a batch (few switches, many
            # documents), an ``_id`` never does: hash the former once per
            # distinct repr, which is what the hash is taken over.
            text = repr(key_value)
            if key_value is stored["_id"]:
                home = _hash_repr(text) % n_shards
            else:
                home = homes.get(text)
                if home is None:
                    home = homes[text] = _hash_repr(text) % n_shards
            route = routes.get(home)
            if route is None:
                primary, *rest = self._live_chain(home)
                route = routes[home] = [
                    primaries.setdefault(primary.node_id, []).append,
                    *(replicas.setdefault(r.node_id, []).append for r in rest),
                ]
            for append in route:
                append(position)
        return admitted, primaries, replicas

    def _shard_for(self, value: Any) -> Any:
        """The live home shard of a pinned shard-key value."""
        shard = self.shards[_hash_value(value) % len(self.shards)]
        shard.ensure_up()
        return shard

    def _live_shards(self) -> List[Any]:
        live = [shard for shard in self.shards if shard.up]
        if not live:
            raise AllShardsDownError()
        return live

    # -- frame cache ---------------------------------------------------------

    def _bump(self) -> None:
        """A write, delete, update, shard failure or recovery happened:
        start a new generation and drop the last one's frames at once, so
        a stale frame never keeps deleted documents alive."""
        self._generation += 1
        if self._frame_cache:
            self._frame_cache.clear()

    def _cached_frame(self, collection: str, build: Callable[[], Any]) -> Any:
        """``build()`` once per collection and store generation."""
        cached = self._frame_cache.get(collection)
        if cached is None:
            cached = self._frame_cache[collection] = build()
        return cached

    # -- administration --------------------------------------------------------

    def fail_shard(self, node_id: int) -> None:
        self.shards[node_id].up = False
        self._bump()

    def recover_shard(self, node_id: int) -> None:
        self.shards[node_id].up = True
        self._bump()

    def replica_lag_depth(self, node_id: int) -> int:
        """Replica writes queued for a lagging shard (0 if not lagging)."""
        return len(self._replica_lag.get(node_id, ()))

    def shard_status(self) -> List[Dict[str, Any]]:
        """Per-shard liveness and size, for health endpoints and runbooks.

        The serving tier's ``/api/health`` exposes these rows verbatim, so
        the keys are API surface (docs/API.md).
        """
        return [
            {
                "node_id": shard.node_id,
                "up": shard.up,
                "documents": shard.document_count(),
                "replica_lag_depth": self.replica_lag_depth(shard.node_id),
            }
            for shard in self.shards
        ]

"""A shard node: one storage server in the database cluster."""

from __future__ import annotations

from typing import Any, Dict

from repro.distdb.collection import Collection
from repro.distdb.core import StoreNode


class ShardNode(StoreNode):
    """One database node holding a subset of every collection."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self._collections: Dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            self._collections[name] = Collection(f"{name}@shard{self.node_id}")
        return self._collections[name]

    def has_collection(self, name: str) -> bool:
        return name in self._collections

    def document_count(self) -> int:
        return sum(len(c) for c in self._collections.values())

    def op_stats(self) -> Dict[str, Any]:
        """Aggregate op counters across this node's collections."""
        totals: Dict[str, Any] = {"bytes_written": 0, "bytes_read": 0}
        for coll in self._collections.values():
            totals["bytes_written"] += coll.bytes_written
            totals["bytes_read"] += coll.bytes_read
            for op, count in coll.ops.items():
                totals[op] = totals.get(op, 0) + count
        return totals

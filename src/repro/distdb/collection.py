"""A single-node document collection with hash indexes.

Documents are plain dicts; inserting copies them and assigns an ``_id``.
Equality lookups on indexed fields use the hash index; everything else scans.
The collection also counts operations and approximate bytes handled, which
the Cbench experiment uses to report where overhead went.

Reads are zero-copy until the end (docs/PERF.md): ``find`` filters the
raw stored documents, memoizes each document's byte estimate per ``_id``
(invalidated on update/delete), sorts and limits *before* copying, and
only the surviving documents are copied out.  Compound ``(field, field)``
hash indexes serve the feature store's per-flow queries, whose filters
pin a pair of fields inside an ``$and``.
"""

# athena-lint: hot-path

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.distdb.query import (
    collect_equality_pins,
    copy_out,
    filter_documents,
    get_path,
    matches_filter,
    validate_filter,
)
from repro.errors import DatabaseError

_id_counter = itertools.count(1)


#: Types whose values cost a flat 9 bytes (type byte + 8-byte payload).
_FIXED_WIDTH = frozenset((int, float, bool, type(None)))
#: key tuple -> 8 (document header) + (len + 2) per key.  Feature
#: documents share a handful of key tuples; the memo is dropped whenever
#: it outgrows that assumption, so arbitrary documents cannot pin memory.
_KEY_OVERHEAD: Dict[Tuple[str, ...], int] = {}
_KEY_OVERHEAD_LIMIT = 4096


def _remember_key_overhead(keys: Tuple[str, ...]) -> int:
    size = 8
    for key in keys:
        size += len(key) + 2
    if len(_KEY_OVERHEAD) >= _KEY_OVERHEAD_LIMIT:
        _KEY_OVERHEAD.clear()
    _KEY_OVERHEAD[keys] = size
    return size


def _value_size(value: Any) -> int:
    """Values the exact-type dispatch in :func:`approx_size` passed on:
    containers, subclasses of the scalar types, arbitrary objects."""
    if isinstance(value, str):
        return len(value) + 5
    if isinstance(value, (int, float)):
        return 9
    if isinstance(value, dict):
        return approx_size(value)
    if isinstance(value, (list, tuple)):
        return 5 + 9 * len(value)
    return 16


def approx_size(doc: Dict[str, Any]) -> int:
    """Rough BSON-like size estimate used for byte accounting.

    Every stored document is sized once per write, so the common values
    dispatch on their exact type and the per-key overhead is looked up
    per key tuple; ``tests/oracles.py`` keeps the plain formula.
    """
    keys = tuple(doc)
    size = _KEY_OVERHEAD.get(keys)
    if size is None:
        size = _remember_key_overhead(keys)
    fixed_width = _FIXED_WIDTH
    for value in doc.values():
        kind = type(value)
        if kind in fixed_width:
            size += 9
        elif kind is str:
            size += len(value) + 5
        else:
            size += _value_size(value)
    return size


def _fill_index(index: Dict[Any, set], keys: List[Any], ids: List[Any]) -> None:
    for key, _id in zip(keys, ids):
        bucket = index.get(key)
        if bucket is None:
            index[key] = {_id}
        else:
            bucket.add(_id)


class Collection:
    """An in-memory document collection."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._docs: Dict[Any, Dict[str, Any]] = {}
        self._indexes: Dict[str, Dict[Any, set]] = {}
        #: (field, ...) tuple -> value tuple -> _ids; maintained alongside
        #: the single-field indexes and consulted first when a filter pins
        #: every field of the compound key.
        self._compound_indexes: Dict[Tuple[str, ...], Dict[Tuple[Any, ...], set]] = {}
        #: _id -> memoized approx_size of the stored document.
        self._size_cache: Dict[Any, int] = {}
        # Operation accounting.
        self.ops = defaultdict(int)
        self.bytes_written = 0
        self.bytes_read = 0

    def __len__(self) -> int:
        return len(self._docs)

    # -- indexing ----------------------------------------------------------

    def create_index(self, *fields: str) -> None:
        """Build (or rebuild) a hash index over ``fields``.

        One field builds the classic single-field index; several build a
        compound index keyed on the tuple of their values.
        """
        if not fields:
            raise DatabaseError("create_index needs at least one field")
        if len(fields) == 1:
            field = fields[0]
            index: Dict[Any, set] = defaultdict(set)
            for _id, doc in self._docs.items():
                index[get_path(doc, field)].add(_id)
            self._indexes[field] = index
            return
        compound: Dict[Tuple[Any, ...], set] = defaultdict(set)
        for _id, doc in self._docs.items():
            compound[tuple(get_path(doc, f) for f in fields)].add(_id)
        self._compound_indexes[tuple(fields)] = compound

    def _index_add(self, doc: Dict[str, Any]) -> None:
        for field, index in self._indexes.items():
            index.setdefault(get_path(doc, field), set()).add(doc["_id"])
        for fields, index in self._compound_indexes.items():
            key = tuple(get_path(doc, f) for f in fields)
            index.setdefault(key, set()).add(doc["_id"])

    def _index_remove(self, doc: Dict[str, Any]) -> None:
        for field, index in self._indexes.items():
            bucket = index.get(get_path(doc, field))
            if bucket is not None:
                bucket.discard(doc["_id"])
        for fields, index in self._compound_indexes.items():
            bucket = index.get(tuple(get_path(doc, f) for f in fields))
            if bucket is not None:
                bucket.discard(doc["_id"])

    # -- writes --------------------------------------------------------------

    def insert_one(self, doc: Dict[str, Any]) -> Any:
        if not isinstance(doc, dict):
            raise DatabaseError("documents must be dicts")
        stored = dict(doc)
        if "_id" not in stored:
            stored["_id"] = next(_id_counter)
        return self.insert_stored(stored)

    def insert_stored(self, stored: Dict[str, Any], size: Optional[int] = None) -> Any:
        """Take ownership of ``stored``, a private dict carrying its ``_id``.

        The cluster router's write path: it has already copied the
        caller's document and assigned the ``_id`` it routed by, so the
        collection stores that dict as is instead of copying it again.
        ``size`` is the document's :func:`approx_size` when the router
        already knows it (a replica copy sizes like its primary).
        """
        _id = stored["_id"]
        if _id in self._docs:
            raise DatabaseError(f"duplicate _id {_id!r}")
        self._docs[_id] = stored
        self._index_add(stored)
        self.ops["insert"] += 1
        if size is None:
            size = approx_size(stored)
        self._size_cache[_id] = size
        self.bytes_written += size
        return _id

    def new_ids(self, batch: List[Dict[str, Any]]) -> List[Any]:
        """The batch's ``_id``s, none repeated or already stored."""
        ids = [stored["_id"] for stored in batch]
        if len(set(ids)) != len(ids) or not self._docs.keys().isdisjoint(ids):
            seen = set(self._docs)
            for _id in ids:
                if _id in seen:
                    raise DatabaseError(f"duplicate _id {_id!r}")
                seen.add(_id)
        return ids

    def insert_stored_many(self, batch: List[Dict[str, Any]], sizes: List[int]) -> None:
        """:meth:`insert_stored` for a batch, bookkeeping hoisted per batch.

        Leaves the collection exactly as inserting the documents one by
        one would (insertion order, index buckets, size cache, counters),
        except that a duplicate ``_id`` rejects the whole batch before any
        document is stored.  ``sizes[i]`` is ``approx_size(batch[i])``.
        """
        ids = self.new_ids(batch)
        self._docs.update(zip(ids, batch))
        self._size_cache.update(zip(ids, sizes))
        columns: Dict[str, List[Any]] = {}

        def column(field: str) -> List[Any]:
            values = columns.get(field)
            if values is None:
                if "." in field:
                    values = [get_path(stored, field) for stored in batch]
                else:
                    values = [stored.get(field) for stored in batch]
                columns[field] = values
            return values

        for field, index in self._indexes.items():
            _fill_index(index, column(field), ids)
        for fields, index in self._compound_indexes.items():
            _fill_index(index, list(zip(*map(column, fields))), ids)
        self.ops["insert"] += len(batch)
        self.bytes_written += sum(sizes)

    def insert_many(self, docs: Iterable[Dict[str, Any]]) -> List[Any]:
        return [self.insert_one(doc) for doc in docs]

    def delete_many(self, filter_: Optional[Dict[str, Any]] = None) -> int:
        validate_filter(filter_)
        doomed = [doc["_id"] for doc in self._candidates(filter_) if matches_filter(doc, filter_)]
        for _id in doomed:
            doc = self._docs.pop(_id)
            self._index_remove(doc)
            self._size_cache.pop(_id, None)
        self.ops["delete"] += 1
        return len(doomed)

    def update_many(
        self, filter_: Optional[Dict[str, Any]], changes: Dict[str, Any]
    ) -> int:
        """Set top-level fields on every matching document."""
        validate_filter(filter_)
        touched = 0
        for doc in list(self._candidates(filter_)):
            if matches_filter(doc, filter_):
                self._index_remove(doc)
                doc.update(changes)
                self._index_add(doc)
                self._size_cache.pop(doc["_id"], None)
                touched += 1
        self.ops["update"] += 1
        return touched

    # -- reads -----------------------------------------------------------------

    def _approx_size_cached(self, doc: Dict[str, Any]) -> int:
        _id = doc["_id"]
        size = self._size_cache.get(_id)
        if size is None:
            size = approx_size(doc)
            self._size_cache[_id] = size
        return size

    def account_read(self, matched: Iterable[Dict[str, Any]]) -> None:
        """Count one read that matched these stored documents (pre-limit)."""
        self.ops["find"] += 1
        self.bytes_read += sum(map(self._approx_size_cached, matched))

    def _candidates(
        self, filter_: Optional[Dict[str, Any]]
    ) -> Iterable[Dict[str, Any]]:
        """Use a hash index when the filter pins an indexed field.

        ``None`` is a legitimate pinned value (the sentinel-based pin
        extraction keeps "pinned to None" distinct from "not pinned");
        pins inside ``$and`` conjuncts count, and compound indexes are
        consulted before single-field ones.
        """
        pins = collect_equality_pins(filter_)
        if pins:
            for fields, index in self._compound_indexes.items():
                if all(f in pins for f in fields):
                    try:
                        ids = index.get(tuple(pins[f] for f in fields), set())
                    except TypeError:  # unhashable pin value
                        continue
                    return [self._docs[_id] for _id in ids if _id in self._docs]
            for field in self._indexes:
                if field in pins:
                    try:
                        ids = self._indexes[field].get(pins[field], set())
                    except TypeError:
                        continue
                    return [self._docs[_id] for _id in ids if _id in self._docs]
        return self._docs.values()

    def raw_candidates(
        self, filter_: Optional[Dict[str, Any]] = None
    ) -> List[Dict[str, Any]]:
        """Raw *stored* documents the filter could match, never copied.

        The columnar frame path (docs/PERF.md) scans these straight into
        numpy columns; callers must treat the dicts as read-only.  Order
        is exactly the order ``find`` evaluates candidates in — index
        buckets first when the filter pins an indexed field, insertion
        order otherwise — which is what keeps frame rows byte-aligned
        with document-path results.
        """
        validate_filter(filter_)
        candidates = self._candidates(filter_)
        return candidates if isinstance(candidates, list) else list(candidates)

    def find(
        self,
        filter_: Optional[Dict[str, Any]] = None,
        sort: Optional[List[Tuple[str, int]]] = None,
        limit: Optional[int] = None,
        projection: Optional[List[str]] = None,
    ) -> List[Dict[str, Any]]:
        """Query the collection. ``sort`` is a list of (field, +1/-1)."""
        validate_filter(filter_)
        matched = list(filter_documents(self._candidates(filter_), filter_))
        self.account_read(matched)
        return copy_out(matched, sort, limit, projection)

    def count(self, filter_: Optional[Dict[str, Any]] = None) -> int:
        validate_filter(filter_)
        self.ops["count"] += 1
        return sum(
            1 for _ in filter_documents(self._candidates(filter_), filter_)
        )

    def all_documents(self) -> List[Dict[str, Any]]:
        """Snapshot of every stored document (aggregation input)."""
        return list(self._docs.values())

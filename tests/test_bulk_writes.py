"""The store's bulk-write path (docs/PERF.md, "Bulk writes").

``insert_many`` must leave either layout exactly as the ``insert_one``
loop it replaced would — placement, per-shard order, indexes, size cache,
byte and op counters, replica copies, lag queues — with one deliberate
difference: a batch that cannot be written in full writes nothing.
"""

from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.feature_manager import FEATURE_COLLECTION, FeatureManager
from repro.distdb import ColumnStoreCluster, DatabaseCluster
from repro.distdb.collection import Collection, approx_size
from repro.errors import AllShardsDownError, DatabaseError, ShardDownError
from repro.telemetry import configure, reset_telemetry

from tests.oracles import list_find, oracle_approx_size


def _documents(replication=2, shard_key="k"):
    store = DatabaseCluster(n_shards=3, shard_key=shard_key, replication=replication)
    store.create_index("c", "a")
    store.create_index("c", "n.x")
    store.create_index("c", "a", "b")
    return store


def _columns(replication=2, shard_key="k"):
    store = ColumnStoreCluster(n_nodes=3, partition_key=shard_key, replication=replication)
    for node in store.shards:  # small segments, so flush points are compared
        for name in ("c", "c__replica"):
            node.family(name).flush_threshold = 4
    return store


LAYOUTS = pytest.mark.parametrize(
    "layout", [_documents, _columns], ids=["documents", "columns"]
)


def _state(store):
    """Everything a write can change, in comparable form (document order
    included); the generation is left out — a batch bumps it once."""
    nodes = []
    if isinstance(store, ColumnStoreCluster):
        for node in store.shards:
            nodes.append(
                {
                    name: (family.sstables, family.memtable, family.writes, family.flushes)
                    for name, family in node.families.items()
                    if len(family)
                }
            )
        return nodes, store.writes, store.op_stats()
    for shard in store.shards:
        nodes.append(
            {
                name: (
                    list(table._docs.items()),
                    table._size_cache,
                    {f: dict(i) for f, i in table._indexes.items()},
                    {f: dict(i) for f, i in table._compound_indexes.items()},
                    dict(table.ops),
                    table.bytes_written,
                )
                for name, table in shard._collections.items()
                if len(table)
            }
        )
    lag = {node_id: list(queue) for node_id, queue in store._replica_lag.items()}
    depths = [store.replica_lag_depth(s.node_id) for s in store.shards]
    return nodes, lag, depths, store.bytes_on_wire, store.router_ops, store.op_stats()


# -- insert_many(batch) == the insert_one loop, on a twin store -----------------

_KEYS = st.one_of(
    st.none(),
    st.integers(0, 5),
    st.sampled_from([1.0, 0.0, -0.0, True, "s1", "s2", (1, 2)]),
    st.lists(st.integers(0, 2), max_size=2),  # unhashable
)
_DOCS = st.lists(
    st.fixed_dictionaries(
        {"v": st.integers(0, 9) | st.floats(allow_nan=False) | st.text("xy", max_size=4)},
        optional={
            "k": _KEYS,
            "a": st.none() | st.integers(0, 2),
            "b": st.sampled_from(["p", "q"]),
            "n": st.fixed_dictionaries({}, optional={"x": st.integers(0, 1)}),
            "tags": st.lists(st.integers(0, 3), max_size=3),
        },
    ),
    max_size=30,
)


@st.composite
def _scenarios(draw):
    docs = draw(_DOCS)
    # Explicit ids start where the store's own cannot reach.
    for i in draw(st.sets(st.integers(0, 29))):
        if i < len(docs):
            docs[i]["_id"] = 1000 + i
    replication = draw(st.integers(1, 3))
    return {
        "docs": docs,
        "prefix": draw(st.integers(0, len(docs))),
        "replication": replication,
        "shard_key": draw(st.sampled_from(["k", "_id"])),
        # With one copy, a dead shard makes some keys unwritable.
        "failed": draw(st.none() | st.integers(0, 2)) if replication > 1 else None,
        "lagging": draw(st.none() | st.integers(0, 2)),
    }


def _twin(layout, scenario):
    store = layout(scenario["replication"], scenario["shard_key"])
    for doc in scenario["docs"][: scenario["prefix"]]:
        store.insert_one("c", doc)
    if scenario["failed"] is not None:
        store.fail_shard(scenario["failed"])
    if scenario["lagging"] is not None and isinstance(store, DatabaseCluster):
        store.begin_replica_lag(scenario["lagging"])
    return store


def _primary_documents(store):
    """The raw stored documents a full scan reads, in scan order."""
    if isinstance(store, ColumnStoreCluster):
        return list(store._scan("c"))
    return [
        doc
        for shard in store.shards
        if shard.up and shard.has_collection("c")
        for doc in shard.collection("c")._docs.values()
    ]


_BY_ID = [("_id", 1)]


class TestBatchEqualsLoop:
    @LAYOUTS
    @given(_scenarios())
    def test_insert_many_equals_insert_one_loop(self, layout, scenario):
        batch, loop = _twin(layout, scenario), _twin(layout, scenario)
        rest = scenario["docs"][scenario["prefix"] :]
        before = [dict(doc) for doc in rest]
        assert batch.insert_many("c", rest) == len(rest)
        for doc in rest:
            loop.insert_one("c", doc)
        assert rest == before  # the caller's documents are left alone
        assert _state(batch) == _state(loop)
        stored = _primary_documents(batch)
        # Frames have no column type for sequence values (a frame.py limit
        # this test is not about), so those examples compare finds only.
        framed = not any(
            isinstance(value, (list, tuple))
            for doc in scenario["docs"]
            for value in doc.values()
        )
        for filter_ in (None, {"a": 1}, {"$and": [{"a": 2}, {"b": "p"}]}, {"n.x": 1}):
            # Index buckets are served in set order, so the unsorted read
            # is held to the twin and the sorted one to the list oracle.
            found = batch.find("c", filter_)
            assert found == loop.find("c", filter_)
            expected = list_find(stored, filter_, sort=_BY_ID)[0]
            assert batch.find("c", filter_, sort=_BY_ID) == expected
            if framed:
                assert batch.find_frame("c", filter_).copy_documents() == found
                frame = batch.find_frame("c", filter_, sort=_BY_ID)
                assert frame.copy_documents() == expected


class _Port(IntEnum):
    ONE = 1


class _Name(str):
    pass


_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=3),
    st.tuples(st.integers(), st.text(max_size=2)),
    st.sampled_from(
        [np.float64(1.5), np.int64(3), np.bool_(True), np.float32(2.0),
         _Port.ONE, _Name("abc"), object(), b"raw", frozenset({1}), 1 + 2j]
    ),
)


class TestApproxSize:
    @given(
        st.recursive(
            st.dictionaries(st.text(max_size=4), _VALUES, max_size=6),
            lambda inner: st.dictionaries(
                st.text(max_size=4), _VALUES | inner, max_size=4
            ),
            max_leaves=12,
        )
    )
    def test_equals_the_plain_formula(self, doc):
        assert approx_size(doc) == oracle_approx_size(doc)

    def test_non_string_keys_fail_as_before(self):
        for size in (approx_size, oracle_approx_size):
            with pytest.raises(TypeError):
                size({1: "a"})


# -- all or nothing -----------------------------------------------------------------


def _untouched(store, action, error):
    before = (_state(store), store.document_count(), store._generation)
    with pytest.raises(error):
        action()
    assert (_state(store), store.document_count(), store._generation) == before


@LAYOUTS
class TestAllOrNothing:
    def test_key_without_live_chain_rejects_the_whole_batch(self, layout):
        store = layout(replication=1)
        homes = {k: store._write_chain(k)[0].node_id for k in range(12)}
        batch = [{"k": k, "a": 1} for k in sorted(homes, key=lambda k: homes[k] == 0)]
        assert homes[batch[0]["k"]] != 0 and homes[batch[-1]["k"]] == 0
        store.insert_many("c", batch)
        store.fail_shard(0)
        _untouched(store, lambda: store.insert_many("c", batch), ShardDownError)
        # The loop this replaces left the documents before the bad key behind.
        with pytest.raises(ShardDownError):
            for doc in batch:
                store.insert_one("c", doc)
        assert store.document_count() > len(batch)

    def test_all_shards_down_is_typed(self, layout):
        store = layout()
        for node in store.shards:
            store.fail_shard(node.node_id)
        _untouched(store, lambda: store.insert_many("c", [{"k": 1}]), AllShardsDownError)

    def test_empty_batch_keeps_the_frame_cache(self, layout):
        store = layout()
        store.insert_many("c", [{"k": 1, "a": 1}])
        store.find_frame("c")
        before = (_state(store), store._generation, dict(store._frame_cache))
        assert store.insert_many("c", []) == 0
        assert (_state(store), store._generation, dict(store._frame_cache)) == before

    def test_one_generation_bump_per_batch(self, layout):
        store = layout()
        before = store._generation
        store.insert_many("c", [{"k": i} for i in range(5)])
        assert store._generation == before + 1


class TestDuplicateIds:
    """The append layout keeps no ``_id`` map, so only the document
    layout rejects duplicates (as its ``insert_one`` does)."""

    def test_duplicate_inside_the_batch(self):
        store = _documents()
        store.insert_many("c", [{"k": 1, "a": 1}])
        batch = [{"_id": "x", "k": 1}, {"k": 2, "a": 2}, {"_id": "x", "k": 1}]
        _untouched(store, lambda: store.insert_many("c", batch), DatabaseError)

    def test_duplicate_of_a_stored_document(self):
        store = _documents()
        store.insert_one("c", {"_id": "x", "k": 1, "a": 1})
        batch = [{"k": 2, "a": 2}, {"_id": "x", "k": 1}]
        _untouched(store, lambda: store.insert_many("c", batch), DatabaseError)

    def test_duplicate_only_among_replica_copies(self):
        # Same _id under two keys homed on different shards: with three
        # copies on three shards the replica tables are where they meet.
        store = _documents(replication=3)
        keys = {store._write_chain(k)[0].node_id: k for k in range(20)}
        batch = [{"_id": "x", "k": keys[0]}, {"_id": "x", "k": keys[1]}]
        _untouched(store, lambda: store.insert_many("c", batch), DatabaseError)

    def test_ids_checked_once_per_table(self, monkeypatch):
        store = _documents(replication=2)
        calls = []
        check = Collection.new_ids

        def counted(table, batch):
            calls.append(id(table))
            return check(table, batch)

        monkeypatch.setattr(Collection, "new_ids", counted)
        store.insert_many("c", [{"k": k, "a": k} for k in range(12)])
        assert len(calls) == len(set(calls)) > 1

    def test_unencodable_document_rejects_the_whole_batch(self):
        store = _documents()
        batch = [{"k": 1}, {"k": 2, (1, 2): "tuple keys have no wire form"}]
        _untouched(store, lambda: store.insert_many("c", batch), TypeError)


# -- publish_documents ------------------------------------------------------------


@pytest.mark.parametrize(
    "database", [lambda: DatabaseCluster(n_shards=3), lambda: ColumnStoreCluster(n_nodes=3)],
    ids=["documents", "columns"],
)
class TestPublishDocuments:
    DOCS = [
        {"feature_scope": "flow", "switch_id": i % 4, "ip_src": f"10.0.0.{i}", "V": float(i)}
        for i in range(20)
    ]

    def test_callers_documents_come_back_unmutated(self, database):
        docs = [dict(doc) for doc in self.DOCS]
        manager = FeatureManager(database())
        assert manager.publish_documents(docs) == len(docs)
        assert docs == self.DOCS  # no _id leaked in
        stored = manager.database.find(FEATURE_COLLECTION, sort=[("V", 1)])
        assert [{k: v for k, v in d.items() if k != "_id"} for d in stored] == docs
        stored[0]["V"] = -1.0
        docs[1]["V"] = -1.0
        again = manager.database.find(FEATURE_COLLECTION, sort=[("V", 1)])
        assert [d["V"] for d in again] == [float(i) for i in range(20)]

    def test_store_features_off_writes_nothing(self, database):
        manager = FeatureManager(database(), store_features=False)
        assert manager.publish_documents(list(self.DOCS)) == len(self.DOCS)
        assert manager.database.document_count() == 0
        assert manager.count_features() == 0


# -- telemetry ----------------------------------------------------------------------


@pytest.fixture
def registry():
    yield configure(enabled=True).registry
    reset_telemetry()


@LAYOUTS
def test_one_batch_is_one_insert_op(registry, layout):
    store = layout()
    docs = [{"k": i, "a": i % 3} for i in range(10)]
    store.insert_many("c", docs)
    ops = registry.get("athena_distdb_ops_total")
    seconds = registry.get("athena_distdb_op_seconds")
    assert ops.labels(op="insert", collection="c").value == 1
    assert seconds.labels(op="insert").count == 1


def test_batch_and_loop_put_the_same_bytes_on_the_wire(registry):
    docs = [{"k": i, "pad": "x" * i, "t": (1, 2)} for i in range(600)]
    batch, loop = _documents(), _documents()
    wire = registry.get("athena_distdb_wire_bytes_total")
    batch.insert_many("c", docs)
    batched = wire.value
    for doc in docs:
        loop.insert_one("c", doc)
    assert batched == wire.value - batched == batch.bytes_on_wire == loop.bytes_on_wire

"""Stateful check of the store's three read paths (ROADMAP 4a).

Writes, deletes, updates, shard failures, recoveries and replica lag are
interleaved with reads on both layouts; after every step ``find``, the
frame path (``find_frame(...).copy_documents()``) and the list oracle
over the store's own visible documents must agree.  Reads vary their
``columns`` hint, filter shape, sort and limit between writes, so a
lazily built column that outlives its generation — or the
narrow-candidate route disagreeing with the cached full-scan route —
shows up as a mismatch.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.distdb import ColumnStoreCluster, DatabaseCluster
from repro.errors import AllShardsDownError, ShardDownError

from tests.oracles import list_find

_DOC = st.fixed_dictionaries(
    {"v": st.integers(0, 9)},
    optional={
        "k": st.none() | st.integers(0, 4),
        "a": st.none() | st.integers(0, 2),
        "b": st.sampled_from(["p", "q"]),
        # One field whose column flips between float64 and object.
        "m": st.none() | st.integers(0, 3) | st.floats(0, 3) | st.sampled_from(["s", True]),
        "n": st.fixed_dictionaries({}, optional={"x": st.integers(0, 1)}),
        "tags": st.lists(st.integers(0, 3), min_size=2, max_size=2),
    },
)
_FILTERS = st.one_of(
    st.none(),
    st.builds(lambda x: {"a": x}, st.none() | st.integers(0, 2)),  # indexed
    st.builds(lambda x, y: {"a": x, "b": y}, st.integers(0, 2), st.sampled_from("pq")),
    st.builds(lambda x: {"k": x}, st.integers(0, 4)),  # pins a shard
    st.builds(lambda x: {"n.x": x}, st.integers(0, 1)),  # dotted, indexed
    st.builds(lambda x: {"v": {"$gte": x}}, st.integers(0, 9)),  # unindexed
    st.builds(lambda x: {"m": x}, st.none() | st.integers(0, 3) | st.just("s")),
    st.builds(lambda x, y: {"$or": [{"a": x}, {"m": {"$lt": y}}]},
              st.integers(0, 2), st.integers(0, 3)),
)
# Sorted reads end on ``_id``, a total order, so the oracle's order is the
# store's; unsorted reads come back in shard and index-bucket order.
_SORTS = st.sampled_from(
    [None, [("_id", -1)], [("v", 1), ("_id", 1)], [("a", -1), ("_id", 1)]]
)
_LIMITS = st.none() | st.integers(0, 6)
_COLUMNS = st.none() | st.lists(
    st.sampled_from(["v", "a", "m", "b", "tags", "zz"]), unique=True
)
_CHANGES = st.one_of(
    st.builds(lambda x: {"a": x}, st.none() | st.integers(0, 2)),
    st.builds(lambda x: {"m": x}, st.sampled_from([None, 1, 2.5, "s"])),
    st.builds(lambda x: {"v": x}, st.integers(0, 9)),
)
_SHARDS = st.integers(0, 2)
#: The reads repeated after every step, whatever the step was.
_STANDING_READS = [
    (None, None, None, None),
    ({"a": 1}, None, None, ("v",)),
    ({"v": {"$gte": 4}}, [("v", 1), ("_id", 1)], 3, ("m", "a")),
]


#: What every run starts from, so that the first reads already have rows
#: on every shard and index buckets of both a minority and a majority.
_SEED_DOCS = [
    {"v": i % 10, "k": i % 5, "a": 1 if i % 2 else (0, 2, None, 0)[i // 2 % 4],
     "b": "pq"[i // 4 % 2], "m": (i % 4) * 0.5, "n": {"x": i % 2}}
    for i in range(16)
]


class _StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = self.build()
        self.store.insert_many("c", _SEED_DOCS)

    def build(self):
        raise NotImplementedError

    def visible(self):
        """The live stored documents, in scan order; a read with any
        filter must see exactly those that match it."""
        raise NotImplementedError

    def _write(self, operation, *args):
        try:
            operation("c", *args)
        except (ShardDownError, AllShardsDownError):
            pass  # refused as a whole: every read below still has to agree

    @rule(doc=_DOC)
    def insert_one(self, doc):
        self._write(self.store.insert_one, doc)

    @rule(docs=st.lists(_DOC, max_size=6))
    def insert_many(self, docs):
        self._write(self.store.insert_many, docs)

    @rule(filter_=_FILTERS, changes=_CHANGES)
    def update_many(self, filter_, changes):
        self._write(self.store.update_many, filter_, changes)

    @rule(filter_=_FILTERS)
    def delete_many(self, filter_):
        self._write(self.store.delete_many, filter_)

    @rule(node=_SHARDS)
    def fail_shard(self, node):
        self.store.fail_shard(node)

    @rule(node=_SHARDS)
    def recover_shard(self, node):
        self.store.recover_shard(node)

    @precondition(lambda self: hasattr(self.store, "begin_replica_lag"))
    @rule(node=_SHARDS)
    def begin_replica_lag(self, node):
        self.store.begin_replica_lag(node)

    @precondition(lambda self: hasattr(self.store, "begin_replica_lag"))
    @rule(node=_SHARDS)
    def end_replica_lag(self, node):
        self.store.end_replica_lag(node)

    @rule(filter_=_FILTERS, sort=_SORTS, limit=_LIMITS, columns=_COLUMNS)
    def read(self, filter_, sort, limit, columns):
        store = self.store
        try:
            found = store.find("c", filter_, sort, limit)
        except (ShardDownError, AllShardsDownError) as error:
            try:
                store.find_frame("c", filter_, sort, limit, columns)
            except type(error):
                return
            raise AssertionError(f"find raised {error!r}, find_frame did not")
        read_before = store.op_stats().get("bytes_read")  # documents layout only
        frame = store.find_frame("c", filter_, sort, limit, columns)
        assert frame.copy_documents() == found
        if columns is not None:  # trimmed to the request on either layout
            assert frame.column_names == list(columns)
        for name in columns or ():
            values = frame.values(name).tolist()
            if frame.values(name).dtype != object:
                missing = frame.is_missing(name).tolist()
                values = [None if gone else v for v, gone in zip(values, missing)]
            assert values == [doc.get(name) for doc in found]
        visible = self.visible()
        expected, bytes_read = list_find(visible, filter_, sort, limit)
        if read_before is not None:
            assert store.op_stats()["bytes_read"] - read_before == bytes_read
        if sort:
            assert found == expected
        else:
            by_id = lambda doc: doc["_id"]
            unlimited = sorted(store.find("c", filter_), key=by_id)
            assert unlimited == sorted(list_find(visible, filter_)[0], key=by_id)
            assert len(found) == len(expected)

    @invariant()
    def standing_reads_agree(self):
        for filter_, sort, limit, columns in _STANDING_READS:
            self.read(filter_, sort, limit, columns)


class DocumentStoreMachine(_StoreMachine):
    def build(self):
        store = DatabaseCluster(n_shards=3, shard_key="k", replication=2)
        store.create_index("c", "a")
        store.create_index("c", "n.x")
        store.create_index("c", "a", "b")
        return store

    def visible(self):
        return [
            doc
            for shard in self.store._live_shards()
            if shard.has_collection("c")
            for doc in shard.collection("c").all_documents()
        ]


class ColumnStoreMachine(_StoreMachine):
    def build(self):
        store = ColumnStoreCluster(n_nodes=3, partition_key="k", replication=2)
        for node in store.shards:  # small segments: reads cross flush points
            for name in ("c", "c__replica"):
                node.family(name).flush_threshold = 4
        return store

    def visible(self):
        return list(self.store._scan("c"))


_SETTINGS = settings(max_examples=40, stateful_step_count=25, deadline=None)
TestDocumentStoreReads = DocumentStoreMachine.TestCase
TestDocumentStoreReads.settings = _SETTINGS
TestColumnStoreReads = ColumnStoreMachine.TestCase
TestColumnStoreReads.settings = _SETTINGS

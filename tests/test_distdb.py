"""Tests for the distributed document store."""

import pytest
from hypothesis import given, strategies as st

from repro.distdb import Collection, DatabaseCluster, aggregate, matches_filter
from repro.distdb.query import equality_value, get_path, validate_filter
from repro.errors import DatabaseError, QueryError

from tests.oracles import list_find


class TestFilterLanguage:
    def test_empty_filter_matches(self):
        assert matches_filter({"a": 1}, None)
        assert matches_filter({"a": 1}, {})

    def test_equality(self):
        assert matches_filter({"a": 1}, {"a": 1})
        assert not matches_filter({"a": 2}, {"a": 1})
        assert not matches_filter({}, {"a": 1})

    def test_comparisons(self):
        doc = {"x": 5}
        assert matches_filter(doc, {"x": {"$gt": 4}})
        assert matches_filter(doc, {"x": {"$gte": 5}})
        assert matches_filter(doc, {"x": {"$lt": 6}})
        assert matches_filter(doc, {"x": {"$lte": 5}})
        assert matches_filter(doc, {"x": {"$ne": 4}})
        assert not matches_filter(doc, {"x": {"$gt": 5}})

    def test_range_conjunction(self):
        assert matches_filter({"x": 5}, {"x": {"$gt": 1, "$lt": 10}})
        assert not matches_filter({"x": 50}, {"x": {"$gt": 1, "$lt": 10}})

    def test_in_nin(self):
        assert matches_filter({"x": 2}, {"x": {"$in": [1, 2]}})
        assert matches_filter({"x": 3}, {"x": {"$nin": [1, 2]}})

    def test_exists(self):
        assert matches_filter({"x": 1}, {"x": {"$exists": True}})
        assert matches_filter({}, {"x": {"$exists": False}})

    def test_logical(self):
        doc = {"a": 1, "b": 2}
        assert matches_filter(doc, {"$and": [{"a": 1}, {"b": 2}]})
        assert matches_filter(doc, {"$or": [{"a": 9}, {"b": 2}]})
        assert matches_filter(doc, {"$nor": [{"a": 9}, {"b": 9}]})
        assert not matches_filter(doc, {"$or": [{"a": 9}, {"b": 9}]})

    def test_not(self):
        assert matches_filter({"x": 5}, {"x": {"$not": {"$gt": 10}}})
        assert not matches_filter({"x": 50}, {"x": {"$not": {"$gt": 10}}})

    def test_dotted_paths(self):
        doc = {"meta": {"app": "fwd"}}
        assert get_path(doc, "meta.app") == "fwd"
        assert matches_filter(doc, {"meta.app": "fwd"})
        assert get_path(doc, "meta.missing.deep") is None

    def test_missing_value_fails_ordered_comparison(self):
        assert not matches_filter({}, {"x": {"$gt": 1}})

    def test_cross_type_comparison_is_false_not_error(self):
        assert not matches_filter({"x": "abc"}, {"x": {"$gt": 1}})

    def test_unknown_operator_raises(self):
        with pytest.raises(QueryError):
            matches_filter({"x": 1}, {"x": {"$bogus": 1}})
        with pytest.raises(QueryError):
            validate_filter({"x": {"$bogus": 1}})
        with pytest.raises(QueryError):
            validate_filter({"$xyz": []})

    def test_equality_value_extraction(self):
        assert equality_value({"k": 5}, "k") == 5
        assert equality_value({"k": {"$eq": 5}}, "k") == 5
        assert equality_value({"k": {"$gt": 5}}, "k") is None
        assert equality_value(None, "k") is None

    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(["a", "b"]),
                st.integers(min_value=0, max_value=10),
                max_size=2,
            ),
            max_size=20,
        ),
        st.integers(min_value=0, max_value=10),
    )
    def test_gt_filter_equals_python_predicate(self, docs, bound):
        """$gt must agree with the equivalent Python comparison."""
        expected = [d for d in docs if "a" in d and d["a"] > bound]
        actual = [d for d in docs if matches_filter(d, {"a": {"$gt": bound}})]
        assert actual == expected


class TestCollection:
    def test_insert_and_find(self):
        coll = Collection("c")
        coll.insert_many([{"a": i} for i in range(5)])
        assert len(coll) == 5
        assert len(coll.find({"a": {"$gte": 3}})) == 2

    def test_insert_assigns_ids(self):
        coll = Collection("c")
        id1 = coll.insert_one({"a": 1})
        id2 = coll.insert_one({"a": 2})
        assert id1 != id2

    def test_duplicate_id_rejected(self):
        coll = Collection("c")
        coll.insert_one({"_id": 1, "a": 1})
        with pytest.raises(DatabaseError):
            coll.insert_one({"_id": 1, "a": 2})

    def test_insert_copies_document(self):
        coll = Collection("c")
        doc = {"a": 1}
        coll.insert_one(doc)
        doc["a"] = 99
        assert coll.find({"a": 1})

    def test_sort_and_limit(self):
        coll = Collection("c")
        coll.insert_many([{"a": i % 3, "b": i} for i in range(9)])
        results = coll.find(sort=[("a", 1), ("b", -1)], limit=3)
        assert [r["a"] for r in results] == [0, 0, 0]
        assert results[0]["b"] == 6

    def test_projection(self):
        coll = Collection("c")
        coll.insert_one({"a": 1, "b": 2, "c": 3})
        result = coll.find(projection=["a"])[0]
        assert "b" not in result
        assert result["a"] == 1

    def test_delete_many(self):
        coll = Collection("c")
        coll.insert_many([{"a": i} for i in range(10)])
        assert coll.delete_many({"a": {"$lt": 4}}) == 4
        assert len(coll) == 6

    def test_update_many(self):
        coll = Collection("c")
        coll.insert_many([{"a": i} for i in range(4)])
        assert coll.update_many({"a": {"$gte": 2}}, {"flag": True}) == 2
        assert coll.count({"flag": True}) == 2

    def test_index_used_and_consistent(self):
        coll = Collection("c")
        coll.insert_many([{"k": i % 5, "v": i} for i in range(100)])
        coll.create_index("k")
        indexed = sorted(d["v"] for d in coll.find({"k": 2}))
        coll2 = Collection("c2")
        coll2.insert_many([{"k": i % 5, "v": i} for i in range(100)])
        unindexed = sorted(d["v"] for d in coll2.find({"k": 2}))
        assert indexed == unindexed

    def test_index_maintained_across_mutations(self):
        coll = Collection("c")
        coll.create_index("k")
        coll.insert_many([{"k": 1, "v": i} for i in range(5)])
        coll.delete_many({"v": {"$lt": 2}})
        coll.update_many({"v": 4}, {"k": 2})
        assert coll.count({"k": 1}) == 2
        assert coll.count({"k": 2}) == 1


class TestAggregation:
    DOCS = [
        {"sw": 1, "pkts": 10},
        {"sw": 1, "pkts": 30},
        {"sw": 2, "pkts": 5},
    ]

    def test_group_sum(self):
        rows = aggregate(self.DOCS, [{"$group": {"_id": "$sw", "total": {"$sum": "$pkts"}}}])
        totals = {row["_id"]: row["total"] for row in rows}
        assert totals == {1: 40, 2: 5}

    def test_group_avg_min_max_count(self):
        rows = aggregate(
            self.DOCS,
            [
                {
                    "$group": {
                        "_id": "$sw",
                        "avg": {"$avg": "$pkts"},
                        "low": {"$min": "$pkts"},
                        "high": {"$max": "$pkts"},
                        "n": {"$count": 1},
                    }
                }
            ],
        )
        by_sw = {row["_id"]: row for row in rows}
        assert by_sw[1]["avg"] == 20
        assert by_sw[1]["low"] == 10
        assert by_sw[1]["high"] == 30
        assert by_sw[1]["n"] == 2

    def test_match_sort_limit_pipeline(self):
        rows = aggregate(
            self.DOCS,
            [
                {"$match": {"pkts": {"$gte": 5}}},
                {"$sort": {"pkts": -1}},
                {"$limit": 2},
            ],
        )
        assert [row["pkts"] for row in rows] == [30, 10]

    def test_compound_group_key(self):
        docs = [{"a": 1, "b": "x", "v": 1}, {"a": 1, "b": "x", "v": 2}]
        rows = aggregate(
            docs,
            [{"$group": {"_id": {"a": "$a", "b": "$b"}, "t": {"$sum": "$v"}}}],
        )
        assert rows[0]["_id"] == {"a": 1, "b": "x"}
        assert rows[0]["t"] == 3

    def test_unknown_stage_rejected(self):
        with pytest.raises(QueryError):
            aggregate([], [{"$teleport": 1}])

    def test_group_requires_id(self):
        with pytest.raises(QueryError):
            aggregate([], [{"$group": {"t": {"$sum": "$x"}}}])


class TestCluster:
    def test_insert_routes_by_shard_key(self):
        cluster = DatabaseCluster(n_shards=3, shard_key="k", replication=1)
        cluster.insert_many("c", [{"k": i} for i in range(60)])
        occupied = [s.document_count() for s in cluster.shards]
        assert sum(occupied) == 60
        assert all(count > 0 for count in occupied)

    def test_find_scatter_gather(self):
        cluster = DatabaseCluster(n_shards=3, replication=1)
        cluster.insert_many("c", [{"v": i} for i in range(20)])
        assert len(cluster.find("c", {"v": {"$gte": 10}})) == 10
        assert cluster.count("c", {"v": {"$lt": 5}}) == 5

    def test_find_sorted_limited_across_shards(self):
        cluster = DatabaseCluster(n_shards=3, replication=1)
        cluster.insert_many("c", [{"v": i} for i in range(20)])
        top = cluster.find("c", sort=[("v", -1)], limit=3)
        assert [d["v"] for d in top] == [19, 18, 17]

    def test_replication_survives_primary_loss(self):
        cluster = DatabaseCluster(n_shards=3, replication=2)
        cluster.insert_many("c", [{"v": i} for i in range(30)])
        primary_total = sum(
            len(s.collection("c")) for s in cluster.shards if s.has_collection("c")
        )
        replica_total = sum(
            len(s.collection("c__replica"))
            for s in cluster.shards
            if s.has_collection("c__replica")
        )
        assert primary_total == 30
        assert replica_total == 30

    def test_failed_shard_raises_when_pinned(self):
        cluster = DatabaseCluster(n_shards=2, shard_key="k", replication=1)
        cluster.insert_one("c", {"k": 1})
        # Find the shard holding k=1 and take it down.
        holder = next(s for s in cluster.shards if s.document_count() == 1)
        cluster.fail_shard(holder.node_id)
        with pytest.raises(DatabaseError):
            cluster.find("c", {"k": {"$eq": 1}})
        cluster.recover_shard(holder.node_id)
        assert len(cluster.find("c", {"k": {"$eq": 1}})) == 1

    def test_aggregate_distributed_group_matches_central(self):
        cluster = DatabaseCluster(n_shards=3, replication=1)
        docs = [{"sw": i % 4, "pkts": i} for i in range(100)]
        cluster.insert_many("c", docs)
        pipeline = [{"$group": {"_id": "$sw", "total": {"$sum": "$pkts"}}}]
        distributed = {r["_id"]: r["total"] for r in cluster.aggregate("c", pipeline)}
        central = {r["_id"]: r["total"] for r in aggregate(docs, pipeline)}
        assert distributed == central

    def test_aggregate_avg_falls_back_to_central(self):
        cluster = DatabaseCluster(n_shards=3, replication=1)
        docs = [{"sw": i % 2, "pkts": i} for i in range(10)]
        cluster.insert_many("c", docs)
        pipeline = [{"$group": {"_id": "$sw", "mean": {"$avg": "$pkts"}}}]
        result = {r["_id"]: r["mean"] for r in cluster.aggregate("c", pipeline)}
        assert result == {0: 4.0, 1: 5.0}

    def test_delete_many_cleans_replicas(self):
        cluster = DatabaseCluster(n_shards=3, replication=2)
        cluster.insert_many("c", [{"v": i} for i in range(10)])
        assert cluster.delete_many("c", None) == 10
        assert cluster.document_count() == 0

    def test_op_stats_accumulate(self):
        cluster = DatabaseCluster(n_shards=2, replication=1)
        cluster.insert_many("c", [{"v": 1}])
        cluster.find("c")
        stats = cluster.op_stats()
        assert stats["insert"] >= 1
        assert stats["router_ops"] >= 2
        assert stats["bytes_written"] > 0


class TestPipelineExtras:
    def test_skip_stage(self):
        docs = [{"v": i} for i in range(10)]
        rows = aggregate(docs, [{"$sort": {"v": 1}}, {"$skip": 7}])
        assert [row["v"] for row in rows] == [7, 8, 9]

    def test_project_stage(self):
        rows = aggregate(
            [{"a": 1, "b": 2, "c": 3}], [{"$project": ["a", "c"]}]
        )
        assert rows == [{"a": 1, "c": 3}]

    def test_group_first_last(self):
        docs = [{"k": 1, "v": 10}, {"k": 1, "v": 20}, {"k": 1, "v": 30}]
        rows = aggregate(
            docs,
            [{"$group": {"_id": "$k", "first": {"$first": "$v"},
                         "last": {"$last": "$v"}}}],
        )
        assert rows[0]["first"] == 10
        assert rows[0]["last"] == 30

    def test_cluster_pipeline_with_sort_and_limit(self):
        cluster = DatabaseCluster(n_shards=3, replication=1)
        cluster.insert_many(
            "c", [{"sw": i % 5, "pkts": i} for i in range(50)]
        )
        rows = cluster.aggregate(
            "c",
            [
                {"$group": {"_id": "$sw", "total": {"$sum": "$pkts"}}},
                {"$sort": {"total": -1}},
                {"$limit": 2},
            ],
        )
        assert len(rows) == 2
        assert rows[0]["total"] >= rows[1]["total"]


class TestIndexAndFastPathRegressions:
    """Regressions from the hot-path overhaul (docs/PERF.md)."""

    @pytest.fixture(params=[True, False], ids=["fast", "slow"])
    def enabled(self, request, monkeypatch):
        """Index-served reads, and the same cases answered by a full scan.

        Every expectation below is index-independent: with ``create_index``
        turned into a no-op ("slow") the scan must give the same answers
        the index buckets give ("fast").
        """
        if not request.param:
            monkeypatch.setattr(Collection, "create_index", lambda self, *f: None)
        return request.param

    def test_indexed_field_pinned_to_none(self, enabled):
        """{'field': None} must probe the index bucket, not full-scan —
        and must return only the documents whose value IS None."""
        coll = Collection("c")
        coll.create_index("owner")
        coll.insert_many(
            [{"owner": None, "n": 1}, {"owner": "a", "n": 2}, {"owner": None, "n": 3}]
        )
        got = coll.find({"owner": None}, sort=[("n", 1)])
        assert [d["n"] for d in got] == [1, 3]
        assert sorted(d["n"] for d in coll.find({"owner": {"$eq": None}})) == [1, 3]

    def test_compound_index_serves_and_filters(self, enabled):
        coll = Collection("features")
        coll.create_index("feature_scope", "switch_id")
        coll.insert_many(
            {
                "feature_scope": ("flow", "port")[i % 2],
                "switch_id": i % 3,
                "n": i,
            }
            for i in range(12)
        )
        got = coll.find(
            {"$and": [{"feature_scope": "flow"}, {"switch_id": 2}]},
            sort=[("n", 1)],
        )
        assert [d["n"] for d in got] == [2, 8]
        # Updates migrate documents between compound buckets.
        coll.update_many({"n": 2}, {"switch_id": 1})
        got = coll.find({"$and": [{"feature_scope": "flow"}, {"switch_id": 2}]})
        assert [d["n"] for d in got] == [8]

    def test_compound_miss_falls_back_to_scan(self, enabled):
        """Pinning only part of the compound key still returns everything."""
        coll = Collection("features")
        coll.create_index("feature_scope", "switch_id")
        coll.insert_many(
            {"feature_scope": "flow", "switch_id": i, "n": i} for i in range(4)
        )
        assert len(coll.find({"feature_scope": "flow"})) == 4

    def test_multi_key_sort_single_pass(self, enabled):
        coll = Collection("c")
        coll.insert_many(
            [
                {"a": 2, "b": 1, "n": 0},
                {"a": 1, "b": 2, "n": 1},
                {"a": 1, "b": 1, "n": 2},
                {"a": None, "b": 9, "n": 3},
            ]
        )
        ascending = coll.find(sort=[("a", 1), ("b", 1)])
        assert [d["n"] for d in ascending] == [2, 1, 0, 3]
        descending = coll.find(sort=[("a", -1), ("b", -1)])
        assert [d["n"] for d in descending] == [3, 0, 1, 2]
        mixed = coll.find(sort=[("a", 1), ("b", -1)])
        assert [d["n"] for d in mixed] == [1, 2, 0, 3]

    def test_bytes_read_identical_across_paths(self):
        """Index-served, sorted and limited reads account the bytes of every
        matched document, exactly as the copy-first oracle does."""
        coll = Collection("c")
        coll.create_index("k")
        coll.insert_many({"k": i % 3, "pad": "x" * i} for i in range(30))
        expected = 0
        for kwargs in (
            {"filter_": {"k": 1}, "sort": [("pad", 1)], "limit": 2},
            {"filter_": {"k": {"$gt": 0}}},
        ):
            coll.find(**kwargs)
            expected += list_find(coll.all_documents(), **kwargs)[1]
        assert coll.bytes_read == expected

    def test_size_memo_invalidated_on_update(self):
        """After update_many grows a doc, bytes_read reflects the new size."""
        from repro.distdb.collection import approx_size

        coll = Collection("c")
        coll.insert_one({"k": 1, "pad": "x"})
        coll.find({"k": 1})
        first = coll.bytes_read
        coll.update_many({"k": 1}, {"pad": "y" * 100})
        coll.find({"k": 1})
        grown = coll.bytes_read - first
        [doc] = coll.find({"k": 1})
        assert grown == approx_size({k: v for k, v in doc.items()})

    def test_find_results_are_copies(self, enabled):
        """Zero-copy reads must still hand out private dicts."""
        coll = Collection("c")
        coll.insert_one({"k": 1})
        got = coll.find({"k": 1})
        got[0]["k"] = 999
        assert coll.find({"k": 1})[0]["k"] == 1

    def test_cluster_create_index_forwards_compound(self, enabled):
        cluster = DatabaseCluster(n_shards=2)
        cluster.create_index("features", "feature_scope", "switch_id")
        for i in range(10):
            cluster.insert_one(
                "features",
                {"_id": i, "feature_scope": "flow", "switch_id": i % 2, "n": i},
            )
        got = cluster.find(
            "features",
            {"$and": [{"feature_scope": "flow"}, {"switch_id": 0}]},
            sort=[("n", 1)],
        )
        assert [d["n"] for d in got] == [0, 2, 4, 6, 8]


class TestPartialShardAvailability:
    """Typed failure and partial-result behaviour under shard loss."""

    def _cluster(self):
        cluster = DatabaseCluster(n_shards=3, shard_key="k", replication=1)
        cluster.insert_many("c", [{"k": i, "v": i} for i in range(60)])
        return cluster

    def test_all_shards_down_raises_typed_error(self):
        from repro.errors import AllShardsDownError

        cluster = self._cluster()
        for shard in cluster.shards:
            cluster.fail_shard(shard.node_id)
        with pytest.raises(AllShardsDownError):
            cluster.find("c", None)
        with pytest.raises(AllShardsDownError):
            cluster.aggregate(
                "c", [{"$group": {"_id": "$k", "t": {"$sum": "$v"}}}]
            )
        # The typed error is still the DatabaseError callers catch.
        assert issubclass(AllShardsDownError, DatabaseError)

    def test_find_returns_surviving_shards_documents(self):
        cluster = self._cluster()
        dead = cluster.shards[0]
        survivors = sum(
            len(s.collection("c"))
            for s in cluster.shards[1:]
            if s.has_collection("c")
        )
        cluster.fail_shard(dead.node_id)
        docs = cluster.find("c", None)
        assert len(docs) == survivors
        cluster.recover_shard(dead.node_id)
        assert len(cluster.find("c", None)) == 60

    def test_aggregate_over_surviving_shards_matches_their_data(self):
        cluster = self._cluster()
        dead = cluster.shards[1]
        alive_total = sum(
            doc["v"]
            for s in cluster.shards
            if s.node_id != dead.node_id and s.has_collection("c")
            for doc in s.collection("c").find(None)
        )
        cluster.fail_shard(dead.node_id)
        rows = cluster.aggregate(
            "c", [{"$group": {"_id": None, "t": {"$sum": "$v"}}}]
        )
        assert rows[0]["t"] == alive_total

    def test_insert_to_dead_home_without_replica_is_typed(self):
        from repro.errors import ShardDownError

        cluster = DatabaseCluster(n_shards=2, shard_key="k", replication=1)
        key = next(
            k for k in range(10) if cluster._shard_for(k).node_id == 0
        )
        cluster.fail_shard(0)
        with pytest.raises(ShardDownError) as excinfo:
            cluster.insert_one("c", {"k": key})
        assert excinfo.value.node_id == 0

    def test_replicated_insert_survives_dead_home(self):
        cluster = DatabaseCluster(n_shards=3, shard_key="k", replication=2)
        key = next(
            k for k in range(10) if cluster._shard_for(k).node_id == 0
        )
        cluster.fail_shard(0)
        cluster.insert_one("c", {"k": key, "v": 1})
        assert cluster.count("c") == 1


# -- reads against the copy-filter-sort-limit-project list oracle --------------

_DOCS = st.lists(
    st.fixed_dictionaries(
        {"s": st.integers(0, 4), "pad": st.text("xy", max_size=6)},
        optional={"k": st.sampled_from([None, 0, 1, 2])},
    ),
    max_size=25,
)
_FILTERS = st.sampled_from(
    [
        None,
        {"k": 1},
        {"k": None},
        {"$and": [{"k": 2}, {"s": 3}]},
        {"s": {"$gt": 1}},
        {"k": {"$in": [0, 2]}, "s": {"$lte": 3}},
        {"$or": [{"k": 0}, {"s": 4}]},
    ]
)
# Total orders only ("_id" last): the oracle walks insertion order while
# an index bucket walks set order, so ties must not decide the result.
_SORTS = st.sampled_from(
    [[("_id", 1)], [("s", 1), ("_id", 1)], [("s", -1), ("k", 1), ("_id", -1)]]
)
_LIMITS = st.sampled_from([None, 0, 1, 3])
_PROJECTIONS = st.sampled_from([None, ["s"], ["k", "pad"]])


class TestFindAgainstListOracle:
    @given(_DOCS, st.sampled_from([(), ("k",), ("k", "s")]), _FILTERS, _SORTS,
           _LIMITS, _PROJECTIONS)
    def test_collection_find_equals_oracle(
        self, docs, index, filter_, sort, limit, projection
    ):
        """Whatever index serves the read, results, order and bytes_read
        equal the oracle's over the same stored documents."""
        coll = Collection("c")
        if index:
            coll.create_index(*index)
        coll.insert_many(docs)
        expected, bytes_read = list_find(
            coll.all_documents(), filter_, sort, limit, projection
        )
        assert coll.find(filter_, sort, limit, projection) == expected
        assert coll.bytes_read == bytes_read
        unsorted = coll.find(filter_)
        assert sorted(unsorted, key=lambda d: d["_id"]) == list_find(
            coll.all_documents(), filter_
        )[0]

    @given(_DOCS, _FILTERS, st.none() | _SORTS, _LIMITS, _PROJECTIONS)
    def test_column_store_find_equals_oracle(
        self, docs, filter_, sort, limit, projection
    ):
        """The append layout's zero-copy read equals the oracle over its
        own scan order, unsorted reads included."""
        from repro.distdb import ColumnStoreCluster

        store = ColumnStoreCluster(n_nodes=3, partition_key="k")
        store.insert_many("c", docs[: len(docs) // 2])
        for doc in docs[len(docs) // 2 :]:
            store.insert_one("c", doc)
        stored = list(store._scan("c"))
        expected, _ = list_find(stored, filter_, sort, limit, projection)
        assert store.find("c", filter_, sort, limit, projection) == expected


# -- the shared store core, through both layouts -------------------------------


def _document_layout(replication):
    return DatabaseCluster(n_shards=3, replication=replication)


def _column_layout(replication):
    from repro.distdb import ColumnStoreCluster

    return ColumnStoreCluster(n_nodes=3, replication=replication)


class TestIdRouting:
    """Documents without a shard-key value are routed by the ``_id`` the
    router assigns, so reads by that ``_id`` land on the same shard."""

    def test_every_returned_id_is_findable(self):
        cluster = DatabaseCluster(n_shards=3, replication=1)
        ids = [cluster.insert_one("c", {"v": i}) for i in range(30)]
        assert len(set(ids)) == 30
        for i, _id in enumerate(ids):
            assert [d["v"] for d in cluster.find("c", {"_id": _id})] == [i]

    def test_placement_depends_only_on_the_documents(self):
        def per_shard():
            cluster = DatabaseCluster(n_shards=3, replication=1)
            cluster.insert_many("c", [{"v": i} for i in range(30)])
            return [shard.document_count() for shard in cluster.shards]

        assert per_shard() == per_shard()

    def test_caller_document_is_left_without_id(self):
        cluster = DatabaseCluster(n_shards=3, replication=2)
        doc = {"v": 1}
        cluster.insert_one("c", doc)
        assert doc == {"v": 1}


@pytest.mark.parametrize("layout", [_document_layout, _column_layout],
                         ids=["documents", "columns"])
class TestOutagesOnEitherLayout:
    """First-live-primary routing and the typed liveness checks are the
    shared core's, so both layouts behave the same through an outage."""

    def test_writes_during_single_node_outage_stay_readable(self, layout):
        store = layout(replication=2)
        store.fail_shard(0)
        ids = [store.insert_one("c", {"switch_id": i, "v": i}) for i in range(30)]
        assert store.count("c") == 30
        assert sorted(d["v"] for d in store.find("c")) == list(range(30))
        store.recover_shard(0)
        assert store.count("c") == 30
        assert {d["_id"] for d in store.find("c")} == set(ids)

    def test_all_down_raises_all_shards_down(self, layout):
        from repro.errors import AllShardsDownError

        store = layout(replication=2)
        store.insert_one("c", {"switch_id": 1})
        for row in store.shard_status():
            store.fail_shard(row["node_id"])
        assert not any(row["up"] for row in store.shard_status())
        for operation in (
            lambda: store.find("c"),
            lambda: store.count("c"),
            lambda: store.insert_one("c", {"switch_id": 1}),
        ):
            with pytest.raises(AllShardsDownError):
                operation()

    def test_dead_home_without_replica_raises_shard_down(self, layout):
        from repro.errors import ShardDownError

        store = layout(replication=1)
        store.fail_shard(0)
        outcomes = []
        for i in range(12):
            try:
                store.insert_one("c", {"_id": i, "switch_id": i})
                outcomes.append(None)
            except ShardDownError as error:
                outcomes.append(error.node_id)
        # Keys homed on the dead node fail typed; the rest are stored.
        assert 0 in outcomes and None in outcomes
        assert set(outcomes) <= {0, None}
        assert store.count("c") == outcomes.count(None)

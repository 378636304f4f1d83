"""Tests for the Cassandra-style column store (the Section VII-C proposal)."""

import pytest

from repro.distdb import ColumnStoreCluster, DatabaseCluster
from repro.distdb.columnstore import _ColumnFamily
from repro.errors import DatabaseError, QueryError


@pytest.fixture
def store():
    return ColumnStoreCluster(n_nodes=3, replication=2)


class TestColumnFamily:
    def test_append_and_scan(self):
        family = _ColumnFamily(flush_threshold=3)
        for i in range(5):
            family.append({"v": i})
        assert sorted(d["v"] for d in family.scan()) == [0, 1, 2, 3, 4]
        assert family.flushes == 1  # one memtable flushed at threshold
        assert len(family) == 5

    def test_compaction_merges_sstables(self):
        family = _ColumnFamily(flush_threshold=2)
        for i in range(8):
            family.append({"v": i})
        assert len(family.sstables) == 4
        merged = family.compact()
        assert merged == 4
        assert len(family.sstables) == 1
        assert len(family) == 8

    def test_rewrite(self):
        family = _ColumnFamily()
        family.append({"v": 1})
        family.rewrite([{"v": 2}])
        assert [d["v"] for d in family.scan()] == [2]


class TestColumnStoreCluster:
    def test_insert_and_find(self, store):
        store.insert_many("f", [{"switch_id": i % 3, "v": i} for i in range(30)])
        assert store.count("f") == 30
        assert len(store.find("f", {"v": {"$gte": 20}})) == 10

    def test_ids_assigned(self, store):
        a = store.insert_one("f", {"v": 1})
        b = store.insert_one("f", {"v": 2})
        assert a != b

    def test_sort_limit_projection(self, store):
        store.insert_many("f", [{"switch_id": 1, "v": i, "w": -i} for i in range(10)])
        top = store.find("f", sort=[("v", -1)], limit=2, projection=["v"])
        assert [d["v"] for d in top] == [9, 8]
        assert "w" not in top[0]

    def test_delete_many(self, store):
        store.insert_many("f", [{"switch_id": 1, "v": i} for i in range(10)])
        assert store.delete_many("f", {"v": {"$lt": 4}}) == 4
        assert store.count("f") == 6

    def test_update_many(self, store):
        store.insert_many("f", [{"switch_id": 1, "v": i} for i in range(4)])
        assert store.update_many("f", {"v": {"$gte": 2}}, {"flag": True}) == 2
        assert store.count("f", {"flag": True}) == 2

    def test_aggregate(self, store):
        store.insert_many(
            "f", [{"switch_id": i % 2, "pkts": i} for i in range(10)]
        )
        rows = store.aggregate(
            "f", [{"$group": {"_id": "$switch_id", "t": {"$sum": "$pkts"}}}]
        )
        assert {r["_id"]: r["t"] for r in rows} == {0: 20, 1: 25}

    def test_create_index_is_noop(self, store):
        store.create_index("f", "switch_id")  # must not raise

    def test_replication_copies_exist(self, store):
        store.insert_many("f", [{"switch_id": i, "v": i} for i in range(20)])
        replicas = sum(
            len(node.family("f__replica"))
            for node in store.shards
            if node.has_family("f__replica")
        )
        assert replicas == 20
        assert store.document_count() == 20  # primaries only

    def test_bad_filter_rejected(self, store):
        with pytest.raises(QueryError):
            store.find("f", {"$weird": 1})

    def test_all_nodes_down(self, store):
        for node in store.shards:
            node.up = False
        with pytest.raises(DatabaseError):
            store.find("f")

    def test_compact_all(self, store):
        for node in store.shards:
            node.family("f").flush_threshold = 2
        store.insert_many("f", [{"switch_id": i, "v": i} for i in range(40)])
        store.compact_all()
        assert store.count("f") == 40

    def test_matches_mongo_semantics(self):
        """Both backends answer identical queries identically."""
        docs = [
            {"switch_id": i % 4, "FLOW_PACKET_COUNT": float(i), "ip_src": f"10.0.0.{i}"}
            for i in range(50)
        ]
        mongo = DatabaseCluster(n_shards=2, replication=1)
        cassandra = ColumnStoreCluster(n_nodes=2, replication=1)
        mongo.insert_many("f", [dict(d) for d in docs])
        cassandra.insert_many("f", [dict(d) for d in docs])
        for filter_ in (
            None,
            {"switch_id": 2},
            {"FLOW_PACKET_COUNT": {"$gt": 25.0}},
            {"$or": [{"switch_id": 0}, {"switch_id": 3}]},
        ):
            assert mongo.count("f", filter_) == cassandra.count("f", filter_)

    def test_feature_manager_accepts_column_store(self):
        from repro.core.feature_manager import FeatureManager
        from repro.core.query import GenerateQuery

        manager = FeatureManager(ColumnStoreCluster(n_nodes=2))
        from repro.core.feature_format import AthenaFeature, FeatureScope

        manager.publish(
            AthenaFeature(
                scope=FeatureScope.FLOW, switch_id=1, instance_id=0,
                timestamp=1.0, fields={"FLOW_PACKET_COUNT": 5.0},
            ).to_document()
        )
        docs = manager.request_features(
            GenerateQuery("FLOW_PACKET_COUNT > 1")
        )
        assert len(docs) == 1


class TestColumnStoreBatchAndFrames:
    """PR-8 additions: batch insert, zero-copy find, cached frames."""

    def test_insert_many_matches_insert_one_loop(self):
        docs = [{"switch_id": i % 4, "v": i} for i in range(40)]
        batch = ColumnStoreCluster(n_nodes=3, replication=2)
        loop = ColumnStoreCluster(n_nodes=3, replication=2)
        assert batch.insert_many("f", [dict(d) for d in docs]) == 40
        for doc in docs:
            loop.insert_one("f", dict(doc))
        # Same docs land on the same nodes in the same scan order, so the
        # memtable/sstable layout and every read are interchangeable.
        for batch_node, loop_node in zip(batch.shards, loop.shards):
            assert [d for d in batch_node.family("f").scan()] == [
                d for d in loop_node.family("f").scan()
            ]
        assert batch.find("f", sort=[("v", 1)]) == loop.find("f", sort=[("v", 1)])
        assert batch.writes == loop.writes == 40

    def test_insert_many_unhashable_partition_key_still_routes(self, store):
        store.insert_many(
            "f", [{"switch_id": [1, 2], "v": 0}, {"switch_id": 1, "v": 1}]
        )
        assert store.count("f") == 2

    def test_zero_copy_find_matches_reference(self, store):
        from tests.oracles import list_find

        store.insert_many(
            "f",
            [{"switch_id": i % 3, "v": i, "w": i % 5} for i in range(25)],
        )
        stored = list(store._scan("f"))
        for kwargs in (
            {"filter_": {"v": {"$gte": 10}}},
            {"filter_": {"w": 2}, "sort": [("v", -1)], "limit": 3},
            {"projection": ["v"], "sort": [("v", 1)]},
        ):
            assert store.find("f", **kwargs) == list_find(stored, **kwargs)[0]

    def test_zero_copy_find_returns_copies(self, store):
        store.insert_one("f", {"switch_id": 1, "v": 1})
        found = store.find("f")[0]
        found["v"] = 99
        assert store.find("f")[0]["v"] == 1

    def test_find_frame_matches_find(self, store):
        store.insert_many(
            "f",
            [{"switch_id": i % 3, "v": float(i), "w": i % 4} for i in range(30)],
        )
        for kwargs in (
            {},
            {"filter_": {"w": {"$in": [0, 2]}}},
            {"filter_": {"v": {"$gte": 5.0}}, "sort": [("v", -1)], "limit": 4},
        ):
            frame = store.find_frame("f", **kwargs)
            assert frame.copy_documents() == store.find("f", **kwargs)

    def test_frame_cache_hits_until_write(self, store):
        store.insert_many("f", [{"switch_id": 1, "v": i} for i in range(5)])
        first = store.frame("f")
        assert store.frame("f") is first  # same generation: cache hit
        store.insert_one("f", {"switch_id": 1, "v": 99})
        fresh = store.frame("f")
        assert fresh is not first
        assert fresh.n_rows == 6

    def test_frame_cache_invalidated_by_delete_and_update(self, store):
        store.insert_many("f", [{"switch_id": 1, "v": i} for i in range(6)])
        before = store.frame("f")
        store.delete_many("f", {"v": {"$lt": 2}})
        assert store.frame("f") is not before
        assert store.find_frame("f").copy_documents() == store.find("f")
        mid = store.frame("f")
        store.update_many("f", {"v": 5}, {"v": 50})
        assert store.frame("f") is not mid
        assert store.find_frame("f", {"v": 50}).n_rows == 1

    def test_restricted_frame_still_filters_on_untrimmed_fields(self, store):
        store.insert_many(
            "f", [{"switch_id": i % 2, "v": float(i), "w": i} for i in range(8)]
        )
        frame = store.find_frame("f", {"w": {"$gte": 4}}, columns=("v",))
        assert frame.values("v").tolist() == [
            doc["v"] for doc in store.find("f", {"w": {"$gte": 4}})
        ]

"""Byte-identical equivalence of the batch path (docs/PERF.md).

Detection jobs fetch numpy frames from the store, never per-document
dicts, and that must be invisible: the same frozen store state run
through batch detection by the default fetch and by the ``documents=``
argument fed from ``RequestFeatures`` (the fetch oracle: copied-out
documents, which the one Preprocessor coerces to a frame itself) has to
produce the same training matrices, the same fitted models, the same
predictions, and the same validation summaries; the Preprocessor's own
matrix is held to ``tests/oracles.oracle_matrix``.  Two anomaly scenarios
check that end to end — a simulated port scan detected with a threshold
model, and the paper's DDoS dataset detected with k-means — plus direct
``find_frame``/``find`` parity on the sharded store, including the
per-generation frame cache's invalidation edges.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.controller import ControllerCluster, ReactiveForwarding
from repro.core import AthenaDeployment, GenerateQuery
from repro.core.algorithm import GenerateAlgorithm
from repro.core.preprocessor import GeneratePreprocessor
from repro.dataplane.topologies import linear_topology
from repro.core.feature_manager import FEATURE_COLLECTION, FeatureManager
from repro.distdb import ColumnStoreCluster, DatabaseCluster
from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec
from repro.workloads.flows import FlowSpec, TrafficSchedule

from tests.oracles import oracle_matrix


@pytest.fixture
def portscan_stack():
    """A finished port-scan simulation: frozen store, live northbound."""
    topo = linear_topology(n_switches=2, hosts_per_switch=2)
    cluster = ControllerCluster(topo.network, n_instances=1)
    cluster.adopt_all()
    cluster.start(poll=False)
    ReactiveForwarding(idle_timeout=30.0).activate(cluster)
    athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
    athena.start()
    schedule = TrafficSchedule(topo.network)
    schedule.prime_arp()
    for port in range(25):
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h3", sport=52000 + port,
                     dport=1000 + port, packet_size=64, rate_pps=4.0,
                     start=1.0 + port * 0.05, duration=1.0)
        )
    schedule.add_flow(
        FlowSpec(src_host="h2", dst_host="h4", sport=33000, dport=80,
                 rate_pps=10.0, start=1.0, duration=6.0, bidirectional=True)
    )
    topo.network.sim.run(until=8.0)
    return topo, athena


def _portscan_detection(athena, from_documents):
    """One batch train+validate pass: fetched by the job itself (frames),
    or fed the documents ``RequestFeatures`` returns (the oracle)."""
    query = GenerateQuery("feature_scope == flow && FLOW_PACKET_COUNT > 0")
    preprocessor = GeneratePreprocessor(
        normalization=None, features=["SRC_FLOW_FANOUT"]
    )
    algorithm = GenerateAlgorithm("threshold", column=0, threshold=10.0)
    nb = athena.northbound
    documents = nb.RequestFeatures(query) if from_documents else None
    model = nb.GenerateDetectionModel(
        query, preprocessor, algorithm, documents=documents
    )
    summary = nb.ValidateFeatures(query, preprocessor, model, documents=documents)
    return model, summary


class TestPortscanColumnarEquivalence:
    def test_snapshots_byte_identical(self, portscan_stack):
        _topo, athena = portscan_stack
        doc_model, doc_summary = _portscan_detection(athena, from_documents=True)
        col_model, col_summary = _portscan_detection(athena, from_documents=False)
        assert doc_model.trained_entries == col_model.trained_entries
        assert doc_summary.to_dict() == col_summary.to_dict()
        assert (
            doc_summary.predictions.tobytes()
            == col_summary.predictions.tobytes()
        )
        # And the detection is real: the scanner is actually flagged.
        assert doc_summary.true_positives + doc_summary.false_positives > 0

    def test_request_frame_matches_request_features(self, portscan_stack):
        _topo, athena = portscan_stack
        query = GenerateQuery("feature_scope == flow && FLOW_PACKET_COUNT > 0")
        documents = athena.northbound.RequestFeatures(query)
        frame = athena.feature_manager.request_frame(query)
        assert frame.copy_documents() == documents
        preprocessor = GeneratePreprocessor(
            normalization=None, features=["SRC_FLOW_FANOUT"]
        )
        expected = oracle_matrix(documents, ["SRC_FLOW_FANOUT"]).tobytes()
        assert expected == preprocessor.fit_transform(frame)[0].tobytes()
        assert expected == preprocessor.fit_transform(documents)[0].tobytes()


class TestDDoSColumnarEquivalence:
    def test_run_batch_byte_identical(self):
        from repro.apps.ddos import DDoSDetectorApp

        generator = DDoSDatasetGenerator(DDoSDatasetSpec(scale=0.0006))
        train, test = generator.train_test_split(generator.generate())

        topo = linear_topology(n_switches=2)
        controller = ControllerCluster(topo.network, n_instances=1)
        controller.adopt_all()
        athena = AthenaDeployment(
            controller,
            database=DatabaseCluster(n_shards=4, shard_key="switch_id"),
        )
        app = DDoSDetectorApp(
            params={"k": 8, "max_iterations": 10, "runs": 1, "seed": 1}
        )
        athena.register_app(app)
        athena.feature_manager.publish_documents(train)

        query = GenerateQuery("feature_scope == flow").time_window(0.0, 1800.0)
        doc_summary = app.run_batch(
            train_documents=athena.northbound.RequestFeatures(query),
            test_documents=test,
        )
        col_summary = app.run_batch(test_documents=test)
        assert np.array_equal(doc_summary.predictions, col_summary.predictions)
        assert doc_summary.to_dict() == col_summary.to_dict()
        assert doc_summary.clusters == col_summary.clusters
        assert doc_summary.total_entries == len(test)


class TestFindFrameParity:
    """find_frame == find on the sharded store, across the cache's edges."""

    FILTER = {"feature_scope": "flow"}

    @pytest.fixture
    def cluster(self):
        cluster = DatabaseCluster(n_shards=4, shard_key="switch_id")
        for i in range(60):
            cluster.insert_one(
                "features",
                {
                    "switch_id": i % 5,
                    "feature_scope": "flow" if i % 3 else "port",
                    "PAIR_FLOW": float(i),
                    "timestamp": float(i % 7),
                },
            )
        return cluster

    def _assert_parity(self, cluster, columns=None, **kwargs):
        frame = cluster.find_frame("features", columns=columns, **kwargs)
        assert frame.copy_documents() == cluster.find("features", **kwargs)

    def test_indexed_filter_preserves_candidate_order(self, cluster):
        # feature_scope is index-served: candidates come back in bucket
        # order, not insertion order, and the frame gather must follow it.
        cluster.create_index("features", "feature_scope")
        self._assert_parity(cluster, filter_=self.FILTER)

    def test_shard_pinned_filter(self, cluster):
        self._assert_parity(
            cluster, filter_={"switch_id": 3, "feature_scope": "flow"}
        )

    def test_sort_limit_columns(self, cluster):
        self._assert_parity(
            cluster,
            filter_=self.FILTER,
            sort=[("PAIR_FLOW", -1)],
            limit=10,
        )
        frame = cluster.find_frame(
            "features", self.FILTER, columns=("PAIR_FLOW",),
            sort=[("timestamp", 1), ("PAIR_FLOW", 1)], limit=7,
        )
        docs = cluster.find(
            "features", self.FILTER,
            sort=[("timestamp", 1), ("PAIR_FLOW", 1)], limit=7,
        )
        assert frame.column_names == ["PAIR_FLOW"]
        assert frame.values("PAIR_FLOW").tolist() == [
            doc["PAIR_FLOW"] for doc in docs
        ]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.insert_one(
                "features",
                {"switch_id": 1, "feature_scope": "flow", "PAIR_FLOW": 999.0},
            ),
            lambda c: c.delete_many("features", {"switch_id": 2}),
            lambda c: c.update_many(
                "features", {"switch_id": 1}, {"$set": {"PAIR_FLOW": -1.0}}
            ),
            lambda c: c.fail_shard(0),
        ],
    )
    def test_cache_invalidated_by_mutation(self, cluster, mutate):
        before = cluster.find_frame("features", self.FILTER).n_rows
        generation = cluster._generation
        mutate(cluster)
        assert cluster._generation != generation
        self._assert_parity(cluster, filter_=self.FILTER)
        after = cluster.find_frame("features", self.FILTER)
        assert after.copy_documents() == cluster.find("features", self.FILTER)
        assert before >= 0  # cache was genuinely consulted before the edit

    def test_recover_shard_also_invalidates(self, cluster):
        cluster.fail_shard(1)
        degraded = cluster.find_frame("features", self.FILTER).copy_documents()
        assert degraded == cluster.find("features", self.FILTER)
        cluster.recover_shard(1)
        self._assert_parity(cluster, filter_=self.FILTER)

    def test_repeated_reads_reuse_cached_frame(self, cluster):
        first = cluster.find_frame("features", self.FILTER)
        cached = cluster._frame_cache["features"]
        second = cluster.find_frame("features", self.FILTER)
        assert cluster._frame_cache["features"] is cached
        assert first.copy_documents() == second.copy_documents()

    def test_cached_columns_are_built_once_per_generation_on_first_use(self, cluster):
        cluster.find_frame("features", self.FILTER, columns=("PAIR_FLOW",))
        full, _rows = cluster._frame_cache["features"]
        assert full.n_rows == 60  # the whole generation, not the 40 matches
        assert full.column_names == ["PAIR_FLOW", "feature_scope"]
        pair_flow = full.values("PAIR_FLOW")
        cluster.find_frame("features", None, sort=[("timestamp", 1)])
        assert full.column_names == ["PAIR_FLOW", "feature_scope", "timestamp"]
        assert full.values("PAIR_FLOW") is pair_flow

    def test_narrow_indexed_read_leaves_the_full_scan_cache_unbuilt(self, cluster):
        cluster.create_index("features", "timestamp")
        narrow = {"timestamp": 2.0}  # an index bucket of 9 of the 60 documents
        self._assert_parity(cluster, filter_=narrow, columns=("PAIR_FLOW",))
        self._assert_parity(cluster, filter_={"switch_id": 3})  # one shard's table
        assert not cluster._frame_cache
        cluster.create_index("features", "feature_scope")
        self._assert_parity(cluster, filter_=self.FILTER)  # 40 of 60: cached route
        assert "features" in cluster._frame_cache
        self._assert_parity(cluster, filter_=narrow, columns=("PAIR_FLOW",))

    @pytest.mark.parametrize(
        "filter_", [None, FILTER, {"timestamp": 2.0}, {"switch_id": 3}]
    )
    def test_bytes_read_counts_the_matched_rows_like_find(self, cluster, filter_):
        from tests.oracles import list_find

        cluster.create_index("features", "timestamp")
        stored = [
            doc
            for shard in cluster.shards
            for doc in shard.collection("features").all_documents()
        ]
        before = cluster.op_stats()["bytes_read"]
        cluster.find_frame("features", filter_, limit=5)  # counted pre-limit
        after_frame = cluster.op_stats()["bytes_read"]
        cluster.find("features", filter_, limit=5)
        after_find = cluster.op_stats()["bytes_read"]
        expected = list_find(stored, filter_)[1]
        assert after_frame - before == after_find - after_frame == expected > 0


class _Payload:
    """A stored value that, unlike a dict, can be weakly referenced."""


@pytest.mark.parametrize("layout", [DatabaseCluster, ColumnStoreCluster])
@pytest.mark.parametrize("drop", ["clear_features", "delete_many"])
def test_dropped_documents_are_not_pinned_by_a_stale_frame(layout, drop):
    """Deleting ends the generation, and the generation's frame goes with
    it at once — not at the next frame read — so the deleted stored
    documents (and all they reference) are garbage straight away."""
    manager = FeatureManager(layout(), store_features=True)
    payload = _Payload()
    alive = weakref.ref(payload)
    manager.publish_documents(
        [{"switch_id": i % 3, "feature_scope": "flow", "payload": payload}
         for i in range(9)]
    )
    del payload
    assert manager.request_frame(GenerateQuery("feature_scope == flow")).n_rows == 9
    assert manager.database._frame_cache
    if drop == "clear_features":
        manager.clear_features()
    else:
        manager.database.delete_many(FEATURE_COLLECTION, {"feature_scope": "flow"})
    assert not manager.database._frame_cache
    gc.collect()
    assert alive() is None

"""Byte-identical equivalence of the columnar batch path (docs/PERF.md).

``ATHENA_COLUMNAR`` swaps the store→model pipeline from per-document
dicts onto numpy frames, and the swap must be invisible: the same frozen
store state run through batch detection with the flag on and off has to
produce the same training matrices, the same fitted models, the same
predictions, and the same validation summaries.  Two anomaly scenarios
check that end to end — a simulated port scan detected with a threshold
model, and the paper's DDoS dataset detected with k-means — plus direct
``find_frame``/``find`` parity on the sharded store, including the
generation-keyed frame cache's invalidation edges.
"""

import numpy as np
import pytest

from repro.controller import ControllerCluster, ReactiveForwarding
from repro.core import AthenaDeployment, GenerateQuery
from repro.core.algorithm import GenerateAlgorithm
from repro.core.preprocessor import GeneratePreprocessor
from repro.dataplane.topologies import linear_topology
from repro.distdb import DatabaseCluster
from repro.config import override
from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec
from repro.workloads.flows import FlowSpec, TrafficSchedule


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


def _portscan_detection(athena, enabled):
    """One batch train+validate pass under the given columnar setting."""
    query = GenerateQuery("feature_scope == flow && FLOW_PACKET_COUNT > 0")
    preprocessor = GeneratePreprocessor(
        normalization=None, features=["SRC_FLOW_FANOUT"]
    )
    algorithm = GenerateAlgorithm("threshold", column=0, threshold=10.0)
    with override(columnar=enabled):
        model = athena.northbound.GenerateDetectionModel(
            query, preprocessor, algorithm
        )
        summary = athena.northbound.ValidateFeatures(query, preprocessor, model)
    return model, summary


class TestPortscanColumnarEquivalence:
    def test_snapshots_byte_identical(self, portscan_stack):
        _topo, athena = portscan_stack
        doc_model, doc_summary = _portscan_detection(athena, enabled=False)
        col_model, col_summary = _portscan_detection(athena, enabled=True)
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
        doc_matrix, _, _ = preprocessor.fit_transform(documents)
        frame_matrix, _, _ = preprocessor.fit_transform_frame(frame)
        assert doc_matrix.tobytes() == frame_matrix.tobytes()


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

        with override(columnar=False):
            doc_summary = app.run_batch(test_documents=test)
        with override(columnar=True):
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

    def _assert_parity(self, cluster, **kwargs):
        frame = cluster.find_frame("features", **kwargs)
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

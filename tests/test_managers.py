"""Tests for the NB managers: feature, detector, reaction, resource, UI."""

import numpy as np
import pytest

from repro.compute import ComputeCluster
from repro.core.algorithm import GenerateAlgorithm
from repro.core.detector_manager import DetectorManager
from repro.core.feature_format import AthenaFeature, FeatureScope
from repro.core.feature_manager import FEATURE_COLLECTION, FeatureManager
from repro.core.preprocessor import GeneratePreprocessor
from repro.core.query import GenerateQuery, Query
from repro.core.results import ValidationSummary
from repro.core.southbound import AttackDetector
from repro.core.ui_manager import UIManager
from repro.distdb import DatabaseCluster
from repro.errors import AthenaError


def _record(switch_id=1, packets=10.0, ip_src="10.0.0.1", label=0, ts=0.0):
    return AthenaFeature(
        scope=FeatureScope.FLOW,
        switch_id=switch_id,
        instance_id=0,
        timestamp=ts,
        indicators={"ip_src": ip_src, "ip_dst": "10.0.0.9"},
        fields={"FLOW_PACKET_COUNT": packets, "PAIR_FLOW": float(label == 0)},
        label=label,
    )


@pytest.fixture
def feature_manager():
    return FeatureManager(DatabaseCluster(n_shards=2, replication=1))


class TestFeatureManager:
    def test_publish_stores(self, feature_manager):
        feature_manager.publish(_record().to_document())
        assert feature_manager.count_features() == 1

    def test_publish_without_store(self):
        manager = FeatureManager(
            DatabaseCluster(n_shards=1, replication=1), store_features=False
        )
        delivered = []
        manager.add_event_handler(Query(), delivered.append)
        manager.publish(_record().to_document())
        assert manager.count_features() == 0
        assert len(delivered) == 1

    def test_request_features_with_constraints(self, feature_manager):
        feature_manager.publish(_record(packets=5.0).to_document())
        feature_manager.publish(_record(packets=50.0).to_document())
        docs = feature_manager.request_features(
            GenerateQuery("FLOW_PACKET_COUNT > 10")
        )
        assert len(docs) == 1
        assert docs[0]["FLOW_PACKET_COUNT"] == 50.0

    def test_request_features_sort_limit(self, feature_manager):
        for packets in (5.0, 50.0, 25.0):
            feature_manager.publish(_record(packets=packets).to_document())
        query = GenerateQuery().sort_by("FLOW_PACKET_COUNT", descending=True).limit(2)
        docs = feature_manager.request_features(query)
        assert [d["FLOW_PACKET_COUNT"] for d in docs] == [50.0, 25.0]

    def test_request_features_aggregation(self, feature_manager):
        feature_manager.publish(_record(switch_id=1, packets=10.0).to_document())
        feature_manager.publish(_record(switch_id=1, packets=20.0).to_document())
        feature_manager.publish(_record(switch_id=2, packets=5.0).to_document())
        query = Query().aggregate(["switch_id"], "FLOW_PACKET_COUNT", "sum")
        rows = feature_manager.request_features(query)
        totals = {row["_id"]: row["FLOW_PACKET_COUNT"] for row in rows}
        assert totals == {1: 30.0, 2: 5.0}

    def test_event_delivery_table(self, feature_manager):
        hits, misses = [], []
        feature_manager.add_event_handler(
            GenerateQuery("switch_id == 1"), hits.append
        )
        feature_manager.add_event_handler(
            GenerateQuery("switch_id == 99"), misses.append
        )
        feature_manager.publish(_record(switch_id=1).to_document())
        assert len(hits) == 1 and misses == []

    def test_remove_event_handler(self, feature_manager):
        seen = []
        handler_id = feature_manager.add_event_handler(Query(), seen.append)
        assert feature_manager.remove_event_handler(handler_id)
        feature_manager.publish(_record().to_document())
        assert seen == []
        assert not feature_manager.remove_event_handler(handler_id)

    def test_clear_features(self, feature_manager):
        feature_manager.publish(_record().to_document())
        assert feature_manager.clear_features() == 1
        assert feature_manager.count_features() == 0

    def test_bulk_documents(self, feature_manager):
        docs = [_record(packets=float(i)).to_document() for i in range(10)]
        assert feature_manager.publish_documents(docs) == 10
        assert feature_manager.count_features() == 10


def _training_docs(n=300, seed=0):
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n):
        malicious = i % 3 == 0
        value = rng.normal(50.0 if malicious else 5.0, 1.0)
        docs.append(
            {
                "feature_scope": "flow",
                "switch_id": 1,
                "timestamp": float(i),
                "ip_src": f"10.0.{i % 5}.{i % 250}",
                "label": int(malicious),
                "FLOW_PACKET_COUNT": float(value),
                "PAIR_FLOW": 0.0 if malicious else 1.0,
            }
        )
    return docs


@pytest.fixture
def detector_manager(feature_manager):
    return DetectorManager(feature_manager, AttackDetector(ComputeCluster(2)))


class TestDetectorManager:
    PRE = dict(
        normalization="minmax",
        marking="label",
        features=["FLOW_PACKET_COUNT", "PAIR_FLOW"],
    )

    def test_kmeans_model_and_validation(self, feature_manager, detector_manager):
        feature_manager.publish_documents(_training_docs())
        query = GenerateQuery("feature_scope == flow")
        pre = GeneratePreprocessor(**self.PRE)
        model = detector_manager.generate_detection_model(
            query, pre, GenerateAlgorithm("kmeans", k=2, seed=1)
        )
        summary = detector_manager.validate_features(query, pre, model)
        assert isinstance(summary, ValidationSummary)
        assert summary.detection_rate > 0.95
        assert summary.false_alarm_rate < 0.05
        assert summary.clusters  # Figure 6 cluster composition present

    def test_classification_model(self, feature_manager, detector_manager):
        feature_manager.publish_documents(_training_docs())
        query = GenerateQuery("feature_scope == flow")
        pre = GeneratePreprocessor(**self.PRE)
        model = detector_manager.generate_detection_model(
            query, pre, GenerateAlgorithm("logistic_regression")
        )
        summary = detector_manager.validate_features(query, pre, model)
        assert summary.accuracy > 0.95
        assert summary.clusters == []  # no cluster report for classifiers

    def test_threshold_has_no_learning_phase(self, feature_manager, detector_manager):
        feature_manager.publish_documents(_training_docs())
        query = GenerateQuery("feature_scope == flow")
        pre = GeneratePreprocessor(**self.PRE)
        model = detector_manager.generate_detection_model(
            query, pre, GenerateAlgorithm("threshold", column=0, threshold=0.5)
        )
        summary = detector_manager.validate_features(query, pre, model)
        assert summary.total_entries == 300

    def test_clustering_requires_marks(self, feature_manager, detector_manager):
        feature_manager.publish_documents(_training_docs())
        query = GenerateQuery("feature_scope == flow")
        pre = GeneratePreprocessor(
            normalization="minmax",
            features=["FLOW_PACKET_COUNT", "PAIR_FLOW"],
        )
        with pytest.raises(AthenaError):
            detector_manager.generate_detection_model(
                query, pre, GenerateAlgorithm("kmeans", k=2)
            )

    def test_classification_requires_marks(self, feature_manager, detector_manager):
        feature_manager.publish_documents(_training_docs())
        query = GenerateQuery("feature_scope == flow")
        pre = GeneratePreprocessor(
            normalization="minmax",
            features=["FLOW_PACKET_COUNT"],
        )
        with pytest.raises(AthenaError):
            detector_manager.generate_detection_model(
                query, pre, GenerateAlgorithm("svm")
            )

    def test_empty_training_set_raises(self, detector_manager):
        with pytest.raises(AthenaError):
            detector_manager.generate_detection_model(
                GenerateQuery("switch_id == 404"),
                GeneratePreprocessor(features=["FLOW_PACKET_COUNT"]),
                GenerateAlgorithm("kmeans", k=2),
            )

    def test_summary_counts_partition(self, feature_manager, detector_manager):
        docs = _training_docs()
        feature_manager.publish_documents(docs)
        query = GenerateQuery("feature_scope == flow")
        pre = GeneratePreprocessor(**self.PRE)
        model = detector_manager.generate_detection_model(
            query, pre, GenerateAlgorithm("kmeans", k=2, seed=1)
        )
        summary = detector_manager.validate_features(query, pre, model)
        assert (
            summary.true_positives + summary.false_negatives
            == summary.malicious_entries
        )
        assert (
            summary.false_positives + summary.true_negatives
            == summary.benign_entries
        )
        assert summary.total_entries == len(docs)

    def test_online_validator(self, feature_manager, detector_manager):
        feature_manager.publish_documents(_training_docs())
        query = GenerateQuery("feature_scope == flow")
        pre = GeneratePreprocessor(**self.PRE)
        model = detector_manager.generate_detection_model(
            query, pre, GenerateAlgorithm("kmeans", k=2, seed=1)
        )
        alerts = []
        validator_id = detector_manager.add_online_validator(
            model, lambda feature, verdict: alerts.append(verdict)
        )
        malicious = _record(packets=50.0, label=1)
        malicious.fields["PAIR_FLOW"] = 0.0
        benign = _record(packets=5.0, label=0)
        assert detector_manager.validate_one(validator_id, malicious)
        assert not detector_manager.validate_one(validator_id, benign)
        stats = detector_manager.validator_stats(validator_id)
        assert stats == {"validated": 2, "alerts": 1}

    def test_distributed_validation_used_for_large_data(self, feature_manager):
        detector = AttackDetector(ComputeCluster(2), distributed_threshold=100)
        manager = DetectorManager(feature_manager, detector)
        feature_manager.publish_documents(_training_docs(n=400))
        query = GenerateQuery("feature_scope == flow")
        pre = GeneratePreprocessor(**self.PRE)
        model = manager.generate_detection_model(
            query, pre, GenerateAlgorithm("kmeans", k=2, seed=1)
        )
        manager.validate_features(query, pre, model)
        assert detector.jobs_distributed >= 1
        assert manager.last_job_report is not None


class TestUIManager:
    def test_show_summary_renders_figure6_layout(self):
        ui = UIManager()
        summary = ValidationSummary(
            total_entries=100, benign_entries=25, malicious_entries=75,
            true_positives=74, false_positives=1, true_negatives=24,
            false_negatives=1, algorithm_description="K-Means",
            cluster_info="K(8), Iterations(20)",
        )
        text = ui.show(summary)
        assert "Detection Rate" in text
        assert "False Alarm Rate" in text
        assert "K(8)" in text

    def test_show_dict_and_list(self):
        ui = UIManager()
        assert "a: 1" in ui.show({"a": 1})
        assert ui.show([1, 2]) == "1\n2"

    def test_alerts_logged(self):
        ui = UIManager()
        ui.alert("app", "something happened")
        assert ui.alerts[0]["source"] == "app"

    def test_timeseries_chart(self):
        ui = UIManager()
        rows = [
            {"timestamp": t, "value": float(t % 5), "switch_id": 6}
            for t in range(20)
        ]
        rows += [
            {"timestamp": t, "value": 2.0, "switch_id": 3} for t in range(20)
        ]
        chart = ui.show_timeseries(rows, group_field="switch_id")
        assert "o = 3" in chart and "x = 6" in chart

    def test_empty_timeseries(self):
        assert UIManager().show_timeseries([]) == "(no data)"


class TestReactionNegativePaths:
    """Mitigation must keep working (or fail typed) around failovers."""

    @pytest.fixture
    def stack(self):
        from repro.controller import ControllerCluster, ReactiveForwarding
        from repro.core import AthenaDeployment
        from repro.dataplane.topologies import linear_topology
        from repro.workloads.flows import TrafficSchedule

        topo = linear_topology(n_switches=2, hosts_per_switch=1)
        cluster = ControllerCluster(topo.network, n_instances=2)
        cluster.adopt_all()
        cluster.start(poll=False)
        ReactiveForwarding().activate(cluster)
        athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
        athena.start(poll=False)
        schedule = TrafficSchedule(topo.network)
        schedule.prime_arp()
        topo.network.sim.run(until=0.5)
        return topo, cluster, athena

    def test_block_enforced_via_new_master_after_failover(self, stack):
        from repro.core.reactions import BlockReaction
        from repro.errors import ReactionError

        topo, cluster, athena = stack
        attacker = topo.network.hosts["h1"]
        cluster.fail_instance(0)
        rules = athena.reaction_manager.enforce(
            BlockReaction(target_ips=[attacker.ip], everywhere=True)
        )
        assert rules == len(topo.network.switches)
        # The promoted instance's reactor did the work, not the dead one.
        assert athena.instances[1].reactor.blocks_installed == rules
        assert athena.instances[0].reactor.blocks_installed == 0

    def test_quarantine_enforced_via_new_master_after_failover(self, stack):
        from repro.core.reactions import QuarantineReaction

        topo, cluster, athena = stack
        attacker = topo.network.hosts["h1"]
        honeypot = topo.network.hosts["h2"]
        cluster.fail_instance(0)
        rules = athena.reaction_manager.enforce(
            QuarantineReaction(
                target_ips=[attacker.ip], honeypot_ip=honeypot.ip
            )
        )
        assert rules >= 1
        assert athena.instances[1].reactor.quarantines_installed == rules

    def test_unadopted_switch_yields_typed_reaction_error(self):
        from repro.controller import ControllerCluster
        from repro.core import AthenaDeployment
        from repro.core.reactions import BlockReaction
        from repro.dataplane.topologies import linear_topology
        from repro.errors import ReactionError

        topo = linear_topology(n_switches=2, hosts_per_switch=1)
        cluster = ControllerCluster(topo.network, n_instances=2)
        # No adoption: no switch has a master, so no reactor covers them.
        cluster.start(poll=False)
        athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
        with pytest.raises(ReactionError, match="no Athena reactor"):
            athena.reaction_manager.enforce(
                BlockReaction(target_ips=["10.0.0.1"], everywhere=True)
            )

    def test_reactor_rejects_non_owned_switch(self, stack):
        from repro.errors import ReactionError

        topo, cluster, athena = stack
        # Instance 1 is pure standby after adopt_all: it owns nothing.
        standby_reactor = athena.instances[1].reactor
        with pytest.raises(ReactionError, match="not managed"):
            standby_reactor.block("10.0.0.1", dpid=1)

    def test_reaction_without_targets_is_typed(self, stack):
        from repro.core.reactions import BlockReaction
        from repro.errors import ReactionError

        topo, cluster, athena = stack
        with pytest.raises(ReactionError, match="no target hosts"):
            athena.reaction_manager.enforce(BlockReaction(target_ips=[]))

"""Live (online) detection end-to-end.

The paper: Athena facilitates "both batch and live mode anomaly detection".
Batch mode is covered by the DDoS scenario tests; these tests drive the
live path: a model is trained in batch, registered with
``AddOnlineValidator``, and validates *streaming* features as the
southbound elements publish them — raising alerts and reactions in real
time.
"""

import hashlib
import json

import pytest

from repro.controller import ControllerCluster, ReactiveForwarding
from repro.core import AthenaDeployment, BlockReaction, GenerateQuery
from repro.core.algorithm import GenerateAlgorithm
from repro.core.preprocessor import GeneratePreprocessor
from repro.dataplane.topologies import enterprise_topology, linear_topology
from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec
from repro.workloads.flows import FlowSpec, TrafficSchedule

#: Features available both in the offline dataset and in live records.
LIVE_FEATURES = [
    "FLOW_PACKET_COUNT",
    "FLOW_BYTE_PER_PACKET",
    "FLOW_PACKET_PER_DURATION",
    "PAIR_FLOW",
]


@pytest.fixture
def stack():
    topo = linear_topology(n_switches=3, hosts_per_switch=2)
    cluster = ControllerCluster(topo.network, n_instances=1)
    cluster.adopt_all()
    cluster.start(poll=False)
    forwarding = ReactiveForwarding()
    forwarding.activate(cluster)
    athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
    athena.start()
    schedule = TrafficSchedule(topo.network)
    schedule.prime_arp()
    topo.network.sim.run(until=0.5)
    return topo, athena, schedule


def _train_model(athena):
    """Batch-train a K-Means model on the synthetic DDoS dataset."""
    documents = DDoSDatasetGenerator(DDoSDatasetSpec(scale=0.0005)).generate()
    preprocessor = GeneratePreprocessor(
        normalization="minmax", marking="label", features=LIVE_FEATURES
    )
    return athena.detector_manager.generate_detection_model(
        GenerateQuery(),
        preprocessor,
        GenerateAlgorithm("kmeans", k=6, max_iterations=15, runs=2, seed=1),
        documents=documents,
    )


class TestOnlineValidation:
    def test_streaming_features_validated(self, stack):
        topo, athena, schedule = stack
        model = _train_model(athena)
        verdicts = []
        validator_id = athena.northbound.add_online_validator(
            model.preprocessor,
            model,
            lambda feature, verdict: verdicts.append((feature, verdict)),
            query=GenerateQuery("feature_scope == flow && FLOW_PACKET_COUNT > 0"),
        )
        # Benign paired traffic.
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h5", rate_pps=10.0,
                     start=1.0, duration=5.0, bidirectional=True)
        )
        topo.network.sim.run(until=8.0)
        assert verdicts, "live features must reach the online validator"
        stats = athena.detector_manager.validator_stats(validator_id)
        assert stats["validated"] == len(verdicts)

    def test_flood_raises_online_alerts(self, stack):
        topo, athena, schedule = stack
        model = _train_model(athena)
        alerts = []

        def handler(feature, verdict):
            if verdict:
                alerts.append(feature)

        athena.northbound.add_online_validator(
            model.preprocessor,
            model,
            handler,
            query=GenerateQuery("feature_scope == flow && FLOW_PACKET_COUNT > 0"),
        )
        # One-way small-packet flood from h2 (unpaired, tiny payload).
        schedule.add_flow(
            FlowSpec(src_host="h2", dst_host="h6", sport=50001, dport=80,
                     packet_size=64, rate_pps=150.0, start=1.0, duration=6.0)
        )
        topo.network.sim.run(until=9.0)
        assert alerts, "the flood must trigger live verdicts"
        sources = {a.indicators.get("ip_src") for a in alerts}
        assert topo.network.hosts["h2"].ip in sources

    def test_online_alert_drives_reaction(self, stack):
        """The full live loop: detect malicious feature -> block source."""
        topo, athena, schedule = stack
        model = _train_model(athena)
        blocked = set()

        def handler(feature, verdict):
            ip = feature.indicators.get("ip_src")
            if verdict and ip and ip not in blocked:
                blocked.add(ip)
                athena.northbound.reactor(
                    None, BlockReaction(target_ips=[ip])
                )

        athena.northbound.add_online_validator(
            model.preprocessor, model, handler,
            query=GenerateQuery("feature_scope == flow && FLOW_PACKET_COUNT > 0"),
        )
        attacker = topo.network.hosts["h2"]
        victim = topo.network.hosts["h6"]
        schedule.add_flow(
            FlowSpec(src_host="h2", dst_host="h6", sport=50002, dport=80,
                     packet_size=64, rate_pps=150.0, start=1.0, duration=10.0)
        )
        topo.network.sim.run(until=14.0)
        assert attacker.ip in blocked
        # Traffic stops after the live block lands.
        delivered_at_block = victim.rx_packets
        schedule.add_flow(
            FlowSpec(src_host="h2", dst_host="h6", sport=50003, dport=80,
                     packet_size=64, rate_pps=100.0,
                     start=topo.network.sim.now, duration=2.0)
        )
        topo.network.sim.run(until=topo.network.sim.now + 4.0)
        assert victim.rx_packets == delivered_at_block

    def test_benign_traffic_not_blocked(self, stack):
        topo, athena, schedule = stack
        model = _train_model(athena)
        malicious_verdicts = []
        athena.northbound.add_online_validator(
            model.preprocessor,
            model,
            lambda feature, verdict: verdicts_append(feature, verdict),
            query=GenerateQuery("feature_scope == flow && FLOW_PACKET_COUNT > 5"),
        )

        def verdicts_append(feature, verdict):
            if verdict:
                malicious_verdicts.append(feature)

        # Normal web-like paired traffic.
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h5", rate_pps=12.0,
                     packet_size=900, start=1.0, duration=6.0,
                     bidirectional=True)
        )
        topo.network.sim.run(until=9.0)
        benign_ip = topo.network.hosts["h1"].ip
        # Cold-start samples (before the reverse rule lands) may look
        # unpaired; the steady state must be clean.
        late_false_alarms = [
            a
            for a in malicious_verdicts
            if a.indicators.get("ip_src") == benign_ip and a.timestamp > 3.0
        ]
        assert late_false_alarms == []


class TestLiveLoopOrder:
    """Pins the live loop's event and feature order on the paper's
    enterprise topology: three controller instances, reactive forwarding,
    benign flows, a flood and the block reaction it triggers.  The
    constants were recorded from this run; a simulator or flow-table
    change that reorders anything moves at least one of them."""

    EVENTS = 9972
    FEATURES = 2890
    DOCUMENTS_SHA256 = "2091839db3990c6925a5dc338ae56a9e788a415e60f0641c26ad19218a4856e1"

    def test_event_count_features_and_stored_documents_are_pinned(self):
        topo = enterprise_topology()
        sim = topo.network.sim
        cluster = ControllerCluster(topo.network, n_instances=3)
        cluster.adopt_domains(topo.domains)
        cluster.start(poll=False)
        ReactiveForwarding().activate(cluster)
        athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
        athena.start()
        schedule = TrafficSchedule(topo.network)
        schedule.prime_arp()
        sim.run(until=0.5)
        hosts = [f"h{i}" for i in range(1, 25)]
        schedule.add_flows(
            [
                FlowSpec(src_host=hosts[i], dst_host=hosts[(i + 7) % 24],
                         sport=20_000 + i, dport=80, rate_pps=10.0,
                         start=1.0 + 0.25 * i, duration=4.0,
                         bidirectional=(i % 2 == 0))
                for i in range(16)
            ]
            + [
                FlowSpec(src_host="h2", dst_host="h23", sport=50_000 + j,
                         dport=80, packet_size=64, rate_pps=150.0, start=3.0,
                         duration=4.0)
                for j in range(4)
            ]
        )
        model = athena.northbound.GenerateDetectionModel(
            GenerateQuery(),
            GeneratePreprocessor(normalization=None, features=["FLOW_PACKET_COUNT"]),
            GenerateAlgorithm("threshold", column=0, threshold=120.0),
            documents=[{"FLOW_PACKET_COUNT": 0.0}],
        )
        blocked = []

        def on_verdict(feature, verdict):
            ip = feature.indicators.get("ip_src")
            if verdict and ip not in blocked:
                blocked.append(ip)
                athena.northbound.Reactor(None, BlockReaction([ip]))

        athena.northbound.AddOnlineValidator(
            model.preprocessor, model, on_verdict,
            query=GenerateQuery("feature_scope == flow && FLOW_PACKET_COUNT > 0"),
        )
        sim.run(until=9.0)
        documents = athena.feature_manager.request_features(GenerateQuery())
        digest = hashlib.sha256(
            json.dumps(documents, sort_keys=True, default=repr).encode()
        ).hexdigest()
        assert blocked == [topo.network.hosts["h2"].ip]
        assert len(documents) == athena.feature_manager.features_published
        assert (sim.processed, athena.feature_manager.features_published, digest) == (
            self.EVENTS, self.FEATURES, self.DOCUMENTS_SHA256
        )

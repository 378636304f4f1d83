"""Tests for the three use-case applications (Section V)."""

import collections

import pytest

from repro.apps.ddos import DDoSDetectorApp, ddos_detector_application
from repro.apps.lfa import LFAMitigationApp
from repro.apps.nae import NAEMonitorApp
from repro.controller import (
    ControllerCluster,
    LoadBalancerApp,
    ReactiveForwarding,
    SecurityRedirectApp,
)
from repro.core import AthenaDeployment
from repro.core.query import GenerateQuery
from repro.dataplane.topologies import linear_topology, nae_topology
from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec
from repro.workloads.flows import FlowSpec, TrafficSchedule
from repro.workloads.lfa import LFATrafficGenerator
from repro.workloads.nae import NAEWorkload


def _deployment(topo, poll_interval=2.0, apps=()):
    cluster = ControllerCluster(topo.network, n_instances=1)
    cluster.adopt_all()
    cluster.start(poll=False)
    fwd = ReactiveForwarding(priority=5)
    fwd.activate(cluster)
    athena = AthenaDeployment(cluster, athena_poll_interval=poll_interval)
    athena.start()
    for app in apps:
        athena.register_app(app)
    return cluster, athena, fwd


@pytest.fixture(scope="module")
def ddos_dataset():
    generator = DDoSDatasetGenerator(DDoSDatasetSpec(scale=0.001))
    documents = generator.generate()
    return generator, documents


class TestDDoSDetector:
    def test_kmeans_matches_paper_band(self, ddos_dataset):
        """Figure 6: DR 99.23%, FAR 4.46% (bands: DR > 98%, FAR < 7%)."""
        generator, documents = ddos_dataset
        train, test = generator.train_test_split(documents)
        topo = linear_topology(n_switches=2)
        cluster, athena, _ = _deployment(topo)
        app = DDoSDetectorApp()
        athena.register_app(app)
        summary = app.run_batch(train_documents=train, test_documents=test)
        assert summary.detection_rate > 0.98
        assert summary.false_alarm_rate < 0.07
        assert summary.clusters
        assert any(c.is_malicious for c in summary.clusters)

    def test_pseudocode_function_runs_via_store(self, ddos_dataset):
        generator, documents = ddos_dataset
        topo = linear_topology(n_switches=2)
        cluster, athena, _ = _deployment(topo)
        athena.feature_manager.publish_documents(documents)
        model, summary = ddos_detector_application(
            athena.northbound,
            params={"k": 8, "max_iterations": 10, "runs": 2, "seed": 1},
        )
        assert summary.total_entries > 0
        assert summary.detection_rate > 0.9
        rendered = athena.ui_manager.last_output()
        assert "Detection Rate" in rendered

    def test_logistic_variant(self, ddos_dataset):
        generator, documents = ddos_dataset
        train, test = generator.train_test_split(documents)
        topo = linear_topology(n_switches=2)
        cluster, athena, _ = _deployment(topo)
        app = DDoSDetectorApp(algorithm="logistic_regression", params={})
        athena.register_app(app)
        summary = app.run_batch(train_documents=train, test_documents=test)
        assert summary.detection_rate > 0.98

    def test_mitigation_blocks_flagged_sources(self, ddos_dataset):
        generator, documents = ddos_dataset
        train, test = generator.train_test_split(documents)
        topo = linear_topology(n_switches=2)
        cluster, athena, _ = _deployment(topo)
        app = DDoSDetectorApp(block_on_detection=True)
        athena.register_app(app)
        app.run_batch(train_documents=train, test_documents=test)
        assert app.blocked_sources
        assert athena.reaction_manager.reactions_enforced == 1
        # Store-fed, the Application 1 deployment: the job reads the same
        # test rows itself and must block what the fed run blocked.
        cluster, athena, _ = _deployment(linear_topology(n_switches=2))
        athena.feature_manager.publish_documents(test)
        stored = DDoSDetectorApp(block_on_detection=True)
        athena.register_app(stored)
        stored.run_batch(train_documents=train)
        assert athena.reaction_manager.reactions_enforced == 1
        assert sorted(stored.blocked_sources) == sorted(app.blocked_sources)


class TestLFAMitigation:
    def _run(self, auto_block=True):
        topo = linear_topology(n_switches=3, hosts_per_switch=3)
        cluster, athena, _ = _deployment(topo, poll_interval=1.0)
        app = LFAMitigationApp(
            congestion_threshold_bytes=50_000.0, auto_block=auto_block
        )
        athena.register_app(app)
        net = topo.network
        schedule = TrafficSchedule(net)
        schedule.prime_arp()
        bots = ["h1", "h2", "h3"]
        decoys = ["h7", "h8"]
        generator = LFATrafficGenerator(
            bot_hosts=bots,
            decoy_hosts=decoys,
            benign_pairs=[("h4", "h9"), ("h5", "h9")],
            bot_rate_pps=120.0,
            flows_per_bot=2,
            attack_start=3.0,
            attack_duration=8.0,
        )
        schedule.add_flows(generator.all_flows(benign_duration=12.0))
        net.sim.run(until=16.0)
        return topo, athena, app

    def test_congestion_detected(self):
        topo, athena, app = self._run()
        assert app.congested_ports
        # Congestion appears only after the attack starts at t=3.
        assert min(t for _, _, t in app.congested_ports) >= 3.0

    def test_bots_identified_not_benign(self):
        topo, athena, app = self._run()
        bot_ips = {topo.network.hosts[h].ip for h in ("h1", "h2", "h3")}
        benign_ips = {topo.network.hosts[h].ip for h in ("h4", "h5")}
        flagged = set(app.suspicious_sources)
        assert flagged & bot_ips
        assert not (flagged & benign_ips)

    def test_auto_block_installs_rules(self):
        topo, athena, app = self._run(auto_block=True)
        assert athena.reaction_manager.reactions_enforced >= 1

    def test_manual_block(self):
        topo, athena, app = self._run(auto_block=False)
        assert athena.reaction_manager.reactions_enforced == 0
        if app.suspicious_sources:
            assert app.block_suspicious() >= 1

    def test_detach_removes_handlers(self):
        topo, athena, app = self._run()
        before = athena.feature_manager.delivery_table_size()
        athena.unregister_app(app.name)
        assert athena.feature_manager.delivery_table_size() == before - 2


class TestNAEMonitor:
    @pytest.fixture(scope="class")
    def nae_run(self):
        topo = nae_topology(clients_per_edge=2)
        net = topo.network
        cluster = ControllerCluster(net, n_instances=1)
        cluster.adopt_all()
        cluster.start(poll=False)
        ftp_ip = net.hosts["ftp"].ip
        web_ip = net.hosts["web"].ip
        fwd = ReactiveForwarding(priority=5)
        fwd.activate(cluster)
        lb = LoadBalancerApp(
            server_ips=[ftp_ip, web_ip], priority=20, idle_timeout=4.0
        )
        lb.activate(cluster)
        security = SecurityRedirectApp(
            security_dpid=6, inspect_ports=(20, 21), priority=30
        )
        athena = AthenaDeployment(cluster, athena_poll_interval=2.5)
        athena.start()
        monitor = NAEMonitorApp(monitored_switches=(6, 3), bucket_seconds=5.0)
        athena.register_app(monitor)
        schedule = TrafficSchedule(net)
        schedule.prime_arp(0.0)
        workload = NAEWorkload(
            clients=topo.roles["clients"], duration=60.0, ftp_fraction=0.8
        )
        schedule.add_flows(workload.flows())
        net.sim.at(30.0, lambda: security.activate(cluster))
        net.sim.run(until=70.0)
        return topo, athena, monitor, lb, security

    def test_balanced_before_security_app(self, nae_run):
        _topo, _athena, monitor, _lb, _security = nae_run
        pre = collections.defaultdict(float)
        for row in monitor.results_rows():
            if row["timestamp"] < 30.0:
                pre[row["switch_id"]] += row["value"]
        share = max(pre.values()) / sum(pre.values())
        assert share < 0.6  # evenly distributed under the LB

    def test_security_app_takes_over(self, nae_run):
        """Figure 9: after activation the security path dominates."""
        _topo, _athena, monitor, _lb, _security = nae_run
        post = collections.defaultdict(float)
        for row in monitor.results_rows():
            if row["timestamp"] >= 35.0:
                post[row["switch_id"]] += row["value"]
        assert post[6] > post[3] * 3

    def test_violations_only_after_activation(self, nae_run):
        _topo, _athena, monitor, _lb, _security = nae_run
        assert monitor.violations
        assert min(v["time"] for v in monitor.violations) >= 30.0

    def test_alerts_raised_to_ui(self, nae_run):
        _topo, athena, monitor, _lb, _security = nae_run
        assert any(
            alert["source"] == monitor.name for alert in athena.ui_manager.alerts
        )

    def test_chart_renders(self, nae_run):
        _topo, _athena, monitor, _lb, _security = nae_run
        chart = monitor.show()
        assert "t=[" in chart

    def test_rules_attributed_per_app(self, nae_run):
        topo, athena, _monitor, lb, security = nae_run
        docs = athena.northbound.request_features(
            GenerateQuery("feature_scope == flow && switch_id == 6")
        )
        app_ids = {d.get("app_id") for d in docs}
        assert "security" in app_ids

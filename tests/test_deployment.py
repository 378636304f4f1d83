"""Integration tests: the full Athena deployment over live topologies."""

import functools
import hashlib
import json

import pytest

from repro.controller import ControllerCluster, ReactiveForwarding
from repro.core import (
    AthenaDeployment,
    BlockReaction,
    GenerateQuery,
    QuarantineReaction,
)
from repro.core.feature_format import FeatureScope
from repro.dataplane.packet import Packet, flow_headers
from repro.dataplane.topologies import enterprise_topology, linear_topology
from repro.errors import AthenaError, ReactionError
from repro.workloads.flows import FlowSpec, TrafficSchedule
from repro.workloads.lfa import LFATrafficGenerator


def _stack(topo=None, n_instances=1, poll_interval=2.0):
    topo = topo or linear_topology(n_switches=3, hosts_per_switch=1)
    cluster = ControllerCluster(topo.network, n_instances=n_instances)
    if n_instances > 1:
        cluster.adopt_domains(topo.domains)
    else:
        cluster.adopt_all()
    cluster.start(poll=False)
    fwd = ReactiveForwarding()
    fwd.activate(cluster)
    athena = AthenaDeployment(cluster, athena_poll_interval=poll_interval)
    athena.start()
    schedule = TrafficSchedule(topo.network)
    schedule.prime_arp()
    topo.network.sim.run(until=0.5)
    return topo, cluster, athena, schedule


class TestFeaturePipeline:
    def test_live_traffic_produces_features(self):
        topo, cluster, athena, schedule = _stack()
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h3", rate_pps=20.0,
                     start=1.0, duration=5.0, bidirectional=True)
        )
        topo.network.sim.run(until=10.0)
        assert athena.total_features_generated() > 0
        docs = athena.northbound.request_features(
            GenerateQuery("feature_scope == flow && FLOW_PACKET_COUNT > 0")
        )
        assert docs
        assert any(d.get("PAIR_FLOW") == 1.0 for d in docs)

    def test_all_scopes_generated(self):
        topo, cluster, athena, schedule = _stack()
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h3", rate_pps=10.0,
                     start=1.0, duration=4.0)
        )
        topo.network.sim.run(until=8.0)
        for scope in ("flow", "port", "switch", "control"):
            docs = athena.northbound.request_features(
                GenerateQuery(f"feature_scope == {scope}")
            )
            assert docs, scope

    def test_flow_origin_attribution(self):
        topo, cluster, athena, schedule = _stack()
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h3", rate_pps=10.0,
                     start=1.0, duration=4.0)
        )
        topo.network.sim.run(until=6.0)
        docs = athena.northbound.request_features(
            GenerateQuery("feature_scope == flow && FLOW_PACKET_COUNT > 0")
        )
        assert any(d.get("app_id") == "fwd" for d in docs)

    def test_distributed_instances_cover_their_domains(self):
        topo = enterprise_topology(hosts_per_edge=1)
        topo_, cluster, athena, schedule = _stack(topo=topo, n_instances=3)
        topo.network.sim.run(until=5.0)
        assert len(athena.instances) == 3
        per_instance = {
            i.instance_id: i.generator.features_generated
            for i in athena.instances
        }
        assert all(count > 0 for count in per_instance.values())
        # Feature records carry the generating instance id.
        docs = athena.northbound.request_features(GenerateQuery())
        instance_ids = {d.get("instance_id") for d in docs}
        assert instance_ids == {0, 1, 2}

    def test_event_handler_receives_live_features(self):
        topo, cluster, athena, schedule = _stack()
        received = []
        athena.northbound.add_event_handler(
            GenerateQuery("feature_scope == flow"), received.append
        )
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h3", rate_pps=10.0,
                     start=1.0, duration=3.0)
        )
        topo.network.sim.run(until=6.0)
        assert received
        assert all(r.scope == FeatureScope.FLOW for r in received)


@functools.lru_cache(maxsize=None)
def _quarantine_run():
    """h1 -> h3 traffic, then h1 quarantined toward the h2 honeypot and a
    second flow; returns the network and h3's / h2's rx count at the
    quarantine.  Cached: the tests below only read it."""
    topo, cluster, athena, schedule = _stack()
    net = topo.network
    h1, h2, h3 = net.hosts["h1"], net.hosts["h2"], net.hosts["h3"]
    schedule.add_flow(
        FlowSpec(src_host="h1", dst_host="h3", rate_pps=10.0,
                 start=1.0, duration=2.0)
    )
    net.sim.run(until=4.0)
    # Quarantine h1: its traffic to h3 is rewritten toward h2 (honeypot).
    athena.northbound.reactor(
        None, QuarantineReaction(target_ips=[h1.ip], honeypot_ip=h2.ip)
    )
    before_h3, before_h2 = h3.rx_packets, h2.rx_packets
    schedule.add_flow(
        FlowSpec(src_host="h1", dst_host="h3", sport=42000,
                 rate_pps=20.0, start=net.sim.now, duration=2.0)
    )
    net.sim.run(until=net.sim.now + 4.0)
    return net, before_h3, before_h2


def _lfa_run():
    """A small link-flooding run: three bots and two benign senders on s1
    toward s3, with the s2-s3 link cut to 2 Mbit/s so it drops packets."""
    topo = linear_topology(n_switches=3, hosts_per_switch=3)
    cluster = ControllerCluster(topo.network, n_instances=1)
    cluster.adopt_all()
    cluster.start(poll=False)
    ReactiveForwarding().activate(cluster)
    AthenaDeployment(cluster, athena_poll_interval=1.0).start()
    net = topo.network
    net.link_between(2, 3).capacity_bps = 2e6
    schedule = TrafficSchedule(net)
    schedule.prime_arp()
    generator = LFATrafficGenerator(
        bot_hosts=["h1", "h2", "h3"],
        decoy_hosts=["h7", "h8"],
        benign_pairs=[("h4", "h9"), ("h5", "h9")],
        bot_rate_pps=120.0,
        flows_per_bot=2,
        attack_start=1.0,
        attack_duration=2.0,
    )
    schedule.add_flows(generator.all_flows(benign_duration=3.0))
    net.sim.run(until=4.0)
    return net


def _forwarding_digest(net):
    """sha256 over every port's counters, every link's per-direction
    totals and drops, every host's rx and the events fired."""
    state = {
        "ports": [
            [dpid, port_no, vars(port.counters)]
            for dpid, switch in sorted(net.switches.items())
            for port_no, port in sorted(switch.ports.items())
        ],
        "links": [
            [str(link), link.total_packets, link.total_bytes, link.dropped_packets]
            for link in net.links
        ],
        "hosts": [[name, h.rx_packets, h.rx_bytes] for name, h in sorted(net.hosts.items())],
        "events": net.sim.processed,
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


class TestForwardingPins:
    """What the data plane forwarded, dropped and counted, pinned.  The
    constants were recorded before forwarding stopped copying packets
    per hop; a reordered event or a changed drop moves them."""

    QUARANTINE_SHA256 = "a154745f9a903430639338d76b1ed3d86bfa7fe14ba3fd2ee8a8206defa3a493"
    LFA_SHA256 = "6ee6be4343da866ac8447a2d5544d21a8de3986682766aab8da0f0b3e520f87f"

    def test_quarantine_redirect_counters_are_pinned(self):
        net, _before_h3, _before_h2 = _quarantine_run()
        assert _forwarding_digest(net) == self.QUARANTINE_SHA256

    def test_lfa_link_capacity_drops_are_pinned(self):
        net = _lfa_run()
        assert sum(sum(link.dropped_packets.values()) for link in net.links) > 0
        assert _forwarding_digest(net) == self.LFA_SHA256


class TestReactions:
    def test_block_stops_traffic(self):
        topo, cluster, athena, schedule = _stack()
        net = topo.network
        h1, h3 = net.hosts["h1"], net.hosts["h3"]
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h3", rate_pps=20.0,
                     start=1.0, duration=2.0)
        )
        net.sim.run(until=4.0)
        delivered_before = h3.rx_packets
        assert delivered_before > 0
        athena.northbound.reactor(None, BlockReaction(target_ips=[h1.ip]))
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h3", sport=41000,
                     rate_pps=20.0, start=net.sim.now, duration=2.0)
        )
        net.sim.run(until=net.sim.now + 4.0)
        assert h3.rx_packets == delivered_before

    def test_block_unblock(self):
        topo, cluster, athena, schedule = _stack()
        net = topo.network
        h1 = net.hosts["h1"]
        athena.northbound.reactor(None, BlockReaction(target_ips=[h1.ip]))
        reactor = athena.instances[0].reactor
        assert reactor.undo(h1.ip) >= 1

    def test_quarantine_redirects_to_honeypot(self):
        net, before_h3, before_h2 = _quarantine_run()
        assert net.hosts["h3"].rx_packets == before_h3
        assert net.hosts["h2"].rx_packets > before_h2

    def test_reactor_via_query_targets(self):
        topo, cluster, athena, schedule = _stack()
        net = topo.network
        h1 = net.hosts["h1"]
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h3", rate_pps=30.0,
                     start=1.0, duration=3.0)
        )
        net.sim.run(until=6.0)
        rules = athena.northbound.reactor(
            GenerateQuery(f"ip_src == {h1.ip} && FLOW_PACKET_COUNT > 10"),
            BlockReaction(),
        )
        assert rules >= 1

    def test_reaction_without_targets_raises(self):
        topo, cluster, athena, schedule = _stack()
        with pytest.raises(ReactionError):
            athena.northbound.reactor(
                GenerateQuery("ip_src == 99.99.99.99"), BlockReaction()
            )

    def test_quarantine_requires_honeypot(self):
        topo, cluster, athena, schedule = _stack()
        h1 = topo.network.hosts["h1"]
        with pytest.raises(ReactionError):
            athena.northbound.reactor(
                None, QuarantineReaction(target_ips=[h1.ip])
            )


class TestResourceControls:
    def test_manage_monitor_global_off(self):
        topo, cluster, athena, schedule = _stack()
        athena.northbound.manage_monitor(None, False)
        before = athena.total_features_generated()
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h3", rate_pps=10.0,
                     start=topo.network.sim.now, duration=3.0)
        )
        topo.network.sim.run(until=topo.network.sim.now + 5.0)
        assert athena.total_features_generated() == before
        athena.northbound.manage_monitor(None, True)
        topo.network.sim.run(until=topo.network.sim.now + 5.0)
        assert athena.total_features_generated() > before

    def test_manage_monitor_per_switch(self):
        topo, cluster, athena, schedule = _stack()
        athena.northbound.manage_monitor(
            GenerateQuery("switch_id == 2"), False
        )
        athena.feature_manager.clear_features()
        topo.network.sim.run(until=topo.network.sim.now + 5.0)
        switch_ids = {
            d["switch_id"]
            for d in athena.northbound.request_features(GenerateQuery())
        }
        assert 2 not in switch_ids
        assert switch_ids  # other switches still monitored

    def test_fidelity_snapshot(self):
        topo, cluster, athena, schedule = _stack()
        snapshot = athena.resource_manager.current_fidelity()
        assert snapshot["monitored_switches"] == "all"

    def test_app_registration_lifecycle(self):
        topo, cluster, athena, schedule = _stack()
        from repro.core.app import AthenaApp

        class Dummy(AthenaApp):
            attached = False

            def on_attach(self):
                Dummy.attached = True

        app = Dummy("dummy")
        athena.register_app(app)
        assert Dummy.attached
        assert athena.app("dummy") is app
        with pytest.raises(AthenaError):
            athena.register_app(Dummy("dummy"))
        athena.unregister_app("dummy")
        assert athena.app("dummy") is None

    def test_summary_counts(self):
        topo, cluster, athena, schedule = _stack()
        topo.network.sim.run(until=5.0)
        summary = athena.summary()
        assert summary["athena_instances"] == 1
        assert summary["features_generated"] >= summary["features_published"] > 0


class TestSwitchScopePolling:
    def test_table_and_aggregate_features_generated_live(self):
        """Athena's own polling covers all four stats families, so the
        TABLE_* / AGG_* switch-scope features exist without manual polls."""
        topo, cluster, athena, schedule = _stack()
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h3", rate_pps=10.0,
                     start=1.0, duration=4.0)
        )
        topo.network.sim.run(until=8.0)
        docs = athena.northbound.request_features(
            GenerateQuery("feature_scope == switch && TABLE_ACTIVE_COUNT >= 0")
        )
        assert any("TABLE_ACTIVE_COUNT" in d for d in docs)
        agg_docs = athena.northbound.request_features(
            GenerateQuery("feature_scope == switch && AGG_FLOW_COUNT > 0")
        )
        assert agg_docs

    def test_switch_scope_polls_suppressed_with_fidelity(self):
        topo, cluster, athena, schedule = _stack()
        from repro.core.feature_format import FeatureScope

        athena.resource_manager.set_scopes(
            {FeatureScope.FLOW, FeatureScope.PORT}
        )
        topo.network.sim.run(until=6.0)
        docs = athena.northbound.request_features(
            GenerateQuery("feature_scope == switch")
        )
        assert docs == []

"""Tests for the network container, links, hosts and topologies."""

import pytest

from repro.dataplane.link import Link, LinkEndpoint
from repro.dataplane.network import Network
from repro.dataplane.packet import Packet, flow_headers, reverse_headers
from repro.dataplane.topologies import (
    braga_topology,
    enterprise_topology,
    linear_topology,
    nae_topology,
    tree_topology,
)
from repro.errors import DataPlaneError
from repro.openflow import ActionOutput, ActionSetIpDst, FlowMod, FlowModCommand, Match
from repro.types import OFPP_FLOOD, ConnectPoint


class TestPacketHelpers:
    def test_flow_headers_tcp(self):
        headers = flow_headers(
            "aa:00:00:00:00:01", "aa:00:00:00:00:02",
            "10.0.0.1", "10.0.0.2", proto=6, sport=1234, dport=80,
        )
        assert headers["tcp_dst"] == 80
        assert headers["eth_type"] == 0x0800

    def test_flow_headers_icmp_has_no_ports(self):
        headers = flow_headers(
            "aa:00:00:00:00:01", "aa:00:00:00:00:02",
            "10.0.0.1", "10.0.0.2", proto=1,
        )
        assert "tcp_src" not in headers

    def test_reverse_headers(self):
        headers = flow_headers(
            "aa:00:00:00:00:01", "aa:00:00:00:00:02",
            "10.0.0.1", "10.0.0.2", proto=6, sport=1234, dport=80,
        )
        reverse = reverse_headers(headers)
        assert reverse["ip_src"] == "10.0.0.2"
        assert reverse["tcp_src"] == 80
        assert reverse["tcp_dst"] == 1234
        assert reverse_headers(reverse) == headers

    def test_rewritten_preserves_identity(self):
        packet = Packet(headers={"ip_dst": "1.1.1.1"}, size=10)
        rewritten = packet.rewritten(ip_dst="2.2.2.2")
        assert rewritten.headers["ip_dst"] == "2.2.2.2"
        assert rewritten.packet_id == packet.packet_id
        assert packet.headers["ip_dst"] == "1.1.1.1"


class TestLink:
    def test_capacity_enforced_per_window(self):
        link = Link(LinkEndpoint(host_name="a"), LinkEndpoint(host_name="b"),
                    capacity_bps=8000.0, window=1.0)  # 1000 bytes/window
        assert link.try_send(0, 600, now=0.0)
        assert not link.try_send(0, 600, now=0.5)
        assert link.dropped_packets[0] == 1
        # New window resets the budget.
        assert link.try_send(0, 600, now=1.2)

    def test_directions_independent(self):
        link = Link(LinkEndpoint(host_name="a"), LinkEndpoint(host_name="b"),
                    capacity_bps=8000.0)
        assert link.try_send(0, 900, now=0.0)
        assert link.try_send(1, 900, now=0.0)

    def test_utilization(self):
        link = Link(LinkEndpoint(host_name="a"), LinkEndpoint(host_name="b"),
                    capacity_bps=8000.0, window=1.0)
        link.try_send(0, 500, now=0.0)
        assert link.utilization(0, now=0.1) == 0.5

    def test_down_link_drops(self):
        link = Link(LinkEndpoint(host_name="a"), LinkEndpoint(host_name="b"))
        link.up = False
        assert not link.try_send(0, 10, now=0.0)


class TestNetworkWiring:
    def test_duplicate_switch_rejected(self):
        net = Network()
        net.add_switch(1)
        with pytest.raises(DataPlaneError):
            net.add_switch(1)

    def test_duplicate_port_wiring_rejected(self):
        net = Network()
        net.add_switch(1)
        net.add_switch(2)
        net.add_switch(3)
        net.add_link(1, 1, 2, 1)
        with pytest.raises(DataPlaneError):
            net.add_link(1, 1, 3, 1)

    def test_link_between(self):
        net = Network()
        net.add_switch(1)
        net.add_switch(2)
        link = net.add_link(1, 1, 2, 1)
        assert net.link_between(1, 2) is link
        assert net.link_between(2, 1) is link
        assert net.link_between(1, 3) is None

    def test_host_attachment(self):
        net = Network()
        net.add_switch(1)
        host = net.add_host("h1", "aa:00:00:00:00:01", "10.0.0.1")
        net.attach_host("h1", 1, 100)
        assert host.attachment == ConnectPoint(1, 100)
        assert net.host_by_ip("10.0.0.1") is host
        assert net.host_by_mac("aa:00:00:00:00:01") is host

    def test_packet_crosses_link(self):
        net = Network()
        a = net.add_switch(1)
        b = net.add_switch(2)
        net.add_link(1, 2, 2, 1)
        net.add_host("h1", "aa:00:00:00:00:01", "10.0.0.1")
        net.attach_host("h1", 1, 100)
        net.add_host("h2", "aa:00:00:00:00:02", "10.0.0.2")
        net.attach_host("h2", 2, 100)
        # Static rules: forward everything toward h2.
        a.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match(),
                    actions=[ActionOutput(port=2)]),
            now=0.0,
        )
        b.handle_message(
            FlowMod(command=FlowModCommand.ADD, match=Match(),
                    actions=[ActionOutput(port=100)]),
            now=0.0,
        )
        net.inject_from_host(
            "h1",
            Packet(headers=flow_headers(
                "aa:00:00:00:00:01", "aa:00:00:00:00:02",
                "10.0.0.1", "10.0.0.2",
            ), size=500),
        )
        net.sim.run()
        assert net.hosts["h2"].rx_packets == 1
        assert net.hosts["h2"].rx_bytes == 500
        assert a.packets_forwarded == 1

    def test_host_receive_callback(self):
        net = Network()
        net.add_switch(1)
        host = net.add_host("h1", "aa:00:00:00:00:01", "10.0.0.1")
        received = []
        host.on_receive = lambda packet, now: received.append(packet)
        host.deliver(Packet(headers={}, size=1), now=0.0)
        assert len(received) == 1


def _chain(n_switches, hosts):
    """Switches 1..n in a row (port 2 -> next switch's port 1) and hosts
    as ``name -> (dpid, port)``; every delivery is logged per host."""
    net = Network()
    for dpid in range(1, n_switches + 1):
        net.add_switch(dpid)
    for dpid in range(1, n_switches):
        net.add_link(dpid, 2, dpid + 1, 1)
    received = {}
    for i, (name, (dpid, port)) in enumerate(hosts.items(), start=1):
        host = net.add_host(name, f"aa:00:00:00:00:{i:02x}", f"10.0.0.{i}")
        net.attach_host(name, dpid, port)
        received[name] = []
        host.on_receive = lambda packet, now, log=received[name]: log.append(packet)
    return net, received


def _install(switch, actions):
    switch.handle_message(
        FlowMod(command=FlowModCommand.ADD, match=Match(), actions=actions), now=0.0
    )


class TestForwardingContract:
    """A forwarded packet is never copied or mutated: the object injected
    at a host is the object every receiving host gets; only a set-field
    action makes a (rewritten) copy."""

    @staticmethod
    def _packet():
        return Packet(headers=flow_headers(
            "aa:00:00:00:00:01", "aa:00:00:00:00:02", "10.0.0.1", "10.0.0.2",
            sport=1234, dport=80,
        ), size=500)

    def test_same_packet_and_headers_across_three_switches(self):
        net, received = _chain(3, {"h1": (1, 100), "h2": (3, 100)})
        for dpid, out in ((1, 2), (2, 2), (3, 100)):
            _install(net.switches[dpid], [ActionOutput(port=out)])
        packet = self._packet()
        headers, before = packet.headers, dict(packet.headers)
        net.inject_from_host("h1", packet)
        net.sim.run()
        assert len(received["h2"]) == 1
        assert received["h2"][0] is packet
        assert packet.headers is headers and headers == before
        assert [s.packets_forwarded for s in net.switches.values()] == [1, 1, 1]

    def test_flood_delivers_the_one_object_everywhere(self):
        net, received = _chain(
            2, {"h1": (1, 100), "h2": (1, 101), "h3": (2, 100), "h4": (2, 101)}
        )
        for switch in net.switches.values():
            _install(switch, [ActionOutput(port=OFPP_FLOOD)])
        packet = self._packet()
        before = dict(packet.headers)
        net.inject_from_host("h1", packet)
        net.sim.run()
        assert received["h1"] == []
        for name in ("h2", "h3", "h4"):
            assert len(received[name]) == 1 and received[name][0] is packet
        assert packet.headers == before

    def test_set_field_delivers_a_rewritten_copy(self):
        net, received = _chain(2, {"h1": (1, 100), "h2": (2, 100)})
        _install(net.switches[1], [ActionSetIpDst(ip="10.0.0.9"), ActionOutput(port=2)])
        _install(net.switches[2], [ActionOutput(port=100)])
        packet = self._packet()
        before = dict(packet.headers)
        net.inject_from_host("h1", packet)
        net.sim.run()
        (delivered,) = received["h2"]
        assert delivered is not packet
        assert delivered.headers == {**before, "ip_dst": "10.0.0.9"}
        assert delivered.packet_id == packet.packet_id
        assert packet.headers == before


class TestTopologies:
    def test_linear(self):
        topo = linear_topology(n_switches=4, hosts_per_switch=2)
        assert topo.network.summary()["switches"] == 4
        assert topo.network.summary()["hosts"] == 8
        assert len(list(topo.network.switch_links())) == 3

    def test_tree(self):
        topo = tree_topology(depth=2, fanout=2, hosts_per_leaf=1)
        assert topo.network.summary()["switches"] == 7
        assert topo.network.summary()["hosts"] == 4

    def test_braga_matches_table6(self):
        topo = braga_topology()
        summary = topo.network.summary()
        assert summary["switches"] == 3
        assert len(list(topo.network.switch_links())) == 3
        assert len(topo.domains) == 1

    def test_enterprise_matches_table6(self):
        """Table VI: 18 switches (6 physical + 12 OVS), 48 links, 3 domains."""
        topo = enterprise_topology()
        summary = topo.network.summary()
        assert summary["switches"] == 18
        assert summary["physical_switches"] == 6
        assert summary["ovs_switches"] == 12
        assert len(list(topo.network.switch_links())) == 48
        assert len(topo.domains) == 3
        assert sorted(d for domain in topo.domains for d in domain) == sorted(
            topo.network.switches
        )

    def test_nae_topology_paths(self):
        """Figure 8: both the S3 and S6->S7 paths reach the server switch."""
        topo = nae_topology()
        net = topo.network
        assert len(net.switches) == 7
        assert "ftp" in net.hosts and "web" in net.hosts
        links = {frozenset((a.dpid, b.dpid)) for a, b in net.switch_links()}
        assert frozenset((2, 3)) in links
        assert frozenset((2, 6)) in links
        assert frozenset((6, 7)) in links
        assert frozenset((3, 4)) in links
        assert frozenset((7, 4)) in links

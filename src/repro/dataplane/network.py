"""The network container: switches, hosts, links, and packet transport.

:class:`Network` owns the wiring between data-plane elements and the
discrete-event simulator.  It is deliberately controller-agnostic — the
controller package attaches itself through each switch's control channel —
so the same topology can run bare (Cbench), under a single controller, or
under a three-instance cluster as in the paper's evaluation.

Wiring resolves every switch port once to its egress: the link, the
direction it is crossed in and the receiver at the far end.  A hop is
then one dict lookup, the link's capacity accounting and one scheduled
delivery of the *same* :class:`Packet` — nothing is copied per hop.
Each host likewise gets one injector into its edge switch, so a
scheduled injection holds only its packet.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.dataplane.host import Host
from repro.dataplane.link import Link, LinkEndpoint
from repro.dataplane.packet import Packet
from repro.dataplane.switch import OpenFlowSwitch
from repro.errors import DataPlaneError
from repro.simkernel import Simulator
from repro.types import ConnectPoint, Dpid

#: Delivers a packet at the far end of a link, at the current sim time.
Receiver = Callable[[Packet], None]


class Network:
    """A data plane: topology plus packet transport over the simulator."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim or Simulator()
        self.switches: Dict[Dpid, OpenFlowSwitch] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: List[Link] = []
        #: (dpid, port) -> where a packet leaving that port goes: the
        #: link, its direction (0 is a→b) and the receiver at the far end.
        self._egress: Dict[Tuple[Dpid, int], Tuple[Link, int, Receiver]] = {}
        #: host name -> its link and the injector into its edge switch.
        self._ingress: Dict[str, Tuple[Link, Receiver]] = {}
        self._expiry_interval = 1.0
        self._expiry_armed = False

    # -- construction ------------------------------------------------------

    def add_switch(
        self, dpid: Dpid, name: str = "", hardware: bool = False
    ) -> OpenFlowSwitch:
        if dpid in self.switches:
            raise DataPlaneError(f"duplicate dpid {dpid}")
        switch = OpenFlowSwitch(dpid=dpid, name=name, hardware=hardware)
        switch.attach_transmitter(self._transmit)
        self.switches[dpid] = switch
        return switch

    def add_host(self, name: str, mac: str, ip: str) -> Host:
        if name in self.hosts:
            raise DataPlaneError(f"duplicate host {name}")
        host = Host(name=name, mac=mac, ip=ip)
        self.hosts[name] = host
        return host

    def add_link(
        self,
        a_dpid: Dpid,
        a_port: int,
        b_dpid: Dpid,
        b_port: int,
        latency: float = 0.001,
        capacity_bps: float = 1e9,
    ) -> Link:
        """Wire two switches together, creating the ports as needed."""
        point_a = ConnectPoint(a_dpid, a_port)
        point_b = ConnectPoint(b_dpid, b_port)
        for point in (point_a, point_b):
            self._claim_port(point, capacity_bps)
        link = Link(
            LinkEndpoint(switch_point=point_a),
            LinkEndpoint(switch_point=point_b),
            latency=latency,
            capacity_bps=capacity_bps,
        )
        self.links.append(link)
        self._egress[(a_dpid, a_port)] = (link, 0, self._switch_receiver(b_dpid, b_port))
        self._egress[(b_dpid, b_port)] = (link, 1, self._switch_receiver(a_dpid, a_port))
        return link

    def attach_host(
        self,
        host_name: str,
        dpid: Dpid,
        port: int,
        latency: float = 0.0005,
        capacity_bps: float = 1e9,
    ) -> Link:
        """Wire a host to an edge switch port."""
        host = self._require_host(host_name)
        point = ConnectPoint(dpid, port)
        self._claim_port(point, capacity_bps)
        link = Link(
            LinkEndpoint(switch_point=point),
            LinkEndpoint(host_name=host_name),
            latency=latency,
            capacity_bps=capacity_bps,
        )
        self.links.append(link)
        clock = self.sim.clock
        self._egress[(dpid, port)] = (link, 0, lambda packet: host.deliver(packet, clock.now))
        switch = self.switches[dpid]

        def inject(packet: Packet) -> None:
            now = clock.now
            if link.try_send(1, packet.size, now):
                switch.receive_packet(port, packet, now)

        self._ingress[host_name] = (link, inject)
        host.attachment = point
        return link

    def _claim_port(self, point: ConnectPoint, speed_bps: float) -> None:
        """Refuse an already wired point; give its switch the port if new."""
        if (point.dpid, point.port) in self._egress:
            raise DataPlaneError(f"port already wired: {point}")
        switch = self._require_switch(point.dpid)
        if point.port not in switch.ports:
            switch.add_port(point.port, speed_bps=speed_bps)

    def _switch_receiver(self, dpid: Dpid, port: int) -> Receiver:
        switch, clock = self.switches[dpid], self.sim.clock
        return lambda packet: switch.receive_packet(port, packet, clock.now)

    def _require_switch(self, dpid: Dpid) -> OpenFlowSwitch:
        switch = self.switches.get(dpid)
        if switch is None:
            raise DataPlaneError(f"unknown switch dpid {dpid}")
        return switch

    def _require_host(self, name: str) -> Host:
        host = self.hosts.get(name)
        if host is None:
            raise DataPlaneError(f"unknown host {name}")
        return host

    # -- transport ---------------------------------------------------------

    def _transmit(self, switch: OpenFlowSwitch, port_no: int, packet: Packet, now: float) -> None:
        """Carry a packet leaving ``switch``:``port_no`` across its link."""
        egress = self._egress.get((switch.dpid, port_no))
        if egress is None:
            # Unwired port: packet leaves the modeled network.
            return
        link, direction, receive = egress
        if link.try_send(direction, packet.size, now):
            self.sim.after(link.latency, partial(receive, packet))

    def inject_from_host(self, host_name: str, packet: Packet, when: Optional[float] = None) -> None:
        """Schedule a packet originating at a host."""
        self._require_host(host_name)
        ingress = self._ingress.get(host_name)
        if ingress is None:
            raise DataPlaneError(f"host {host_name} is not attached")
        link, inject = ingress
        when = self.sim.now if when is None else when
        self.sim.at(when + link.latency, partial(inject, packet))

    # -- housekeeping --------------------------------------------------------

    def start_flow_expiry(self, interval: float = 1.0) -> None:
        """Arm the periodic flow-timeout scan on every switch."""
        if self._expiry_armed:
            return
        self._expiry_armed = True
        self._expiry_interval = interval

        def sweep() -> None:
            for switch in self.switches.values():
                switch.expire_flows(self.sim.now)

        self.sim.every(interval, sweep)

    # -- introspection -------------------------------------------------------

    def link_between(self, a: Dpid, b: Dpid) -> Optional[Link]:
        """The switch-switch link between two dpids, if wired."""
        for link in self.links:
            ends = link.endpoints()
            if any(e.is_host for e in ends):
                continue
            dpids = {ends[0].switch_point.dpid, ends[1].switch_point.dpid}
            if dpids == {a, b}:
                return link
        return None

    def switch_links(self) -> Iterable[Tuple[ConnectPoint, ConnectPoint]]:
        """All switch-to-switch adjacencies as connect-point pairs."""
        for link in self.links:
            a, b = link.endpoints()
            if not a.is_host and not b.is_host:
                yield (a.switch_point, b.switch_point)

    def host_by_ip(self, ip: str) -> Optional[Host]:
        for host in self.hosts.values():
            if host.ip == ip:
                return host
        return None

    def host_by_mac(self, mac: str) -> Optional[Host]:
        for host in self.hosts.values():
            if host.mac == mac:
                return host
        return None

    def summary(self) -> Dict[str, int]:
        """Row used by the Table VI environment bench."""
        return {
            "switches": len(self.switches),
            "physical_switches": sum(
                1 for s in self.switches.values() if s.hardware
            ),
            "ovs_switches": sum(
                1 for s in self.switches.values() if not s.hardware
            ),
            "links": len(self.links),
            "hosts": len(self.hosts),
        }

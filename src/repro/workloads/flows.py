"""Flow specifications and live traffic scheduling.

A :class:`FlowSpec` describes one unidirectional flow (endpoints, protocol,
rate, size, lifetime); a :class:`TrafficSchedule` turns a set of specs into
packet injections on the data-plane simulator, which is how the NAE and LFA
scenarios and the integration tests generate load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dataplane.host import Host
from repro.dataplane.network import Network
from repro.dataplane.packet import Packet, flow_headers
from repro.errors import ReproError
from repro.openflow.constants import IPPROTO_TCP


@dataclass
class FlowSpec:
    """One unidirectional flow to inject."""

    src_host: str
    dst_host: str
    proto: int = IPPROTO_TCP
    sport: int = 40000
    dport: int = 80
    packet_size: int = 1000
    rate_pps: float = 10.0
    start: float = 0.0
    duration: float = 5.0
    #: Generate the reverse (ack-style) flow as well.
    bidirectional: bool = False
    reverse_packet_size: int = 80
    reverse_rate_pps: Optional[float] = None
    #: TCP-like rate growth: the instantaneous rate multiplies by
    #: ``(1 + rate_growth)`` each second, modelling a sender expanding into
    #: available bandwidth (bots in the LFA scenario keep this at 0).
    rate_growth: float = 0.0


class TrafficSchedule:
    """Schedules FlowSpec packet injections onto a network's simulator."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.packets_scheduled = 0

    def _host(self, name: str) -> Host:
        host = self.network.hosts.get(name)
        if host is None:
            raise ReproError(f"unknown host {name!r}")
        return host

    def prime_arp(self, when: float = 0.0) -> int:
        """Broadcast one discovery packet per host so locations are learned."""
        count = 0
        hosts = list(self.network.hosts.values())
        for host in hosts:
            packet = Packet(
                headers=flow_headers(
                    host.mac,
                    "ff:ff:ff:ff:ff:ff",
                    host.ip,
                    "255.255.255.255",
                    proto=17,
                    sport=68,
                    dport=67,
                ),
                size=64,
            )
            self.network.inject_from_host(host.name, packet, when=when)
            count += 1
        self.packets_scheduled += count
        return count

    def add_flow(self, spec: FlowSpec) -> int:
        """Schedule every packet of one flow; returns packets scheduled.

        All packets of one direction share one header dict: forwarding
        never mutates a packet, so nothing needs its own copy.
        """
        src = self._host(spec.src_host)
        dst = self._host(spec.dst_host)
        headers = flow_headers(
            src.mac, dst.mac, src.ip, dst.ip,
            proto=spec.proto, sport=spec.sport, dport=spec.dport,
        )
        send_times = self._packet_times(spec)
        for when in send_times:
            self.network.inject_from_host(
                spec.src_host,
                Packet(headers=headers, size=spec.packet_size),
                when=when,
            )
        scheduled = len(send_times)
        if spec.bidirectional:
            reverse_spec = FlowSpec(
                src_host=spec.dst_host,
                dst_host=spec.src_host,
                rate_pps=spec.reverse_rate_pps or spec.rate_pps,
                start=spec.start + 0.05,
                duration=spec.duration,
                rate_growth=spec.rate_growth,
            )
            reverse = flow_headers(
                dst.mac, src.mac, dst.ip, src.ip,
                proto=spec.proto, sport=spec.dport, dport=spec.sport,
            )
            reverse_times = self._packet_times(reverse_spec)
            for when in reverse_times:
                self.network.inject_from_host(
                    spec.dst_host,
                    Packet(headers=reverse, size=spec.reverse_packet_size),
                    when=when,
                )
            scheduled += len(reverse_times)
        self.packets_scheduled += scheduled
        return scheduled

    @staticmethod
    def _packet_times(spec: FlowSpec) -> List[float]:
        """Send times for one flow, honouring ``rate_growth`` per second."""
        if spec.rate_growth <= 0:
            n_packets = max(1, int(round(spec.rate_pps * spec.duration)))
            interval = spec.duration / n_packets
            return [spec.start + i * interval for i in range(n_packets)]
        times: List[float] = []
        elapsed = 0.0
        while elapsed < spec.duration:
            second = int(elapsed)
            rate = spec.rate_pps * (1.0 + spec.rate_growth) ** second
            elapsed += 1.0 / rate
            if elapsed < spec.duration:
                times.append(spec.start + elapsed)
        return times or [spec.start]

    def add_flows(self, specs: List[FlowSpec]) -> int:
        return sum(self.add_flow(spec) for spec in specs)

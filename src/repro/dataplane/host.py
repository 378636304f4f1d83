"""End hosts.

A :class:`Host` owns an identity (MAC + IP), an attachment point, receive
counters, and an optional receive callback so scenario code can observe
deliveries (e.g. the quarantine honeypot counts redirected packets).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dataplane.packet import Packet
from repro.types import ConnectPoint, HostId


class Host:
    """A simulated end host attached to one switch port."""

    def __init__(
        self,
        name: str,
        mac: str,
        ip: str,
        attachment: Optional[ConnectPoint] = None,
    ) -> None:
        self.name = name
        self.host_id = HostId(mac=mac, ip=ip)
        self.attachment = attachment
        self.rx_packets = 0
        self.rx_bytes = 0
        self.on_receive: Optional[Callable[[Packet, float], None]] = None

    @property
    def mac(self) -> str:
        return self.host_id.mac

    @property
    def ip(self) -> str:
        return self.host_id.ip

    def deliver(self, packet: Packet, now: float) -> None:
        """Called by the network when a packet reaches this host."""
        self.rx_packets += 1
        self.rx_bytes += packet.size
        if self.on_receive is not None:
            self.on_receive(packet, now)

    def __repr__(self) -> str:
        return f"Host({self.name}, {self.host_id})"

"""Packets as header dictionaries.

The simulator does not carry payload bytes; a :class:`Packet` is a header
dict (the same field names :class:`repro.openflow.match.Match` uses) plus a
size.  That is exactly the information OpenFlow matching and counters need,
and it keeps per-packet simulation cheap enough to run scenario traffic: a
packet is built once, where it is injected, and forwarded as is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.openflow.constants import ETH_TYPE_ARP, ETH_TYPE_IPV4, IPPROTO_TCP, IPPROTO_UDP

_packet_ids = itertools.count(1)


def flow_headers(
    eth_src: str,
    eth_dst: str,
    ip_src: Optional[str] = None,
    ip_dst: Optional[str] = None,
    proto: Optional[int] = IPPROTO_TCP,
    sport: Optional[int] = None,
    dport: Optional[int] = None,
    eth_type: Optional[int] = None,
) -> Dict[str, Any]:
    """Build a header dict for one direction of a flow.

    The dict deliberately uses the match-field vocabulary so
    ``Match.exact_from_headers`` and feature indexing work unchanged.
    """
    if eth_type is None:
        eth_type = ETH_TYPE_IPV4 if ip_src else ETH_TYPE_ARP
    headers: Dict[str, Any] = {
        "eth_src": eth_src,
        "eth_dst": eth_dst,
        "eth_type": eth_type,
    }
    if ip_src is not None:
        headers["ip_src"] = ip_src
        headers["ip_dst"] = ip_dst
        headers["ip_proto"] = proto
        if proto in (IPPROTO_TCP, IPPROTO_UDP):
            headers["tcp_src"] = sport
            headers["tcp_dst"] = dport
    return headers


def reverse_headers(headers: Dict[str, Any]) -> Dict[str, Any]:
    """Header dict of the reverse direction of a flow (for pair-flow logic)."""
    flipped = dict(headers)
    for a, b in (("eth_src", "eth_dst"), ("ip_src", "ip_dst"), ("tcp_src", "tcp_dst")):
        if a in headers or b in headers:
            flipped[a], flipped[b] = headers.get(b), headers.get(a)
    return {k: v for k, v in flipped.items() if v is not None}


@dataclass(slots=True)
class Packet:
    """A simulated packet: headers, size and an id kept across rewrites.

    Forwarding never copies or mutates a packet: every hop and every
    flooded copy carries the same object, and packets of one flow
    direction may share one header dict.  Treat ``headers`` as read-only;
    a set-field action goes through :meth:`rewritten`.
    """

    headers: Dict[str, Any]
    size: int = 1000
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def rewritten(self, **updates: Any) -> "Packet":
        """Copy of the packet with some header fields replaced (set-field)."""
        headers = dict(self.headers)
        headers.update(updates)
        return Packet(headers=headers, size=self.size, packet_id=self.packet_id)

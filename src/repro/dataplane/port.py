"""Switch ports with OpenFlow-style counters.

Port counters (rx/tx packets, bytes, drops) feed Athena's port-scoped
protocol-centric features (``PORT_RX_BYTES`` etc.) and, via differencing,
the ``*_VAR`` variation features the LFA detector keys on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.openflow.messages import PortStatsEntry


@dataclass
class PortCounters:
    """Mutable rx/tx counters, mirroring ofp_port_stats."""

    rx_packets: int = 0
    tx_packets: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0
    rx_dropped: int = 0
    tx_dropped: int = 0
    rx_errors: int = 0
    tx_errors: int = 0


@dataclass
class Port:
    """A single switch port.  Where its packets go is resolved by the
    Network when it wires the port, not stored here."""

    port_no: int
    name: str = ""
    up: bool = True
    speed_bps: float = 1e9
    counters: PortCounters = field(default_factory=PortCounters)

    def record_rx(self, size: int, packets: int = 1) -> None:
        self.counters.rx_packets += packets
        self.counters.rx_bytes += size

    def record_tx(self, size: int, packets: int = 1) -> None:
        self.counters.tx_packets += packets
        self.counters.tx_bytes += size

    def record_rx_drop(self, packets: int = 1) -> None:
        self.counters.rx_dropped += packets

    def record_tx_drop(self, packets: int = 1) -> None:
        self.counters.tx_dropped += packets

    def stats_entry(self) -> PortStatsEntry:
        """Snapshot the counters as a PORT stats reply entry."""
        c = self.counters
        return PortStatsEntry(
            port_no=self.port_no,
            rx_packets=c.rx_packets,
            tx_packets=c.tx_packets,
            rx_bytes=c.rx_bytes,
            tx_bytes=c.tx_bytes,
            rx_dropped=c.rx_dropped,
            tx_dropped=c.tx_dropped,
            rx_errors=c.rx_errors,
            tx_errors=c.tx_errors,
        )

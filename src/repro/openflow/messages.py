"""OpenFlow control messages.

Each message is a frozen-ish dataclass carrying the fields Athena's Feature
Generator reads.  Transaction ids (``xid``) are explicit because Athena marks
XIDs on the statistics requests *it* issues, to distinguish its own polls
from the controller's background polling when computing variation features.

The wire type of a message is a class constant: ``msg_type`` on every
class, plus ``stats_type`` on the statistics family.  They are not
dataclass fields: no constructor takes them, and the codec in
``serialization.py`` reads them off the class.
"""

# athena-lint: hot-path

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional

from repro.openflow.actions import Action
from repro.openflow.constants import (
    FlowModCommand,
    FlowRemovedReason,
    MessageType,
    PacketInReason,
    PortReason,
    StatsType,
)
from repro.openflow.match import Match

_xid_counter = itertools.count(1)


def next_xid() -> int:
    """Allocate a process-unique transaction id."""
    return next(_xid_counter)


@dataclass
class OpenFlowMessage:
    """Base class: every message knows its type, dpid of origin/target, xid."""

    msg_type: ClassVar[MessageType]

    dpid: int = 0
    xid: int = field(default_factory=next_xid)

    def size_bytes(self) -> int:
        """Approximate wire size; used by overhead accounting."""
        return 8


@dataclass
class Hello(OpenFlowMessage):
    msg_type = MessageType.HELLO

    version: int = 0x04


@dataclass
class EchoRequest(OpenFlowMessage):
    msg_type = MessageType.ECHO_REQUEST


@dataclass
class EchoReply(OpenFlowMessage):
    msg_type = MessageType.ECHO_REPLY


@dataclass
class FeaturesRequest(OpenFlowMessage):
    msg_type = MessageType.FEATURES_REQUEST


@dataclass
class FeaturesReply(OpenFlowMessage):
    msg_type = MessageType.FEATURES_REPLY

    n_tables: int = 1
    ports: List[int] = field(default_factory=list)


@dataclass
class PacketIn(OpenFlowMessage):
    """A packet punted to the controller (table miss or explicit action)."""

    msg_type = MessageType.PACKET_IN

    buffer_id: int = -1
    in_port: int = 0
    reason: PacketInReason = PacketInReason.NO_MATCH
    headers: dict = field(default_factory=dict)
    total_len: int = 0

    def size_bytes(self) -> int:
        return 24 + min(self.total_len, 128)


@dataclass
class PacketOut(OpenFlowMessage):
    """Controller-originated packet injection."""

    msg_type = MessageType.PACKET_OUT

    buffer_id: int = -1
    in_port: int = 0
    actions: List[Action] = field(default_factory=list)
    headers: dict = field(default_factory=dict)
    total_len: int = 0

    def size_bytes(self) -> int:
        return 24 + len(self.actions) * 8 + min(self.total_len, 128)


@dataclass
class FlowMod(OpenFlowMessage):
    """Install / modify / delete a flow entry."""

    msg_type = MessageType.FLOW_MOD

    command: FlowModCommand = FlowModCommand.ADD
    match: Match = field(default_factory=Match)
    priority: int = 0
    actions: List[Action] = field(default_factory=list)
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: int = 0
    app_id: Optional[str] = None
    table_id: int = 0
    out_port: Optional[int] = None
    buffer_id: int = -1

    def size_bytes(self) -> int:
        return 72 + len(self.actions) * 8


@dataclass
class FlowRemoved(OpenFlowMessage):
    """Notification that a flow entry was evicted (timeout or delete)."""

    msg_type = MessageType.FLOW_REMOVED

    match: Match = field(default_factory=Match)
    priority: int = 0
    reason: FlowRemovedReason = FlowRemovedReason.IDLE_TIMEOUT
    duration_sec: float = 0.0
    packet_count: int = 0
    byte_count: int = 0
    cookie: int = 0
    app_id: Optional[str] = None

    def size_bytes(self) -> int:
        return 88


@dataclass
class PortStatus(OpenFlowMessage):
    """Port lifecycle/state change notification."""

    msg_type = MessageType.PORT_STATUS

    port_no: int = 0
    reason: PortReason = PortReason.MODIFY
    link_up: bool = True


# --------------------------------------------------------------------------
# Statistics family
# --------------------------------------------------------------------------


@dataclass
class StatsRequest(OpenFlowMessage):
    msg_type = MessageType.STATS_REQUEST
    stats_type: ClassVar[StatsType] = StatsType.DESC


@dataclass
class FlowStatsRequest(StatsRequest):
    stats_type = StatsType.FLOW

    match: Match = field(default_factory=Match)
    table_id: int = 0xFF


@dataclass
class PortStatsRequest(StatsRequest):
    stats_type = StatsType.PORT

    port_no: Optional[int] = None  # None == all ports


@dataclass
class AggregateStatsRequest(StatsRequest):
    stats_type = StatsType.AGGREGATE

    match: Match = field(default_factory=Match)


@dataclass
class TableStatsRequest(StatsRequest):
    stats_type = StatsType.TABLE


@dataclass
class FlowStatsEntry:
    """One flow's statistics within a FLOW stats reply."""

    match: Match
    priority: int
    duration_sec: float
    packet_count: int
    byte_count: int
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: int = 0
    app_id: Optional[str] = None
    table_id: int = 0


@dataclass
class PortStatsEntry:
    """One port's counters within a PORT stats reply."""

    port_no: int
    rx_packets: int = 0
    tx_packets: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0
    rx_dropped: int = 0
    tx_dropped: int = 0
    rx_errors: int = 0
    tx_errors: int = 0


@dataclass
class TableStatsEntry:
    """One table's occupancy counters within a TABLE stats reply."""

    table_id: int
    active_count: int = 0
    lookup_count: int = 0
    matched_count: int = 0
    max_entries: int = 65536


@dataclass
class StatsReply(OpenFlowMessage):
    msg_type = MessageType.STATS_REPLY
    stats_type: ClassVar[StatsType] = StatsType.DESC


@dataclass
class FlowStatsReply(StatsReply):
    stats_type = StatsType.FLOW

    entries: List[FlowStatsEntry] = field(default_factory=list)

    def size_bytes(self) -> int:
        return 16 + 96 * len(self.entries)


@dataclass
class PortStatsReply(StatsReply):
    stats_type = StatsType.PORT

    entries: List[PortStatsEntry] = field(default_factory=list)

    def size_bytes(self) -> int:
        return 16 + 104 * len(self.entries)


@dataclass
class AggregateStatsReply(StatsReply):
    stats_type = StatsType.AGGREGATE

    packet_count: int = 0
    byte_count: int = 0
    flow_count: int = 0


@dataclass
class TableStatsReply(StatsReply):
    stats_type = StatsType.TABLE

    entries: List[TableStatsEntry] = field(default_factory=list)


@dataclass
class BarrierRequest(OpenFlowMessage):
    msg_type = MessageType.BARRIER_REQUEST


@dataclass
class BarrierReply(OpenFlowMessage):
    msg_type = MessageType.BARRIER_REPLY

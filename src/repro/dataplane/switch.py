"""The OpenFlow switch model.

An :class:`OpenFlowSwitch` owns ports, a flow table, and a control channel.
Packet handling follows the spec pipeline: look up the flow table, update
flow and port counters on a hit, punt a PACKET_IN on a miss (buffering the
packet so a later FLOW_MOD/PACKET_OUT with the buffer id releases it), and
emit FLOW_REMOVED when entries expire.  Statistics requests are answered
from live counters, which is where Athena's polled features originate.

A forwarded packet costs one flow-table lookup and counter updates here;
the packet itself is handed on unchanged (set-field actions and PACKET_IN
copy, nothing else does).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DataPlaneError
from repro.openflow.actions import (
    Action,
    ActionController,
    ActionDrop,
    ActionOutput,
    ActionSetEthDst,
    ActionSetEthSrc,
    ActionSetIpDst,
    ActionSetIpSrc,
)
from repro.openflow.constants import FlowModCommand, FlowRemovedReason
from repro.openflow.flow import FlowEntry
from repro.openflow.messages import (
    AggregateStatsReply,
    AggregateStatsRequest,
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    OpenFlowMessage,
    PacketIn,
    PacketInReason,
    PacketOut,
    PortStatsReply,
    PortStatsRequest,
    PortStatus,
    PortReason,
    StatsRequest,
    TableStatsEntry,
    TableStatsReply,
    TableStatsRequest,
)
from repro.dataplane.flowtable import FlowTable
from repro.dataplane.packet import Packet
from repro.dataplane.port import Port
from repro.types import (
    Dpid,
    OFPP_ALL,
    OFPP_CONTROLLER,
    OFPP_FLOOD,
    OFPP_IN_PORT,
    OFPP_MAX,
    format_dpid,
)

#: Signature of the upcall delivering a switch-originated message.
ControlChannel = Callable[[OpenFlowMessage], None]
#: Signature of the downcall transmitting a packet out of a port.
TransmitFn = Callable[["OpenFlowSwitch", int, Packet, float], None]


class OpenFlowSwitch:
    """A software model of an OpenFlow 1.0/1.3 switch."""

    def __init__(
        self,
        dpid: Dpid,
        name: str = "",
        n_tables: int = 1,
        miss_send_len: int = 128,
        hardware: bool = False,
    ) -> None:
        self.dpid = dpid
        self.name = name or format_dpid(dpid)
        #: Physical switches vs OVS instances (Table VI distinguishes them).
        self.hardware = hardware
        self.miss_send_len = miss_send_len
        self.tables = [FlowTable(table_id=i) for i in range(n_tables)]
        self.ports: Dict[int, Port] = {}
        self._buffered: Dict[int, Tuple[Packet, int]] = {}
        self._buffer_ids = itertools.count(1)
        self._channel: Optional[ControlChannel] = None
        self._transmit: Optional[TransmitFn] = None
        # Counters for the Cbench harness and CPU-usage experiment.
        self.packet_in_count = 0
        self.flow_mod_count = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0

    # -- wiring ----------------------------------------------------------

    @property
    def table(self) -> FlowTable:
        """The first (and usually only) flow table."""
        return self.tables[0]

    def add_port(self, port_no: int, speed_bps: float = 1e9) -> Port:
        if port_no in self.ports:
            raise DataPlaneError(f"{self.name}: duplicate port {port_no}")
        port = Port(port_no=port_no, name=f"{self.name}-eth{port_no}", speed_bps=speed_bps)
        self.ports[port_no] = port
        return port

    def connect_controller(self, channel: ControlChannel) -> None:
        """Attach the control channel used for switch→controller messages."""
        self._channel = channel

    def attach_transmitter(self, transmit: TransmitFn) -> None:
        """Attach the network-provided packet transmitter."""
        self._transmit = transmit

    def _send_to_controller(self, msg: OpenFlowMessage) -> None:
        msg.dpid = self.dpid
        if self._channel is not None:
            self._channel(msg)

    # -- data path -------------------------------------------------------

    def receive_packet(self, in_port: int, packet: Packet, now: float) -> None:
        """Entry point for a packet arriving on ``in_port``.

        The table sees the packet's own header dict and ``in_port`` as a
        separate argument, so a hop copies nothing.
        """
        port = self.ports.get(in_port)
        if port is None:
            raise DataPlaneError(f"{self.name}: no such port {in_port}")
        if not port.up:
            port.record_rx_drop()
            self.packets_dropped += 1
            return
        port.record_rx(packet.size)
        entry = self.tables[0].lookup(packet.headers, in_port)
        if entry is None:
            self._punt(in_port, packet, now)
            return
        entry.stats.record(packet.size, now)
        self._apply_actions(entry.actions, in_port, packet, now)

    def _punt(self, in_port: int, packet: Packet, now: float) -> None:
        """Table miss: buffer the packet and raise PACKET_IN."""
        buffer_id = next(self._buffer_ids)
        self._buffered[buffer_id] = (packet, in_port)
        if len(self._buffered) > 4096:
            # Bound the buffer the way real switches do; oldest goes first.
            oldest = min(self._buffered)
            del self._buffered[oldest]
        self.packet_in_count += 1
        self._send_to_controller(
            PacketIn(
                buffer_id=buffer_id,
                in_port=in_port,
                reason=PacketInReason.NO_MATCH,
                headers=dict(packet.headers),
                total_len=packet.size,
            )
        )

    def _apply_actions(
        self, actions: List[Action], in_port: int, packet: Packet, now: float
    ) -> None:
        if not actions:
            self.packets_dropped += 1
            return
        current = packet
        for action in actions:
            # Output first: the reactive rules are all a single output.
            if isinstance(action, ActionOutput):
                self._output(action.port, in_port, current, now)
            elif isinstance(action, ActionDrop):
                self.packets_dropped += 1
                return
            elif isinstance(action, ActionSetEthSrc):
                current = current.rewritten(eth_src=action.mac)
            elif isinstance(action, ActionSetEthDst):
                current = current.rewritten(eth_dst=action.mac)
            elif isinstance(action, ActionSetIpSrc):
                current = current.rewritten(ip_src=action.ip)
            elif isinstance(action, ActionSetIpDst):
                current = current.rewritten(ip_dst=action.ip)
            elif isinstance(action, ActionController):
                self._punt(in_port, current, now)

    def _output(self, out_port: int, in_port: int, packet: Packet, now: float) -> None:
        if out_port < OFPP_MAX:
            self._transmit_out(out_port, packet, now)
            return
        if out_port == OFPP_CONTROLLER:
            self._punt(in_port, packet, now)
            return
        if out_port in (OFPP_FLOOD, OFPP_ALL):
            for port_no in self.ports:
                if port_no != in_port:
                    self._transmit_out(port_no, packet, now)
            return
        if out_port == OFPP_IN_PORT:
            self._transmit_out(in_port, packet, now)
            return
        self._transmit_out(out_port, packet, now)

    def _transmit_out(self, port_no: int, packet: Packet, now: float) -> None:
        port = self.ports.get(port_no)
        if port is None or not port.up:
            self.packets_dropped += 1
            return
        port.record_tx(packet.size)
        self.packets_forwarded += 1
        if self._transmit is not None:
            self._transmit(self, port_no, packet, now)

    # -- control path ----------------------------------------------------

    def handle_message(self, msg: OpenFlowMessage, now: float) -> None:
        """Process a controller→switch message."""
        if isinstance(msg, FlowMod):
            self._handle_flow_mod(msg, now)
        elif isinstance(msg, PacketOut):
            self._handle_packet_out(msg, now)
        elif isinstance(msg, StatsRequest):
            self._handle_stats_request(msg, now)
        elif isinstance(msg, EchoRequest):
            self._send_to_controller(EchoReply(xid=msg.xid))
        elif isinstance(msg, BarrierRequest):
            self._send_to_controller(BarrierReply(xid=msg.xid))
        elif isinstance(msg, FeaturesRequest):
            self._send_to_controller(
                FeaturesReply(
                    xid=msg.xid,
                    n_tables=len(self.tables),
                    ports=sorted(self.ports),
                )
            )
        else:
            raise DataPlaneError(
                f"{self.name}: unsupported message {type(msg).__name__}"
            )

    def _handle_flow_mod(self, msg: FlowMod, now: float) -> None:
        self.flow_mod_count += 1
        table = self.tables[msg.table_id if msg.table_id < len(self.tables) else 0]
        if msg.command == FlowModCommand.ADD:
            entry = FlowEntry(
                match=msg.match,
                priority=msg.priority,
                actions=list(msg.actions),
                idle_timeout=msg.idle_timeout,
                hard_timeout=msg.hard_timeout,
                cookie=msg.cookie,
                app_id=msg.app_id,
            )
            table.insert(entry, now)
            self._maybe_release_buffer(msg, entry, now)
        elif msg.command in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
            table.modify(
                msg.match,
                msg.actions,
                priority=msg.priority,
                strict=msg.command == FlowModCommand.MODIFY_STRICT,
            )
        else:
            removed = table.delete(
                msg.match,
                priority=msg.priority,
                strict=msg.command == FlowModCommand.DELETE_STRICT,
                out_port=msg.out_port,
            )
            for entry in removed:
                self._notify_removed(entry, FlowRemovedReason.DELETE, now)

    def _maybe_release_buffer(self, msg: FlowMod, entry: FlowEntry, now: float) -> None:
        """OF semantics: a FLOW_MOD naming a buffer forwards that packet."""
        buffered = self._buffered.pop(getattr(msg, "buffer_id", -1), None)
        if buffered is None:
            return
        packet, in_port = buffered
        entry.stats.record(packet.size, now)
        self._apply_actions(entry.actions, in_port, packet, now)

    def release_buffer(self, buffer_id: int, actions: List[Action], now: float) -> bool:
        """Apply ``actions`` to a buffered packet (PACKET_OUT path)."""
        buffered = self._buffered.pop(buffer_id, None)
        if buffered is None:
            return False
        packet, in_port = buffered
        self._apply_actions(actions, in_port, packet, now)
        return True

    def _handle_packet_out(self, msg: PacketOut, now: float) -> None:
        if msg.buffer_id >= 0 and self.release_buffer(msg.buffer_id, msg.actions, now):
            return
        packet = Packet(headers=dict(msg.headers), size=msg.total_len or 64)
        self._apply_actions(msg.actions, msg.in_port, packet, now)

    def _handle_stats_request(self, msg: StatsRequest, now: float) -> None:
        if isinstance(msg, FlowStatsRequest):
            entries = [
                FlowStatsEntry(
                    match=e.match,
                    priority=e.priority,
                    duration_sec=e.stats.duration(now),
                    packet_count=e.stats.packet_count,
                    byte_count=e.stats.byte_count,
                    idle_timeout=e.idle_timeout,
                    hard_timeout=e.hard_timeout,
                    cookie=e.cookie,
                    app_id=e.app_id,
                    table_id=e.table_id,
                )
                for table in self.tables
                for e in table.select(msg.match)
            ]
            self._send_to_controller(FlowStatsReply(xid=msg.xid, entries=entries))
        elif isinstance(msg, PortStatsRequest):
            if msg.port_no is None:
                entries = [p.stats_entry() for _, p in sorted(self.ports.items())]
            else:
                port = self.ports.get(msg.port_no)
                entries = [port.stats_entry()] if port else []
            self._send_to_controller(PortStatsReply(xid=msg.xid, entries=entries))
        elif isinstance(msg, AggregateStatsRequest):
            selected = [
                e for table in self.tables for e in table.select(msg.match)
            ]
            self._send_to_controller(
                AggregateStatsReply(
                    xid=msg.xid,
                    packet_count=sum(e.stats.packet_count for e in selected),
                    byte_count=sum(e.stats.byte_count for e in selected),
                    flow_count=len(selected),
                )
            )
        elif isinstance(msg, TableStatsRequest):
            entries = [
                TableStatsEntry(
                    table_id=t.table_id,
                    active_count=len(t),
                    lookup_count=t.lookup_count,
                    matched_count=t.matched_count,
                    max_entries=t.max_entries,
                )
                for t in self.tables
            ]
            self._send_to_controller(TableStatsReply(xid=msg.xid, entries=entries))
        else:
            raise DataPlaneError(
                f"{self.name}: unsupported stats request {type(msg).__name__}"
            )

    # -- housekeeping ------------------------------------------------------

    def expire_flows(self, now: float) -> int:
        """Evict timed-out entries, notifying the controller. Returns count."""
        evicted = 0
        for table in self.tables:
            for entry, reason in table.expire(now):
                self._notify_removed(entry, reason, now)
                evicted += 1
        return evicted

    def _notify_removed(
        self, entry: FlowEntry, reason: FlowRemovedReason, now: float
    ) -> None:
        self._send_to_controller(
            FlowRemoved(
                match=entry.match,
                priority=entry.priority,
                reason=reason,
                duration_sec=entry.stats.duration(now),
                packet_count=entry.stats.packet_count,
                byte_count=entry.stats.byte_count,
                cookie=entry.cookie,
                app_id=entry.app_id,
            )
        )

    def set_port_state(self, port_no: int, up: bool) -> None:
        """Administratively flip a port, emitting PORT_STATUS."""
        port = self.ports.get(port_no)
        if port is None:
            raise DataPlaneError(f"{self.name}: no such port {port_no}")
        if port.up == up:
            return
        port.up = up
        self._send_to_controller(
            PortStatus(port_no=port_no, reason=PortReason.MODIFY, link_up=up)
        )

    def flow_count(self) -> int:
        return sum(len(t) for t in self.tables)

    def __repr__(self) -> str:
        return f"OpenFlowSwitch({self.name}, ports={len(self.ports)}, flows={self.flow_count()})"

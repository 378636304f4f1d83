"""Protocol-centric extractors.

These functions copy values straight out of OpenFlow structures — no state,
no formulas — producing the Table I *protocol-centric* fields.
"""

from __future__ import annotations

from typing import Dict

from repro.openflow.messages import (
    FlowRemoved,
    FlowStatsEntry,
    PortStatsEntry,
    TableStatsEntry,
)


def _flow_fields(source, idle_timeout=0.0, hard_timeout=0.0, table_id=0.0):
    """The flow-scope protocol fields of a stats entry or a removal notice."""
    duration = float(source.duration_sec)
    return {
        "FLOW_PACKET_COUNT": float(source.packet_count),
        "FLOW_BYTE_COUNT": float(source.byte_count),
        "FLOW_DURATION_SEC": float(int(duration)),
        "FLOW_DURATION_N_SEC": (duration - int(duration)) * 1e9,
        "FLOW_PRIORITY": float(source.priority),
        "FLOW_IDLE_TIMEOUT": float(idle_timeout),
        "FLOW_HARD_TIMEOUT": float(hard_timeout),
        "FLOW_TABLE_ID": float(table_id),
    }


def flow_fields(entry: FlowStatsEntry) -> Dict[str, float]:
    """Protocol features of one flow-stats entry."""
    return _flow_fields(entry, entry.idle_timeout, entry.hard_timeout, entry.table_id)


def removed_flow_fields(msg: FlowRemoved) -> Dict[str, float]:
    """Protocol features carried by a FLOW_REMOVED notification.

    The notification has no timeouts or table id; they read as zero.
    """
    return _flow_fields(msg)


def port_fields(entry: PortStatsEntry) -> Dict[str, float]:
    """Protocol features of one port-stats entry."""
    return {
        "PORT_RX_PACKETS": float(entry.rx_packets),
        "PORT_TX_PACKETS": float(entry.tx_packets),
        "PORT_RX_BYTES": float(entry.rx_bytes),
        "PORT_TX_BYTES": float(entry.tx_bytes),
        "PORT_RX_DROPPED": float(entry.rx_dropped),
        "PORT_TX_DROPPED": float(entry.tx_dropped),
        "PORT_RX_ERRORS": float(entry.rx_errors),
        "PORT_TX_ERRORS": float(entry.tx_errors),
    }


def table_fields(entry: TableStatsEntry) -> Dict[str, float]:
    """Protocol features of one table-stats entry."""
    return {
        "TABLE_ACTIVE_COUNT": float(entry.active_count),
        "TABLE_LOOKUP_COUNT": float(entry.lookup_count),
        "TABLE_MATCHED_COUNT": float(entry.matched_count),
    }


def aggregate_fields(packet_count: int, byte_count: int, flow_count: int) -> Dict[str, float]:
    """Protocol features of an aggregate-stats reply."""
    return {
        "AGG_PACKET_COUNT": float(packet_count),
        "AGG_BYTE_COUNT": float(byte_count),
        "AGG_FLOW_COUNT": float(flow_count),
    }


#: Control feature → the message counter it reports (also the summed set).
_CONTROL_COUNTERS = (
    ("PACKET_IN_COUNT", "packet_in"),
    ("PACKET_OUT_COUNT", "packet_out"),
    ("FLOW_MOD_COUNT", "flow_mod"),
    ("FLOW_REMOVED_COUNT", "flow_removed"),
    ("PORT_STATUS_COUNT", "port_status"),
    ("STATS_REQUEST_COUNT", "stats_request"),
    ("STATS_REPLY_COUNT", "stats_reply"),
    ("ECHO_COUNT", "echo"),
    ("BARRIER_COUNT", "barrier"),
)


def control_counter_fields(counters: Dict[str, int]) -> Dict[str, float]:
    """Protocol features from the per-switch control-message counters."""
    fields = {name: float(counters.get(key, 0)) for name, key in _CONTROL_COUNTERS}
    fields["CONTROL_MSG_TOTAL"] = float(sum(fields.values()))
    fields["CONTROL_MSG_BYTES"] = float(counters.get("bytes", 0))
    return fields

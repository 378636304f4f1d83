"""Combination extractors — pre-defined formulas over protocol features.

All ratios guard against zero denominators by yielding 0.0, so downstream
matrices never contain NaN/inf (the paper's example: Flow Utilization =
how much traffic a flow delivers relative to its output port).
"""

from __future__ import annotations

from typing import Dict, Optional


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def flow_fields(
    protocol: Dict[str, float], port_speed_bps: Optional[float] = None
) -> Dict[str, float]:
    """Combination features of a flow record from its protocol fields."""
    packets = protocol.get("FLOW_PACKET_COUNT", 0.0)
    bytes_ = protocol.get("FLOW_BYTE_COUNT", 0.0)
    duration = protocol.get("FLOW_DURATION_SEC", 0.0) + protocol.get(
        "FLOW_DURATION_N_SEC", 0.0
    ) / 1e9
    hard = protocol.get("FLOW_HARD_TIMEOUT", 0.0)
    idle = protocol.get("FLOW_IDLE_TIMEOUT", 0.0)
    byte_rate = _ratio(bytes_, duration)
    return {
        "FLOW_BYTE_PER_PACKET": _ratio(bytes_, packets),
        "FLOW_PACKET_PER_DURATION": _ratio(packets, duration),
        "FLOW_BYTE_PER_DURATION": byte_rate,
        "FLOW_UTILIZATION": _ratio(byte_rate * 8.0, port_speed_bps or 0.0),
        "FLOW_LIFETIME_RATIO": _ratio(duration, hard),
        "FLOW_IDLE_RATIO": _ratio(idle, duration),
    }


def port_fields(
    protocol: Dict[str, float],
    port_speed_bps: Optional[float] = None,
    delta_seconds: Optional[float] = None,
    delta_bytes: Optional[float] = None,
) -> Dict[str, float]:
    """Combination features of a port record.

    ``PORT_UTILIZATION`` needs a rate, so it uses the byte delta since the
    previous sample when available and otherwise reports 0.
    """
    rx_packets = protocol.get("PORT_RX_PACKETS", 0.0)
    tx_packets = protocol.get("PORT_TX_PACKETS", 0.0)
    rx_bytes = protocol.get("PORT_RX_BYTES", 0.0)
    tx_bytes = protocol.get("PORT_TX_BYTES", 0.0)
    drops = protocol.get("PORT_RX_DROPPED", 0.0) + protocol.get("PORT_TX_DROPPED", 0.0)
    errors = protocol.get("PORT_RX_ERRORS", 0.0) + protocol.get("PORT_TX_ERRORS", 0.0)
    handled = rx_packets + tx_packets
    utilization = 0.0
    if delta_seconds and delta_bytes is not None and port_speed_bps:
        utilization = _ratio(delta_bytes * 8.0 / delta_seconds, port_speed_bps)
    return {
        "PORT_RX_BYTE_PER_PACKET": _ratio(rx_bytes, rx_packets),
        "PORT_TX_BYTE_PER_PACKET": _ratio(tx_bytes, tx_packets),
        "PORT_UTILIZATION": min(1.0, utilization),
        "PORT_DROP_RATIO": _ratio(drops, drops + handled),
        "PORT_ERROR_RATIO": _ratio(errors, handled),
        "PORT_RX_TX_RATIO": _ratio(rx_packets, tx_packets),
    }


def switch_fields(
    table: Dict[str, float],
    aggregate: Dict[str, float],
    table_capacity: float = 65536.0,
) -> Dict[str, float]:
    """Combination features at switch scope."""
    active = table.get("TABLE_ACTIVE_COUNT", 0.0)
    lookups = table.get("TABLE_LOOKUP_COUNT", 0.0)
    matched = table.get("TABLE_MATCHED_COUNT", 0.0)
    flows = aggregate.get("AGG_FLOW_COUNT", 0.0)
    return {
        "TABLE_UTILIZATION": _ratio(active, table_capacity),
        "TABLE_HIT_RATIO": _ratio(matched, lookups),
        "AGG_BYTE_PER_FLOW": _ratio(aggregate.get("AGG_BYTE_COUNT", 0.0), flows),
        "AGG_PACKET_PER_FLOW": _ratio(aggregate.get("AGG_PACKET_COUNT", 0.0), flows),
    }


def control_fields(
    counters: Dict[str, float], delta_seconds: Optional[float]
) -> Dict[str, float]:
    """Combination features at control scope: message rates, from the
    counters' ``*_VAR`` deltas over the ``delta_seconds`` they span."""
    if not delta_seconds or delta_seconds <= 0:
        return {"PACKET_IN_RATE": 0.0, "FLOW_MOD_RATE": 0.0, "CONTROL_MSG_RATE": 0.0}
    return {
        "PACKET_IN_RATE": counters.get("PACKET_IN_COUNT_VAR", 0.0) / delta_seconds,
        "FLOW_MOD_RATE": counters.get("FLOW_MOD_COUNT_VAR", 0.0) / delta_seconds,
        "CONTROL_MSG_RATE": counters.get("CONTROL_MSG_TOTAL_VAR", 0.0) / delta_seconds,
    }

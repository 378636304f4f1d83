"""Stateful extractors.

The Feature Generator "maintains hash tables to track ... network status"
(Section III-A2).  :class:`FlowStateTable` is that state: the live flows of
each monitored switch keyed by their match indicators, from which pair-flow
presence, per-source fan-out, and switch-level ratios (the DDoS detector's
``PAIR_FLOW_RATIO``) are computed.  A garbage collector evicts entries not
refreshed within a configurable horizon.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

FlowKey = Tuple[Any, ...]


def flow_key_from_indicators(indicators: Dict[str, Any]) -> FlowKey:
    """Canonical hashable identity of a flow's match indicators."""
    return tuple(sorted(indicators.items()))


def reverse_indicators(indicators: Dict[str, Any]) -> Dict[str, Any]:
    """Indicators of the reverse direction (for pair-flow detection)."""
    flipped = dict(indicators)
    for a, b in (("eth_src", "eth_dst"), ("ip_src", "ip_dst"), ("tcp_src", "tcp_dst")):
        va, vb = indicators.get(a), indicators.get(b)
        if va is not None or vb is not None:
            flipped[a], flipped[b] = vb, va
    return {k: v for k, v in flipped.items() if v is not None}


def flow_keys(indicators: Dict[str, Any]) -> Tuple[FlowKey, FlowKey]:
    """A flow's key and the key of its reverse direction."""
    return (
        flow_key_from_indicators(indicators),
        flow_key_from_indicators(reverse_indicators(indicators)),
    )


@dataclass
class _FlowState:
    """Tracked state of one live flow."""

    indicators: Dict[str, Any]
    last_seen: float
    samples: int = 0
    packet_count: float = 0.0


@dataclass
class _SwitchState:
    """Per-switch hash tables.

    ``src_counts`` / ``dst_counts`` are maintained incrementally so fan-out
    lookups stay O(1) per observation regardless of table size.
    """

    flows: Dict[FlowKey, _FlowState] = field(default_factory=dict)
    src_counts: Dict[Any, int] = field(default_factory=dict)
    dst_counts: Dict[Any, int] = field(default_factory=dict)
    pair_count: int = 0
    new_flows_since_sample: int = 0
    expired_since_sample: int = 0
    last_sample_time: Optional[float] = None

    @staticmethod
    def endpoints(indicators: Dict[str, Any]):
        src = indicators.get("ip_src") or indicators.get("eth_src")
        dst = indicators.get("ip_dst") or indicators.get("eth_dst")
        return src, dst

    def drop_flow(self, key: FlowKey, reverse_key: FlowKey) -> Optional["_FlowState"]:
        flow = self.flows.pop(key, None)
        if flow is None:
            return None
        src, dst = self.endpoints(flow.indicators)
        for counts, endpoint in ((self.src_counts, src), (self.dst_counts, dst)):
            remaining = counts.get(endpoint, 1) - 1
            if remaining <= 0:
                counts.pop(endpoint, None)
            else:
                counts[endpoint] = remaining
        if reverse_key in self.flows and reverse_key != key:
            self.pair_count -= 2
        return flow


class FlowStateTable:
    """Live-flow state for the switches one Athena instance monitors.

    The update methods take the flow's ``keys`` (:func:`flow_keys`) from a
    caller that has them — the feature-state engine builds them once per
    fold.  No key is stored per flow: garbage collection rebuilds the
    reverse key of each flow it evicts.
    """

    def __init__(self, stale_after: float = 60.0) -> None:
        self.stale_after = stale_after
        self._switches: Dict[int, _SwitchState] = {}

    def _state(self, dpid: int) -> _SwitchState:
        if dpid not in self._switches:
            self._switches[dpid] = _SwitchState()
        return self._switches[dpid]

    # -- updates -----------------------------------------------------------

    def observe_flow(
        self,
        dpid: int,
        indicators: Dict[str, Any],
        now: float,
        packet_count: float = 0.0,
        keys: Optional[Tuple[FlowKey, FlowKey]] = None,
    ) -> Dict[str, float]:
        """Record a sample of a flow; returns its flow-scoped stateful fields."""
        state = self._state(dpid)
        key, reverse_key = keys or flow_keys(indicators)
        has_pair = reverse_key in state.flows and reverse_key != key
        src, dst = state.endpoints(indicators)
        flow = state.flows.get(key)
        is_new = flow is None
        if is_new:
            flow = state.flows[key] = _FlowState(dict(indicators), last_seen=now)
            state.src_counts[src] = state.src_counts.get(src, 0) + 1
            state.dst_counts[dst] = state.dst_counts.get(dst, 0) + 1
            if has_pair:
                state.pair_count += 2
            state.new_flows_since_sample += 1
        flow.last_seen = now
        flow.samples += 1
        flow.packet_count = packet_count
        return {
            "PAIR_FLOW": 1.0 if has_pair else 0.0,
            "FLOW_IS_NEW": 1.0 if is_new else 0.0,
            "FLOW_SAMPLE_COUNT": float(flow.samples),
            "SRC_FLOW_FANOUT": float(state.src_counts.get(src, 0)),
            "DST_FLOW_FANIN": float(state.dst_counts.get(dst, 0)),
        }

    def remove_flow(
        self,
        dpid: int,
        indicators: Dict[str, Any],
        keys: Optional[Tuple[FlowKey, FlowKey]] = None,
    ) -> bool:
        """Drop a flow on FLOW_REMOVED; returns whether it was tracked."""
        state = self._state(dpid)
        if state.drop_flow(*(keys or flow_keys(indicators))) is not None:
            state.expired_since_sample += 1
            return True
        return False

    # -- switch-level snapshot --------------------------------------------------

    def switch_snapshot(self, dpid: int) -> Dict[str, float]:
        """Read-only switch-scope view that does NOT reset sample counters.

        The streaming pipeline reads switch state on every event, far more
        often than the batch sampling round; resetting the per-sample
        counters here would starve :meth:`switch_fields` (and rate features)
        of their accumulation window, so this snapshot leaves all state
        untouched — a switch never observed reads as zeros and stays
        untracked.
        """
        state = self._switches.get(dpid) or _SwitchState()
        total = len(state.flows)
        paired = state.pair_count
        sources = state.src_counts
        destinations = state.dst_counts
        return {
            "PAIR_FLOW_RATIO": paired / total if total else 0.0,
            "SINGLE_FLOW_RATIO": (total - paired) / total if total else 0.0,
            "TOTAL_TRACKED_FLOWS": float(total),
            "UNIQUE_SRC_COUNT": float(len(sources)),
            "UNIQUE_DST_COUNT": float(len(destinations)),
            "FLOWS_PER_SRC": total / len(sources) if sources else 0.0,
            "FLOWS_PER_DST": total / len(destinations) if destinations else 0.0,
        }

    def switch_fields(self, dpid: int, now: float) -> Dict[str, float]:
        """Stateful switch-scope features, resetting per-sample counters."""
        state = self._state(dpid)
        fields = self.switch_snapshot(dpid)
        elapsed = (
            now - state.last_sample_time if state.last_sample_time is not None else 0.0
        )
        new, expired = state.new_flows_since_sample, state.expired_since_sample
        fields["NEW_FLOW_RATE"] = new / elapsed if elapsed > 0 else 0.0
        fields["EXPIRED_FLOW_RATE"] = expired / elapsed if elapsed > 0 else 0.0
        fields["MEDIAN_FLOW_PACKETS"] = (
            float(statistics.median(f.packet_count for f in state.flows.values()))
            if state.flows
            else 0.0
        )
        fields["GROWTH_SINGLE_FLOWS"] = float(new - expired)
        state.new_flows_since_sample = 0
        state.expired_since_sample = 0
        state.last_sample_time = now
        return fields

    # -- garbage collection ----------------------------------------------------

    def collect_garbage(self, now: float) -> int:
        """Evict flows not refreshed within ``stale_after`` seconds."""
        evicted = 0
        for state in self._switches.values():
            stale = [
                (key, flow_key_from_indicators(reverse_indicators(flow.indicators)))
                for key, flow in state.flows.items()
                if now - flow.last_seen > self.stale_after
            ]
            for key, reverse_key in stale:
                state.drop_flow(key, reverse_key)
                evicted += 1
        return evicted

    def tracked_flow_count(self, dpid: Optional[int] = None) -> int:
        if dpid is not None:
            state = self._switches.get(dpid)
            return len(state.flows) if state is not None else 0
        return sum(len(s.flows) for s in self._switches.values())

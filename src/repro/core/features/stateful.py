"""Stateful extractors.

The Feature Generator "maintains hash tables to track ... network status"
(Section III-A2).  :class:`FlowStateTable` is that state: the live flows of
each monitored switch keyed by their match indicators, from which pair-flow
presence, per-source fan-out, and switch-level ratios (the DDoS detector's
``PAIR_FLOW_RATIO``) are computed.  Each live flow keeps its endpoints and
a link to the live flow of its reverse direction, so dropping a flow needs
no key but its own.  A garbage collector evicts entries not refreshed
within a configurable horizon.
"""

# athena-lint: hot-path

from __future__ import annotations

import operator
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

#: A flow's indicator names in sorted order, then their values, in one
#: tuple: not one per item, so the collector has less to track.
FlowKey = Tuple[Any, ...]

#: Match/header keys that identify a flow (a record's indicators).
_INDICATOR_KEYS = frozenset(
    ("eth_src", "eth_dst", "ip_src", "ip_dst", "ip_proto", "tcp_src", "tcp_dst")
)
#: Indicator names as the reverse direction reads them.
_REVERSE_NAME = {
    "eth_src": "eth_dst", "eth_dst": "eth_src",
    "ip_src": "ip_dst", "ip_dst": "ip_src",
    "tcp_src": "tcp_dst", "tcp_dst": "tcp_src",
}
#: A dict's name tuple -> the names kept and a getter of their values,
#: then for the key and the reverse key: its names as a one-tuple prefix
#: and a getter of the values that follow them (each value read straight
#: from the dict).  One table for :func:`flow_keys`, one for
#: :func:`flow_indicators`.
_KEY_PLANS: Dict[Tuple[str, ...], Tuple[Any, ...]] = {}
_SOURCE_PLANS: Dict[Tuple[str, ...], Tuple[Any, ...]] = {}


def _getter(names: Tuple[str, ...]) -> Callable[[Dict[str, Any]], tuple]:
    if len(names) > 1:
        return operator.itemgetter(*names)
    return lambda source: tuple([source[name] for name in names])


def _plan(plans: Dict, names: Tuple[str, ...], kept: Tuple[str, ...]) -> Tuple:
    forward = tuple(sorted(kept))
    reverse = sorted((_REVERSE_NAME.get(name, name), name) for name in kept)
    plans[names] = plan = (
        kept, _getter(kept), (forward,), _getter(forward),
        (tuple(p[0] for p in reverse),), _getter(tuple(p[1] for p in reverse)),
    )
    return plan


def flow_keys(indicators: Dict[str, Any]) -> Tuple[FlowKey, FlowKey]:
    """A flow's key and the key of its reverse direction: source and
    destination names swapped, ``None`` values left out.  Reversing a
    ``None``-free flow's key twice gives the key back.  Both name orders
    are sorted once per tuple of indicator names."""
    names = tuple(indicators)
    _, _, forward, forward_values, reverse, reverse_values = (
        _KEY_PLANS.get(names) or _plan(_KEY_PLANS, names, names)
    )
    back = reverse_values(indicators)
    if not all(back) and None in back:
        kept = [pair for pair in zip(reverse[0], back) if pair[1] is not None]
        reverse, back = (tuple(p[0] for p in kept),), tuple(p[1] for p in kept)
    return forward + forward_values(indicators), reverse + back


def flow_indicators(source: Dict[str, Any]) -> Tuple[Dict[str, Any], Tuple[FlowKey, FlowKey]]:
    """A header or match dict's indicators (its indicator names, in its
    order, whose value is not ``None``: the table pairs flows only on keys
    that reverse back) and their :func:`flow_keys`, read in one pass."""
    names = tuple(source)
    kept, values_of, forward, forward_values, reverse, reverse_values = (
        _SOURCE_PLANS.get(names)
        or _plan(_SOURCE_PLANS, names, tuple(n for n in names if n in _INDICATOR_KEYS))
    )
    values = values_of(source)
    if not all(values) and None in values:
        indicators = {n: v for n, v in zip(kept, values) if v is not None}
        return indicators, flow_keys(indicators)
    return dict(zip(kept, values)), (
        forward + forward_values(source), reverse + reverse_values(source)
    )


def key_items(key: FlowKey) -> Tuple[Tuple[str, Any], ...]:
    """A flow key as its ``(name, value)`` items in name order."""
    return tuple(zip(key[0], key[1:]))


class _FlowState:
    """Tracked state of one live flow.  ``partner`` is the live flow of the
    reverse direction, linked both ways while both are tracked."""

    __slots__ = ("src", "dst", "last_seen", "samples", "packet_count", "partner")

    def __init__(self, src, dst, last_seen: float, partner) -> None:
        self.src, self.dst, self.partner = src, dst, partner
        self.last_seen, self.samples, self.packet_count = last_seen, 0, 0.0


def _release(counts: Dict[Any, int], endpoint: Any) -> None:
    remaining = counts[endpoint] - 1
    if remaining:
        counts[endpoint] = remaining
    else:
        del counts[endpoint]


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

    def drop_flow(self, key: FlowKey) -> Optional[_FlowState]:
        flow = self.flows.pop(key, None)
        if flow is None:
            return None
        _release(self.src_counts, flow.src)
        _release(self.dst_counts, flow.dst)
        partner = flow.partner
        if partner is not None:
            partner.partner = flow.partner = None
            self.pair_count -= 2
        return flow


class FlowStateTable:
    """Live-flow state for the switches one Athena instance monitors.

    The update methods take the flow's ``keys`` (:func:`flow_keys`) from a
    caller that has them — the feature-state engine builds them once per
    fold.  A flow is paired with the live flow under its reverse key, and
    for that its indicators must hold no ``None`` value: the reverse of
    the reverse key is then the flow's own key, so the pair is found from
    whichever of the two is created second.  No key and no indicators are
    stored per flow; garbage collection only scans and drops.
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
        state = self._switches.get(dpid) or self._state(dpid)
        key, reverse_key = keys or flow_keys(indicators)
        flow = state.flows.get(key)
        is_new = flow is None
        if is_new:
            src = indicators.get("ip_src") or indicators.get("eth_src")
            dst = indicators.get("ip_dst") or indicators.get("eth_dst")
            # A flow that is its own reverse finds no partner: it is not
            # in the table yet.
            partner = state.flows.get(reverse_key)
            flow = state.flows[key] = _FlowState(src, dst, now, partner)
            state.src_counts[src] = state.src_counts.get(src, 0) + 1
            state.dst_counts[dst] = state.dst_counts.get(dst, 0) + 1
            if partner is not None:
                partner.partner = flow
                state.pair_count += 2
            state.new_flows_since_sample += 1
        flow.last_seen = now
        flow.samples += 1
        flow.packet_count = packet_count
        return {
            "PAIR_FLOW": 0.0 if flow.partner is None else 1.0,
            "FLOW_IS_NEW": 1.0 if is_new else 0.0,
            "FLOW_SAMPLE_COUNT": float(flow.samples),
            "SRC_FLOW_FANOUT": float(state.src_counts[flow.src]),
            "DST_FLOW_FANIN": float(state.dst_counts[flow.dst]),
        }

    def remove_flow(
        self,
        dpid: int,
        indicators: Dict[str, Any],
        keys: Optional[Tuple[FlowKey, FlowKey]] = None,
    ) -> bool:
        """Drop a flow on FLOW_REMOVED; returns whether it was tracked."""
        state = self._state(dpid)
        if state.drop_flow((keys or flow_keys(indicators))[0]) is not None:
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
                key
                for key, flow in state.flows.items()
                if now - flow.last_seen > self.stale_after
            ]
            for key in stale:
                state.drop_flow(key)
            evicted += len(stale)
        return evicted

    def tracked_flow_count(self, dpid: Optional[int] = None) -> int:
        if dpid is not None:
            state = self._switches.get(dpid)
            return len(state.flows) if state is not None else 0
        return sum(len(s.flows) for s in self._switches.values())

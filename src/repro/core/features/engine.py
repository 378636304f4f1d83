"""The feature-state engine: one fold per kind of flow observation.

:class:`FeatureStateEngine` is the Feature Generator's hash tables
(Section III-A2) for one consumer: the live-flow table, the variation
tracker, the per-switch control-message counters and — where its owner
gates it on — the ``SKETCH_*`` window.  Its folds turn a PACKET_IN, a
flow-stats entry or a FLOW_REMOVED into ``(indicators, fields)``,
building the flow's key and its reverse once for the table, the
variation entity and the window.  The polled
:class:`~repro.core.generator.FeatureGenerator` and the event-driven
:class:`~repro.streaming.pipeline.StreamingPipeline` are drivers over
it, each with an instance of its own (enabling streaming never perturbs
the batch records); the code is shared.
"""

# athena-lint: hot-path

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.features import combination, protocol
from repro.core.features.stateful import FlowStateTable, flow_indicators, key_items
from repro.core.features.variation import VariationTracker
from repro.openflow.messages import FlowRemoved, FlowStatsEntry, PacketIn
from repro.sketch.features import SketchFeatureState


class FeatureStateEngine:
    """Flow table + variation tracker + control counters + sketch window."""

    def __init__(
        self,
        stale_after: float = 60.0,
        port_speed_lookup: Optional[Callable[[int, int], float]] = None,
        window_gate: Optional[Callable[[int], bool]] = None,
        window_seed: int = 0,
    ) -> None:
        self.flow_state = FlowStateTable(stale_after=stale_after)
        self.variation = VariationTracker(stale_after=2 * stale_after)
        self._port_speed_lookup = port_speed_lookup
        self._control_counters: Dict[int, Dict[str, int]] = {}
        #: Says per switch whether observations also feed the sketch
        #: window; None (no owner asks for SKETCH records) keeps it off.
        #: The owner may swap it whenever its sketch decision changes.
        self.window_gate = window_gate
        self._window_seed = window_seed
        #: Built on the first gated observation, so runs that never
        #: sketch pay nothing.
        self.window: Optional[SketchFeatureState] = None

    # -- per-observation folds ---------------------------------------------

    def fold_packet_in(self, dpid: int, message: PacketIn, now: float) -> tuple:
        """Fold a PACKET_IN (a new-flow observation)."""
        indicators, keys = flow_indicators(message.headers)
        fields = self.flow_state.observe_flow(dpid, indicators, now, keys=keys)
        fields["FLOW_PACKET_COUNT"] = 0.0
        fields["FLOW_BYTE_COUNT"] = float(message.total_len)
        self._window_observe(dpid, keys[0], indicators, 1, message.total_len)
        return indicators, fields

    def fold_flow_stats_entry(
        self, dpid: int, entry: FlowStatsEntry, now: float
    ) -> tuple:
        """Fold one entry of an Athena-marked flow-stats reply."""
        port_speed = None
        if self._port_speed_lookup is not None:
            port_speed = self._port_speed_lookup(dpid, -1)
        indicators, fields, keys, _ = self._sample(
            dpid, entry, protocol.flow_fields(entry), port_speed, now
        )
        # The window takes the per-sample delta when the rule was seen
        # before (cumulative counters would double-count) and the full
        # count on its first sample.
        self._window_observe(
            dpid,
            keys[0],
            indicators,
            fields.get("FLOW_PACKET_COUNT_VAR", fields["FLOW_PACKET_COUNT"]),
            fields.get("FLOW_BYTE_COUNT_VAR", fields["FLOW_BYTE_COUNT"]),
        )
        return indicators, fields

    def fold_flow_removed(self, dpid: int, message: FlowRemoved, now: float) -> tuple:
        """Fold a FLOW_REMOVED: the flow's final sample, then forget it."""
        indicators, fields, keys, entity = self._sample(
            dpid, message, protocol.removed_flow_fields(message), None, now
        )
        self.flow_state.remove_flow(dpid, indicators, keys)
        self.variation.forget(entity)
        return indicators, fields

    def _sample(self, dpid, source, fields, port_speed, now):
        """Protocol fields of a rule sample → the full flow record fields."""
        indicators, keys = flow_indicators(source.match.to_dict())
        fields.update(combination.flow_fields(fields, port_speed))
        fields.update(
            self.flow_state.observe_flow(
                dpid, indicators, now, fields["FLOW_PACKET_COUNT"], keys
            )
        )
        # The entity is the *rule* (priority + cookie), not just the
        # match: distinct rules covering the same headers must not share
        # a variation baseline, and a reinstalled rule (fresh cookie)
        # restarts from zero rather than producing a negative delta.
        entity = (dpid, "flow", keys[0], source.priority, source.cookie)
        fields.update(self.variation.diff(entity, fields, now))
        return indicators, fields, keys, entity

    def _window_observe(self, dpid, key, indicators, packets, bytes_) -> None:
        """Feed the sketch window, where the owner's gate admits the switch."""
        gate = self.window_gate
        if gate is None or not gate(dpid):
            return
        if self.window is None:
            self.window = SketchFeatureState(seed=self._window_seed)
        self.window.observe(
            dpid,
            key_items(key),
            indicators.get("ip_src") or indicators.get("eth_src") or "",
            indicators.get("tcp_dst") or 0,
            packets=int(packets),
            bytes_=int(bytes_),
        )

    # -- control-message counters --------------------------------------------

    def count_message(self, dpid: int, key: Optional[str], size: int = 0) -> None:
        """Count one control message of a switch (``key`` None: bytes only)."""
        counters = self._control_counters.get(dpid)
        if counters is None:
            counters = self._control_counters[dpid] = {"bytes": 0}
        if key is not None:
            counters[key] = counters.get(key, 0) + 1
        counters["bytes"] += size

    def control_fields(self, dpid: int) -> Optional[Dict[str, float]]:
        """Control-scope counter fields; None until a message was counted."""
        counters = self._control_counters.get(dpid)
        if counters is None:
            return None
        return protocol.control_counter_fields(counters)

    # -- reads and housekeeping ------------------------------------------------

    def switch_fields(self, dpid: int) -> Dict[str, float]:
        """Non-resetting switch-scope snapshot (safe to read per event)."""
        return self.flow_state.switch_snapshot(dpid)

    def collect_garbage(self, now: float) -> int:
        """Evict stale flow/variation entries; returns eviction count."""
        return self.flow_state.collect_garbage(now) + self.variation.collect_garbage(
            now
        )

"""The Feature Generator (Figure 3, component 1B).

Consumes the control messages and events of one controller instance and
produces :class:`~repro.core.feature_format.AthenaFeature` records:

* FLOW stats replies → flow-scoped records (protocol + combination +
  stateful + variation fields), with the originating application attached
  from the FlowRule subsystem (flow-origin meta data);
* PORT stats replies → port-scoped records;
* TABLE/AGGREGATE stats replies → switch-scoped records;
* FLOW_REMOVED → final flow records and state-table eviction;
* the message tap → per-switch control-plane counters that become
  control-scoped records each sampling round.

Fidelity controls (which scopes, categories, and switches are monitored)
are mutated by the Resource Manager; the garbage collector periodically
drops stale hash-table entries.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from repro import config as _config
from repro.config import RuntimeConfig
from repro.controller.events import (
    FlowRemovedEvent,
    MessageDirection,
    PacketInEvent,
    StatsEvent,
)
from repro.core.feature_format import AthenaFeature, FeatureScope
from repro.core.features import combination, protocol
from repro.core.features.catalog import FEATURE_CATALOG, FeatureCategory
from repro.core.features.engine import FeatureStateEngine
from repro.openflow.constants import MessageType
from repro.openflow.messages import (
    AggregateStatsReply,
    FlowStatsReply,
    OpenFlowMessage,
    PortStatsReply,
    TableStatsReply,
)
from repro.sketch.features import SketchFeatureState
from repro.telemetry import StageProfiler, get_telemetry

FeatureSink = Callable[[AthenaFeature], None]

#: OpenFlow message type → the control counter the tap bumps.
_TAP_COUNTER_KEYS = {
    MessageType.PACKET_IN: "packet_in",
    MessageType.PACKET_OUT: "packet_out",
    MessageType.FLOW_MOD: "flow_mod",
    MessageType.FLOW_REMOVED: "flow_removed",
    MessageType.PORT_STATUS: "port_status",
    MessageType.STATS_REQUEST: "stats_request",
    MessageType.STATS_REPLY: "stats_reply",
    MessageType.ECHO_REQUEST: "echo",
    MessageType.ECHO_REPLY: "echo",
    MessageType.BARRIER_REQUEST: "barrier",
    MessageType.BARRIER_REPLY: "barrier",
}
#: Every category: the fidelity setting that filters no field.
_ALL_CATEGORIES = frozenset(FeatureCategory)

#: Sketch structure → its (fill, error) entries in the window's fill stats.
_SKETCH_GAUGES = {
    "cms": ("cms_fill_ratio", "cms_error_bound"),
    "hll": ("hll_fill_ratio", "hll_relative_error"),
    "bloom": ("bloom_fill_ratio", "bloom_fp_bound"),
}


class FeatureGenerator:
    """Feature extraction state machine for one Athena instance."""

    def __init__(
        self,
        instance_id: int,
        sink: Optional[FeatureSink] = None,
        flow_rule_lookup: Optional[Callable] = None,
        port_speed_lookup: Optional[Callable[[int, int], float]] = None,
        stale_after: float = 60.0,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.instance_id = instance_id
        #: A pinned runtime config; None follows the process's current one.
        self._config = config
        self.sink = sink
        self._flow_rule_lookup = flow_rule_lookup
        self._port_speed_lookup = port_speed_lookup
        #: The hash tables (Section III-A2); the sketch window is seeded
        #: from the instance id for run-to-run determinism.
        self.state = FeatureStateEngine(
            stale_after=stale_after,
            port_speed_lookup=port_speed_lookup,
            window_gate=self._sketching,
            window_seed=instance_id,
        )
        self.flow_state = self.state.flow_state
        self.variation = self.state.variation
        self._last_table_fields: Dict[int, Dict[str, float]] = {}
        self._last_agg_fields: Dict[int, Dict[str, float]] = {}
        # Fidelity controls (driven by the Resource Manager).
        self.enabled_scopes: Set[FeatureScope] = set(FeatureScope)
        self.enabled_categories: Set[FeatureCategory] = set(FeatureCategory)
        self.monitored_switches: Optional[Set[int]] = None  # None == all
        self.features_generated = 0
        self.records_suppressed = 0
        # Telemetry: per-scope emission counters plus per-extraction-stage
        # timings (null objects when telemetry is disabled).
        registry = get_telemetry().registry
        records = registry.counter(
            "athena_feature_records_total",
            "Feature records emitted by the generator, by scope.",
            labelnames=("scope",),
        )
        self._metric_records = {
            scope: records.labels(scope=scope.value) for scope in FeatureScope
        }
        self._profiler = StageProfiler(
            metric="athena_feature_stage_seconds", registry=registry
        )
        self._metric_sketch_fill = registry.gauge(
            "athena_sketch_fill_ratio",
            "Mean sketch fill ratio across switches, by structure.",
            labelnames=("structure",),
        )
        self._metric_sketch_error = registry.gauge(
            "athena_sketch_error_bound",
            "Worst-case sketch error bound across switches, by structure.",
            labelnames=("structure",),
        )
        # Cache for _filter_categories: names suppressed under a given
        # enabled-category set, recomputed only when the Resource Manager
        # swaps enabled_categories (it reassigns the set, so identity of
        # the frozen key is enough to detect a change).
        self._suppressed_key: Optional[frozenset] = None
        self._suppressed_names: frozenset = frozenset()

    # -- configuration ------------------------------------------------------

    def _monitoring(self, dpid: int, scope: FeatureScope) -> bool:
        if scope not in self.enabled_scopes:
            return False
        if self.monitored_switches is not None and dpid not in self.monitored_switches:
            return False
        return True

    def _emit(
        self, scope, dpid, now, fields, indicators=None, app_id=None, port_no=None
    ) -> None:
        """Emit one record of ``scope`` with the enabled categories' fields."""
        record = AthenaFeature(
            scope=scope,
            switch_id=dpid,
            instance_id=self.instance_id,
            timestamp=now,
            indicators=indicators if indicators is not None else {},
            app_id=app_id,
            port_no=port_no,
            fields=self._filter_categories(fields),
        )
        self.features_generated += 1
        self._metric_records[scope].inc()
        if self.sink is not None:
            self.sink(record)

    def _suppressed_under(self, enabled: Set[FeatureCategory]) -> frozenset:
        """Catalog names suppressed under ``enabled``, cached per set.

        The per-record hot loop used to re-import the catalog and look up
        every field's category on each call; the suppressed-name set only
        changes when the Resource Manager adjusts fidelity, so it is
        precomputed once per ``enabled_categories`` value.
        """
        key = frozenset(enabled)
        if key != self._suppressed_key:
            self._suppressed_key = key
            self._suppressed_names = frozenset(
                name
                for name, definition in FEATURE_CATALOG.items()
                if definition.category not in key
            )
        return self._suppressed_names

    def _filter_categories(self, fields: Dict[str, float]) -> Dict[str, float]:
        if self.enabled_categories == _ALL_CATEGORIES:
            return fields
        suppressed = self._suppressed_under(self.enabled_categories)
        if not suppressed:
            return fields
        kept = {}
        for name, value in fields.items():
            if name in suppressed:
                self.records_suppressed += 1
            else:
                kept[name] = value
        return kept

    # -- sketch path (config.sketch) ----------------------------------------

    def _sketching(self, dpid: int) -> bool:
        """Whether the switch's observations feed the sketch window."""
        config = self._config or _config.ACTIVE  # per event: no call
        return config.sketch and self._monitoring(dpid, FeatureScope.SKETCH)

    @property
    def sketch_state(self) -> Optional[SketchFeatureState]:
        """The engine's sketch window; None until something was sketched."""
        return self.state.window

    def _emit_sketch_record(self, dpid: int, now: float) -> None:
        """Roll the switch's sketch window into one sketch-scoped record."""
        window = self.state.window
        if window is None or not self._sketching(dpid) or not window.observations(dpid):
            return
        # Snapshot fill/error stats before the roll resets the window.
        stats = window.fill_stats()
        fields = window.roll(dpid)
        for structure, (fill, error) in _SKETCH_GAUGES.items():
            self._metric_sketch_fill.labels(structure=structure).set(stats[fill])
            self._metric_sketch_error.labels(structure=structure).set(stats[error])
        self._emit(FeatureScope.SKETCH, dpid, now, fields)

    def sketch_stats(self) -> Optional[Dict[str, float]]:
        """Aggregate sketch fill/error stats, or None while inactive."""
        window = self.state.window
        return window.fill_stats() if window is not None else None

    # -- event entry points -----------------------------------------------------

    def on_stats_event(self, event: StatsEvent) -> None:
        """Handle a statistics reply from the local controller."""
        message = event.message
        if isinstance(message, FlowStatsReply):
            with self._profiler.stage("flow_stats"):
                self._on_flow_stats(event.dpid, message, event.time)
        elif isinstance(message, PortStatsReply):
            with self._profiler.stage("port_stats"):
                self._on_port_stats(event.dpid, message, event.time)
        elif isinstance(message, TableStatsReply):
            with self._profiler.stage("table_stats"):
                self._on_table_stats(event.dpid, message, event.time)
        elif isinstance(message, AggregateStatsReply):
            with self._profiler.stage("aggregate_stats"):
                self._on_aggregate_stats(event.dpid, message, event.time)

    def on_packet_in(self, event: PacketInEvent) -> None:
        """Derive a flow record from a PACKET_IN (a new-flow observation).

        This is the per-event extraction path the Cbench experiment
        stresses: every punted packet updates the stateful tables and emits
        a record (which the deployment then publishes to the database).
        """
        self._on_flow_event("packet_in", self.state.fold_packet_in, event)

    def on_flow_removed(self, event: FlowRemovedEvent) -> None:
        """Final sample of an evicted flow, then forget its state."""
        self._on_flow_event(
            "flow_removed", self.state.fold_flow_removed, event, event.message.app_id
        )

    def _on_flow_event(self, stage: str, fold, event, app_id=None) -> None:
        """Fold one flow event through the engine into a flow record."""
        dpid = event.dpid
        if not self._monitoring(dpid, FeatureScope.FLOW):
            return
        with self._profiler.stage(stage):
            indicators, fields = fold(dpid, event.message, event.time)
            self._emit(FeatureScope.FLOW, dpid, event.time, fields, indicators, app_id)

    def on_message_tap(
        self, msg: OpenFlowMessage, direction: MessageDirection, instance_id: int
    ) -> None:
        """Count every control message crossing the instance."""
        self.state.count_message(
            msg.dpid, _TAP_COUNTER_KEYS.get(msg.msg_type), msg.size_bytes()
        )

    # -- per-message-type handlers ---------------------------------------------------

    def _on_flow_stats(self, dpid: int, reply: FlowStatsReply, now: float) -> None:
        if not self._monitoring(dpid, FeatureScope.FLOW):
            return
        for entry in reply.entries:
            indicators, fields = self.state.fold_flow_stats_entry(dpid, entry, now)
            app_id = entry.app_id
            if app_id is None and self._flow_rule_lookup is not None:
                app_id = self._flow_rule_lookup(dpid, entry.match)
            self._emit(FeatureScope.FLOW, dpid, now, fields, indicators, app_id)
        # One switch-scope stateful record per flow-stats round.
        if self._monitoring(dpid, FeatureScope.SWITCH):
            switch_fields = self.flow_state.switch_fields(dpid, now)
            entity = (dpid, "switch-state")
            switch_fields.update(self.variation.diff(entity, switch_fields, now))
            self._emit(FeatureScope.SWITCH, dpid, now, switch_fields)
        # Sketch-scope record: the window accumulated since the last round.
        self._emit_sketch_record(dpid, now)
        # Control-plane record: counters accumulated since the last round.
        self._emit_control_record(dpid, now)

    def _on_port_stats(self, dpid: int, reply: PortStatsReply, now: float) -> None:
        if not self._monitoring(dpid, FeatureScope.PORT):
            return
        for entry in reply.entries:
            fields = protocol.port_fields(entry)
            entity = (dpid, "port", entry.port_no)
            previous = self.variation.previous_fields(entity)
            last_time = self.variation.last_sample_time(entity)
            delta_seconds = now - last_time if last_time is not None else None
            delta_bytes = None
            if previous:
                delta_bytes = (
                    fields["PORT_RX_BYTES"]
                    + fields["PORT_TX_BYTES"]
                    - previous.get("PORT_RX_BYTES", 0.0)
                    - previous.get("PORT_TX_BYTES", 0.0)
                )
            speed = None
            if self._port_speed_lookup is not None:
                speed = self._port_speed_lookup(dpid, entry.port_no)
            fields.update(
                combination.port_fields(fields, speed, delta_seconds, delta_bytes)
            )
            fields.update(self.variation.diff(entity, fields, now))
            self._emit(FeatureScope.PORT, dpid, now, fields, port_no=entry.port_no)

    def _on_table_stats(self, dpid: int, reply: TableStatsReply, now: float) -> None:
        if not self._monitoring(dpid, FeatureScope.SWITCH):
            return
        for entry in reply.entries:
            fields = protocol.table_fields(entry)
            self._last_table_fields[dpid] = fields
            merged = dict(fields)
            merged.update(
                combination.switch_fields(
                    fields,
                    self._last_agg_fields.get(dpid, {}),
                    table_capacity=float(entry.max_entries),
                )
            )
            entity = (dpid, "table", entry.table_id)
            merged.update(self.variation.diff(entity, merged, now))
            self._emit(FeatureScope.SWITCH, dpid, now, merged)

    def _on_aggregate_stats(
        self, dpid: int, reply: AggregateStatsReply, now: float
    ) -> None:
        if not self._monitoring(dpid, FeatureScope.SWITCH):
            return
        fields = protocol.aggregate_fields(
            reply.packet_count, reply.byte_count, reply.flow_count
        )
        self._last_agg_fields[dpid] = fields
        merged = dict(fields)
        merged.update(
            combination.switch_fields(self._last_table_fields.get(dpid, {}), fields)
        )
        entity = (dpid, "aggregate")
        merged.update(self.variation.diff(entity, merged, now))
        self._emit(FeatureScope.SWITCH, dpid, now, merged)

    def _emit_control_record(self, dpid: int, now: float) -> None:
        if not self._monitoring(dpid, FeatureScope.CONTROL):
            return
        fields = self.state.control_fields(dpid)
        if fields is None:
            return
        entity = (dpid, "control")
        last_time = self.variation.last_sample_time(entity)
        variations = self.variation.diff(entity, fields, now)
        fields.update(variations)
        delta_seconds = now - last_time if last_time is not None else None
        fields.update(combination.control_fields(variations, delta_seconds))
        self._emit(FeatureScope.CONTROL, dpid, now, fields)

    # -- housekeeping ---------------------------------------------------------------

    def collect_garbage(self, now: float) -> int:
        """Evict stale entries from every hash table; returns eviction count."""
        return self.state.collect_garbage(now)

"""The Feature Generator (Figure 3, component 1B).

Consumes the control messages and events of one controller instance and
produces feature records, each handed to the sink as the flat document
:meth:`~repro.core.feature_format.AthenaFeature.to_document` would build:

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

# athena-lint: hot-path

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set

from repro import config as _config
from repro.config import RuntimeConfig
from repro.controller.events import (
    FlowRemovedEvent,
    MessageDirection,
    PacketInEvent,
    StatsEvent,
)
from repro.core.feature_format import FeatureScope, feature_document
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

#: Takes each record as its flat document (``AthenaFeature.to_document``).
FeatureSink = Callable[[Dict[str, Any]], None]

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
#: Scope values, as the documents and the per-scope counters carry them.
_FLOW, _PORT = FeatureScope.FLOW.value, FeatureScope.PORT.value
_SWITCH, _CONTROL = FeatureScope.SWITCH.value, FeatureScope.CONTROL.value
_SKETCH = FeatureScope.SKETCH.value

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
        # Telemetry: per-scope emission counters plus per-extraction-stage
        # timings, touched only when telemetry was on at construction.
        registry = get_telemetry().registry
        self._telemetry_on = registry.enabled
        records = registry.counter(
            "athena_feature_records_total",
            "Feature records emitted by the generator, by scope.",
            labelnames=("scope",),
        )
        self._metric_records = {
            scope.value: records.labels(scope=scope.value) for scope in FeatureScope
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
        # Catalog names the enabled categories leave out (None: all enabled).
        self._suppressed_key: Optional[frozenset] = None
        self._suppressed_names: frozenset = frozenset()
        self._replan()
        if config is None:
            _config.watch(self)

    # -- configuration ------------------------------------------------------

    def _replan(self) -> None:
        """Take the per-event fidelity and sketch decisions again: events
        compare the two sets with the snapshots taken here (an in-place
        edit counts); :func:`repro.config.watch` reports config changes."""
        scopes = self._planned_scopes = frozenset(self.enabled_scopes)
        categories = self._planned_categories = frozenset(self.enabled_categories)
        self._scope_values = frozenset(scope.value for scope in scopes)
        if categories == _ALL_CATEGORIES:
            self._suppressed_key, self._suppressed_names = None, frozenset()
        elif categories != self._suppressed_key:
            self._suppressed_key = categories
            self._suppressed_names = frozenset(
                name for name, spec in FEATURE_CATALOG.items()
                if spec.category not in categories
            )
        sketching = (self._config or _config.ACTIVE).sketch and FeatureScope.SKETCH in scopes
        self.state.window_gate = self._switch_monitored if sketching else None

    on_config_change = _replan

    def _switch_monitored(self, dpid: int) -> bool:
        switches = self.monitored_switches
        return switches is None or dpid in switches

    def _monitoring(self, dpid: int, scope: str) -> bool:
        if self.enabled_scopes != self._planned_scopes:
            self._replan()
        switches = self.monitored_switches
        return scope in self._scope_values and (switches is None or dpid in switches)

    def _emit(
        self, scope, dpid, now, fields, indicators=None, app_id=None, port_no=None
    ) -> None:
        """Emit one record of ``scope`` with the enabled categories' fields."""
        if self.enabled_categories != self._planned_categories:
            self._replan()
        suppressed = self._suppressed_names
        if suppressed:
            fields = {k: v for k, v in fields.items() if k not in suppressed}
        self.features_generated += 1
        if self._telemetry_on:
            self._metric_records[scope].inc()
        if self.sink is not None:
            self.sink(feature_document(
                scope, dpid, self.instance_id, now, indicators or {}, fields,
                app_id, port_no,
            ))

    def _staged(self, stage: str, handle: Callable, *args: Any) -> None:
        """Run one extraction stage, timed when telemetry is on."""
        if not self._telemetry_on:
            return handle(*args)
        with self._profiler.stage(stage):
            return handle(*args)

    # -- sketch path (config.sketch) ----------------------------------------

    @property
    def sketch_state(self) -> Optional[SketchFeatureState]:
        """The engine's sketch window; None until something was sketched."""
        return self.state.window

    def _emit_sketch_record(self, dpid: int, now: float) -> None:
        """Roll the switch's sketch window into one sketch-scoped record."""
        window, gate = self.state.window, self.state.window_gate
        if window is None or gate is None or not (gate(dpid) and window.observations(dpid)):
            return
        # Snapshot fill/error stats before the roll resets the window.
        stats = window.fill_stats()
        fields = window.roll(dpid)
        for structure, (fill, error) in _SKETCH_GAUGES.items():
            self._metric_sketch_fill.labels(structure=structure).set(stats[fill])
            self._metric_sketch_error.labels(structure=structure).set(stats[error])
        self._emit(_SKETCH, dpid, now, fields)

    def sketch_stats(self) -> Optional[Dict[str, float]]:
        """Aggregate sketch fill/error stats, or None while inactive."""
        window = self.state.window
        return window.fill_stats() if window is not None else None

    # -- event entry points -----------------------------------------------------

    def on_stats_event(self, event: StatsEvent) -> None:
        """Handle a statistics reply from the local controller."""
        message = event.message
        if isinstance(message, FlowStatsReply):
            stage, handle = "flow_stats", self._on_flow_stats
        elif isinstance(message, PortStatsReply):
            stage, handle = "port_stats", self._on_port_stats
        elif isinstance(message, TableStatsReply):
            stage, handle = "table_stats", self._on_table_stats
        elif isinstance(message, AggregateStatsReply):
            stage, handle = "aggregate_stats", self._on_aggregate_stats
        else:
            return
        self._staged(stage, handle, event.dpid, message, event.time)

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
        if self._monitoring(event.dpid, _FLOW):
            self._staged(stage, self._fold_flow_event, fold, event, app_id)

    def _fold_flow_event(self, fold, event, app_id) -> None:
        dpid, now = event.dpid, event.time
        indicators, fields = fold(dpid, event.message, now)
        self._emit(_FLOW, dpid, now, fields, indicators, app_id)

    def on_message_tap(
        self, msg: OpenFlowMessage, direction: MessageDirection, instance_id: int
    ) -> None:
        """Count every control message crossing the instance."""
        self.state.count_message(
            msg.dpid, _TAP_COUNTER_KEYS.get(msg.msg_type), msg.size_bytes()
        )

    # -- per-message-type handlers ---------------------------------------------------

    def _on_flow_stats(self, dpid: int, reply: FlowStatsReply, now: float) -> None:
        if not self._monitoring(dpid, _FLOW):
            return
        for entry in reply.entries:
            indicators, fields = self.state.fold_flow_stats_entry(dpid, entry, now)
            app_id = entry.app_id
            if app_id is None and self._flow_rule_lookup is not None:
                app_id = self._flow_rule_lookup(dpid, entry.match)
            self._emit(_FLOW, dpid, now, fields, indicators, app_id)
        # One switch-scope stateful record per flow-stats round.
        if self._monitoring(dpid, _SWITCH):
            switch_fields = self.flow_state.switch_fields(dpid, now)
            entity = (dpid, "switch-state")
            switch_fields.update(self.variation.diff(entity, switch_fields, now))
            self._emit(_SWITCH, dpid, now, switch_fields)
        # Sketch-scope record: the window accumulated since the last round.
        self._emit_sketch_record(dpid, now)
        # Control-plane record: counters accumulated since the last round.
        self._emit_control_record(dpid, now)

    def _on_port_stats(self, dpid: int, reply: PortStatsReply, now: float) -> None:
        if not self._monitoring(dpid, _PORT):
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
            self._emit(_PORT, dpid, now, fields, port_no=entry.port_no)

    def _on_table_stats(self, dpid: int, reply: TableStatsReply, now: float) -> None:
        if not self._monitoring(dpid, _SWITCH):
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
            self._emit(_SWITCH, dpid, now, merged)

    def _on_aggregate_stats(
        self, dpid: int, reply: AggregateStatsReply, now: float
    ) -> None:
        if not self._monitoring(dpid, _SWITCH):
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
        self._emit(_SWITCH, dpid, now, merged)

    def _emit_control_record(self, dpid: int, now: float) -> None:
        if not self._monitoring(dpid, _CONTROL):
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
        self._emit(_CONTROL, dpid, now, fields)

    # -- housekeeping ---------------------------------------------------------------

    def collect_garbage(self, now: float) -> int:
        """Evict stale entries from every hash table; returns eviction count."""
        return self.state.collect_garbage(now)

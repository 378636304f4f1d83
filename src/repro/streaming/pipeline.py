"""The streaming pipeline: EventBus events → stream events → detectors.

A :class:`StreamingPipeline` subscribes to every controller instance's
bus (PacketIn, FlowRemoved, Athena-marked stats replies) and folds each
event through :class:`~repro.streaming.state.StreamingFeatureState`
into a :class:`StreamEvent` — one flat record carrying the event's
origin, sim timestamp, match indicators, and catalog-named feature
fields.  Subscribed sinks (normally a
:class:`~repro.streaming.detector.StreamingDetectorManager`) receive
each stream event synchronously; the whole fold+detect path is O(d)
per event and instrumented with a wall-clock latency histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.controller.events import (
    FlowRemovedEvent,
    PacketInEvent,
    StatsEvent,
)
from repro.core.feature_format import FeatureScope
from repro.streaming.state import StreamingFeatureState
from repro.openflow.messages import FlowStatsReply
from repro.telemetry import Stopwatch, get_telemetry


@dataclass(slots=True)
class StreamEvent:
    """One folded event on its way to the online detectors."""

    kind: str  # "packet_in" | "flow_removed" | "flow_stats"
    scope: FeatureScope
    dpid: int
    instance_id: int
    time: float  # sim clock
    indicators: Dict[str, Any] = field(default_factory=dict)
    fields: Dict[str, float] = field(default_factory=dict)


StreamSink = Callable[[StreamEvent], None]


class StreamingPipeline:
    """Event-driven feature folding for one Athena deployment."""

    def __init__(
        self,
        stale_after: float = 60.0,
        port_speed_lookup: Optional[Callable[[int, int], float]] = None,
    ) -> None:
        self._stale_after = stale_after
        #: Handed to every instance's state (``FLOW_UTILIZATION``).
        self._port_speed_lookup = port_speed_lookup
        #: instance_id -> its private incremental feature state.
        self.states: Dict[int, StreamingFeatureState] = {}
        self._sinks: List[StreamSink] = []
        self._attached: List = []  # (bus, event_type, handler) triples
        self.events_processed = 0
        self.events_by_kind: Dict[str, int] = {
            "packet_in": 0, "flow_removed": 0, "flow_stats": 0
        }
        registry = get_telemetry().registry
        events = registry.counter(
            "athena_streaming_events_total",
            "Events folded by the streaming pipeline, by kind.",
            labelnames=("kind",),
        )
        self._metric_events = {
            kind: events.labels(kind=kind) for kind in self.events_by_kind
        }
        self._latency = registry.histogram(
            "athena_streaming_event_seconds",
            "Wall-clock event→verdict latency of the streaming hot path.",
        )

    # -- wiring -------------------------------------------------------------

    def add_sink(self, sink: StreamSink) -> None:
        """Register a consumer of stream events (e.g. a detector manager)."""
        if sink not in self._sinks:
            self._sinks.append(sink)

    def attach_instance(self, instance_id: int, bus) -> None:
        """Subscribe to one controller instance's event bus.

        Subscriptions added mid-dispatch take effect from the *next*
        event (the EventBus defers them deterministically).
        """
        if instance_id in self.states:
            return
        self.states[instance_id] = StreamingFeatureState(
            stale_after=self._stale_after,
            port_speed_lookup=self._port_speed_lookup,
        )
        for event_type, kind in (
            (PacketInEvent, "packet_in"),
            (FlowRemovedEvent, "flow_removed"),
            (StatsEvent, "flow_stats"),
        ):
            handler = partial(self._on_event, instance_id, kind)
            bus.subscribe(event_type, handler)
            self._attached.append((bus, event_type, handler))

    def attach(self, deployment) -> None:
        """Subscribe to every instance of an AthenaDeployment."""
        for instance in deployment.instances:
            self.attach_instance(
                instance.instance_id, instance.controller.bus
            )

    def detach(self) -> None:
        for bus, event_type, handler in self._attached:
            bus.unsubscribe(event_type, handler)
        self._attached.clear()

    # -- event handling ---------------------------------------------------

    def _on_event(self, instance_id: int, kind: str, event) -> None:
        """Fold one bus event into stream events (one per stats entry)."""
        state = self.states[instance_id]
        message = event.message
        if kind == "packet_in":
            fold, items = state.fold_packet_in, (message,)
        elif kind == "flow_removed":
            fold, items = state.fold_flow_removed, (message,)
        elif event.athena_marked and isinstance(message, FlowStatsReply):
            # Only Athena-requested replies carry the sampling semantics the
            # feature definitions assume (mirrors SouthboundElement._on_stats).
            fold, items = state.fold_flow_stats_entry, message.entries
        else:
            return
        dpid, now = event.dpid, event.time
        if kind != "flow_stats":
            # A stream kind that is itself a control message bears the
            # name of its counter.
            state.count_message(dpid, kind)
        metric, sinks, latency = self._metric_events[kind], self._sinks, self._latency
        # A disabled registry's histogram is the null instrument: do not
        # read a clock per event only to discard the reading.
        timed = latency.enabled
        for item in items:
            watch = Stopwatch() if timed else None
            indicators, fields = fold(dpid, item, now)
            self.events_processed += 1
            self.events_by_kind[kind] += 1
            metric.inc()
            stream_event = StreamEvent(
                kind=kind,
                scope=FeatureScope.FLOW,
                dpid=dpid,
                instance_id=instance_id,
                time=now,
                indicators=indicators,
                fields=fields,
            )
            for sink in sinks:
                sink(stream_event)
            if watch is not None:
                latency.observe(watch.elapsed())

    # -- snapshots ----------------------------------------------------------

    def switch_fields(self, instance_id: int, dpid: int) -> Dict[str, float]:
        """Current switch-scope snapshot for one instance's view of a switch."""
        return self.states[instance_id].switch_fields(dpid)

    def collect_garbage(self, now: float) -> int:
        return sum(s.collect_garbage(now) for s in self.states.values())

    def summary(self) -> Dict[str, Any]:
        return {
            "events_processed": self.events_processed,
            "events_by_kind": dict(self.events_by_kind),
            "instances": sorted(self.states),
        }

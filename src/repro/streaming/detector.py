"""Streaming detector manager: per-event scoring, bounded-latency alerts.

The hot path for every stream event is strictly fold → vector →
``predict_event`` → (``score_event`` only for an alert) → optional
``partial_fit``:

1. build the detector's feature vector from the event's fields
   (missing names read as 0.0 — catalog names are validated once, at
   registration, against FEATURE_CATALOG);
2. ``predict_event`` on the online learner (O(d) or O(trees·depth));
3. on a positive verdict outside the per-source cooldown, score the
   event with the pure ``score_event`` and append an alert — before
   absorbing, so the alert carries the pre-absorb score;
4. ``partial_fit`` the same observation (unsupervised absorption,
   unless the detector is frozen).

No model is ever retrained on this path; periodic maintenance
(:meth:`refresh`) runs off-path, scheduled on the sim clock by
``AthenaDeployment.enable_streaming``.  Alerts carry only sim-clock
timestamps, so two identical runs produce byte-identical alert
streams — :meth:`alert_stream_json` is the determinism contract the
equivalence suite asserts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.feature_format import FeatureScope
from repro.core.features.catalog import FEATURE_CATALOG
from repro.errors import AthenaError
from repro.ml.online import OnlineLearner
from repro.streaming.pipeline import StreamEvent
from repro.telemetry import get_telemetry


@dataclass
class _Detector:
    """One registered online detector."""

    name: str
    learner: OnlineLearner
    features: List[str]
    scope: FeatureScope
    cooldown: float
    warmup: int
    absorb: bool
    kinds: Optional[tuple]
    events_seen: int = 0
    alerts_emitted: int = 0
    #: source key -> sim time of the last alert (cooldown state).
    last_alert: Dict[Any, float] = field(default_factory=dict)


class StreamingAlert(dict):
    """An alert record (a dict, so it serialises like reaction history)."""


class StreamingDetectorManager:
    """Scores stream events through registered online learners."""

    def __init__(self) -> None:
        self._detectors: Dict[str, _Detector] = {}
        self.alerts: List[StreamingAlert] = []
        self.refreshes = 0
        registry = get_telemetry().registry
        self._metric_alerts = registry.counter(
            "athena_streaming_alerts_total",
            "Alerts emitted by streaming detectors.",
            labelnames=("detector",),
        )
        self._metric_scored = registry.counter(
            "athena_streaming_scored_total",
            "Stream events scored across all detectors.",
        )

    # -- registration -------------------------------------------------------

    def register_detector(
        self,
        name: str,
        learner: OnlineLearner,
        features: List[str],
        scope: FeatureScope = FeatureScope.FLOW,
        cooldown: float = 1.0,
        warmup: int = 0,
        absorb: bool = True,
        kinds: Optional[tuple] = None,
    ) -> None:
        """Register an online learner over a list of catalog feature names.

        ``warmup`` events are absorbed before any verdict is emitted;
        ``absorb=False`` freezes the model (score only, e.g. a learner
        warmed offline on a labelled dataset); ``kinds`` restricts the
        detector to a subset of event kinds (e.g. only sampled
        ``flow_stats``/``flow_removed`` records, skipping the zero-count
        ``packet_in`` observations).
        """
        if name in self._detectors:
            raise AthenaError(f"streaming detector {name!r} already registered")
        if not features:
            raise AthenaError("a streaming detector needs at least one feature")
        FEATURE_CATALOG.validate(features)
        self._detectors[name] = _Detector(
            name=name,
            learner=learner,
            features=list(features),
            scope=scope,
            cooldown=cooldown,
            warmup=warmup,
            absorb=absorb,
            kinds=tuple(kinds) if kinds is not None else None,
        )

    def unregister_detector(self, name: str) -> None:
        self._detectors.pop(name, None)

    @property
    def detector_count(self) -> int:
        return len(self._detectors)

    # -- hot path -----------------------------------------------------------

    @staticmethod
    def _source_key(event: StreamEvent) -> Any:
        return (
            event.indicators.get("ip_src")
            or event.indicators.get("eth_src")
            or event.dpid
        )

    def on_event(self, event: StreamEvent) -> None:
        """Score one stream event through every matching detector."""
        for detector in self._detectors.values():
            if detector.scope is not event.scope:
                continue
            if detector.kinds is not None and event.kind not in detector.kinds:
                continue
            detector.events_seen += 1
            self._metric_scored.inc()
            vector = [
                event.fields.get(name, 0.0) for name in detector.features
            ]
            if detector.events_seen <= detector.warmup:
                if detector.absorb:
                    detector.learner.partial_fit(vector)
                continue
            if detector.learner.predict_event(vector):
                self._alert(detector, event, vector)
            if detector.absorb:
                detector.learner.partial_fit(vector)

    def _alert(self, detector: _Detector, event: StreamEvent, vector) -> None:
        """Append an alert for a positive verdict outside its cooldown.

        Runs before the event is absorbed, so the alert carries the
        pre-absorb score; ``score_event`` is pure, so scoring only here
        gives the same alerts as scoring every event.
        """
        source = self._source_key(event)
        last = detector.last_alert.get(source)
        if last is not None and event.time - last < detector.cooldown:
            return
        detector.last_alert[source] = event.time
        detector.alerts_emitted += 1
        self._metric_alerts.labels(detector=detector.name).inc()
        self.alerts.append(
            StreamingAlert(
                detector=detector.name,
                kind=event.kind,
                sim_time=event.time,
                dpid=event.dpid,
                instance_id=event.instance_id,
                source=source,
                score=round(float(detector.learner.score_event(vector)), 9),
                features={
                    name: event.fields.get(name, 0.0)
                    for name in detector.features
                },
            )
        )

    # -- off-path maintenance ------------------------------------------------

    def refresh(self) -> None:
        """Periodic model maintenance (window swaps etc.) — off the hot path."""
        for detector in self._detectors.values():
            detector.learner.refresh()
        self.refreshes += 1

    # -- read views ----------------------------------------------------------

    def alert_stream_json(self) -> str:
        """Canonical JSON of the alert stream (byte-identical across
        identical same-seed runs — the determinism contract)."""
        return json.dumps(list(self.alerts), sort_keys=True)

    def alert_stream_digest(self) -> str:
        return hashlib.sha256(
            self.alert_stream_json().encode("utf-8")
        ).hexdigest()

    def flagged_sources(self, detector: Optional[str] = None) -> List[Any]:
        """Distinct alert sources, optionally for one detector."""
        sources = {
            alert["source"]
            for alert in self.alerts
            if detector is None or alert["detector"] == detector
        }
        return sorted(sources, key=str)

    def summaries(self) -> List[Dict[str, Any]]:
        return [
            {
                "name": d.name,
                "algorithm": type(d.learner).__name__,
                "features": list(d.features),
                "scope": d.scope.value,
                "events_seen": d.events_seen,
                "alerts_emitted": d.alerts_emitted,
                "cooldown": d.cooldown,
                "absorbing": d.absorb,
            }
            for d in self._detectors.values()
        ]

"""repro.streaming — event-driven detection with online learners.

The batch path (DetectorManager + FeatureManager) materialises features
per polling round and retrains models from scratch.  This subsystem is
the per-event alternative (docs/STREAMING.md):

* :class:`StreamingFeatureState` folds PacketIn / FlowRemoved / stats
  events into incremental feature state — running counts, rates, and
  variation statistics under their FEATURE_CATALOG names;
* :class:`StreamingPipeline` subscribes to each controller instance's
  EventBus and turns every event into a :class:`StreamEvent`;
* :class:`StreamingDetectorManager` judges each event through the
  online learners of :mod:`repro.ml.online` (``predict_event`` /
  ``partial_fit``, ``score_event`` only for an alert) and emits alerts
  with bounded per-event latency —
  no full retrain ever happens on the hot path; periodic model refresh
  runs off-path on the sim clock.
"""

from dataclasses import dataclass

from repro.streaming.detector import StreamingAlert, StreamingDetectorManager
from repro.streaming.pipeline import StreamEvent, StreamingPipeline
from repro.streaming.state import (
    STREAMING_CONTROL_FEATURES,
    STREAMING_FLOW_FEATURES,
    STREAMING_SWITCH_FEATURES,
    StreamingFeatureState,
)


@dataclass
class StreamingRuntime:
    """The wired streaming stack of one deployment (pipeline + detectors)."""

    pipeline: StreamingPipeline
    detectors: StreamingDetectorManager

    def summary(self) -> dict:
        return {
            **self.pipeline.summary(),
            "detectors": self.detectors.summaries(),
            "alerts_emitted": len(self.detectors.alerts),
            "refreshes": self.detectors.refreshes,
        }

__all__ = [
    "STREAMING_CONTROL_FEATURES",
    "STREAMING_FLOW_FEATURES",
    "STREAMING_SWITCH_FEATURES",
    "StreamEvent",
    "StreamingAlert",
    "StreamingRuntime",
    "StreamingDetectorManager",
    "StreamingFeatureState",
    "StreamingPipeline",
]

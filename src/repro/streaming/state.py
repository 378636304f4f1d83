"""Incremental feature state for the streaming pipeline.

:class:`StreamingFeatureState` is the pipeline's
:class:`~repro.core.features.engine.FeatureStateEngine`: the same folds
the polled FeatureGenerator runs, over tables of its own — one instance
per Athena instance, *separate* from the generator's, so enabling
streaming never perturbs the batch path (the equivalence tests rely on
this).  Every fold returns a flat ``{CATALOG_NAME: value}`` dict; the
names the streaming detectors may ask for are declared below as module
constants so the ATH2xx lint checker and :meth:`FeatureCatalog.validate`
both guard them against catalog drift.
"""

from __future__ import annotations

from repro.core.features.catalog import FEATURE_CATALOG
from repro.core.features.engine import FeatureStateEngine

#: Flow-scope features the streaming path computes per event.
STREAMING_FLOW_FEATURES = (
    "FLOW_PACKET_COUNT",
    "FLOW_BYTE_COUNT",
    "FLOW_BYTE_PER_PACKET",
    "FLOW_PACKET_PER_DURATION",
    "FLOW_BYTE_PER_DURATION",
    "PAIR_FLOW",
    "FLOW_IS_NEW",
    "FLOW_SAMPLE_COUNT",
    "SRC_FLOW_FANOUT",
    "DST_FLOW_FANIN",
)

#: Switch-scope features read from the non-resetting state snapshot.
STREAMING_SWITCH_FEATURES = (
    "PAIR_FLOW_RATIO",
    "SINGLE_FLOW_RATIO",
    "TOTAL_TRACKED_FLOWS",
    "UNIQUE_SRC_COUNT",
    "UNIQUE_DST_COUNT",
    "FLOWS_PER_SRC",
    "FLOWS_PER_DST",
)

#: Control-scope features folded from per-switch message counters.
STREAMING_CONTROL_FEATURES = (
    "PACKET_IN_COUNT",
    "FLOW_REMOVED_COUNT",
    "CONTROL_MSG_TOTAL",
)

# Fail at import time if any streaming feature name drifts from Table I.
FEATURE_CATALOG.validate(
    STREAMING_FLOW_FEATURES
    + STREAMING_SWITCH_FEATURES
    + STREAMING_CONTROL_FEATURES
)


class StreamingFeatureState(FeatureStateEngine):
    """Per-instance incremental feature tables for the streaming path.

    The folds are bound on this class as well as inherited: span tracing
    wraps methods on the class that owns them, and time spent folding
    for the pipeline must not be booked to the generator's engine (or
    the reverse).
    """

    fold_packet_in = FeatureStateEngine.fold_packet_in
    fold_flow_removed = FeatureStateEngine.fold_flow_removed
    fold_flow_stats_entry = FeatureStateEngine.fold_flow_stats_entry

"""repro.telemetry — unified metrics, tracing, and profiling.

The observability substrate of the Athena reproduction (docs/TELEMETRY.md):

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` primitives — label-aware, snapshot-able, and
  near-free when disabled (the default);
* span-based tracing with nested spans, dual wall/sim-clock durations,
  and a bounded ring-buffer exporter;
* profiling hooks (:func:`timed`, :class:`StageProfiler`) that
  aggregate into histograms;
* exposition — Prometheus text, JSON snapshots, and summary tables —
  surfaced by ``python -m repro.cli metrics`` and the UI Manager.

Enable with ``ATHENA_TELEMETRY=1`` in the environment (the ``telemetry``
field of :mod:`repro.config`) or ``telemetry.configure(enabled=True)``
*before* constructing deployments
(components bind their instruments at construction time).
"""

from __future__ import annotations

from repro.telemetry.clocks import Stopwatch, cpu_now, wall_now
from repro.telemetry.exposition import summary_rows, to_json, to_prometheus_text
from repro.telemetry.profiling import StageProfiler, timed
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NullInstrument,
)
from repro.telemetry.runtime import (
    Telemetry,
    configure,
    get_telemetry,
    reset_telemetry,
)
from repro.telemetry.tracing import SpanRecord, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NullInstrument",
    "SpanRecord",
    "StageProfiler",
    "Stopwatch",
    "Telemetry",
    "Tracer",
    "configure",
    "cpu_now",
    "get_telemetry",
    "reset_telemetry",
    "summary_rows",
    "timed",
    "to_json",
    "to_prometheus_text",
    "wall_now",
]

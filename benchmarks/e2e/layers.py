"""The layer boundaries the traced run wraps, and the per-layer metrics.

Layers are this repo's modules.  ``SPANS`` names every wrapped entry
point; ``PER_LAYER`` is the ordered list ``BENCHMARK.json`` mirrors in
``per_layer`` (the self-test holds the two together).  A metric is a
call count, a total or self time of one span name, a counter taken at a
boundary, or a value the harness supplies (``extra``).
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Tuple

from tracing import Tracer

# (module, class, method, span name)
SPANS: List[Tuple[str, str, str, str]] = [
    ("repro.simkernel.scheduler", "Simulator", "run", "dataplane.sim_run"),
    ("repro.dataplane.switch", "OpenFlowSwitch", "receive_packet", "dataplane.receive_packet"),
    ("repro.dataplane.switch", "OpenFlowSwitch", "handle_message", "dataplane.handle_message"),
    ("repro.dataplane.flowtable", "FlowTable", "lookup", "dataplane.flowtable_lookup"),
    ("repro.dataplane.flowtable", "FlowTable", "insert", "dataplane.flowtable_insert"),
    ("repro.controller.instance", "ControllerInstance", "_on_switch_message", "controller.on_switch_message"),
    ("repro.controller.events", "EventBus", "publish", "controller.bus_publish"),
    ("repro.controller.instance", "ControllerInstance", "send", "controller.send"),
    ("repro.core.southbound", "SouthboundElement", "poll_now", "core.southbound.poll_now"),
    ("repro.core.southbound", "AthenaProxy", "issue_flow_rule", "core.southbound.issue_flow_rule"),
    ("repro.core.generator", "FeatureGenerator", "on_message_tap", "core.generator.on_message_tap"),
    ("repro.core.generator", "FeatureGenerator", "on_packet_in", "core.generator.on_packet_in"),
    ("repro.core.generator", "FeatureGenerator", "on_stats_event", "core.generator.on_stats_event"),
    ("repro.core.generator", "FeatureGenerator", "on_flow_removed", "core.generator.on_flow_removed"),
    ("repro.core.generator", "FeatureGenerator", "collect_garbage", "core.generator.collect_garbage"),
    ("repro.core.feature_manager", "FeatureManager", "publish", "core.feature_manager.publish"),
    ("repro.core.feature_manager", "FeatureManager", "publish_documents", "core.feature_manager.publish_documents"),
    ("repro.core.feature_manager", "FeatureManager", "request_features", "core.feature_manager.request_features"),
    ("repro.core.feature_manager", "FeatureManager", "request_frame", "core.feature_manager.request_frame"),
    ("repro.distdb.cluster", "DatabaseCluster", "insert_one", "distdb.insert_one"),
    ("repro.distdb.cluster", "DatabaseCluster", "insert_many", "distdb.insert_many"),
    ("repro.distdb.cluster", "DatabaseCluster", "find", "distdb.find"),
    ("repro.core.preprocessor", "Preprocessor", "fit_transform", "core.preprocessor.fit_transform"),
    ("repro.core.preprocessor", "Preprocessor", "transform", "core.preprocessor.transform"),
    ("repro.core.preprocessor", "Preprocessor", "transform_one", "core.preprocessor.transform_one"),
    ("repro.core.preprocessor", "Preprocessor", "transform_frame", "core.preprocessor.transform_frame"),
    ("repro.compute.cluster", "ComputeCluster", "run_iterative", "compute.run_iterative"),
    ("repro.compute.cluster", "ComputeCluster", "run_map", "compute.run_map"),
    ("repro.ml.kmeans", "KMeans", "fit", "ml.fit"),
    ("repro.ml.kmeans", "KMeans", "fit_distributed", "ml.fit"),
    ("repro.ml.base", "ClusteringModel", "predict", "ml.predict"),
    ("repro.ml.threshold", "ThresholdDetector", "fit", "ml.fit"),
    ("repro.ml.threshold", "ThresholdDetector", "predict", "ml.predict"),
    ("repro.core.detector_manager", "DetectorManager", "generate_detection_model", "core.detector_manager.generate_model"),
    ("repro.core.detector_manager", "DetectorManager", "validate_features", "core.detector_manager.validate"),
    ("repro.core.detector_manager", "DetectorManager", "validate_one", "core.detector_manager.validate_one"),
    ("repro.core.reaction_manager", "ReactionManager", "enforce", "core.reaction_manager.enforce"),
    ("repro.streaming.state", "StreamingFeatureState", "fold_packet_in", "streaming.fold"),
    ("repro.streaming.state", "StreamingFeatureState", "fold_flow_removed", "streaming.fold"),
    ("repro.streaming.state", "StreamingFeatureState", "fold_flow_stats_entry", "streaming.fold"),
    ("repro.streaming.detector", "StreamingDetectorManager", "on_event", "streaming.detector_on_event"),
    ("repro.streaming.detector", "StreamingDetectorManager", "refresh", "streaming.refresh"),
    ("repro.streaming.pipeline", "StreamingPipeline", "collect_garbage", "streaming.collect_garbage"),
    ("repro.ml.online", "SlidingWindowDetector", "score_event", "ml.online.score_event"),
    ("repro.ml.online", "SlidingWindowDetector", "predict_event", "ml.online.predict_event"),
    ("repro.ml.online", "SlidingWindowDetector", "partial_fit", "ml.online.partial_fit"),
    ("repro.ml.online", "OnlineGaussianNB", "score_event", "ml.online.score_event"),
    ("repro.ml.online", "OnlineGaussianNB", "predict_event", "ml.online.predict_event"),
    ("repro.ml.online", "OnlineGaussianNB", "partial_fit", "ml.online.partial_fit"),
    # The load generators, so the time they take inside a timed unit is
    # named and not left to the root span.
    ("repro.cbench.harness", "CbenchHarness", "run_throughput", "loadgen.cbench_round"),
    ("repro.cbench.harness", "CbenchHarness", "_build", "loadgen.cbench_build"),
    ("repro.cbench.harness", "CbenchHarness", "_packet_in", "loadgen.cbench_packet_in"),
    ("wl_stream_flood", "Pipeline", "feed", "loadgen.stream_feed"),
    ("wl_stream_flood", "Pipeline", "feed_on_schedule", "loadgen.stream_feed"),
]


def _job_counters(_args, _kwargs, report) -> Dict[str, float]:
    return {
        "compute.tasks": report.n_tasks,
        "compute.tasks_retried": report.tasks_retried,
        "compute.bytes_shuffled": report.bytes_shuffled,
        "compute.makespan_modeled_s": report.makespan_seconds,
    }


def _kmeans_iterations(args, _kwargs, _result) -> Dict[str, float]:
    return {"ml.kmeans_iterations": args[0].iterations_run}


# Counts taken at the same boundaries as the spans, keyed (class, method).
_COUNTERS = {
    ("DatabaseCluster", "insert_many"): lambda a, k, r: {"distdb.insert_many_docs": r},
    ("DatabaseCluster", "find"): lambda a, k, r: {"distdb.find_docs_returned": len(r)},
    ("Preprocessor", "fit_transform"): lambda a, k, r: {"core.preprocessor.rows_in": len(a[1])},
    ("Preprocessor", "transform"): lambda a, k, r: {"core.preprocessor.rows_in": len(a[1])},
    # run_map delegates to run_iterative, which counts the job once.
    ("ComputeCluster", "run_iterative"): _job_counters,
    ("KMeans", "fit"): _kmeans_iterations,
    ("KMeans", "fit_distributed"): _kmeans_iterations,
    ("ReactionManager", "enforce"): lambda a, k, r: {"core.reaction_manager.rules_installed": r},
}


def install(tracer: Tracer) -> None:
    """Wrap every entry point in ``SPANS`` (before the stack is built)."""
    for module_name, class_name, method, span in SPANS:
        owner = getattr(importlib.import_module(module_name), class_name)
        tracer.wrap(owner, method, span, _COUNTERS.get((class_name, method)))


# (metric, unit, better, kind, key) — kind: calls | self_s | total_s |
# counter (tracer.counters[key]) | extra (supplied by the workload).
PER_LAYER: List[Tuple[str, str, str, str, str]] = [
    ("dataplane.sim_events", "count", "lower", "extra", "sim_events"),
    ("dataplane.sim_run_self_s", "s", "lower", "self_s", "dataplane.sim_run"),
    ("dataplane.receive_packet_calls", "count", "lower", "calls", "dataplane.receive_packet"),
    ("dataplane.receive_packet_self_s", "s", "lower", "self_s", "dataplane.receive_packet"),
    ("dataplane.handle_message_self_s", "s", "lower", "self_s", "dataplane.handle_message"),
    ("dataplane.flowtable_lookup_calls", "count", "lower", "calls", "dataplane.flowtable_lookup"),
    ("dataplane.flowtable_lookup_s", "s", "lower", "total_s", "dataplane.flowtable_lookup"),
    ("dataplane.flowtable_insert_calls", "count", "lower", "calls", "dataplane.flowtable_insert"),
    ("dataplane.flowtable_insert_s", "s", "lower", "total_s", "dataplane.flowtable_insert"),
    ("controller.on_switch_message_calls", "count", "lower", "calls", "controller.on_switch_message"),
    ("controller.on_switch_message_self_s", "s", "lower", "self_s", "controller.on_switch_message"),
    ("controller.bus_publish_calls", "count", "lower", "calls", "controller.bus_publish"),
    ("controller.bus_publish_self_s", "s", "lower", "self_s", "controller.bus_publish"),
    ("controller.send_calls", "count", "lower", "calls", "controller.send"),
    ("controller.send_self_s", "s", "lower", "self_s", "controller.send"),
    ("core.southbound.poll_now_calls", "count", "lower", "calls", "core.southbound.poll_now"),
    ("core.southbound.poll_now_self_s", "s", "lower", "self_s", "core.southbound.poll_now"),
    ("core.southbound.poll_retries", "count", "lower", "extra", "poll_retries"),
    ("core.southbound.flow_rules_issued", "count", "lower", "calls", "core.southbound.issue_flow_rule"),
    ("core.generator.on_message_tap_self_s", "s", "lower", "self_s", "core.generator.on_message_tap"),
    ("core.generator.on_packet_in_calls", "count", "lower", "calls", "core.generator.on_packet_in"),
    ("core.generator.on_packet_in_self_s", "s", "lower", "self_s", "core.generator.on_packet_in"),
    ("core.generator.on_stats_event_calls", "count", "lower", "calls", "core.generator.on_stats_event"),
    ("core.generator.on_stats_event_self_s", "s", "lower", "self_s", "core.generator.on_stats_event"),
    ("core.generator.on_flow_removed_calls", "count", "lower", "calls", "core.generator.on_flow_removed"),
    ("core.generator.on_flow_removed_self_s", "s", "lower", "self_s", "core.generator.on_flow_removed"),
    ("core.generator.features_generated", "count", "lower", "extra", "features_generated"),
    ("core.generator.collect_garbage_s", "s", "lower", "total_s", "core.generator.collect_garbage"),
    ("core.feature_manager.publish_calls", "count", "lower", "calls", "core.feature_manager.publish"),
    ("core.feature_manager.publish_self_s", "s", "lower", "self_s", "core.feature_manager.publish"),
    ("core.feature_manager.delivered", "count", "lower", "extra", "features_delivered"),
    ("core.feature_manager.pending_writes_end", "count", "lower", "extra", "pending_writes_end"),
    ("core.feature_manager.publish_documents_s", "s", "lower", "total_s", "core.feature_manager.publish_documents"),
    ("core.feature_manager.request_features_calls", "count", "lower", "calls", "core.feature_manager.request_features"),
    ("core.feature_manager.request_features_self_s", "s", "lower", "self_s", "core.feature_manager.request_features"),
    ("core.feature_manager.request_frame_s", "s", "lower", "total_s", "core.feature_manager.request_frame"),
    ("distdb.insert_one_calls", "count", "lower", "calls", "distdb.insert_one"),
    ("distdb.insert_one_s", "s", "lower", "total_s", "distdb.insert_one"),
    ("distdb.insert_many_docs", "count", "lower", "counter", "distdb.insert_many_docs"),
    ("distdb.insert_many_s", "s", "lower", "total_s", "distdb.insert_many"),
    ("distdb.find_calls", "count", "lower", "calls", "distdb.find"),
    ("distdb.find_s", "s", "lower", "total_s", "distdb.find"),
    ("distdb.find_docs_returned", "count", "lower", "counter", "distdb.find_docs_returned"),
    ("distdb.bytes_written", "bytes", "lower", "extra", "bytes_written"),
    ("distdb.bytes_read", "bytes", "lower", "extra", "bytes_read"),
    ("core.preprocessor.fit_transform_s", "s", "lower", "total_s", "core.preprocessor.fit_transform"),
    ("core.preprocessor.transform_s", "s", "lower", "total_s", "core.preprocessor.transform"),
    ("core.preprocessor.rows_in", "count", "lower", "counter", "core.preprocessor.rows_in"),
    ("core.preprocessor.transform_one_calls", "count", "lower", "calls", "core.preprocessor.transform_one"),
    ("core.preprocessor.transform_one_s", "s", "lower", "total_s", "core.preprocessor.transform_one"),
    ("core.preprocessor.transform_frame_s", "s", "lower", "total_s", "core.preprocessor.transform_frame"),
    ("compute.run_iterative_s", "s", "lower", "total_s", "compute.run_iterative"),
    ("compute.run_map_s", "s", "lower", "total_s", "compute.run_map"),
    ("compute.tasks", "count", "lower", "counter", "compute.tasks"),
    ("compute.tasks_retried", "count", "lower", "counter", "compute.tasks_retried"),
    ("compute.bytes_shuffled", "bytes", "lower", "counter", "compute.bytes_shuffled"),
    ("compute.makespan_modeled_s", "s", "lower", "counter", "compute.makespan_modeled_s"),
    ("ml.fit_s", "s", "lower", "total_s", "ml.fit"),
    ("ml.predict_s", "s", "lower", "total_s", "ml.predict"),
    ("ml.kmeans_iterations", "count", "lower", "counter", "ml.kmeans_iterations"),
    ("core.detector_manager.generate_model_self_s", "s", "lower", "self_s", "core.detector_manager.generate_model"),
    ("core.detector_manager.validate_self_s", "s", "lower", "self_s", "core.detector_manager.validate"),
    ("core.detector_manager.validate_one_calls", "count", "lower", "calls", "core.detector_manager.validate_one"),
    ("core.detector_manager.validate_one_s", "s", "lower", "total_s", "core.detector_manager.validate_one"),
    ("core.reaction_manager.enforce_calls", "count", "lower", "calls", "core.reaction_manager.enforce"),
    ("core.reaction_manager.enforce_s", "s", "lower", "total_s", "core.reaction_manager.enforce"),
    ("core.reaction_manager.rules_installed", "count", "lower", "counter", "core.reaction_manager.rules_installed"),
    ("streaming.events_in", "count", "lower", "extra", "stream_events_in"),
    ("streaming.fold_self_s", "s", "lower", "self_s", "streaming.fold"),
    ("streaming.detector_on_event_self_s", "s", "lower", "self_s", "streaming.detector_on_event"),
    ("streaming.alerts", "count", "lower", "extra", "stream_alerts"),
    ("streaming.state_flows", "count", "lower", "extra", "stream_state_flows"),
    ("streaming.refresh_s", "s", "lower", "total_s", "streaming.refresh"),
    ("streaming.collect_garbage_s", "s", "lower", "total_s", "streaming.collect_garbage"),
    ("ml.online.score_event_calls", "count", "lower", "calls", "ml.online.score_event"),
    ("ml.online.score_event_s", "s", "lower", "total_s", "ml.online.score_event"),
    ("ml.online.predict_event_s", "s", "lower", "total_s", "ml.online.predict_event"),
    ("ml.online.partial_fit_calls", "count", "lower", "calls", "ml.online.partial_fit"),
    ("ml.online.partial_fit_s", "s", "lower", "total_s", "ml.online.partial_fit"),
    ("loadgen.cbench_round_self_s", "s", "lower", "self_s", "loadgen.cbench_round"),
    ("loadgen.cbench_build_s", "s", "lower", "total_s", "loadgen.cbench_build"),
    ("loadgen.cbench_packet_in_s", "s", "lower", "total_s", "loadgen.cbench_packet_in"),
    ("loadgen.stream_feed_self_s", "s", "lower", "self_s", "loadgen.stream_feed"),
    ("harness.timed_wall_s", "s", "lower", "extra", "timed_wall_s"),
    ("harness.unit_self_s", "s", "lower", "self_s", "harness.unit"),
    ("harness.open_loop_idle_s", "s", "lower", "extra", "open_loop_idle_s"),
    ("harness.trace_overhead_pct", "%", "lower", "extra", "trace_overhead_pct"),
    ("harness.spans_recorded", "count", "lower", "extra", "spans_recorded"),
    ("harness.first_job_s", "s", "lower", "extra", "first_job_s"),
    ("harness.detect_entries_per_s", "1/s", "higher", "extra", "detect_entries_per_s"),
    ("harness.alert_delay_sim_s", "sim-s", "lower", "extra", "alert_delay_sim_s"),
    ("harness.cbench_without_per_s", "1/s", "higher", "extra", "cbench_without_per_s"),
    ("harness.cbench_nodb_per_s", "1/s", "higher", "extra", "cbench_nodb_per_s"),
    ("harness.athena_overhead_pct", "%", "lower", "extra", "athena_overhead_pct"),
    ("harness.athena_overhead_nodb_pct", "%", "lower", "extra", "athena_overhead_nodb_pct"),
    ("harness.stream_latency_p50_us", "us", "lower", "extra", "stream_latency_p50_us"),
    ("harness.stream_latency_p99_us", "us", "lower", "extra", "stream_latency_p99_us"),
    ("harness.generator_late_frac", "fraction", "lower", "extra", "generator_late_frac"),
    ("harness.backlog_end", "count", "lower", "extra", "backlog_end"),
]


def collect(tracer: Tracer, extras: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, by name; layers that did not run read 0."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, unit, _better, kind, key in PER_LAYER:
        if kind in ("calls", "total_s", "self_s"):
            calls, total_s, self_s = tracer.stat(key)
            value = {"calls": calls, "total_s": total_s, "self_s": self_s}[kind]
        elif kind == "counter":
            value = tracer.counters.get(key, 0)
        else:
            value = extras.get(key, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def self_time_by_layer(tracer: Tracer) -> Dict[str, float]:
    """Self seconds summed per layer (sums to the wall under root spans)."""
    shares: Dict[str, float] = {}
    for name, seconds in zip(tracer.names, tracer.self_s):
        layer = name.rsplit(".", 1)[0]  # core.generator.on_packet_in -> core.generator
        shares[layer] = shares.get(layer, 0.0) + seconds
    return shares

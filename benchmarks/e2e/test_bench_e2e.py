"""Self-test of the end-to-end benchmark, at tiny sizes.

Run with ``pytest benchmarks/e2e -q`` (outside tier-1).  Sizes are passed
as function arguments; there is no "quick" CLI mode to drift from the
measured one.
"""

import re

import pytest

import harness
import run
import layers
import wl_batch_ddos
import wl_cbench_storm
import wl_live_ddos
import wl_stream_flood

TINY = {
    "batch_ddos": wl_batch_ddos.Size(
        scale=0.0002, distributed_threshold=2_000, min_units=1
    ),
    "live_ddos": wl_live_ddos.Size(
        benign_flows=6, horizon=8.0, attack_flows=4, min_units=2
    ),
    "cbench_storm": wl_cbench_storm.Size(round_seconds=0.05, min_units=1),
    "stream_flood": wl_stream_flood.Size(
        block_events=2_000, open_rate=5_000.0, min_blocks=2,
        min_open_events=1_000, nb_scale=0.0001, fanout_threshold=20.0,
        warm_blocks=1, chunk_events=100,
    ),
}
MODULES = {
    "batch_ddos": wl_batch_ddos,
    "live_ddos": wl_live_ddos,
    "cbench_storm": wl_cbench_storm,
    "stream_flood": wl_stream_flood,
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def manifest():
    return run.load_manifest()


def test_manifest_declares_what_the_harness_emits(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert manifest["paths"] == ["benchmarks/e2e"]
    declared = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    table = [(name, unit, better) for name, unit, better, _, _ in layers.PER_LAYER]
    assert declared == table
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert "setup_s" in [m["name"] for m in manifest["end_to_end"]]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(manifest, name):
    metrics, checks, detail = run.run_workload(name, 5, 0.0, False, size=TINY[name])
    declared = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert all(entry["value"] > 0 for entry in metrics.values())
    assert checks.attempted >= 1
    assert checks.failed == 0, checks.failures
    assert detail["samples"]["throughput_per_s"]["n"] >= 1
    # ... and ISSUE 11's metrics of this workload, by their own names.
    own = [row[0] for row in harness.END_TO_END if name in row[4]]
    assert list(detail["named"]) == own
    assert detail["named"]["failed_share"] == 0
    assert all(detail["named"][m] > 0 for m in own if m != "failed_share")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(manifest, name, tmp_path):
    span_path = str(tmp_path / "spans.npz")
    metrics, checks, detail = run.run_workload(
        name, 5, 0.0, True, size=TINY[name], span_path=span_path
    )
    declared = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert checks.failed == 0, checks.failures
    # Self times of all spans sum to the time under the root spans, which
    # the workload's own stopwatch encloses ...
    shares = detail["self_time_by_layer_s"]
    wall = detail["timed_wall_s"]
    assert sum(shares.values()) <= wall
    # ... and at least 90 % of it, the open-loop generator's waiting left
    # out, is time of a named layer, not of the root span ``harness.unit``.
    idle = detail["open_loop_idle_s"]
    layered = sum(s for layer, s in shares.items() if layer != "harness") - idle
    assert layered >= 0.9 * (wall - idle)
    assert metrics["harness.spans_recorded"]["value"] > 0
    import numpy

    spans = numpy.load(span_path)
    assert len(spans["start"]) == metrics["harness.spans_recorded"]["value"]
    assert (spans["end"] >= spans["start"]).all()
    assert (spans["parent"] < numpy.arange(len(spans["parent"]))).all()
    # The wrappers are gone again.
    from repro.dataplane.flowtable import FlowTable

    assert not hasattr(FlowTable.lookup, "__wrapped__")


def test_each_layer_runs_where_the_workload_table_says(tmp_path):
    """The attribution the workloads exist for: who works, who idles."""
    ran = {}
    for name in run.WORKLOADS:
        metrics, _, _ = run.run_workload(name, 5, 0.0, True, size=TINY[name])
        ran[name] = {k: v["value"] for k, v in metrics.items()}
    assert ran["batch_ddos"]["distdb.insert_many_docs"] > 0
    assert ran["batch_ddos"]["compute.tasks"] > 0
    assert ran["batch_ddos"]["ml.kmeans_iterations"] > 0
    assert ran["batch_ddos"]["core.feature_manager.request_frame_s"] > 0
    assert ran["batch_ddos"]["dataplane.receive_packet_calls"] == 0
    assert ran["batch_ddos"]["streaming.fold_self_s"] == 0
    assert ran["live_ddos"]["dataplane.receive_packet_calls"] > 0
    assert ran["live_ddos"]["core.southbound.poll_now_calls"] > 0
    assert ran["live_ddos"]["core.detector_manager.validate_one_calls"] > 0
    assert ran["live_ddos"]["core.reaction_manager.rules_installed"] > 0
    assert ran["live_ddos"]["distdb.insert_many_docs"] == 0
    assert ran["cbench_storm"]["core.generator.on_packet_in_calls"] > 0
    assert ran["cbench_storm"]["distdb.insert_one_calls"] > 0
    assert ran["cbench_storm"]["ml.fit_s"] == 0
    assert ran["cbench_storm"]["core.preprocessor.rows_in"] == 0
    assert ran["stream_flood"]["ml.online.score_event_calls"] > 0
    assert ran["stream_flood"]["streaming.alerts"] > 0
    assert ran["stream_flood"]["distdb.insert_one_calls"] == 0
    assert ran["stream_flood"]["dataplane.sim_events"] == 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs_and_exact_counts(name):
    module, size = MODULES[name], TINY[name]
    digest = module.inputs_digest(module.make_inputs(5, size))
    assert module.inputs_digest(module.make_inputs(5, size)) == digest
    assert module.inputs_digest(module.make_inputs(6, size)) != digest
    first = module.measure(module.setup(5, size), 0.0)
    second = module.measure(module.setup(5, size), 0.0)
    assert first.exact == second.exact
    assert first.checks.failed == second.checks.failed == 0


def _record(values_by_metric, exact=None):
    metrics = {
        name: {"values": values, **harness.summarize(values)}
        for name, values in values_by_metric.items()
    }
    return {
        "host": {"seed": 1},
        "workloads": {"batch_ddos": {"metrics": metrics, "exact": exact or {}}},
    }


def test_compare_verdicts(manifest):
    steady = {
        "setup_s": [1.0, 1.01, 0.99, 1.0],
        "ingest_docs_per_s": [100.0, 101.0, 99.0, 100.0],
        "detect_entries_per_s": [100.0, 101.0, 99.0, 100.0],
        "peak_rss_mb": [50.0, 50.0, 50.1, 49.9],
        "failed_share": [0.0, 0.0, 0.0, 0.0],
        "throughput_per_s": [100.0, 101.0, 99.0, 100.0],
        "latency_p50_ms": [10.0, 10.1, 9.9, 10.0],
    }
    changed = dict(
        steady,
        ingest_docs_per_s=[85.0, 86.0, 84.0, 85.0],  # 15 % slower: worse
        detect_entries_per_s=[120.0, 121.0, 119.0, 120.0],  # every run faster
        peak_rss_mb=[40.0, 70.0, 45.0, 60.0],  # wide and interleaved
        failed_share=[0.0, 0.0, 0.01, 0.01],  # exact: any worsening counts
    )
    rows = run.compare(
        _record(steady, {"docs": 7}), _record(changed, {"docs": 8}), manifest
    )
    assert {metric: verdict for _, metric, verdict, _ in rows} == {
        "setup_s": "within bound",
        "ingest_docs_per_s": "worse",
        "detect_entries_per_s": "better",
        "peak_rss_mb": "unresolved",
        "failed_share": "worse",
        "throughput_per_s": "within bound",
        "latency_p50_ms": "within bound",
        "exact": "worse",
    }


def test_refuses_non_default_runtime_flags(monkeypatch):
    from harness import BenchmarkRefused, guard_environment

    monkeypatch.setenv("ATHENA_COLUMNAR", "1")
    with pytest.raises(BenchmarkRefused):
        guard_environment()

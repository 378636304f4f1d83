"""The telemetry subsystem: registry, tracing, profiling, exposition.

Covers the metric primitives (label semantics, cardinality cap, bucket
math), the disabled-mode null fast path, span nesting and exception
safety, the exposition formats (Prometheus text golden output), the
EventBus no-double-count regression, the compute JobReport fold-in, and
the determinism contract: two identical simulated runs must produce
identical deterministic-only snapshots.
"""

import json

import pytest

from repro.compute import ComputeCluster, PartitionedDataset
from repro.controller import ControllerCluster, ReactiveForwarding
from repro.controller.events import ControllerEvent, EventBus, PacketInEvent
from repro.core import AthenaDeployment
from repro.dataplane.topologies import linear_topology
from repro.errors import TelemetryError
from repro.telemetry import (
    NULL_INSTRUMENT,
    MetricsRegistry,
    StageProfiler,
    Telemetry,
    Tracer,
    configure,
    get_telemetry,
    reset_telemetry,
    timed,
    to_json,
    to_prometheus_text,
)
from repro.workloads.flows import FlowSpec, TrafficSchedule


@pytest.fixture(autouse=True)
def _restore_telemetry():
    """Every test leaves the process-wide facade as it found it."""
    yield
    reset_telemetry()


class TestRegistry:
    def test_counter_semantics(self):
        reg = MetricsRegistry(enabled=True)
        counter = reg.counter("athena_test_events_total", "Events.")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_gauge_semantics(self):
        reg = MetricsRegistry(enabled=True)
        gauge = reg.gauge("athena_test_depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 6

    def test_labelled_counter_sums_children(self):
        reg = MetricsRegistry(enabled=True)
        counter = reg.counter(
            "athena_test_msgs_total", labelnames=("direction",)
        )
        counter.labels(direction="in").inc(2)
        counter.labels(direction="out").inc(3)
        assert counter.value == 5
        # Recording on the labelled parent itself is a usage error.
        with pytest.raises(TelemetryError):
            counter.inc()
        # As is labels() on an unlabelled instrument...
        plain = reg.counter("athena_test_plain_total")
        with pytest.raises(TelemetryError):
            plain.labels(direction="in")
        # ...and a wrong label set.
        with pytest.raises(TelemetryError):
            counter.labels(dir="in")

    def test_registration_conflicts(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("athena_test_x_total")
        with pytest.raises(TelemetryError):
            reg.gauge("athena_test_x_total")
        with pytest.raises(TelemetryError):
            reg.counter("athena_test_x_total", labelnames=("a",))
        with pytest.raises(TelemetryError):
            reg.counter("Not-A-Metric")
        # Same name, same schema: the existing instrument is shared.
        assert reg.counter("athena_test_x_total") is reg.get(
            "athena_test_x_total"
        )

    def test_cardinality_cap_collapses_to_overflow(self):
        reg = MetricsRegistry(enabled=True, max_label_sets=2)
        counter = reg.counter("athena_test_flows_total", labelnames=("src",))
        counter.labels(src="a").inc()
        counter.labels(src="b").inc()
        overflow = counter.labels(src="c")
        counter.labels(src="d").inc()
        assert counter.labels(src="e") is overflow
        assert counter.dropped_label_sets == 3
        samples = counter.collect()["samples"]
        assert len(samples) == 3  # a, b, and the single _overflow child
        assert {"src": "_overflow"} in [s["labels"] for s in samples]

    def test_histogram_bucket_math(self):
        reg = MetricsRegistry(enabled=True)
        hist = reg.histogram("athena_test_seconds", buckets=(0.1, 1.0))
        hist.observe(0.1)  # le semantics: equal to the bound lands IN it
        hist.observe(0.5)
        hist.observe(5.0)  # above the last bound: +Inf
        sample = hist.collect()["samples"][0]
        assert sample["buckets"] == [[0.1, 1], [1.0, 2], ["+Inf", 3]]
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(5.6)
        assert hist.mean == pytest.approx(5.6 / 3)
        with pytest.raises(TelemetryError):
            reg.histogram("athena_test_bad_seconds", buckets=(1.0, 1.0))

    def test_reset_keeps_bindings(self):
        reg = MetricsRegistry(enabled=True)
        child = reg.counter(
            "athena_test_r_total", labelnames=("k",)
        ).labels(k="a")
        child.inc(7)
        reg.reset()
        assert child.value == 0
        child.inc()  # the pre-reset reference still records
        assert child.value == 1

    def test_snapshot_sorted_and_deterministic_filter(self):
        reg = MetricsRegistry(enabled=True)
        reg.histogram("athena_test_wall_seconds").observe(0.1)
        reg.counter("athena_test_a_total").inc()
        names = [m["name"] for m in reg.snapshot()]
        assert names == sorted(names)
        kept = [m["name"] for m in reg.snapshot(deterministic_only=True)]
        assert kept == ["athena_test_a_total"]


class TestDisabledFastPath:
    def test_factories_return_the_shared_null(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("athena_test_a_total") is NULL_INSTRUMENT
        assert reg.gauge("athena_test_b") is NULL_INSTRUMENT
        assert reg.histogram("athena_test_c_seconds") is NULL_INSTRUMENT
        assert NULL_INSTRUMENT.labels(anything="goes") is NULL_INSTRUMENT
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.observe(1.0)
        with NULL_INSTRUMENT.time():
            pass
        assert NULL_INSTRUMENT.value == 0.0
        assert reg.snapshot() == []

    def test_disabled_facade_snapshots_empty(self):
        tel = Telemetry(enabled=False)
        with tel.span("ignored"):
            pass
        snap = tel.snapshot()
        assert snap == {"enabled": False, "metrics": [], "spans": []}

    def test_configure_and_env_default(self):
        from repro.config import from_env, override

        with override(telemetry=from_env({}).telemetry):
            reset_telemetry()
            assert not get_telemetry().enabled
            assert configure(enabled=True) is get_telemetry()
            assert get_telemetry().enabled
        with override(telemetry=from_env({"ATHENA_TELEMETRY": "1"}).telemetry):
            reset_telemetry()
            assert get_telemetry().enabled


class TestTracing:
    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.finished[0], tracer.finished[1]
        assert (inner.name, inner.parent, inner.depth) == ("inner", "outer", 1)
        assert (outer.name, outer.parent, outer.depth) == ("outer", None, 0)
        assert tracer.spans_started == 2

    def test_span_exception_safety(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        record = tracer.finished[-1]
        assert record.error == "ValueError"
        assert tracer.spans_errored == 1
        assert tracer._stack == []  # the stack unwound cleanly

    def test_sim_clock_and_deterministic_filter(self):
        ticks = iter([10.0, 12.5])
        tracer = Tracer(sim_time_source=lambda: next(ticks))
        with tracer.span("work") as span:
            span.set_attribute("rows", 42)
        entry = tracer.snapshot(deterministic_only=True)[0]
        assert entry["sim_start"] == 10.0
        assert entry["sim_seconds"] == 2.5
        assert entry["attributes"] == {"rows": 42}
        assert "wall_seconds" not in entry
        assert "wall_seconds" in tracer.snapshot()[0]

    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer(ring_size=3)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [r.name for r in tracer.finished] == ["s2", "s3", "s4"]


class TestProfiling:
    def test_timed_rebinds_to_the_active_registry(self):
        tel_a = configure(enabled=True)

        @timed("athena_test_fn_seconds")
        def work():
            return 1

        assert work() == 1
        assert tel_a.registry.get("athena_test_fn_seconds").count == 1
        tel_b = configure(enabled=True)  # fresh facade: lazy re-binding
        assert work() == 1
        assert tel_b.registry.get("athena_test_fn_seconds").count == 1
        assert tel_a.registry.get("athena_test_fn_seconds").count == 1

    def test_stage_profiler_aggregates_per_stage(self):
        reg = MetricsRegistry(enabled=True)
        profiler = StageProfiler(
            metric="athena_test_stage_seconds", registry=reg
        )
        for _ in range(2):
            with profiler.stage("normalise"):
                pass
        with profiler.stage("cluster"):
            pass
        hist = reg.get("athena_test_stage_seconds")
        assert hist.labels(stage="normalise").count == 2
        assert hist.labels(stage="cluster").count == 1


class TestExposition:
    def _snapshot(self):
        reg = MetricsRegistry(enabled=True)
        counter = reg.counter(
            "athena_test_events_total", "Events.", labelnames=("kind",)
        )
        counter.labels(kind="a").inc(2)
        hist = reg.histogram("athena_test_seconds", "Secs.", buckets=(0.5, 1.0))
        hist.observe(0.25)
        hist.observe(2.0)
        return {"enabled": True, "metrics": reg.snapshot(), "spans": []}

    def test_prometheus_text_golden(self):
        assert to_prometheus_text(self._snapshot()) == (
            "# HELP athena_test_events_total Events.\n"
            "# TYPE athena_test_events_total counter\n"
            'athena_test_events_total{kind="a"} 2\n'
            "# HELP athena_test_seconds Secs.\n"
            "# TYPE athena_test_seconds histogram\n"
            'athena_test_seconds_bucket{le="0.5"} 1\n'
            'athena_test_seconds_bucket{le="1"} 1\n'
            'athena_test_seconds_bucket{le="+Inf"} 2\n'
            "athena_test_seconds_sum 2.25\n"
            "athena_test_seconds_count 2\n"
        )

    def test_json_is_stable(self):
        snap = self._snapshot()
        first, second = to_json(snap), to_json(snap)
        assert first == second
        decoded = json.loads(first)
        assert decoded["metrics"][0]["name"] == "athena_test_events_total"


class TestEventBusDelivery:
    def test_duplicate_subscription_delivers_once(self):
        bus = EventBus()
        seen = []
        bus.subscribe(PacketInEvent, seen.append)
        bus.subscribe(PacketInEvent, seen.append)  # idempotent
        bus.publish(PacketInEvent(dpid=1))
        assert len(seen) == 1

    def test_base_and_concrete_subscription_delivers_once(self):
        bus = EventBus()
        seen = []
        bus.subscribe(PacketInEvent, seen.append)
        bus.subscribe(ControllerEvent, seen.append)
        bus.publish(PacketInEvent(dpid=1))
        assert len(seen) == 1
        # A base-only listener still sees derived events.
        base_seen = []
        bus.subscribe(ControllerEvent, base_seen.append)
        bus.publish(PacketInEvent(dpid=2))
        assert len(base_seen) == 1


class TestComputeFoldIn:
    def test_job_reports_fold_into_counters(self):
        registry = configure(enabled=True).registry
        cluster = ComputeCluster(n_workers=2)
        dataset = PartitionedDataset.from_records(list(range(8)), 4)
        report = cluster.run_map(dataset, lambda part: sum(part), sum)
        local = cluster.run_local(dataset, lambda part: sum(part), sum)
        assert report.result == local.result == 28
        jobs = registry.get("athena_compute_jobs_total")
        assert jobs.labels(backend=report.backend).value == 1
        assert jobs.labels(backend="local").value == 1
        tasks = registry.get("athena_compute_tasks_total")
        assert tasks.value == report.n_tasks + local.n_tasks
        retried = registry.get("athena_compute_tasks_retried_total")
        assert retried.value == report.tasks_retried
        wall = registry.get("athena_compute_job_wall_seconds")
        assert wall.labels(backend=report.backend).count == 1


def _run_scenario():
    """One deterministic mini-run; returns its deterministic snapshot."""
    telemetry = configure(enabled=True)
    topo = linear_topology(n_switches=3, hosts_per_switch=2)
    cluster = ControllerCluster(topo.network, n_instances=1)
    cluster.adopt_all()
    cluster.start(poll=False)
    ReactiveForwarding().activate(cluster)
    athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
    athena.start()
    schedule = TrafficSchedule(topo.network)
    schedule.prime_arp()
    schedule.add_flow(
        FlowSpec(src_host="h1", dst_host="h5", rate_pps=20.0,
                 start=0.5, duration=1.5, bidirectional=True)
    )
    topo.network.sim.run(until=2.5)
    return telemetry.snapshot(deterministic_only=True)


class TestDeterminism:
    def test_identical_runs_produce_identical_snapshots(self):
        first = _run_scenario()
        second = _run_scenario()
        assert to_json(first) == to_json(second)
        # And the run actually recorded southbound + feature activity.
        by_name = {m["name"]: m for m in first["metrics"]}
        assert by_name["athena_southbound_messages_total"]["samples"]
        total = sum(
            s["value"]
            for s in by_name["athena_feature_records_total"]["samples"]
        )
        assert total > 0

"""Batch-vs-streaming equivalence suite (docs/STREAMING.md contract).

Each scenario drives the *same* simulated attack through the batch
query/pull pipeline and the event-driven streaming pipeline, then
asserts:

* both paths detect the attacker;
* streaming recall lands within ``STREAMING_RECALL_TOLERANCE`` of
  batch recall;
* two identical same-seed runs produce byte-identical alert streams
  (the determinism contract).

A property test then holds the two *drivers* against each other record
by record: the same event interleaving through a FeatureGenerator and a
StreamingPipeline yields identical flow records (one engine, two drivers).

The default sweep runs each scenario at one seed; ``--wide``
(tests/conftest.py) adds two more.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.events import (
    EventBus,
    FlowRemovedEvent,
    PacketInEvent,
    StatsEvent,
)
from repro.core.feature_format import FeatureScope
from repro.core.generator import FeatureGenerator
from repro.openflow.match import Match
from repro.openflow.messages import (
    FlowRemoved,
    FlowStatsEntry,
    FlowStatsReply,
    PacketIn,
)
from repro.streaming import StreamingPipeline
from repro.streaming.scenarios import (
    STREAMING_RECALL_TOLERANCE,
    STREAMING_SCENARIOS,
    run_streaming_scenario,
)

# Under --wide (tests/conftest.py) the sweep adds two seeds.
SEEDS = (0, pytest.param(1, marks=pytest.mark.wide), pytest.param(2, marks=pytest.mark.wide))


@functools.lru_cache(maxsize=None)
def _run(scenario, seed=0):
    return run_streaming_scenario(scenario, seed=seed)


@pytest.fixture(scope="module", params=STREAMING_SCENARIOS)
def scenario(request):
    return request.param


@pytest.mark.parametrize("seed", SEEDS)
class TestEquivalence:
    def test_both_paths_detect(self, scenario, seed):
        result = _run(scenario, seed)
        assert result.batch_detected, (
            f"batch path missed the attacker in {scenario} (seed {seed})"
        )
        assert result.streaming_detected, (
            f"streaming path missed the attacker in {scenario} (seed {seed})"
        )

    def test_recall_parity(self, scenario, seed):
        result = _run(scenario, seed)
        drop = result.batch_recall - result.streaming_recall
        assert drop <= STREAMING_RECALL_TOLERANCE, (
            f"{scenario} (seed {seed}): streaming recall "
            f"{result.streaming_recall:.3f} trails batch "
            f"{result.batch_recall:.3f} by more than "
            f"{STREAMING_RECALL_TOLERANCE}"
        )

    def test_streaming_processed_events(self, scenario, seed):
        result = _run(scenario, seed)
        assert result.events_processed > 0
        assert result.alerts_emitted > 0

    def test_attacker_flagged_by_streaming(self, scenario, seed):
        result = _run(scenario, seed)
        assert result.attacker_ip in result.streaming_flagged


class TestDeterminism:
    """Two identical same-seed runs → byte-identical alert streams."""

    #: sha256 of the seed-0 alert stream, which is the file
    #: ``repro.cli stream --scenario <name> --alerts`` writes; recorded
    #: from this run.
    ALERT_STREAM_SHA256 = {
        "portscan": "8f0a54e9abd9bb0aa75a2be8905e4fd1a4311b64ed5ecff3ce8d0bae27ef155d",
        "ddos": "4439a2a89eec5a933f24afe706195e43d2596044bf8cd7f7eb0e28c721ba3cbf",
    }

    @pytest.mark.parametrize("which", STREAMING_SCENARIOS)
    def test_alert_stream_digest_pinned(self, which):
        assert _run(which, 0).alert_stream_digest == self.ALERT_STREAM_SHA256[which]

    @pytest.mark.parametrize("which", STREAMING_SCENARIOS)
    def test_alert_stream_byte_identical(self, which):
        first = run_streaming_scenario(which, seed=0)
        second = run_streaming_scenario(which, seed=0)
        assert first.alert_stream_json == second.alert_stream_json
        assert first.alert_stream_digest == second.alert_stream_digest
        assert len(first.alert_stream_json) > 2  # non-empty stream

    def test_different_seeds_still_detect(self, request):
        # Determinism must not come from ignoring the seed entirely.
        base = _run("portscan", 0)
        other = _run("portscan", 1) if request.config.getoption("--wide") else base
        assert other.streaming_detected


# -- record parity: one engine behind both drivers ---------------------------

_STALE_AFTER = 60.0
_RULES = ((10, 1), (10, 2), (20, 1))  # (priority, cookie) on one match


def _headers(flow, reverse):
    """One of a few 5-tuples, in either direction (pairs and repeats)."""
    a, b = f"10.0.0.{1 + flow % 3}", f"10.0.1.{1 + flow // 3}"
    sport, dport = 40_000 + flow, 80
    if reverse:
        a, b, sport, dport = b, a, dport, sport
    return {"ip_src": a, "ip_dst": b, "ip_proto": 6, "tcp_src": sport, "tcp_dst": dport}


_flow = st.tuples(st.integers(0, 5), st.booleans())
_sample = st.tuples(
    _flow,
    st.sampled_from(_RULES),
    st.integers(0, 500),  # packets
    st.integers(0, 900).map(lambda tenths: tenths / 10),  # duration (s)
)
_op = st.one_of(
    st.tuples(st.just("packet_in"), _flow),
    st.tuples(st.just("flow_stats"), st.lists(_sample, min_size=1, max_size=4)),
    st.tuples(st.just("flow_removed"), _sample),
    st.tuples(st.just("gc"), st.none()),
)
_steps = st.lists(
    st.tuples(st.integers(1, 3), st.integers(0, 50).map(float), _op), max_size=40
)


def _events(steps):
    """The interleaving as bus events and ("gc", now) marks."""
    now = 0.0
    for dpid, dt, (kind, body) in steps:
        now += dt
        if kind == "gc":
            yield "gc", now
        elif kind == "packet_in":
            message = PacketIn(dpid=dpid, headers=_headers(*body), total_len=120)
            yield PacketInEvent(instance_id=0, dpid=dpid, time=now, message=message)
        elif kind == "flow_stats":
            entries = [
                FlowStatsEntry(
                    match=Match(**_headers(*flow)), priority=priority, cookie=cookie,
                    duration_sec=duration, packet_count=packets,
                    byte_count=packets * 700, idle_timeout=10.0, hard_timeout=30.0,
                )
                for flow, (priority, cookie), packets, duration in body
            ]
            yield StatsEvent(
                instance_id=0, dpid=dpid, time=now, athena_marked=True,
                message=FlowStatsReply(dpid=dpid, entries=entries),
            )
        else:
            flow, (priority, cookie), packets, duration = body
            message = FlowRemoved(
                dpid=dpid, match=Match(**_headers(*flow)), priority=priority,
                cookie=cookie, duration_sec=duration, packet_count=packets,
                byte_count=packets * 700,
            )
            yield FlowRemovedEvent(instance_id=0, dpid=dpid, time=now, message=message)


class TestRecordParity:
    """The polled generator and the streaming pipeline fold an observation
    through one engine: fed the same interleaving, every flow-scope record
    carries the same indicators and the same fields on both paths."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_steps)
    def test_flow_records_identical(self, steps):
        def port_speed(dpid, port):
            return 1e6 * dpid

        records, streamed = [], []
        generator = FeatureGenerator(
            instance_id=0, sink=records.append, port_speed_lookup=port_speed,
            stale_after=_STALE_AFTER,
        )
        bus = EventBus()
        pipeline = StreamingPipeline(
            stale_after=_STALE_AFTER, port_speed_lookup=port_speed
        )
        pipeline.attach_instance(0, bus)
        pipeline.add_sink(streamed.append)
        handlers = {
            PacketInEvent: generator.on_packet_in,
            StatsEvent: generator.on_stats_event,
            FlowRemovedEvent: generator.on_flow_removed,
        }
        for event in _events(steps):
            if isinstance(event, tuple):
                generator.collect_garbage(event[1])
                pipeline.collect_garbage(event[1])
                continue
            handlers[type(event)](event)
            bus.publish(event)
        polled = [r for r in records if r.scope is FeatureScope.FLOW]
        assert len(polled) == len(streamed)
        for record, event in zip(polled, streamed):
            assert record.indicators == event.indicators
            assert record.fields == event.fields

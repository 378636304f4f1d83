"""The per-event streaming path does each piece of work once.

* ``score_event`` is pure for every registered streaming learner, which
  is what lets the detector manager score only the events it alerts on;
* scoring only alerts gives byte-identical alert streams to scoring every
  event (``tests.oracles.ScoreEveryEventManager``), and the manager calls
  ``score_event`` once per alert;
* the event bus's cached delivery tuples deliver exactly what the
  uncached bus did (``tests.oracles.UncachedEventBus``), under
  subscribe/unsubscribe from outside and inside listeners;
* with telemetry on, the pipeline times every stream event.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import telemetry
from repro.controller.events import (
    ControllerEvent,
    EventBus,
    PacketInEvent,
    StatsEvent,
)
from repro.core.feature_format import FeatureScope
from repro.ml.online import (
    HalfSpaceTrees,
    OnlineGaussianNB,
    OnlineLearner,
    SlidingWindowDetector,
    StreamingKMeans,
)
from repro.ml.registry import create_algorithm, list_algorithms
from repro.openflow.messages import (
    FlowStatsEntry,
    FlowStatsReply,
    Match,
    PacketIn,
)
from repro.streaming import StreamingDetectorManager, StreamingPipeline
from repro.streaming.pipeline import StreamEvent
from tests.oracles import ScoreEveryEventManager, UncachedEventBus

STREAMING = list_algorithms("streaming")


# -- score_event is pure --------------------------------------------------------------


def _trained(name):
    learner = create_algorithm(name)
    rng = np.random.default_rng(3)
    learner.fit(rng.normal([1.0, 5.0, -2.0], 0.5, size=(600, 3)))
    return learner


def _probes(learner):
    rng = np.random.default_rng(4)
    rows = np.vstack([rng.normal([1.0, 5.0, -2.0], 2.0, size=(6, 3)),
                      [[40.0, -30.0, 25.0]]])
    return [(learner.score_event(row), learner.predict_event(row)) for row in rows]


@pytest.mark.parametrize("name", STREAMING)
def test_score_event_is_pure(name):
    scored, twin = _trained(name), _trained(name)
    outlier = [60.0, -50.0, 90.0]
    first = scored.score_event(outlier)
    assert scored.score_event(outlier) == first
    assert _probes(scored) == _probes(twin)


# -- score once, only for an alert -----------------------------------------------------


class _Spy(OnlineLearner):
    """Forwards to a learner and counts the ``score_event`` calls made on
    it from outside (a learner's own internal calls are not counted)."""

    def __init__(self, inner):
        self.inner = inner
        self.score_calls = 0

    def partial_fit(self, x, y=None):
        self.inner.partial_fit(x, y)
        return self

    def score_event(self, x):
        self.score_calls += 1
        return self.inner.score_event(x)

    def predict_event(self, x):
        return self.inner.predict_event(x)

    def refresh(self):
        self.inner.refresh()


_FEATURES = ["SRC_FLOW_FANOUT", "FLOW_BYTE_COUNT"]
_KINDS = ("packet_in", "flow_stats", "flow_removed")
_SOURCES = ("10.0.0.1", "10.0.0.2", "10.0.0.3")


def _frozen_nb():
    learner = OnlineGaussianNB()
    rng = np.random.default_rng(11)
    for row in rng.normal([2.0, 300.0], [1.0, 50.0], size=(40, 2)):
        learner.partial_fit(row, 0)
    for row in rng.normal([9.0, 1500.0], [1.0, 50.0], size=(20, 2)):
        learner.partial_fit(row, 1)
    return learner


#: name -> (learner factory, register_detector keyword arguments).
_DETECTORS = {
    "nb": (OnlineGaussianNB, {"warmup": 4}),
    "nb_frozen": (_frozen_nb, {"absorb": False,
                               "kinds": ("flow_stats", "flow_removed")}),
    "kmeans": (lambda: StreamingKMeans(k=2, seed=1), {}),
    "window": (lambda: SlidingWindowDetector(column=0, threshold=None,
                                             window=4, min_hits=2), {}),
    "hst": (lambda: HalfSpaceTrees(n_trees=3, depth=3, window_size=12,
                                   seed=2), {"kinds": ("packet_in",),
                                             "warmup": 24}),
}


def _managers(cooldowns):
    """A score-every-event oracle and a spied real manager, identically
    registered."""
    oracle, manager, spies = ScoreEveryEventManager(), StreamingDetectorManager(), {}
    for (name, (factory, extra)), cooldown in zip(_DETECTORS.items(), cooldowns):
        oracle.register_detector(name, factory(), _FEATURES,
                                 cooldown=cooldown, **extra)
        spies[name] = _Spy(factory())
        manager.register_detector(name, spies[name], _FEATURES,
                                  cooldown=cooldown, **extra)
    return oracle, manager, spies


def _stream_events(steps):
    time = 0.0
    for step, kind, source, fanout, byte_count in steps:
        time += step
        yield StreamEvent(
            kind=kind, scope=FeatureScope.FLOW, dpid=1, instance_id=0,
            time=time, indicators={"ip_src": source},
            fields={"SRC_FLOW_FANOUT": fanout, "FLOW_BYTE_COUNT": byte_count},
        )


def _replay(steps, cooldowns):
    oracle, manager, spies = _managers(cooldowns)
    for event in _stream_events(steps):
        oracle.on_event(event)
        manager.on_event(event)
    return oracle, manager, spies


def _assert_score_once(oracle, manager, spies):
    assert manager.alert_stream_json() == oracle.alert_stream_json()
    emitted = {d["name"]: d["alerts_emitted"] for d in manager.summaries()}
    assert {name: spy.score_calls for name, spy in spies.items()} == emitted


_STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.1, 0.5, 1.5]),
        st.sampled_from(_KINDS),
        st.sampled_from(_SOURCES),
        st.one_of(st.floats(0.0, 4.0), st.floats(20.0, 60.0)),
        st.one_of(st.floats(100.0, 400.0), st.floats(1_000.0, 9_000.0)),
    ),
    max_size=80,
)
_COOLDOWNS = st.lists(st.sampled_from([0.0, 0.5, 2.0]),
                      min_size=len(_DETECTORS), max_size=len(_DETECTORS))


@settings(max_examples=60, deadline=None)
@given(steps=_STEPS, cooldowns=_COOLDOWNS)
def test_score_once_equals_score_every_event(steps, cooldowns):
    _assert_score_once(*_replay(steps, cooldowns))


#: The seeded stream's events from this index on include the burst.
_BURST_START = 240


def _seeded_steps():
    """300 events 0.05 s apart, benign until a burst every fourth triple
    from ``_BURST_START`` on."""
    rng = np.random.default_rng(5)
    steps = []
    for i in range(300):
        burst = i >= _BURST_START and i // 3 % 4 == 0
        steps.append((
            0.05,
            _KINDS[i % 3],
            _SOURCES[i % len(_SOURCES)],
            float(rng.uniform(30.0, 50.0) if burst else rng.uniform(0.0, 3.0)),
            float(rng.uniform(5_000.0, 9_000.0) if burst
                  else rng.uniform(100.0, 400.0)),
        ))
    return steps


def test_seeded_stream_alerts_on_every_detector():
    """The property above is not vacuous: a seeded benign-then-burst
    stream makes every detector alert, through the oracle and the real
    manager alike."""
    oracle, manager, spies = _replay(_seeded_steps(), [0.5] * len(_DETECTORS))
    _assert_score_once(oracle, manager, spies)
    assert {alert["detector"] for alert in manager.alerts} == set(_DETECTORS)


def test_half_space_trees_without_warmup_alerts_on_the_burst():
    """Scores taken before the first reference window closes stay out of
    HST's baseline, so with no warm-up it still alerts on the burst, and
    only there."""
    manager = StreamingDetectorManager()
    manager.register_detector(
        "hst", HalfSpaceTrees(n_trees=3, depth=3, window_size=12, seed=2),
        _FEATURES, cooldown=0.5, kinds=("packet_in",))
    for event in _stream_events(_seeded_steps()):
        manager.on_event(event)
    assert manager.alerts
    assert all(alert["sim_time"] > 0.05 * _BURST_START for alert in manager.alerts)


# -- cached bus delivery ----------------------------------------------------------------


class _Recorder:
    def __init__(self, log, name):
        self.log, self.name = log, name

    def handle(self, event):
        self.log.append((self.name, type(event).__name__, event.time))


class _World:
    """One bus and its listeners.  ``listener(name)`` returns the object to
    (un)subscribe: bound methods are re-created on every access, and
    ``fresh_partial`` is a new, unequal partial every time."""

    def __init__(self, bus):
        self.bus, self.log = bus, []
        self.recorders = [_Recorder(self.log, "method_a"),
                          _Recorder(self.log, "method_b")]
        self.partial = functools.partial(self._record, "partial")

    def _record(self, name, event):
        self.log.append((name, type(event).__name__, event.time))

    def _plain(self, event):
        self._record("plain", event)

    def _late(self, event):
        self._record("late", event)

    def _subscriber(self, event):
        self._record("subscriber", event)
        self.bus.subscribe(ControllerEvent, self.listener("late"))

    def _unsubscriber(self, event):
        self._record("unsubscriber", event)
        self.bus.unsubscribe(PacketInEvent, self.listener("method_a"))
        self.bus.unsubscribe(ControllerEvent, self.listener("late"))

    def listener(self, name):
        if name == "method_a":
            return self.recorders[0].handle
        if name == "method_b":
            return self.recorders[1].handle
        if name == "partial":
            return self.partial
        if name == "fresh_partial":
            return functools.partial(self._record, "fresh_partial")
        return {"plain": self._plain, "late": self._late,
                "subscriber": self._subscriber,
                "unsubscriber": self._unsubscriber}[name]


_EVENT_TYPES = st.sampled_from([ControllerEvent, PacketInEvent, StatsEvent])
_LISTENERS = st.sampled_from(["method_a", "method_b", "partial", "fresh_partial",
                              "plain", "late", "subscriber", "unsubscriber"])


class CachedBusMachine(RuleBasedStateMachine):
    """Every operation runs on an ``EventBus`` and the uncached oracle;
    every event must reach the same listeners in the same order."""

    def __init__(self):
        super().__init__()
        self.real, self.oracle = _World(EventBus()), _World(UncachedEventBus())
        self.time = 0.0

    @rule(event_type=_EVENT_TYPES, name=_LISTENERS)
    def subscribe(self, event_type, name):
        for world in (self.real, self.oracle):
            world.bus.subscribe(event_type, world.listener(name))

    @rule(event_type=_EVENT_TYPES, name=_LISTENERS)
    def unsubscribe(self, event_type, name):
        for world in (self.real, self.oracle):
            world.bus.unsubscribe(event_type, world.listener(name))

    @rule(event_type=_EVENT_TYPES)
    def publish(self, event_type):
        self.time += 1.0
        for world in (self.real, self.oracle):
            world.bus.publish(event_type(time=self.time))

    @invariant()
    def same_deliveries(self):
        assert self.real.log == self.oracle.log
        for event_type in (ControllerEvent, PacketInEvent, StatsEvent):
            assert self.real.bus.listener_count(event_type) == (
                self.oracle.bus.listener_count(event_type)
            )


TestCachedBusAgainstOracle = CachedBusMachine.TestCase
TestCachedBusAgainstOracle.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


# -- telemetry on: every stream event is timed -------------------------------------------


@pytest.fixture
def registry():
    yield telemetry.configure(enabled=True).registry
    telemetry.reset_telemetry()


def test_latency_histogram_counts_every_event(registry):
    bus, pipeline = EventBus(), StreamingPipeline()
    pipeline.attach_instance(0, bus)
    for port in range(5):
        bus.publish(PacketInEvent(
            instance_id=0, dpid=1, time=float(port),
            message=PacketIn(dpid=1, in_port=1, buffer_id=0, reason=0,
                             headers={"ip_src": "10.0.0.1", "ip_dst": "10.0.0.9",
                                      "ip_proto": 6, "tcp_dst": 80 + port},
                             total_len=100),
        ))
    entries = [
        FlowStatsEntry(match=Match(ip_src=f"10.0.0.{i}"), priority=1,
                       duration_sec=1.0, packet_count=5, byte_count=500)
        for i in range(3)
    ]
    bus.publish(StatsEvent(instance_id=0, dpid=1, time=6.0, athena_marked=True,
                           message=FlowStatsReply(dpid=1, entries=entries)))
    assert pipeline.events_processed == 8
    assert registry.get("athena_streaming_event_seconds").count == 8

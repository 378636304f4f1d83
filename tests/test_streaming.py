"""Unit tests for repro.streaming and the online learners.

Covers the online-learner protocol (partial_fit / score_event /
predict_event / refresh and the batch fit/predict bridge), incremental
NB parity with the batch sufficient-statistics trainer, the streaming
feature state and pipeline folding, detector alerting/cooldown/refresh,
the catalog validation of streaming feature names, and the EventBus
mid-dispatch subscription fix.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.controller.events import (
    ControllerEvent,
    EventBus,
    FlowRemovedEvent,
    PacketInEvent,
    StatsEvent,
)
from repro.core.feature_format import FeatureScope
from repro.core.features.catalog import FEATURE_CATALOG
from repro.errors import AthenaError, MLError
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.online import (
    HalfSpaceTrees,
    OnlineGaussianNB,
    SlidingWindowDetector,
    StreamingKMeans,
)
from repro.ml.registry import category_of, create_algorithm, list_algorithms
from repro.openflow.messages import (
    FlowRemoved,
    FlowStatsEntry,
    FlowStatsReply,
    Match,
    PacketIn,
)
from repro.simkernel.rng import SeededRng
from repro.streaming import (
    STREAMING_CONTROL_FEATURES,
    STREAMING_FLOW_FEATURES,
    STREAMING_SWITCH_FEATURES,
    StreamingDetectorManager,
    StreamingPipeline,
)
from repro.streaming.pipeline import StreamEvent


def _packet_in(dpid=1, src="10.0.0.1", dst="10.0.0.9", dport=80, time=1.0):
    return PacketInEvent(
        instance_id=0,
        dpid=dpid,
        time=time,
        message=PacketIn(
            dpid=dpid,
            headers={
                "ip_src": src,
                "ip_dst": dst,
                "ip_proto": 6,
                "tcp_src": 40_000,
                "tcp_dst": dport,
            },
            total_len=100,
        ),
    )


class TestRegistryStreaming:
    def test_streaming_algorithms_registered(self):
        for name in ("online_naive_bayes", "streaming_kmeans",
                     "half_space_trees", "sliding_window"):
            assert name in list_algorithms()
            assert category_of(name) == "streaming"

    def test_create_with_params(self):
        learner = create_algorithm("sliding_window", column=0, threshold=5.0)
        assert isinstance(learner, SlidingWindowDetector)

    def test_streaming_category_needs_no_labels(self):
        from repro.core.algorithm import GenerateAlgorithm

        algorithm = GenerateAlgorithm("streaming_kmeans", k=3)
        assert not algorithm.needs_labels
        assert not algorithm.needs_marks
        assert algorithm.has_learning_phase


class TestOnlineGaussianNB:
    def test_matches_batch_nb_posteriors(self):
        """Running sufficient statistics must reproduce the batch fit."""
        rng = np.random.default_rng(7)
        benign = rng.normal([2.0, 5.0], 1.0, size=(120, 2))
        attack = rng.normal([9.0, 1.0], 1.0, size=(80, 2))
        X = np.vstack([benign, attack])
        y = np.array([0.0] * 120 + [1.0] * 80)

        online = OnlineGaussianNB()
        for row, label in zip(X, y):
            online.partial_fit(row, label)
        batch = GaussianNaiveBayes().fit(X, y)

        online_preds = np.array(
            [float(online.predict_event(row)) for row in X]
        )
        assert np.array_equal(online_preds, batch.predict(X))

    @pytest.mark.parametrize("two_class, digest", [
        (True, "ca0a50cbe832a68923c76b606ef97b80f2b0360106bb638398dec58238d02b98"),
        (False, "0ba45803834e58a9dee66a9186cae5706801df15ae9fb35ae6d1230f82b04d4a"),
    ], ids=["two_class", "one_class"])
    def test_replay_pinned(self, two_class, digest):
        """The closed moments and three probe scores after a seeded replay.

        The single-class replay runs density mode, so its probe scores
        also pin the running log-likelihood baseline.
        """
        rng = np.random.default_rng(23)
        model = OnlineGaussianNB()
        for i in range(400):
            attack = two_class and i % 4 == 3
            row = rng.normal([9.0, 1.0, 4.0] if attack else [2.0, 5.0, 4.0], 1.0)
            model.partial_fit(row, 1.0 if attack else 0.0)
        closed = model._close()
        probes = ([2.0, 5.0, 4.0], [9.0, 1.0, 4.0], [40.0, -30.0, 4.0])
        scores = np.array([model.score_event(probe) for probe in probes])
        hasher = hashlib.sha256(np.asarray(closed["classes"], dtype=float).tobytes())
        for name in ("priors", "means", "variances"):
            hasher.update(closed[name].tobytes())
        hasher.update(scores.tobytes())
        assert hasher.hexdigest() == digest

    def test_single_class_density_mode(self):
        online = OnlineGaussianNB(n_sigma=3.0)
        rng = np.random.default_rng(0)
        for _ in range(300):
            online.partial_fit(rng.normal([1.0, 1.0], 0.1))
        # In-distribution events never flag; a wild outlier does.
        assert not online.predict_event([1.0, 1.0])
        assert online.predict_event([500.0, -500.0])

    def test_unfitted_raises(self):
        with pytest.raises(MLError):
            OnlineGaussianNB().score_event([1.0])

    def test_batch_bridge(self):
        X = [[0.0], [0.1], [5.0], [5.1]]
        y = [0, 0, 1, 1]
        model = OnlineGaussianNB().fit(X, y)
        assert list(model.predict([[0.05], [5.05]])) == [0.0, 1.0]


class TestStreamingKMeans:
    def test_centers_track_clusters(self):
        rng = np.random.default_rng(3)
        model = StreamingKMeans(k=2)
        for _ in range(400):
            model.partial_fit(rng.normal([0.0, 0.0], 0.2))
            model.partial_fit(rng.normal([8.0, 8.0], 0.2))
        centers = sorted(tuple(np.round(c)) for c in model.centers)
        assert centers == [(0.0, 0.0), (8.0, 8.0)]

    def test_outlier_flags_after_calibration(self):
        rng = np.random.default_rng(4)
        model = StreamingKMeans(k=2, n_sigma=3.0)
        flagged_normal = 0
        for _ in range(300):
            x = rng.normal([0.0, 0.0], 0.1)
            if model.predict_event(x):
                flagged_normal += 1
            model.partial_fit(x)
        assert flagged_normal <= 3
        assert model.predict_event([50.0, 50.0])

    def test_duplicate_seeds_do_not_collapse_centers(self):
        model = StreamingKMeans(k=3)
        for _ in range(10):
            model.partial_fit([1.0, 1.0])
        assert len(model.centers) == 1  # one distinct point -> one center

    def test_bad_k(self):
        with pytest.raises(MLError):
            StreamingKMeans(k=0)


class TestHalfSpaceTrees:
    def test_sparse_region_scores_higher(self):
        rng = np.random.default_rng(5)
        model = HalfSpaceTrees(n_trees=10, depth=5, window_size=100, seed=1)
        for _ in range(600):
            model.partial_fit(rng.uniform(0.4, 0.6, size=3))
        assert model.windows_closed >= 1
        dense = model.score_event([0.5, 0.5, 0.5])
        sparse = model.score_event([0.0, 1.0, 0.0])
        assert sparse > dense

    def test_no_verdicts_before_first_window(self):
        model = HalfSpaceTrees(window_size=1_000)
        for _ in range(10):
            model.partial_fit([0.5, 0.5])
        assert not model.predict_event([99.0, -99.0])

    def test_refresh_promotes_window(self):
        model = HalfSpaceTrees(n_trees=4, depth=3, window_size=10_000)
        for _ in range(50):
            model.partial_fit([0.2, 0.8])
        assert model.windows_closed == 0
        model.refresh()
        assert model.windows_closed == 1

    def test_deterministic_given_seed(self):
        def scores(seed):
            model = HalfSpaceTrees(n_trees=6, depth=4, seed=seed,
                                   window_size=50)
            rng = np.random.default_rng(9)
            out = []
            for _ in range(200):
                x = rng.uniform(0, 1, size=2)
                model.partial_fit(x)
                out.append(model.score_event(x))
            return out

        assert scores(3) == scores(3)
        assert scores(3) != scores(4)


class TestSlidingWindowDetector:
    def test_sequence_rule(self):
        model = SlidingWindowDetector(column=0, threshold=10.0, window=4,
                                      min_hits=3)
        for value in (12.0, 13.0):
            assert not model.predict_event([value])
            model.partial_fit([value])
        # Third consecutive crossing satisfies min_hits=3.
        assert model.predict_event([14.0])

    def test_spike_does_not_alert(self):
        model = SlidingWindowDetector(column=0, threshold=10.0, window=8,
                                      min_hits=3)
        for _ in range(8):
            model.partial_fit([1.0])
        assert not model.predict_event([99.0])

    def test_self_calibrating_threshold(self):
        model = SlidingWindowDetector(column=0, window=16, min_hits=1,
                                      n_sigma=3.0)
        rng = np.random.default_rng(11)
        for _ in range(200):
            model.partial_fit([float(rng.normal(5.0, 0.5))])
        assert not model.predict_event([5.0])
        for _ in range(3):
            assert model.predict_event([50.0]) in (True, False)
            model.partial_fit([50.0])
        assert model.predict_event([50.0])

    def test_column_out_of_range(self):
        with pytest.raises(MLError):
            SlidingWindowDetector(column=5).partial_fit([1.0])


class TestStreamingFeatureNames:
    def test_all_streaming_features_resolve(self):
        FEATURE_CATALOG.validate(
            STREAMING_FLOW_FEATURES
            + STREAMING_SWITCH_FEATURES
            + STREAMING_CONTROL_FEATURES
        )

    def test_detector_rejects_unknown_feature(self):
        manager = StreamingDetectorManager()
        with pytest.raises(Exception):
            manager.register_detector(
                "bad", SlidingWindowDetector(), features=["NOT_A_FEATURE"]
            )


class TestStreamingPipeline:
    def _pipeline(self):
        bus = EventBus()
        pipeline = StreamingPipeline()
        pipeline.attach_instance(0, bus)
        return bus, pipeline

    def test_packet_in_folds_flow_fields(self):
        bus, pipeline = self._pipeline()
        seen = []
        pipeline.add_sink(seen.append)
        bus.publish(_packet_in(src="10.0.0.1", dport=100))
        bus.publish(_packet_in(src="10.0.0.1", dport=101, time=1.1))
        assert len(seen) == 2
        assert seen[-1].kind == "packet_in"
        assert seen[-1].scope is FeatureScope.FLOW
        assert seen[-1].fields["SRC_FLOW_FANOUT"] == 2.0
        assert seen[-1].fields["FLOW_IS_NEW"] == 1.0
        assert pipeline.events_processed == 2

    def test_flow_removed_evicts_state(self):
        bus, pipeline = self._pipeline()
        match = Match(ip_src="10.0.0.1", ip_dst="10.0.0.9",
                      tcp_src=40_000, tcp_dst=100, ip_proto=6)
        bus.publish(_packet_in(src="10.0.0.1", dport=100))
        assert pipeline.states[0].flow_state.tracked_flow_count(1) == 1
        bus.publish(
            FlowRemovedEvent(
                instance_id=0, dpid=1, time=2.0,
                message=FlowRemoved(dpid=1, match=match, duration_sec=1.0,
                                    packet_count=7, byte_count=700),
            )
        )
        assert pipeline.states[0].flow_state.tracked_flow_count(1) == 0
        assert pipeline.events_by_kind["flow_removed"] == 1

    def test_unmarked_stats_ignored(self):
        from repro.controller.events import StatsEvent
        from repro.openflow.messages import FlowStatsEntry, FlowStatsReply

        bus, pipeline = self._pipeline()
        reply = FlowStatsReply(dpid=1, entries=[
            FlowStatsEntry(match=Match(ip_src="10.0.0.3"), priority=1,
                           duration_sec=1.0, packet_count=5, byte_count=500),
        ])
        bus.publish(StatsEvent(instance_id=0, dpid=1, time=1.0,
                               message=reply, athena_marked=False))
        assert pipeline.events_processed == 0
        bus.publish(StatsEvent(instance_id=0, dpid=1, time=1.0,
                               message=reply, athena_marked=True))
        assert pipeline.events_by_kind["flow_stats"] == 1

    def test_switch_snapshot_does_not_reset_counters(self):
        bus, pipeline = self._pipeline()
        bus.publish(_packet_in(src="10.0.0.1", dport=100))
        state = pipeline.states[0].flow_state
        before = state._state(1).new_flows_since_sample
        fields = pipeline.switch_fields(0, 1)
        assert fields["TOTAL_TRACKED_FLOWS"] == 1.0
        assert state._state(1).new_flows_since_sample == before


def _eviction_stream(n=3000, per_sim_s=100.0):
    """A seeded stream over two switches: new flows, replies that pair
    with them, stats samples and removals of recent flows, and one host
    scanning ports.  Flows go stale within a few sim-seconds."""
    rng = SeededRng(11, "eviction_pins").generator
    hosts = [f"10.0.{i // 8}.{i % 8 + 1}" for i in range(16)]
    recent = []
    for i in range(n):
        time = i / per_sim_s
        pick, dpid = rng.random(), 1 + int(rng.integers(0, 2))
        if pick < 0.05:
            headers = {"ip_src": "10.9.9.9", "ip_dst": hosts[int(rng.integers(0, 16))],
                       "ip_proto": 6, "tcp_src": 41_000, "tcp_dst": int(rng.integers(1, 200))}
        elif pick < 0.55 or not recent:
            headers = {"ip_src": hosts[int(rng.integers(0, 16))],
                       "ip_dst": hosts[int(rng.integers(0, 16))], "ip_proto": 6,
                       "tcp_src": 40_000 + int(rng.integers(0, 16)),
                       "tcp_dst": (80, 22)[int(rng.integers(0, 2))]}
        else:
            dpid, headers = recent[int(rng.integers(0, len(recent)))]
            if pick < 0.75:
                headers = {"ip_src": headers["ip_dst"], "ip_dst": headers["ip_src"],
                           "ip_proto": 6, "tcp_src": headers["tcp_dst"],
                           "tcp_dst": headers["tcp_src"]}
            elif pick < 0.95:
                packets = int(rng.integers(1, 50))
                entry = FlowStatsEntry(match=Match(**headers), priority=10,
                                       duration_sec=2.0, packet_count=packets,
                                       byte_count=packets * 700)
                yield StatsEvent(instance_id=0, dpid=dpid, time=time, athena_marked=True,
                                 message=FlowStatsReply(dpid=dpid, entries=[entry]))
                continue
            else:
                yield FlowRemovedEvent(
                    instance_id=0, dpid=dpid, time=time,
                    message=FlowRemoved(dpid=dpid, match=Match(**headers), priority=10,
                                        duration_sec=3.0, packet_count=9, byte_count=900),
                )
                continue
        recent = (recent + [(dpid, headers)])[-64:]
        yield PacketInEvent(instance_id=0, dpid=dpid, time=time,
                            message=PacketIn(dpid=dpid, headers=headers, total_len=100))


class TestEvictionPins:
    """Pins what the state garbage collector evicts and everything
    downstream of it: a pipeline whose flows go stale within the run, so
    that several GC calls each evict reverse pairs, one flow of a pair
    or both.  The constants were recorded from this run; a flow-table
    change that evicts, pairs or counts differently moves one of them."""

    #: Per GC call: (evictions returned, paired flows evicted, flows left).
    GC_CALLS = [
        (57, 28, 211), (289, 98, 222), (351, 118, 221), (325, 76, 207),
        (322, 92, 200), (319, 80, 202), (310, 90, 223),
    ]
    RECORDS_SHA256 = "552e0ff6dd32717bf7e480b2965563b28ba429d1a0b4b832e8e5a932e51ead2c"
    ALERTS_SHA256 = "25e4de594587e702ce942f7f54d6dbc436114792ded1db0eb6ae6aa19002dc91"

    def test_evictions_records_and_alerts_are_pinned(self):
        bus = EventBus()
        pipeline = StreamingPipeline(stale_after=3.0)
        pipeline.attach_instance(0, bus)
        detectors = StreamingDetectorManager()
        detectors.register_detector(
            "fanout", SlidingWindowDetector(column=0, threshold=10.0, window=8, min_hits=2),
            features=["SRC_FLOW_FANOUT"], cooldown=0.5,
        )
        detectors.register_detector(
            "paired", SlidingWindowDetector(column=0, threshold=0.5, window=4, min_hits=3),
            features=["PAIR_FLOW"], cooldown=1.0, kinds=("flow_stats",),
        )
        pipeline.add_sink(detectors.on_event)
        records = hashlib.sha256()
        pipeline.add_sink(lambda event: records.update(json.dumps(
            [event.kind, event.dpid, event.time, event.indicators, event.fields],
            sort_keys=True,
        ).encode()))

        def paired():
            return sum(
                round(fields["PAIR_FLOW_RATIO"] * fields["TOTAL_TRACKED_FLOWS"])
                for fields in (pipeline.switch_fields(0, dpid) for dpid in (1, 2))
            )

        gc_calls, next_gc, next_refresh = [], 4.0, 2.0
        for event in _eviction_stream():
            if event.time >= next_refresh:
                detectors.refresh()
                next_refresh += 2.0
            if event.time >= next_gc:
                before = paired()
                evicted = pipeline.collect_garbage(event.time)
                tracked = pipeline.states[0].flow_state.tracked_flow_count()
                gc_calls.append((evicted, before - paired(), tracked))
                next_gc += 4.0
            bus.publish(event)
        assert sum(1 for _, pairs, _ in gc_calls if pairs) >= 3
        assert (
            gc_calls, records.hexdigest(), detectors.alert_stream_digest()
        ) == (self.GC_CALLS, self.RECORDS_SHA256, self.ALERTS_SHA256)


class TestStreamingDetectorManager:
    def _event(self, fanout, time, src="10.0.0.1"):
        return StreamEvent(
            kind="packet_in", scope=FeatureScope.FLOW, dpid=1, instance_id=0,
            time=time, indicators={"ip_src": src},
            fields={"SRC_FLOW_FANOUT": fanout},
        )

    def test_alerts_and_cooldown(self):
        manager = StreamingDetectorManager()
        manager.register_detector(
            "fanout",
            SlidingWindowDetector(column=0, threshold=3.0, window=4,
                                  min_hits=1),
            features=["SRC_FLOW_FANOUT"],
            cooldown=1.0,
        )
        for step in range(6):
            manager.on_event(self._event(10.0, time=0.1 * step))
        # All six are positive verdicts, but the 1s cooldown admits one.
        assert len(manager.alerts) == 1
        manager.on_event(self._event(10.0, time=2.0))
        assert len(manager.alerts) == 2
        assert manager.alerts[0]["source"] == "10.0.0.1"

    def test_duplicate_name_rejected(self):
        manager = StreamingDetectorManager()
        manager.register_detector(
            "x", SlidingWindowDetector(threshold=1.0),
            features=["SRC_FLOW_FANOUT"],
        )
        with pytest.raises(AthenaError):
            manager.register_detector(
                "x", SlidingWindowDetector(threshold=1.0),
                features=["SRC_FLOW_FANOUT"],
            )

    def test_warmup_suppresses_verdicts(self):
        manager = StreamingDetectorManager()
        manager.register_detector(
            "warm",
            SlidingWindowDetector(column=0, threshold=1.0, window=4,
                                  min_hits=1),
            features=["SRC_FLOW_FANOUT"],
            cooldown=0.0,
            warmup=5,
        )
        for step in range(5):
            manager.on_event(self._event(10.0, time=float(step)))
        assert manager.alerts == []
        manager.on_event(self._event(10.0, time=9.0))
        assert len(manager.alerts) == 1

    def test_kinds_filter(self):
        manager = StreamingDetectorManager()
        manager.register_detector(
            "stats_only",
            SlidingWindowDetector(column=0, threshold=1.0, window=4,
                                  min_hits=1),
            features=["SRC_FLOW_FANOUT"],
            cooldown=0.0,
            kinds=("flow_stats",),
        )
        manager.on_event(self._event(10.0, time=1.0))  # kind=packet_in
        assert manager.alerts == []

    def test_refresh_and_digest(self):
        manager = StreamingDetectorManager()
        manager.register_detector(
            "hst", HalfSpaceTrees(n_trees=2, depth=2, window_size=10_000),
            features=["SRC_FLOW_FANOUT"],
        )
        manager.refresh()
        assert manager.refreshes == 1
        assert len(manager.alert_stream_digest()) == 64


class TestEventBusMidDispatch:
    def test_subscriber_added_mid_dispatch_deferred(self):
        """A listener subscribed while an event is dispatching must not
        see that event — it joins deterministically from the next one."""
        bus = EventBus()
        late_calls = []

        def late_listener(event):
            late_calls.append(event)

        def subscribing_listener(event):
            bus.subscribe(ControllerEvent, late_listener)

        bus.subscribe(PacketInEvent, subscribing_listener)
        first = _packet_in(dport=1)
        second = _packet_in(dport=2, time=2.0)
        bus.publish(first)
        assert late_calls == []  # deferred: not delivered mid-dispatch
        bus.publish(second)
        assert late_calls == [second]

    def test_unsubscribe_mid_dispatch_does_not_retract(self):
        bus = EventBus()
        calls = []

        def victim(event):
            calls.append("victim")

        def unsubscriber(event):
            bus.unsubscribe(PacketInEvent, victim)

        bus.subscribe(PacketInEvent, unsubscriber)
        bus.subscribe(PacketInEvent, victim)
        bus.publish(_packet_in())
        assert calls == ["victim"]  # snapshotted before dispatch began
        bus.publish(_packet_in(time=2.0))
        assert calls == ["victim"]  # gone from the next event on


class TestDeploymentWiring:
    def test_enable_streaming_idempotent(self):
        from repro.chaos.scenarios import _build_stack

        topo, athena, _schedule = _build_stack()
        runtime = athena.enable_streaming()
        assert athena.enable_streaming() is runtime
        assert sorted(runtime.pipeline.states) == [
            instance.instance_id for instance in athena.instances
        ]
        topo.network.sim.run(until=1.0)

"""Sketch feature path: determinism, exact-path equivalence, recovery.

The contracts the ``ATHENA_SKETCH`` scope ships with (docs/SKETCH.md):

* same (seed, stream) → byte-identical sketch-state serialisations and
  identical alert-stream sha256 digests, across full pipeline re-runs;
* detection recall on sketch features stays within
  ``SKETCH_RECALL_TOLERANCE`` of the exact-features path for both the
  ddos and portscan scenarios;
* per-shard sketch states merge losslessly: a shard state recovered
  from its serialised replica merges to the byte-identical combined
  sketch, and detection over sharded documents holds recall — including
  under the canned ``shard-loss`` chaos plan with the flag live;
* the feature generator only grows sketch state behind the flag, emits
  one SKETCH-scope record per flow-stats round, and reports fill/error
  stats through the deployment into ``/api/status`` (whose cache version
  moves when the flag is toggled).
"""

import functools
import pickle

import pytest

from repro.controller.events import PacketInEvent, StatsEvent
from repro.core.feature_format import FeatureScope
from repro.core.generator import FeatureGenerator
from repro.openflow.match import Match
from repro.openflow.messages import (
    FlowStatsEntry,
    FlowStatsReply,
    PacketIn,
)
from repro.config import current, override
from repro.sketch import SKETCH_FEATURE_NAMES, ExactWindowState, SketchFeatureState
from repro.sketch.scenarios import (
    SKETCH_RECALL_TOLERANCE,
    build_documents,
    detect,
    run_sketch_scenario,
    sharded_documents,
)
from repro.workloads.sketchscale import SketchScaleGenerator, SketchScaleSpec


def _small_spec(scenario="ddos", seed=5):
    """A seconds-not-minutes workload with the full stream structure."""
    return SketchScaleSpec(
        scenario=scenario,
        n_flows=6_000,
        n_hosts=600,
        n_switches=4,
        n_windows=4,
        chunk_size=2_000,
        seed=seed,
    )


@functools.lru_cache(maxsize=None)
def _outcome(scenario, use_sketch=True, seed=5):
    return run_sketch_scenario(_small_spec(scenario, seed), use_sketch=use_sketch)


# -- determinism -------------------------------------------------------------


class TestStateDeterminism:
    def test_same_seed_same_stream_byte_identical(self):
        spec = _small_spec()
        _, first = build_documents(spec)
        _, second = build_documents(spec)
        assert first.to_bytes() == second.to_bytes()

    def test_different_seed_different_bytes(self):
        _, first = build_documents(_small_spec(seed=5))
        _, second = build_documents(_small_spec(seed=6))
        assert first.to_bytes() != second.to_bytes()

    def test_documents_replay_identically(self):
        spec = _small_spec("portscan")
        first, _ = build_documents(spec)
        second, _ = build_documents(spec)
        assert first == second

    def test_pipeline_digests_stable_across_runs(self):
        first = _outcome("ddos")
        second = run_sketch_scenario(_small_spec("ddos"))
        assert first.state_digest == second.state_digest
        assert first.alert_digest == second.alert_digest
        assert first.alerts == second.alerts

    def test_exact_path_has_no_state_digest(self):
        assert _outcome("ddos", use_sketch=False).state_digest == ""

    def test_state_pickles_and_serialises_round_trip(self):
        spec = _small_spec()
        _, state = build_documents(spec)
        assert SketchFeatureState.from_bytes(state.to_bytes()).to_bytes() == (
            state.to_bytes()
        )
        assert pickle.loads(pickle.dumps(state)).to_bytes() == state.to_bytes()


class TestReadsAllocateNothing:
    @pytest.mark.parametrize("state_class", [SketchFeatureState, ExactWindowState])
    def test_switch_fields_of_an_unseen_switch(self, state_class):
        state = state_class(seed=3)
        fields = state.switch_fields(42)
        assert list(fields) == list(SKETCH_FEATURE_NAMES)
        assert set(fields.values()) == {0.0}
        assert state.switches() == []
        assert state.nbytes() == 0
        state.observe(1, "flow", "10.0.0.1", 80, packets=2, bytes_=200)
        assert state.switch_fields(1)["SKETCH_TOTAL_PACKETS"] == 2.0
        assert state.switches() == [1]


# -- sketch vs exact equivalence ---------------------------------------------


class TestExactEquivalence:
    @pytest.mark.parametrize("scenario", ["ddos", "portscan"])
    def test_recall_within_tolerance_of_exact(self, scenario):
        sketch = _outcome(scenario, use_sketch=True)
        exact = _outcome(scenario, use_sketch=False)
        assert exact.recall > 0.5, "exact baseline must itself detect"
        drift = abs(sketch.recall - exact.recall)
        assert drift <= SKETCH_RECALL_TOLERANCE, (
            f"{scenario}: sketch recall {sketch.recall:.3f} drifted "
            f"{drift:.3f} from exact {exact.recall:.3f}"
        )

    @pytest.mark.parametrize("scenario", ["ddos", "portscan"])
    def test_sketch_path_flags_every_attack_cell(self, scenario):
        outcome = _outcome(scenario, use_sketch=True)
        assert outcome.n_attack_cells > 0
        assert outcome.recall == 1.0
        assert outcome.false_alarm_rate <= 0.1

    def test_sketch_state_is_smaller_than_exact(self):
        sketch = _outcome("ddos", use_sketch=True)
        exact = _outcome("ddos", use_sketch=False)
        # Even at toy scale the rolled sketch windows stay bounded while
        # exact per-flow state grows with the stream.
        assert sketch.state_nbytes > 0
        assert exact.state_nbytes > 0


# -- shard loss and recovery -------------------------------------------------


class TestShardRecovery:
    def test_replica_restore_merges_byte_identically(self):
        spec = _small_spec()
        _, shards = sharded_documents(spec, n_shards=3)

        def combined(states):
            merged = SketchFeatureState(seed=spec.seed)
            for state in states:
                merged.merge(state)
            return merged.to_bytes()

        baseline = combined(shards)
        # Lose shard 0; recover it from its serialised replica bytes.
        replica = shards[0].to_bytes()
        recovered = SketchFeatureState.from_bytes(replica)
        assert combined([recovered, shards[1], shards[2]]) == baseline

    def test_sharded_documents_hold_detection_recall(self):
        spec = _small_spec()
        documents, _ = sharded_documents(spec, n_shards=3)
        _, recall, _, _ = detect(documents, "ddos")
        single = _outcome("ddos", use_sketch=True)
        assert recall >= single.recall - SKETCH_RECALL_TOLERANCE

    def test_detection_survives_canned_shard_loss_with_sketch_live(self):
        from repro.chaos import canned_plan
        from repro.chaos.scenarios import run_scenario

        with override(sketch=True):
            result = run_scenario("ddos", plan=canned_plan("shard-loss"), seed=0)
        assert result.detected
        assert result.faults_applied >= 1


# -- feature generator wiring ------------------------------------------------


def _packet_in(dpid=1, time=1.0, src="10.0.0.1", dport=80, length=100):
    return PacketInEvent(
        dpid=dpid,
        time=time,
        message=PacketIn(
            dpid=dpid,
            in_port=1,
            headers={"ip_src": src, "ip_dst": "10.0.0.99",
                     "eth_type": 0x800, "ip_proto": 6,
                     "tcp_src": 5, "tcp_dst": dport},
            total_len=length,
        ),
    )


def _flow_stats(dpid=1, time=5.0):
    return StatsEvent(
        instance_id=0,
        dpid=dpid,
        time=time,
        message=FlowStatsReply(
            dpid=dpid,
            entries=[
                FlowStatsEntry(
                    match=Match(ip_src="10.0.0.1", ip_dst="10.0.0.2", tcp_dst=80),
                    priority=10,
                    duration_sec=5.0,
                    packet_count=50,
                    byte_count=5000,
                    app_id="fwd",
                )
            ],
        ),
        athena_marked=True,
    )


class TestGeneratorWiring:
    def test_no_sketch_state_without_flag(self):
        sink = []
        generator = FeatureGenerator(instance_id=0, sink=sink.append)
        with override(sketch=False):
            generator.on_packet_in(_packet_in())
            generator.on_stats_event(_flow_stats())
        assert generator.sketch_state is None
        assert generator.sketch_stats() is None
        assert not [r for r in sink if r.scope == FeatureScope.SKETCH]

    def test_sketch_record_emitted_per_stats_round_under_flag(self):
        sink = []
        generator = FeatureGenerator(instance_id=0, sink=sink.append)
        with override(sketch=True):
            generator.on_packet_in(_packet_in(src="10.0.0.1", dport=80))
            generator.on_packet_in(_packet_in(src="10.0.0.2", dport=443))
            generator.on_stats_event(_flow_stats())
        records = [r for r in sink if r.scope == FeatureScope.SKETCH]
        assert len(records) == 1
        fields = records[0].fields
        assert set(fields) == set(SKETCH_FEATURE_NAMES)
        # 2 packet-ins + 1 flow-stats entry observed this window.
        assert fields["SKETCH_OBSERVATIONS"] == 3.0
        assert fields["SKETCH_UNIQUE_SRC_EST"] >= 2.0
        assert generator.sketch_stats() is not None

    def test_window_rolls_between_rounds_bloom_persists(self):
        sink = []
        generator = FeatureGenerator(instance_id=0, sink=sink.append)
        with override(sketch=True):
            generator.on_packet_in(_packet_in(src="10.0.0.1", time=1.0))
            generator.on_stats_event(_flow_stats(time=5.0))
            generator.on_packet_in(_packet_in(src="10.0.0.1", time=6.0))
            generator.on_stats_event(_flow_stats(time=10.0))
        records = [r for r in sink if r.scope == FeatureScope.SKETCH]
        assert len(records) == 2
        # Second window counts only its own events (the roll reset it)...
        assert records[1].fields["SKETCH_OBSERVATIONS"] == 2.0
        # ...but the persistent bloom remembers the host across windows.
        assert records[1].fields["SKETCH_SEEN_HOST_RATIO"] == 1.0


# -- northbound exposure -----------------------------------------------------


@pytest.fixture(scope="module")
def nb_client():
    from repro import telemetry
    from repro.northbound import LocalClient, NorthboundAPI, build_demo_stack

    telemetry.configure(enabled=True)
    demo = build_demo_stack(horizon=5.0)
    demo.run(until=5.0)
    yield LocalClient(NorthboundAPI(demo.athena))
    telemetry.reset_telemetry()


class TestNorthboundExposure:
    def test_status_reports_sketch_block(self, nb_client):
        data = nb_client.get("/api/status").json()["data"]
        sketch = data["sketch"]
        assert sketch["enabled"] is current().sketch
        for key in ("cms_fill_ratio", "cms_error_bound", "hll_relative_error",
                    "bloom_fill_ratio", "bloom_fp_bound", "observations"):
            assert key in sketch

    def test_toggle_moves_cache_state_version(self, nb_client):
        # Flip to the opposite of however the suite is running (the
        # ATHENA_SKETCH=1 CI leg starts with the flag live).
        baseline = current().sketch
        first = nb_client.get("/api/status")
        with override(sketch=not baseline):
            second = nb_client.get("/api/status")
        assert second.etag != first.etag
        assert second.json()["data"]["sketch"]["enabled"] is (not baseline)
        third = nb_client.get("/api/status")
        assert third.etag == first.etag

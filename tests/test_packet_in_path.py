"""The per-record feature path: generator -> document -> publish -> store.

A record is flattened once, by the generator, into the document the
store and the delivery table both read; the fidelity controls filter
that document's fields, and telemetry still times every extraction stage
when it is on.
"""

import pytest

from repro.controller import ControllerCluster, ReactiveForwarding
from repro.controller.events import PacketInEvent, StatsEvent
from repro.core import AthenaDeployment, GenerateQuery
from repro.core.feature_manager import FEATURE_COLLECTION
from repro.core.features.catalog import FEATURE_CATALOG, FeatureCategory
from repro.core.generator import FeatureGenerator
from repro.dataplane.topologies import linear_topology
from repro.openflow.match import Match
from repro.openflow.messages import FlowStatsEntry, FlowStatsReply, PacketIn
from repro.telemetry import configure, get_telemetry, reset_telemetry
from repro.workloads.flows import FlowSpec, TrafficSchedule


def _packet_in(time, src="10.0.0.1", dpid=1):
    return PacketInEvent(
        dpid=dpid,
        time=time,
        message=PacketIn(
            dpid=dpid,
            in_port=1,
            headers={"ip_src": src, "ip_dst": "10.0.0.99", "eth_type": 0x800,
                     "ip_proto": 6, "tcp_src": 5, "tcp_dst": 80},
            total_len=100,
        ),
    )


def _flow_stats(time, dpid=1):
    entry = FlowStatsEntry(
        match=Match(ip_src="10.0.0.1", ip_dst="10.0.0.2", tcp_dst=80),
        priority=10, duration_sec=time, packet_count=int(10 * time),
        byte_count=int(1000 * time), app_id="fwd",
    )
    return StatsEvent(
        dpid=dpid, time=time, message=FlowStatsReply(dpid=dpid, entries=[entry]),
        athena_marked=True,
    )


def _deployment():
    topo = linear_topology(n_switches=2)
    cluster = ControllerCluster(topo.network, n_instances=1)
    cluster.adopt_all()
    return AthenaDeployment(cluster)


def _fields(doc):
    return {name for name in doc if name.isupper()}


class TestCategoriesEndToEnd:
    """``ResourceManager.set_categories`` as stored documents show it."""

    def _emit(self, athena, time):
        """One PacketIn and one flow-stats round; their stored flow docs."""
        generator = athena.instances[0].generator
        generator.on_packet_in(_packet_in(time, src=f"10.0.1.{int(time)}"))
        generator.on_stats_event(_flow_stats(time + 0.5))
        docs = athena.database.find(
            FEATURE_COLLECTION, {"feature_scope": "flow"}, sort=[("timestamp", 1)]
        )
        packet_in, flow_stats = docs[-2:]
        assert (packet_in["timestamp"], flow_stats["timestamp"]) == (time, time + 0.5)
        return packet_in, flow_stats

    def test_only_enabled_categories_are_stored_and_all_come_back(self):
        athena = _deployment()
        full = self._emit(athena, 1.0)
        enabled = {FeatureCategory.PROTOCOL, FeatureCategory.VARIATION}
        athena.resource_manager.set_categories(enabled)
        restricted = self._emit(athena, 2.0)
        for full_doc, doc in zip(full, restricted):
            kept = _fields(doc)
            assert kept and kept < _fields(full_doc)
            for name in kept:
                assert FEATURE_CATALOG[name].category in enabled
            # Index and meta fields are never filtered.
            assert {k for k in doc if not k.isupper()} == {
                k for k in full_doc if not k.isupper()
            }
        athena.resource_manager.set_categories(FeatureCategory)
        restored = self._emit(athena, 3.0)
        assert [_fields(doc) for doc in restored] == [_fields(doc) for doc in full]

    def test_in_place_edit_applies_to_the_next_record(self):
        athena = _deployment()
        generator = athena.instances[0].generator
        before = self._emit(athena, 1.0)
        generator.enabled_categories.discard(FeatureCategory.STATEFUL)
        after = self._emit(athena, 2.0)
        for full_doc, doc in zip(before, after):
            dropped = _fields(full_doc) - _fields(doc)
            assert dropped
            assert {FEATURE_CATALOG[name].category for name in dropped} == {
                FeatureCategory.STATEFUL
            }


class TestOneFlattening:
    def test_each_published_record_is_flattened_once(self, monkeypatch):
        """Generator, store, delivery table and online validator all read
        the one document the generator builds per record."""
        import repro.core.feature_format as feature_format
        import repro.core.generator as generator_module
        from repro.core.algorithm import GenerateAlgorithm
        from repro.core.preprocessor import GeneratePreprocessor

        topo = linear_topology(n_switches=3, hosts_per_switch=2)
        cluster = ControllerCluster(topo.network, n_instances=1)
        cluster.adopt_all()
        cluster.start(poll=False)
        ReactiveForwarding().activate(cluster)
        athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
        athena.start()
        features = ["FLOW_PACKET_COUNT", "PAIR_FLOW"]
        training = [
            {"feature_scope": "flow", "FLOW_PACKET_COUNT": float(n),
             "PAIR_FLOW": float(n % 2), "label": int(n > 40)}
            for n in range(60)
        ]
        model = athena.detector_manager.generate_detection_model(
            GenerateQuery(),
            GeneratePreprocessor(normalization="minmax", marking="label",
                                 features=features),
            GenerateAlgorithm("threshold"),
            documents=training,
        )
        verdicts = []
        athena.northbound.add_online_validator(
            model.preprocessor, model, lambda f, v: verdicts.append(v),
            query=GenerateQuery("feature_scope == flow"),
        )
        flattened = []
        original = feature_format.feature_document

        def counting(*args, **kwargs):
            flattened.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(feature_format, "feature_document", counting)
        monkeypatch.setattr(generator_module, "feature_document", counting)
        schedule = TrafficSchedule(topo.network)
        schedule.prime_arp()
        schedule.add_flow(FlowSpec(src_host="h1", dst_host="h5", rate_pps=10.0,
                                   start=1.0, duration=3.0, bidirectional=True))
        topo.network.sim.run(until=5.0)
        published = athena.feature_manager.features_published
        assert verdicts and published > len(verdicts)
        assert len(flattened) == published


def test_packet_in_stage_counted_under_telemetry():
    """With telemetry on, every PacketIn is one ``packet_in`` stage sample."""
    configure(enabled=True)
    try:
        generator = FeatureGenerator(instance_id=0, sink=[].append)
        for n in range(25):
            generator.on_packet_in(_packet_in(1.0 + n, src=f"10.0.2.{n}"))
        stages = get_telemetry().registry.get("athena_feature_stage_seconds")
        assert stages.labels(stage="packet_in").count == 25
        records = get_telemetry().registry.get("athena_feature_records_total")
        assert records.labels(scope="flow").value == 25
    finally:
        reset_telemetry()


@pytest.mark.parametrize("sketch", [False, True])
def test_sketch_decision_follows_config_changes(sketch):
    """An unpinned generator takes the sketch decision again whenever the
    runtime config changes, without reading the config per event."""
    from repro.config import current, override

    generator = FeatureGenerator(instance_id=0, sink=[].append)
    with override(sketch=sketch):
        generator.on_packet_in(_packet_in(1.0))
        assert (generator.sketch_state is not None) is sketch
    assert (generator.state.window_gate is not None) is current().sketch

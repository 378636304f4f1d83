"""Tests for the Feature Generator (1B)."""

import pytest

from repro.controller.events import (
    FlowRemovedEvent,
    MessageDirection,
    PacketInEvent,
    StatsEvent,
)
from repro.core.feature_format import AthenaFeature, FeatureScope
from repro.core.features.catalog import FeatureCategory
from repro.core.generator import FeatureGenerator
from repro.openflow.messages import (
    FlowRemoved,
    FlowStatsEntry,
    FlowStatsReply,
    PacketIn,
    PortStatsEntry,
    PortStatsReply,
    TableStatsEntry,
    TableStatsReply,
)
from repro.openflow.match import Match


def _recording(records):
    """A generator sink keeping each document as its ``AthenaFeature``."""
    return lambda doc: records.append(AthenaFeature.from_document(doc))


def _flow_stats_event(dpid=1, time=5.0, entries=None, instance=0):
    entries = entries or [
        FlowStatsEntry(
            match=Match(ip_src="10.0.0.1", ip_dst="10.0.0.2", tcp_dst=80),
            priority=10,
            duration_sec=5.0,
            packet_count=50,
            byte_count=5000,
            app_id="fwd",
        )
    ]
    return StatsEvent(
        instance_id=instance,
        dpid=dpid,
        time=time,
        message=FlowStatsReply(dpid=dpid, entries=entries),
        athena_marked=True,
    )


@pytest.fixture
def sink():
    return []


@pytest.fixture
def generator(sink):
    return FeatureGenerator(instance_id=0, sink=_recording(sink))


class TestFlowStats:
    def test_flow_record_emitted(self, generator, sink):
        generator.on_stats_event(_flow_stats_event())
        flow_records = [r for r in sink if r.scope == FeatureScope.FLOW]
        assert len(flow_records) == 1
        record = flow_records[0]
        assert record.fields["FLOW_PACKET_COUNT"] == 50.0
        assert record.fields["FLOW_BYTE_PER_PACKET"] == 100.0
        assert record.indicators["ip_src"] == "10.0.0.1"
        assert record.app_id == "fwd"

    def test_switch_record_accompanies_flow_round(self, generator, sink):
        generator.on_stats_event(_flow_stats_event())
        switch_records = [r for r in sink if r.scope == FeatureScope.SWITCH]
        assert len(switch_records) == 1
        assert switch_records[0].fields["TOTAL_TRACKED_FLOWS"] == 1.0

    def test_variation_across_rounds(self, generator, sink):
        generator.on_stats_event(_flow_stats_event(time=5.0))
        entries = [
            FlowStatsEntry(
                match=Match(ip_src="10.0.0.1", ip_dst="10.0.0.2", tcp_dst=80),
                priority=10,
                duration_sec=10.0,
                packet_count=80,
                byte_count=9000,
                app_id="fwd",
            )
        ]
        generator.on_stats_event(_flow_stats_event(time=10.0, entries=entries))
        flows = [r for r in sink if r.scope == FeatureScope.FLOW]
        assert flows[1].fields["FLOW_PACKET_COUNT_VAR"] == 30.0
        assert flows[1].fields["FLOW_BYTE_COUNT_VAR"] == 4000.0

    def test_flow_rule_lookup_fallback(self, sink):
        generator = FeatureGenerator(
            instance_id=0,
            sink=_recording(sink),
            flow_rule_lookup=lambda dpid, match: "lb",
        )
        entries = [
            FlowStatsEntry(
                match=Match(ip_src="10.0.0.1"), priority=1, duration_sec=1.0,
                packet_count=1, byte_count=1, app_id=None,
            )
        ]
        generator.on_stats_event(_flow_stats_event(entries=entries))
        flows = [r for r in sink if r.scope == FeatureScope.FLOW]
        assert flows[0].app_id == "lb"


class TestPortStats:
    def _event(self, rx_bytes, time):
        return StatsEvent(
            dpid=1,
            time=time,
            message=PortStatsReply(
                dpid=1,
                entries=[PortStatsEntry(port_no=2, rx_bytes=rx_bytes, rx_packets=1)],
            ),
            athena_marked=True,
        )

    def test_port_record(self, generator, sink):
        generator.on_stats_event(self._event(1000, 1.0))
        ports = [r for r in sink if r.scope == FeatureScope.PORT]
        assert len(ports) == 1
        assert ports[0].port_no == 2
        assert ports[0].fields["PORT_RX_BYTES"] == 1000.0

    def test_port_variation_drives_utilization(self, sink):
        generator = FeatureGenerator(
            instance_id=0, sink=_recording(sink),
            port_speed_lookup=lambda dpid, port: 8000.0,
        )
        generator.on_stats_event(self._event(0, 0.0))
        generator.on_stats_event(self._event(500, 1.0))
        ports = [r for r in sink if r.scope == FeatureScope.PORT]
        assert ports[1].fields["PORT_RX_BYTES_VAR"] == 500.0
        assert ports[1].fields["PORT_UTILIZATION"] == pytest.approx(0.5)


class TestOtherEvents:
    def test_table_stats_record(self, generator, sink):
        generator.on_stats_event(
            StatsEvent(
                dpid=1, time=1.0,
                message=TableStatsReply(
                    dpid=1,
                    entries=[TableStatsEntry(table_id=0, active_count=5,
                                             lookup_count=10, matched_count=9)],
                ),
                athena_marked=True,
            )
        )
        switches = [r for r in sink if r.scope == FeatureScope.SWITCH]
        assert switches[0].fields["TABLE_ACTIVE_COUNT"] == 5.0
        assert switches[0].fields["TABLE_HIT_RATIO"] == 0.9

    def test_flow_removed_emits_final_record(self, generator, sink):
        generator.on_stats_event(_flow_stats_event())
        generator.on_flow_removed(
            FlowRemovedEvent(
                dpid=1, time=20.0,
                message=FlowRemoved(
                    dpid=1,
                    match=Match(ip_src="10.0.0.1", ip_dst="10.0.0.2", tcp_dst=80),
                    packet_count=100, byte_count=10000, duration_sec=15.0,
                    app_id="fwd",
                ),
            )
        )
        flows = [r for r in sink if r.scope == FeatureScope.FLOW]
        assert flows[-1].fields["FLOW_PACKET_COUNT"] == 100.0
        assert generator.flow_state.tracked_flow_count(1) == 0

    def test_packet_in_record(self, generator, sink):
        generator.on_packet_in(
            PacketInEvent(
                dpid=3, time=1.0,
                message=PacketIn(
                    dpid=3, in_port=1,
                    headers={"ip_src": "10.0.0.1", "ip_dst": "10.0.0.2",
                             "eth_type": 0x800, "ip_proto": 6,
                             "tcp_src": 5, "tcp_dst": 80},
                    total_len=100,
                ),
            )
        )
        flows = [r for r in sink if r.scope == FeatureScope.FLOW]
        assert flows[0].fields["FLOW_IS_NEW"] == 1.0
        assert flows[0].switch_id == 3

    def test_message_tap_feeds_control_record(self, generator, sink):
        message = PacketIn(dpid=1, headers={}, total_len=64)
        generator.on_message_tap(message, MessageDirection.FROM_SWITCH, 0)
        generator.on_message_tap(message, MessageDirection.FROM_SWITCH, 0)
        generator.on_stats_event(_flow_stats_event())
        controls = [r for r in sink if r.scope == FeatureScope.CONTROL]
        assert len(controls) == 1
        assert controls[0].fields["PACKET_IN_COUNT"] == 2.0
        assert controls[0].fields["CONTROL_MSG_BYTES"] > 0


class TestFidelityControls:
    def test_scope_filtering(self, generator, sink):
        generator.enabled_scopes = {FeatureScope.PORT}
        generator.on_stats_event(_flow_stats_event())
        assert sink == []

    def test_switch_filtering(self, generator, sink):
        generator.monitored_switches = {99}
        generator.on_stats_event(_flow_stats_event(dpid=1))
        assert sink == []
        generator.monitored_switches = {1}
        generator.on_stats_event(_flow_stats_event(dpid=1))
        assert sink

    def test_category_filtering(self, generator, sink):
        generator.enabled_categories = {FeatureCategory.PROTOCOL}
        generator.on_stats_event(_flow_stats_event())
        flows = [r for r in sink if r.scope == FeatureScope.FLOW]
        assert "FLOW_PACKET_COUNT" in flows[0].fields
        assert "FLOW_BYTE_PER_PACKET" not in flows[0].fields
        assert "PAIR_FLOW" not in flows[0].fields

    def test_gc_cleans_both_tables(self, generator, sink):
        generator.on_stats_event(_flow_stats_event(time=0.0))
        assert generator.collect_garbage(now=1000.0) > 0
        assert generator.flow_state.tracked_flow_count() == 0

    def test_counts(self, generator, sink):
        generator.on_stats_event(_flow_stats_event())
        assert generator.features_generated == len(sink)


class TestCategorySuppressionCache:
    """_filter_categories precomputes the suppressed-name set (PR-8)."""

    def test_full_category_set_bypasses_cache(self, generator, sink):
        generator.on_stats_event(_flow_stats_event())
        assert generator._suppressed_key is None

    def test_suppressed_names_cached_per_category_set(self, generator, sink):
        generator.enabled_categories = {FeatureCategory.PROTOCOL}
        generator.on_stats_event(_flow_stats_event())
        cached = generator._suppressed_names
        assert cached  # something really is suppressed
        generator.on_stats_event(_flow_stats_event(time=6.0))
        assert generator._suppressed_names is cached

    def test_cache_recomputed_when_fidelity_changes(self, generator, sink):
        generator.enabled_categories = {FeatureCategory.PROTOCOL}
        generator.on_stats_event(_flow_stats_event())
        narrow = generator._suppressed_names
        generator.enabled_categories = {
            FeatureCategory.PROTOCOL,
            FeatureCategory.COMBINATION,
        }
        generator.on_stats_event(_flow_stats_event(time=6.0))
        assert generator._suppressed_names is not narrow
        assert generator._suppressed_names < narrow

    def test_filtering_output_matches_catalog(self, generator, sink):
        from repro.core.features.catalog import FEATURE_CATALOG

        generator.enabled_categories = {FeatureCategory.PROTOCOL}
        generator.on_stats_event(_flow_stats_event())
        for record in sink:
            for name in record.fields:
                definition = FEATURE_CATALOG.get(name)
                if definition is not None:
                    assert definition.category is FeatureCategory.PROTOCOL

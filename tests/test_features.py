"""Tests for the feature catalog, format, and extractors."""

import pytest

from repro.core.feature_format import AthenaFeature, FeatureScope
from repro.core.features.catalog import (
    FEATURE_CATALOG,
    FeatureCategory,
    feature_names,
    features_by_category,
    features_by_scope,
    is_known_feature,
    require_known,
)
from repro.core.features import combination, protocol
from repro.core.features.stateful import FlowStateTable, reverse_indicators
from repro.core.features.variation import VariationTracker
from repro.errors import FeatureError
from repro.openflow.messages import (
    FlowRemoved,
    FlowStatsEntry,
    PortStatsEntry,
    TableStatsEntry,
)
from repro.openflow.match import Match


class TestCatalog:
    def test_over_100_features(self):
        """The paper: 'Athena exposes over 100 network monitoring features'."""
        assert len(FEATURE_CATALOG) > 100

    def test_all_table1_categories_present(self):
        for category in FeatureCategory:
            assert features_by_category(category), category

    def test_paper_named_features_exist(self):
        for name in [
            "FLOW_PACKET_COUNT", "FLOW_BYTE_COUNT", "FLOW_DURATION_SEC",
            "FLOW_DURATION_N_SEC", "PAIR_FLOW", "PAIR_FLOW_RATIO",
            "FLOW_BYTE_PER_PACKET", "FLOW_PACKET_PER_DURATION",
            "FLOW_BYTE_PER_DURATION", "FLOW_UTILIZATION",
            "PORT_RX_BYTES_VAR", "FLOW_BYTE_COUNT_VAR",
        ]:
            assert is_known_feature(name), name

    def test_variation_features_derive_from_varying(self):
        for name in features_by_category(FeatureCategory.VARIATION):
            base = name[: -len("_VAR")]
            assert FEATURE_CATALOG[base].varies

    def test_scopes_partition_catalog(self):
        total = sum(len(features_by_scope(s)) for s in FeatureScope)
        assert total == len(FEATURE_CATALOG)

    def test_require_known_raises(self):
        with pytest.raises(FeatureError):
            require_known("NOT_A_FEATURE")

    def test_names_sorted_and_unique(self):
        names = feature_names()
        assert names == sorted(set(names))

    def test_sketch_scope_catalogued(self):
        from repro.sketch import SKETCH_FEATURE_NAMES

        catalogued = features_by_scope(FeatureScope.SKETCH)
        assert sorted(catalogued) == sorted(SKETCH_FEATURE_NAMES)
        # Sketch windows are per-sample deltas already; nothing varies.
        for name in catalogued:
            assert not FEATURE_CATALOG[name].varies

    def test_suggest_prefers_same_family(self):
        # A misspelt SKETCH_* name must resolve inside the SKETCH_*
        # family even when another scope has a textually close name.
        assert (
            FEATURE_CATALOG.suggest("SKETCH_UNIQ_SRC_EST")
            == "SKETCH_UNIQUE_SRC_EST"
        )
        assert (
            FEATURE_CATALOG.suggest("SKETCH_SEEN_HOST_RATE")
            == "SKETCH_SEEN_HOST_RATIO"
        )
        # Cross-family fallback still works for non-prefixed typos.
        assert FEATURE_CATALOG.suggest("FLOW_PAKET_COUNT") == "FLOW_PACKET_COUNT"
        # Hopeless names suggest nothing rather than something random.
        assert FEATURE_CATALOG.suggest("ZZZ_TOTALLY_UNKNOWN") is None


class TestFeatureFormat:
    def _record(self):
        return AthenaFeature(
            scope=FeatureScope.FLOW,
            switch_id=6,
            instance_id=1,
            timestamp=12.5,
            indicators={"ip_src": "10.0.0.1", "tcp_dst": 80},
            app_id="lb",
            fields={"FLOW_PACKET_COUNT": 42.0, "PAIR_FLOW": 1.0},
            label=1,
        )

    def test_document_roundtrip(self):
        record = self._record()
        doc = record.to_document()
        assert doc["switch_id"] == 6
        assert doc["FLOW_PACKET_COUNT"] == 42.0
        assert doc["ip_src"] == "10.0.0.1"
        rebuilt = AthenaFeature.from_document(doc)
        assert rebuilt.scope == FeatureScope.FLOW
        assert rebuilt.indicators == record.indicators
        assert rebuilt.fields == record.fields
        assert rebuilt.app_id == "lb"
        assert rebuilt.label == 1

    def test_value_accessor(self):
        record = self._record()
        assert record.value("FLOW_PACKET_COUNT") == 42.0
        with pytest.raises(FeatureError):
            record.value("MISSING")

    def test_flow_key_stable(self):
        a = self._record()
        b = self._record()
        assert a.flow_key() == b.flow_key()


class TestProtocolExtractors:
    def test_flow_fields(self):
        entry = FlowStatsEntry(
            match=Match(ip_src="1.1.1.1"), priority=10, duration_sec=2.5,
            packet_count=10, byte_count=5000, idle_timeout=10.0,
        )
        fields = protocol.flow_fields(entry)
        assert fields["FLOW_PACKET_COUNT"] == 10.0
        assert fields["FLOW_DURATION_SEC"] == 2.0
        assert fields["FLOW_DURATION_N_SEC"] == pytest.approx(0.5e9)

    def test_removed_flow_fields(self):
        msg = FlowRemoved(packet_count=7, byte_count=700, duration_sec=3.0)
        fields = protocol.removed_flow_fields(msg)
        assert fields["FLOW_PACKET_COUNT"] == 7.0

    def test_port_fields(self):
        entry = PortStatsEntry(port_no=1, rx_packets=5, tx_bytes=100)
        fields = protocol.port_fields(entry)
        assert fields["PORT_RX_PACKETS"] == 5.0
        assert fields["PORT_TX_BYTES"] == 100.0

    def test_control_counters(self):
        fields = protocol.control_counter_fields(
            {"packet_in": 3, "flow_mod": 2, "bytes": 500}
        )
        assert fields["PACKET_IN_COUNT"] == 3.0
        assert fields["CONTROL_MSG_TOTAL"] == 5.0
        assert fields["CONTROL_MSG_BYTES"] == 500.0


class TestCombinationExtractors:
    def test_flow_formulas(self):
        base = {
            "FLOW_PACKET_COUNT": 10.0,
            "FLOW_BYTE_COUNT": 10000.0,
            "FLOW_DURATION_SEC": 2.0,
            "FLOW_DURATION_N_SEC": 0.0,
            "FLOW_HARD_TIMEOUT": 4.0,
            "FLOW_IDLE_TIMEOUT": 1.0,
        }
        fields = combination.flow_fields(base, port_speed_bps=1e6)
        assert fields["FLOW_BYTE_PER_PACKET"] == 1000.0
        assert fields["FLOW_PACKET_PER_DURATION"] == 5.0
        assert fields["FLOW_BYTE_PER_DURATION"] == 5000.0
        # 5000 B/s * 8 = 40kbps over 1Mbps = 0.04
        assert fields["FLOW_UTILIZATION"] == pytest.approx(0.04)
        assert fields["FLOW_LIFETIME_RATIO"] == 0.5

    def test_zero_denominators_safe(self):
        fields = combination.flow_fields({})
        assert all(value == 0.0 for value in fields.values())

    def test_port_utilization_uses_deltas(self):
        base = {"PORT_RX_BYTES": 2000.0, "PORT_TX_BYTES": 0.0,
                "PORT_RX_PACKETS": 2.0, "PORT_TX_PACKETS": 0.0}
        fields = combination.port_fields(
            base, port_speed_bps=8000.0, delta_seconds=1.0, delta_bytes=500.0
        )
        assert fields["PORT_UTILIZATION"] == pytest.approx(0.5)

    def test_switch_formulas(self):
        fields = combination.switch_fields(
            {"TABLE_ACTIVE_COUNT": 10.0, "TABLE_LOOKUP_COUNT": 100.0,
             "TABLE_MATCHED_COUNT": 90.0},
            {"AGG_BYTE_COUNT": 1000.0, "AGG_PACKET_COUNT": 10.0,
             "AGG_FLOW_COUNT": 10.0},
            table_capacity=100.0,
        )
        assert fields["TABLE_UTILIZATION"] == 0.1
        assert fields["TABLE_HIT_RATIO"] == 0.9
        assert fields["AGG_BYTE_PER_FLOW"] == 100.0


class TestStatefulExtractors:
    IND_AB = {"ip_src": "10.0.0.1", "ip_dst": "10.0.0.2", "tcp_src": 1, "tcp_dst": 2}
    IND_BA = {"ip_src": "10.0.0.2", "ip_dst": "10.0.0.1", "tcp_src": 2, "tcp_dst": 1}

    def test_reverse_indicators(self):
        assert reverse_indicators(self.IND_AB) == self.IND_BA

    def test_pair_flow_detection(self):
        table = FlowStateTable()
        first = table.observe_flow(1, self.IND_AB, now=0.0)
        assert first["PAIR_FLOW"] == 0.0
        assert first["FLOW_IS_NEW"] == 1.0
        reverse = table.observe_flow(1, self.IND_BA, now=0.1)
        assert reverse["PAIR_FLOW"] == 1.0
        again = table.observe_flow(1, self.IND_AB, now=0.2)
        assert again["PAIR_FLOW"] == 1.0
        assert again["FLOW_IS_NEW"] == 0.0
        assert again["FLOW_SAMPLE_COUNT"] == 2.0

    def test_fanout_counts(self):
        table = FlowStateTable()
        for dport in range(5):
            ind = dict(self.IND_AB, tcp_dst=dport)
            fields = table.observe_flow(1, ind, now=0.0)
        assert fields["SRC_FLOW_FANOUT"] == 5.0

    def test_switch_fields_ratio(self):
        table = FlowStateTable()
        table.observe_flow(1, self.IND_AB, now=0.0)
        table.observe_flow(1, self.IND_BA, now=0.0)
        table.observe_flow(1, dict(self.IND_AB, ip_src="10.0.0.9"), now=0.0)
        fields = table.switch_fields(1, now=1.0)
        assert fields["TOTAL_TRACKED_FLOWS"] == 3.0
        assert fields["PAIR_FLOW_RATIO"] == pytest.approx(2 / 3)
        assert fields["SINGLE_FLOW_RATIO"] == pytest.approx(1 / 3)
        # Sources: 10.0.0.1, 10.0.0.2 (the reverse flow), 10.0.0.9.
        assert fields["UNIQUE_SRC_COUNT"] == 3.0

    def test_new_flow_rate_resets_per_sample(self):
        table = FlowStateTable()
        table.observe_flow(1, self.IND_AB, now=0.0)
        table.switch_fields(1, now=1.0)
        fields = table.switch_fields(1, now=2.0)
        assert fields["NEW_FLOW_RATE"] == 0.0

    def test_remove_flow_updates_state(self):
        table = FlowStateTable()
        table.observe_flow(1, self.IND_AB, now=0.0)
        table.observe_flow(1, self.IND_BA, now=0.0)
        assert table.remove_flow(1, self.IND_AB)
        assert not table.remove_flow(1, self.IND_AB)
        fields = table.switch_fields(1, now=1.0)
        assert fields["TOTAL_TRACKED_FLOWS"] == 1.0
        assert fields["PAIR_FLOW_RATIO"] == 0.0

    def test_garbage_collection(self):
        table = FlowStateTable(stale_after=10.0)
        table.observe_flow(1, self.IND_AB, now=0.0)
        table.observe_flow(1, self.IND_BA, now=8.0)
        assert table.collect_garbage(now=15.0) == 1
        assert table.tracked_flow_count(1) == 1

    def test_reads_of_an_unseen_switch_allocate_nothing(self):
        table = FlowStateTable()
        table.observe_flow(1, self.IND_AB, now=0.0)
        snapshot = table.switch_snapshot(99)
        assert snapshot and set(snapshot.values()) == {0.0}
        assert table.tracked_flow_count(99) == 0
        assert sorted(table._switches) == [1]

    def test_per_switch_isolation(self):
        table = FlowStateTable()
        table.observe_flow(1, self.IND_AB, now=0.0)
        fields = table.observe_flow(2, self.IND_BA, now=0.0)
        assert fields["PAIR_FLOW"] == 0.0


class TestVariationTracker:
    def test_first_sample_baseline_zero(self):
        tracker = VariationTracker()
        variations = tracker.diff("e1", {"FLOW_PACKET_COUNT": 10.0}, now=0.0)
        assert variations["FLOW_PACKET_COUNT_VAR"] == 10.0

    def test_delta_against_previous(self):
        tracker = VariationTracker()
        tracker.diff("e1", {"FLOW_PACKET_COUNT": 10.0}, now=0.0)
        variations = tracker.diff("e1", {"FLOW_PACKET_COUNT": 25.0}, now=1.0)
        assert variations["FLOW_PACKET_COUNT_VAR"] == 15.0

    def test_non_varying_fields_ignored(self):
        tracker = VariationTracker()
        variations = tracker.diff("e1", {"FLOW_BYTE_PER_PACKET": 5.0}, now=0.0)
        assert variations == {}

    def test_entities_independent(self):
        tracker = VariationTracker()
        tracker.diff("e1", {"FLOW_PACKET_COUNT": 10.0}, now=0.0)
        variations = tracker.diff("e2", {"FLOW_PACKET_COUNT": 3.0}, now=0.0)
        assert variations["FLOW_PACKET_COUNT_VAR"] == 3.0

    def test_forget(self):
        tracker = VariationTracker()
        tracker.diff("e1", {"FLOW_PACKET_COUNT": 10.0}, now=0.0)
        tracker.forget("e1")
        variations = tracker.diff("e1", {"FLOW_PACKET_COUNT": 10.0}, now=1.0)
        assert variations["FLOW_PACKET_COUNT_VAR"] == 10.0

    def test_garbage_collection(self):
        tracker = VariationTracker(stale_after=5.0)
        tracker.diff("old", {"FLOW_PACKET_COUNT": 1.0}, now=0.0)
        tracker.diff("new", {"FLOW_PACKET_COUNT": 1.0}, now=4.0)
        assert tracker.collect_garbage(now=6.0) == 1
        assert len(tracker) == 1

    def test_last_sample_time(self):
        tracker = VariationTracker()
        assert tracker.last_sample_time("e") is None
        tracker.diff("e", {"FLOW_PACKET_COUNT": 1.0}, now=3.0)
        assert tracker.last_sample_time("e") == 3.0

"""Tests for the feature catalog, format, and extractors."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

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
from repro.core.features.stateful import FlowStateTable, flow_keys, key_items
from repro.core.features.variation import VariationTracker
from repro.errors import FeatureError
from repro.openflow.messages import (
    FlowRemoved,
    FlowStatsEntry,
    PortStatsEntry,
    TableStatsEntry,
)
from repro.openflow.match import Match

from tests.oracles import (
    DictFlowStateTable,
    oracle_flow_keys,
    reverse_indicators,
    two_sort_flow_keys,
)


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


# -- the flow table against its dict oracle ------------------------------------

_HOSTS = ("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4")
#: Over four hosts and two ports, random draws hit reverse pairs and
#: ``src == dst`` flows that are their own reverse; a flow may also lack
#: one side (``{"ip_src": a}`` reverses to ``{"ip_dst": a}``).
_FLOW = st.builds(
    lambda src, dst, ports: {"ip_src": src, **dst, **ports},
    st.sampled_from(_HOSTS),
    st.sampled_from(_HOSTS).map(lambda host: {"ip_dst": host}) | st.just({}),
    st.sampled_from(
        [{}, {"tcp_src": 1, "tcp_dst": 2}, {"tcp_src": 2, "tcp_dst": 1},
         {"tcp_src": 1, "tcp_dst": 1}, {"tcp_src": 1}]
    ),
)
_STALE_AFTER = 2.0
_DT = st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0))
_DPID = st.sampled_from((1, 2))


class _TwinTables:
    """The flow table and :class:`DictFlowStateTable`, driven in lockstep:
    every call returns the same value from both, and :meth:`check` reads
    every switch (one of them never observed) through both."""

    def __init__(self):
        self.table = FlowStateTable(stale_after=_STALE_AFTER)
        self.oracle = DictFlowStateTable(stale_after=_STALE_AFTER)

    def observe(self, dpid, indicators, now, packets=0.0):
        fields = self.table.observe_flow(dpid, indicators, now, packets)
        assert fields == self.oracle.observe_flow(dpid, indicators, now, packets)
        return fields

    def remove(self, dpid, indicators):
        removed = self.table.remove_flow(dpid, indicators)
        assert removed == self.oracle.remove_flow(dpid, indicators)
        return removed

    def collect_garbage(self, now):
        evicted = self.table.collect_garbage(now)
        assert evicted == self.oracle.collect_garbage(now)
        return evicted

    def switch_fields(self, dpid, now):
        fields = self.table.switch_fields(dpid, now)
        assert fields == self.oracle.switch_fields(dpid, now)
        return fields

    def check(self):
        for dpid in (1, 2, 3):
            assert self.table.switch_snapshot(dpid) == self.oracle.switch_snapshot(dpid)
            assert self.table.tracked_flow_count(dpid) == self.oracle.tracked_flow_count(
                dpid
            )
        assert self.table.tracked_flow_count() == self.oracle.tracked_flow_count()


class FlowTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.twins = _TwinTables()
        self.now = 0.0
        self.seen = []  # (dpid, indicators) of every observation

    def _pick(self, index):
        return self.seen[index % len(self.seen)] if self.seen else (1, {"ip_src": _HOSTS[0]})

    @rule(dpid=_DPID, indicators=_FLOW, dt=_DT, packets=st.integers(0, 9))
    def observe(self, dpid, indicators, dt, packets):
        self.now += dt
        self.twins.observe(dpid, indicators, self.now, float(packets))
        self.seen.append((dpid, indicators))

    @rule(index=st.integers(0, 63), dt=_DT)
    def observe_reverse(self, index, dt):
        dpid, indicators = self._pick(index)
        self.observe(dpid, reverse_indicators(indicators), dt, 1)

    @rule(index=st.integers(0, 63), dt=_DT)
    def observe_again(self, index, dt):
        self.observe(*self._pick(index), dt, 2)

    @rule(index=st.integers(0, 63))
    def remove(self, index):
        self.twins.remove(*self._pick(index))

    @rule(dpid=_DPID, indicators=_FLOW)
    def remove_any(self, dpid, indicators):
        self.twins.remove(dpid, indicators)

    @rule(dt=_DT)
    def collect_garbage(self, dt):
        self.now += dt
        self.twins.collect_garbage(self.now)

    @rule(dpid=st.sampled_from((1, 2, 3)))
    def switch_fields(self, dpid):
        self.twins.switch_fields(dpid, self.now)

    @invariant()
    def reads_agree(self):
        self.twins.check()


TestFlowTableAgainstOracle = FlowTableMachine.TestCase
TestFlowTableAgainstOracle.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)


class TestFlowTableOracleCases:
    """The cases the random walk is there to reach, each taken once."""

    AB = {"ip_src": _HOSTS[0], "ip_dst": _HOSTS[1], "tcp_src": 1, "tcp_dst": 2}
    BA = reverse_indicators(AB)
    CD = {"ip_src": _HOSTS[2], "ip_dst": _HOSTS[3]}
    DC = reverse_indicators(CD)
    SELF = {"ip_src": _HOSTS[0], "ip_dst": _HOSTS[0], "tcp_src": 1, "tcp_dst": 1}

    def test_pairs_drops_and_evictions_match_the_oracle(self):
        twins = _TwinTables()
        ab, ba, cd, dc, self_ = self.AB, self.BA, self.CD, self.DC, self.SELF
        steps = [
            # A reverse pair, and a flow that is its own reverse.
            (twins.observe, (1, ab, 0.0), {"PAIR_FLOW": 0.0}),
            (twins.observe, (1, ba, 0.5), {"PAIR_FLOW": 1.0}),
            (twins.observe, (1, self_, 0.5), {"PAIR_FLOW": 0.0}),
            # Dropped, then created again: it pairs with its twin anew.
            (twins.remove, (1, ab), True),
            (twins.observe, (1, ba, 1.0), {"PAIR_FLOW": 0.0}),
            (twins.observe, (1, ab, 1.0), {"PAIR_FLOW": 1.0, "FLOW_IS_NEW": 1.0}),
            # Both halves of another pair; then one half is refreshed.
            (twins.observe, (1, cd, 1.5), {"PAIR_FLOW": 0.0}),
            (twins.observe, (1, dc, 1.5), {"PAIR_FLOW": 1.0}),
            (twins.observe, (1, ab, 3.0), {"PAIR_FLOW": 1.0}),
            # SELF (0.5) and BA (1.0) go; AB stays without its partner.
            (twins.collect_garbage, (3.2,), 2),
            (twins.observe, (1, ab, 3.2), {"PAIR_FLOW": 0.0}),
            # CD and DC are stale in the same call.
            (twins.collect_garbage, (3.6,), 2),
            (twins.switch_fields, (1, 3.6), {"TOTAL_TRACKED_FLOWS": 1.0}),
        ]
        for call, args, expected in steps:
            got = call(*args)
            if isinstance(expected, dict):
                assert {name: got[name] for name in expected} == expected
            else:
                assert got == expected
            twins.check()
        assert twins.table.switch_snapshot(1)["PAIR_FLOW_RATIO"] == 0.0


_INDICATOR_NAMES = ("eth_src", "eth_dst", "ip_src", "ip_dst", "ip_proto", "tcp_src", "tcp_dst")


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(_INDICATOR_NAMES),
        st.sampled_from(_HOSTS) | st.integers(0, 3) | st.just("00:00:00:00:00:01")
        | st.none(),
    )
)
def test_flow_keys_match_the_oracle(indicators):
    """The one-pass reverse key equals copy-flip-filter-sort, and leaves a
    ``None`` out as the oracle's filter does, though the engine never
    hands the table one.  Keys compare as their items."""
    assert tuple(map(key_items, flow_keys(indicators))) == oracle_flow_keys(
        indicators
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_INDICATOR_NAMES),
            st.sampled_from(_HOSTS[:2]) | st.integers(0, 2) | st.none(),
        ),
        unique_by=lambda item: item[0],
    ),
    st.booleans(),
)
def test_flow_keys_match_the_two_sort_version(items, mirrored):
    """The keys built from one cached name ordering are the two-sort keys,
    whatever order the indicators arrive in: with ``None`` values, and for
    flows that are their own reverse (each source equal to its
    destination), whose reverse key is their own key."""
    indicators = dict(items)
    if mirrored:
        for pair in (("eth_src", "eth_dst"), ("ip_src", "ip_dst"), ("tcp_src", "tcp_dst")):
            present = [indicators[name] for name in pair if name in indicators]
            if present:
                indicators.update(dict.fromkeys(pair, present[0]))
    key, reverse = flow_keys(indicators)
    assert (key_items(key), key_items(reverse)) == two_sort_flow_keys(indicators)
    if mirrored and None not in indicators.values():
        assert reverse == key


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

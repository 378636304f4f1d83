"""Tests for flow-table semantics (priority, modify/delete, expiry)."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.controller.forwarding import ReactiveForwarding
from repro.dataplane.flowtable import FlowTable
from repro.errors import DataPlaneError
from repro.openflow import ActionDrop, ActionOutput, FlowRemovedReason, Match
from repro.openflow.flow import FlowEntry

from tests.oracles import ListFlowTable


def _entry(priority=10, actions=None, **match_fields):
    return FlowEntry(
        match=Match.from_dict(match_fields),
        priority=priority,
        actions=actions or [ActionOutput(port=1)],
    )


class TestLookup:
    def test_highest_priority_wins(self):
        table = FlowTable()
        low = table.insert(_entry(priority=1, ip_src="10.0.0.1"), now=0.0)
        high = table.insert(_entry(priority=99, ip_src="10.0.0.1"), now=0.0)
        assert table.lookup({"ip_src": "10.0.0.1"}) is high
        assert low in table.entries

    def test_specificity_breaks_priority_ties(self):
        table = FlowTable()
        loose = table.insert(_entry(priority=10), now=0.0)
        tight = table.insert(_entry(priority=10, ip_src="10.0.0.1"), now=0.0)
        assert table.lookup({"ip_src": "10.0.0.1"}) is tight
        assert table.lookup({"ip_src": "10.0.0.9"}) is loose

    def test_miss_returns_none(self):
        table = FlowTable()
        table.insert(_entry(ip_src="10.0.0.1"), now=0.0)
        assert table.lookup({"ip_src": "99.9.9.9"}) is None

    def test_lookup_counters(self):
        table = FlowTable()
        table.insert(_entry(ip_src="10.0.0.1"), now=0.0)
        table.lookup({"ip_src": "10.0.0.1"})
        table.lookup({"ip_src": "2.2.2.2"})
        assert table.lookup_count == 2
        assert table.matched_count == 1

    def test_duplicate_match_priority_replaces(self):
        table = FlowTable()
        table.insert(_entry(priority=5, ip_src="10.0.0.1"), now=0.0)
        replacement = table.insert(
            _entry(priority=5, actions=[ActionDrop()], ip_src="10.0.0.1"), now=1.0
        )
        assert len(table) == 1
        assert table.lookup({"ip_src": "10.0.0.1"}) is replacement

    def test_capacity_enforced(self):
        table = FlowTable(max_entries=2)
        table.insert(_entry(tcp_src=1), now=0.0)
        table.insert(_entry(tcp_src=2), now=0.0)
        with pytest.raises(DataPlaneError):
            table.insert(_entry(tcp_src=3), now=0.0)


class TestModifyDelete:
    def test_non_strict_modify_covers_subsets(self):
        table = FlowTable()
        table.insert(_entry(ip_src="10.0.0.1", tcp_dst=80), now=0.0)
        table.insert(_entry(ip_src="10.0.0.1", tcp_dst=81), now=0.0)
        touched = table.modify(Match(ip_src="10.0.0.1"), [ActionDrop()])
        assert touched == 2
        assert all(e.actions == [ActionDrop()] for e in table.entries)

    def test_strict_modify_requires_exact(self):
        table = FlowTable()
        table.insert(_entry(priority=7, ip_src="10.0.0.1"), now=0.0)
        assert (
            table.modify(
                Match(ip_src="10.0.0.1"), [ActionDrop()], priority=8, strict=True
            )
            == 0
        )
        assert (
            table.modify(
                Match(ip_src="10.0.0.1"), [ActionDrop()], priority=7, strict=True
            )
            == 1
        )

    def test_non_strict_delete(self):
        table = FlowTable()
        table.insert(_entry(ip_src="10.0.0.1", tcp_dst=80), now=0.0)
        table.insert(_entry(ip_src="10.0.0.2", tcp_dst=80), now=0.0)
        removed = table.delete(Match(ip_src="10.0.0.1"))
        assert len(removed) == 1
        assert len(table) == 1

    def test_delete_all_with_wildcard(self):
        table = FlowTable()
        for i in range(5):
            table.insert(_entry(tcp_src=i), now=0.0)
        assert len(table.delete(Match())) == 5
        assert len(table) == 0

    def test_delete_filtered_by_out_port(self):
        table = FlowTable()
        table.insert(
            _entry(actions=[ActionOutput(port=1)], ip_src="10.0.0.1"), now=0.0
        )
        table.insert(
            _entry(actions=[ActionOutput(port=2)], ip_src="10.0.0.2"), now=0.0
        )
        removed = table.delete(Match(), out_port=2)
        assert len(removed) == 1
        assert removed[0].match.ip_src == "10.0.0.2"


class TestExpiry:
    def test_idle_expiry(self):
        table = FlowTable()
        entry = _entry(ip_src="10.0.0.1")
        entry.idle_timeout = 2.0
        table.insert(entry, now=0.0)
        assert table.expire(1.9) == []
        expired = table.expire(2.1)
        assert [(entry, FlowRemovedReason.IDLE_TIMEOUT)] == expired
        assert len(table) == 0

    def test_idle_refreshed_by_traffic(self):
        table = FlowTable()
        entry = _entry(ip_src="10.0.0.1")
        entry.idle_timeout = 2.0
        table.insert(entry, now=0.0)
        entry.stats.record(100, now=1.5)
        assert table.expire(3.0) == []
        assert table.expire(3.6)[0][1] == FlowRemovedReason.IDLE_TIMEOUT

    def test_hard_beats_idle(self):
        table = FlowTable()
        entry = _entry(ip_src="10.0.0.1")
        entry.idle_timeout = 1.0
        entry.hard_timeout = 1.0
        table.insert(entry, now=0.0)
        assert table.expire(1.5)[0][1] == FlowRemovedReason.HARD_TIMEOUT


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),  # priority
                st.integers(min_value=0, max_value=3),  # tcp_dst
            ),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=0, max_value=3),
    )
    def test_lookup_returns_max_priority_covering_entry(self, specs, probe):
        """The winner always has the maximum priority among covering entries."""
        table = FlowTable()
        for i, (priority, dst) in enumerate(specs):
            table.insert(
                FlowEntry(
                    match=Match(tcp_dst=dst),
                    priority=priority,
                    actions=[ActionOutput(port=i)],
                ),
                now=0.0,
            )
        headers = {"tcp_dst": probe}
        winner = table.lookup(headers)
        covering = [e for e in table.entries if e.match.matches(headers)]
        if not covering:
            assert winner is None
        else:
            assert winner is not None
            assert winner.priority == max(e.priority for e in covering)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30))
    def test_insert_then_delete_all_leaves_empty(self, ports):
        table = FlowTable()
        for i, port in enumerate(ports):
            table.insert(
                FlowEntry(match=Match(tcp_src=i), priority=port), now=0.0
            )
        table.delete(Match())
        assert len(table) == 0


def _exact_headers(i=0, tcp_dst=80):
    """A concrete value for every match field (exact-index territory)."""
    return {
        "in_port": (i % 4) + 1,
        "eth_src": f"00:00:00:00:00:{i % 256:02x}",
        "eth_dst": f"00:00:00:00:01:{i % 256:02x}",
        "eth_type": 0x0800,
        "vlan_id": 0,
        "ip_src": f"10.0.0.{i % 256}",
        "ip_dst": f"10.1.0.{i % 256}",
        "ip_proto": 6,
        "ip_tos": 0,
        "tcp_src": 1024 + i,
        "tcp_dst": tcp_dst,
    }


def _exact_entry(i=0, priority=10, tcp_dst=80, **overrides):
    entry = FlowEntry(
        match=Match.exact_from_headers(_exact_headers(i, tcp_dst)),
        priority=priority,
        actions=[ActionOutput(port=1)],
    )
    for name, value in overrides.items():
        setattr(entry, name, value)
    return entry


@pytest.fixture(params=[FlowTable, ListFlowTable], ids=["fast", "slow"])
def make_table(request):
    """The indexed table, and the list oracle the stateful test trusts.

    The hand-written winner/expiry/modify cases below are the OpenFlow
    semantics both must encode, so the oracle is itself pinned by them.
    """
    return request.param


class TestFastPathSemantics:
    """The indexed table keeps exact OpenFlow winner semantics."""

    def test_equal_priority_exact_beats_wildcard(self, make_table):
        table = make_table()
        exact = table.insert(_exact_entry(priority=10), now=0.0)
        table.insert(_entry(priority=10, tcp_dst=80), now=0.0)
        assert table.lookup(_exact_headers()) is exact

    def test_exact_shadowed_by_higher_priority_wildcard(self, make_table):
        table = make_table()
        exact = table.insert(_exact_entry(priority=10), now=0.0)
        shadow = table.insert(_entry(priority=20, tcp_dst=80), now=0.0)
        assert table.lookup(_exact_headers()) is shadow
        # A probe the wildcard does not cover still reaches the exact entry.
        assert table.lookup(_exact_headers(tcp_dst=81)) is None
        table.delete(Match(tcp_dst=80), priority=20, strict=True)
        assert table.lookup(_exact_headers()) is exact

    def test_wildcard_between_exact_priorities(self, make_table):
        table = make_table()
        table.insert(_exact_entry(priority=5), now=0.0)
        high = table.insert(_exact_entry(priority=30), now=0.0)
        table.insert(_entry(priority=20, tcp_dst=80), now=0.0)
        assert table.lookup(_exact_headers()) is high

    def test_expiry_order_follows_precedence(self, make_table):
        table = make_table()
        entries = []
        for i, priority in enumerate((5, 50, 20)):
            entry = _exact_entry(i, priority=priority, hard_timeout=1.0)
            entries.append(table.insert(entry, now=0.0))
        expired = table.expire(2.0)
        assert [e for e, _reason in expired] == sorted(
            entries, key=FlowEntry.sort_key
        )
        assert {reason for _e, reason in expired} == {
            FlowRemovedReason.HARD_TIMEOUT
        }
        assert len(table) == 0

    def test_heap_reschedules_after_idle_refresh(self, make_table):
        table = make_table()
        entry = table.insert(_exact_entry(idle_timeout=2.0), now=0.0)
        assert table.expire(1.5) == []
        entry.stats.record(100, now=1.5)
        # The original deadline (2.0) passes without eviction...
        assert table.expire(2.5) == []
        # ...and the refreshed one fires.
        assert table.expire(3.6) == [(entry, FlowRemovedReason.IDLE_TIMEOUT)]

    def test_expired_entry_not_returned_by_lookup(self, make_table):
        table = make_table()
        table.insert(_exact_entry(hard_timeout=1.0), now=0.0)
        table.expire(2.0)
        assert table.lookup(_exact_headers()) is None

    def test_strict_modify_after_insert_keeps_order(self, make_table):
        table = make_table()
        exact = table.insert(_exact_entry(priority=10), now=0.0)
        table.insert(_entry(priority=5, tcp_dst=80), now=0.0)
        touched = table.modify(
            exact.match, [ActionDrop()], priority=10, strict=True
        )
        assert touched == 1
        assert exact.actions == [ActionDrop()]
        winner = table.lookup(_exact_headers())
        assert winner is exact
        # Subsequent inserts still land in precedence order.
        high = table.insert(_exact_entry(1, priority=90), now=1.0)
        assert table.lookup(_exact_headers(1)) is high
        assert table.entries == sorted(table.entries, key=FlowEntry.sort_key)

    def test_cross_mask_tie_goes_to_the_earlier_arrival(self, make_table):
        """Equal priority and specificity under two masks: arrival decides,
        and a replacement arrives anew."""
        table = make_table()
        by_src = table.insert(_entry(priority=10, ip_src="10.0.0.1"), now=0.0)
        by_dst = table.insert(_entry(priority=10, tcp_dst=80), now=0.0)
        headers = {"ip_src": "10.0.0.1", "tcp_dst": 80}
        assert table.lookup(headers) is by_src
        replacement = table.insert(
            _entry(priority=10, actions=[ActionDrop()], ip_src="10.0.0.1"), now=1.0
        )
        assert table.lookup(headers) is by_dst
        table.delete(Match(tcp_dst=80), priority=10, strict=True)
        assert table.lookup(headers) is replacement

    def test_strict_modify_misses_other_priority(self, make_table):
        table = make_table()
        exact = table.insert(_exact_entry(priority=10), now=0.0)
        assert (
            table.modify(exact.match, [ActionDrop()], priority=11, strict=True)
            == 0
        )
        assert exact.actions == [ActionOutput(port=1)]


class TestPathEquivalence:
    """The table and the list oracle agree on a mixed workload."""

    @staticmethod
    def _drive(make_table):
        table = make_table()
        for i in range(20):
            table.insert(
                _exact_entry(i, priority=10 + (i % 3), hard_timeout=float(i % 5)),
                now=0.0,
            )
        table.insert(_entry(priority=12, tcp_dst=80), now=0.0)
        table.insert(_entry(priority=1), now=0.0)
        winners = []
        for i in range(25):
            entry = table.lookup(_exact_headers(i))
            winners.append(
                None
                if entry is None
                else (entry.priority, entry.match.key_tuple())
            )
        evicted = [
            (entry.priority, entry.match.key_tuple(), reason)
            for entry, reason in table.expire(3.5)
        ]
        table.delete(Match(tcp_dst=80))
        remaining = [
            (entry.priority, entry.match.key_tuple())
            for entry in table.entries
        ]
        return winners, evicted, remaining, table.lookup_count, table.matched_count

    def test_identical_outcomes(self):
        assert self._drive(FlowTable) == self._drive(ListFlowTable)


# -- stateful equivalence against the sorted-list oracle ----------------------

def _packet_headers(i=0, tcp_dst=80, in_port=1):
    """What a switch looks up: a packet's L2-L4 headers plus ``in_port``
    (no ``vlan_id`` / ``ip_tos``, which the traffic never sets)."""
    headers = {
        name: value
        for name, value in _exact_headers(i, tcp_dst).items()
        if name not in ("vlan_id", "ip_tos")
    }
    headers["in_port"] = in_port
    return headers


#: A small value space, so adds overlap, shadow and replace one another.
#: Besides one- and two-field rules and 11-field exact rules it draws the
#: shapes the live loop installs: ``ReactiveForwarding.flow_match``'s
#: 8-field rules and the all-wildcard table-miss rule.
_MATCHES = st.one_of(
    st.builds(
        Match,
        in_port=st.sampled_from([None, 1, 2]),
        ip_src=st.sampled_from([None, "10.0.0.1", "10.0.0.2"]),
        tcp_dst=st.sampled_from([None, 80, 81]),
    ),
    st.builds(
        lambda i, dst: Match.exact_from_headers(_exact_headers(i, dst)),
        st.integers(0, 2),
        st.sampled_from([80, 81]),
    ),
    st.builds(
        lambda i, dst: ReactiveForwarding.flow_match(_exact_headers(i, dst)),
        st.integers(0, 2),
        st.sampled_from([80, 81]),
    ),
    st.just(Match()),
)
_PRIORITIES = st.integers(0, 3)
_PORTS = st.integers(1, 2)
#: Multiples of 0.5 are exact in binary, so "now - t0 >= timeout" and the
#: heap's "t0 + timeout <= now" can never disagree by a rounding error.
_TIMEOUTS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_PACKET_HEADERS = st.builds(
    _packet_headers,
    st.integers(0, 3),
    st.sampled_from([80, 81, 82]),
    st.integers(1, 4),
)
_HEADERS = st.one_of(
    st.builds(_exact_headers, st.integers(0, 3), st.sampled_from([80, 81, 82])),
    _PACKET_HEADERS,
    # One value no hash index can take: the masks holding the field
    # cannot match, every other mask still decides.
    st.builds(
        lambda headers, name: {**headers, name: [headers[name]]},
        _PACKET_HEADERS,
        st.sampled_from(["ip_src", "tcp_src", "in_port"]),
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "ip_src": st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3"]),
            "tcp_dst": st.sampled_from([80, 81, 82]),
        },
    ),
)


class FlowTableMachine(RuleBasedStateMachine):
    """Every operation runs on a ``FlowTable`` and the list oracle; their
    winners, returns, counters, eviction order and contents must agree."""

    def __init__(self):
        super().__init__()
        self.table, self.oracle, self.now = FlowTable(), ListFlowTable(), 0.0

    @rule(match=_MATCHES, priority=_PRIORITIES, port=_PORTS)
    def add_immortal(self, match, priority, port):
        self.add(match, priority, port, idle=0.0, hard=0.0)

    @rule(match=_MATCHES, priority=_PRIORITIES, port=_PORTS, idle=_TIMEOUTS,
          hard=_TIMEOUTS)
    def add(self, match, priority, port, idle, hard):
        for table in (self.table, self.oracle):
            table.insert(
                FlowEntry(match=match, priority=priority,
                          actions=[ActionOutput(port=port)],
                          idle_timeout=idle, hard_timeout=hard),
                now=self.now,
            )

    @rule(match=_MATCHES, priority=st.none() | _PRIORITIES, strict=st.booleans())
    def modify(self, match, priority, strict):
        assert self.table.modify(
            match, [ActionDrop()], priority=priority, strict=strict
        ) == self.oracle.modify(
            match, [ActionDrop()], priority=priority, strict=strict
        )

    @rule(match=_MATCHES, priority=st.none() | _PRIORITIES, strict=st.booleans(),
          out_port=st.none() | _PORTS)
    def delete(self, match, priority, strict, out_port):
        assert self.table.delete(
            match, priority=priority, strict=strict, out_port=out_port
        ) == self.oracle.delete(
            match, priority=priority, strict=strict, out_port=out_port
        )

    @rule(step=st.sampled_from([0.0, 0.5, 1.0]))
    def expire(self, step):
        self.now += step
        assert self.table.expire(self.now) == self.oracle.expire(self.now)

    @rule(headers=_HEADERS)
    def lookup(self, headers):
        self._lookup(headers)

    @rule(headers=_HEADERS, in_port=st.integers(1, 4), keep_header=st.booleans())
    def lookup_with_in_port_argument(self, headers, in_port, keep_header):
        """How the switch looks up: the port as an argument, which
        overrides an ``in_port`` header when one is kept."""
        if not keep_header:
            headers = {k: v for k, v in headers.items() if k != "in_port"}
        self._lookup(headers, in_port)

    def _lookup(self, headers, in_port=None):
        winner = self.table.lookup(headers, in_port)
        expected = self.oracle.lookup(headers, in_port)
        assert winner == expected
        # Traffic on the winner refreshes its idle deadline (the heap's
        # reschedule-on-pop path).
        if winner is not None:
            winner.stats.record(64, now=self.now)
            expected.stats.record(64, now=self.now)

    @rule(match=_MATCHES, priority=st.none() | _PRIORITIES)
    def find(self, match, priority):
        assert self.table.find(match, priority) == self.oracle.find(match, priority)

    @rule(match=_MATCHES)
    def select(self, match):
        assert list(self.table.select(match)) == self.oracle.select(match)

    @invariant()
    def same_contents_and_counters(self):
        assert self.table.entries == self.oracle.entries
        assert len(self.table) == len(self.oracle)
        assert (self.table.lookup_count, self.table.matched_count) == (
            self.oracle.lookup_count, self.oracle.matched_count
        )


TestFlowTableAgainstOracle = FlowTableMachine.TestCase
TestFlowTableAgainstOracle.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None
)

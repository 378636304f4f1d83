"""Cross-cutting property-based tests.

These complement the per-module tests with randomized invariant checks:

* OpenFlow codec fuzzing (arbitrary messages survive the wire),
* flow-table behaviour vs a brute-force reference model,
* aggregation pipelines vs naive Python reference computations,
* Mongo-style vs Cassandra-style backend query equivalence,
* Athena query compilation vs direct evaluation.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dataplane.flowtable import FlowTable
from repro.distdb import ColumnStoreCluster, DatabaseCluster, aggregate
from repro.openflow import (
    ActionDrop,
    ActionOutput,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    Match,
    PacketIn,
    pack_message,
    unpack_message,
)
from repro.openflow.flow import FlowEntry

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_mac = st.integers(min_value=0, max_value=(1 << 48) - 1).map(
    lambda v: ":".join(f"{v:012x}"[i : i + 2] for i in range(0, 12, 2))
)
_ip = st.integers(min_value=0, max_value=(1 << 32) - 1).map(
    lambda v: f"{v >> 24 & 255}.{v >> 16 & 255}.{v >> 8 & 255}.{v & 255}"
)
_port = st.integers(min_value=0, max_value=65535)

_match_strategy = st.builds(
    Match,
    eth_src=st.one_of(st.none(), _mac),
    eth_dst=st.one_of(st.none(), _mac),
    eth_type=st.one_of(st.none(), st.sampled_from([0x0800, 0x0806])),
    ip_src=st.one_of(st.none(), _ip),
    ip_dst=st.one_of(st.none(), _ip),
    ip_proto=st.one_of(st.none(), st.sampled_from([1, 6, 17])),
    tcp_src=st.one_of(st.none(), _port),
    tcp_dst=st.one_of(st.none(), _port),
)

_actions_strategy = st.lists(
    st.one_of(
        st.builds(ActionOutput, port=st.integers(min_value=1, max_value=64)),
        st.just(ActionDrop()),
    ),
    max_size=4,
)


class TestCodecFuzz:
    @settings(max_examples=80, deadline=None)
    @given(
        match=_match_strategy,
        priority=st.integers(min_value=0, max_value=0xFFFF),
        actions=_actions_strategy,
        idle=st.floats(min_value=0, max_value=3600, allow_nan=False),
        hard=st.floats(min_value=0, max_value=3600, allow_nan=False),
        cookie=st.integers(min_value=0, max_value=(1 << 63) - 1),
        command=st.sampled_from(list(FlowModCommand)),
    )
    def test_flow_mod_roundtrip(
        self, match, priority, actions, idle, hard, cookie, command
    ):
        msg = FlowMod(
            dpid=1, command=command, match=match, priority=priority,
            actions=actions, idle_timeout=idle, hard_timeout=hard,
            cookie=cookie,
        )
        decoded = unpack_message(pack_message(msg))
        assert decoded.match == match
        assert decoded.priority == priority
        assert decoded.actions == actions
        assert decoded.command == command
        assert decoded.cookie == cookie

    @settings(max_examples=60, deadline=None)
    @given(
        match=_match_strategy,
        packets=st.integers(min_value=0, max_value=(1 << 62)),
        bytes_=st.integers(min_value=0, max_value=(1 << 62)),
        duration=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    def test_flow_removed_roundtrip(self, match, packets, bytes_, duration):
        msg = FlowRemoved(
            dpid=3, match=match, packet_count=packets,
            byte_count=bytes_, duration_sec=duration,
        )
        decoded = unpack_message(pack_message(msg))
        assert decoded.packet_count == packets
        assert decoded.byte_count == bytes_
        assert decoded.duration_sec == duration

    @settings(max_examples=60, deadline=None)
    @given(
        headers=st.dictionaries(
            st.sampled_from(["ip_src", "ip_dst", "eth_type", "tcp_dst"]),
            st.one_of(_ip, st.integers(min_value=0, max_value=65535)),
            max_size=4,
        ),
        in_port=st.integers(min_value=0, max_value=1 << 31),
        total_len=st.integers(min_value=0, max_value=1 << 16),
    )
    def test_packet_in_roundtrip(self, headers, in_port, total_len):
        msg = PacketIn(dpid=2, in_port=in_port, headers=headers,
                       total_len=total_len)
        decoded = unpack_message(pack_message(msg))
        assert decoded.headers == headers
        assert decoded.in_port == in_port


class TestFlowTableVsReference:
    @settings(max_examples=50, deadline=None)
    @given(
        rules=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),   # priority
                st.one_of(st.none(), st.integers(0, 2)), # tcp_dst or wildcard
                st.one_of(st.none(), st.integers(0, 2)), # ip_proto or wildcard
            ),
            min_size=1,
            max_size=15,
        ),
        probes=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_lookup_matches_brute_force(self, rules, probes):
        """Table lookup == brute-force max-priority/most-specific scan."""
        table = FlowTable()
        entries = []
        for idx, (priority, tcp_dst, ip_proto) in enumerate(rules):
            match = Match(tcp_dst=tcp_dst, ip_proto=ip_proto)
            entry = FlowEntry(match=match, priority=priority,
                              actions=[ActionOutput(port=idx + 1)])
            table.insert(entry, now=0.0)
            entries = table.entries  # includes replacement semantics
        for tcp_dst, ip_proto in probes:
            headers = {"tcp_dst": tcp_dst, "ip_proto": ip_proto}
            winner = table.lookup(headers)
            covering = [e for e in entries if e.match.matches(headers)]
            if not covering:
                assert winner is None
                continue
            best = max(
                covering,
                key=lambda e: (e.priority, e.match.specificity()),
            )
            assert winner is not None
            assert winner.priority == best.priority
            assert winner.match.specificity() == best.match.specificity()


class TestAggregationVsReference:
    @settings(max_examples=50, deadline=None)
    @given(
        docs=st.lists(
            st.fixed_dictionaries(
                {
                    "sw": st.integers(min_value=0, max_value=3),
                    "v": st.integers(min_value=-100, max_value=100),
                }
            ),
            max_size=40,
        )
    )
    def test_group_sum_avg_min_max(self, docs):
        rows = aggregate(
            docs,
            [
                {
                    "$group": {
                        "_id": "$sw",
                        "total": {"$sum": "$v"},
                        "mean": {"$avg": "$v"},
                        "low": {"$min": "$v"},
                        "high": {"$max": "$v"},
                        "n": {"$count": 1},
                    }
                }
            ],
        )
        by_key = {row["_id"]: row for row in rows}
        reference = {}
        for doc in docs:
            reference.setdefault(doc["sw"], []).append(doc["v"])
        assert set(by_key) == set(reference)
        for key, values in reference.items():
            assert by_key[key]["total"] == sum(values)
            assert by_key[key]["mean"] == sum(values) / len(values)
            assert by_key[key]["low"] == min(values)
            assert by_key[key]["high"] == max(values)
            assert by_key[key]["n"] == len(values)

    @settings(max_examples=40, deadline=None)
    @given(
        docs=st.lists(
            st.fixed_dictionaries(
                {"v": st.integers(min_value=0, max_value=50)}
            ),
            max_size=30,
        ),
        bound=st.integers(min_value=0, max_value=50),
        limit=st.integers(min_value=0, max_value=10),
    )
    def test_match_sort_limit(self, docs, bound, limit):
        rows = aggregate(
            docs,
            [
                {"$match": {"v": {"$gte": bound}}},
                {"$sort": {"v": -1}},
                {"$limit": limit},
            ],
        )
        reference = sorted(
            (d["v"] for d in docs if d["v"] >= bound), reverse=True
        )[:limit]
        assert [row["v"] for row in rows] == reference


class TestBackendEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        docs=st.lists(
            st.fixed_dictionaries(
                {
                    "switch_id": st.integers(min_value=0, max_value=4),
                    "x": st.integers(min_value=0, max_value=100),
                }
            ),
            max_size=30,
        ),
        bound=st.integers(min_value=0, max_value=100),
        pin=st.integers(min_value=0, max_value=4),
    )
    def test_mongo_and_column_store_agree(self, docs, bound, pin):
        mongo = DatabaseCluster(n_shards=2, replication=1)
        cassandra = ColumnStoreCluster(n_nodes=2, replication=1)
        mongo.insert_many("c", [dict(d) for d in docs])
        cassandra.insert_many("c", [dict(d) for d in docs])
        for filter_ in (
            None,
            {"x": {"$gt": bound}},
            {"switch_id": pin},
            {"$or": [{"switch_id": pin}, {"x": {"$lte": bound}}]},
        ):
            assert mongo.count("c", filter_) == cassandra.count("c", filter_)
        pipeline = [{"$group": {"_id": "$switch_id", "t": {"$sum": "$x"}}}]
        mongo_rows = {r["_id"]: r["t"] for r in mongo.aggregate("c", pipeline)}
        cassandra_rows = {
            r["_id"]: r["t"] for r in cassandra.aggregate("c", pipeline)
        }
        assert mongo_rows == cassandra_rows


class TestQueryCompilation:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=10),
        b=st.integers(min_value=0, max_value=10),
        c=st.integers(min_value=0, max_value=10),
        x=st.integers(min_value=0, max_value=10),
        y=st.integers(min_value=0, max_value=10),
    )
    def test_compiled_filter_equals_direct_evaluation(self, a, b, c, x, y):
        from repro.core.query import GenerateQuery
        from repro.distdb import matches_filter

        query = GenerateQuery(f"x > {a} && (y <= {b} || x == {c})")
        doc = {"x": x, "y": y}
        assert query.matches(doc) == matches_filter(doc, query.to_db_filter())

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=100), max_size=25),
        bound=st.integers(min_value=0, max_value=100),
    )
    def test_query_against_store_equals_python_filter(self, values, bound):
        from repro.core.query import GenerateQuery

        database = DatabaseCluster(n_shards=2, replication=1)
        database.insert_many("f", [{"V": v} for v in values])
        query = GenerateQuery(f"V >= {bound}")
        found = database.find("f", query.to_db_filter() or None)
        assert sorted(d["V"] for d in found) == sorted(
            v for v in values if v >= bound
        )


# ---------------------------------------------------------------------------
# Chaos: random fault plans preserve the liveness/durability invariants
# ---------------------------------------------------------------------------

def _chaos_event_strategy():
    """Random valid fault events for a 2-switch / 2-instance / 3-shard
    / 4-worker deployment, on a 0-6 s schedule."""
    t = st.integers(min_value=0, max_value=60).map(lambda v: v / 10.0)
    dur = st.integers(min_value=1, max_value=30).map(lambda v: v / 10.0)
    rate = st.sampled_from([0.0, 0.1, 0.5, 1.0])
    inst = st.integers(min_value=0, max_value=1)
    shard = st.integers(min_value=0, max_value=2)
    worker = st.integers(min_value=0, max_value=3)
    opt_dur = st.one_of(st.none(), dur)

    def ev(kind, **param_strategies):
        return st.tuples(
            t, st.just(kind), st.fixed_dictionaries(param_strategies)
        )

    return st.lists(
        st.one_of(
            ev("instance_down", instance=inst),
            ev("instance_up", instance=inst),
            ev("shard_down", shard=shard, duration=opt_dur),
            ev("shard_up", shard=shard),
            ev("replica_lag", shard=shard, duration=dur),
            ev("link_down", a=st.just(1), b=st.just(2), duration=opt_dur),
            ev("link_up", a=st.just(1), b=st.just(2)),
            ev("link_flap", a=st.just(1), b=st.just(2),
               down_for=st.just(0.2), times=st.integers(1, 3),
               period=st.just(0.5)),
            ev("partition", groups=st.just([[1], [2]]), duration=opt_dur),
            ev("worker_crash", worker=worker,
               count=st.integers(min_value=1, max_value=3)),
            ev("sb_drop", instance=inst, rate=rate, duration=dur),
            ev("sb_delay", instance=inst, rate=rate,
               delay=st.just(0.05), duration=dur),
            ev("sb_dup", instance=inst, rate=rate, duration=dur),
        ),
        min_size=1,
        max_size=8,
    )


def _build_chaos_deployment():
    from repro.controller import ControllerCluster
    from repro.core import AthenaDeployment
    from repro.dataplane.topologies import linear_topology

    topo = linear_topology(n_switches=2, hosts_per_switch=1)
    cluster = ControllerCluster(topo.network, n_instances=2)
    cluster.adopt_all()
    cluster.start(poll=False)
    athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
    athena.start(poll=False)
    return topo, cluster, athena


def _plan_from(events, seed):
    from repro.chaos import FaultPlan

    plan = FaultPlan(seed=seed)
    for at, kind, params in events:
        plan.add(
            at, kind,
            **{k: v for k, v in params.items() if v is not None},
        )
    return plan


# The "chaos-plans" profile (tests/conftest.py) draws more plans under --wide.
class TestChaosProperties:
    @settings(settings.get_profile("chaos-plans"))
    @given(events=_chaos_event_strategy(), seed=st.integers(0, 2**16))
    def test_random_plans_terminate_and_fire_every_event(self, events, seed):
        # Liveness: whatever the schedule, the sim drains (no deadlock)
        # and every event either applied or was counted as skipped.
        from repro.chaos import ChaosController

        topo, cluster, athena = _build_chaos_deployment()
        plan = _plan_from(events, seed)
        chaos = ChaosController(athena, plan, seed=seed)
        chaos.arm()
        topo.network.sim.run(until=7.0)
        assert chaos.faults_injected + chaos.faults_skipped == len(plan)

    @settings(settings.get_profile("chaos-plans"))
    @given(events=_chaos_event_strategy(), seed=st.integers(0, 2**16))
    def test_no_acknowledged_write_is_lost(self, events, seed):
        # Durability: features published during arbitrary faults are never
        # dropped — once every shard is back, everything buffered commits.
        from repro.chaos import ChaosController
        from repro.core.feature_format import AthenaFeature, FeatureScope

        topo, cluster, athena = _build_chaos_deployment()
        chaos = ChaosController(athena, _plan_from(events, seed), seed=seed)
        chaos.arm()
        sim = topo.network.sim
        published = 12
        for i in range(published):
            sim.at(
                0.25 + i * 0.5,
                lambda i=i: athena.feature_manager.publish(
                    AthenaFeature(
                        scope=FeatureScope.FLOW,
                        switch_id=1 + i % 2,
                        instance_id=0,
                        timestamp=sim.now,
                        indicators={"ip_src": f"10.0.0.{i}"},
                        fields={"FLOW_PACKET_COUNT": float(i)},
                    ).to_document()
                ),
            )
        sim.run(until=7.0)
        for node_id in range(len(athena.database.shards)):
            athena.database.recover_shard(node_id)
            athena.database.end_replica_lag(node_id)
        athena.feature_manager.flush_pending()
        assert athena.feature_manager.pending_writes == 0
        assert athena.feature_manager.count_features() == published

    @settings(settings.get_profile("chaos-plans"))
    @given(events=_chaos_event_strategy(), seed=st.integers(0, 2**16))
    def test_every_switch_has_a_live_master_after_recovery(
        self, events, seed
    ):
        # Safety: after the dust settles and failed instances rejoin, no
        # switch is left masterless or attached to a down instance.
        from repro.chaos import ChaosController

        topo, cluster, athena = _build_chaos_deployment()
        chaos = ChaosController(athena, _plan_from(events, seed), seed=seed)
        chaos.arm()
        topo.network.sim.run(until=7.0)
        for instance_id in sorted(cluster.down_instances):
            cluster.recover_instance(instance_id)
        assert not cluster.down_instances
        for dpid in topo.network.switches:
            master = cluster.mastership.master_of(dpid)
            assert master not in cluster.down_instances
            assert dpid in cluster.instance(master).switches
